//! Property tests pinning the wire protocol to the facade types: for any
//! value a client can legally hold, serialize → deserialize is identity.
//! This is what stops `mlake-proto` drifting from the library — the wire
//! representation *is* the library type, proven round-trip-stable here.

use mlake_core::ErrorKind;
use mlake_proto::{
    decode_request, decode_response, encode_request, encode_response, status_for,
    ApiError, ApiRequest, ApiResponse, ScoredHit, SimilarHit, WireRef,
};
use mlake_query::QueryHit;
use mlake_wal::SyncPolicy;
use proptest::prelude::*;
use proptest::prop_oneof;

fn wire_ref() -> impl Strategy<Value = WireRef> {
    prop_oneof![
        any::<u64>().prop_map(WireRef::Id),
        "[a-z][a-z0-9-]{0,20}".prop_map(WireRef::Name),
        "[0-9a-f]{64}".prop_map(WireRef::Digest),
    ]
}

fn query_hit() -> impl Strategy<Value = QueryHit> {
    (
        any::<u64>(),
        proptest::option::of(-1.0f32..1.0),
        proptest::option::of(0.0f32..50.0),
        proptest::option::of(-100.0f64..100.0),
    )
        .prop_map(|(id, similarity, text_score, score)| QueryHit {
            id,
            similarity,
            text_score,
            score,
        })
}

#[test]
fn sync_policy_round_trip() {
    let s = SyncPolicy::Always;
    let back: SyncPolicy = serde_json::from_slice(&serde_json::to_vec(&s).unwrap()).unwrap();
    assert_eq!(back, s);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn model_ref_round_trips(r in wire_ref()) {
        let req = ApiRequest::Resolve { model: r };
        let back = decode_request(&encode_request(&req)).expect("decode");
        prop_assert_eq!(req, back);
    }

    #[test]
    fn query_results_round_trip(hits in proptest::collection::vec(query_hit(), 0..24)) {
        let resp = ApiResponse::Hits { hits };
        let back = decode_response(&encode_response(&resp)).expect("decode");
        prop_assert_eq!(resp, back);
    }

    #[test]
    fn similar_hits_round_trip(
        raw in proptest::collection::vec((any::<u64>(), 0.0f32..1.0), 0..16)
    ) {
        let hits = raw
            .into_iter()
            .map(|(id, similarity)| SimilarHit { id, similarity })
            .collect();
        let resp = ApiResponse::Similar { hits };
        let back = decode_response(&encode_response(&resp)).expect("decode");
        prop_assert_eq!(resp, back);
    }

    #[test]
    fn scored_hits_round_trip(
        raw in proptest::collection::vec((any::<u64>(), 0.0f32..50.0), 0..16)
    ) {
        let hits = raw
            .into_iter()
            .map(|(id, score)| ScoredHit { id, score })
            .collect();
        let resp = ApiResponse::Scored { hits };
        let back = decode_response(&encode_response(&resp)).expect("decode");
        prop_assert_eq!(resp, back);
    }
}

#[test]
fn every_error_kind_has_a_status_and_round_trips() {
    let kinds = [
        ErrorKind::NotFound,
        ErrorKind::Conflict,
        ErrorKind::InvalidInput,
        ErrorKind::Corrupt,
        ErrorKind::Unavailable,
        ErrorKind::Internal,
    ];
    for kind in kinds {
        let status = status_for(kind);
        assert!((400..600).contains(&status), "{kind}: {status}");
        let resp = ApiResponse::Error(ApiError {
            kind,
            status,
            message: format!("synthetic {kind}"),
        });
        let back = decode_response(&encode_response(&resp)).expect("decode");
        assert_eq!(resp, back);
    }
}
