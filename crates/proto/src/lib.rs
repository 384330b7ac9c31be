//! Wire protocol for the lake service (DESIGN.md §14).
//!
//! `mlake-server` exposes the [`mlake_core::ModelLake`] facade over
//! HTTP/1.1; this crate defines everything both ends of that wire agree
//! on, with no networking of its own:
//!
//! * [`ApiRequest`] / [`ApiResponse`] — one variant per facade operation,
//!   serialized as JSON through the vendored serde shim's standard
//!   external enum representation (`{"Variant": {..fields..}}`, bare
//!   `"Variant"` for unit variants).
//! * [`WireRef`] — the owned, wire-stable form of
//!   [`mlake_core::ModelRef`]: a model is addressed by lake-local id,
//!   unique name, or hex content digest, and every read route accepts any
//!   of the three.
//! * [`ApiError`] + [`status_for`] — the canonical mapping from the
//!   facade's [`ErrorKind`] taxonomy to HTTP status codes. Servers
//!   dispatch on `LakeError::kind()`, never on error strings.
//!
//! The payload types themselves (`Model`, `ModelCard`, `Citation`,
//! `AuditReport`, `QueryHit`, `MetricsSnapshot`) are the facade's own
//! types — the protocol cannot drift from the library because it *is* the
//! library's types on the wire.

use mlake_cards::audit::AuditReport;
use mlake_cards::{Citation, ModelCard};

// Re-exported so wire clients (the load generator, external tools) can
// build typed requests without depending on the card crate directly.
pub use mlake_cards::ModelCard as WireModelCard;
use mlake_core::hash::Digest;
use mlake_core::{ErrorKind, GcReport, LakeError, ModelId, ModelRef};
use mlake_fingerprint::FingerprintKind;
use mlake_nn::Model;
use mlake_obs::MetricsSnapshot;
use mlake_query::QueryHit;

/// Owned model reference as it travels on the wire. The borrowed
/// [`ModelRef`] stays the in-process API; `WireRef` is its serializable
/// twin, convertible in both directions ([`WireRef::from`] /
/// [`WireRef::as_model_ref`]).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WireRef {
    /// Lake-local identifier.
    Id(u64),
    /// Unique registered name.
    Name(String),
    /// Hex-encoded content digest (64 lowercase hex chars).
    Digest(String),
}

impl WireRef {
    /// Borrowed [`ModelRef`] view for the facade's `impl Into<ModelRef>`
    /// entry points. A `Digest` ref parses its hex first; a malformed
    /// digest is the caller's input error.
    pub fn as_model_ref<'a>(
        &'a self,
        scratch: &'a mut Option<Digest>,
    ) -> Result<ModelRef<'a>, LakeError> {
        match self {
            WireRef::Id(id) => Ok(ModelRef::Id(ModelId(*id))),
            WireRef::Name(name) => Ok(ModelRef::Name(name)),
            WireRef::Digest(hex) => {
                let digest = Digest::from_hex(hex).ok_or_else(|| {
                    LakeError::Config(format!("malformed digest ref: '{hex}'"))
                })?;
                Ok(ModelRef::Digest(scratch.insert(digest)))
            }
        }
    }
}

impl From<ModelRef<'_>> for WireRef {
    fn from(r: ModelRef<'_>) -> WireRef {
        match r {
            ModelRef::Id(id) => WireRef::Id(id.0),
            ModelRef::Name(n) => WireRef::Name(n.to_string()),
            ModelRef::Digest(d) => WireRef::Digest(d.to_hex()),
        }
    }
}

impl From<ModelId> for WireRef {
    fn from(id: ModelId) -> WireRef {
        WireRef::Id(id.0)
    }
}

impl std::fmt::Display for WireRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireRef::Id(id) => write!(f, "{}", ModelId(*id)),
            WireRef::Name(n) => f.write_str(n),
            WireRef::Digest(d) => write!(f, "sha256:{}", &d[..d.len().min(12)]),
        }
    }
}

/// One request to the lake service. Every variant maps 1:1 onto a typed
/// [`mlake_core::ModelLake`] facade call — the server contains no lake
/// logic of its own.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ApiRequest {
    /// `ModelLake::ingest_model`: store, fingerprint and index a model.
    Ingest {
        /// Unique model name.
        name: String,
        /// The artifact itself.
        model: Model,
        /// Card to install (`None` installs a skeleton).
        #[serde(default)]
        card: Option<ModelCard>,
    },
    /// `ModelLake::similar`: content-based related-model search.
    Similar {
        /// Query model.
        model: WireRef,
        /// Fingerprint viewpoint.
        kind: FingerprintKind,
        /// Result count.
        k: usize,
    },
    /// `ModelLake::text_search`: BM25 full-text search over card text.
    TextSearch {
        /// Free-text query.
        query: String,
        /// Result count.
        k: usize,
    },
    /// `ModelLake::hybrid_search`: reciprocal-rank fusion of the BM25
    /// text ranking with the vector ranking around an anchor model.
    HybridSearch {
        /// Free-text query.
        query: String,
        /// Anchor model for the vector branch.
        model: WireRef,
        /// Fingerprint viewpoint of the vector branch.
        kind: FingerprintKind,
        /// Result count.
        k: usize,
    },
    /// `ModelLake::prepare(..).run()`: execute an MLQL query.
    Query {
        /// MLQL text.
        mlql: String,
    },
    /// `ModelLake::prepare(..).explain()`: plan without executing.
    Explain {
        /// MLQL text.
        mlql: String,
    },
    /// `ModelLake::identity`: canonicalize any ref to all three
    /// identities.
    Resolve {
        /// Any model identity.
        model: WireRef,
    },
    /// `ModelLake::cite`: graph-timestamped citation.
    Cite {
        /// Any model identity.
        model: WireRef,
    },
    /// `ModelLake::audit_model`: standard questionnaire audit.
    Audit {
        /// Any model identity.
        model: WireRef,
    },
    /// `ModelLake::update_card`: replace a model's card.
    UpdateCard {
        /// Any model identity.
        model: WireRef,
        /// Replacement card.
        card: ModelCard,
    },
    /// `ModelLake::model_names`: list registered models.
    ListModels,
    /// `ModelLake::sync`: the WAL commit barrier.
    Sync,
    /// `ModelLake::gc`: collect unreachable blobs and segments.
    Gc,
    /// `mlake_obs::snapshot`: point-in-time metrics.
    Metrics,
}

impl ApiRequest {
    /// Stable label for spans/histograms (`http.<label>`).
    pub fn label(&self) -> &'static str {
        match self {
            ApiRequest::Ingest { .. } => "ingest",
            ApiRequest::Similar { .. } => "similar",
            ApiRequest::TextSearch { .. } => "text_search",
            ApiRequest::HybridSearch { .. } => "hybrid_search",
            ApiRequest::Query { .. } => "query",
            ApiRequest::Explain { .. } => "explain",
            ApiRequest::Resolve { .. } => "resolve",
            ApiRequest::Cite { .. } => "cite",
            ApiRequest::Audit { .. } => "audit",
            ApiRequest::UpdateCard { .. } => "update_card",
            ApiRequest::ListModels => "list_models",
            ApiRequest::Sync => "sync",
            ApiRequest::Gc => "gc",
            ApiRequest::Metrics => "metrics",
        }
    }
}

/// One similarity hit on the wire.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimilarHit {
    /// Model id.
    pub id: u64,
    /// Similarity in `[0, 1]`-ish (1 − cosine distance).
    pub similarity: f32,
}

/// One relevance-ranked hit on the wire (text or hybrid search). The
/// score is a BM25 value for text search and RRF mass for hybrid —
/// comparable within one response, not across searches.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScoredHit {
    /// Model id.
    pub id: u64,
    /// Relevance score, descending within the response.
    pub score: f32,
}

/// Success payloads, one variant per [`ApiRequest`] variant.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ApiResponse {
    /// Ingest succeeded; on a durable lake the write is fsynced.
    Ingested {
        /// Assigned lake-local id.
        id: u64,
    },
    /// Similarity results, best first.
    Similar {
        /// Hits.
        hits: Vec<SimilarHit>,
    },
    /// Text / hybrid search results, best first.
    Scored {
        /// Hits, score descending.
        hits: Vec<ScoredHit>,
    },
    /// MLQL result rows.
    Hits {
        /// Result rows.
        hits: Vec<QueryHit>,
    },
    /// MLQL plan description.
    Plan {
        /// One line per plan step.
        steps: Vec<String>,
    },
    /// All three identities of a resolved model.
    Resolved {
        /// Lake-local id.
        id: u64,
        /// Unique name.
        name: String,
        /// Hex content digest.
        digest: String,
    },
    /// A citation.
    Cited {
        /// The citation record.
        citation: Citation,
        /// Its stable key (`lake/model@vN`).
        key: String,
    },
    /// An audit report.
    Audited {
        /// The report.
        report: AuditReport,
    },
    /// Card replaced.
    CardUpdated,
    /// Registered model names in id order.
    Models {
        /// Names.
        names: Vec<String>,
    },
    /// WAL flushed to stable storage.
    Synced,
    /// Garbage collection finished; what it reclaimed.
    GcDone {
        /// Orphan/dead file counts and bytes reclaimed.
        report: GcReport,
    },
    /// Metrics snapshot (empty when `MLAKE_OBS=off`).
    Metrics {
        /// The snapshot.
        snapshot: MetricsSnapshot,
    },
    /// The operation failed; see [`ApiError`].
    Error(ApiError),
}

/// Wire form of a failed operation: the stable kind, the HTTP status the
/// server used, and a human-readable message (diagnostic only — clients
/// must dispatch on `kind`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ApiError {
    /// Stable error classification.
    pub kind: ErrorKind,
    /// HTTP status the mapping assigns this kind.
    pub status: u16,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Classifies a facade error for the wire.
    pub fn from_lake(e: &LakeError) -> ApiError {
        let kind = e.kind();
        ApiError {
            kind,
            status: status_for(kind),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.kind, self.status, self.message)
    }
}

/// The documented [`ErrorKind`] → HTTP status mapping (DESIGN.md §14).
/// Exhaustive by construction: a new kind fails compilation here.
pub fn status_for(kind: ErrorKind) -> u16 {
    match kind {
        ErrorKind::NotFound => 404,
        ErrorKind::Conflict => 409,
        ErrorKind::InvalidInput => 400,
        ErrorKind::Corrupt => 500,
        ErrorKind::Unavailable => 503,
        ErrorKind::Internal => 500,
    }
}

/// Protocol-level failure: bytes that are not a valid request/response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Serializes a request to its JSON wire form.
pub fn encode_request(req: &ApiRequest) -> Vec<u8> {
    serde_json::to_vec(req).unwrap_or_default()
}

/// Parses a request from its JSON wire form.
pub fn decode_request(bytes: &[u8]) -> Result<ApiRequest, WireError> {
    serde_json::from_slice(bytes).map_err(|e| WireError(e.to_string()))
}

/// Serializes a response to its JSON wire form.
pub fn encode_response(resp: &ApiResponse) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(resp, &mut out);
    out
}

/// Appends a response's JSON wire form to `out`, written straight from
/// the value: the server encodes into its connection's output buffer.
pub fn encode_response_into(resp: &ApiResponse, out: &mut Vec<u8>) {
    serde::Serialize::write_json(resp, out);
}

/// Parses a response from its JSON wire form.
pub fn decode_response(bytes: &[u8]) -> Result<ApiResponse, WireError> {
    serde_json::from_slice(bytes).map_err(|e| WireError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            ApiRequest::Similar {
                model: WireRef::Name("legal-base".into()),
                kind: FingerprintKind::Hybrid,
                k: 5,
            },
            ApiRequest::TextSearch { query: "sentiment finance".into(), k: 10 },
            ApiRequest::HybridSearch {
                query: "legal tabular".into(),
                model: WireRef::Name("legal-base".into()),
                kind: FingerprintKind::Intrinsic,
                k: 5,
            },
            ApiRequest::Query { mlql: "FIND MODELS WHERE domain = 'legal'".into() },
            ApiRequest::Query { mlql: "FIND MODELS MATCHES 'rnn news' TOP 4".into() },
            ApiRequest::Resolve { model: WireRef::Id(3) },
            ApiRequest::Cite { model: WireRef::Digest("ab".repeat(32)) },
            ApiRequest::ListModels,
            ApiRequest::Sync,
            ApiRequest::Gc,
            ApiRequest::Metrics,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("decode");
            assert_eq!(req, back);
            assert!(!req.label().is_empty());
        }
    }

    #[test]
    fn error_mapping_is_stable() {
        let e = LakeError::NotFound { kind: "model", name: "ghost".into() };
        let api = ApiError::from_lake(&e);
        assert_eq!(api.kind, ErrorKind::NotFound);
        assert_eq!(api.status, 404);
        let resp = ApiResponse::Error(api);
        let back = decode_response(&encode_response(&resp)).expect("decode");
        assert_eq!(resp, back);
    }

    #[test]
    fn malformed_digest_is_invalid_input() {
        let r = WireRef::Digest("not-hex".into());
        let mut scratch = None;
        let err = r.as_model_ref(&mut scratch).expect_err("must reject");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }
}
