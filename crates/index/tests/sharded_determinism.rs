//! [`ShardedIndex`] is the one-index wrapper the end-to-end benchmark
//! builds its replica of the lake's index through. It forwards to its one
//! inner index, so over HNSW it must answer `search` and `search_many` bit
//! for bit like a bare [`HnswIndex`] built from the same inserts.
//!
//! The properties of HNSW itself each have one home elsewhere: an
//! exhaustive beam answers like the flat scan in
//! `proptests.rs::hnsw_exact_when_ef_covers_all`; repeated searches and the
//! pool's batches answer like fresh per-query searches in
//! `search_scratch.rs`.

use mlake_index::{Hit, HnswConfig, HnswIndex, ShardedIndex, VectorIndex};

fn embeddings(n: usize, dim: usize, seed: u64) -> Vec<(u64, Vec<f32>)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|i| {
            let v = (0..dim)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                })
                .collect();
            (i as u64, v)
        })
        .collect()
}

fn bits(hits: &[Hit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

/// A narrow beam, so that graphs which differ would answer differently.
#[test]
fn one_shard_wrapper_answers_like_a_bare_hnsw_index() {
    let data = embeddings(400, 12, 5);
    let cfg = HnswConfig {
        m: 6,
        ef_construction: 24,
        ef_search: 12,
        ..HnswConfig::default()
    };
    let mut bare = HnswIndex::new(cfg);
    let mut wrapped = ShardedIndex::new(1, || HnswIndex::new(cfg));
    for (id, v) in &data {
        bare.insert(*id, v).unwrap();
        wrapped.insert(*id, v).unwrap();
    }
    assert_eq!(wrapped.len(), bare.len());
    let queries: Vec<Vec<f32>> = data.iter().step_by(7).map(|(_, v)| v.clone()).collect();
    for q in &queries {
        let want = bits(&bare.search(q, 10).unwrap());
        assert_eq!(bits(&wrapped.search(q, 10).unwrap()), want, "search");
    }
    let want = bare.search_many(&queries, 10).unwrap();
    let got = wrapped.search_many(&queries, 10).unwrap();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(bits(g), bits(w), "search_many");
    }
}
