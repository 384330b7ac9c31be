//! Determinism property test for the sharded scatter-gather path.
//!
//! The invariant: merged results are **bit-identical** to the
//! single-shard path, for every shard count N ∈
//! {1, 2, 4, 8} and every thread count. The thread-count axis is covered
//! twice: in-process by comparing each parallel run against the exact
//! serial program (`mlake_par::serial`), and across processes by ci.sh
//! re-running this suite under `MLAKE_THREADS=1`.

use mlake_index::{FlatIndex, HnswConfig, HnswIndex, ShardedIndex, VectorIndex};
use proptest::prelude::*;

fn build<I: VectorIndex>(idx: &mut I, data: &[(u64, Vec<f32>)]) {
    for (id, v) in data {
        idx.insert(*id, v).unwrap();
    }
}

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

fn assert_bit_identical(got: &[mlake_index::Hit], want: &[mlake_index::Hit], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: result length");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "{label}: id order");
        assert_eq!(
            g.distance.to_bits(),
            w.distance.to_bits(),
            "{label}: distance bits"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat (exact) inner shards: sharded results equal the unsharded
    /// index bit-for-bit at every N, and every parallel run equals the
    /// serial program bit-for-bit.
    #[test]
    fn sharded_flat_bit_identical_across_shards_and_threads(
        n in 1usize..160,
        dim in 2usize..24,
        k in 1usize..16,
        seed in 0u64..1_000,
    ) {
        let data = embeddings(n, dim, seed);
        let mut flat = FlatIndex::new();
        build(&mut flat, &data);
        let q = &data[(seed as usize) % data.len()].1;
        let want = flat.search(q, k).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let mut idx = ShardedIndex::new(shards, FlatIndex::new);
            build(&mut idx, &data);
            let parallel = idx.search(q, k).unwrap();
            let serial = mlake_par::serial(|| idx.search(q, k).unwrap());
            assert_bit_identical(&parallel, &want, &format!("N={shards} vs flat"));
            assert_bit_identical(&parallel, &serial, &format!("N={shards} par vs serial"));
        }
    }
}

/// HNSW inner shards at an effectively-exhaustive beam (ef ≥ shard size):
/// the merge must still reproduce the exact top-k.
#[test]
fn sharded_hnsw_exhaustive_beam_matches_flat() {
    let data = embeddings(96, 12, 42);
    let mut flat = FlatIndex::new();
    build(&mut flat, &data);
    let cfg = HnswConfig {
        ef_search: 256, // ≥ every shard's size: the beam is exhaustive
        ef_construction: 256,
        ..HnswConfig::default()
    };
    for shards in [1usize, 2, 4, 8] {
        let mut idx = ShardedIndex::new(shards, || HnswIndex::new(cfg));
        build(&mut idx, &data);
        for probe in [0usize, 17, 63] {
            let q = &data[probe].1;
            let want = flat.search(q, 8).unwrap();
            let got = idx.search(q, 8).unwrap();
            let serial = mlake_par::serial(|| idx.search(q, 8).unwrap());
            assert_bit_identical(&got, &want, &format!("hnsw N={shards} vs flat"));
            assert_bit_identical(&got, &serial, &format!("hnsw N={shards} par vs serial"));
        }
    }
}

/// HNSW inner shards built by the insert loop under a narrow beam (graphs
/// that differ answer differently): the build under the serial program and
/// under default threads, each searched the same way, must answer every
/// query bit-identically.
#[test]
fn sharded_hnsw_batch_build_is_thread_count_independent() {
    for shards in [1usize, 4] {
        let data = embeddings(400 * shards, 12, 5);
        let cfg = HnswConfig {
            m: 6,
            ef_construction: 24,
            ef_search: 12,
            ..HnswConfig::default()
        };
        let built = || {
            let mut idx = ShardedIndex::new(shards, || HnswIndex::new(cfg));
            build(&mut idx, &data);
            idx
        };
        let parallel = built();
        let serial = mlake_par::serial(built);
        let queries: Vec<Vec<f32>> = data.iter().step_by(7).map(|(_, v)| v.clone()).collect();
        let got = parallel.search_many(&queries, 10).unwrap();
        let want = mlake_par::serial(|| serial.search_many(&queries, 10).unwrap());
        for (g, w) in got.iter().zip(&want) {
            assert_bit_identical(g, w, &format!("hnsw batch build N={shards} par vs serial"));
        }
    }
}

/// Repeated searches on the same sharded index are identical run to run
/// (no ordering dependence on the scatter's completion order).
#[test]
fn repeated_searches_are_stable() {
    let data = embeddings(128, 16, 9);
    let mut idx = ShardedIndex::new(8, FlatIndex::new);
    build(&mut idx, &data);
    let q = &data[7].1;
    let first = idx.search(q, 10).unwrap();
    for _ in 0..20 {
        assert_bit_identical(&idx.search(q, 10).unwrap(), &first, "repeat");
    }
}
