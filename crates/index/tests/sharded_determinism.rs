//! Determinism of [`ShardedIndex`], the one-index wrapper the end-to-end
//! benchmark builds its replica of the lake's index through, over HNSW.
//!
//! The wrapper forwards to its one inner index, so its answers must be the
//! inner index's bit for bit: equal to the exact flat scan at an
//! exhaustive beam, equal between a build under the serial program
//! (`mlake_par::serial`) and one under default threads, and equal from one
//! repeat of a search to the next. ci.sh re-runs this suite under
//! `MLAKE_THREADS=1`.

use mlake_index::{FlatIndex, Hit, HnswConfig, HnswIndex, ShardedIndex, VectorIndex};

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

fn assert_bit_identical(got: &[Hit], want: &[Hit], label: &str) {
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

/// HNSW behind the wrapper at an exhaustive beam (ef ≥ n) reproduces the
/// exact top-k, under default threads and under the serial program.
#[test]
fn sharded_hnsw_exhaustive_beam_matches_flat() {
    let data = embeddings(96, 12, 42);
    let mut flat = FlatIndex::new();
    build(&mut flat, &data);
    let cfg = HnswConfig {
        ef_search: 256, // ≥ the index's size: the beam is exhaustive
        ef_construction: 256,
        ..HnswConfig::default()
    };
    let mut idx = ShardedIndex::new(1, || HnswIndex::new(cfg));
    build(&mut idx, &data);
    for probe in [0usize, 17, 63] {
        let q = &data[probe].1;
        let want = flat.search(q, 8).unwrap();
        let got = idx.search(q, 8).unwrap();
        let serial = mlake_par::serial(|| idx.search(q, 8).unwrap());
        assert_bit_identical(&got, &want, "hnsw vs flat");
        assert_bit_identical(&got, &serial, "hnsw par vs serial");
    }
}

/// HNSW built by the insert loop under a narrow beam (graphs that differ
/// answer differently): the build under the serial program and under
/// default threads, each searched the same way, must answer every query
/// bit-identically.
#[test]
fn sharded_hnsw_batch_build_is_thread_count_independent() {
    let data = embeddings(400, 12, 5);
    let cfg = HnswConfig {
        m: 6,
        ef_construction: 24,
        ef_search: 12,
        ..HnswConfig::default()
    };
    let built = || {
        let mut idx = ShardedIndex::new(1, || HnswIndex::new(cfg));
        build(&mut idx, &data);
        idx
    };
    let parallel = built();
    let serial = mlake_par::serial(built);
    let queries: Vec<Vec<f32>> = data.iter().step_by(7).map(|(_, v)| v.clone()).collect();
    let got = parallel.search_many(&queries, 10).unwrap();
    let want = mlake_par::serial(|| serial.search_many(&queries, 10).unwrap());
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_bit_identical(g, w, "hnsw batch build par vs serial");
    }
}

/// Repeated searches on the same index are identical run to run: the
/// beam's reused per-thread scratch leaves nothing behind that changes
/// the next answer.
#[test]
fn repeated_searches_are_stable() {
    let data = embeddings(128, 16, 9);
    let mut idx = ShardedIndex::new(1, || HnswIndex::new(HnswConfig::default()));
    build(&mut idx, &data);
    let q = &data[7].1;
    let first = idx.search(q, 10).unwrap();
    for _ in 0..20 {
        assert_bit_identical(&idx.search(q, 10).unwrap(), &first, "repeat");
    }
}
