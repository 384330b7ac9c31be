//! A `&self` HNSW search reuses its thread's scratch buffers (the beam's
//! visited stamps and heaps). One thread alternating searches over two
//! indexes of different sizes, and the pool's workers answering batches,
//! must each return the bits of the same search made on a thread that has
//! never searched before. So must the same query repeated on one thread,
//! and a copy of the graph built under the serial program
//! (`mlake_par::serial`) answering the pool's batches.
//!
//! This is the only test in this binary: it sets `MLAKE_THREADS=2` before
//! the pool's first region, which reads it once per process.

use mlake_index::{Hit, HnswConfig, HnswIndex, VectorIndex};
use mlake_tensor::Pcg64;

const K: usize = 10;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Pcg64::new(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.normal()).collect())
        .collect()
}

fn build(n: usize, seed: u64) -> HnswIndex {
    let mut index = HnswIndex::new(HnswConfig {
        seed,
        ..Default::default()
    });
    for (i, v) in random_vectors(n, 16, seed).iter().enumerate() {
        index.insert(i as u64 * 5 + 2, v).unwrap();
    }
    index
}

fn bits(hits: &[Hit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

/// The answer of a thread whose scratch starts empty.
fn fresh(index: &HnswIndex, q: &[f32]) -> Vec<(u64, u32)> {
    std::thread::scope(|s| {
        s.spawn(|| bits(&index.search(q, K).unwrap()))
            .join()
            .unwrap()
    })
}

#[test]
fn reused_search_scratch_answers_like_a_fresh_one() {
    std::env::set_var("MLAKE_THREADS", "2");
    let small = build(50, 3);
    let large = build(900, 4);
    let serial_large = mlake_par::serial(|| build(900, 4));
    let queries = random_vectors(24, 16, 5);
    let want = |index: &HnswIndex| -> Vec<Vec<(u64, u32)>> {
        queries.iter().map(|q| fresh(index, q)).collect()
    };
    let (want_small, want_large) = (want(&small), want(&large));
    for w in want_small.iter().chain(&want_large) {
        assert_eq!(w.len(), K, "a fresh search found too few hits");
    }

    // One thread, the two indexes in alternation (the order flips every
    // query), so each search inherits stamps and heaps from the other's.
    for (i, q) in queries.iter().enumerate() {
        let mut pair = [
            (&small, &want_small, "small"),
            (&large, &want_large, "large"),
        ];
        if i % 2 == 1 {
            pair.reverse();
        }
        for (index, want, label) in pair {
            assert_eq!(
                bits(&index.search(q, K).unwrap()),
                want[i],
                "{label} index, query {i}"
            );
        }
    }

    // One query repeated on one thread.
    for _ in 0..20 {
        assert_eq!(
            bits(&large.search(&queries[7], K).unwrap()),
            want_large[7],
            "repeat"
        );
    }

    // The pool: each worker's scratch serves queries of both indexes.
    assert_eq!(mlake_par::num_threads(), 2);
    for (index, want, label) in [
        (&large, &want_large, "large"),
        (&small, &want_small, "small"),
        (&large, &want_large, "large"),
        (&serial_large, &want_large, "serially built large"),
    ] {
        let batched = index.search_many(&queries, K).unwrap();
        let got: Vec<_> = batched.iter().map(|hits| bits(hits)).collect();
        assert_eq!(&got, want, "search_many over the {label} index");
    }
}
