//! Property-based invariants across the two index implementations.

use mlake_index::{FlatIndex, HnswConfig, HnswIndex, VectorIndex};
use proptest::prelude::*;

fn vectors(n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, dim..=dim), n..=n)
        .prop_filter("non-degenerate vectors", |vs| {
            vs.iter().all(|v| v.iter().any(|&x| x.abs() > 1e-3))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With ef >= n, HNSW returns exactly the flat-scan answer.
    #[test]
    fn hnsw_exact_when_ef_covers_all(vs in vectors(24, 6), seed in any::<u64>()) {
        let mut hnsw = HnswIndex::new(HnswConfig {
            ef_search: 64,
            ef_construction: 64,
            seed,
            ..Default::default()
        });
        let mut flat = FlatIndex::new();
        for (i, v) in vs.iter().enumerate() {
            hnsw.insert(i as u64, v).unwrap();
            flat.insert(i as u64, v).unwrap();
        }
        for v in vs.iter().take(5) {
            let h: Vec<u64> = hnsw.search(v, 4).unwrap().iter().map(|x| x.id).collect();
            let f: Vec<u64> = flat.search(v, 4).unwrap().iter().map(|x| x.id).collect();
            prop_assert_eq!(h, f);
        }
    }

    /// Every index returns results sorted ascending by distance, with no
    /// duplicate ids, at most k items, and distances in [0, 2].
    #[test]
    fn results_are_wellformed(vs in vectors(16, 5), k in 1usize..10) {
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::new(HnswConfig::default());
        for (i, v) in vs.iter().enumerate() {
            flat.insert(i as u64, v).unwrap();
            hnsw.insert(i as u64, v).unwrap();
        }
        let indexes: [&dyn VectorIndex; 2] = [&flat, &hnsw];
        for idx in indexes {
            let hits = idx.search(&vs[0], k).unwrap();
            prop_assert!(hits.len() <= k);
            let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), hits.len(), "{} returned duplicates", idx.name());
            for w in hits.windows(2) {
                prop_assert!(w[0].distance <= w[1].distance);
            }
            for h in &hits {
                prop_assert!((-1e-4..=2.0001).contains(&h.distance));
            }
        }
    }

    /// Searching for an inserted vector returns it first.
    #[test]
    fn self_query_returns_self(vs in vectors(12, 4)) {
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::new(HnswConfig::default());
        for (i, v) in vs.iter().enumerate() {
            flat.insert(i as u64, v).unwrap();
            hnsw.insert(i as u64, v).unwrap();
        }
        for (i, v) in vs.iter().enumerate() {
            let f = flat.search(v, 1).unwrap();
            prop_assert!(f[0].distance < 1e-4);
            // Ties between identical directions may pick another id; accept
            // any zero-distance result.
            let h = hnsw.search(v, 1).unwrap();
            prop_assert!(h[0].distance < 1e-3, "hnsw self distance {} for {i}", h[0].distance);
        }
    }

    /// Searches interleaved with inserts leave no trace: the final graph
    /// answers exactly as one built by the inserts alone (the lake's
    /// `with_index` catches indexes up whenever searches fall between
    /// ingests, and a rebuilt index must equal a caught-up one).
    #[test]
    fn searches_between_inserts_do_not_change_the_graph(vs in vectors(60, 6), seed in any::<u64>()) {
        let config = HnswConfig { m: 4, ef_construction: 16, seed, ..Default::default() };
        let mut quiet = HnswIndex::new(config);
        let mut probed = HnswIndex::new(config);
        let mut rng = mlake_tensor::Pcg64::new(seed);
        for (i, v) in vs.iter().enumerate() {
            quiet.insert(i as u64, v).unwrap();
            probed.insert(i as u64, v).unwrap();
            if rng.bernoulli(0.4) {
                probed.search(&vs[rng.index(vs.len())], 1 + rng.index(8)).unwrap();
            }
        }
        for q in &vs {
            prop_assert_eq!(probed.search(q, 10).unwrap(), quiet.search(q, 10).unwrap());
        }
    }

    /// Insert order does not change flat-scan results (determinism / no
    /// hidden state).
    #[test]
    fn flat_insert_order_irrelevant(vs in vectors(10, 4), perm_seed in any::<u64>()) {
        let mut a = FlatIndex::new();
        for (i, v) in vs.iter().enumerate() {
            a.insert(i as u64, v).unwrap();
        }
        let mut order: Vec<usize> = (0..vs.len()).collect();
        let mut rng = mlake_tensor::Pcg64::new(perm_seed);
        rng.shuffle(&mut order);
        let mut b = FlatIndex::new();
        for &i in &order {
            b.insert(i as u64, &vs[i]).unwrap();
        }
        let ra: Vec<u64> = a.search(&vs[0], 5).unwrap().iter().map(|h| h.id).collect();
        let rb: Vec<u64> = b.search(&vs[0], 5).unwrap().iter().map(|h| h.id).collect();
        prop_assert_eq!(ra, rb);
    }
}
