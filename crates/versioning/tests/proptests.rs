//! Property-based tests for versioning: arborescence validity and
//! optimality on random graphs, recovery well-formedness on random lakes.

use mlake_datagen::{generate_lake, LakeSpec};
use mlake_fingerprint::extrinsic::ProbeSet;
use mlake_nn::transform::prune::prune_mlp;
use mlake_nn::{Activation, Mlp, Model, TransformKind};
use mlake_tensor::{init::Init, Pcg64, Seed};
use mlake_versioning::arborescence::{
    arborescence_weight, minimum_arborescence, DirectedEdge,
};
use mlake_versioning::recover::{recover_graph, RecoveryMemo, RecoveryOptions};
use mlake_versioning::RecoveredGraph;
use proptest::prelude::*;
use std::convert::Infallible;

fn complete_graph(n: usize, seed: u64) -> Vec<DirectedEdge> {
    let mut rng = Pcg64::new(seed);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                edges.push(DirectedEdge {
                    from: a,
                    to: b,
                    weight: rng.next_f32() * 10.0,
                });
            }
        }
    }
    edges
}

/// Brute-force optimal arborescence weight for tiny n via parent-vector
/// enumeration (each non-root picks any parent; check acyclicity).
fn brute_force_weight(n: usize, edges: &[DirectedEdge], root: usize) -> Option<f32> {
    fn weight_of(parents: &[usize], edges: &[DirectedEdge], root: usize) -> Option<f32> {
        // Reject cycles.
        for start in 0..parents.len() {
            let mut v = start;
            let mut hops = 0;
            while v != root {
                v = parents[v];
                hops += 1;
                if hops > parents.len() {
                    return None;
                }
            }
        }
        arborescence_weight(parents, edges, root)
    }
    let mut best: Option<f32> = None;
    let mut parents = vec![root; n];
    fn rec(
        i: usize,
        n: usize,
        root: usize,
        parents: &mut Vec<usize>,
        edges: &[DirectedEdge],
        best: &mut Option<f32>,
    ) {
        if i == n {
            if let Some(w) = weight_of(parents, edges, root) {
                if best.is_none_or(|b| w < b) {
                    *best = Some(w);
                }
            }
            return;
        }
        if i == root {
            rec(i + 1, n, root, parents, edges, best);
            return;
        }
        for p in 0..n {
            if p != i {
                parents[i] = p;
                rec(i + 1, n, root, parents, edges, best);
            }
        }
        parents[i] = root;
    }
    rec(0, n, root, &mut parents, edges, &mut best);
    best
}

/// Everything recovery emits, distances by bit pattern, in emitted order.
type GraphBits = (Vec<usize>, Vec<(usize, usize, TransformKind, Option<usize>, u32)>);

fn graph_bits(g: &RecoveredGraph) -> GraphBits {
    let edge = |e: &mlake_versioning::RecoveredEdge| {
        (e.parent, e.child, e.kind, e.second_parent, e.distance.to_bits())
    };
    (g.roots.clone(), g.edges.iter().map(edge).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A memo extended to a random split point and then one model at a time
    /// returns, after every extension, exactly what `recover_graph` returns
    /// over the same prefix — in the lake's mode (blind with probes), blind
    /// without probes, and under known roots. The last two newcomers are of
    /// an architecture the generator never draws: one opens a new group, the
    /// next turns that singleton into a pair.
    #[test]
    fn extending_one_model_at_a_time_equals_from_scratch(seed in 0u64..1000, split in 0usize..1000) {
        let gt = generate_lake(&LakeSpec {
            seed,
            train_examples: 40,
            corpus_len: 400,
            epochs: 4,
            ..LakeSpec::tiny(seed)
        });
        let mut models: Vec<Model> = gt.models.iter().map(|m| m.model.clone()).collect();
        let mut rng = Pcg64::new(seed);
        let stranger = Mlp::new(vec![8, 5, 3], Activation::Tanh, Init::HeNormal, &mut rng).unwrap();
        let signature = stranger.architecture().signature();
        prop_assert!(models.iter().all(|m| m.architecture().signature() != signature));
        models.push(Model::Mlp(prune_mlp(&stranger, 0.3).unwrap()));
        models.insert(models.len() - 1, Model::Mlp(stranger));

        let probes = ProbeSet::standard(8, 24, 2.5, 24, 16, 2, Seed::new(seed).derive("probes"));
        let known: Vec<usize> = (0..gt.models.len()).filter(|&i| gt.models[i].depth == 0).collect();
        let blind = RecoveryOptions::default();
        let known = RecoveryOptions { known_roots: Some(known), ..RecoveryOptions::default() };
        let split = split % models.len();
        for (mode, opts, probes) in [
            ("blind", &blind, Some(&probes)),
            ("blind-noprobes", &blind, None),
            ("known", &known, Some(&probes)),
        ] {
            let mut memo = RecoveryMemo::new(opts.clone());
            let ends = std::iter::once(split).chain(split + 1..=models.len());
            for n in ends {
                let got = memo.extend(n, probes, |i| Ok::<_, Infallible>(&models[i])).unwrap();
                let want = recover_graph(&models[..n], probes, opts);
                prop_assert_eq!(got.num_models, n);
                // Equality alone would also hold between two graphs that both
                // lost a group: every model is a root or some edge's child.
                prop_assert_eq!(got.roots.len() + got.edges.len(), n);
                prop_assert_eq!(graph_bits(&got), graph_bits(&want), "{} after extending to {}", mode, n);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Edmonds output is always a valid arborescence on complete graphs.
    #[test]
    fn edmonds_output_is_valid(n in 2usize..10, seed in any::<u64>()) {
        let edges = complete_graph(n, seed);
        let parents = minimum_arborescence(n, &edges, 0).unwrap();
        prop_assert_eq!(parents.len(), n);
        prop_assert_eq!(parents[0], 0);
        for start in 0..n {
            let mut v = start;
            let mut hops = 0;
            while v != 0 {
                v = parents[v];
                hops += 1;
                prop_assert!(hops <= n, "cycle from {start}");
            }
        }
    }

    /// Edmonds matches brute force on tiny graphs (n <= 5).
    #[test]
    fn edmonds_is_optimal_on_tiny_graphs(n in 2usize..6, seed in any::<u64>()) {
        let edges = complete_graph(n, seed);
        let parents = minimum_arborescence(n, &edges, 0).unwrap();
        let got = arborescence_weight(&parents, &edges, 0).unwrap();
        let best = brute_force_weight(n, &edges, 0).unwrap();
        prop_assert!((got - best).abs() < 1e-3, "edmonds {got} vs brute {best}");
    }

    /// Recovery over random tiny lakes is always well-formed: at most one
    /// parent per child, acyclic, and every model is either a root or a
    /// child.
    #[test]
    fn recovery_wellformed_on_random_lakes(seed in 0u64..50) {
        let gt = generate_lake(&LakeSpec {
            seed,
            num_base_models: 2,
            derivations_per_base: 2,
            max_depth: 2,
            lm_every: 2,
            train_examples: 40,
            corpus_len: 400,
            epochs: 4,
            ..LakeSpec::default()
        });
        let models: Vec<Model> = gt.models.iter().map(|m| m.model.clone()).collect();
        let graph = recover_graph(&models, None, &RecoveryOptions::default());
        prop_assert_eq!(graph.num_models, models.len());
        for i in 0..models.len() {
            let parents = graph.edges.iter().filter(|e| e.child == i).count();
            prop_assert!(parents <= 1);
            prop_assert!(graph.depth_of(i) <= models.len());
            let is_root = graph.roots.contains(&i);
            let is_child = parents == 1;
            prop_assert!(is_root || is_child, "model {i} is orphaned");
        }
    }
}
