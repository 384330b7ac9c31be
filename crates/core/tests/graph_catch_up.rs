//! The version graph is a caught-up projection of the registry: after any
//! ingest the next graph read extends the recovery memo by the newcomers,
//! and what it publishes is, bit for bit, what `recover_graph` returns over
//! every decoded model — whatever came between (a restart, a known-roots
//! rebuild, blobs evicted from the resident set), and without decoding the
//! architecture groups the newcomer did not join.
//!
//! One test, on purpose: it reads the process-global `store.fault` counter.

use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_nn::Model;
use mlake_versioning::{recover_graph, RecoveredGraph, RecoveryOptions};
use std::path::PathBuf;

/// Everything recovery emits, distances by bit pattern, in emitted order.
fn graph_bits(g: &RecoveredGraph) -> impl PartialEq + std::fmt::Debug {
    let edges: Vec<_> = g
        .edges
        .iter()
        .map(|e| (e.parent, e.child, e.kind, e.second_parent, e.distance.to_bits()))
        .collect();
    (g.num_models, g.roots.clone(), edges)
}

/// Blind recovery from nothing over every model the lake holds.
fn scratch(lake: &ModelLake) -> RecoveredGraph {
    let models: Vec<Model> = (0..lake.len())
        .map(|i| lake.model(ModelId(i as u64)).unwrap())
        .collect();
    recover_graph(&models, Some(&lake.fingerprinter().probes), &RecoveryOptions::default())
}

fn faults() -> u64 {
    mlake_obs::registry().snapshot().counter("store.fault")
}

/// Catches the graph up and checks it, and the citation cut on it.
fn assert_caught_up(lake: &ModelLake, when: &str) {
    let got = lake.version_graph().unwrap();
    assert_eq!(graph_bits(&got), graph_bits(&scratch(lake)), "{when}");
    let cited = lake.cite(ModelId(lake.len() as u64 - 1)).unwrap();
    assert_eq!(cited.graph_timestamp, lake.graph_timestamp(), "{when}");
}

#[test]
fn graph_after_every_ingest_equals_scratch_recovery() {
    let gt = generate_lake(
        &LakeSpec::builder()
            .seed(17)
            .num_base_models(5)
            .derivations_per_base(5)
            .train_examples(60)
            .corpus_len(800)
            .epochs(4)
            .build()
            .unwrap(),
    );
    let n = gt.models.len();
    assert!(n >= 30, "lake of {n} models");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mlake-graph-catch-up-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A one-byte resident set: every blob the catch-up reads is a fault.
    let config = || LakeConfig::builder().resident_bytes(1).build().unwrap();
    let ingest = |lake: &ModelLake, i: usize| {
        lake.ingest_model(&gt.models[i].name, &gt.models[i].model, None).unwrap();
    };

    let mut lake = ModelLake::create(&dir, config()).unwrap();
    for i in 0..n - 10 {
        ingest(&lake, i);
    }
    assert_caught_up(&lake, "first graph");

    let mut narrow_attaches = 0;
    let mut memo_is_blind = true;
    for i in n - 10..n {
        ingest(&lake, i);
        // The newcomer joins the m earlier models of its architecture.
        let arch = lake.entry(ModelId(i as u64)).unwrap().arch;
        let m = (0..i)
            .filter(|&j| lake.entry(ModelId(j as u64)).unwrap().arch == arch)
            .count();
        let before = faults();
        lake.version_graph().unwrap();
        let fetched = faults() - before;
        if mlake_obs::enabled() {
            // The newcomer and its group, nothing else — unless the memo was
            // recovered under other options and had to be discarded.
            let expected = if memo_is_blind { m + 1 } else { i + 1 };
            assert_eq!(fetched as usize, expected, "ingest {i}: group of {m}, lake of {i}");
            narrow_attaches += usize::from(expected < i / 2);
        }
        memo_is_blind = true;
        assert_caught_up(&lake, &format!("ingest {i}"));

        if i == n - 6 {
            // A durable drop → open in the middle: the memo is gone, the
            // catalogue is replayed, the graph comes back from nothing.
            drop(lake);
            lake = ModelLake::open(&dir, config()).unwrap();
            assert_eq!(lake.len(), i + 1);
            assert_caught_up(&lake, "after reopen");
        }
        if i == n - 3 {
            // A known-roots rebuild leaves a memo recovered under other
            // options; the next ingest's catch-up must not extend it.
            let known: Vec<ModelId> = (0..=i)
                .filter(|&j| gt.models[j].depth == 0)
                .map(|j| ModelId(j as u64))
                .collect();
            let rooted = lake.rebuild_version_graph(Some(known.clone())).unwrap();
            let cited = lake.cite(ModelId(0)).unwrap();
            assert_eq!(cited.graph_timestamp, lake.graph_timestamp());
            let known_roots = Some(known.iter().map(|k| k.0 as usize).collect());
            let models: Vec<Model> =
                (0..=i).map(|j| lake.model(ModelId(j as u64)).unwrap()).collect();
            let want = recover_graph(
                &models,
                Some(&lake.fingerprinter().probes),
                &RecoveryOptions { known_roots, ..RecoveryOptions::default() },
            );
            assert_eq!(graph_bits(&rooted), graph_bits(&want), "known roots");
            memo_is_blind = false;
        }
    }
    if mlake_obs::enabled() {
        assert!(narrow_attaches > 0, "no attach was narrower than the lake");
    }
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
}
