//! Reads never write. Every lineage read — `cite`, `lineage_path`,
//! `version_graph`, `evidence_for`, `audit_model`, MLQL `depth` — goes
//! through the version graph's catch-up when an ingest left the graph
//! stale, and that catch-up recovers and publishes without logging: no WAL
//! write or fsync, no event (the event count is every query cache's
//! generation), no new graph timestamp. And the key a citation carries names
//! one graph across a restart, the rooted graph of an explicit rebuild
//! included.

use mlake_core::event::EventKind;
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::{LakeConfig, LakeError, ModelId, ModelLake};
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use mlake_nn::Model;
use mlake_versioning::{recover_graph, RecoveredGraph, RecoveryOptions};
use mlake_wal::testing::FailFs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-reads-{tag}-{}", std::process::id()))
}

/// Bytes under `dir`, recursively.
fn bytes_under(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| {
            if p.is_dir() {
                bytes_under(&p)
            } else {
                std::fs::metadata(&p).unwrap().len()
            }
        })
        .sum()
}

/// Everything a read could move if it wrote.
#[derive(Debug, PartialEq)]
struct Footprint {
    writes: u64,
    syncs: u64,
    wal_bytes: u64,
    events: usize,
    graph_timestamp: u64,
}

fn footprint(lake: &ModelLake, fs: &FailFs, dir: &Path) -> Footprint {
    Footprint {
        writes: fs.writes(),
        syncs: fs.syncs(),
        wal_bytes: bytes_under(&dir.join("wal")),
        events: lake.events().len(),
        graph_timestamp: lake.graph_timestamp(),
    }
}

fn populated(dir: &Path, fs: &Arc<FailFs>) -> (ModelLake, GroundTruth) {
    let _ = std::fs::remove_dir_all(dir);
    let gt = generate_lake(&LakeSpec::tiny(44));
    let vfs = Arc::new(Arc::clone(fs));
    let lake = ModelLake::create_with(dir, LakeConfig::default(), vfs).unwrap();
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
    (lake, gt)
}

/// Each read kind, run right after an ingest made the graph stale, so each
/// one is the read that catches it up: 8 runs leave no trace.
#[test]
fn lineage_reads_after_an_ingest_write_nothing() {
    let dir = tmp("lineage");
    let fs = FailFs::counting();
    let (lake, gt) = populated(&dir, &fs);
    let depth = lake.prepare("FIND MODELS WHERE depth > 0").unwrap();
    let reads: [(&str, &dyn Fn(ModelId)); 6] = [
        ("cite", &|id| {
            let c = lake.cite(id).unwrap();
            assert_eq!(c.graph_timestamp, lake.graph_timestamp());
        }),
        ("lineage_path", &|id| {
            lake.lineage_path(id).unwrap();
        }),
        ("version_graph", &|_| {
            lake.version_graph().unwrap();
        }),
        ("evidence_for", &|id| {
            lake.evidence_for(id).unwrap();
        }),
        ("audit_model", &|id| {
            lake.audit_model(id).unwrap();
        }),
        ("mlql depth", &|_| {
            depth.run().unwrap();
        }),
    ];
    for (round, (what, read)) in reads.iter().enumerate() {
        let source = &gt.models[round % gt.models.len()].model;
        let name = format!("newcomer-{round}");
        let id = lake.ingest_model(&name, source, None).unwrap();
        let before = footprint(&lake, &fs, &dir);
        let events = lake.events();
        let ingested = events
            .iter()
            .find(|e| e.kind == EventKind::ModelIngested && e.subject == name);
        assert_eq!(before.graph_timestamp, ingested.unwrap().seq);
        for _ in 0..8 {
            read(id);
        }
        assert_eq!(footprint(&lake, &fs, &dir), before, "{what} wrote");
    }
    assert_eq!(lake.version_graph().unwrap().num_models, lake.len());
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Everything recovery emits, distances by bit pattern, in emitted order.
fn graph_bits(g: &RecoveredGraph) -> impl PartialEq + std::fmt::Debug {
    let edges: Vec<_> = g
        .edges
        .iter()
        .map(|e| {
            (
                e.parent,
                e.child,
                e.kind,
                e.second_parent,
                e.distance.to_bits(),
            )
        })
        .collect();
    (g.num_models, g.roots.clone(), edges)
}

/// A graph rebuilt under known roots is named by its event's seq; after a
/// restart the first read recovers it again, under the roots the event's
/// subject names, and writes nothing doing so.
#[test]
fn a_rooted_graph_survives_a_reopen() {
    let dir = tmp("rooted");
    let fs = FailFs::counting();
    let (lake, gt) = populated(&dir, &fs);
    let n = gt.models.len();
    // Out of order and repeated: recovery reads the roots as a set.
    let mut known: Vec<ModelId> = (0..n)
        .rev()
        .filter(|&i| gt.models[i].depth == 0)
        .map(|i| ModelId(i as u64))
        .collect();
    known.push(known[0]);
    assert!(known.len() > 2, "{known:?}");
    // An empty root list, or a root that names no model, is refused
    // before anything is recovered or logged.
    let events = lake.events().len();
    let refused = lake.rebuild_version_graph(Some(Vec::new()));
    assert!(matches!(refused, Err(LakeError::Config(_))), "{refused:?}");
    let refused = lake.rebuild_version_graph(Some(vec![known[0], ModelId(n as u64)]));
    assert!(
        matches!(refused, Err(LakeError::NotFound { .. })),
        "{refused:?}"
    );
    assert_eq!(lake.events().len(), events);
    let rooted = lake.rebuild_version_graph(Some(known.clone())).unwrap();
    let cite_all = |lake: &ModelLake| -> Vec<(String, Vec<String>)> {
        (0..n as u64)
            .map(|i| lake.cite(ModelId(i)).unwrap())
            .map(|c| (c.key(), c.version_path))
            .collect()
    };
    let events = lake.events();
    let rebuilt = events.last().unwrap();
    let mut ids: Vec<u64> = known.iter().map(|k| k.0).collect();
    ids.sort_unstable();
    ids.dedup();
    let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
    assert_eq!(rebuilt.kind, EventKind::GraphRebuilt);
    assert_eq!(rebuilt.subject, format!("roots:{}", ids.join(",")));
    let cited = cite_all(&lake);
    let stamp = format!("@v{}", rebuilt.seq);
    assert!(
        cited.iter().all(|(key, _)| key.ends_with(&stamp)),
        "{cited:?}"
    );
    drop(lake);

    let fs = FailFs::counting();
    let vfs = Arc::new(Arc::clone(&fs));
    let lake = ModelLake::open_with(&dir, LakeConfig::default(), vfs).unwrap();
    let before = footprint(&lake, &fs, &dir);
    assert_eq!(
        cite_all(&lake),
        cited,
        "a key named another graph after the reopen"
    );
    let models: Vec<Model> = (0..n)
        .map(|i| lake.model(ModelId(i as u64)).unwrap())
        .collect();
    let opts = RecoveryOptions {
        known_roots: Some(known.iter().map(|k| k.0 as usize).collect()),
        ..RecoveryOptions::default()
    };
    let probes = Some(&lake.fingerprinter().probes);
    let want = recover_graph(&models, probes, &opts);
    assert_eq!(
        graph_bits(&lake.version_graph().unwrap()),
        graph_bits(&want)
    );
    assert_eq!(graph_bits(&rooted), graph_bits(&want));
    // The roots matter: a blind recovery would name another graph.
    let blind = recover_graph(&models, probes, &RecoveryOptions::default());
    assert_ne!(graph_bits(&blind), graph_bits(&want));
    assert_eq!(
        footprint(&lake, &fs, &dir),
        before,
        "the reopened lake's reads wrote"
    );
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
}
