//! Readers that find a projection stale catch it up once, not once each,
//! and log nothing: the version graph, an HNSW graph and the text index all
//! go through the one catch-up protocol, which re-checks staleness under
//! its exclusion.
//!
//! `version_graph()` and the reads built on it (`cite`, `lineage_path`,
//! `evidence_for`) check for a cached graph without `op_lock`; the catch-up
//! takes it. Staleness must be checked again under the lock, or every
//! connection thread that saw the stale graph after one ingest runs its own
//! whole-lake recovery back to back. The catch-up itself appends no event:
//! only an explicit `rebuild_version_graph` logs a `GraphRebuilt` record.
//!
//! The graph case reads the process-global count of the
//! `lake.graph.rebuild` span, which every recovery opens and no other test
//! here does. The index and text cases count their spans on the herd's own
//! threads, from the span ring, since every ingest here catches the text
//! index up.

use mlake_core::event::EventKind;
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_fingerprint::FingerprintKind;
use mlake_obs::recorder::{self, CAPACITY};
use std::collections::BTreeSet;
use std::sync::Barrier;

/// Readers in each herd.
const HERD: usize = 4;

/// Recoveries run so far in this process (0 with observability off).
fn recoveries() -> u64 {
    let snapshot = mlake_obs::registry().snapshot();
    snapshot.histogram("lake.graph.rebuild").map_or(0, |h| h.count)
}

fn rebuilds(lake: &ModelLake) -> usize {
    lake.events()
        .iter()
        .filter(|e| e.kind == EventKind::GraphRebuilt)
        .count()
}

/// Runs `read(i)` for each `i < HERD` on its own thread, the threads
/// released together, and returns how many `span` spans those threads
/// closed (0 with observability off).
fn herd_spans(span: &str, read: impl Fn(usize) + Sync) -> usize {
    let since = recorder::total_recorded();
    let barrier = Barrier::new(HERD);
    std::thread::scope(|s| {
        for i in 0..HERD {
            let (barrier, read) = (&barrier, &read);
            s.spawn(move || {
                barrier.wait();
                let _reader = mlake_obs::span("rebuild_herd.reader");
                read(i);
            });
        }
    });
    let closed = recorder::total_recorded() - since;
    assert!(closed <= CAPACITY as u64, "the span ring dropped spans of the herd");
    let spans = recorder::recent(closed as usize);
    let herd: BTreeSet<u64> = spans
        .iter()
        .filter(|r| r.name == "rebuild_herd.reader")
        .map(|r| r.thread)
        .collect();
    spans
        .iter()
        .filter(|r| r.name == span && herd.contains(&r.thread))
        .count()
}

#[test]
fn stale_graph_is_rebuilt_once_for_a_herd_of_readers() {
    const READERS: usize = 4;
    let gt = generate_lake(&LakeSpec::tiny(42));
    let lake = ModelLake::new(LakeConfig::default());
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
    lake.version_graph().unwrap();
    lake.ingest_model("newcomer", &gt.models[0].model, None).unwrap();
    let events = lake.events().len();
    let before = recoveries();

    let barrier = Barrier::new(READERS);
    let citations: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    lake.cite(ModelId(1)).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    if mlake_obs::enabled() {
        assert_eq!(recoveries() - before, 1, "one stale graph, one catch-up");
    }
    assert_eq!(lake.events().len(), events, "a catch-up appended an event");
    assert_eq!(citations[0].graph_timestamp, lake.graph_timestamp());
    for c in &citations[1..] {
        assert_eq!(c, &citations[0]);
    }
    // An explicit rebuild still always rebuilds, and logs one event.
    let logged = rebuilds(&lake);
    lake.rebuild_version_graph(None).unwrap();
    if mlake_obs::enabled() {
        assert_eq!(recoveries() - before, 2);
    }
    assert_eq!(lake.events().len(), events + 1);
    assert_eq!(rebuilds(&lake), logged + 1);
}

#[test]
fn stale_index_is_caught_up_once_for_a_herd_of_readers() {
    let gt = generate_lake(&LakeSpec::tiny(43));
    let lake = ModelLake::new(LakeConfig::default());
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
    lake.similar(ModelId(0), FingerprintKind::Hybrid, 3).unwrap();
    lake.ingest_model("newcomer", &gt.models[0].model, None).unwrap();
    // Each reader anchors on its own model, so none is a cache hit.
    let inserts = herd_spans("lake.index.build.hybrid", |i| {
        lake.similar(ModelId(i as u64), FingerprintKind::Hybrid, 3).unwrap();
    });
    if mlake_obs::enabled() {
        assert_eq!(inserts, 1, "one stale index, one catch-up");
    }
}

#[test]
fn text_index_is_built_once_for_a_herd_of_readers_after_a_reopen() {
    let dir = std::env::temp_dir().join(format!("mlake-herd-text-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gt = generate_lake(&LakeSpec::tiny(44));
    {
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
    }
    let lake = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    // Each reader asks its own query, so none is a cache hit.
    let builds = herd_spans("lake.text.build", |i| {
        lake.text_search(&gt.models[i].name, 5).unwrap();
    });
    if mlake_obs::enabled() {
        assert_eq!(builds, 1, "one empty text index, one build");
    }
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
}
