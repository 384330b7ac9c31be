//! Readers that find the version graph stale catch it up once, not once
//! each, and log nothing.
//!
//! `version_graph()` and the reads built on it (`cite`, `lineage_path`,
//! `evidence_for`) check for a cached graph without `op_lock`; the catch-up
//! takes it. Staleness must be checked again under the lock, or every
//! connection thread that saw the stale graph after one ingest runs its own
//! whole-lake recovery back to back. The catch-up itself appends no event:
//! only an explicit `rebuild_version_graph` logs a `GraphRebuilt` record.
//!
//! One test, on purpose: it reads the process-global count of the
//! `lake.graph.rebuild` span, which every recovery opens.

use mlake_core::event::EventKind;
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_datagen::{generate_lake, LakeSpec};
use std::sync::Barrier;

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
