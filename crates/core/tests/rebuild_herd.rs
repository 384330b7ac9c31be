//! Readers that find the version graph stale rebuild it once, not once each.
//!
//! `version_graph()` and the reads built on it (`cite`, `lineage_path`,
//! `evidence_for`) check for a cached graph without `op_lock`; the rebuild
//! takes it. Staleness must be checked again under the lock, or every
//! connection thread that saw the stale graph after one ingest runs its own
//! whole-lake rebuild back to back, each appending a `GraphRebuilt` record
//! and event and emptying the result caches.

use mlake_core::event::EventKind;
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_datagen::{generate_lake, LakeSpec};
use std::sync::Barrier;

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
    let before = rebuilds(&lake);

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

    assert_eq!(rebuilds(&lake) - before, 1, "one stale graph, one rebuild");
    for c in &citations[1..] {
        assert_eq!(c, &citations[0]);
    }
    // An explicit rebuild still always rebuilds.
    lake.rebuild_version_graph(None).unwrap();
    assert_eq!(rebuilds(&lake) - before, 2);
}
