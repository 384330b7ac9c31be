//! The facade query cache (DESIGN.md §11): repeated queries hit, and any
//! lake mutation invalidates.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use mlake_fingerprint::FingerprintKind;

fn populated(config: LakeConfig) -> (ModelLake, GroundTruth) {
    let gt = generate_lake(&LakeSpec::tiny(42));
    let lake = ModelLake::new(config);
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
    (lake, gt)
}

fn cache_counters() -> (u64, u64) {
    let snap = mlake_obs::registry().snapshot();
    (snap.counter("cache.hit"), snap.counter("cache.miss"))
}

#[test]
fn similar_repeats_hit_the_cache() {
    let (lake, _gt) = populated(LakeConfig::default());
    let first = lake.similar(ModelId(0), FingerprintKind::Intrinsic, 3).unwrap();
    let (h0, _) = cache_counters();
    let second = lake.similar(ModelId(0), FingerprintKind::Intrinsic, 3).unwrap();
    assert_eq!(first, second);
    if mlake_obs::enabled() {
        let (h1, _) = cache_counters();
        assert!(h1 > h0, "second identical similar() did not count a cache.hit");
    }
    // Different k is a different key: no stale reuse across sizes.
    let narrower = lake.similar(ModelId(0), FingerprintKind::Intrinsic, 1).unwrap();
    assert_eq!(narrower.len(), 1.min(first.len()));
    if !first.is_empty() {
        assert_eq!(narrower[0], first[0]);
    }
}

#[test]
fn ingest_after_cached_query_must_not_serve_stale_hits() {
    let (lake, gt) = populated(LakeConfig::default());
    // Warm the cache for model 0.
    let before = lake.similar(ModelId(0), FingerprintKind::Intrinsic, 3).unwrap();
    let before_again = lake.similar(ModelId(0), FingerprintKind::Intrinsic, 3).unwrap();
    assert_eq!(before, before_again);
    // Ingest a bit-identical clone of model 0: its fingerprint distance to
    // the query is ~0, so a *fresh* search must rank it first. A stale
    // cached answer cannot contain the new id at all.
    let clone_id = lake
        .ingest_model("cache-buster-clone", &gt.models[0].model, None)
        .unwrap();
    let after = lake.similar(ModelId(0), FingerprintKind::Intrinsic, 3).unwrap();
    assert!(
        after.iter().any(|(id, _)| *id == clone_id),
        "post-ingest similar() is missing the just-ingested clone: {after:?}"
    );
    assert_eq!(after[0].0, clone_id, "identical clone should rank first");
}

#[test]
fn mlql_run_caches_and_invalidates_on_mutation() {
    let (lake, gt) = populated(LakeConfig::default());
    let q = lake.prepare("FIND MODELS WHERE domain = 'legal'").unwrap();
    let first = q.run().unwrap();
    let (h0, m0) = cache_counters();
    let second = q.run().unwrap();
    assert_eq!(first, second);
    if mlake_obs::enabled() {
        let (h1, _) = cache_counters();
        assert!(h1 > h0, "repeated run() did not count a cache.hit");
    }
    // Any mutation (here: a card update) bumps the generation, so the next
    // run misses and recomputes against current state.
    let card = lake.entry(ModelId(0)).unwrap().card;
    lake.update_card(ModelId(0), card).unwrap();
    let third = q.run().unwrap();
    assert_eq!(first, third, "card no-op rewrite must not change results");
    if mlake_obs::enabled() {
        let (_, m1) = cache_counters();
        assert!(m1 > m0, "post-mutation run() should have missed the cache");
    }
    let _ = gt;
}
