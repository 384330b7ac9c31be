//! Lazy blob residency and refcounting GC (DESIGN.md §15).
//!
//! A v3 lake opens from the superblock and segment chain alone: model
//! blobs stay on disk until first touch, page in through the bounded
//! resident set (`LakeConfig::resident_bytes`), and unreachable files are
//! reclaimed by `ModelLake::gc` — observable via the `store.fault` /
//! `store.evict` / `gc.orphans` counters and the `store.resident.bytes`
//! gauge when `MLAKE_OBS=on`.

use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_fingerprint::FingerprintKind;
use mlake_nn::{Activation, Mlp, Model};
use mlake_tensor::{init::Init, Pcg64};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-residency-{tag}-{}", std::process::id()))
}

fn model(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

fn counter(name: &str) -> u64 {
    mlake_obs::registry().snapshot().counter(name)
}

#[test]
fn lazy_open_pages_blobs_in_on_first_touch() {
    let dir = tmp("lazy");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        for i in 0..3u64 {
            lake.ingest_model(&format!("r-{i}"), &model(40 + i), None).unwrap();
        }
        lake.persist(&dir).unwrap();
    }

    let lake = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    // The open read superblock + segments only: nothing is resident and
    // the catalogue still answers from segment metadata.
    assert_eq!(lake.resident_bytes(), 0, "open paged blobs in eagerly");
    assert_eq!(lake.len(), 3);
    assert_eq!(lake.model_names().len(), 3);
    assert_eq!(lake.resident_bytes(), 0, "catalogue reads touched blobs");

    // First artifact touch faults exactly that blob in, bit-exact.
    let faults_before = counter("store.fault");
    assert_eq!(lake.model("r-0").unwrap().flat_params(), model(40).flat_params());
    assert!(lake.resident_bytes() > 0, "fault-in left nothing resident");
    if mlake_obs::enabled() {
        assert!(counter("store.fault") > faults_before, "no store.fault recorded");
    }
    // Search still works on the lazily restored indexes.
    let hits = lake
        .similar("r-0", FingerprintKind::Hybrid, 2)
        .unwrap();
    assert!(!hits.is_empty());
    drop(lake);

    // Search never touches a blob: the anchor vector and the index both
    // come from the registry records the segments restored. Under a
    // 1-byte cap nothing stays resident, and with the blob directory
    // moved away a fault could not even succeed (the process-global
    // `store.fault` counter is shared with the tests running beside this
    // one, so the missing directory is the proof, not the counter).
    let config = LakeConfig::builder().resident_bytes(1).build().unwrap();
    let lake = ModelLake::open(&dir, config).unwrap();
    std::fs::rename(dir.join("blobs"), dir.join("blobs.away")).unwrap();
    for kind in FingerprintKind::ALL {
        assert_eq!(lake.similar("r-1", kind, 2).unwrap().len(), 2, "{kind:?}");
        assert_eq!(lake.resident_bytes(), 0, "{kind:?} search paged a blob in");
    }
    assert!(lake.model("r-1").is_err(), "blobs were reachable after all");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn task_reads_with_cached_scores_touch_no_blob() {
    // Audit, verification, card generation and evidence ask the registry's
    // architecture signature which benchmarks apply and read scores from
    // the score cache; only a never-scored pair decodes the artifact. Same
    // proof as above: a 1-byte cap and, once every model has been scored,
    // no blob directory to read from.
    let dir = tmp("tasks");
    let _ = std::fs::remove_dir_all(&dir);
    let gt = mlake_datagen::generate_lake(&mlake_datagen::LakeSpec::tiny(42));
    {
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
        lake.persist(&dir).unwrap();
    }
    let config = LakeConfig::builder().resident_bytes(1).build().unwrap();
    let lake = ModelLake::open(&dir, config).unwrap();
    let ids: Vec<ModelId> = (0..gt.models.len() as u64).map(ModelId).collect();
    // First pass: builds the version graph and scores every model.
    let first: Vec<_> = ids.iter().map(|&id| lake.evidence_for(id).unwrap()).collect();
    assert!(first.iter().any(|e| !e.measured_metrics.is_empty()));
    let audits: Vec<_> = ids.iter().map(|&id| lake.audit_model(id).unwrap()).collect();
    let verifications: Vec<_> =
        ids.iter().map(|&id| lake.verify_model_card(id).unwrap()).collect();
    let cards: Vec<_> = ids.iter().map(|&id| lake.generate_card(id).unwrap()).collect();

    std::fs::rename(dir.join("blobs"), dir.join("blobs.away")).unwrap();
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(lake.evidence_for(id).unwrap(), first[i], "evidence of {id}");
        assert_eq!(lake.audit_model(id).unwrap(), audits[i], "audit of {id}");
        assert_eq!(lake.verify_model_card(id).unwrap(), verifications[i], "verification of {id}");
        assert_eq!(lake.generate_card(id).unwrap(), cards[i], "card of {id}");
        assert_eq!(lake.resident_bytes(), 0, "a task read of {id} paged a blob in");
    }
    assert!(lake.model(ids[0]).is_err(), "blobs were reachable after all");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resident_cap_bounds_memory_and_keeps_reads_exact() {
    let dir = tmp("cap");
    let _ = std::fs::remove_dir_all(&dir);
    // A 1-byte cap forces every durable blob straight back out of memory;
    // reads must keep faulting in correctly regardless.
    let config = LakeConfig::builder().resident_bytes(1).build().unwrap();
    let evicts_before = counter("store.evict");
    let lake = ModelLake::create(&dir, config.clone()).unwrap();
    for i in 0..4u64 {
        lake.ingest_model(&format!("c-{i}"), &model(60 + i), None).unwrap();
    }
    assert_eq!(lake.resident_bytes(), 0, "durable blobs not evicted to cap");
    if mlake_obs::enabled() {
        assert!(counter("store.evict") > evicts_before, "no store.evict recorded");
    }
    // Repeated reads re-fault and stay bit-exact.
    for _ in 0..2 {
        for i in 0..4u64 {
            assert_eq!(
                lake.model(format!("c-{i}").as_str()).unwrap().flat_params(),
                model(60 + i).flat_params()
            );
        }
    }
    assert_eq!(lake.resident_bytes(), 0, "reads left blobs resident past the cap");
    drop(lake);
    let reopened = ModelLake::open(&dir, config).unwrap();
    assert_eq!(reopened.model("c-3").unwrap().flat_params(), model(63).flat_params());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_collects_orphan_blobs_and_counts_them() {
    let dir = tmp("orphan");
    let _ = std::fs::remove_dir_all(&dir);
    let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
    lake.ingest_model("kept-a", &model(80), None).unwrap();
    lake.ingest_model("kept-b", &model(81), None).unwrap();
    lake.persist(&dir).unwrap();

    // An orphan blob (valid digest name, referenced by nothing) and a
    // stranded temp file — the leak `gc()` exists to stop.
    let orphan = dir.join("blobs").join(format!("{}.blob", "ef".repeat(32)));
    std::fs::write(&orphan, b"unreferenced").unwrap();
    std::fs::write(dir.join("blobs").join("leftover.tmp"), b"tmp").unwrap();

    let orphans_before = counter("gc.orphans");
    let report = lake.gc().unwrap();
    assert_eq!(report.orphan_blobs, 1, "orphan blob not collected: {report:?}");
    assert_eq!(report.temp_files, 1, "temp file not collected: {report:?}");
    assert!(report.bytes_reclaimed > 0);
    assert!(!orphan.exists(), "orphan blob still on disk after gc");
    if mlake_obs::enabled() {
        assert_eq!(counter("gc.orphans"), orphans_before + 1, "gc.orphans did not advance");
    }

    // Live blobs survived; a second pass finds nothing.
    assert_eq!(lake.model("kept-a").unwrap().flat_params(), model(80).flat_params());
    let idle = lake.gc().unwrap();
    assert_eq!(idle.files_removed(), 0, "idle gc removed files: {idle:?}");
    drop(lake);
    let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    assert_eq!(reopened.len(), 2);
    assert_eq!(reopened.model("kept-b").unwrap().flat_params(), model(81).flat_params());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persisting_into_an_alias_of_the_own_directory_stays_incremental() {
    // Regression: the own-directory check compared path spellings, so an
    // alias ran a full export over the live chain's segment 1 while the
    // in-memory chain kept growing — reopening folded "b" twice.
    let base = tmp("alias");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(base.join("sub")).unwrap();
    let dir = base.join("lake");
    let alias = base.join("sub").join("..").join("lake");

    let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
    lake.ingest_model("a", &model(90), None).unwrap();
    lake.persist(&dir).unwrap();
    lake.ingest_model("b", &model(91), None).unwrap();
    lake.persist(&dir).unwrap();
    lake.persist(&alias).unwrap();
    lake.ingest_model("c", &model(92), None).unwrap();
    lake.persist(&dir).unwrap();
    let (names, events) = (lake.model_names(), lake.events());
    assert_eq!(names, ["a", "b", "c"]);
    drop(lake);

    let reopened = ModelLake::open(&alias, LakeConfig::default()).unwrap();
    assert_eq!(reopened.model_names(), names);
    assert_eq!(reopened.events(), events);
    std::fs::remove_dir_all(&base).unwrap();
}
