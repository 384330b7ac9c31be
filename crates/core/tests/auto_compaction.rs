//! Automatic compaction (DESIGN.md §13): under a [`CompactionPolicy`] the
//! op that crosses a threshold persists the lake into its own directory
//! and collects garbage before it returns. Nothing here waits on anything
//! or reads obs counters, so every assertion holds under `MLAKE_OBS=off`.

use mlake_core::{CompactionPolicy, LakeConfig, ModelId, ModelLake};
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_wal::testing::FailFs;
use mlake_wal::Vfs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-autocompact-{tag}-{}", std::process::id()))
}

fn policy(wal_bytes: u64, wal_segments: usize) -> LakeConfig {
    LakeConfig::builder()
        .background_compaction(CompactionPolicy {
            wal_bytes,
            wal_segments,
        })
        .build()
        .unwrap()
}

/// Every op's WAL record crosses a 1-byte threshold.
fn every_op() -> LakeConfig {
    policy(1, 0)
}

/// The WAL LSN the superblock in `dir` says its segment chain covers.
fn last_lsn(dir: &Path) -> u64 {
    #[derive(serde::Deserialize)]
    struct SuperBlock {
        last_lsn: u64,
    }
    let bytes = std::fs::read(dir.join("manifest.json")).unwrap();
    serde_json::from_slice::<SuperBlock>(&bytes)
        .unwrap()
        .last_lsn
}

/// Everything a reopen must reproduce bit for bit: the event log, every
/// card, and `similar` hits (ids + score bits) around each model.
type Observed = (
    Vec<mlake_core::event::Event>,
    Vec<mlake_cards::ModelCard>,
    Vec<Vec<(u64, u32)>>,
);

fn observable(lake: &ModelLake) -> Observed {
    let ids = || (0..lake.len() as u64).map(ModelId);
    (
        lake.events(),
        ids().map(|id| lake.entry(id).unwrap().card).collect(),
        ids()
            .map(|id| {
                lake.similar(id, mlake_fingerprint::FingerprintKind::Hybrid, 4)
                    .unwrap()
                    .into_iter()
                    .map(|(m, s)| (m.0, s.to_bits()))
                    .collect()
            })
            .collect(),
    )
}

/// Each op appends one WAL record and LSNs are dense from 1, so after the
/// n-th op the WAL head is n. Under a 1-byte threshold every op compacts
/// before it returns, so the superblock covers the op itself — the cut
/// runs after its blocks are applied, never between append and apply.
#[test]
fn sustained_ingest_compacts_without_explicit_persist() {
    let dir = tmp("ingest");
    let _ = std::fs::remove_dir_all(&dir);
    let gt = generate_lake(&LakeSpec::tiny(5));
    let lake = ModelLake::create(&dir, every_op()).unwrap();
    let mut head = 0;
    for (i, gm) in gt.models.iter().enumerate() {
        lake.ingest_model(&format!("m{i}"), &gm.model, None)
            .unwrap();
        head += 1;
        assert_eq!(
            last_lsn(&dir),
            head,
            "ingest {i}: superblock behind the WAL head"
        );
        // A card update on a model an earlier op already persisted.
        let mut card = lake.entry(ModelId(i as u64 / 2)).unwrap().card;
        card.notes = format!("revised after ingest {i}");
        lake.update_card(ModelId(i as u64 / 2), card).unwrap();
        head += 1;
        assert_eq!(
            last_lsn(&dir),
            head,
            "card update {i}: superblock behind the WAL head"
        );
    }
    let live = observable(&lake);
    drop(lake);
    let reopened = ModelLake::open(&dir, every_op()).unwrap();
    assert_eq!(
        observable(&reopened),
        live,
        "the reopened lake diverged from the live one"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With only the segment-count trigger armed, ops leave the superblock
/// alone until one of them rolls the WAL onto a second segment; that op
/// compacts. Megabyte cards fill the 4 MiB WAL segments in a few ops.
#[test]
fn segment_count_trigger_fires() {
    let dir = tmp("segs");
    let _ = std::fs::remove_dir_all(&dir);
    let config = policy(0, 1);
    let gt = generate_lake(&LakeSpec::tiny(4));
    let lake = ModelLake::create(&dir, config.clone()).unwrap();
    lake.ingest_model("m0", &gt.models[0].model, None).unwrap();
    assert_eq!(last_lsn(&dir), 0, "an ingest far below a segment compacted");
    let mut fired_at = None;
    for lsn in 2..=8 {
        let mut card = lake.entry(ModelId(0)).unwrap().card;
        card.notes = format!("{lsn}").repeat(1 << 20);
        lake.update_card(ModelId(0), card).unwrap();
        match last_lsn(&dir) {
            0 => {}
            covered => {
                assert_eq!(
                    covered, lsn,
                    "the trigger cut missed the op that crossed it"
                );
                fired_at = Some(lsn);
                break;
            }
        }
    }
    assert!(
        fired_at.is_some(),
        "eight megabyte records never sealed a WAL segment"
    );
    let live = observable(&lake);
    drop(lake);
    let reopened = ModelLake::open(&dir, config).unwrap();
    assert_eq!(observable(&reopened), live);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Creates a lake through `fs` and ingests model 0 of `gt`.
fn lake_with_one_model(
    dir: &Path,
    config: LakeConfig,
    fs: &Arc<FailFs>,
    gt: &mlake_datagen::GroundTruth,
) -> ModelLake {
    let _ = std::fs::remove_dir_all(dir);
    let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(fs));
    let lake = ModelLake::create_with(dir, config, vfs).unwrap();
    lake.ingest_model("m0", &gt.models[0].model, None).unwrap();
    lake
}

/// A compaction that dies is the op's loss of a replay shortcut, not of
/// the op: its WAL record is durable before the trigger runs, so the op
/// returns `Ok` and is there after a reopen.
#[test]
fn an_op_whose_compaction_is_killed_still_succeeds_and_survives() {
    let gt = generate_lake(&LakeSpec::tiny(4));
    // Writes of one ingest up to and including its WAL append (blob +
    // record), measured on a lake that never compacts.
    let dir = tmp("kill-count");
    let fs = FailFs::counting();
    let lake = lake_with_one_model(&dir, LakeConfig::default(), &fs, &gt);
    let before = fs.writes();
    lake.ingest_model("m1", &gt.models[1].model, None).unwrap();
    let op_writes = fs.writes() - before;
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
    // The same prefix under the policy, to find where m1's writes start.
    let dir = tmp("kill-prefix");
    let fs = FailFs::counting();
    drop(lake_with_one_model(&dir, every_op(), &fs, &gt));
    let prefix = fs.writes();
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = tmp("kill");
    let fs = FailFs::kill_at_write(prefix + op_writes + 1, 0);
    let lake = lake_with_one_model(&dir, every_op(), &fs, &gt);
    lake.ingest_model("m1", &gt.models[1].model, None)
        .expect("an op whose compaction died must still succeed");
    assert!(
        fs.is_dead(),
        "the kill point was not inside m1's compaction"
    );
    drop(lake);
    let reopened = ModelLake::open(&dir, every_op()).unwrap();
    assert_eq!(
        reopened.model_names(),
        vec!["m0".to_string(), "m1".to_string()]
    );
    assert_eq!(
        reopened.model("m1").unwrap().flat_params(),
        gt.models[1].model.flat_params()
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn policy_is_inert_on_ephemeral_lakes() {
    // An in-memory lake with a policy configured has no WAL and nothing
    // to compact; every op still works.
    let lake = ModelLake::new(every_op());
    let gt = generate_lake(&LakeSpec::tiny(3));
    for (i, gm) in gt.models.iter().enumerate() {
        lake.ingest_model(&format!("m{i}"), &gm.model, None)
            .unwrap();
    }
    assert_eq!(lake.len(), gt.models.len());
    assert!(!lake.is_durable());
}

#[test]
fn builder_rejects_vacuous_policy() {
    assert!(LakeConfig::builder()
        .background_compaction(CompactionPolicy {
            wal_bytes: 0,
            wal_segments: 0,
        })
        .build()
        .is_err());
    assert!(LakeConfig::builder().shards(3).build().is_err());
    assert!(LakeConfig::builder().shards(512).build().is_err());
    assert!(LakeConfig::builder().shards(8).build().is_ok());
}
