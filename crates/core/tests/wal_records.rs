//! The WAL's record format, and the one way older lakes reach it
//! (DESIGN.md §12): a record is the block list the op adds to the next
//! delta segment, `open` reads superblock v4 alone, and every older lake
//! goes through `ModelLake::upgrade` first.
//!
//! The fixture lakes were written by older builds:
//! - `v1-lake` / `v2-lake`: whole-state manifests, before and after the WAL.
//! - `v3-wal-lake`: a v3 superblock over a two-segment chain plus an
//!   unpersisted WAL tail holding all five one-op record kinds — ingest,
//!   card update (on a chain-covered and on a WAL-only model), dataset,
//!   benchmark, graph rebuild — written by the commit before blocks became
//!   the WAL payload.
//! - `v3-lake`: a v3 chain plus a block-list WAL tail (ingest, card
//!   override, dataset, benchmark, graph rebuild).
//!
//! Each `<name>-golden.txt` is [`render`] of that lake as a build that
//! still opened it directly rendered it.

mod common;

use common::{fixture_copy, golden, model, render, renote, state};
use mlake_cards::ModelCard;
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::LakeError;
use mlake_wal::testing::FailFs;
use mlake_wal::{RealFs, VFile, Vfs, Wal, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-walrec-{tag}-{}", std::process::id()))
}

/// Upgrades a scratch copy of fixture `name` at `dir` and opens it. `open`
/// refuses the copy before the upgrade; a second upgrade writes nothing.
fn upgraded(name: &str, dir: &Path) -> ModelLake {
    fixture_copy(name, dir);
    match ModelLake::open(dir, LakeConfig::default()) {
        Err(LakeError::UnsupportedManifest {
            found: 1..=3,
            supported: 4,
        }) => {}
        Err(e) => panic!("{name}: open before upgrade: {e}"),
        Ok(_) => panic!("{name}: opened before upgrade"),
    }
    ModelLake::upgrade(dir, LakeConfig::default()).unwrap();
    let fs = FailFs::counting();
    ModelLake::upgrade_with(dir, LakeConfig::default(), Arc::new(Arc::clone(&fs))).unwrap();
    let io = (fs.writes(), fs.syncs(), fs.removes());
    assert_eq!(io, (0, 0, 0), "{name}: a second upgrade wrote");
    ModelLake::open(dir, LakeConfig::default()).unwrap()
}

/// `v3-wal-lake` is the next test's.
#[test]
fn every_older_fixture_upgrades_once_to_its_golden() {
    for (name, golden_name) in [("v1-lake", "v1"), ("v2-lake", "v2"), ("v3-lake", "v3")] {
        let dir = tmp(name);
        let lake = upgraded(name, &dir);
        assert_eq!(render(&lake), golden(golden_name), "{name}");
        drop(lake);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn legacy_wal_tail_replays_to_the_golden_of_the_commit_that_wrote_it() {
    let dir = tmp("golden");
    let lake = upgraded("v3-wal-lake", &dir);
    assert_eq!(render(&lake), golden("v3-wal"));
    drop(lake);
    // The upgrade wrote the catalogue as one segment past the old chain,
    // and the legacy records are compacted away.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"version\": 4"), "{manifest}");
    let (_, replay) =
        Wal::open_with(&dir.join("wal"), WalOptions::default(), RealFs::shared(), 0).unwrap();
    // Nothing is left: `render`'s citations read the graph and log nothing.
    assert_eq!(
        replay.records.len(),
        0,
        "legacy records survived the upgrade, or a read logged one"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mixed_wal_replays_both_shapes_and_persists_the_card_overrides() {
    // Block-list records, as a v3 build appended them behind the one-op
    // tail: the same ops run on an upgraded copy, then their records are
    // copied onto an untouched one.
    let ahead = tmp("mixed-ahead");
    let lake = upgraded("v3-wal-lake", &ahead);
    let card = ModelCard::skeleton("fx-f", "mlp:8-4-3:relu");
    lake.ingest_model("fx-f", &model(206), Some(card)).unwrap();
    renote(&lake, "fx-b", "harbor crane manifest revised twice");
    renote(&lake, "fx-f", "orchard notes");
    let bench = mlake_benchlab::Benchmark::perplexity("fx-bench-3", vec![2, 2, 1]);
    lake.register_benchmark(bench, None).unwrap();
    lake.rebuild_version_graph(None).unwrap();
    let live = state(&lake);
    drop(lake);

    let dir = tmp("mixed");
    fixture_copy("v3-wal-lake", &dir);
    common::copy_tree(&ahead.join("blobs"), &dir.join("blobs"));
    let opts = WalOptions::default();
    let (wal, tail) = Wal::open_with(&dir.join("wal"), opts, RealFs::shared(), 0).unwrap();
    let (_, ops) =
        Wal::open_with(&ahead.join("wal"), opts, RealFs::shared(), tail.last_lsn).unwrap();
    assert_eq!(ops.records.len(), 5);
    for (_, payload) in &ops.records {
        assert_eq!(payload.first(), Some(&b'['), "not a block list");
        wal.append(payload).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);

    ModelLake::upgrade(&dir, LakeConfig::default()).unwrap();
    let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    assert_eq!(
        state(&reopened),
        live,
        "a mixed WAL upgraded to another catalogue"
    );
    // The cards both record shapes replaced — fx-a's (one-op) and fx-b's
    // (block list) — are in the one segment the upgrade persisted.
    drop(reopened);
    let segs: Vec<PathBuf> = std::fs::read_dir(dir.join("segs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let newest = std::fs::read(segs.iter().max().unwrap()).unwrap();
    let newest = String::from_utf8_lossy(&newest);
    assert!(newest.contains("harbor tides ledger amended in the wal"));
    assert!(newest.contains("harbor crane manifest revised twice"));
    std::fs::remove_dir_all(&ahead).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The real filesystem, counting every operation on a path under `blobs/`.
#[derive(Default)]
struct BlobCountingFs {
    touches: AtomicU64,
}

impl BlobCountingFs {
    fn count(&self, path: &Path) {
        if path.components().any(|c| c.as_os_str() == "blobs") {
            self.touches.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Vfs for BlobCountingFs {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.count(dir);
        RealFs.create_dir_all(dir)
    }
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        self.count(path);
        RealFs.open_append(path)
    }
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VFile>> {
        self.count(path);
        RealFs.create(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.count(path);
        RealFs.read(path)
    }
    fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.count(dir);
        RealFs.list(dir)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.count(path);
        RealFs.remove_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.count(from);
        RealFs.rename(from, to)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.count(path);
        RealFs.truncate(path, len)
    }
    fn exists(&self, path: &Path) -> bool {
        self.count(path);
        RealFs.exists(path)
    }
}

#[test]
fn replaying_a_tail_of_ingests_reads_no_blob() {
    // Fingerprinting needs a decoded model, and a freshly opened lake has
    // nothing resident: every decode faults its blob in from `blobs/`. So
    // "no path under blobs/ touched" also means "no fingerprinter ran".
    let dir = tmp("no-blob");
    let _ = std::fs::remove_dir_all(&dir);
    let live = {
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        for i in 0..24u64 {
            lake.ingest_model(&format!("w-{i}"), &model(300 + i), None)
                .unwrap();
        }
        state(&lake)
    };
    let fs = Arc::new(BlobCountingFs::default());
    let lake = ModelLake::open_with(&dir, LakeConfig::default(), fs.clone()).unwrap();
    assert_eq!(
        fs.touches.load(Ordering::SeqCst),
        0,
        "replay touched blobs/"
    );
    assert_eq!(lake.resident_bytes(), 0);
    assert_eq!(state(&lake), live);
    assert_eq!(
        fs.touches.load(Ordering::SeqCst),
        0,
        "a search touched blobs/"
    );
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
}
