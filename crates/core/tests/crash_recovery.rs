//! Crash-recovery matrix for the durable lake (DESIGN.md §12).
//!
//! A fixed mutation script drives a durable lake through the
//! fault-injection filesystem (`mlake_wal::testing::FailFs`), killing the
//! process at *every* write (and every fsync) in turn. After each
//! simulated crash the lake is reopened with the real filesystem and must
//! satisfy the durability contract:
//!
//! * **no acknowledged op is lost** — every mutation that returned `Ok`
//!   before the crash is present after recovery;
//! * **at most one in-flight op appears** — a record can become durable
//!   even though the caller saw an error (crash after the write, before
//!   the ack), but never more than the single op that was in flight;
//! * **recovery is idempotent** — reopening twice yields bit-identical
//!   event logs and model artifacts;
//! * **recovered state is bit-identical** to an ephemeral lake replaying
//!   the same op prefix (events, names, digests and parameters).

mod common;

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::{LakeError, ModelId};
use mlake_datagen::{Dataset, DatasetId, DatasetKind, Domain};
use mlake_nn::{Activation, Mlp, Model};
use mlake_tensor::{init::Init, Pcg64};
use mlake_wal::testing::FailFs;
use mlake_wal::Vfs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What recovery must reproduce: the event log, and each model's name and
/// parameters.
type LakeState = (Vec<mlake_core::event::Event>, Vec<(String, Vec<f32>)>);

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-crash-{tag}-{}", std::process::id()))
}

fn model(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

fn dataset() -> Dataset {
    Dataset {
        id: DatasetId(0),
        name: "crash-corpus-v1".into(),
        domain: Domain::new("legal"),
        kind: DatasetKind::Corpus(vec![1, 2, 3, 4, 5, 6, 7, 8]),
        parent: None,
        derived_by: None,
    }
}

fn benchmark() -> mlake_benchlab::Benchmark {
    mlake_benchlab::Benchmark::perplexity("crash-bench", vec![1, 2, 3, 4])
}

/// The mutation script: one entry per durable facade op, applied in order.
const N_OPS: usize = 7;

fn apply_op(lake: &ModelLake, i: usize) -> Result<(), LakeError> {
    match i {
        0 => lake.register_dataset(dataset()),
        1 => lake.register_benchmark(benchmark(), Some("legal".into())),
        2 => lake.ingest_model("m-alpha", &model(1), None).map(|_| ()),
        3 => lake.ingest_model("m-beta", &model(2), None).map(|_| ()),
        4 => {
            let mut card = lake.entry(ModelId(0))?.card;
            card.notes = "revised after review".into();
            lake.update_card(ModelId(0), card)
        }
        5 => lake.rebuild_version_graph(None).map(|_| ()),
        6 => lake.ingest_model("m-gamma", &model(3), None).map(|_| ()),
        _ => unreachable!("script has {N_OPS} ops"),
    }
}

/// Reference states: events + (name, params) per model after each op
/// prefix, computed on an ephemeral lake (no WAL, no disk).
fn reference_states() -> Vec<LakeState> {
    let lake = ModelLake::new(LakeConfig::default());
    let mut states = vec![(lake.events(), vec![])];
    for i in 0..N_OPS {
        apply_op(&lake, i).unwrap();
        let models = lake
            .model_names()
            .into_iter()
            .map(|n| {
                let params = lake.model(n.as_str()).unwrap().flat_params();
                (n, params)
            })
            .collect();
        states.push((lake.events(), models));
    }
    states
}

fn lake_state(lake: &ModelLake) -> LakeState {
    let models = lake
        .model_names()
        .into_iter()
        .map(|n| {
            let params = lake.model(n.as_str()).unwrap().flat_params();
            (n, params)
        })
        .collect();
    (lake.events(), models)
}

/// Runs the script against a lake created through `fs`, returning how
/// many ops were acknowledged (`Ok`) before the injected crash. `None`
/// when the create itself died.
fn drive(dir: &Path, fs: &Arc<FailFs>) -> Option<usize> {
    let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(fs));
    let lake = ModelLake::create_with(dir, LakeConfig::default(), vfs).ok()?;
    let mut acked = 0;
    for i in 0..N_OPS {
        if apply_op(&lake, i).is_err() {
            break;
        }
        acked = i + 1;
    }
    Some(acked)
}

/// After a crash with `acked` acknowledged ops, recovery must land on the
/// reference state for `acked` or `acked + 1` ops (the in-flight op may
/// have become durable), and reopening again must change nothing.
fn check_recovered(dir: &Path, acked: usize, refs: &[LakeState], label: &str) {
    let rec = ModelLake::open(dir, LakeConfig::default())
        .unwrap_or_else(|e| panic!("{label}: recovery failed after {acked} acked ops: {e}"));
    let got = lake_state(&rec);
    let matched = (acked..=(acked + 1).min(N_OPS)).find(|&m| refs[m] == got);
    assert!(
        matched.is_some(),
        "{label}: recovered state matches neither {acked} nor {} ops \
         (got {} events, expected {} or {})",
        acked + 1,
        got.0.len(),
        refs[acked].0.len(),
        refs[(acked + 1).min(N_OPS)].0.len(),
    );
    drop(rec);
    // Idempotence: a second recovery run is bit-identical.
    let again = ModelLake::open(dir, LakeConfig::default())
        .unwrap_or_else(|e| panic!("{label}: second recovery failed: {e}"));
    assert_eq!(lake_state(&again), got, "{label}: recovery is not idempotent");
}

#[test]
fn kill_at_every_write_never_loses_an_acked_op() {
    let refs = reference_states();
    // Counting pass: how many writes does the whole script issue?
    let dir = tmp("count-w");
    let _ = std::fs::remove_dir_all(&dir);
    let fs = FailFs::counting();
    assert_eq!(drive(&dir, &fs), Some(N_OPS));
    let total_writes = fs.writes();
    assert!(total_writes > 5, "script issues only {total_writes} writes");
    std::fs::remove_dir_all(&dir).unwrap();

    // Sweep: crash at every write, with rotating torn-prefix lengths.
    for kill in 1..=total_writes {
        let dir = tmp(&format!("kw-{kill}"));
        let _ = std::fs::remove_dir_all(&dir);
        let torn = [0usize, 1, 7][(kill % 3) as usize];
        let fs = FailFs::kill_at_write(kill, torn);
        let acked = drive(&dir, &fs);
        assert!(fs.is_dead(), "kill point {kill} never reached");
        match acked {
            // The create itself crashed: the directory either has no
            // manifest (open fails) or a valid empty snapshot.
            None => {
                if let Ok(rec) = ModelLake::open(&dir, LakeConfig::default()) {
                    assert_eq!(lake_state(&rec), refs[0], "kill {kill}: partial create");
                }
            }
            Some(acked) => check_recovered(&dir, acked, &refs, &format!("kill-write {kill}")),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn kill_at_every_fsync_never_loses_an_acked_op() {
    let refs = reference_states();
    let dir = tmp("count-s");
    let _ = std::fs::remove_dir_all(&dir);
    let fs = FailFs::counting();
    assert_eq!(drive(&dir, &fs), Some(N_OPS));
    let total_syncs = fs.syncs();
    assert!(total_syncs > 5, "script issues only {total_syncs} syncs");
    std::fs::remove_dir_all(&dir).unwrap();

    for kill in 1..=total_syncs {
        let dir = tmp(&format!("ks-{kill}"));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = FailFs::kill_at_sync(kill);
        let acked = drive(&dir, &fs);
        assert!(fs.is_dead(), "sync kill point {kill} never reached");
        match acked {
            None => {
                if let Ok(rec) = ModelLake::open(&dir, LakeConfig::default()) {
                    assert_eq!(lake_state(&rec), refs[0], "sync kill {kill}: partial create");
                }
            }
            Some(acked) => check_recovered(&dir, acked, &refs, &format!("kill-sync {kill}")),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Recursively copies a lake directory (template → scratch) so each GC
/// sweep iteration starts from the identical garbage-bearing state.
fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// Builds a lake whose directory carries every kind of garbage GC
/// collects: dead segments (a major fold replaced the first chain), an
/// orphan blob, and stranded temp files. Returns the expected state.
fn build_garbage_template(dir: &PathBuf) -> LakeState {
    let _ = std::fs::remove_dir_all(dir);
    let lake = ModelLake::create(dir, LakeConfig::default()).unwrap();
    // One persist per ingest grows the segment chain past the fold
    // threshold; the fold strands the replaced chain on disk for GC.
    for i in 0..10u64 {
        lake.ingest_model(&format!("g-{i}"), &model(20 + i), None).unwrap();
        lake.persist(dir).unwrap();
    }
    let state = lake_state(&lake);
    drop(lake);
    let orphan = "cd".repeat(32);
    std::fs::write(dir.join("blobs").join(format!("{orphan}.blob")), b"stray").unwrap();
    std::fs::write(dir.join("blobs").join("stranded.tmp"), b"tmp").unwrap();
    std::fs::write(dir.join("segs").join("stranded.tmp"), b"tmp").unwrap();
    state
}

/// GC deletion order: killing the process at *every* `remove_file` in a
/// collection pass must leave the lake fully recoverable — GC deletes
/// only files the live superblock can no longer reach, so no prefix of
/// its deletions can lose state. After a completed GC the reopened lake
/// is bit-identical (events, names, parameters).
#[test]
fn gc_crash_at_every_remove_preserves_full_state() {
    let template = tmp("gc-template");
    let reference = build_garbage_template(&template);

    // Counting pass: how many files does one full GC remove?
    let dir = tmp("gc-count");
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&template, &dir);
    let fs = FailFs::counting();
    let report = {
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fs));
        let lake = ModelLake::open_with(&dir, LakeConfig::default(), vfs).unwrap();
        lake.gc().unwrap()
    };
    let total_removes = fs.removes();
    assert!(report.orphan_blobs >= 1, "orphan blob not collected: {report:?}");
    assert!(report.dead_segments >= 1, "folded-away segments not collected: {report:?}");
    assert!(report.temp_files >= 2, "stranded temp files not collected: {report:?}");
    assert!(total_removes >= 4, "GC removed only {total_removes} files");
    // A completed GC is invisible to readers: bit-identical reopen.
    let clean = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    assert_eq!(lake_state(&clean), reference, "post-GC reopen drifted");
    drop(clean);
    std::fs::remove_dir_all(&dir).unwrap();

    // Sweep: crash at every single deletion in the GC pass.
    for kill in 1..=total_removes {
        let dir = tmp(&format!("gc-k{kill}"));
        let _ = std::fs::remove_dir_all(&dir);
        copy_tree(&template, &dir);
        let fs = FailFs::kill_at_remove(kill);
        {
            let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fs));
            let lake = ModelLake::open_with(&dir, LakeConfig::default(), vfs).unwrap();
            assert!(
                lake.gc().is_err(),
                "gc kill {kill}: collection survived the injected crash"
            );
        }
        assert!(fs.is_dead(), "gc kill point {kill} never reached");
        // Recovery sees the live superblock untouched; a second GC pass
        // finishes the interrupted collection.
        let rec = ModelLake::open(&dir, LakeConfig::default())
            .unwrap_or_else(|e| panic!("gc kill {kill}: recovery failed: {e}"));
        assert_eq!(lake_state(&rec), reference, "gc kill {kill}: state drifted");
        rec.gc().unwrap_or_else(|e| panic!("gc kill {kill}: retry failed: {e}"));
        drop(rec);
        let again = ModelLake::open(&dir, LakeConfig::default()).unwrap();
        assert_eq!(lake_state(&again), reference, "gc kill {kill}: post-retry drifted");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&template).unwrap();
}

/// Ops the lake holds before the persist window below.
const BEFORE_WINDOW: usize = N_OPS - 2;

/// The persist window: a persist that folds (the chain is empty), one op,
/// a persist that seals that op's WAL segment, and the script's last op,
/// appended to the fresh segment the seal opened. Returns how many ops of
/// the script are acknowledged when it stops.
fn persist_window(lake: &ModelLake, dir: &Path) -> usize {
    if lake.persist(dir).is_err() || apply_op(lake, BEFORE_WINDOW).is_err() {
        return BEFORE_WINDOW;
    }
    if lake.persist(dir).is_err() || apply_op(lake, BEFORE_WINDOW + 1).is_err() {
        return BEFORE_WINDOW + 1;
    }
    N_OPS
}

/// A lake holding the script's first `BEFORE_WINDOW` ops, built
/// undisturbed on the real filesystem.
fn build_before_window(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let lake = ModelLake::create(dir, LakeConfig::default()).unwrap();
    for i in 0..BEFORE_WINDOW {
        apply_op(&lake, i).unwrap();
    }
}

/// A persist folds with temp-file + rename all the way down, or seals the
/// WAL segment its ops' records are already durable in: a crash at any
/// write or fsync of a folding persist, a sealing one, and the ops around
/// them must leave the previous snapshot + WAL fully recoverable — never a
/// torn manifest, never lost ops.
#[test]
fn crash_during_persist_preserves_full_state() {
    let refs = reference_states();
    // Counting pass: the writes and syncs of the open + persist window.
    let dir = tmp("count-p");
    build_before_window(&dir);
    let fs = FailFs::counting();
    {
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fs));
        let lake = ModelLake::open_with(&dir, LakeConfig::default(), vfs).unwrap();
        assert_eq!(persist_window(&lake, &dir), N_OPS);
    }
    let (w_window, s_window) = (fs.writes(), fs.syncs());
    assert!(w_window > 0, "the window issued no writes");
    // The fold wrote the one segment and dropped the WAL it covers; the
    // seal left the op after it in a sealed segment and the last op in
    // the fresh tail.
    let names = |sub: &str| -> Vec<String> {
        let entries = std::fs::read_dir(dir.join(sub)).unwrap();
        entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect()
    };
    assert_eq!(names("segs").len(), 1, "segments {:?}", names("segs"));
    assert_eq!(names("wal").len(), 2, "the sealing persist sealed no WAL segment");
    #[derive(serde::Deserialize)]
    struct SuperBlock {
        last_lsn: u64,
    }
    let manifest = std::fs::read(dir.join("manifest.json")).unwrap();
    let last_lsn = serde_json::from_slice::<SuperBlock>(&manifest).unwrap().last_lsn;
    for name in names("wal") {
        let first: u64 = name.trim_end_matches(".wal").parse().unwrap();
        assert!(first > last_lsn, "the fold left WAL segment {name} it covers");
    }
    std::fs::remove_dir_all(&dir).unwrap();

    // Crash at every write and every fsync inside the window (the counting
    // pass above measured exactly that window, on an identical on-disk
    // state).
    let mut cases: Vec<(&str, u64)> = Vec::new();
    for k in 1..=w_window {
        cases.push(("write", k));
    }
    for k in 1..=s_window {
        cases.push(("sync", k));
    }
    for (kind, k) in cases {
        let dir = tmp(&format!("kp-{kind}-{k}"));
        build_before_window(&dir);
        // Reopen through FailFs armed to die on the k-th write/fsync, then
        // run the window. The open itself may be the victim.
        let fs = match kind {
            "write" => FailFs::kill_at_write(k, 0),
            _ => FailFs::kill_at_sync(k),
        };
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fs));
        let acked = match ModelLake::open_with(&dir, LakeConfig::default(), vfs) {
            Ok(lake) => persist_window(&lake, &dir),
            Err(_) => BEFORE_WINDOW,
        };
        assert!(acked < N_OPS, "{kind} kill {k}: the window survived the injected crash");
        assert!(fs.is_dead(), "{kind} kill point {k} never reached");
        // The previous snapshot + WAL must recover every acked op.
        check_recovered(&dir, acked, &refs, &format!("persist {kind} kill {k}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `upgrade` is a persist into the lake's own directory: a crash at any
/// write or fsync of it leaves either the v3 lake — which `open` refuses
/// and `upgrade` reads again — or the v4 one, never a lake `open` calls
/// corrupt. Either way the upgraded lake renders the v3 lake's golden.
/// Every write and fsync comes before the superblock swap; the WAL
/// compaction's removes after it are swept too.
#[test]
fn upgrade_crash_at_every_write_and_fsync_keeps_the_golden() {
    let golden = common::golden("v3-wal");
    let dir = tmp("up-count");
    common::fixture_copy("v3-wal-lake", &dir);
    let fs = FailFs::counting();
    ModelLake::upgrade_with(&dir, LakeConfig::default(), Arc::new(Arc::clone(&fs))).unwrap();
    let (writes, syncs, removes) = (fs.writes(), fs.syncs(), fs.removes());
    assert!(
        writes > 1 && syncs > 1 && removes > 0,
        "upgrade issued {writes} writes, {syncs} syncs, {removes} removes"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    let (mut before_swap, mut after_swap) = (0, 0);
    let kills = (1..=writes).map(|k| ("write", k));
    let kills = kills.chain((1..=syncs).map(|k| ("sync", k)));
    for (kind, k) in kills.chain((1..=removes).map(|k| ("remove", k))) {
        let dir = tmp(&format!("up-{kind}-{k}"));
        common::fixture_copy("v3-wal-lake", &dir);
        let fs = match kind {
            "write" => FailFs::kill_at_write(k, [0usize, 1, 7][(k % 3) as usize]),
            "sync" => FailFs::kill_at_sync(k),
            _ => FailFs::kill_at_remove(k),
        };
        let upgraded =
            ModelLake::upgrade_with(&dir, LakeConfig::default(), Arc::new(Arc::clone(&fs)));
        assert!(fs.is_dead(), "{kind} kill point {k} never reached");
        assert!(
            upgraded.is_err(),
            "{kind} kill {k}: upgrade survived the injected crash"
        );
        // The retry runs on a copy of the directory as the crash left it,
        // before the open below attaches a WAL to it.
        let retry = tmp(&format!("up-{kind}-{k}-retry"));
        let _ = std::fs::remove_dir_all(&retry);
        common::copy_tree(&dir, &retry);
        match ModelLake::open(&dir, LakeConfig::default()) {
            Ok(lake) => {
                assert_eq!(common::render(&lake), golden, "{kind} kill {k}");
                after_swap += 1;
            }
            Err(LakeError::UnsupportedManifest { found: 3, .. }) => before_swap += 1,
            Err(e) => panic!("{kind} kill {k}: open after the crash: {e}"),
        }
        ModelLake::upgrade(&retry, LakeConfig::default())
            .unwrap_or_else(|e| panic!("{kind} kill {k}: upgrade retry: {e}"));
        let lake = ModelLake::open(&retry, LakeConfig::default()).unwrap();
        assert_eq!(
            common::render(&lake),
            golden,
            "{kind} kill {k}: after the retry"
        );
        drop(lake);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&retry).unwrap();
    }
    assert!(
        before_swap > 0 && after_swap > 0,
        "{before_swap} kills before the swap, {after_swap} after"
    );
}
