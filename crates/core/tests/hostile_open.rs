//! Hostile bytes over what `open` reads (DESIGN.md §12): seeded bit
//! flips, truncations and byte splices of a small v4 lake's
//! `manifest.json`, one segment and its WAL file. Every `open` returns `Ok`
//! or a typed `Err` — never a panic, never a hang — and a lake that opens
//! answers reads. The named cases are inputs that once panicked.

mod common;

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::{LakeError, ModelId};
use mlake_fingerprint::FingerprintKind;
use mlake_tensor::Pcg64;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Mutations per file and kind: 3 files × 3 kinds × `ROUNDS` opens.
const ROUNDS: usize = 24;
const SEED: u64 = 0x4057_11e0;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-hostile-{tag}-{}", std::process::id()))
}

/// A small v4 lake: a one-segment chain (three models, a dataset) and a
/// WAL tail past it (an ingest and a card update). Returns the three
/// files `open` reads, relative to `dir`.
fn template(dir: &Path) -> [PathBuf; 3] {
    let _ = std::fs::remove_dir_all(dir);
    let lake = ModelLake::create(dir, LakeConfig::default()).unwrap();
    for i in 0..3 {
        lake.ingest_model(&format!("h-{i}"), &common::model(500 + i), None)
            .unwrap();
    }
    let corpus = mlake_datagen::Dataset {
        id: mlake_datagen::DatasetId(0),
        name: "h-corpus".into(),
        domain: mlake_datagen::Domain::new("legal"),
        kind: mlake_datagen::DatasetKind::Corpus(vec![1, 2, 3, 4]),
        parent: None,
        derived_by: None,
    };
    lake.register_dataset(corpus).unwrap();
    lake.persist(dir).unwrap();
    lake.ingest_model("h-3", &common::model(503), None).unwrap();
    common::renote(&lake, "h-0", "harbor ledger");
    drop(lake);
    let only = |sub: &str| {
        let files: Vec<PathBuf> = std::fs::read_dir(dir.join(sub))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1, "{sub}: {files:?}");
        files[0].strip_prefix(dir).unwrap().to_path_buf()
    };
    [PathBuf::from("manifest.json"), only("segs"), only("wal")]
}

/// One seeded mutation of `bytes`, and its label.
fn mutate(bytes: &[u8], kind: usize, rng: &mut Pcg64) -> (String, Vec<u8>) {
    let mut out = bytes.to_vec();
    let at = rng.index(bytes.len());
    match kind {
        0 => {
            let bit = rng.index(8);
            out[at] ^= 1 << bit;
            (format!("flip byte {at} bit {bit}"), out)
        }
        1 => {
            out.truncate(at);
            (format!("truncate to {at}"), out)
        }
        _ => {
            // Half the splices copy a run from elsewhere in the file (keeps
            // the bytes plausible), half write noise.
            let len = 1 + rng.index(16).min(bytes.len() - at - 1);
            let from = rng.index(bytes.len() - len + 1);
            let run: Vec<u8> = if rng.index(2) == 0 {
                bytes[from..from + len].to_vec()
            } else {
                (0..len).map(|_| rng.next_u32() as u8).collect()
            };
            out.splice(at..at + len, run);
            (format!("splice {len} bytes at {at} (from {from})"), out)
        }
    }
}

/// Opens `dir` and, if it opens, reads from it — on a thread of its own,
/// so a panic is reported and a hang times out.
fn opens_or_fails_cleanly(dir: &Path, case: &str) {
    let dir = dir.to_path_buf();
    let (done, finished) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        if let Ok(lake) = ModelLake::open(&dir, LakeConfig::default()) {
            for id in (0..lake.len() as u64).map(ModelId) {
                let _ = lake.entry(id);
                let _ = lake.similar(id, FingerprintKind::Hybrid, 2);
            }
            let _ = lake.text_search("harbor ledger", 3);
            let _ = lake.events();
        }
        let _ = done.send(());
    });
    // A panic drops `done` before sending: that is a disconnect, not a timeout.
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(30)) {
        panic!("{case}: open hung");
    }
    assert!(reader.join().is_ok(), "{case}: open panicked");
}

/// Writes `bytes` over `file` in a fresh copy of `template` at `dir`.
fn hostile_copy(template: &Path, dir: &Path, file: &Path, bytes: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    common::copy_tree(template, dir);
    std::fs::write(dir.join(file), bytes).unwrap();
}

#[test]
fn seeded_flips_truncations_and_splices_never_panic_or_hang() {
    let template_dir = tmp("template");
    let files = template(&template_dir);
    let dir = tmp("case");
    let mut rng = Pcg64::new(SEED);
    for file in &files {
        let pristine = std::fs::read(template_dir.join(file)).unwrap();
        for kind in 0..3 {
            for _ in 0..ROUNDS {
                let (label, bytes) = mutate(&pristine, kind, &mut rng);
                hostile_copy(&template_dir, &dir, file, &bytes);
                opens_or_fails_cleanly(&dir, &format!("{}: {label}", file.display()));
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&template_dir).unwrap();
}

/// A v4 manifest over the template's chain, with the given field texts.
fn manifest(version: &str, name: &str, segments: &str, last_lsn: &str) -> Vec<u8> {
    format!(
        r#"{{"version": {version}, "name": {name}, "segments": {segments}, "last_lsn": {last_lsn}}}"#
    )
    .into_bytes()
}

/// Manifests a mutation would rarely hit, each of which once panicked or
/// sits on an integer edge.
#[test]
fn named_hostile_manifests_fail_cleanly() {
    let template_dir = tmp("named-template");
    let files = template(&template_dir);
    let dir = tmp("named");
    // The template's own manifest, rewritten by `manifest`, still opens.
    let ok = manifest("4", r#""model-lake""#, "[1]", "4");
    hostile_copy(&template_dir, &dir, &files[0], &ok);
    assert_eq!(ModelLake::open(&dir, LakeConfig::default()).unwrap().len(), 4);
    // A high surrogate, then an escape outside DC00–DFFF (the JSON parser
    // underflowed on it).
    let broken_pair = format!(r#""\{u}D800\{u}0041""#, u = 'u');
    let cases = [
        ("broken surrogate pair in the name", manifest("4", &broken_pair, "[1]", "4")),
        // `Wal::open_with` overflowed computing the next LSN.
        ("last_lsn at u64::MAX", manifest("4", r#""x""#, "[1]", "18446744073709551615")),
        ("last_lsn past u64::MAX", manifest("4", r#""x""#, "[1]", "18446744073709551616")),
        ("version at u32::MAX", manifest("4294967295", r#""x""#, "[1]", "4")),
        ("negative version", manifest("-4", r#""x""#, "[1]", "4")),
        ("segment at u64::MAX", manifest("4", r#""x""#, "[18446744073709551615]", "4")),
        ("segment listed twice", manifest("4", r#""x""#, "[1, 1]", "4")),
    ];
    for (case, bytes) in cases {
        hostile_copy(&template_dir, &dir, &files[0], &bytes);
        opens_or_fails_cleanly(&dir, case);
        assert!(ModelLake::open(&dir, LakeConfig::default()).is_err(), "{case} opened");
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&template_dir).unwrap();
}

/// A block whose CRC is valid but whose JSON nests far past the parser's
/// bound (`serde_json::MAX_DEPTH`): its recursion once overflowed the
/// opening thread's stack and aborted the process; now `open` reports
/// the segment corrupt.
#[test]
fn deeply_nested_block_is_a_corrupt_artifact() {
    let template_dir = tmp("nested-template");
    let files = template(&template_dir);
    let dir = tmp("nested");
    let mut segment = std::fs::read(template_dir.join(&files[1])).unwrap();
    let payload = "{\"Model\":".to_string() + &"[".repeat(100_000);
    segment.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    segment.extend_from_slice(&mlake_wal::crc32c(payload.as_bytes()).to_le_bytes());
    segment.extend_from_slice(payload.as_bytes());
    hostile_copy(&template_dir, &dir, &files[1], &segment);
    opens_or_fails_cleanly(&dir, "nested block");
    match ModelLake::open(&dir, LakeConfig::default()) {
        Err(LakeError::CorruptArtifact(msg)) => {
            assert!(msg.contains("nesting deeper than 128"), "{msg}");
        }
        Err(other) => panic!("nested block: expected CorruptArtifact, got {other}"),
        Ok(_) => panic!("nested block: opened"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&template_dir).unwrap();
}
