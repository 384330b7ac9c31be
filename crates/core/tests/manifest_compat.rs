//! Manifest format back-compatibility (DESIGN.md §12).
//!
//! `tests/fixtures/v1-lake/` is a checked-in lake persisted by the v1
//! (pre-WAL) format: `manifest.json` has `"version": 1`, no `last_lsn`
//! field and no `wal/` directory. `open` reads only the current format and
//! answers any other version with the typed
//! [`LakeError::UnsupportedManifest`], never a panic or a misleading
//! corruption report. An older lake must keep upgrading forever: the
//! manifest version only advances with an `upgrade` path for every version
//! we ever shipped.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::LakeError;
use mlake_fingerprint::FingerprintKind;
use mlake_nn::{Activation, Mlp, Model};
use mlake_tensor::{init::Init, Pcg64};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-lake")
}

fn v2_fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2-lake")
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-compat-{tag}-{}", std::process::id()))
}

fn model(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

/// Copies a read-only fixture into a scratch dir (opening a lake
/// attaches a WAL, i.e. writes into the directory).
fn copy_fixture_from(from: &Path, to: &Path) {
    std::fs::create_dir_all(to.join("blobs")).unwrap();
    std::fs::copy(from.join("manifest.json"), to.join("manifest.json")).unwrap();
    for entry in std::fs::read_dir(from.join("blobs")).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join("blobs").join(path.file_name().unwrap())).unwrap();
    }
}

fn copy_fixture(to: &Path) {
    copy_fixture_from(&fixture_dir(), to);
}

#[test]
fn v1_fixture_upgrades_then_opens_and_takes_new_writes() {
    let fixture = std::fs::read_to_string(fixture_dir().join("manifest.json")).unwrap();
    assert!(
        fixture.contains("\"version\": 1"),
        "fixture must stay at manifest v1"
    );
    assert!(!fixture.contains("last_lsn"), "v1 predates the WAL");

    let dir = tmp("v1");
    let _ = std::fs::remove_dir_all(&dir);
    copy_fixture(&dir);
    ModelLake::upgrade(&dir, LakeConfig::default()).unwrap();
    let upgraded = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(upgraded.contains("\"version\": 4"));
    assert!(upgraded.contains("segments"));
    assert!(upgraded.contains("last_lsn"));
    assert!(
        dir.join("segs").exists(),
        "the upgrade wrote a segment chain"
    );
    let lake = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    assert_eq!(lake.len(), 2);
    assert!(lake.is_durable(), "opened lakes attach a WAL even from v1");
    assert!(lake.resolve("v1-alpha").is_ok());
    assert!(lake.resolve("v1-beta").is_ok());
    // Artifacts decode bit-for-bit: the fixture froze the v1 blob bytes.
    assert_eq!(
        lake.model("v1-alpha").unwrap().flat_params(),
        model(1).flat_params()
    );
    // Searches work from the fingerprints the upgrade computed.
    let hits = lake.similar("v1-alpha", FingerprintKind::Hybrid, 1).unwrap();
    assert_eq!(hits[0].0, lake.resolve("v1-beta").unwrap());
    // The upgraded lake is live: it takes new durable mutations.
    lake.ingest_model("v4-native", &model(3), None).unwrap();
    lake.persist(&dir).unwrap();
    drop(lake);
    let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    assert_eq!(reopened.len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v2_fixture_upgrades_then_opens_bit_for_bit() {
    let fixture = std::fs::read_to_string(v2_fixture_dir().join("manifest.json")).unwrap();
    assert!(
        fixture.contains("\"version\": 2"),
        "fixture must stay at manifest v2"
    );
    assert!(fixture.contains("last_lsn"), "v2 records the WAL high-water mark");

    let dir = tmp("v2");
    let _ = std::fs::remove_dir_all(&dir);
    copy_fixture_from(&v2_fixture_dir(), &dir);
    ModelLake::upgrade(&dir, LakeConfig::default()).unwrap();
    let upgraded = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(upgraded.contains("\"version\": 4"));
    let lake = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    assert_eq!(lake.len(), 2);
    assert!(lake.is_durable());
    // Artifacts decode bit-for-bit from the frozen v2 blobs.
    assert_eq!(
        lake.model("v2-alpha").unwrap().flat_params(),
        model(11).flat_params()
    );
    assert_eq!(
        lake.model("v2-beta").unwrap().flat_params(),
        model(12).flat_params()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_fixture_with_a_flipped_blob_byte_fails_upgrade_with_corrupt_artifact() {
    // The upgrade faults each blob in through the store, which verifies
    // the bytes against the digest in the file name.
    let dir = tmp("v1-flip");
    let _ = std::fs::remove_dir_all(&dir);
    copy_fixture(&dir);
    let blob = std::fs::read_dir(dir.join("blobs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .min()
        .unwrap();
    let mut bytes = std::fs::read(&blob).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&blob, bytes).unwrap();
    let manifest = std::fs::read(dir.join("manifest.json")).unwrap();
    let err = ModelLake::upgrade(&dir, LakeConfig::default()).unwrap_err();
    assert!(
        matches!(err, LakeError::CorruptArtifact(_)),
        "expected CorruptArtifact, got: {err}"
    );
    // The failed upgrade left the v1 lake as it was.
    assert_eq!(std::fs::read(dir.join("manifest.json")).unwrap(), manifest);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn future_manifest_version_is_rejected_with_typed_error() {
    let dir = tmp("future");
    let _ = std::fs::remove_dir_all(&dir);
    copy_fixture(&dir);
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    std::fs::write(
        dir.join("manifest.json"),
        manifest.replace("\"version\": 1", "\"version\": 7"),
    )
    .unwrap();
    let err = match ModelLake::open(&dir, LakeConfig::default()) {
        Ok(_) => panic!("a future-version manifest must not open"),
        Err(e) => e,
    };
    assert!(
        matches!(err, LakeError::UnsupportedManifest { found: 7, .. }),
        "expected UnsupportedManifest, got: {err}"
    );
    assert!(
        err.to_string().contains("newer: use a newer build"),
        "{err}"
    );
    // Nor can `upgrade` read a format newer than its own.
    assert!(matches!(
        ModelLake::upgrade(&dir, LakeConfig::default()),
        Err(LakeError::UnsupportedManifest { found: 7, .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
