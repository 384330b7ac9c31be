//! A persist writes the log once (DESIGN.md §15). After one ingest into a
//! folded lake, the next persist seals the WAL segment that holds the
//! ingest's record and writes nothing else: no file under `segs/`, and
//! `manifest.json` keeps its bytes. The sealed segment is the same size
//! whatever the size of the lake — O(ops since the last persist), not
//! O(lake). Byte-exact, so no timing flake.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_nn::{Activation, Mlp, Model};
use mlake_tensor::{init::Init, Pcg64};
use std::path::{Path, PathBuf};

fn model(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

/// The files in `dir`, sorted.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// The size of the WAL segment the persist after one ingest into a folded
/// lake of `n` models seals, after checking that it wrote nothing else.
fn sealed_after_one_ingest(dir: &Path, n: u64) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let lake = ModelLake::create(dir, LakeConfig::default()).unwrap();
    for i in 0..n {
        lake.ingest_model(&format!("m-{i}"), &model(0xb10c + i), None)
            .unwrap();
    }
    // The first persist folds: the chain is empty.
    lake.persist(dir).unwrap();
    let folded = || (files(&dir.join("segs")), std::fs::read(dir.join("manifest.json")).unwrap());
    let before = folded();
    let wal = files(&dir.join("wal"));
    lake.ingest_model("delta-probe", &model(0xde17a), None)
        .unwrap();
    lake.persist(dir).unwrap();
    assert!(folded() == before, "the persist wrote a segment or the superblock");
    let sealed = files(&dir.join("wal"));
    assert_eq!(sealed.len(), wal.len() + 1, "the persist sealed no WAL segment");
    let size = std::fs::metadata(&sealed[wal.len() - 1]).unwrap().len();
    std::fs::remove_dir_all(dir).unwrap();
    size
}

#[test]
fn the_delta_after_one_ingest_does_not_grow_with_the_lake() {
    let tmp = |n: u64| -> PathBuf {
        std::env::temp_dir().join(format!("mlake-delta-{n}-{}", std::process::id()))
    };
    let small = sealed_after_one_ingest(&tmp(20), 20);
    let large = sealed_after_one_ingest(&tmp(200), 200);
    // One record: the same Model block and the same two events, whose
    // sequence numbers gain one digit each (41, 42 at 20 models; 401, 402
    // at 200).
    assert_eq!(
        large,
        small + 2,
        "sealed delta of {large} B at 200 models vs {small} B at 20"
    );
}
