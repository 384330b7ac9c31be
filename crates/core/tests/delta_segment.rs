//! Persist is incremental (DESIGN.md §15): the delta segment written after
//! one ingest is the same size whatever the size of the lake — O(ops since
//! the last persist), not O(lake). Byte-exact, so no timing flake.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_nn::{Activation, Mlp, Model};
use mlake_tensor::{init::Init, Pcg64};
use std::path::{Path, PathBuf};

fn model(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

/// The size of the delta segment a persist writes after one ingest into a
/// persisted lake of `n` models.
fn delta_after_one_ingest(dir: &Path, n: u64) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let lake = ModelLake::create(dir, LakeConfig::default()).unwrap();
    for i in 0..n {
        lake.ingest_model(&format!("m-{i}"), &model(0xb10c + i), None)
            .unwrap();
    }
    lake.persist(dir).unwrap();
    lake.ingest_model("delta-probe", &model(0xde17a), None)
        .unwrap();
    lake.persist(dir).unwrap();
    let newest = std::fs::read_dir(dir.join("segs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .max();
    let size = std::fs::metadata(newest.unwrap()).unwrap().len();
    std::fs::remove_dir_all(dir).unwrap();
    size
}

#[test]
fn the_delta_after_one_ingest_does_not_grow_with_the_lake() {
    let tmp = |n: u64| -> PathBuf {
        std::env::temp_dir().join(format!("mlake-delta-{n}-{}", std::process::id()))
    };
    let small = delta_after_one_ingest(&tmp(20), 20);
    let large = delta_after_one_ingest(&tmp(200), 200);
    // The same Model block and the same two events, whose sequence numbers
    // gain one digit each (41, 42 at 20 models; 401, 402 at 200).
    assert_eq!(
        large,
        small + 2,
        "delta of {large} B at 200 models vs {small} B at 20"
    );
}
