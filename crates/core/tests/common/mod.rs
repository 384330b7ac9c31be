//! Helpers shared by the on-disk format tests: scratch copies of the
//! checked-in fixture lakes, and [`render`], the text the goldens pin.
#![allow(dead_code)]

use mlake_core::lake::ModelLake;
use mlake_core::ModelId;
use mlake_fingerprint::FingerprintKind;
use mlake_nn::{Activation, Mlp, Model};
use mlake_tensor::{init::Init, Pcg64};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

pub fn copy_tree(from: &Path, to: &Path) {
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

/// A fresh scratch copy of fixture lake `name` at `dir` (opening or
/// upgrading a lake writes into its directory).
pub fn fixture_copy(name: &str, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    copy_tree(&fixtures().join(name), dir);
}

pub fn model(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

pub fn renote(lake: &ModelLake, name: &str, notes: &str) {
    let mut card = lake.entry(name).unwrap().card;
    card.notes = notes.into();
    lake.update_card(name, card).unwrap();
}

/// Text queries the goldens pin.
const QUERIES: [&str; 5] = [
    "harbor",
    "ledger",
    "frost almanac",
    "amended revised",
    "fx-e",
];

/// The catalogue as text: events, entries and cards, then `similar` and
/// `text_search` hits as bits.
pub fn state(lake: &ModelLake) -> String {
    let mut out = String::new();
    for e in lake.events() {
        writeln!(out, "event {} {:?} {}", e.seq, e.kind, e.subject).unwrap();
    }
    let ids = || (0..lake.len() as u64).map(ModelId);
    for id in ids() {
        let e = lake.entry(id).unwrap();
        let card = serde_json::to_string(&e.card).unwrap();
        let (name, arch, params, digest) = (e.name, e.arch, e.params, e.digest.to_hex());
        writeln!(out, "entry {} {name} {arch} {params} {digest} {card}", id.0).unwrap();
    }
    writeln!(out, "benchmarks {:?}", lake.benchmark_names()).unwrap();
    let bits = |hits: Vec<(ModelId, f32)>| -> Vec<(u64, u32)> {
        hits.into_iter().map(|(m, s)| (m.0, s.to_bits())).collect()
    };
    for id in ids() {
        for kind in FingerprintKind::ALL {
            let hits = bits(lake.similar(id, kind, 4).unwrap());
            writeln!(out, "similar {} {kind:?} {hits:?}", id.0).unwrap();
        }
    }
    for q in QUERIES {
        writeln!(
            out,
            "text {q:?} {:?}",
            bits(lake.text_search(q, 5).unwrap())
        )
        .unwrap();
    }
    out
}

/// [`state`], then every model's citation, then the log head, which the
/// citations leave where it was: a graph catch-up writes nothing.
pub fn render(lake: &ModelLake) -> String {
    let mut out = state(lake);
    for id in (0..lake.len() as u64).map(ModelId) {
        let c = lake.cite(id).unwrap();
        writeln!(out, "cite {} {:?} {}", c.key(), c.version_path, c.lake_name).unwrap();
    }
    writeln!(out, "head {}", lake.events().len()).unwrap();
    out
}

/// The golden `name` (`tests/fixtures/<name>-golden.txt`).
pub fn golden(name: &str) -> String {
    std::fs::read_to_string(fixtures().join(format!("{name}-golden.txt"))).unwrap()
}
