//! The WAL's record format (DESIGN.md §12): a record is the block list the
//! op adds to the next delta segment, and records in the older one-op
//! shape stay readable.
//!
//! `tests/fixtures/v3-wal-lake/` was written by the commit before blocks
//! became the WAL payload: a v3 superblock over a two-segment chain plus
//! an unpersisted WAL tail holding all five legacy op kinds — ingest,
//! card update (on a chain-covered and on a WAL-only model), dataset,
//! benchmark, graph rebuild. `v3-wal-golden.txt` is [`render`] of that
//! lake as the same commit opened it.

use mlake_cards::ModelCard;
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::ModelId;
use mlake_fingerprint::FingerprintKind;
use mlake_nn::{Activation, Mlp, Model};
use mlake_tensor::{init::Init, Pcg64};
use mlake_wal::{RealFs, VFile, Vfs};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-walrec-{tag}-{}", std::process::id()))
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn copy_tree(from: &Path, to: &Path) {
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

/// A scratch copy of the fixture (opening a lake writes into its WAL).
fn fixture_copy(tag: &str) -> PathBuf {
    let dir = tmp(tag);
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&fixtures().join("v3-wal-lake"), &dir);
    dir
}

fn model(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

fn renote(lake: &ModelLake, name: &str, notes: &str) {
    let mut card = lake.entry(name).unwrap().card;
    card.notes = notes.into();
    lake.update_card(name, card).unwrap();
}

/// Text queries the golden pins.
const QUERIES: [&str; 5] = [
    "harbor",
    "ledger",
    "frost almanac",
    "amended revised",
    "fx-e",
];

/// The catalogue as text: events, entries and cards, then `similar` and
/// `text_search` hits as bits.
fn state(lake: &ModelLake) -> String {
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

/// [`state`], then every model's citation (the first one's graph
/// catch-up appends an event, so the head comes last).
fn render(lake: &ModelLake) -> String {
    let mut out = state(lake);
    for id in (0..lake.len() as u64).map(ModelId) {
        let c = lake.cite(id).unwrap();
        writeln!(out, "cite {} {:?} {}", c.key(), c.version_path, c.lake_name).unwrap();
    }
    writeln!(out, "head {}", lake.events().len()).unwrap();
    out
}

#[test]
fn legacy_wal_tail_replays_to_the_golden_of_the_commit_that_wrote_it() {
    let dir = fixture_copy("golden");
    let lake = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    let golden = std::fs::read_to_string(fixtures().join("v3-wal-golden.txt")).unwrap();
    assert_eq!(render(&lake), golden);
    drop(lake);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The JSON payloads of a segment file's blocks
/// (`"MLSG" | version u16 | (len u32 | crc u32 | payload)*`).
fn block_payloads(bytes: &[u8]) -> Vec<String> {
    let (mut at, mut out) = (6, Vec::new());
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        out.push(String::from_utf8(bytes[at + 8..at + 8 + len].to_vec()).unwrap());
        at += 8 + len;
    }
    out
}

#[test]
fn mixed_wal_replays_both_shapes_and_persists_the_card_overrides() {
    let dir = fixture_copy("mixed");
    let lake = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    // Block-list records behind the legacy tail.
    let card = ModelCard::skeleton("fx-f", "mlp:8-4-3:relu");
    lake.ingest_model("fx-f", &model(206), Some(card)).unwrap();
    renote(&lake, "fx-b", "harbor crane manifest revised twice");
    renote(&lake, "fx-f", "orchard notes");
    let bench = mlake_benchlab::Benchmark::perplexity("fx-bench-3", vec![2, 2, 1]);
    lake.register_benchmark(bench, None).unwrap();
    lake.rebuild_version_graph(None).unwrap();
    let live = state(&lake);
    drop(lake);

    let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    assert_eq!(
        state(&reopened),
        live,
        "a mixed WAL replayed to another catalogue"
    );
    reopened.persist(&dir).unwrap();
    // The delta carries a CardOverride for each chain-covered model whose
    // card a replayed record changed: fx-a (legacy op), fx-b (block list).
    let newest = std::fs::read_dir(dir.join("segs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .max();
    let payloads = block_payloads(&std::fs::read(newest.unwrap()).unwrap());
    let overrides: Vec<&String> = payloads
        .iter()
        .filter(|p| p.starts_with(r#"{"CardOverride":"#))
        .collect();
    assert_eq!(overrides.len(), 2, "{overrides:?}");
    assert!(overrides[0].starts_with(r#"{"CardOverride":{"id":0,"#));
    assert!(overrides[0].contains("harbor tides ledger amended in the wal"));
    assert!(overrides[1].starts_with(r#"{"CardOverride":{"id":1,"#));
    assert!(overrides[1].contains("harbor crane manifest revised twice"));
    drop(reopened);
    let folded = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    assert_eq!(
        state(&folded),
        live,
        "the persisted chain folds to another catalogue"
    );
    drop(folded);
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
