//! The JSON encoder's output is pinned byte for byte. Blobs and segment
//! blocks are content-addressed by the sha256 of these bytes, and lakebench
//! compares wire responses byte for byte, so a change to how a value is
//! written must not change what is written.
//!
//! Two goldens, both recorded with the `Content`-tree encoder that came
//! before `Serialize::write_json`:
//! - the sha256 of `serde_json::to_vec` over a fixed corpus: every
//!   `ApiRequest` / `ApiResponse` variant, models, cards, float edge values
//!   and strings that need escaping;
//! - the sha256 of every file a scripted durable history leaves on disk
//!   (blobs, segments, WAL, superblock), and of an export of that lake.
//!
//! A third test checks that the streaming encoder agrees with the tree
//! writer for every corpus value.

use mlake_cards::{Lineage, ModelCard, NutritionalLabel, ReportedMetric, TrainingDataRef};
use mlake_core::hash::sha256;
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::{ErrorKind, GcReport, ModelId};
use mlake_datagen::{Dataset, DatasetId, DatasetKind, Domain};
use mlake_fingerprint::FingerprintKind;
use mlake_nn::{Activation, Mlp, Model, NgramLm};
use mlake_obs::{HistogramSnapshot, MetricsSnapshot};
use mlake_proto::{ApiError, ApiRequest, ApiResponse, ScoredHit, SimilarHit, WireRef};
use mlake_query::QueryHit;
use mlake_tensor::{init::Init, Pcg64};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};

/// sha256 of the corpus encodings, each prefixed by its length.
const CORPUS_GOLDEN: &str = "a0d666e0396c1edc262e33f51f59b7d3119736d1e870d96ca95fbb2fd2ed7ecf";
/// sha256 of the files the scripted history leaves in its lake and in an
/// export of it, each prefixed by its path.
const HISTORY_GOLDEN: &str = "062dd2ca007132e8bebc6e231755f4585ae51361b88eb7db553b1da50dd3a493";

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlake-json-identity-{tag}-{}", std::process::id()))
}

fn mlp(seed: u64) -> Model {
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

fn lm() -> Model {
    let mut lm = NgramLm::new(6, 2, 0.5).unwrap();
    lm.add_counts(&[0, 1, 2, 3, 4, 5, 1, 2, 2, 0], 1.5).unwrap();
    Model::Lm(lm)
}

/// Strings a JSON writer must escape, or must pass through untouched.
const AWKWARD: [&str; 6] = [
    "",
    "plain ascii",
    "quote \" backslash \\ slash / tab \t newline \n return \r",
    "controls \u{0} \u{1} \u{8} \u{c} \u{1f} del \u{7f}",
    "bmp é ß 中文 \u{2028} \u{fffd}",
    "non-bmp 😀 \u{10ffff} 𝄞",
];

const F64_EDGES: [f64; 22] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.1,
    1.5,
    123456789.0,
    1e15,
    1e16,
    1e21,
    1e22,
    1e-7,
    1e300,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    5e-324,
    2.225e-308,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    std::f64::consts::PI,
];

const F32_EDGES: [f32; 16] = [
    0.0,
    -0.0,
    1.0,
    0.1,
    -2.5,
    16777216.0,
    1e21,
    3.402_823_5e38,
    f32::MIN_POSITIVE,
    1e-45,
    1e-40,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    std::f32::consts::E,
    -1e-3,
];

fn card(name: &str, seed: u64) -> ModelCard {
    ModelCard {
        model_name: name.into(),
        architecture: "mlp:8-4-3:relu".into(),
        training_algorithm: Some(format!("sgd lr=0.{seed} \"tuned\"")),
        task_tags: vec!["classification".into(), AWKWARD[2].into()],
        domains: vec!["legal".into(), AWKWARD[5].into()],
        training_data: vec![
            TrainingDataRef {
                dataset_name: "corpus-a".into(),
                dataset_id: Some(seed),
            },
            TrainingDataRef {
                dataset_name: AWKWARD[3].into(),
                dataset_id: None,
            },
        ],
        metrics: F32_EDGES
            .iter()
            .enumerate()
            .map(|(i, &value)| ReportedMetric {
                benchmark: format!("bench-{i}"),
                metric: "accuracy".into(),
                value,
            })
            .collect(),
        quantitative: Some(NutritionalLabel {
            demographic_parity_gap: Some(-0.0),
            group_accuracies: Some((0.75, f32::NAN)),
            calibration_ece: None,
            parameter_count: Some(u64::MAX),
        }),
        lineage: Lineage {
            base_model: Some("base".into()),
            transform: Some("finetune".into()),
            second_parent: None,
        },
        notes: AWKWARD[4].into(),
        created_at: seed * 7,
    }
}

/// A lake with enough in it to cite, audit and query.
fn populated() -> ModelLake {
    let lake = ModelLake::new(LakeConfig::default());
    for i in 0..6u64 {
        let c = (i % 2 == 0).then(|| card(&format!("m-{i}"), i));
        lake.ingest_model(&format!("m-{i}"), &mlp(40 + i), c)
            .unwrap();
    }
    lake
}

/// Every `ApiRequest` variant.
fn requests() -> Vec<ApiRequest> {
    let digest = "0123456789abcdef".repeat(4);
    vec![
        ApiRequest::Ingest {
            name: "m-new".into(),
            model: mlp(7),
            card: Some(card("m-new", 3)),
        },
        ApiRequest::Ingest {
            name: AWKWARD[3].into(),
            model: lm(),
            card: None,
        },
        ApiRequest::Similar {
            model: WireRef::Id(u64::MAX),
            kind: FingerprintKind::Intrinsic,
            k: 0,
        },
        ApiRequest::Similar {
            model: WireRef::Name(AWKWARD[5].into()),
            kind: FingerprintKind::Extrinsic,
            k: usize::MAX,
        },
        ApiRequest::TextSearch {
            query: AWKWARD[2].into(),
            k: 10,
        },
        ApiRequest::HybridSearch {
            query: "legal tabular".into(),
            model: WireRef::Digest(digest.clone()),
            kind: FingerprintKind::Hybrid,
            k: 5,
        },
        ApiRequest::Query {
            mlql: "FIND MODELS WHERE domain = 'legal' TOP 3".into(),
        },
        ApiRequest::Explain {
            mlql: AWKWARD[4].into(),
        },
        ApiRequest::Resolve {
            model: WireRef::Id(3),
        },
        ApiRequest::Cite {
            model: WireRef::Digest(digest),
        },
        ApiRequest::Audit {
            model: WireRef::Name("m-2".into()),
        },
        ApiRequest::UpdateCard {
            model: WireRef::Id(0),
            card: card("m-0", 9),
        },
        ApiRequest::ListModels,
        ApiRequest::Sync,
        ApiRequest::Gc,
        ApiRequest::Metrics,
    ]
}

/// Every `ApiResponse` variant, the payload-heavy ones from a real lake.
fn responses(lake: &ModelLake) -> Vec<ApiResponse> {
    let citation = lake.cite("m-2").unwrap();
    let key = citation.key();
    let hits = lake
        .prepare("FIND MODELS SIMILAR TO MODEL 'm-1' USING weights TOP 4")
        .unwrap()
        .run()
        .unwrap();
    let mut query_hits = hits;
    query_hits.extend(
        F32_EDGES
            .iter()
            .zip(F64_EDGES)
            .enumerate()
            .map(|(i, (&f, d))| QueryHit {
                id: i as u64,
                similarity: Some(f),
                text_score: None,
                score: Some(d),
            }),
    );
    vec![
        ApiResponse::Ingested { id: 0 },
        ApiResponse::Similar {
            hits: F32_EDGES
                .iter()
                .enumerate()
                .map(|(i, &similarity)| SimilarHit {
                    id: i as u64,
                    similarity,
                })
                .collect(),
        },
        ApiResponse::Similar { hits: Vec::new() },
        ApiResponse::Scored {
            hits: F32_EDGES
                .iter()
                .rev()
                .enumerate()
                .map(|(i, &score)| ScoredHit {
                    id: u64::MAX - i as u64,
                    score,
                })
                .collect(),
        },
        ApiResponse::Hits { hits: query_hits },
        ApiResponse::Plan {
            steps: lake
                .prepare("FIND MODELS WHERE params > 0 LIMIT 2")
                .unwrap()
                .explain(),
        },
        ApiResponse::Plan {
            steps: AWKWARD.iter().map(|s| s.to_string()).collect(),
        },
        ApiResponse::Resolved {
            id: 4,
            name: AWKWARD[5].into(),
            digest: lake.entry(ModelId(4)).unwrap().digest.to_hex(),
        },
        ApiResponse::Cited { citation, key },
        ApiResponse::Audited {
            report: lake.audit_model("m-4").unwrap(),
        },
        ApiResponse::CardUpdated,
        ApiResponse::Models {
            names: lake.model_names(),
        },
        ApiResponse::Models { names: Vec::new() },
        ApiResponse::Synced,
        ApiResponse::GcDone {
            report: GcReport {
                orphan_blobs: 1,
                dead_segments: 2,
                temp_files: 0,
                bytes_reclaimed: u64::MAX,
            },
        },
        ApiResponse::Metrics {
            snapshot: MetricsSnapshot::default(),
        },
        ApiResponse::Metrics {
            snapshot: MetricsSnapshot {
                counters: vec![("http.requests".into(), 12), (AWKWARD[3].into(), 0)],
                gauges: vec![
                    ("http.conns.live".into(), -3, i64::MAX),
                    ("g".into(), i64::MIN, 0),
                ],
                histograms: vec![HistogramSnapshot {
                    name: "lake.similar".into(),
                    count: 5,
                    mean_ns: 1,
                    p50_ns: 2,
                    p95_ns: 3,
                    p99_ns: 4,
                    max_ns: u64::MAX,
                }],
            },
        },
        ApiResponse::Error(ApiError {
            kind: ErrorKind::NotFound,
            status: 404,
            message: AWKWARD[3].into(),
        }),
        ApiResponse::Error(ApiError {
            kind: ErrorKind::Unavailable,
            status: 503,
            message: "too many requests in flight; retry".into(),
        }),
    ]
}

/// Shapes the derive must cover beyond the protocol's own types.
#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(Vec<u8>);

#[derive(Serialize)]
struct Pair(i8, Option<String>);

#[derive(Serialize)]
enum Shapes {
    Bare,
    One(f64),
    Two(i64, char),
    Named {
        a: Option<f32>,
        b: (u8, i16, bool),
        c: BTreeMap<u32, String>,
    },
}

#[derive(Serialize)]
struct Everything {
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    shapes: Vec<Shapes>,
    unsigned: (u8, u16, u32, u64, usize),
    signed: (i8, i16, i32, i64, isize),
    nested: Vec<Vec<Option<bool>>>,
    set: BTreeSet<String>,
    keyed: BTreeMap<String, Vec<f32>>,
    array: [u16; 3],
    boxed: Box<str>,
    chars: Vec<char>,
    nothing: (),
    wait: std::time::Duration,
}

fn everything() -> Everything {
    let mut c = BTreeMap::new();
    c.insert(7, AWKWARD[2].to_string());
    c.insert(0, String::new());
    Everything {
        unit: Unit,
        newtype: Newtype(vec![0, 255, 16]),
        pair: Pair(-128, None),
        shapes: vec![
            Shapes::Bare,
            Shapes::One(-0.0),
            Shapes::Two(i64::MIN, '😀'),
            Shapes::Named {
                a: Some(f32::NAN),
                b: (255, -1, false),
                c,
            },
            Shapes::Named {
                a: None,
                b: (0, i16::MAX, true),
                c: BTreeMap::new(),
            },
        ],
        unsigned: (u8::MAX, u16::MAX, u32::MAX, u64::MAX, usize::MAX),
        signed: (i8::MIN, i16::MIN, i32::MIN, i64::MIN, -1),
        nested: vec![vec![], vec![Some(true), None, Some(false)]],
        set: AWKWARD.iter().map(|s| s.to_string()).collect(),
        keyed: AWKWARD
            .iter()
            .map(|s| (s.to_string(), F32_EDGES.to_vec()))
            .collect(),
        array: [1, 0, u16::MAX],
        boxed: AWKWARD[3].into(),
        chars: vec!['"', '\\', '\u{0}', '\n', 'é', '\u{10ffff}'],
        nothing: (),
        wait: std::time::Duration::new(3, 999_999_999),
    }
}

/// The corpus, in a fixed order.
fn corpus(lake: &ModelLake) -> Vec<Box<dyn Serialize>> {
    let mut out: Vec<Box<dyn Serialize>> = Vec::new();
    out.extend(
        requests()
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn Serialize>),
    );
    out.extend(
        responses(lake)
            .into_iter()
            .map(|r| Box::new(r) as Box<dyn Serialize>),
    );
    out.push(Box::new(mlp(11)));
    out.push(Box::new(lm()));
    out.push(Box::new(card("solo", 5)));
    out.push(Box::new(ModelCard::skeleton("skeleton", "lm:6-2")));
    out.push(Box::new(lake.entry(ModelId(2)).unwrap().card));
    out.push(Box::new(F64_EDGES));
    out.push(Box::new(F32_EDGES.to_vec()));
    out.extend(F64_EDGES.iter().map(|&v| Box::new(v) as Box<dyn Serialize>));
    out.extend(F32_EDGES.iter().map(|&v| Box::new(v) as Box<dyn Serialize>));
    out.extend(AWKWARD.iter().map(|&s| Box::new(s) as Box<dyn Serialize>));
    out.push(Box::new(everything()));
    out
}

#[test]
fn corpus_encodes_to_the_golden_bytes() {
    let lake = populated();
    let mut all = Vec::new();
    for value in corpus(&lake) {
        let bytes = serde_json::to_vec(&*value).unwrap();
        all.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        all.extend_from_slice(&bytes);
    }
    assert_eq!(sha256(&all).to_hex(), CORPUS_GOLDEN);
}

/// The tree writer's compact bytes for `value`.
fn tree_bytes(value: &dyn Serialize) -> Vec<u8> {
    let mut out = Vec::new();
    serde::json::write_content(&value.to_content(), &mut out, None, 0);
    out
}

#[test]
fn streaming_encode_matches_the_tree_writer() {
    let lake = populated();
    let mut values = corpus(&lake);
    // Hash containers: one value iterates in one order for both writers.
    let hashed: HashMap<u64, Vec<String>> = (0..9)
        .map(|i| (i, AWKWARD.iter().map(|s| s.repeat(i as usize)).collect()))
        .collect();
    let set: HashSet<String> = AWKWARD.iter().map(|s| s.to_string()).collect();
    values.push(Box::new(hashed));
    values.push(Box::new(set));
    for (i, value) in values.iter().enumerate() {
        let streamed = serde_json::to_vec(&**value).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&streamed),
            String::from_utf8_lossy(&tree_bytes(&**value)),
            "corpus value {i}"
        );
        assert_eq!(
            serde_json::to_string(&**value).unwrap().as_bytes(),
            &streamed[..]
        );
    }
}

// ---------------------------------------------------------------------------
// The scripted durable history
// ---------------------------------------------------------------------------

fn dataset() -> Dataset {
    Dataset {
        id: DatasetId(0),
        name: "identity-corpus-v1".into(),
        domain: Domain::new("legal"),
        kind: DatasetKind::Corpus(vec![1, 2, 3, 4, 5, 6, 7, 8]),
        parent: None,
        derived_by: None,
    }
}

/// Every file under `dir`, path-sorted, as (relative path, bytes).
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

#[test]
fn durable_history_writes_the_golden_files() {
    let dir = tmp("history");
    let _ = std::fs::remove_dir_all(&dir);
    let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
    lake.register_dataset(dataset()).unwrap();
    let bench = mlake_benchlab::Benchmark::perplexity("identity-bench", vec![1, 2, 3, 4]);
    lake.register_benchmark(bench, Some(AWKWARD[5].into()))
        .unwrap();
    for i in 0..4u64 {
        let c = (i != 1).then(|| card(&format!("h-{i}"), i));
        lake.ingest_model(&format!("h-{i}"), &mlp(70 + i), c)
            .unwrap();
    }
    lake.persist(&dir).unwrap();
    let mut revised = lake.entry("h-1").unwrap().card;
    revised.notes = AWKWARD[3].into();
    lake.update_card("h-1", revised).unwrap();
    lake.rebuild_version_graph(None).unwrap();
    lake.ingest_model("h-late", &mlp(99), Some(card("h-late", 8)))
        .unwrap();
    lake.sync().unwrap();
    let export = tmp("history-export");
    let _ = std::fs::remove_dir_all(&export);
    lake.persist(&export).unwrap();
    drop(lake);

    let mut all = Vec::new();
    for (root, tag) in [(&dir, "lake"), (&export, "export")] {
        for (path, bytes) in files(root) {
            all.extend_from_slice(format!("{tag}/{path}").as_bytes());
            all.push(0);
            all.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            all.extend_from_slice(&bytes);
        }
    }
    let got = sha256(&all).to_hex();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&export).unwrap();
    assert_eq!(got, HISTORY_GOLDEN);
}
