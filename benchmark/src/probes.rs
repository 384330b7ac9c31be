//! Per-layer probes of the traced run: each layer's public functions called
//! from outside, on the run's own lake and data, inside a span named
//! `<layer>.<operation>`. The caller turns every span name into a
//! `<name>_us` metric (median duration), so a probe is nothing but spans.
//!
//! Layers a workload never reaches on its own (a replica index, a private
//! WAL) are measured on replicas built from the lake's data with the lake's
//! configuration.

use crate::ops::{write_model, LakeView};
use crate::report::Metrics;
use crate::trace::span;
use mlake_core::populate::honest_card;
use mlake_core::{ModelId, ModelLake};
use mlake_datagen::GroundTruth;
use mlake_fingerprint::FingerprintKind;
use mlake_index::{HnswIndex, ShardedIndex, VectorIndex};
use mlake_nn::Model;
use mlake_proto::{decode_request, encode_request, encode_response, ApiRequest, ApiResponse};
use mlake_text::{Bm25Params, Field, TextIndex};
use mlake_versioning::{recover_graph, RecoveryOptions};
use mlake_wal::{Wal, WalOptions};
use std::hint::black_box;
use std::path::Path;

/// Models sampled by the codec and fingerprint probes.
const SAMPLE: usize = 48;
/// Models graph recovery is probed on (it is quadratic: 600 take seconds).
const RECOVER_MODELS: usize = 150;
/// Records in the WAL tail the replay probe reopens.
const WAL_TAIL: usize = 200;

pub fn run(lake: &ModelLake, gt: &GroundTruth, view: &LakeView, work: &Path, m: &mut Metrics) {
    let n = gt.models.len();
    let stride = (n / SAMPLE).max(1);
    let sample: Vec<usize> = (0..n).step_by(stride).take(SAMPLE).collect();

    // store + nn codec: load a model through the lake (a fault when the blob
    // was evicted), then the codec alone on the loaded value.
    let mut blob_bytes = 0usize;
    let mut params = 0usize;
    let mut models: Vec<Model> = Vec::new();
    for &i in &sample {
        let model = span("store.model_load", || {
            lake.model(ModelId(i as u64)).expect("model")
        });
        let bytes = span("nn.to_bytes", || model.to_bytes().expect("encode"));
        span("nn.from_bytes", || {
            black_box(Model::from_bytes(&bytes).expect("decode"))
        });
        blob_bytes += bytes.len();
        params += model.num_params();
        models.push(model);
    }
    m.insert(
        "nn.blob_bytes_per_param".into(),
        blob_bytes as f64 / params.max(1) as f64,
    );

    // fingerprint: what `similar` recomputes for its anchor on every miss.
    let fp = lake.fingerprinter();
    for model in &models {
        span("fingerprint.intrinsic", || {
            black_box(fp.compute(FingerprintKind::Intrinsic, model))
        })
        .expect("intrinsic");
        span("fingerprint.extrinsic", || {
            black_box(fp.compute(FingerprintKind::Extrinsic, model))
        })
        .expect("extrinsic");
        span("fingerprint.hybrid", || {
            black_box(fp.compute(FingerprintKind::Hybrid, model))
        })
        .expect("hybrid");
    }

    // index: a replica of the lake's hybrid index — same configuration, same
    // vectors, same insertion order.
    let cfg = lake.config();
    let vectors: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            fp.compute(FingerprintKind::Hybrid, &gt.models[i].model)
                .expect("hybrid")
        })
        .collect();
    let mut index = ShardedIndex::new(cfg.shards, || HnswIndex::new(cfg.hnsw))
        .with_rescore_factor(cfg.hnsw.rescore_factor);
    span("index.build", || {
        for (i, v) in vectors.iter().enumerate() {
            span("index.insert", || index.insert(i as u64, v)).expect("insert");
        }
    });
    for v in vectors.iter().step_by(stride.max(2) / 2).take(4 * SAMPLE) {
        span("index.search", || black_box(index.search(v, 11))).expect("search");
    }

    // text: a BM25 index over the same cards.
    let mut text = TextIndex::new(Bm25Params::default());
    for i in 0..n {
        let card = honest_card(gt, i);
        let doc = vec![
            (Field::Name, gt.models[i].name.clone()),
            (Field::Tags, card.task_tags.join(" ")),
            (Field::Domains, card.domains.join(" ")),
            (Field::Notes, card.notes),
        ];
        span("text.insert", || text.insert(i as u64, &doc));
    }
    for words in view.vocab.iter().take(4 * SAMPLE) {
        span("text.search", || black_box(text.search(&words[0], 10)));
    }

    // query: parse apart from execution.
    for (i, domain) in view.domains.iter().cycle().take(SAMPLE).enumerate() {
        let mlql = format!("FIND MODELS WHERE domain = '{domain}' AND params > {i} LIMIT 20");
        let prepared = span("query.parse", || lake.prepare(&mlql)).expect("parse");
        span("query.exec", || black_box(prepared.run())).expect("run");
    }

    // proto: the two bodies the serve mixes never carry.
    let names = ApiResponse::Models {
        names: lake.model_names(),
    };
    let (name, model, card) = write_model(gt, 0);
    let ingest = encode_request(&ApiRequest::Ingest {
        name,
        model,
        card: Some(card),
    });
    for _ in 0..SAMPLE {
        span("proto.list_models_encode", || {
            black_box(encode_response(&names))
        });
        span("proto.decode_ingest", || black_box(decode_request(&ingest))).expect("decode");
    }

    // wal: appends under the lake's sync policy with a card-update-sized
    // payload, then reopening a log with a tail to replay.
    let payload = serde_json::to_vec(&honest_card(gt, n / 2)).expect("card encodes");
    let dir = work.join("probe-wal");
    let opts = WalOptions {
        sync: cfg.wal_sync,
        ..WalOptions::default()
    };
    {
        let (wal, _) = Wal::open(&dir, opts).expect("open probe wal");
        for _ in 0..WAL_TAIL {
            span("wal.append", || wal.append(&payload)).expect("append");
        }
    }
    let (_, replay) = span("wal.replay", || Wal::open(&dir, opts)).expect("reopen probe wal");
    m.insert("wal.replay_records".into(), replay.records.len() as f64);

    // versioning: graph recovery alone, without the blob loading around it.
    let subset: Vec<Model> = gt
        .models
        .iter()
        .take(RECOVER_MODELS)
        .map(|g| g.model.clone())
        .collect();
    span("versioning.recover", || {
        black_box(recover_graph(
            &subset,
            Some(&fp.probes),
            &RecoveryOptions::default(),
        ))
    });
}
