//! `lineage-tasks`: the paper's versioning, citation and documentation tasks
//! on an in-memory lake — what no search or storage workload touches.
//!
//! Each cycle ingests one model (which invalidates the version graph), cites
//! a model (which rebuilds the whole graph), then reads: audit, card
//! verification, card generation, citation, lineage path.

use crate::lakes;
use crate::ops::{write_model, LakeView, TAG_LINEAGE};
use crate::report::{embedded_trace_metrics, Metrics, Outcome};
use crate::speed::Meter;
use crate::stats::{self, Samples, SplitMix};
use crate::trace::{self, span};
use crate::{probes, Run};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::{ModelId, ModelLake};
use mlake_datagen::GroundTruth;
use std::time::Instant;

/// Task reads per cycle, sized so reading takes about as long as the graph
/// rebuild that precedes it.
const READS_PER_CYCLE: usize = 4000;
/// Cycles per second of `--seconds`: what the reference box does, so the
/// default run of 11 cycles takes about its 15 s there. A fixed count, not a
/// deadline: every cycle grows the lake and so the next rebuild, and runs
/// must rebuild the same graphs to be compared.
const CYCLES_PER_SECOND: f64 = 0.75;

/// Populates the lake, builds the version graph once and measures every
/// model's evidence, so the score cache is full before timing starts.
fn build(gt: &GroundTruth, meter: &mut Meter) -> ModelLake {
    let lake = ModelLake::new(lakes::config(0));
    populate_from_ground_truth(&lake, gt, CardPolicy::Honest).expect("populate");
    for i in 0..gt.models.len() {
        meter.poll(Instant::now());
        lake.evidence_for(ModelId(i as u64)).expect("evidence");
    }
    lake
}

pub fn run(run: &Run, gt: &GroundTruth, pool: &GroundTruth, meter: &mut Meter) -> Outcome {
    let (lake, setup, _) = lakes::repeat_setup(
        meter,
        |meter| build(gt, meter),
        drop,
        |_| lakes::Parts::default(),
    );
    let view = LakeView::of(gt);
    let benchmarks = lake.benchmark_names();
    if run.traced {
        trace::begin(Instant::now());
    }

    let mut reads = Samples::default();
    let mut read_at = Vec::new();
    let mut rebuilds = Samples::default();
    let mut names: Vec<String> = view.names.clone();
    let (mut attempted, mut failed, mut ops) = (0u64, 0u64, 0usize);
    let cycles = ((run.seconds * CYCLES_PER_SECOND) as usize).max(1);
    let mut ingested_bytes = 0u64;
    let start = Instant::now();
    for cycle in 0..cycles {
        trace::set_request(ops as u64);
        let (name, model, card) = write_model(pool, cycle);
        ingested_bytes +=
            model.to_bytes().expect("model encodes").len() as u64 + lakes::card_bytes(&card);
        let ingested = span("lake.ingest", || {
            lake.ingest_model(&name, &model, Some(card))
        });
        names.push(name);
        let t = Instant::now();
        let target = SplitMix::for_op(run.seed, TAG_LINEAGE, 1, cycle).below(names.len());
        let cited = span("lake.graph_rebuild", || lake.cite(ModelId(target as u64)));
        rebuilds.push_duration(t.elapsed());
        attempted += 2;
        failed += u64::from(ingested.is_err()) + u64::from(cited.is_err());
        ops += 2;

        for _ in 0..READS_PER_CYCLE {
            trace::set_request(ops as u64);
            let mut rng = SplitMix::for_op(run.seed, TAG_LINEAGE, 0, ops);
            let id = rng.below(names.len());
            let (model, name) = (ModelId(id as u64), &names[id]);
            let roll = rng.below(100);
            let t = Instant::now();
            let ok = if roll < 30 {
                span("lake.audit", || lake.audit_model(model)).is_ok()
            } else if roll < 55 {
                span("lake.verify", || lake.verify_model_card(model)).is_ok()
            } else if roll < 80 {
                span("lake.generate_card", || lake.generate_card(model))
                    .is_ok_and(|card| &card.model_name == name)
            } else if roll < 90 {
                span("lake.cite", || lake.cite(model))
                    .is_ok_and(|c| &c.model_name == name && c.version_path.last() == Some(name))
            } else {
                span("lake.lineage", || lake.lineage_path(model))
                    .is_ok_and(|path| path.last() == Some(name))
            };
            let done = Instant::now();
            reads.push_duration(done - t);
            read_at.push(t);
            meter.poll(done);
            attempted += 1;
            failed += u64::from(!ok);
            ops += 1;
        }

        trace::set_request(ops as u64);
        let board = &benchmarks[cycle % benchmarks.len()];
        let ranked = span("lake.leaderboard", || lake.leaderboard(board));
        attempted += 1;
        failed += u64::from(ranked.is_err());
        ops += 1;
    }
    let speed = meter.speed();
    let (phase_s, wall_s) = speed.secs(start, Instant::now());
    let corrected = speed.correct(&reads, &read_at);

    // What keeping this lake costs: a full export, measured like the durable
    // workloads' directories.
    let export = run.work.join("export");
    let exported = lake.persist(&export);
    attempted += 1;
    failed += u64::from(exported.is_err());
    let space_amp = lakes::space_amp(&export, lakes::user_bytes(gt) + ingested_bytes);

    let mut m = Metrics::new();
    let ok = (attempted - failed) as f64;
    m.insert("setup_s".into(), setup.corrected_s);
    m.insert("raw.setup_s".into(), setup.raw_s);
    m.insert("throughput_ops_s".into(), ok / phase_s);
    m.insert("raw.throughput_ops_s".into(), ok / wall_s);
    m.insert(
        "read_p50_ms".into(),
        stats::sliced(&[&corrected], 0.50) / 1e6,
    );
    m.insert(
        "raw.read_p50_ms".into(),
        stats::sliced(&[&reads], 0.50) / 1e6,
    );
    m.insert("space_amp".into(), space_amp);
    m.insert("read.p99_ms".into(), stats::sliced(&[&reads], 0.99) / 1e6);
    m.insert(
        "lineage.graph_rebuild_s".into(),
        stats::whole(&[&rebuilds], 0.50) / 1e9,
    );
    m.insert(
        "check.error_rate".into(),
        failed as f64 / attempted.max(1) as f64,
    );
    let notes = vec![format!(
        "{cycles} cycles in {wall_s:.2} s: {} task reads, {} graph rebuilds",
        reads.len(),
        rebuilds.len()
    )];

    let mut spans = Vec::new();
    if run.traced {
        probes::run(&lake, gt, &view, &run.work, &mut m);
        spans = trace::end();
        embedded_trace_metrics(&mut m, &spans);
    }
    Outcome {
        attempted,
        failed,
        metrics: m,
        spans,
        notes,
    }
}
