//! `store-write-restart`: the lake used as an embedded store — writes beside
//! reads, periodic persist and gc, restarts, and a crash at the end.
//!
//! One thread, library calls, no timers, and an op count fixed by the run
//! length: for a given seed the bytes and fsyncs that reach the filesystem
//! repeat exactly, and every run has the same persists, gcs and restarts.

use crate::fs::{self, CountingFs};
use crate::lakes::{self, Durable};
use crate::ops::{edited_card, write_model, LakeView, TAG_STORE};
use crate::report::{embedded_trace_metrics, Metrics, Outcome};
use crate::speed::Meter;
use crate::stats::{self, median, Samples, SplitMix};
use crate::trace::{self, span};
use crate::{probes, Run};
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_datagen::GroundTruth;
use mlake_fingerprint::FingerprintKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One cycle: every read follows a write, so the generation-keyed result
/// caches never hit.
const CYCLE: [Step; 10] = [
    Step::Ingest,
    Step::Read,
    Step::Update,
    Step::Read,
    Step::Ingest,
    Step::Read,
    Step::Update,
    Step::Read,
    Step::Update,
    Step::Read,
];
/// Ops per second of `--seconds`: what the reference box does, restarts
/// included, so the default run of 7500 ops takes about its 15 s there.
const OPS_PER_SECOND: f64 = 500.0;
const PERSIST_EVERY: usize = 250;
const GC_EVERY: usize = 1000;
/// A restart every 1500 ops (5 in the default run), 130 ops after a persist,
/// so each reopen also replays a WAL tail.
const RESTART_EVERY: usize = 1500;
const RESTART_AT: usize = 1380;
/// What the gated throughput charges for a call that waits for the device, in
/// µs: the reference box's disk on a calm day. The VM's disk is shared and
/// goes through phases, minutes long, in which an fsync takes 3–5 ms instead
/// of 0.65 — runs of the same code then differ by 2–3× — so the time measured
/// inside those calls (30 % of the phase on a calm day) is replaced by the
/// exact number of calls at these prices. A change that syncs less often
/// still gains its full share; the disk's mood no longer shows. The measured
/// times are `fs.fsync_us`, `fs.dir_op_us` and `raw.throughput_ops_s`.
const DEVICE_FSYNC_US: f64 = 650.0;
const DEVICE_DIR_OP_US: f64 = 550.0;
/// Acknowledged, never persisted writes made just before the crash.
const CRASH_TAIL: usize = 20;

#[derive(Clone, Copy)]
enum Step {
    Ingest,
    Update,
    Read,
}

struct State<'a> {
    gt: &'a GroundTruth,
    pool: &'a GroundTruth,
    view: LakeView,
    cfg: LakeConfig,
    dir: PathBuf,
    fs: CountingFs,
    lake: Option<ModelLake>,
    seed: u64,
    ops: usize,
    /// Acknowledged ingests: (name, id).
    ingested: Vec<(String, u64)>,
    /// Acknowledged card updates: model → stamp of the latest.
    updated: BTreeMap<u64, usize>,
    /// Bytes the caller handed over: artifacts and card JSON.
    user_bytes: u64,
    /// Artifact + current card bytes of models ingested by the workload.
    live_ingested_bytes: u64,
    attempted: u64,
    failed: u64,
    reads: Samples,
    /// When each read started.
    read_at: Vec<Instant>,
    ingests: Samples,
    updates: Samples,
    persists: Samples,
    persist_bytes: Vec<f64>,
    opens: Samples,
    first_searches: Samples,
    gc_removed: usize,
}

type Hits = Vec<(ModelId, f32)>;

impl State<'_> {
    fn lake(&self) -> &ModelLake {
        self.lake.as_ref().expect("lake is open between restarts")
    }

    fn ingest(&mut self) {
        let (name, model, card) = write_model(self.pool, self.ingested.len());
        let bytes =
            model.to_bytes().expect("model encodes").len() as u64 + lakes::card_bytes(&card);
        let t = Instant::now();
        let result = span("lake.ingest", || {
            self.lake().ingest_model(&name, &model, Some(card))
        });
        self.ingests.push_duration(t.elapsed());
        self.attempted += 1;
        match result {
            Ok(id) => {
                self.ingested.push((name, id.0));
                self.user_bytes += bytes;
                self.live_ingested_bytes += bytes;
            }
            Err(_) => self.failed += 1,
        }
    }

    fn update(&mut self, rng: &mut SplitMix) {
        let i = rng.below(self.gt.models.len());
        let card = edited_card(self.gt, i, self.ops);
        let bytes = lakes::card_bytes(&card);
        let t = Instant::now();
        let result = span("lake.update_card", || {
            self.lake().update_card(ModelId(i as u64), card)
        });
        self.updates.push_duration(t.elapsed());
        self.attempted += 1;
        match result {
            Ok(()) => {
                self.updated.insert(i as u64, self.ops);
                self.user_bytes += bytes;
            }
            Err(_) => self.failed += 1,
        }
    }

    fn read(&mut self, rng: &mut SplitMix) {
        let roll = rng.below(100);
        let kind = FingerprintKind::ALL[self.ops % 3];
        let newest = self.ingested.last().map_or(0, |(_, id)| *id);
        let fam = self.view.family[rng.below(self.view.family.len())];
        let word = &self.view.vocab[fam][rng.below(self.view.vocab[fam].len())];
        let lake = self.lake.as_ref().expect("lake is open between restarts");
        let t = Instant::now();
        let ok = if roll < 40 {
            span("lake.similar", || lake.similar(ModelId(newest), kind, 10))
                .is_ok_and(|hits| !hits.is_empty())
        } else if roll < 70 {
            span("lake.text_search", || lake.text_search(word, 10)).is_ok_and(|h| !h.is_empty())
        } else if roll < 90 {
            span("lake.hybrid_search", || {
                lake.hybrid_search(word, ModelId(newest), kind, 10)
            })
            .is_ok_and(|h| !h.is_empty())
        } else {
            self.ingested
                .get(rng.below(self.ingested.len().max(1)))
                .is_some_and(|(name, id)| {
                    span("lake.resolve", || lake.resolve(name.as_str()))
                        .is_ok_and(|got| got.0 == *id)
                })
        };
        self.reads.push_duration(t.elapsed());
        self.read_at.push(t);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn persist(&mut self) {
        let before = self.fs.counts().bytes_written;
        let t = Instant::now();
        let result = span("lake.persist", || self.lake().persist(&self.dir));
        self.persists.push_duration(t.elapsed());
        self.persist_bytes
            .push((self.fs.counts().bytes_written - before) as f64);
        self.attempted += 1;
        self.failed += u64::from(result.is_err());
    }

    fn gc(&mut self) {
        let result = span("lake.gc", || self.lake().gc());
        self.attempted += 1;
        match result {
            Ok(report) => self.gc_removed += report.files_removed(),
            Err(_) => self.failed += 1,
        }
    }

    /// A fixed set of searches whose answers must survive a restart.
    fn probe(&self) -> Vec<Hits> {
        let lake = self.lake();
        let mut out = Vec::new();
        for i in 0..4 {
            let anchor = ModelId((i * 37 % self.gt.models.len()) as u64);
            out.push(
                lake.similar(anchor, FingerprintKind::ALL[i % 3], 8)
                    .unwrap_or_default(),
            );
            out.push(
                lake.text_search(&self.view.vocab[i % self.view.vocab.len()][0], 8)
                    .unwrap_or_default(),
            );
        }
        out
    }

    fn restart(&mut self) {
        let before = self.probe();
        drop(self.lake.take());
        let t = Instant::now();
        let opened = span("lake.open", || {
            ModelLake::open_with(&self.dir, self.cfg.clone(), self.fs.as_vfs())
        });
        self.opens.push_duration(t.elapsed());
        self.attempted += 1;
        let lake = opened.expect("reopen the lake the workload just closed");
        let t = Instant::now();
        let first = span("lake.index_build", || {
            lake.similar(ModelId(0), FingerprintKind::Hybrid, 5)
        });
        self.first_searches.push_duration(t.elapsed());
        self.lake = Some(lake);
        let same = first.is_ok() && self.probe().iter().map(bits).eq(before.iter().map(bits));
        self.failed += u64::from(!same);
    }

    /// Runs whole cycles until at least `ops` ops are done, sampling the
    /// machine's speed between ops.
    fn run_cycles(&mut self, ops: usize, meter: &mut Meter) {
        while self.ops < ops {
            for step in CYCLE {
                trace::set_request(self.ops as u64);
                let mut rng = SplitMix::for_op(self.seed, TAG_STORE, 0, self.ops);
                match step {
                    Step::Ingest => self.ingest(),
                    Step::Update => self.update(&mut rng),
                    Step::Read => self.read(&mut rng),
                }
                self.ops += 1;
                if self.ops.is_multiple_of(PERSIST_EVERY) {
                    self.persist();
                }
                if self.ops.is_multiple_of(GC_EVERY) {
                    self.gc();
                }
                if self.ops % RESTART_EVERY == RESTART_AT {
                    self.restart();
                }
                meter.poll(Instant::now());
            }
        }
    }

    /// The crash check: a few more acknowledged writes, then the process
    /// "dies" (the lake is leaked, not dropped, so nothing gets flushed on
    /// the way out), the filesystem loses every byte not yet fsynced, and a
    /// fresh open must still show every write that was ever acknowledged.
    fn crash_and_count_lost(&mut self) -> u64 {
        for i in 0..CRASH_TAIL {
            trace::set_request((self.ops + i) as u64);
            if i % 2 == 0 {
                self.ingest();
            } else {
                let mut rng = SplitMix::for_op(self.seed, TAG_STORE, 1, i);
                self.update(&mut rng);
            }
        }
        std::mem::forget(self.lake.take());
        self.fs.crash().expect("truncate to synced lengths");
        let Ok(lake) = ModelLake::open(&self.dir, self.cfg.clone()) else {
            return (self.ingested.len() + self.updated.len()) as u64;
        };
        let mut lost = 0;
        for (name, id) in &self.ingested {
            let found = lake.resolve(name.as_str()).is_ok_and(|got| got.0 == *id)
                && lake.model(ModelId(*id)).is_ok();
            lost += u64::from(!found);
        }
        for (id, stamp) in &self.updated {
            let found = lake
                .entry(ModelId(*id))
                .is_ok_and(|e| e.card.notes.ends_with(&format!(" rev{stamp}")));
            lost += u64::from(!found);
        }
        lost
    }
}

fn bits(hits: &Hits) -> Vec<(u64, u32)> {
    hits.iter()
        .map(|(id, score)| (id.0, score.to_bits()))
        .collect()
}

/// What the op loop leaves behind.
struct LoopResult {
    ops: usize,
    counts: fs::FsCounts,
    write_amp: f64,
    space_amp: f64,
    lost: u64,
    failed: u64,
}

struct Finished<'a> {
    state: State<'a>,
    /// When the measured phase started and ended.
    phase: (Instant, Instant),
    /// Filesystem calls made, and the time inside them, during the phase.
    phase_fs: (fs::FsCounts, fs::FsTimes),
    times: fs::FsTimes,
    result: LoopResult,
}

fn run_loop<'a>(
    durable: Durable,
    cfg: LakeConfig,
    gt: &'a GroundTruth,
    pool: &'a GroundTruth,
    seed: u64,
    ops: usize,
    meter: &mut Meter,
) -> Finished<'a> {
    let mut state = State {
        gt,
        pool,
        view: LakeView::of(gt),
        cfg,
        dir: durable.dir,
        fs: durable.fs,
        lake: Some(durable.lake),
        seed,
        ops: 0,
        ingested: Vec::new(),
        updated: BTreeMap::new(),
        user_bytes: 0,
        live_ingested_bytes: 0,
        attempted: 0,
        failed: 0,
        reads: Samples::default(),
        read_at: Vec::new(),
        ingests: Samples::default(),
        updates: Samples::default(),
        persists: Samples::default(),
        persist_bytes: Vec::new(),
        opens: Samples::default(),
        first_searches: Samples::default(),
        gc_removed: 0,
    };
    let start = Instant::now();
    state.run_cycles(ops, meter);
    let phase = (start, Instant::now());
    let phase_fs = (state.fs.counts(), state.fs.times());
    let ops = state.ops;

    // Space after everything is folded and collected.
    state.persist();
    state.gc();
    let counts = state.fs.counts();
    let times = state.fs.times();
    let write_amp = counts.bytes_written as f64 / state.user_bytes.max(1) as f64;
    let space_amp = lakes::space_amp(
        &state.dir,
        lakes::user_bytes(gt) + state.live_ingested_bytes,
    );

    let lost = state.crash_and_count_lost();
    state.failed += lost;
    let failed = state.failed;
    Finished {
        state,
        phase,
        phase_fs,
        times,
        result: LoopResult {
            ops,
            counts,
            write_amp,
            space_amp,
            lost,
            failed,
        },
    }
}

/// The op loop on a fresh lake.
#[cfg(test)]
fn run_ops(
    gt: &GroundTruth,
    pool: &GroundTruth,
    seed: u64,
    dir: &std::path::Path,
    ops: usize,
) -> LoopResult {
    let cfg = lakes::config(0);
    let meter = &mut Meter::start(false);
    let durable = lakes::build_durable(gt, &cfg, dir, false, meter);
    run_loop(durable, cfg, gt, pool, seed, ops, meter).result
}

pub fn run(run: &Run, gt: &GroundTruth, pool: &GroundTruth, meter: &mut Meter) -> Outcome {
    let cfg = lakes::config(0);
    let dir = run.work.join("lake");
    let (durable, setup, parts) = lakes::repeat_setup(
        meter,
        |meter| lakes::build_durable(gt, &cfg, &dir, run.traced, meter),
        drop,
        |d| d.parts,
    );
    let epoch = Instant::now();
    if run.traced {
        trace::begin(epoch);
    }
    let before = mlake_obs::snapshot();
    let ops = ((run.seconds * OPS_PER_SECOND) as usize).max(CYCLE.len());
    let Finished {
        state,
        phase,
        phase_fs,
        times,
        result,
    } = run_loop(durable, cfg.clone(), gt, pool, run.seed, ops, meter);
    let after = mlake_obs::snapshot();
    let speed = meter.speed();
    let (corrected_s, wall_s) = speed.secs(phase.0, phase.1);
    let reads = speed.correct(&state.reads, &state.read_at);
    // The phase at the reference speed, on the reference device: the time
    // outside device calls is corrected like any other, the device calls
    // are charged their count × a fixed price (see `DEVICE_*`).
    let (phase_counts, phase_times) = phase_fs;
    let device_share = (phase_times.device_s() / wall_s).min(1.0);
    let phase_s = corrected_s * (1.0 - device_share)
        + (phase_counts.fsyncs as f64 * DEVICE_FSYNC_US
            + phase_counts.dir_ops as f64 * DEVICE_DIR_OP_US)
            / 1e6;

    let mut m = Metrics::new();
    m.insert("setup_s".into(), setup.corrected_s);
    m.insert("raw.setup_s".into(), setup.raw_s);
    m.insert("throughput_ops_s".into(), result.ops as f64 / phase_s);
    m.insert("raw.throughput_ops_s".into(), result.ops as f64 / wall_s);
    m.insert("read_p50_ms".into(), stats::sliced(&[&reads], 0.50) / 1e6);
    m.insert(
        "raw.read_p50_ms".into(),
        stats::sliced(&[&state.reads], 0.50) / 1e6,
    );
    m.insert("space_amp".into(), result.space_amp);
    m.insert(
        "read.p99_ms".into(),
        stats::sliced(&[&state.reads], 0.99) / 1e6,
    );
    m.insert(
        "write.ingest_p50_ms".into(),
        stats::sliced(&[&state.ingests], 0.50) / 1e6,
    );
    m.insert(
        "write.update_card_p50_ms".into(),
        stats::sliced(&[&state.updates], 0.50) / 1e6,
    );
    m.insert(
        "write.persist_ms".into(),
        stats::whole(&[&state.persists], 0.50) / 1e6,
    );
    m.insert(
        "restart.open_ms".into(),
        stats::whole(&[&state.opens], 0.50) / 1e6,
    );
    m.insert(
        "restart.first_search_ms".into(),
        stats::whole(&[&state.first_searches], 0.50) / 1e6,
    );
    m.insert("space.write_amp".into(), result.write_amp);
    m.insert("check.lost_acked_writes".into(), result.lost as f64);
    m.insert(
        "check.error_rate".into(),
        result.failed as f64 / state.attempted.max(1) as f64,
    );
    m.insert("persist.delta_bytes".into(), median(&state.persist_bytes));
    m.insert(
        "persist.seg_count".into(),
        fs::file_count(&state.dir.join("segs")) as f64,
    );
    m.insert("gc.files_removed".into(), state.gc_removed as f64);
    m.insert("lake.open_us".into(), parts.open_s * 1e6);
    m.insert("lake.index_build_us".into(), parts.index_build_s * 1e6);
    m.insert("persist.full_us".into(), parts.persist_full_s * 1e6);
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    m.insert(
        "lake.cache_miss_ratio".into(),
        delta("cache.miss") / (delta("cache.hit") + delta("cache.miss")).max(1.0),
    );
    m.insert(
        "store.fault_ratio".into(),
        delta("store.fault") / state.attempted.max(1) as f64,
    );
    m.insert("store.evictions".into(), delta("store.evict"));
    crate::fs_metrics(&mut m, &result.counts, &times);
    let notes = vec![
        format!(
            "device calls in the phase: {} fsyncs, mean {:.0} us, and {} directory operations, mean {:.0} us, \
             took {:.2} s of {wall_s:.2} s; charged {DEVICE_FSYNC_US} and {DEVICE_DIR_OP_US} us",
            phase_counts.fsyncs,
            phase_times.fsync_ns as f64 / 1e3 / phase_counts.fsyncs.max(1) as f64,
            phase_counts.dir_ops,
            phase_times.dir_op_ns as f64 / 1e3 / phase_counts.dir_ops.max(1) as f64,
            phase_times.device_s(),
        ),
        format!(
            "{} ops in {wall_s:.2} s: {} reads, {} ingests, {} card updates, {} persists, {} restarts",
            result.ops,
            state.reads.len(),
            state.ingests.len(),
            state.updates.len(),
            state.persists.len(),
            state.opens.len()
        ),
    ];

    let mut spans = Vec::new();
    if run.traced {
        // The crashed lake was leaked; probe a fresh open of what survived.
        let lake = ModelLake::open(&state.dir, cfg).expect("open after the crash check");
        m.insert("store.resident_bytes".into(), lake.resident_bytes() as f64);
        probes::run(&lake, gt, &state.view, &run.work, &mut m);
        spans = trace::end();
        let ingest = Samples(
            trace::durations(&spans, "lake.ingest")
                .iter()
                .map(|d| *d as u64)
                .collect(),
        );
        m.insert(
            "lake.ingest_p99_us".into(),
            stats::sliced(&[&ingest], 0.99) / 1e3,
        );
        embedded_trace_metrics(&mut m, &spans);
    }
    Outcome {
        attempted: state.attempted,
        failed: result.failed,
        metrics: m,
        spans,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_datagen::{generate_lake, LakeSpec};

    /// One client, no timers: a seed fixes every byte that reaches the disk.
    #[test]
    fn same_seed_gives_identical_filesystem_counts() {
        let gt = generate_lake(&LakeSpec::tiny(5));
        let pool = generate_lake(&LakeSpec::tiny(6));
        let run = |tag: &str, seed: u64| {
            let dir =
                std::env::temp_dir().join(format!("lakebench-store-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let result = run_ops(&gt, &pool, seed, &dir, 300);
            std::fs::remove_dir_all(&dir).unwrap();
            result
        };
        let (a, b, other) = (run("a", 3), run("b", 3), run("c", 4));
        assert_eq!(a.ops, 300);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.write_amp, b.write_amp);
        assert_eq!(a.space_amp, b.space_amp);
        assert_ne!(a.counts, other.counts, "the seed must change the op stream");
        assert!(a.counts.fsyncs > 0 && a.counts.bytes_written > 0);
        assert!(a.write_amp > 1.0 && a.space_amp > 1.0);
        for r in [&a, &b, &other] {
            assert_eq!((r.lost, r.failed), (0, 0));
        }
    }
}
