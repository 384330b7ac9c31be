//! Inputs and set-up: the generated lakes, and the steps that turn one into
//! a running system (populate → full persist → open → first search → bind).

use crate::fs::CountingFs;
use crate::speed::Meter;
use crate::stats::median;
use mlake_core::populate::{honest_card, populate_from_ground_truth, CardPolicy};
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use mlake_fingerprint::FingerprintKind;
use mlake_server::{LakeRouter, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the generated lakes. Fixed: lakes of different seeds differ in
/// model sizes enough to move throughput by half, which would drown any
/// regression bound; `--seed` varies the requests, not the lake.
pub const LAKE_SEED: u64 = 2025;

/// Base models of the lake the serve and store workloads run on (× 6 models
/// per family = 600). Under 144 so every family's vocabulary code is unique.
pub const LAKE_BASES: usize = 100;
/// Base models of the `lineage-tasks` lake (240 models): graph recovery is
/// quadratic in the lake size, see README.md.
pub const LINEAGE_BASES: usize = 40;
/// Base models of the pool the write workloads ingest from (300 models).
pub const WRITE_POOL_BASES: usize = 50;
const DERIVATIONS: usize = 5;

/// How often a run repeats its set-up; `setup_s` is the median. The
/// benchmark's contract asks for the repeats: one set-up is a second of a
/// machine whose speed flickers.
pub const SETUP_REPEATS: usize = 3;

/// Name the served lake is routed under.
pub const LAKE_NAME: &str = "main";

pub fn generate(seed: u64, bases: usize) -> GroundTruth {
    let spec = LakeSpec::builder()
        .seed(seed)
        .num_base_models(bases)
        .derivations_per_base(DERIVATIONS)
        .build()
        .expect("the benchmark's lake shapes are valid");
    generate_lake(&spec)
}

/// Artifact bytes of a generated lake (what `resident_bytes` is a share of).
pub fn artifact_bytes(gt: &GroundTruth) -> u64 {
    gt.models
        .iter()
        .map(|m| m.model.to_bytes().expect("generated models encode").len() as u64)
        .sum()
}

pub fn card_bytes(card: &mlake_cards::ModelCard) -> u64 {
    serde_json::to_vec(card).expect("card encodes").len() as u64
}

/// Bytes a user handed over to have `gt` in a lake: artifacts and card JSON.
pub fn user_bytes(gt: &GroundTruth) -> u64 {
    artifact_bytes(gt)
        + (0..gt.models.len())
            .map(|i| card_bytes(&honest_card(gt, i)))
            .sum::<u64>()
}

/// `space_amp`: bytes under the lake's directory per live user byte.
pub fn space_amp(dir: &Path, live_user_bytes: u64) -> f64 {
    let on_disk = crate::fs::dir_bytes(dir).expect("measure the lake directory");
    on_disk as f64 / live_user_bytes as f64
}

/// The program's default configuration, except for the resident-set cap.
pub fn config(resident_bytes: u64) -> LakeConfig {
    LakeConfig::builder()
        .name(LAKE_NAME)
        .resident_bytes(resident_bytes)
        .build()
        .expect("default configuration is valid")
}

/// Seconds each set-up step took, as measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parts {
    pub persist_full_s: f64,
    pub open_s: f64,
    pub index_build_s: f64,
    /// When the full persist started and ended (`None`: set-up has none).
    pub persist_at: Option<(Instant, Instant)>,
}

/// A durable lake, opened through the counting filesystem and warmed.
pub struct Durable {
    pub lake: ModelLake,
    pub dir: PathBuf,
    pub fs: CountingFs,
    pub parts: Parts,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Samples the machine's speed three times: set-up has few places to sample
/// at, so each place counts for more than one 1.5 ms sample.
fn sample_thrice(meter: &mut Meter) {
    for _ in 0..3 {
        meter.sample();
    }
}

/// Populates an in-memory lake from `gt`, persists it in full to `dir`
/// unless an earlier call already did (the export is the same bytes every
/// time, and no part of `setup_s`), opens `dir` durable and runs the first
/// search (which builds the deferred vector indexes). The machine's speed is
/// sampled between the steps.
pub fn build_durable(
    gt: &GroundTruth,
    cfg: &LakeConfig,
    dir: &Path,
    traced: bool,
    meter: &mut Meter,
) -> Durable {
    let staging = ModelLake::new(cfg.clone());
    populate_from_ground_truth(&staging, gt, CardPolicy::Honest).expect("populate");
    sample_thrice(meter);
    let mut persist_at = None;
    if !dir.join("manifest.json").exists() {
        let t = Instant::now();
        staging.persist(dir).expect("full persist");
        persist_at = Some((t, Instant::now()));
        sample_thrice(meter);
    }
    drop(staging);
    let fs = CountingFs::new(traced);
    let t = Instant::now();
    let lake = ModelLake::open_with(dir, cfg.clone(), fs.as_vfs()).expect("open");
    let open_s = secs(t);
    sample_thrice(meter);
    let t = Instant::now();
    lake.similar(ModelId(0), FingerprintKind::Hybrid, 5)
        .expect("first search");
    let index_build_s = secs(t);
    fs.reset();
    Durable {
        lake,
        dir: dir.to_path_buf(),
        fs,
        parts: Parts {
            persist_full_s: persist_at.map_or(0.0, |(a, b)| (b - a).as_secs_f64()),
            open_s,
            index_build_s,
            persist_at,
        },
    }
}

/// A durable lake behind the HTTP server, bound in-process on a free port.
pub struct Served {
    pub server: Server,
    pub lake: Arc<ModelLake>,
    pub dir: PathBuf,
    pub fs: CountingFs,
    pub parts: Parts,
}

pub fn serve(d: Durable) -> Served {
    let router = Arc::new(LakeRouter::new());
    let lake = router.register(LAKE_NAME, d.lake);
    let server =
        Server::bind(router, "127.0.0.1:0", ServerConfig::default()).expect("bind 127.0.0.1:0");
    Served {
        server,
        lake,
        dir: d.dir,
        fs: d.fs,
        parts: d.parts,
    }
}

impl Served {
    /// Stops the server (joins its threads) and closes the lake; the
    /// directory stays, for the next set-up repeat to open.
    pub fn stop(self) {
        self.server.shutdown().expect("server shutdown");
        drop(self.lake);
    }
}

/// Median set-up time of a run in seconds: at the reference speed (see
/// `speed.rs`), and as measured.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub corrected_s: f64,
    pub raw_s: f64,
}

/// Runs `build` [`SETUP_REPEATS`] times, tearing each result but the last
/// down again, and returns the last one with the median build time and the
/// median of each repeat's `parts`. The machine's speed is sampled before
/// and after each build (and by `build` between its steps).
///
/// The build time leaves the full persist out: it is ≥ 1200 fsyncs, the
/// shared disk takes 0.8 s for them on a calm day and 8 s on another, and it
/// goes to the real filesystem directly, where its device time cannot be
/// told apart. It is reported by itself as `persist.full_us`.
pub fn repeat_setup<T>(
    meter: &mut Meter,
    mut build: impl FnMut(&mut Meter) -> T,
    mut teardown: impl FnMut(T),
    parts: impl Fn(&T) -> Parts,
) -> (T, SetupTime, Parts) {
    let mut spans = Vec::new();
    let mut all_parts: Vec<Parts> = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        sample_thrice(meter);
        let t = Instant::now();
        let built = build(meter);
        spans.push((t, Instant::now()));
        sample_thrice(meter);
        all_parts.push(parts(&built));
        last = Some(built);
    }
    let speed = meter.speed();
    let (corrected, raw): (Vec<f64>, Vec<f64>) = spans
        .iter()
        .zip(&all_parts)
        .map(|((from, to), parts)| {
            let (corrected, raw) = speed.secs(*from, *to);
            let persist = parts
                .persist_at
                .map_or((0.0, 0.0), |(a, b)| speed.secs(a, b));
            (corrected - persist.0, raw - persist.1)
        })
        .unzip();
    let time = SetupTime {
        corrected_s: median(&corrected),
        raw_s: median(&raw),
    };
    let med = |f: fn(&Parts) -> f64| median(&all_parts.iter().map(f).collect::<Vec<_>>());
    let parts = Parts {
        // Only the first repeat exports.
        persist_full_s: all_parts[0].persist_full_s,
        open_s: med(|p| p.open_s),
        index_build_s: med(|p| p.index_build_s),
        persist_at: None,
    };
    (last.expect("SETUP_REPEATS > 0"), time, parts)
}

/// Copies a lake directory, so a second lake can be opened on the same state.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
