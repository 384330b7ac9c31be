//! `lakebench`: the lake's end-to-end and per-layer benchmark. See README.md
//! for what each workload is for and how the metrics are defined.
//!
//! `lakebench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints, as its last line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Without
//! `--workload` it runs the suite, one child process per workload, and writes
//! `<target>/lakebench/result.json`; `--check` repeats the suite to show the
//! numbers are steady.

mod fs;
mod lakes;
mod lineage;
mod ops;
mod pace;
mod probes;
mod report;
mod serve;
mod speed;
mod stats;
mod store;
mod suite;
mod trace;

use report::{Def, Metrics, Outcome, END_TO_END, LAYERS, WORKLOAD_LEVEL};
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "serve-search-cold",
    "serve-catalog-hot",
    "store-write-restart",
    "lineage-tasks",
];
pub const DEFAULT_SEED: u64 = 1;
/// Length of a measured phase in seconds; `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Share of the run length the unpinned leg of a traced serve run takes.
const MULTICORE_SHARE: f64 = 0.25;

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Client threads / connections: the hardware threads this process may
    /// use (one, once pinned).
    pub clients: usize,
    /// Scratch directory of this run, inside the build directory.
    pub work: PathBuf,
}

/// `<CARGO_TARGET_DIR or target>/lakebench`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("lakebench")
}

pub fn fs_metrics(m: &mut Metrics, c: &fs::FsCounts, t: &fs::FsTimes) {
    let mean_us = |ns: u64, n: u64| ns as f64 / n.max(1) as f64 / 1e3;
    for (name, value) in [
        ("fs.bytes_written", c.bytes_written as f64),
        ("fs.writes", c.writes as f64),
        ("fs.fsyncs", c.fsyncs as f64),
        ("fs.bytes_read", c.bytes_read as f64),
        ("fs.reads", c.reads as f64),
        ("fs.removes", c.removes as f64),
        ("fs.dir_ops", c.dir_ops as f64),
        ("fs.dir_op_us", mean_us(t.dir_op_ns, c.dir_ops)),
        ("fs.write_us", mean_us(t.write_ns, c.writes)),
        ("fs.fsync_us", mean_us(t.fsync_ns, c.fsyncs)),
        ("fs.read_us", mean_us(t.read_ns, c.reads)),
    ] {
        m.insert(name.into(), value);
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Leave the run on every CPU it may use, with as many clients: the
    /// multi-core leg a traced serve run starts as a child process.
    pub unpinned: bool,
    pub check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: lakebench [--workload {}] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                [--unpinned] [--check]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        unpinned: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--unpinned" => args.unpinned = true,
            "--check" => args.check = true,
            _ => usage(),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            usage();
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Confines this thread — and every thread started after the call, which
/// inherit the mask — to the first CPU it may run on. Returns whether it did.
///
/// On the 2-vCPU reference VM a wake-up that crosses cores costs ~50 µs, more
/// than a whole cached request; where the scheduler happens to put client
/// and server threads then decides the result (6 k or 11 k requests/s on
/// `serve-catalog-hot`, run to run). On one core every hand-over is a plain
/// context switch, the core never idles, and what is left is the program's
/// own CPU time (35 k requests/s ± 3 %). The program sees one hardware
/// thread, so its worker pool runs inline, as with `MLAKE_THREADS=1`.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `bytes` bytes, the size passed;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return false;
    };
    let bit = mask[word].trailing_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of `bytes` bytes, the size passed.
    unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> bool {
    false
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn print_table(workload: &str, defs: &[Def], metrics: &Metrics) {
    for def in defs {
        let value = metrics.get(def.name).copied().unwrap_or(0.0);
        println!("{workload} {} {value} {}", def.name, def.unit);
    }
}

/// The multi-core leg of a traced serve run: the same workload in a child
/// process left on every CPU, with one client per CPU, for a quarter of the
/// run length. A child, because the program sizes its worker pool once per
/// process from the CPUs it sees — and started before this process pins
/// itself, because a child inherits the mask. Too noisy to gate (see
/// README.md), so its numbers are per-layer. Returns them with the child's
/// attempted and failed counts.
fn multicore_leg(workload: &str, args: &Args) -> (Metrics, u64, u64) {
    let leg = suite::child(
        workload,
        args.seed,
        args.seconds * MULTICORE_SHARE,
        &["--trace", "0", "--unpinned"],
        false,
    );
    let get = |name: &str| leg.metrics.get(name).copied().unwrap_or(0.0);
    let metrics = [
        ("multicore.clients", "run.clients"),
        ("multicore.throughput_ops_s", "throughput_ops_s"),
        ("multicore.read_p50_ms", "read_p50_ms"),
    ]
    .map(|(name, from)| (name.to_string(), get(from)));
    let failed = get("failed") as u64;
    (
        Metrics::from(metrics),
        get("attempted") as u64,
        if leg.ok { failed } else { failed.max(1) },
    )
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: &str, args: &Args) -> bool {
    let served = workload.starts_with("serve-");
    let (mut multicore, leg_attempted, leg_failed) = if args.traced && served {
        multicore_leg(workload, args)
    } else {
        (Metrics::new(), 0, 0)
    };
    let pinned = !args.unpinned && pin_to_one_cpu();
    let out = out_dir();
    let work = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the run's scratch directory");
    let _scratch = Scratch(work.clone());
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        clients: if served {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            1
        },
        work,
    };

    // Timed results are corrected for the machine's speed, sampled on this
    // (the measuring) thread; see `speed.rs`.
    let mut meter = speed::Meter::start(pinned);

    // The lake's content is the same in every run; `--seed` drives the op
    // streams (see README.md, "Seeds").
    let t = Instant::now();
    let bases = if workload == "lineage-tasks" {
        lakes::LINEAGE_BASES
    } else {
        lakes::LAKE_BASES
    };
    let gt = lakes::generate(lakes::LAKE_SEED, bases);
    let gen_s = t.elapsed().as_secs_f64();
    // The models the write ops ingest (the serve workloads write nothing).
    let pool = || lakes::generate(lakes::LAKE_SEED + 1, lakes::WRITE_POOL_BASES);

    let Outcome {
        attempted,
        failed,
        mut metrics,
        spans,
        notes,
    } = match workload {
        "serve-search-cold" => serve::run(serve::Mix::Cold, &run, &gt, &mut meter),
        "serve-catalog-hot" => serve::run(serve::Mix::Hot, &run, &gt, &mut meter),
        "store-write-restart" => store::run(&run, &gt, &pool(), &mut meter),
        _ => lineage::run(&run, &gt, &pool(), &mut meter),
    };
    metrics.insert("machine.handover_us".into(), meter.speed().trip_us);
    drop(meter);
    metrics.insert("gen.lake_s".into(), gen_s);
    metrics.insert("proc.peak_rss_mb".into(), report::peak_rss_mb());
    metrics.insert("run.pinned".into(), f64::from(u8::from(pinned)));
    metrics.insert("run.clients".into(), run.clients as f64);
    metrics.append(&mut multicore);
    let (attempted, failed) = (attempted + leg_attempted, failed + leg_failed);

    println!(
        "# {workload}: seed {} · {} s · {} client(s) · lake of {} models · tracing {} · {}",
        run.seed,
        run.seconds,
        run.clients,
        gt.models.len(),
        if run.traced { "on" } else { "off" },
        if pinned {
            "pinned to one CPU"
        } else {
            "not pinned (expect noise)"
        }
    );
    for note in &notes {
        println!("# {note}");
    }
    // The per-workload numbers are measured in both kinds of run; the
    // per-layer ones only exist in a traced run.
    print_table(workload, END_TO_END, &metrics);
    print_table(workload, WORKLOAD_LEVEL, &metrics);
    if run.traced {
        print_table(workload, LAYERS, &metrics);
    }
    println!("{workload} attempted {attempted} count");
    println!("{workload} failed {failed} count");
    if run.traced {
        let path = out.join(format!("trace-{workload}.json"));
        trace::write_json(&path, workload, &spans).expect("write the trace file");
        println!(
            "# {} spans recorded, trace written to {}",
            spans.len(),
            path.display()
        );
    }
    let metrics = if run.traced {
        report::metrics_json(report::per_layer(), &metrics)
    } else {
        report::metrics_json(END_TO_END, &metrics)
    };
    println!(
        "{}",
        report::result_line(failed == 0, attempted.max(1), failed, &metrics)
    );
    failed == 0
}

fn main() {
    let args = parse_args();
    let ok = match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => suite::run(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
