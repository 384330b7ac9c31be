//! Running the whole suite: one child process per workload run (so no run
//! inherits another's caches, counters or heap), the result file, and the
//! steadiness check.

use crate::report::{Def, Metrics, END_TO_END};
use crate::stats::median;
use crate::{out_dir, Args, WORKLOADS};
use serde::{content_get, Content};
use std::process::{Command, Stdio};

/// What a child run reported.
pub struct Child {
    pub ok: bool,
    /// Every `workload metric value unit` line it printed.
    pub metrics: Metrics,
}

/// Runs one workload in a child process and waits for it. `echo` passes the
/// child's lines (but for its JSON line) on to this process's output.
pub fn child(workload: &str, seed: u64, seconds: f64, flags: &[&str], echo: bool) -> Child {
    let exe = std::env::current_exe().expect("path of this program");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(flags)
        .stdout(Stdio::piped())
        .output()
        .expect("run a child lakebench");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut metrics = Metrics::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [w, name, value, _unit] = fields[..] {
            if w == workload {
                if let Ok(v) = value.parse() {
                    metrics.insert(name.to_string(), v);
                }
            }
        }
        if echo && !line.starts_with('{') {
            println!("{line}");
        }
    }
    Child {
        ok: out.status.success(),
        metrics,
    }
}

fn untraced(workload: &str, seed: u64, args: &Args) -> Child {
    child(workload, seed, args.seconds, &["--trace", "0"], true)
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_metrics(m: &Metrics) -> String {
    let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// Runs every workload once untraced (and once traced when asked) and writes
/// `result.json`.
fn once(args: &Args) -> bool {
    let mut ok = true;
    let mut blocks = Vec::new();
    for workload in WORKLOADS {
        let plain = untraced(workload, args.seed, args);
        ok &= plain.ok;
        let mut block = format!(
            "\"{workload}\":{{\"untraced\":{}",
            json_metrics(&plain.metrics)
        );
        if args.traced {
            let traced = child(workload, args.seed, args.seconds, &["--trace", "1"], true);
            ok &= traced.ok;
            block.push_str(&format!(",\"traced\":{}", json_metrics(&traced.metrics)));
        }
        block.push('}');
        blocks.push(block);
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let settings = format!(
        "{{\"nproc\":{},\"commit\":\"{}\",\"rustc\":\"{}\",\"MLAKE_OBS\":\"{}\",\"MLAKE_THREADS\":\"{}\",\
         \"wal_sync\":\"Always\",\"background_compaction\":false}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        command_output("git", &["rev-parse", "HEAD"]),
        command_output("rustc", &["--version"]),
        env("MLAKE_OBS"),
        env("MLAKE_THREADS"),
    );
    let doc = format!(
        "{{\"seed\":{},\"seconds\":{},\"claim\":null,\"settings\":{settings},\"workloads\":{{\n{}\n}}}}\n",
        args.seed,
        args.seconds,
        blocks.join(",\n")
    );
    let path = out_dir().join("result.json");
    std::fs::create_dir_all(out_dir()).expect("create the output directory");
    std::fs::write(&path, doc).expect("write result.json");
    println!("# result written to {}", path.display());
    ok
}

/// Regression bound of each end-to-end metric, from `BENCHMARK.json` in the
/// current directory.
fn bounds() -> Vec<(&'static Def, f64)> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").expect("BENCHMARK.json in the current directory");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let list = content_get(doc.as_map().expect("object"), "end_to_end")
        .and_then(Content::as_seq)
        .expect("end_to_end list")
        .to_vec();
    END_TO_END
        .iter()
        .map(|def| {
            let bound = list
                .iter()
                .filter_map(Content::as_map)
                .find(|m| content_get(m, "name") == Some(&Content::Str(def.name.into())))
                .and_then(|m| match content_get(m, "bound") {
                    Some(Content::F64(b)) => Some(*b),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("BENCHMARK.json has no bound for {}", def.name));
            (def, bound)
        })
        .collect()
}

/// By what share of `a` the value `b` is worse.
fn worse_by(def: &Def, a: f64, b: f64) -> f64 {
    if def.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Repetitions per side of `--check`; single runs differ by more than the
/// bounds on the reference VM (see README.md), medians of three do not.
const CHECK_REPEATS: usize = 3;

/// Two sets of runs of the same code on one seed — interleaved, median of
/// [`CHECK_REPEATS`] each — must agree within each metric's bound; one more
/// run on another seed shows the harness is not tied to the seed. A metric
/// whose runs within one set already differ by more than the bound is
/// reported as unresolved: the sets agree, but the day is too noisy for that
/// to mean anything.
fn check(args: &Args) -> bool {
    let bounds = bounds();
    let mut ok = true;
    let mut table = Vec::new();
    for workload in WORKLOADS {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..CHECK_REPEATS {
            a.push(untraced(workload, args.seed, args));
            b.push(untraced(workload, args.seed, args));
        }
        let c = untraced(workload, args.seed + 100, args);
        ok &= c.ok && a.iter().chain(&b).all(|r| r.ok);
        for (def, bound) in &bounds {
            let get = |r: &Child| r.metrics.get(def.name).copied().unwrap_or(f64::NAN);
            let values = |runs: &[Child]| runs.iter().map(get).collect::<Vec<_>>();
            let (va, vb) = (median(&values(&a)), median(&values(&b)));
            let range = |runs: &[Child]| {
                let v = values(runs);
                let (lo, hi) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
                (hi - lo) / median(&v)
            };
            let within = range(&a).max(range(&b));
            let diff = worse_by(def, va, vb).abs();
            // NaN: a metric a child did not print.
            let verdict = if diff.is_nan() || diff > *bound {
                ok = false;
                "OUTSIDE"
            } else if within > *bound {
                "unresolved"
            } else {
                "ok"
            };
            table.push(format!(
                "| {workload} | {} | {va:.4} | {vb:.4} | {:.1} % | {:.1} % | {:.0} % | {:.4} | {verdict} |",
                def.name,
                100.0 * diff,
                100.0 * within,
                100.0 * bound,
                get(&c),
            ));
        }
    }
    println!("\n| workload | metric | set 1 (median of {CHECK_REPEATS}) | set 2 | difference | range within a set | bound | seed+100 | |");
    println!("|---|---|---|---|---|---|---|---|---|");
    println!("{}", table.join("\n"));
    ok
}

pub fn run(args: &Args) -> bool {
    if args.check {
        check(args)
    } else {
        once(args)
    }
}
