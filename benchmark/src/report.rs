//! Metric names, units and directions — the one table `BENCHMARK.json`, the
//! printed lines and the result files all follow — and the result line.

use crate::stats::median;
use crate::trace::Span;
use std::collections::BTreeMap;

/// A metric's definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the lake sees, on every workload; measured with tracing
/// off. The three times are corrected for the machine's speed (`speed.rs`).
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s", "lower"),
    d("throughput_ops_s", "1/s", "higher"),
    d("read_p50_ms", "ms", "lower"),
    d("space_amp", "ratio", "lower"),
];

/// The end-to-end times as measured, what the users of one workload see and
/// no other workload has (0 there), and how the run was made. Measured in
/// untraced runs too; the first `per_layer` entries of `BENCHMARK.json`.
/// Every time from here on is as measured, uncorrected.
pub const WORKLOAD_LEVEL: &[Def] = &[
    d("raw.setup_s", "s", "lower"),
    d("raw.throughput_ops_s", "1/s", "higher"),
    d("raw.read_p50_ms", "ms", "lower"),
    d("machine.handover_us", "us", "lower"),
    d("read.p99_ms", "ms", "lower"),
    d("paced.p50_ms", "ms", "lower"),
    d("paced.p99_ms", "ms", "lower"),
    d("write.ingest_p50_ms", "ms", "lower"),
    d("write.update_card_p50_ms", "ms", "lower"),
    d("write.persist_ms", "ms", "lower"),
    d("space.write_amp", "ratio", "lower"),
    d("restart.open_ms", "ms", "lower"),
    d("restart.first_search_ms", "ms", "lower"),
    d("lineage.graph_rebuild_s", "s", "lower"),
    d("check.error_rate", "fraction", "lower"),
    d("check.lost_acked_writes", "count", "lower"),
    d("run.pinned", "flag", "higher"),
    d("run.clients", "count", "higher"),
];

/// Per-layer metrics of the traced run. A time or count of 0 means the
/// workload never called that layer.
pub const LAYERS: &[Def] = &[
    // the served path on every core, `nproc` clients (serve workloads)
    d("multicore.clients", "count", "higher"),
    d("multicore.throughput_ops_s", "1/s", "higher"),
    d("multicore.read_p50_ms", "ms", "lower"),
    // server
    d("server.overhead_us", "us", "lower"),
    d("server.rtt_p99_us", "us", "lower"),
    d("server.connect_us", "us", "lower"),
    d("server.shed", "count", "lower"),
    // proto (+ serde_json)
    d("proto.decode_req_us", "us", "lower"),
    d("proto.encode_resp_us", "us", "lower"),
    d("proto.resp_bytes", "bytes", "lower"),
    d("proto.list_models_encode_us", "us", "lower"),
    d("proto.decode_ingest_us", "us", "lower"),
    // lake (facade)
    d("lake.similar_us", "us", "lower"),
    d("lake.similar_hit_us", "us", "lower"),
    d("lake.text_search_us", "us", "lower"),
    d("lake.hybrid_search_us", "us", "lower"),
    d("lake.query_us", "us", "lower"),
    d("lake.resolve_us", "us", "lower"),
    d("lake.list_models_us", "us", "lower"),
    d("lake.ingest_us", "us", "lower"),
    d("lake.ingest_p99_us", "us", "lower"),
    d("lake.update_card_us", "us", "lower"),
    d("lake.persist_us", "us", "lower"),
    d("lake.gc_us", "us", "lower"),
    d("lake.open_us", "us", "lower"),
    d("lake.index_build_us", "us", "lower"),
    d("lake.graph_rebuild_us", "us", "lower"),
    d("lake.cite_us", "us", "lower"),
    d("lake.lineage_us", "us", "lower"),
    d("lake.audit_us", "us", "lower"),
    d("lake.verify_us", "us", "lower"),
    d("lake.generate_card_us", "us", "lower"),
    d("lake.leaderboard_us", "us", "lower"),
    d("lake.cache_miss_ratio", "ratio", "lower"),
    // store / blockstore
    d("store.fault_ratio", "ratio", "lower"),
    d("store.evictions", "count", "lower"),
    d("store.model_load_us", "us", "lower"),
    d("store.resident_bytes", "bytes", "lower"),
    // nn codec
    d("nn.to_bytes_us", "us", "lower"),
    d("nn.from_bytes_us", "us", "lower"),
    d("nn.blob_bytes_per_param", "bytes", "lower"),
    // fingerprint
    d("fingerprint.intrinsic_us", "us", "lower"),
    d("fingerprint.extrinsic_us", "us", "lower"),
    d("fingerprint.hybrid_us", "us", "lower"),
    // index
    d("index.search_us", "us", "lower"),
    d("index.insert_us", "us", "lower"),
    d("index.build_us", "us", "lower"),
    // text
    d("text.search_us", "us", "lower"),
    d("text.insert_us", "us", "lower"),
    // query
    d("query.parse_us", "us", "lower"),
    d("query.exec_us", "us", "lower"),
    // wal
    d("wal.append_us", "us", "lower"),
    d("wal.replay_us", "us", "lower"),
    d("wal.replay_records", "count", "higher"),
    // persist / gc
    d("persist.delta_bytes", "bytes", "lower"),
    d("persist.full_us", "us", "lower"),
    d("persist.seg_count", "count", "lower"),
    d("gc.files_removed", "count", "higher"),
    // fs (device, through the counting Vfs)
    d("fs.bytes_written", "bytes", "lower"),
    d("fs.writes", "count", "lower"),
    d("fs.fsyncs", "count", "lower"),
    d("fs.fsync_us", "us", "lower"),
    d("fs.write_us", "us", "lower"),
    d("fs.bytes_read", "bytes", "lower"),
    d("fs.reads", "count", "lower"),
    d("fs.read_us", "us", "lower"),
    d("fs.removes", "count", "lower"),
    d("fs.dir_ops", "count", "lower"),
    d("fs.dir_op_us", "us", "lower"),
    // versioning
    d("versioning.recover_us", "us", "lower"),
    // the benchmark itself
    d("gen.late_ms", "ms", "lower"),
    d("gen.lake_s", "s", "lower"),
    d("trace.overhead_pct", "%", "lower"),
    d("proc.peak_rss_mb", "MB", "lower"),
];

/// The `per_layer` list of `BENCHMARK.json`: what a `--trace 1` run reports.
pub fn per_layer() -> impl Iterator<Item = &'static Def> {
    WORKLOAD_LEVEL.iter().chain(LAYERS)
}

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted, and how many failed or failed their output check.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Spans of a traced run (empty otherwise).
    pub spans: Vec<Span>,
    /// Sample counts and phase lengths, printed as comments.
    pub notes: Vec<String>,
}

/// Sets `<span name>_us` to the median duration of the spans of each name,
/// unless the workload already set that metric itself.
pub fn fill_from_spans(metrics: &mut Metrics, spans: &[Span]) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.dur_ns() as f64 / 1e3);
    }
    for (name, durs) in by_name {
        metrics.entry(format!("{name}_us")).or_insert(median(&durs));
    }
}

/// The span-derived metrics of an embedded (single-thread) traced run:
/// [`fill_from_spans`], and `trace.overhead_pct` as the measured cost of an
/// empty span × spans recorded ÷ time inside top-level spans.
pub fn embedded_trace_metrics(metrics: &mut Metrics, spans: &[Span]) {
    let traced_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == crate::trace::ROOT)
        .map(Span::dur_ns)
        .sum();
    metrics.insert(
        "trace.overhead_pct".into(),
        100.0 * crate::trace::empty_span_ns() * spans.len() as f64 / traced_ns.max(1) as f64,
    );
    fill_from_spans(metrics, spans);
}

/// Formats a float with all its digits, as JSON (non-finite → 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The `metrics` object for `defs`, taking absent values as 0.
pub fn metrics_json<'a>(defs: impl IntoIterator<Item = &'a Def>, values: &Metrics) -> String {
    let fields: Vec<String> = defs
        .into_iter()
        .map(|def| {
            let v = values.get(def.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                def.name,
                num(v),
                def.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    )
}

/// Peak resident set of this process in MB (0 where /proc is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{content_get, Content};

    fn defs_of(doc: &[(String, Content)], key: &str) -> Vec<(String, String, String)> {
        let field = |m: &[(String, Content)], k: &str| match content_get(m, k) {
            Some(Content::Str(s)) => s.clone(),
            other => panic!("{key}: field {k} is {other:?}"),
        };
        content_get(doc, key)
            .and_then(Content::as_seq)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key}"))
            .iter()
            .map(|m| {
                let m = m.as_map().expect("metric object");
                (field(m, "name"), field(m, "unit"), field(m, "better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` must list exactly the metrics the program emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let doc = doc.as_map().expect("object");
        let per_layer: Vec<&Def> = per_layer().collect();
        for (key, table) in [
            ("end_to_end", END_TO_END.iter().collect()),
            ("per_layer", per_layer),
        ] {
            let table: Vec<&Def> = table;
            let want: Vec<(String, String, String)> = table
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(defs_of(doc, key), want, "{key} differs from report.rs");
        }
        let workloads: Vec<String> = content_get(doc, "workloads")
            .and_then(Content::as_seq)
            .expect("workloads")
            .iter()
            .map(|w| match content_get(w.as_map().unwrap(), "name") {
                Some(Content::Str(s)) => s.clone(),
                _ => panic!("workload without a name"),
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::new();
        m.insert("setup_s".into(), 1.25);
        m.insert("read_p50_ms".into(), f64::NAN);
        let line = result_line(true, 10, 0, &metrics_json(END_TO_END, &m));
        let doc = serde_json::parse(&line).expect("valid JSON");
        let metrics = content_get(doc.as_map().unwrap(), "metrics")
            .unwrap()
            .as_map()
            .unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert!(line.contains("\"read_p50_ms\":{\"value\":0,"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(per_layer()) {
            assert!(ok_name(def.name), "bad name {}", def.name);
            assert!(ok_unit(def.unit), "bad unit {}", def.unit);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        assert!(per_layer().count() <= 128 && END_TO_END.len() <= 16);
    }
}
