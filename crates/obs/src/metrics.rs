//! The metrics registry: named counters, gauges and log-scale latency
//! histograms, plus the [`MetricsSnapshot`] read side.
//!
//! Handles are `&'static` — registered once, updated forever with relaxed
//! atomics and no locking. The registry mutex is only held during name
//! lookup; the [`crate::counter!`]-family macros cache the returned handle
//! in a per-call-site `OnceLock`, so steady-state instrumentation costs one
//! atomic read-modify-write per update.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Runs `f`, adds its wall-clock duration in nanoseconds, and returns
    /// its result. This is the sanctioned way for other crates to time
    /// work: the clock read stays inside `mlake-obs` (the workspace's
    /// no-wallclock lint confines `Instant` to this crate).
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        self.add(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        out
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed instantaneous value (queue depths, in-flight ops).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    /// Sets the gauge, tracking the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative), tracking the high-water mark.
    #[inline]
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set/reached.
    pub fn high_water(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Values below this are binned exactly (one bucket per value).
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per power-of-two octave above the linear range; bounds the
/// relative quantile error at 1/(2·4) = 12.5%.
const SUBS: usize = 4;
/// 16 exact buckets + 4 sub-buckets for each octave 4..=63.
const BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - 4) * SUBS;

/// A log-scale histogram for latency-shaped values (nanoseconds by
/// convention). Fixed memory, lock-free recording, ~12.5% worst-case
/// relative error on reported quantiles.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (octave - 2)) & (SUBS as u64 - 1)) as usize;
        LINEAR_CUTOFF as usize + (octave - 4) * SUBS + sub
    }
}

/// Midpoint of a bucket's value range (exact below the linear cutoff).
fn bucket_mid(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let octave = 4 + (idx - LINEAR_CUTOFF as usize) / SUBS;
        let sub = ((idx - LINEAR_CUTOFF as usize) % SUBS) as u64;
        let width = 1u64 << (octave - 2);
        (1u64 << octave) + sub * width + width / 2
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`q` in `[0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_mid(idx);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Point-in-time summary.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count();
        let max_ns = self.max.load(Ordering::Relaxed);
        // Quantiles report log-bucket upper bounds, which can overshoot the
        // true maximum; clamp so p50 <= p95 <= p99 <= max always holds.
        HistogramSnapshot {
            name: name.to_string(),
            count,
            mean_ns: self.sum.load(Ordering::Relaxed).checked_div(count).unwrap_or(0),
            p50_ns: self.quantile(0.50).min(max_ns),
            p95_ns: self.quantile(0.95).min(max_ns),
            p99_ns: self.quantile(0.99).min(max_ns),
            max_ns,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("p50_ns", &self.quantile(0.5))
            .finish()
    }
}

/// Summary of one histogram at snapshot time (all values nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name (also the span name when span-fed).
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Largest recorded value.
    pub max_ns: u64,
}

/// Point-in-time view of every registered metric, names sorted.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → (current, high-water).
    pub gauges: Vec<(String, i64, i64)>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// The process-global registry.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

/// Interns a dynamic metric name. Each distinct name leaks once — callers
/// must draw names from a bounded set (layer indexes, worker slots).
fn intern(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

impl Registry {
    /// Returns (registering on first use) the counter `name`.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = self.counters.lock();
        map.entry(name).or_insert_with(|| Box::leak(Box::default()))
    }

    /// [`Registry::counter`] for a runtime-built name (interned, bounded
    /// sets only).
    pub fn counter_dyn(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock();
        if let Some(c) = map.get(name) {
            return c;
        }
        map.entry(intern(name)).or_insert_with(|| Box::leak(Box::default()))
    }

    /// Returns (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut map = self.gauges.lock();
        map.entry(name).or_insert_with(|| Box::leak(Box::default()))
    }

    /// Returns (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut map = self.histograms.lock();
        map.entry(name).or_insert_with(|| Box::leak(Box::default()))
    }

    /// Snapshot of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(n, c)| (n.to_string(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(n, g)| (n.to_string(), g.get(), g.high_water()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(n, h)| h.snapshot(n))
                .collect(),
        }
    }

    /// Zeroes every registered metric (registrations survive). For tests
    /// and for scoping an experiment's metrics table to its own run.
    pub fn reset(&self) {
        for c in self.counters.lock().values() {
            c.reset();
        }
        for g in self.gauges.lock().values() {
            g.reset();
        }
        for h in self.histograms.lock().values() {
            h.reset();
        }
        crate::recorder::clear();
    }
}

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// [`Registry::snapshot`] on the global registry.
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// Counter handle cached per call site (name must be a literal).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::registry().counter($name))
    }};
}

/// Gauge handle cached per call site (name must be a literal).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::registry().gauge($name))
    }};
}

/// Histogram handle cached per call site (name must be a literal).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_bounded() {
        let mut last = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2, v - 1] {
                let b = bucket_of(probe);
                assert!(b < BUCKETS, "value {probe} bucket {b}");
                let _ = last;
                last = b;
            }
        }
        // Monotone over a dense small range.
        let mut prev = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of({v}) = {b} < {prev}");
            prev = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_mid_within_relative_error() {
        for v in [1u64, 7, 15, 16, 100, 1_000, 123_456, 1 << 30, 1 << 50] {
            let mid = bucket_mid(bucket_of(v));
            let err = (mid as f64 - v as f64).abs() / (v as f64).max(1.0);
            assert!(err <= 0.125 + 1e-9, "value {v} mid {mid} err {err}");
        }
    }

    #[test]
    fn histogram_quantiles_roughly_correct() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in ns
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.15, "p50 {p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.15, "p99 {p99}");
        assert!(h.quantile(1.0) >= h.quantile(0.5));
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 1000);
        assert!(snap.mean_ns > 0 && snap.max_ns == 1_000_000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        let s = h.snapshot("empty");
        assert_eq!((s.count, s.mean_ns, s.p99_ns, s.max_ns), (0, 0, 0, 0));
    }

    /// A single sample lands in one log bucket whose midpoint overshoots
    /// the sample; the snapshot must clamp every quantile to the true
    /// maximum so `p50 <= p95 <= p99 <= max` holds even at count == 1.
    #[test]
    fn single_sample_snapshot_clamps_quantiles_to_max() {
        let h = Histogram::default();
        let v = 1u64 << 20; // bucket midpoint = 1.125 * 2^20 > v
        h.record(v);
        assert!(
            h.quantile(0.99) > v,
            "raw bucket quantile should overshoot the sample"
        );
        let s = h.snapshot("one");
        assert_eq!(s.max_ns, v);
        assert_eq!((s.p50_ns, s.p95_ns, s.p99_ns), (v, v, v));
        assert_eq!(s.mean_ns, v);
    }

    #[test]
    fn counter_time_adds_elapsed_and_returns_result() {
        let c = Counter::default();
        let out = c.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7u32
        });
        assert_eq!(out, 7);
        assert!(c.get() >= 2_000_000, "timed at least the 2ms sleep");
    }

    #[test]
    fn registry_round_trip_and_reset() {
        let r = registry();
        let c = r.counter("test.metrics.counter");
        c.inc();
        c.add(4);
        assert!(c.get() >= 5);
        let g = r.gauge("test.metrics.gauge");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        assert!(g.high_water() >= 7);
        let h = r.histogram("test.metrics.hist");
        h.record(42);
        let snap = r.snapshot();
        assert!(snap.counter("test.metrics.counter") >= 5);
        assert!(snap.histogram("test.metrics.hist").is_some());
        assert_eq!(snap.counter("test.metrics.absent"), 0);
        // Same name returns the same handle.
        assert!(std::ptr::eq(c, r.counter("test.metrics.counter")));
        assert!(std::ptr::eq(c, r.counter_dyn("test.metrics.counter")));
        // Snapshot names are sorted.
        let names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn macros_cache_handles() {
        let a = crate::counter!("test.metrics.macro");
        a.inc();
        let b = crate::counter!("test.metrics.macro");
        assert!(std::ptr::eq(a, b));
        crate::gauge!("test.metrics.macro.gauge").set(1);
        crate::histogram!("test.metrics.macro.hist").record(1);
    }
}
