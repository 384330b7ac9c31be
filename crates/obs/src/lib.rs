//! # mlake-obs
//!
//! The lake's *physical clock*: span-based tracing, a metrics registry and
//! a bounded span recorder, threaded through every hot path of the
//! workspace. The append-only event log in `mlake-core` stays the *logical*
//! clock (what happened, in what order); this crate answers where wall-clock
//! time and work went — the per-operation telemetry a managed model lake
//! needs for provenance-grade accountability at production traffic.
//!
//! Three pieces (DESIGN.md §9):
//!
//! * [`span`] — RAII spans with a thread-local span stack and monotonic
//!   timing. Ending a span records its duration into the latency histogram
//!   of the same name and appends a [`recorder::SpanRecord`] to a bounded
//!   ring buffer (fixed memory, oldest records overwritten).
//! * [`metrics`] — a process-global registry of named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s and log-scale latency [`metrics::Histogram`]s
//!   (p50/p95/p99). Handles are `&'static` and lock-free once held. The
//!   [`counter!`]/[`gauge!`]/[`histogram!`] macros cache the handle in a
//!   per-call-site `OnceLock`, so they take the registry lock only on a
//!   call site's first use. Every span end does take it: `SpanGuard`'s
//!   `Drop` looks the span's histogram up by name (ROADMAP item 15 owns
//!   the fix).
//! * [`recorder`] — the ring buffer of recently finished spans, for
//!   after-the-fact inspection of individual operations.
//!
//! # Disabling
//!
//! `MLAKE_OBS=off` (or `0`/`false`) turns the whole layer off for the
//! process: [`enabled`] caches the answer once, spans become inert guards
//! that never read the clock, and instrumented call sites skip their
//! counter updates. The disabled path must never change results — CI
//! re-runs tier-1 under `MLAKE_OBS=off` to prove it.
//!
//! # Naming scheme
//!
//! Dotted lowercase paths, `<subsystem>.<operation>[.<detail>]`:
//! `lake.ingest`, `hnsw.search.visited.l0`, `par.steals`. Span names double
//! as histogram names, so every span automatically yields count + latency
//! percentiles in the [`MetricsSnapshot`].

pub mod metrics;
pub mod recorder;
pub mod span;

pub use metrics::{registry, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use recorder::SpanRecord;
pub use span::{span, SpanGuard};

use std::sync::OnceLock;

/// Whether observability is on for this process (decided once from the
/// `MLAKE_OBS` environment variable; anything except `off`, `0` or `false`
/// — including unset — means on).
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("MLAKE_OBS").unwrap_or_default().to_ascii_lowercase().as_str(),
            "off" | "0" | "false"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_is_stable() {
        // Whatever the environment says, the answer must not flip within a
        // process (handles are cached on first use).
        assert_eq!(enabled(), enabled());
    }
}
