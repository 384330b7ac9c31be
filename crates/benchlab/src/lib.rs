//! # mlake-benchlab
//!
//! Model benchmarking (§3 Benchmarking): scoring functions `S(M, B) ∈ R`,
//! leaderboards across a lake, calibration and distribution metrics, fairness
//! summaries for nutritional labels, and **lifelong benchmarks** (§5) with
//! cached incremental evaluation.
//!
//! * [`metrics`] — accuracy, confusion matrices, macro F1, expected
//!   calibration error, Fréchet distance (the FID construction on Gaussian
//!   fits of feature sets);
//! * [`benchmark`] — the `Benchmark` artifact: named, versionable, typed by
//!   task (classification / perplexity / distribution). Whether it applies
//!   to a model is a function of the architecture alone
//!   ([`Benchmark::applicable_to`]), so a lake decides it from its catalogue
//!   and decodes weights only to compute a score it has not cached;
//! * [`leaderboard`] — ranked evaluation of many models
//!   ([`Leaderboard::run`] scores them, [`Leaderboard::ranked`] ranks rows
//!   scored elsewhere), and the "outperforms X on Y" relation the
//!   declarative query layer exposes;
//! * [`lifelong`] — growing benchmarks that only evaluate deltas, plus
//!   subsampled estimates with confidence intervals;
//! * [`fairness`] — demographic-parity and per-group accuracy summaries for
//!   nutritional-label style card sections.

pub mod benchmark;
pub mod fairness;
pub mod leaderboard;
pub mod lifelong;
pub mod metrics;

pub use benchmark::{Benchmark, BenchmarkKind, Score};
pub use leaderboard::{Leaderboard, LeaderboardRow};
pub use lifelong::LifelongBenchmark;
