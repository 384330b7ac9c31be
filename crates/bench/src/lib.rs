//! # mlake-bench
//!
//! The experiment harness. Every experiment in DESIGN.md §6 / EXPERIMENTS.md
//! is a function here returning [`table::Table`]s; the `experiments` binary
//! prints them. Each experiment's unit test runs its shrunken `--quick`
//! configuration and compares the tables, minus their timing cells, with
//! `tests/fixtures/experiments-quick.txt`. Latency-shaped measurements are
//! timing columns of these tables (E1c, E5a, E5b, E5d, E10) or lakebench's
//! per-layer metrics (`benchmark/`).

pub mod exp;
pub mod table;

pub use table::Table;
