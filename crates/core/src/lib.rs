//! # mlake-core
//!
//! The **Model Lake** — the paper's primary contribution realised as a
//! system (Figure 2): a store of heterogeneous models plus the machinery
//! that makes them findable, comparable and auditable.
//!
//! Components (paper ↔ module):
//! * content-addressed artifact **storage** with a from-scratch SHA-256 —
//!   [`hash`], [`store`];
//! * the **registry**: models, datasets, benchmarks and their metadata —
//!   [`registry`];
//! * an append-only **event log** whose sequence numbers are the logical
//!   timestamps citations pin (§6 Data and Model Citation) — [`event`];
//! * the **indexer** (§5): fingerprint computation at ingest + HNSW indexes
//!   per viewpoint — wired inside [`lake`];
//! * the unified [`lake::ModelLake`] API: ingest, search, version-graph
//!   recovery, benchmarking, document generation, verification, auditing,
//!   citation, and MLQL querying ([`lake::ModelLake::prepare`]).
//!
//! ```no_run
//! use mlake_core::lake::{LakeConfig, ModelLake};
//!
//! let lake = ModelLake::new(LakeConfig::builder().name("demo").build().unwrap());
//! // ... ingest models, then parse once and execute as often as needed:
//! let q = lake.prepare("FIND MODELS WHERE domain = 'legal' LIMIT 5").unwrap();
//! let hits = q.run().unwrap();
//! # let _ = hits;
//! ```

mod blockstore;
mod cache;
mod durable;
mod gc;
mod legacy;

pub mod error;
pub mod event;
pub mod hash;
pub mod lake;
pub mod persist;
pub mod populate;
pub mod registry;
pub mod store;

pub use error::{ErrorKind, LakeError};
pub use gc::GcReport;
pub use lake::{LakeConfig, LakeConfigBuilder, ModelLake, PreparedQuery};
pub use registry::{ModelId, ModelRef};
