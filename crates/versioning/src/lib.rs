//! # mlake-versioning
//!
//! Version-graph recovery: "given a model M_t and a set of N models,
//! construct a directed Model Graph T, where a directed edge between models
//! indicates that one model is a version of the other. The edges can
//! describe the transformation." (§3 Model Versioning)
//!
//! The pipeline (cf. Horwitz et al. "On the Origin of Llamas", Mu et al.
//! "Model DNA"):
//! 1. [`delta`] — forensic analysis of weight deltas between architecture-
//!    compatible models: which layers changed, delta rank, sparsity and
//!    quantisation signatures → a predicted [`TransformKind`] per edge;
//! 2. [`arborescence`] — Chu-Liu/Edmonds minimum spanning arborescence, the
//!    combinatorial core for blind (root-unknown) recovery;
//! 3. [`recover`] — the end-to-end recovery algorithms (known-roots greedy
//!    forest and blind Edmonds), stitch second-parent detection, and
//!    distilled-child attachment by behaviour;
//! 4. [`graph`] — recovered-graph representation and evaluation against the
//!    benchmark lake's ground truth (edge precision/recall/F1, direction
//!    accuracy, transform-kind accuracy).

pub mod arborescence;
pub mod delta;
pub mod graph;
pub mod recover;

pub use delta::{classify_transform, DeltaFeatures};
pub use graph::{GraphEval, RecoveredEdge, RecoveredGraph};
pub use recover::{recover_graph, RecoveryMemo, RecoveryOptions};

pub use mlake_nn::TransformKind;
