//! # mlake-nn
//!
//! From-scratch neural networks and model transformations.
//!
//! This crate materialises the paper's model formalisation
//! `M = (D, A, f*, θ, p_θ)` (§2):
//!
//! * [`arch::Architecture`] is `f*` — the function family;
//! * [`model::Model`] carries `θ` — concrete parameters — and exposes
//!   `p_θ` through [`model::Model::predict_probs`] and the language-model
//!   distribution API;
//! * [`train`] is `A` — the training algorithm, fully seeded;
//! * the [`transform`] module implements the derivation operators the paper's
//!   §4 "Model Versions" catalogues: **fine-tuning**, **LoRA**
//!   (parameter-efficient tuning), **model editing**, **distillation**
//!   (preference-style behaviour transfer), **stitching**, plus pruning and
//!   quantisation — each leaving the weight-delta signature that version-graph
//!   recovery (crate `mlake-versioning`) keys on.
//!
//! Models are intentionally small (MLPs, bag-of-words classifiers, n-gram
//! language models): every lake task treats them through the generic
//! `(f*, θ, p_θ)` interface, so the lake-management code paths are identical
//! to those needed for large models, while exhaustive ground truth (exact
//! retraining, exact lineage) stays computable. See DESIGN.md §2.

pub mod activation;
pub mod arch;
pub mod data;
pub mod grad;
pub mod lm;
pub mod loss;
pub mod mlp;
pub mod model;
pub mod optim;
pub mod train;
pub mod transform;

pub use activation::Activation;
pub use arch::Architecture;
pub use data::LabeledData;
pub use lm::NgramLm;
pub use loss::Loss;
pub use mlp::Mlp;
pub use model::{Family, Model};
pub use train::{train_mlp, TrainConfig, TrainReport};
pub use transform::TransformKind;

/// Crate-wide `Result` alias, re-using the tensor error type: every failure
/// mode in this crate is ultimately a shape/numeric failure.
pub type Result<T> = mlake_tensor::Result<T>;
