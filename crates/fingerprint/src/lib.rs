//! # mlake-fingerprint
//!
//! Model fingerprints: fixed-dimension embeddings of models computed from
//! the paper's three viewpoints (§2):
//!
//! * **intrinsic** ([`intrinsic`]) — from `(f*, θ)`: weight-distribution
//!   moments, feature-hashed weight sketches ("Model DNA", cf. Mu et al.),
//!   and spectral summaries;
//! * **extrinsic** ([`extrinsic`]) — from `p_θ`: responses to a fixed probe
//!   set (classifier output distributions, LM next-token distributions);
//! * **representation-level** ([`cka`]) — centered kernel alignment between
//!   hidden representations, for fine-grained similarity analysis.
//!
//! The embeddings feed the lake's indexer (§5: "create embeddings
//! representing the important features of the model and design a fast
//! nearest neighbor search over these embeddings") and the weight-space
//! property classifier ([`weightspace`], §5 Weight-Space Modeling).

pub mod cka;
pub mod distance;
pub mod extrinsic;
pub mod intrinsic;
pub mod spectral;
pub mod weightspace;

pub use distance::FingerprintKind;
pub use extrinsic::ProbeSet;
pub use intrinsic::{model_dna, moment_features, sketch_params, structural_features};
pub use spectral::spectral_features;

use mlake_nn::Model;
use mlake_tensor::Matrix;

/// Everything needed to fingerprint any model in the lake consistently:
/// shared probe sets and a shared sketch configuration. Build once per lake.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    /// Sketch dimensionality for hashed weight features.
    pub sketch_dim: usize,
    /// Seed namespace for the sketch hash.
    pub seed: u64,
    /// Shared probe inputs for classifiers.
    pub probes: ProbeSet,
}

impl Fingerprinter {
    /// Builds a fingerprinter with the given sketch width and probe set.
    pub fn new(sketch_dim: usize, seed: u64, probes: ProbeSet) -> Fingerprinter {
        Fingerprinter { sketch_dim, seed, probes }
    }

    /// Intrinsic fingerprint: 8 moment features + hashed weight sketch.
    pub fn intrinsic(&self, model: &Model) -> Vec<f32> {
        let _span = mlake_obs::span("fingerprint.intrinsic");
        model_dna(model, self.sketch_dim, self.seed)
    }

    /// Extrinsic fingerprint: hashed behavioural responses on the shared
    /// probe set, `sketch_dim` wide.
    pub fn extrinsic(&self, model: &Model) -> mlake_tensor::Result<Vec<f32>> {
        let _span = mlake_obs::span("fingerprint.extrinsic");
        self.probes.behavior_sketch(model, self.sketch_dim, self.seed)
    }

    /// Hybrid fingerprint: L2-normalised intrinsic ++ extrinsic halves, the
    /// combination §5 recommends ("many of the model lake tasks will benefit
    /// from [a] hybrid approach").
    pub fn hybrid(&self, model: &Model) -> mlake_tensor::Result<Vec<f32>> {
        Ok(Self::hybrid_of(
            &self.intrinsic(model),
            &self.extrinsic(model)?,
        ))
    }

    /// The hybrid fingerprint from halves already computed by
    /// [`Fingerprinter::intrinsic`] and [`Fingerprinter::extrinsic`]: each
    /// L2-normalised, then concatenated.
    pub fn hybrid_of(intrinsic: &[f32], extrinsic: &[f32]) -> Vec<f32> {
        let mut a = intrinsic.to_vec();
        let mut b = extrinsic.to_vec();
        mlake_tensor::vector::normalize(&mut a);
        mlake_tensor::vector::normalize(&mut b);
        a.extend_from_slice(&b);
        a
    }

    /// Fingerprint under a named kind (for sweeps/ablations).
    pub fn compute(&self, kind: FingerprintKind, model: &Model) -> mlake_tensor::Result<Vec<f32>> {
        match kind {
            FingerprintKind::Intrinsic => Ok(self.intrinsic(model)),
            FingerprintKind::Extrinsic => self.extrinsic(model),
            FingerprintKind::Hybrid => self.hybrid(model),
        }
    }

    /// Representation matrix of an MLP over the probe inputs (probes ×
    /// hidden units at layer `layer`), the CKA input.
    pub fn representation(&self, model: &Model, layer: usize) -> mlake_tensor::Result<Matrix> {
        self.probes.representation(model, layer)
    }
}
