//! # mlake-tensor
//!
//! Dense `f32` linear-algebra substrate for the Model Lakes workspace.
//!
//! The Model Lakes paper (Pal, Bau & Miller, EDBT 2025) defines a model as
//! `M = (D, A, f*, θ, p_θ)`; everything downstream — training, fingerprinting,
//! attribution, indexing — manipulates the parameter vector `θ` and data `D`
//! as dense matrices. This crate provides that foundation with **no external
//! numeric dependencies** so that every experiment in the repository is
//! bit-reproducible from a `u64` seed.
//!
//! Contents:
//! * [`Matrix`] — row-major dense matrix with the usual algebra.
//! * [`rng`] — a from-scratch PCG64 generator and seed-derivation helpers.
//! * [`vector`] — free functions over `&[f32]` slices (dot, norms, cosine…).
//! * [`linalg`] — power iteration, Jacobi eigendecomposition, truncated SVD,
//!   conjugate-gradient solves (used by influence functions).
//! * [`stats`] — moments, quantiles, correlations, histograms.
//! * [`init`] — Xavier/He/uniform weight initialisation.

pub mod error;
pub mod init;
pub mod linalg;
pub mod matrix;
pub mod rng;
pub mod stats;
pub mod vector;

pub use error::TensorError;
pub use matrix::Matrix;
pub use rng::{Pcg64, Seed};

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Tolerance used by the crate's own tests for float comparisons.
pub const TEST_EPS: f32 = 1e-4;

/// Returns `true` when `a` and `b` differ by at most `eps` (absolute).
#[inline]
pub fn approx_eq(a: f32, b: f32, eps: f32) -> bool {
    (a - b).abs() <= eps
}

/// Returns `true` when every pair of elements differs by at most `eps`.
pub fn approx_eq_slice(a: &[f32], b: &[f32], eps: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| approx_eq(*x, *y, eps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basics() {
        assert!(approx_eq(1.0, 1.0 + 1e-6, 1e-4));
        assert!(!approx_eq(1.0, 1.1, 1e-4));
    }

    #[test]
    fn approx_eq_slice_len_mismatch() {
        assert!(!approx_eq_slice(&[1.0], &[1.0, 2.0], 1e-4));
        assert!(approx_eq_slice(&[1.0, 2.0], &[1.0, 2.0], 0.0));
    }
}
