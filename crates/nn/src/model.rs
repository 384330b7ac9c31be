//! The unified [`Model`] type — a concrete `(f*, θ, p_θ)` triple — plus a
//! compact binary artifact codec for content-addressed storage.

use crate::arch::Architecture;
use crate::lm::NgramLm;
use crate::mlp::Mlp;
use mlake_tensor::TensorError;
use serde::{Deserialize, Serialize};

/// A model artifact as stored in the lake: either a classifier (MLP) or a
/// generative n-gram language model. Lake tasks that only need the generic
/// `(f*, θ)` view use [`Model::architecture`] / [`Model::flat_params`];
/// extrinsic probing uses [`Model::predict_probs`] or
/// [`Model::next_token_dist`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Model {
    /// Feed-forward classifier.
    Mlp(Mlp),
    /// n-gram language model.
    Lm(NgramLm),
}

/// Which of the lake's two families a model belongs to: all a caller that
/// no longer holds the parameters needs to know which probes it answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Feed-forward classifiers.
    Mlp,
    /// n-gram language models.
    Lm,
}

impl Model {
    /// The family this model belongs to.
    pub fn family(&self) -> Family {
        match self {
            Model::Mlp(_) => Family::Mlp,
            Model::Lm(_) => Family::Lm,
        }
    }

    /// The architecture descriptor `f*`.
    pub fn architecture(&self) -> Architecture {
        match self {
            Model::Mlp(m) => m.architecture(),
            Model::Lm(lm) => lm.architecture(),
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        match self {
            Model::Mlp(m) => m.num_params(),
            Model::Lm(lm) => lm.num_params(),
        }
    }

    /// Flattened parameter vector `θ` (probabilities for LMs).
    pub fn flat_params(&self) -> Vec<f32> {
        match self {
            Model::Mlp(m) => m.flat_params(),
            Model::Lm(lm) => lm.flat_params(),
        }
    }

    /// Class-probability vector for a feature input (classifiers only).
    pub fn predict_probs(&self, input: &[f32]) -> crate::Result<Vec<f32>> {
        match self {
            Model::Mlp(m) => m.predict_probs(input),
            Model::Lm(_) => Err(TensorError::Empty("predict_probs on language model")),
        }
    }

    /// Next-token distribution for a token context (LMs only).
    pub fn next_token_dist(&self, context: &[usize]) -> crate::Result<Vec<f32>> {
        match self {
            Model::Lm(lm) => lm.next_dist(context),
            Model::Mlp(_) => Err(TensorError::Empty("next_token_dist on classifier")),
        }
    }

    /// Borrows the MLP, if this is a classifier.
    pub fn as_mlp(&self) -> Option<&Mlp> {
        match self {
            Model::Mlp(m) => Some(m),
            Model::Lm(_) => None,
        }
    }

    /// Borrows the LM, if this is a language model.
    pub fn as_lm(&self) -> Option<&NgramLm> {
        match self {
            Model::Lm(lm) => Some(lm),
            Model::Mlp(_) => None,
        }
    }

    /// Mutable MLP access.
    pub fn as_mlp_mut(&mut self) -> Option<&mut Mlp> {
        match self {
            Model::Mlp(m) => Some(m),
            Model::Lm(_) => None,
        }
    }

    /// Mutable LM access.
    pub fn as_lm_mut(&mut self) -> Option<&mut NgramLm> {
        match self {
            Model::Lm(lm) => Some(lm),
            Model::Mlp(_) => None,
        }
    }

    /// `true` when every parameter is finite. Artifacts with NaN/Inf weights
    /// are corrupt by definition (and would not survive the JSON codec).
    pub fn is_finite(&self) -> bool {
        self.flat_params().iter().all(|v| v.is_finite())
    }

    /// Serialises to the lake artifact format.
    ///
    /// Layout: magic `MLKM`, format version `u16`, then a JSON body. JSON is
    /// acceptable at this scale, keeps the artifact self-describing, and the
    /// binary envelope gives the content-addressed store a stable prefix to
    /// validate before parsing untrusted bytes.
    pub fn to_bytes(&self) -> crate::Result<Vec<u8>> {
        let body = serde_json::to_vec(self)
            .map_err(|_| TensorError::Numerical("model serialisation failed"))?;
        let mut out = Vec::with_capacity(body.len() + 10);
        out.extend_from_slice(b"MLKM");
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Parses the lake artifact format; rejects bad magic, version or length.
    pub fn from_bytes(bytes: &[u8]) -> crate::Result<Model> {
        if bytes.len() < 10 || &bytes[..4] != b"MLKM" {
            return Err(TensorError::Numerical("bad model artifact magic"));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != ARTIFACT_VERSION {
            return Err(TensorError::Numerical("unsupported model artifact version"));
        }
        let len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
        if bytes.len() != 10 + len {
            return Err(TensorError::BadBuffer {
                expected: 10 + len,
                actual: bytes.len(),
            });
        }
        serde_json::from_slice(&bytes[10..])
            .map_err(|_| TensorError::Numerical("corrupt model artifact body"))
    }
}

/// Current artifact format version.
pub const ARTIFACT_VERSION: u16 = 1;

impl From<Mlp> for Model {
    fn from(m: Mlp) -> Self {
        Model::Mlp(m)
    }
}

impl From<NgramLm> for Model {
    fn from(lm: NgramLm) -> Self {
        Model::Lm(lm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use mlake_tensor::{init::Init, Pcg64};

    fn mlp_model() -> Model {
        let mut rng = Pcg64::new(8);
        Model::Mlp(Mlp::new(vec![3, 4, 2], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
    }

    fn lm_model() -> Model {
        let mut lm = NgramLm::new(5, 2, 0.1).unwrap();
        lm.add_counts(&[0, 1, 2, 3, 4, 0, 1, 2], 1.0).unwrap();
        Model::Lm(lm)
    }

    #[test]
    fn generic_views() {
        let m = mlp_model();
        assert_eq!(m.num_params(), m.flat_params().len());
        assert_eq!(m.architecture().signature(), "mlp:3-4-2:relu");
        let lm = lm_model();
        assert_eq!(lm.architecture().signature(), "ngram:5:2");
        assert_eq!(lm.flat_params().len(), 25);
    }

    #[test]
    fn extrinsic_views_gate_by_family() {
        let m = mlp_model();
        assert!(m.predict_probs(&[0.1, 0.2, 0.3]).is_ok());
        assert!(m.next_token_dist(&[0]).is_err());
        let lm = lm_model();
        assert!(lm.next_token_dist(&[0]).is_ok());
        assert!(lm.predict_probs(&[0.0]).is_err());
    }

    #[test]
    fn accessors() {
        let mut m = mlp_model();
        assert!(m.as_mlp().is_some());
        assert!(m.as_lm().is_none());
        assert!(m.as_mlp_mut().is_some());
        let mut lm = lm_model();
        assert!(lm.as_lm().is_some());
        assert!(lm.as_lm_mut().is_some());
        assert!(lm.as_mlp().is_none());
    }

    #[test]
    fn bytes_round_trip() {
        for m in [mlp_model(), lm_model()] {
            let bytes = m.to_bytes().unwrap();
            let back = Model::from_bytes(&bytes).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn bytes_reject_corruption() {
        let m = mlp_model();
        let bytes = m.to_bytes().unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Model::from_bytes(&bad).is_err());
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(Model::from_bytes(&bad).is_err());
        // Truncated.
        assert!(Model::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        // Garbage body.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 5..].copy_from_slice(b"#####");
        assert!(Model::from_bytes(&bad).is_err());
        // Too short entirely.
        assert!(Model::from_bytes(b"ML").is_err());
    }
}
