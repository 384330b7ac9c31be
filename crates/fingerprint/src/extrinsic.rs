//! Extrinsic fingerprints from observable behaviour `p_θ`.
//!
//! Every model in the lake is probed with the *same* fixed probe set, so
//! behavioural responses are directly comparable — the "model as query"
//! search of Lu et al. (SIGGRAPH Asia 2023) generalised to classifiers and
//! LMs. Classifier probes are feature vectors; LM probes are token contexts.

use crate::intrinsic::sketch_params;
use mlake_nn::{Family, Model};
use mlake_tensor::{Matrix, Seed, TensorError};

/// A shared probe set covering both model families in the lake.
#[derive(Debug, Clone)]
pub struct ProbeSet {
    /// Feature-vector probes for classifiers (rows).
    pub tabular: Matrix,
    /// Token-context probes for language models.
    pub contexts: Vec<Vec<usize>>,
}

impl ProbeSet {
    /// Builds the standard probe set: `n_tabular` Gaussian feature probes of
    /// dimension `dim` scaled by `scale`, and `n_contexts` token contexts of
    /// length `context_len` over vocabulary `vocab`.
    pub fn standard(
        dim: usize,
        n_tabular: usize,
        scale: f32,
        vocab: usize,
        n_contexts: usize,
        context_len: usize,
        seed: Seed,
    ) -> ProbeSet {
        let mut rng = seed.derive("probe-tabular").rng();
        let tabular = Matrix::from_fn(n_tabular, dim, |_, _| rng.normal() * scale);
        let mut crng = seed.derive("probe-contexts").rng();
        let contexts = (0..n_contexts)
            .map(|_| (0..context_len).map(|_| crng.index(vocab)).collect())
            .collect();
        ProbeSet { tabular, contexts }
    }

    /// Raw behavioural response vector: concatenated output distributions
    /// over the applicable probes. Dimensionality depends on the model
    /// family (probes × classes, or contexts × vocab).
    pub fn behavior(&self, model: &Model) -> mlake_tensor::Result<Vec<f32>> {
        match model {
            Model::Mlp(_) => {
                if self.tabular.rows() == 0 {
                    return Err(TensorError::Empty("tabular probes"));
                }
                let mut out = Vec::new();
                for row in self.tabular.rows_iter() {
                    out.extend(model.predict_probs(row)?);
                }
                Ok(out)
            }
            Model::Lm(lm) => {
                if self.contexts.is_empty() {
                    return Err(TensorError::Empty("context probes"));
                }
                let mut out = Vec::new();
                for ctx in &self.contexts {
                    // Clamp probe tokens into this model's vocabulary so one
                    // probe set serves heterogeneous LMs.
                    let clamped: Vec<usize> =
                        ctx.iter().map(|&t| t.min(lm.vocab() - 1)).collect();
                    out.extend(lm.next_dist(&clamped)?);
                }
                Ok(out)
            }
        }
    }

    /// Behaviour hashed to a fixed `dim` (family-namespaced so classifier and
    /// LM responses never alias) — the indexable extrinsic fingerprint.
    pub fn behavior_sketch(
        &self,
        model: &Model,
        dim: usize,
        seed: u64,
    ) -> mlake_tensor::Result<Vec<f32>> {
        let behavior = self.behavior(model)?;
        let family_ns = match model {
            Model::Mlp(_) => seed ^ 0x11,
            Model::Lm(_) => seed ^ 0x22,
        };
        Ok(sketch_params(&behavior, dim, family_ns))
    }

    /// Hidden-representation matrix of an MLP over the tabular probes
    /// (`probes × hidden_units` at layer `layer`). CKA's input.
    pub fn representation(&self, model: &Model, layer: usize) -> mlake_tensor::Result<Matrix> {
        let mlp = model
            .as_mlp()
            .ok_or(TensorError::Empty("representation of non-MLP"))?;
        let mut rows = Vec::with_capacity(self.tabular.rows());
        for probe in self.tabular.rows_iter() {
            rows.push(mlp.hidden_representation(probe, layer)?);
        }
        Matrix::from_rows(&rows)
    }

    /// Mean total-variation distance between two models' behaviour on the
    /// applicable probes. Errors if the models are of different families.
    pub fn behavioral_distance(&self, a: &Model, b: &Model) -> mlake_tensor::Result<f32> {
        self.behavior_distance(a, &self.behavior(a)?, &self.behavior(b)?)
    }

    /// [`behavioral_distance`](Self::behavioral_distance) for a caller that
    /// already holds both [`behavior`](Self::behavior) vectors (`ba` is
    /// `a`'s), so version-graph recovery, which probes each model once, gets
    /// the same bits.
    pub fn behavior_distance(
        &self,
        a: &Model,
        ba: &[f32],
        bb: &[f32],
    ) -> mlake_tensor::Result<f32> {
        self.family_distance(a.family(), ba, bb)
    }

    /// The one home of the TV arithmetic: the mean total-variation distance
    /// between two [`behavior`](Self::behavior) vectors of `family` models.
    /// The family is all it reads of a model (MLPs answer the tabular rows,
    /// LMs the contexts), so a caller that kept the vectors compares them
    /// without decoding either model. Errors when the vectors differ in
    /// length — different families or output widths.
    pub fn family_distance(
        &self,
        family: Family,
        ba: &[f32],
        bb: &[f32],
    ) -> mlake_tensor::Result<f32> {
        if ba.len() != bb.len() {
            return Err(TensorError::ShapeMismatch {
                op: "behavioral_distance",
                lhs: (ba.len(), 1),
                rhs: (bb.len(), 1),
            });
        }
        let probes = match family {
            Family::Mlp => self.tabular.rows(),
            Family::Lm => self.contexts.len(),
        };
        let tv: f32 = ba.iter().zip(bb).map(|(x, y)| (x - y).abs()).sum::<f32>() / 2.0;
        Ok(tv / probes.max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_nn::transform::finetune::finetune_mlp;
    use mlake_nn::{train_mlp, Activation, LabeledData, Mlp, NgramLm, TrainConfig};
    use mlake_tensor::init::Init;

    fn probes() -> ProbeSet {
        ProbeSet::standard(4, 16, 2.0, 8, 12, 2, Seed::new(5))
    }

    const D_CHILD_BITS: u32 = 0x3c21_7a38;
    const D_STRANGER_BITS: u32 = 0x3ed5_ad7b;

    fn trained_mlp(seed: u64) -> Model {
        let mut rng = Seed::new(seed).derive("init").rng();
        let mut m = Mlp::new(vec![4, 8, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap();
        let mut drng = Seed::new(seed).derive("data").rng();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let c = i % 3;
            let mut x = vec![0.0f32; 4];
            x[c] = 2.0;
            for v in &mut x {
                *v += drng.normal() * 0.3;
            }
            rows.push(x);
            labels.push(c);
        }
        let data = LabeledData::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap();
        train_mlp(&mut m, &data, &TrainConfig { epochs: 10, ..Default::default() }).unwrap();
        Model::Mlp(m)
    }

    #[test]
    fn behavior_dims() {
        let ps = probes();
        let m = trained_mlp(1);
        let b = ps.behavior(&m).unwrap();
        assert_eq!(b.len(), 16 * 3);
        let mut lm = NgramLm::new(8, 2, 0.1).unwrap();
        lm.add_counts(&[0, 1, 2, 3, 4, 5, 6, 7], 1.0).unwrap();
        let bl = ps.behavior(&Model::Lm(lm)).unwrap();
        assert_eq!(bl.len(), 12 * 8);
    }

    #[test]
    fn sketch_fixed_dim_across_families() {
        let ps = probes();
        let m = trained_mlp(1);
        let mut lm = NgramLm::new(8, 2, 0.1).unwrap();
        lm.add_counts(&[0, 1, 2, 3], 1.0).unwrap();
        let sm = ps.behavior_sketch(&m, 32, 7).unwrap();
        let sl = ps.behavior_sketch(&Model::Lm(lm), 32, 7).unwrap();
        assert_eq!(sm.len(), 32);
        assert_eq!(sl.len(), 32);
    }

    #[test]
    fn finetuned_child_is_behaviorally_closer_than_stranger() {
        let ps = probes();
        let parent = trained_mlp(1);
        let stranger = trained_mlp(999);
        // Lightly fine-tune the parent on a few examples.
        let mut drng = Seed::new(7).derive("ft").rng();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let c = i % 3;
            let mut x = vec![0.0f32; 4];
            x[c] = 2.0;
            for v in &mut x {
                *v += drng.normal() * 0.3;
            }
            rows.push(x);
            labels.push(c);
        }
        let ft_data = LabeledData::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap();
        let (child, _) = finetune_mlp(
            parent.as_mlp().unwrap(),
            &ft_data,
            &TrainConfig { epochs: 2, ..Default::default() },
        )
        .unwrap();
        let child = Model::Mlp(child);
        let d_child = ps.behavioral_distance(&parent, &child).unwrap();
        let d_stranger = ps.behavioral_distance(&parent, &stranger).unwrap();
        assert!(d_child < d_stranger, "{d_child} !< {d_stranger}");
        assert_eq!(ps.behavioral_distance(&parent, &parent).unwrap(), 0.0);
        // Bits pinned on the commit before the TV arithmetic moved into
        // `behavior_distance`; precomputed vectors must reproduce them.
        assert_eq!(d_child.to_bits(), D_CHILD_BITS);
        assert_eq!(d_stranger.to_bits(), D_STRANGER_BITS);
        let (bp, bc, bs) = (
            ps.behavior(&parent).unwrap(),
            ps.behavior(&child).unwrap(),
            ps.behavior(&stranger).unwrap(),
        );
        let via = |bb: &[f32]| ps.behavior_distance(&parent, &bp, bb).unwrap().to_bits();
        assert_eq!(via(&bc), D_CHILD_BITS);
        assert_eq!(via(&bs), D_STRANGER_BITS);
        assert_eq!(via(&bp), 0.0f32.to_bits());
        // … and so must the family alone, with no model in hand.
        let by_family = |bb: &[f32]| ps.family_distance(Family::Mlp, &bp, bb).unwrap().to_bits();
        assert_eq!(by_family(&bc), D_CHILD_BITS);
        assert_eq!(by_family(&bs), D_STRANGER_BITS);
    }

    #[test]
    fn distance_rejects_cross_family() {
        let ps = probes();
        let m = trained_mlp(1);
        let mut lm = NgramLm::new(8, 2, 0.1).unwrap();
        lm.add_counts(&[0, 1, 2], 1.0).unwrap();
        let lm = Model::Lm(lm);
        assert!(ps.behavioral_distance(&m, &lm).is_err());
        let (bm, bl) = (ps.behavior(&m).unwrap(), ps.behavior(&lm).unwrap());
        assert!(ps.behavior_distance(&m, &bm, &bl).is_err());
    }

    #[test]
    fn representation_shape_and_gate() {
        let ps = probes();
        let m = trained_mlp(1);
        let rep = ps.representation(&m, 0).unwrap();
        assert_eq!(rep.shape(), (16, 8));
        let mut lm = NgramLm::new(8, 2, 0.1).unwrap();
        lm.add_counts(&[0, 1], 1.0).unwrap();
        assert!(ps.representation(&Model::Lm(lm), 0).is_err());
    }

    #[test]
    fn empty_probe_sets_error() {
        let ps = ProbeSet {
            tabular: Matrix::zeros(0, 4),
            contexts: Vec::new(),
        };
        assert!(ps.behavior(&trained_mlp(1)).is_err());
        let mut lm = NgramLm::new(8, 2, 0.1).unwrap();
        lm.add_counts(&[0], 1.0).unwrap();
        assert!(ps.behavior(&Model::Lm(lm)).is_err());
    }
}
