//! The `Benchmark` artifact: `S(M, B) ∈ R` (§3).

use crate::metrics::{expected_calibration_error, frechet_distance, Confusion};
use mlake_nn::{Architecture, LabeledData, Model};
use mlake_tensor::{Matrix, TensorError};
use serde::{Deserialize, Serialize};

/// What a benchmark measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BenchmarkKind {
    /// Classifier accuracy on held-out labelled data.
    Classification(LabeledData),
    /// LM perplexity on held-out token text (lower is better).
    Perplexity(Vec<usize>),
    /// Fréchet distance between a generative LM's sampled next-token
    /// feature rows and a reference distribution (lower is better).
    Distribution(Matrix),
    /// Calibration (ECE, lower is better) on labelled data.
    Calibration(LabeledData),
}

/// A named, reusable benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Benchmark {
    /// Stable name, e.g. `"legal-tab-holdout"`.
    pub name: String,
    /// What is measured.
    pub kind: BenchmarkKind,
}

/// A scored result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Score {
    /// Benchmark name.
    pub benchmark: String,
    /// Metric name ("accuracy", "perplexity", "frechet", "ece").
    pub metric: String,
    /// Raw value.
    pub value: f32,
    /// Whether larger values are better.
    pub higher_better: bool,
}

impl Score {
    /// A comparable goodness key: higher is always better.
    pub fn goodness(&self) -> f32 {
        if self.higher_better {
            self.value
        } else {
            -self.value
        }
    }
}

impl Benchmark {
    /// Classification benchmark constructor.
    pub fn classification(name: impl Into<String>, data: LabeledData) -> Benchmark {
        Benchmark {
            name: name.into(),
            kind: BenchmarkKind::Classification(data),
        }
    }

    /// Perplexity benchmark constructor.
    pub fn perplexity(name: impl Into<String>, text: Vec<usize>) -> Benchmark {
        Benchmark {
            name: name.into(),
            kind: BenchmarkKind::Perplexity(text),
        }
    }

    /// Whether this benchmark can score a model of architecture `arch`: the
    /// family must match, a classifier's input width must equal the data's,
    /// and an LM's vocabulary must cover every token of a perplexity text.
    /// The one applicability rule — it needs no weights, so a catalogue that
    /// stores only the architecture signature can answer it without
    /// decoding the artifact ([`Architecture::parse_signature`]).
    pub fn applicable_to(&self, arch: &Architecture) -> bool {
        match (&self.kind, arch) {
            (
                BenchmarkKind::Classification(d) | BenchmarkKind::Calibration(d),
                Architecture::Mlp { .. },
            ) => d.dim() == arch.input_dim(),
            (BenchmarkKind::Perplexity(t), Architecture::NgramLm { vocab, .. }) => {
                t.iter().all(|tok| tok < vocab)
            }
            (BenchmarkKind::Distribution(_), Architecture::NgramLm { .. }) => true,
            _ => false,
        }
    }

    /// [`applicable_to`](Self::applicable_to) the model's architecture.
    pub fn applicable(&self, model: &Model) -> bool {
        self.applicable_to(&model.architecture())
    }

    /// Scores a model; errors when the benchmark does not apply.
    pub fn score(&self, model: &Model) -> mlake_tensor::Result<Score> {
        match (&self.kind, model) {
            (BenchmarkKind::Classification(data), Model::Mlp(m)) => {
                let conf = Confusion::of(m, data, data.num_classes())?;
                Ok(Score {
                    benchmark: self.name.clone(),
                    metric: "accuracy".into(),
                    value: conf.accuracy(),
                    higher_better: true,
                })
            }
            (BenchmarkKind::Calibration(data), Model::Mlp(m)) => Ok(Score {
                benchmark: self.name.clone(),
                metric: "ece".into(),
                value: expected_calibration_error(m, data, 10)?,
                higher_better: false,
            }),
            (BenchmarkKind::Perplexity(text), Model::Lm(lm)) => Ok(Score {
                benchmark: self.name.clone(),
                metric: "perplexity".into(),
                value: lm.perplexity(text)? as f32,
                higher_better: false,
            }),
            (BenchmarkKind::Distribution(reference), Model::Lm(lm)) => {
                // Model feature rows: next-token distributions over a
                // deterministic set of single-token contexts.
                let mut rows = Vec::with_capacity(lm.vocab());
                for t in 0..lm.vocab().min(reference.cols()) {
                    let d = lm.next_dist(&[t])?;
                    rows.push(d[..reference.cols().min(d.len())].to_vec());
                }
                let m = Matrix::from_rows(&rows)?;
                Ok(Score {
                    benchmark: self.name.clone(),
                    metric: "frechet".into(),
                    value: frechet_distance(&m, reference)?,
                    higher_better: false,
                })
            }
            _ => Err(TensorError::Empty("benchmark not applicable to model family")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_nn::{train_mlp, Activation, Mlp, NgramLm, TrainConfig};
    use mlake_tensor::{init::Init, Seed};

    fn data(seed: u64) -> LabeledData {
        let mut rng = Seed::new(seed).derive("bench-data").rng();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let c = i % 2;
            let center = if c == 0 { -2.0 } else { 2.0 };
            rows.push(vec![center + rng.normal() * 0.4, center + rng.normal() * 0.4]);
            labels.push(c);
        }
        LabeledData::new(Matrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    fn classifier() -> Model {
        let mut rng = Seed::new(1).derive("init").rng();
        let mut m = Mlp::new(vec![2, 8, 2], Activation::Relu, Init::HeNormal, &mut rng).unwrap();
        train_mlp(&mut m, &data(1), &TrainConfig { epochs: 20, ..Default::default() }).unwrap();
        Model::Mlp(m)
    }

    fn lm() -> Model {
        let mut l = NgramLm::new(6, 2, 0.1).unwrap();
        l.add_counts(&(0..200).map(|i| i % 6).collect::<Vec<_>>(), 1.0).unwrap();
        Model::Lm(l)
    }

    #[test]
    fn classification_scoring() {
        let b = Benchmark::classification("blobs", data(2));
        let m = classifier();
        assert!(b.applicable(&m));
        let s = b.score(&m).unwrap();
        assert_eq!(s.metric, "accuracy");
        assert!(s.value > 0.9);
        assert!(s.higher_better);
        assert!(s.goodness() > 0.9);
    }

    #[test]
    fn perplexity_scoring() {
        let b = Benchmark::perplexity("cycle", (0..50).map(|i| i % 6).collect());
        let m = lm();
        assert!(b.applicable(&m));
        let s = b.score(&m).unwrap();
        assert_eq!(s.metric, "perplexity");
        assert!(s.value < 2.0, "ppl {}", s.value);
        assert!(!s.higher_better);
        assert!(s.goodness() < 0.0);
    }

    #[test]
    fn family_gating() {
        let cls = Benchmark::classification("blobs", data(3));
        let ppl = Benchmark::perplexity("cycle", vec![0, 1, 2]);
        assert!(!cls.applicable(&lm()));
        assert!(!ppl.applicable(&classifier()));
        assert!(cls.score(&lm()).is_err());
        assert!(ppl.score(&classifier()).is_err());
    }

    #[test]
    fn dimension_gating() {
        let cls = Benchmark::classification("blobs", data(4));
        let mut rng = Seed::new(9).rng();
        let wrong_dim = Model::Mlp(
            Mlp::new(vec![5, 4, 2], Activation::Relu, Init::HeNormal, &mut rng).unwrap(),
        );
        assert!(!cls.applicable(&wrong_dim));
        assert!(!cls.applicable_to(&wrong_dim.architecture()));
    }

    #[test]
    fn applicability_needs_only_the_signature() {
        let cls = Benchmark::classification("blobs", data(3));
        let ppl = Benchmark::perplexity("cycle", vec![0, 1, 5]);
        let too_wide = Benchmark::perplexity("wide", vec![0, 6]);
        for m in [classifier(), lm()] {
            let arch = Architecture::parse_signature(&m.architecture().signature()).unwrap();
            for b in [&cls, &ppl, &too_wide] {
                assert_eq!(b.applicable_to(&arch), b.applicable(&m), "{}", b.name);
            }
        }
        assert!(ppl.applicable(&lm()));
        assert!(!too_wide.applicable(&lm()));
    }

    #[test]
    fn calibration_scoring() {
        let b = Benchmark {
            name: "cal".into(),
            kind: BenchmarkKind::Calibration(data(5)),
        };
        let s = b.score(&classifier()).unwrap();
        assert_eq!(s.metric, "ece");
        assert!(s.value >= 0.0 && s.value <= 1.0);
    }

    #[test]
    fn distribution_scoring() {
        let reference = {
            // Reference rows: the LM's own conditionals — distance ~ 0.
            let m = lm();
            let l = m.as_lm().unwrap();
            let rows: Vec<Vec<f32>> =
                (0..6).map(|t| l.next_dist(&[t]).unwrap()).collect();
            Matrix::from_rows(&rows).unwrap()
        };
        let b = Benchmark {
            name: "dist".into(),
            kind: BenchmarkKind::Distribution(reference),
        };
        let s = b.score(&lm()).unwrap();
        assert_eq!(s.metric, "frechet");
        assert!(s.value < 0.05, "fd {}", s.value);
    }
}
