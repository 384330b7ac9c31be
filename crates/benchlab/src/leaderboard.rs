//! Leaderboards: ranked `S(M, B)` over many models, and the "outperforms X
//! on Y" relation surfaced by the declarative query layer (§6).

use crate::benchmark::{Benchmark, Score};
use mlake_nn::Model;
use serde::{Deserialize, Serialize};

/// One leaderboard entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaderboardRow {
    /// Model identifier (caller-defined, typically the lake model id).
    pub model_id: u64,
    /// The score.
    pub score: Score,
}

/// A ranked evaluation of models on one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Leaderboard {
    /// Benchmark name.
    pub benchmark: String,
    /// Rows, best first.
    pub rows: Vec<LeaderboardRow>,
    /// Model ids the benchmark did not apply to.
    pub skipped: Vec<u64>,
}

impl Leaderboard {
    /// Evaluates every applicable `(id, model)` pair and ranks the results.
    pub fn run<'a>(
        benchmark: &Benchmark,
        models: impl IntoIterator<Item = (u64, &'a Model)>,
    ) -> mlake_tensor::Result<Leaderboard> {
        let mut rows = Vec::new();
        let mut skipped = Vec::new();
        for (id, model) in models {
            if benchmark.applicable(model) {
                rows.push(LeaderboardRow {
                    model_id: id,
                    score: benchmark.score(model)?,
                });
            } else {
                skipped.push(id);
            }
        }
        Ok(Leaderboard::ranked(&benchmark.name, rows, skipped))
    }

    /// Ranks already-scored rows: best first, ties by model id. `skipped`
    /// keeps the caller's order.
    pub fn ranked(benchmark: &str, mut rows: Vec<LeaderboardRow>, skipped: Vec<u64>) -> Leaderboard {
        rows.sort_by(|a, b| {
            b.score
                .goodness()
                .total_cmp(&a.score.goodness())
                .then(a.model_id.cmp(&b.model_id))
        });
        Leaderboard {
            benchmark: benchmark.to_string(),
            rows,
            skipped,
        }
    }

    /// Rank (0-based) of a model, if present.
    pub fn rank_of(&self, model_id: u64) -> Option<usize> {
        self.rows.iter().position(|r| r.model_id == model_id)
    }

    /// The winning row.
    pub fn best(&self) -> Option<&LeaderboardRow> {
        self.rows.first()
    }

    /// Models that strictly outperform `model_id` on this benchmark.
    pub fn outperformers(&self, model_id: u64) -> Vec<u64> {
        let Some(rank) = self.rank_of(model_id) else {
            return Vec::new();
        };
        let target = self.rows[rank].score.goodness();
        self.rows
            .iter()
            .filter(|r| r.score.goodness() > target)
            .map(|r| r.model_id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_nn::{train_mlp, Activation, LabeledData, Mlp, TrainConfig};
    use mlake_tensor::{init::Init, Matrix, Seed};

    fn data(seed: u64) -> LabeledData {
        let mut rng = Seed::new(seed).derive("lb-data").rng();
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

    fn model(epochs: usize, seed: u64) -> Model {
        let mut rng = Seed::new(seed).derive("init").rng();
        let mut m = Mlp::new(vec![2, 8, 2], Activation::Relu, Init::HeNormal, &mut rng).unwrap();
        train_mlp(&mut m, &data(1), &TrainConfig { epochs, ..Default::default() }).unwrap();
        Model::Mlp(m)
    }

    #[test]
    fn ranks_better_models_first() {
        let good = model(25, 1);
        let bad = model(0, 2);
        let b = Benchmark::classification("holdout", data(9));
        let lb = Leaderboard::run(&b, vec![(10, &good), (20, &bad)]).unwrap();
        assert_eq!(lb.rows.len(), 2);
        assert_eq!(lb.best().unwrap().model_id, 10);
        assert_eq!(lb.rank_of(20), Some(1));
        assert_eq!(lb.outperformers(20), vec![10]);
        assert!(lb.outperformers(10).is_empty());
        assert_eq!(lb.outperformers(999), Vec::<u64>::new());
    }

    #[test]
    fn inapplicable_models_are_skipped() {
        let mut lm = mlake_nn::NgramLm::new(4, 2, 0.1).unwrap();
        lm.add_counts(&[0, 1, 2, 3], 1.0).unwrap();
        let lm = Model::Lm(lm);
        let m = model(5, 3);
        let b = Benchmark::classification("holdout", data(9));
        let lb = Leaderboard::run(&b, vec![(1, &m), (2, &lm)]).unwrap();
        assert_eq!(lb.rows.len(), 1);
        assert_eq!(lb.skipped, vec![2]);
    }

    #[test]
    fn empty_leaderboard() {
        let b = Benchmark::classification("holdout", data(9));
        let lb = Leaderboard::run(&b, vec![]).unwrap();
        assert!(lb.best().is_none());
        assert!(lb.rows.is_empty());
    }
}
