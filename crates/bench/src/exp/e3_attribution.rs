//! E3 — Training-data attribution (§3 Model Attribution). Exact
//! leave-one-out ground truth versus influence functions, TracIn and the
//! gradient-dot baseline: agreement (Pearson/Spearman/top-10 overlap) and
//! wall-clock cost.

use crate::table::{f3, ms, Table};
use mlake_attribution::eval::agreement;
use mlake_attribution::influence::{gradient_dot_scores, influence_scores};
use mlake_attribution::loo::loo_scores;
use mlake_attribution::softmax::{SoftmaxConfig, SoftmaxRegression};
use mlake_attribution::tracin::{tracin_scores, train_with_checkpoints};
use mlake_datagen::{tabular, Domain};
use mlake_nn::LabeledData;
use mlake_tensor::Seed;
use std::time::Instant;

fn domain_data(n: usize, seed: u64) -> LabeledData {
    tabular::sample_tabular(
        &Domain::new("legal"),
        &tabular::TabularSpec {
            dim: 4,
            num_classes: 2,
            separation: 1.6,
            noise: 0.8,
        },
        n,
        Seed::new(3),
        Seed::new(seed),
    )
}

/// Runs E3.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 20 } else { 48 };
    let num_tests = if quick { 2 } else { 6 };
    let cfg = SoftmaxConfig {
        l2: 0.05,
        steps: if quick { 200 } else { 400 },
        lr: 0.5,
    };
    let data = domain_data(n, 21);
    let tests = domain_data(num_tests, 22);
    let model = SoftmaxRegression::train(&data, &cfg).expect("train");
    let (_, checkpoints) =
        train_with_checkpoints(&data, &cfg, 6).expect("checkpointed train");

    // Accumulators per estimator: (pearson, spearman, top10, duration).
    let mut acc: Vec<(String, f64, f64, f64, std::time::Duration)> = vec![
        ("influence function (H^-1 via CG)".into(), 0.0, 0.0, 0.0, Default::default()),
        ("TracIn (6 checkpoints)".into(), 0.0, 0.0, 0.0, Default::default()),
        ("gradient-dot (H = I baseline)".into(), 0.0, 0.0, 0.0, Default::default()),
    ];
    let mut loo_time = std::time::Duration::default();

    for (row, &y) in tests.x.rows_iter().zip(&tests.y) {
        let t0 = Instant::now();
        let loo = loo_scores(&data, row, y, &cfg).expect("loo");
        loo_time += t0.elapsed();

        let t0 = Instant::now();
        let inf = influence_scores(&model, &data, row, y, 0.01).expect("influence");
        acc[0].4 += t0.elapsed();
        let t0 = Instant::now();
        let tr = tracin_scores(&checkpoints, cfg.lr, &data, row, y).expect("tracin");
        acc[1].4 += t0.elapsed();
        let t0 = Instant::now();
        let gd = gradient_dot_scores(&model, &data, row, y).expect("grad-dot");
        acc[2].4 += t0.elapsed();

        for (slot, scores) in [(0, &inf), (1, &tr), (2, &gd)] {
            let a = agreement(&loo, scores);
            acc[slot].1 += f64::from(a.pearson.unwrap_or(0.0));
            acc[slot].2 += f64::from(a.spearman.unwrap_or(0.0));
            acc[slot].3 += f64::from(a.top10);
        }
    }

    let title = format!("E3: attribution vs exact LOO (n={n} train, {num_tests} test points");
    let mut t = Table::new(
        format!("{title})"),
        &["estimator", "pearson", "spearman", "top-10 overlap", "cost"],
    )
    .timing(&["cost"])
    .timed_title(format!("{title}; LOO cost {})", ms(loo_time)));
    let k = num_tests as f64;
    for (name, p, s, o, d) in acc {
        t.row(vec![
            name,
            f3((p / k) as f32),
            f3((s / k) as f32),
            f3((o / k) as f32),
            ms(d),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_influence_tracks_loo() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 3);
        let pearson_inf: f32 = t.rows[0][1].parse().unwrap();
        assert!(pearson_inf > 0.5, "influence pearson {pearson_inf}");
        // All estimators are orders of magnitude cheaper than LOO; at least
        // they must finish and report costs.
        assert!(t.rows.iter().all(|r| r[4].ends_with("ms")));
        crate::exp::golden::assert_quick("e3", &tables);
    }
}
