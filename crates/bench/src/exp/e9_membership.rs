//! E9 — Membership inference as history-free attribution (§4). Attack AUC
//! and advantage as functions of training-set size and regularisation: the
//! overfitting/leakage trade-off, plus the shadow-model attack's transfer.

use crate::table::{f3, Table};
use mlake_attribution::membership::{
    advantage, auc, loss_attack_scores, shadow_attack, threshold_accuracy,
};
use mlake_attribution::reconstruction::extraction_probe;
use mlake_attribution::softmax::{SoftmaxConfig, SoftmaxRegression};
use mlake_nn::LabeledData;
use mlake_tensor::{Matrix, Seed};

/// Weak-signal high-dimensional task: memorisable noise dimensions make
/// membership leakage measurable.
fn mia_data(n: usize, seed: u64) -> LabeledData {
    let mut rng = Seed::new(seed).derive("e9").rng();
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let c = i % 2;
        let mut x = vec![0.0f32; 12];
        x[0] = if c == 0 { -0.5 } else { 0.5 } + rng.normal();
        for v in x.iter_mut().skip(1) {
            *v = rng.normal();
        }
        rows.push(x);
        labels.push(c);
    }
    LabeledData::new(Matrix::from_rows(&rows).expect("rows"), labels).expect("data")
}

/// Runs E9.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick { &[16, 64] } else { &[8, 16, 32, 64, 128] };
    let overfit = SoftmaxConfig {
        l2: 1e-6,
        steps: if quick { 800 } else { 2000 },
        lr: 1.0,
    };

    let mut t1 = Table::new(
        "E9a: loss-threshold MIA vs training-set size (overfit regime, mean of 3 runs)",
        &["train n", "train acc", "holdout acc", "AUC", "advantage"],
    );
    let runs = 3u64;
    for (i, &n) in sizes.iter().enumerate() {
        let (mut tr, mut ho, mut a, mut adv) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for r in 0..runs {
            let members = mia_data(n, 100 + i as u64 * 10 + r);
            let non_members = mia_data(n, 200 + i as u64 * 10 + r);
            let model = SoftmaxRegression::train(&members, &overfit).expect("train");
            let scores = loss_attack_scores(&model, &members, &non_members).expect("scores");
            tr += model.accuracy(&members).expect("acc");
            ho += model.accuracy(&non_members).expect("acc");
            a += auc(&scores);
            adv += advantage(&scores);
        }
        let k = runs as f32;
        t1.row(vec![
            n.to_string(),
            f3(tr / k),
            f3(ho / k),
            f3(a / k),
            f3(adv / k),
        ]);
    }

    let mut t2 = Table::new(
        "E9b: regularisation as defence (n=16)",
        &["l2", "AUC", "advantage"],
    );
    for &l2 in &[1e-6f32, 0.01, 0.1, 1.0] {
        let members = mia_data(16, 300);
        let non_members = mia_data(16, 301);
        let cfg = SoftmaxConfig { l2, ..overfit };
        let model = SoftmaxRegression::train(&members, &cfg).expect("train");
        let scores = loss_attack_scores(&model, &members, &non_members).expect("scores");
        t2.row(vec![format!("{l2}"), f3(auc(&scores)), f3(advantage(&scores))]);
    }

    let mut t3 = Table::new(
        "E9c: shadow-model attack on the overfit target",
        &["shadows", "threshold accuracy"],
    );
    let aux = mia_data(96, 400);
    let target_train = mia_data(16, 401);
    let target_out = mia_data(16, 402);
    let target = SoftmaxRegression::train(&target_train, &overfit).expect("train");
    for &shadows in if quick { &[2usize, 4][..] } else { &[2usize, 4, 8][..] } {
        let (tau, scores) = shadow_attack(
            &aux,
            &target,
            &target_train,
            &target_out,
            shadows,
            &overfit,
            Seed::new(7),
        )
        .expect("shadow attack");
        t3.row(vec![shadows.to_string(), f3(threshold_accuracy(&scores, tau))]);
    }

    // ---- extraction probe on generative models ---------------------------
    // Carlini-style training-data extraction: a bigram LM trained on
    // low-entropy text regurgitates it verbatim under greedy decoding.
    let mut t4 = Table::new(
        "E9d: training-data extraction probe (bigram LM, greedy decode, span 16)",
        &["corpus", "mean verbatim len (train)", "mean verbatim len (held-out)"],
    );
    let mut srng = Seed::new(500).rng();
    for (label, corpus) in [
        (
            "structured (cycle, memorisable)",
            (0..600).map(|i| i % 24).collect::<Vec<usize>>(),
        ),
        (
            "high-entropy (uniform random)",
            (0..600).map(|_| srng.index(24)).collect::<Vec<usize>>(),
        ),
    ] {
        let mut lm = mlake_nn::NgramLm::new(24, 2, 0.1).expect("lm");
        lm.add_counts(&corpus, 1.0).expect("counts");
        let on = extraction_probe(&lm, &corpus, 16).expect("probe");
        let mut hrng = Seed::new(501).derive(label).rng();
        let held: Vec<usize> = (0..600).map(|_| hrng.index(24)).collect();
        let off = extraction_probe(&lm, &held, 16).expect("probe");
        t4.row(vec![
            label.into(),
            f3(on.mean_verbatim_len),
            f3(off.mean_verbatim_len),
        ]);
    }
    vec![t1, t2, t3, t4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_small_sets_leak_more() {
        let tables = run(true);
        let t1 = &tables[0];
        let auc_small: f32 = t1.rows[0][3].parse().unwrap();
        let auc_large: f32 = t1.rows[1][3].parse().unwrap();
        // Smaller training sets leak at least as much (allowing noise).
        assert!(auc_small >= auc_large - 0.15, "{auc_small} vs {auc_large}");
        assert!(auc_small > 0.55, "small-set AUC {auc_small}");
        crate::exp::golden::assert_quick("e9", &tables);
    }
}
