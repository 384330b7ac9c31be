//! E4 — Lake benchmarking and lifelong benchmarks (§3 Benchmarking; §5
//! lifelong benchmarks). Leaderboards across the lake, the incremental-
//! evaluation saving of the lifelong pool, and subsampled-estimate accuracy.

use crate::table::{f3, Table};
use mlake_benchlab::LifelongBenchmark;
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, tabular, Domain, LakeSpec};
use mlake_tensor::Seed;

/// Runs E4.
pub fn run(quick: bool) -> Vec<Table> {
    let spec = if quick {
        LakeSpec::tiny(13)
    } else {
        LakeSpec::builder()
            .seed(13)
            .num_base_models(8)
            .derivations_per_base(4)
            .build()
            .expect("valid spec")
    };
    let gt = generate_lake(&spec);
    let lake = ModelLake::new(LakeConfig::builder().name("e4-lake").build().expect("valid config"));
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).expect("populate");

    // ---- Table 1: leaderboard head for the legal holdout ---------------
    let lb = lake.leaderboard("legal-holdout").expect("leaderboard");
    let mut t1 = Table::new(
        format!(
            "E4a: leaderboard 'legal-holdout' (top 5 of {}, {} inapplicable)",
            lb.rows.len(),
            lb.skipped.len()
        ),
        &["rank", "model", "accuracy", "true domain"],
    );
    for (rank, row) in lb.rows.iter().take(5).enumerate() {
        let name = lake.entry(ModelId(row.model_id)).expect("entry").name;
        let true_domain = gt.models[row.model_id as usize].domain.name().to_string();
        t1.row(vec![
            (rank + 1).to_string(),
            name,
            f3(row.score.value),
            true_domain,
        ]);
    }

    // ---- Table 2: lifelong benchmark incremental-evaluation savings ----
    let domain = Domain::new("legal");
    let spec_tab = tabular::TabularSpec::default();
    let root = Seed::new(spec.seed);
    let mut pool = LifelongBenchmark::new();
    let models: Vec<_> = (0..lake.len())
        .map(|i| lake.model(ModelId(i as u64)).expect("model"))
        .filter(|m| m.as_mlp().is_some())
        .collect();
    let rounds = if quick { 3 } else { 5 };
    let probes_per_round = if quick { 30 } else { 60 };
    let mut t2 = Table::new(
        format!(
            "E4b: lifelong benchmark over {} classifiers, {} probes/round",
            models.len(),
            probes_per_round
        ),
        &["round", "pool size", "evals (lifelong)", "evals (naive)", "saving"],
    );
    let mut naive = 0u64;
    for round in 0..rounds {
        let batch = tabular::sample_tabular(
            &domain,
            &spec_tab,
            probes_per_round,
            root,
            Seed::new(1000 + round as u64),
        );
        pool.extend(&batch);
        for (i, m) in models.iter().enumerate() {
            pool.accuracy(i as u64, m).expect("pool accuracy");
        }
        // A naive benchmark re-evaluates every probe for every model.
        naive += (pool.len() * models.len()) as u64;
        let lifelong = pool.evaluations();
        t2.row(vec![
            (round + 1).to_string(),
            pool.len().to_string(),
            lifelong.to_string(),
            naive.to_string(),
            format!("{:.1}x", naive as f64 / lifelong.max(1) as f64),
        ]);
    }

    // ---- Table 3: subsampled estimator error vs sample size -------------
    let mut t3 = Table::new(
        "E4c: sampled accuracy estimate vs full evaluation (first classifier)",
        &["sample size", "estimate", "95% half-width", "|error|"],
    );
    if let Some(m) = models.first() {
        let truth = pool.accuracy(0, m).expect("full accuracy");
        let mut rng = Seed::new(77).rng();
        for &s in &[10usize, 25, 50] {
            let (est, half) = pool.sampled_accuracy(m, s, &mut rng).expect("sampled");
            t3.row(vec![
                s.to_string(),
                f3(est),
                f3(half),
                f3((est - truth).abs()),
            ]);
        }
    }
    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_savings_grow_with_rounds() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        let t2 = &tables[1];
        // Lifelong evaluations strictly fewer than naive after round 2.
        let lifelong: u64 = t2.rows.last().unwrap()[2].parse().unwrap();
        let naive: u64 = t2.rows.last().unwrap()[3].parse().unwrap();
        assert!(lifelong < naive, "{lifelong} !< {naive}");
        // Leaderboard table has rows with parsable accuracy.
        let acc: f32 = tables[0].rows[0][2].parse().unwrap();
        assert!((0.0..=1.0).contains(&acc));
        crate::exp::golden::assert_quick("e4", &tables);
    }
}
