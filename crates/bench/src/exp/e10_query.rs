//! E10 — Declarative model search (§6). An MLQL query suite over the
//! populated lake: answer correctness against directly computed ground
//! truth, plus per-query plans and latencies.

use crate::table::{ms, Table};
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use std::time::Instant;

struct Case {
    name: &'static str,
    mlql: String,
    expected: Vec<u64>,
    /// Whether order matters for correctness.
    ordered: bool,
}

fn build_cases(lake: &ModelLake, gt: &GroundTruth) -> Vec<Case> {
    let n = gt.models.len();
    let mut cases = Vec::new();

    // 1. Domain filter: "models for legal documents" (Example 1.1).
    let legal: Vec<u64> = (0..n)
        .filter(|&i| gt.models[i].domain.name() == "legal")
        .map(|i| i as u64)
        .collect();
    cases.push(Case {
        name: "domain filter",
        mlql: "FIND MODELS WHERE domain = 'legal'".into(),
        expected: legal,
        ordered: false,
    });

    // 2. Trained on dataset, including versions (§5 holistic management).
    let ds = &gt.datasets[0].name;
    let expected: Vec<u64> = gt
        .trained_on_dataset_or_versions(gt.datasets[0].id)
        .into_iter()
        .map(|i| i as u64)
        .collect();
    cases.push(Case {
        name: "trained-on (with versions)",
        mlql: format!("FIND MODELS TRAINED ON DATASET '{ds}' INCLUDING VERSIONS"),
        expected,
        ordered: false,
    });

    // 3. Transform filter from card metadata.
    let lora: Vec<u64> = (0..n)
        .filter(|&i| {
            gt.models[i]
                .transform
                .is_some_and(|t| t.name() == "finetune")
        })
        .map(|i| i as u64)
        .collect();
    cases.push(Case {
        name: "transform filter",
        mlql: "FIND MODELS WHERE transform = 'finetune'".into(),
        expected: lora,
        ordered: false,
    });

    // 4. Outperform join: models beating model 0 on its own holdout.
    let bench = format!("{}-holdout", gt.models[0].domain.name());
    let lb = lake.leaderboard(&bench).expect("leaderboard");
    let expected = lb.outperformers(0);
    cases.push(Case {
        name: "outperform join",
        mlql: format!(
            "FIND MODELS OUTPERFORM MODEL '{}' ON BENCHMARK '{bench}'",
            gt.models[0].name
        ),
        expected,
        ordered: false,
    });

    // 5. Ranked leaderboard query (ordered).
    let applicable: Vec<u64> = lb.rows.iter().map(|r| r.model_id).take(3).collect();
    cases.push(Case {
        name: "order by score",
        mlql: format!("FIND MODELS ORDER BY score('{bench}') DESC LIMIT 3"),
        expected: applicable,
        ordered: true,
    });

    // 6. Compound: legal classifiers excluding bases.
    let expected: Vec<u64> = (0..n)
        .filter(|&i| {
            gt.models[i].domain.name() == "legal"
                && gt.models[i].transform.is_some()
                && gt.models[i].model.as_mlp().is_some()
        })
        .map(|i| i as u64)
        .collect();
    cases.push(Case {
        name: "compound filter",
        // `transform != ''` is true only when the field exists (missing
        // fields never match), i.e. only for derived models.
        mlql: "FIND MODELS WHERE domain = 'legal' AND task = 'classification' \
               AND transform != ''"
            .into(),
        expected,
        ordered: false,
    });
    cases
}

/// Runs E10.
pub fn run(quick: bool) -> Vec<Table> {
    let spec = if quick {
        LakeSpec::tiny(29)
    } else {
        LakeSpec::builder()
            .seed(29)
            .num_base_models(8)
            .derivations_per_base(4)
            .build()
            .expect("valid spec")
    };
    let gt = generate_lake(&spec);
    let config = LakeConfig::builder().name("e10-lake").build().expect("valid config");
    let lake = ModelLake::new(config);
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).expect("populate");
    lake.rebuild_version_graph(Some(
        (0..gt.models.len())
            .filter(|&i| gt.models[i].depth == 0)
            .map(|i| ModelId(i as u64))
            .collect(),
    ))
    .expect("graph");

    let mut t = Table::new(
        format!("E10: MLQL query suite over {} models", gt.models.len()),
        &["query", "correct", "results", "latency", "plan head"],
    )
    .timing(&["latency"]);
    for case in build_cases(&lake, &gt) {
        // Parse once; run and explain share the prepared handle.
        let prepared = lake.prepare(&case.mlql).expect("query parses");
        let t0 = Instant::now();
        let hits = prepared.run().expect("query runs");
        let latency = t0.elapsed();
        // A second execution of the same handle must agree exactly.
        let rerun = prepared.run().expect("rerun");
        assert_eq!(hits, rerun, "prepared query '{}' not stable", case.name);
        let got: Vec<u64> = hits.iter().map(|h| h.id).collect();
        let correct = if case.ordered {
            got == case.expected
        } else {
            let mut a = got.clone();
            let mut b = case.expected.clone();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        };
        let plan = prepared.explain();
        t.row(vec![
            case.name.into(),
            if correct { "yes".into() } else { format!("NO ({got:?} vs {:?})", case.expected) },
            got.len().to_string(),
            ms(latency),
            plan[0].chars().take(40).collect(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_all_queries_correct() {
        let tables = run(true);
        let t = &tables[0];
        assert!(t.rows.len() >= 5);
        for row in &t.rows {
            assert_eq!(row[1], "yes", "query '{}' incorrect: {}", row[0], row[1]);
        }
        crate::exp::golden::assert_quick("e10", &tables);
    }
}
