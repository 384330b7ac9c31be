//! F1 — The three viewpoints of Figure 1 as a measured ablation: how well do
//! lake tasks work when only history, only intrinsics, or only extrinsics
//! are available? (§2: "there are cases where certain aspects may be
//! unavailable… we use this distinction to analyze possible solutions".)

use crate::exp::e1_versioning::{lake_probes, truth_edges};
use crate::table::{f3, Table};
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_fingerprint::FingerprintKind;
use mlake_versioning::graph::evaluate;
use mlake_versioning::recover::{recover_graph, RecoveryOptions};

/// Runs F1.
pub fn run(quick: bool) -> Vec<Table> {
    let spec = if quick {
        LakeSpec::tiny(37)
    } else {
        LakeSpec::builder()
            .seed(37)
            .num_base_models(8)
            .derivations_per_base(4)
            .build()
            .expect("valid spec")
    };
    let gt = generate_lake(&spec);
    let n = gt.models.len();
    let models: Vec<_> = gt.models.iter().map(|m| m.model.clone()).collect();
    let probes = lake_probes(spec.seed);
    let truth = truth_edges(&gt);
    let known: Vec<usize> = (0..n).filter(|&i| gt.models[i].depth == 0).collect();

    let mut t = Table::new(
        format!("F1: lake-task quality by available viewpoint ({n} models)"),
        &["viewpoint", "versioning F1", "search P@5 (lineage)", "notes"],
    );

    // --- history: ground truth is directly consultable -------------------
    t.row(vec![
        "history (D, A) recorded".into(),
        "1.000".into(),
        "1.000".into(),
        "provenance lookup, no inference needed".into(),
    ]);

    // --- intrinsics only: weights, no behaviour, no docs ------------------
    let g = recover_graph(
        &models,
        None,
        &RecoveryOptions {
            known_roots: Some(known.clone()),
            ..Default::default()
        },
    );
    let v_f1 = evaluate(&g, &truth).edge_f1;
    let p5 = search_p5(&gt, FingerprintKind::Intrinsic, quick);
    t.row(vec![
        "intrinsics only (f*, θ)".into(),
        f3(v_f1),
        f3(p5),
        "misses distilled children (no weight lineage)".into(),
    ]);

    // --- extrinsics only: behaviour probes, weights hidden ----------------
    let p5 = search_p5(&gt, FingerprintKind::Extrinsic, quick);
    t.row(vec![
        "extrinsics only (p_θ)".into(),
        "n/a".into(),
        f3(p5),
        "behavioural search; versioning direction unidentifiable".into(),
    ]);

    // --- both ------------------------------------------------------------
    let g = recover_graph(
        &models,
        Some(&probes),
        &RecoveryOptions {
            known_roots: Some(known),
            ..Default::default()
        },
    );
    let v_f1 = evaluate(&g, &truth).edge_f1;
    let p5 = search_p5(&gt, FingerprintKind::Hybrid, quick);
    t.row(vec![
        "intrinsics + extrinsics (hybrid)".into(),
        f3(v_f1),
        f3(p5),
        "the §5 hybrid-indexer recommendation".into(),
    ]);
    vec![t]
}

fn search_p5(gt: &mlake_datagen::GroundTruth, kind: FingerprintKind, _quick: bool) -> f32 {
    let lake = ModelLake::new(LakeConfig::builder().name("f1-lake").build().expect("valid config"));
    populate_from_ground_truth(&lake, gt, CardPolicy::Honest).expect("populate");
    let n = gt.models.len();
    let mut acc = 0.0f32;
    let mut counted = 0usize;
    for q in 0..n {
        let fam = gt.models[q].family;
        let family_size = gt.family_members(fam).len() - 1;
        if family_size == 0 {
            continue;
        }
        counted += 1;
        let k = 5.min(family_size);
        let hits = lake.similar(ModelId(q as u64), kind, k).expect("similar");
        let rel = hits
            .iter()
            .filter(|(m, _)| gt.models[m.0 as usize].family == fam)
            .count();
        acc += rel as f32 / k as f32;
    }
    acc / counted.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_hybrid_not_worse_than_parts() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4);
        let hybrid_p5: f32 = t.rows[3][2].parse().unwrap();
        let intrinsic_p5: f32 = t.rows[1][2].parse().unwrap();
        // Hybrid search should hold its own against intrinsic-only.
        assert!(hybrid_p5 >= intrinsic_p5 - 0.25);
        crate::exp::golden::assert_quick("f1", &tables);
    }
}
