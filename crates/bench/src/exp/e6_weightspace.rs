//! E6 — Weight-space modeling (§5; Eilertsen et al., Schürholt et al.,
//! Zhou et al.). Train property classifiers on intrinsic fingerprints alone
//! (no behavioural access) to predict domain, model family and transform
//! kind; check the fine-tuned-sibling linear-connectivity observation.

use crate::table::{f3, Table};
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_fingerprint::weightspace::{majority_baseline, PropertyClassifier, WeightSpaceConfig};
use mlake_fingerprint::{model_dna, moment_features, structural_features};
use mlake_tensor::{vector, Pcg64};

/// Runs E6.
pub fn run(quick: bool) -> Vec<Table> {
    // A larger population than the other experiments: weight-space models
    // need samples.
    let spec = if quick {
        LakeSpec {
            seed: 17,
            num_base_models: 6,
            derivations_per_base: 4,
            ..LakeSpec::tiny(17)
        }
    } else {
        LakeSpec::builder()
            .seed(17)
            .num_base_models(16)
            .derivations_per_base(7)
            .build()
            .expect("valid spec")
    };
    let gt = generate_lake(&spec);
    let n = gt.models.len();

    // Features: Model DNA plus structural statistics (weights only).
    let features: Vec<Vec<f32>> = gt
        .models
        .iter()
        .map(|m| {
            let mut f = model_dna(&m.model, 48, 7);
            f.extend_from_slice(&structural_features(&m.model));
            f
        })
        .collect();

    // Train/test split.
    let mut rng = Pcg64::new(9);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let cut = (n * 7) / 10;
    let (train_idx, test_idx) = order.split_at(cut);

    let mut t = Table::new(
        format!("E6: weight-space property prediction ({n} models, 70/30 split)"),
        &["property", "weight-space acc", "majority baseline", "classes"],
    );

    let properties: Vec<(&str, Vec<String>)> = vec![
        (
            "domain",
            gt.models.iter().map(|m| m.domain.name().to_string()).collect(),
        ),
        (
            "family",
            gt.models.iter().map(|m| format!("f{}", m.family)).collect(),
        ),
        (
            "transform",
            gt.models
                .iter()
                .map(|m| {
                    m.transform
                        .map(|k| k.name().to_string())
                        .unwrap_or_else(|| "base".into())
                })
                .collect(),
        ),
    ];
    for (name, labels) in &properties {
        let train_f: Vec<Vec<f32>> = train_idx.iter().map(|&i| features[i].clone()).collect();
        let train_l: Vec<&str> = train_idx.iter().map(|&i| labels[i].as_str()).collect();
        let test_f: Vec<Vec<f32>> = test_idx.iter().map(|&i| features[i].clone()).collect();
        let test_l: Vec<&str> = test_idx.iter().map(|&i| labels[i].as_str()).collect();
        let clf = PropertyClassifier::train(
            &train_f,
            &train_l,
            &WeightSpaceConfig {
                hidden: 24,
                epochs: if quick { 40 } else { 120 },
                ..Default::default()
            },
        )
        .expect("train weight-space classifier");
        let acc = clf.accuracy(&test_f, &test_l).expect("accuracy");
        t.row(vec![
            name.to_string(),
            f3(acc),
            f3(majority_baseline(&test_l)),
            clf.labels().len().to_string(),
        ]);
    }

    // ---- Linear connectivity between fine-tuned siblings ----------------
    // Zhou et al. observe fine-tuned children of one base lie in a nearly
    // linear region: delta directions of siblings correlate far more than
    // those of unrelated models.
    let mut sib_cos = Vec::new();
    let mut unrel_cos = Vec::new();
    for e1 in &gt.edges {
        for e2 in &gt.edges {
            if e1.child >= e2.child {
                continue;
            }
            let (p1, c1) = (&gt.models[e1.parent].model, &gt.models[e1.child].model);
            let (p2, c2) = (&gt.models[e2.parent].model, &gt.models[e2.child].model);
            let (f1, f2) = (p1.flat_params(), p2.flat_params());
            if f1.len() != c1.flat_params().len() || f2.len() != c2.flat_params().len() {
                continue;
            }
            let d1: Vec<f32> = c1.flat_params().iter().zip(&f1).map(|(a, b)| a - b).collect();
            let d2: Vec<f32> = c2.flat_params().iter().zip(&f2).map(|(a, b)| a - b).collect();
            if d1.len() != d2.len() || vector::l2_norm(&d1) == 0.0 || vector::l2_norm(&d2) == 0.0 {
                continue;
            }
            let cos = vector::cosine_similarity(&d1, &d2).abs();
            if e1.parent == e2.parent {
                sib_cos.push(cos);
            } else {
                unrel_cos.push(cos);
            }
        }
    }
    let mut t2 = Table::new(
        "E6b: delta-direction alignment (|cos| of weight deltas)",
        &["pair type", "pairs", "mean |cos|"],
    );
    t2.row(vec![
        "siblings (same parent)".into(),
        sib_cos.len().to_string(),
        f3(vector::mean(&sib_cos)),
    ]);
    t2.row(vec![
        "unrelated derivations".into(),
        unrel_cos.len().to_string(),
        f3(vector::mean(&unrel_cos)),
    ]);

    // Moment-only ablation: 8 features instead of full DNA.
    let mut t3 = Table::new(
        "E6c: ablation — moment features only (8-d) vs full Model DNA",
        &["features", "domain acc"],
    );
    let labels: Vec<String> = gt.models.iter().map(|m| m.domain.name().to_string()).collect();
    for (fname, feats) in [
        (
            "moments only (8)",
            gt.models
                .iter()
                .map(|m| moment_features(&m.model).to_vec())
                .collect::<Vec<_>>(),
        ),
        ("DNA + structural (8+48+6)", features.clone()),
    ] {
        let train_f: Vec<Vec<f32>> = train_idx.iter().map(|&i| feats[i].clone()).collect();
        let train_l: Vec<&str> = train_idx.iter().map(|&i| labels[i].as_str()).collect();
        let test_f: Vec<Vec<f32>> = test_idx.iter().map(|&i| feats[i].clone()).collect();
        let test_l: Vec<&str> = test_idx.iter().map(|&i| labels[i].as_str()).collect();
        let clf = PropertyClassifier::train(
            &train_f,
            &train_l,
            &WeightSpaceConfig {
                hidden: 24,
                epochs: if quick { 40 } else { 120 },
                ..Default::default()
            },
        )
        .expect("train");
        t3.row(vec![fname.into(), f3(clf.accuracy(&test_f, &test_l).expect("acc"))]);
    }
    vec![t, t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_runs_and_siblings_align_more() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        let t2 = &tables[1];
        let sib: f32 = t2.rows[0][2].parse().unwrap();
        let unrel: f32 = t2.rows[1][2].parse().unwrap();
        // Sibling deltas align at least as much as unrelated ones.
        assert!(sib >= unrel - 0.05, "sibling {sib} vs unrelated {unrel}");
        crate::exp::golden::assert_quick("e6", &tables);
    }
}
