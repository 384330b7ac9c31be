//! E7 — Documentation generation and card verification (§6 Document
//! Generation; §4 PoisonGPT). Two measurements:
//! (a) auto-generating cards for an undocumented lake: completeness and
//!     agreement with hidden ground truth;
//! (b) corrupting honest cards and measuring verification detection
//!     precision/recall per corruption type.

use crate::table::{f3, Table};
use mlake_cards::corrupt::{corrupt_card, CardCorruption};
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{honest_card, populate_from_ground_truth, CardPolicy};
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_tensor::Pcg64;

/// Runs E7.
pub fn run(quick: bool) -> Vec<Table> {
    let spec = if quick {
        LakeSpec::tiny(19)
    } else {
        LakeSpec::builder()
            .seed(19)
            .num_base_models(8)
            .derivations_per_base(4)
            .build()
            .expect("valid spec")
    };
    let gt = generate_lake(&spec);
    let n = gt.models.len();

    // ---- (a) document generation on an undocumented lake ----------------
    let lake = ModelLake::new(LakeConfig::builder().name("e7-lake").build().expect("valid config"));
    populate_from_ground_truth(&lake, &gt, CardPolicy::Skeleton).expect("populate");
    let known: Vec<ModelId> = (0..n)
        .filter(|&i| gt.models[i].depth == 0)
        .map(|i| ModelId(i as u64))
        .collect();
    lake.rebuild_version_graph(Some(known)).expect("graph");

    let mut completeness_before = 0.0f32;
    let mut completeness_after = 0.0f32;
    let mut domain_correct = 0usize;
    let mut domain_predicted = 0usize;
    let mut lineage_correct = 0usize;
    let mut lineage_predicted = 0usize;
    for i in 0..n {
        let id = ModelId(i as u64);
        completeness_before += lake.entry(id).expect("entry").card.completeness();
        let card = lake.generate_card(id).expect("generate");
        completeness_after += card.completeness();
        if let Some(d) = card.domains.first() {
            domain_predicted += 1;
            if d == gt.models[i].domain.name() {
                domain_correct += 1;
            }
        }
        if let Some(base) = &card.lineage.base_model {
            lineage_predicted += 1;
            if let Some(e) = gt.edges.iter().find(|e| e.child == i) {
                if base == &gt.models[e.parent].name {
                    lineage_correct += 1;
                }
            }
        }
    }
    let mut t1 = Table::new(
        format!("E7a: auto-generated cards for an undocumented lake ({n} models)"),
        &["measure", "value"],
    );
    t1.row(vec!["mean completeness before".into(), f3(completeness_before / n as f32)]);
    t1.row(vec!["mean completeness after".into(), f3(completeness_after / n as f32)]);
    t1.row(vec![
        "domain prediction accuracy".into(),
        format!("{domain_correct}/{domain_predicted}"),
    ]);
    t1.row(vec![
        "lineage (base) accuracy".into(),
        format!("{lineage_correct}/{lineage_predicted}"),
    ]);

    // ---- (b) card verification against corruption -----------------------
    let lake = ModelLake::new(LakeConfig::builder().name("e7-honest-lake").build().expect("valid config"));
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).expect("populate");
    let known: Vec<ModelId> = (0..n)
        .filter(|&i| gt.models[i].depth == 0)
        .map(|i| ModelId(i as u64))
        .collect();
    lake.rebuild_version_graph(Some(known)).expect("graph");

    // Honest cards with *truthful measured metric claims*: the honest
    // uploader reports exactly what the lake re-measures, so metric
    // inflation becomes a real (detectable) lie.
    let truthful_cards: Vec<_> = (0..n)
        .map(|i| {
            let id = ModelId(i as u64);
            let mut card = honest_card(&gt, i);
            card.metrics = lake
                .evidence_for(id)
                .expect("evidence")
                .measured_metrics;
            card
        })
        .collect();

    // Paired design: the verifier's evidence (recovered lineage, predicted
    // domain) is itself imperfect, so a model's corrupted card is compared
    // against its own honest card — detection means the corruption *adds*
    // contradictions.
    let contradictions_of = |i: usize, card: &mlake_cards::ModelCard| -> usize {
        let id = ModelId(i as u64);
        lake.update_card(id, card.clone()).expect("card");
        lake.verify_model_card(id).expect("verify").contradictions()
    };
    let honest_baseline: Vec<usize> = (0..n)
        .map(|i| contradictions_of(i, &truthful_cards[i]))
        .collect();
    let honest_fp = honest_baseline.iter().filter(|&&c| c > 0).count();

    let mut t2 = Table::new(
        format!(
            "E7b: paired verification of corrupted cards (honest cards flagged: {honest_fp}/{n})"
        ),
        &["corruption", "detected (added contradictions)", "detection rate"],
    );
    let mut rng = Pcg64::new(5);
    for corruption in CardCorruption::ALL {
        if !corruption.is_deceptive() {
            continue;
        }
        let mut caught = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            let honest = &truthful_cards[i];
            let alt_model = gt.models[rng.index(n)].name.clone();
            let bad = corrupt_card(honest, corruption, &alt_model, "travel");
            // Skip no-op corruptions (e.g. false base on a base model, or a
            // randomly drawn "false" base equal to the true one).
            if bad == *honest {
                continue;
            }
            total += 1;
            if contradictions_of(i, &bad) > honest_baseline[i] {
                caught += 1;
            }
        }
        t2.row(vec![
            corruption.name().into(),
            format!("{caught}/{total}"),
            f3(caught as f32 / total.max(1) as f32),
        ]);
    }
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_generation_improves_completeness() {
        let tables = run(true);
        let t1 = &tables[0];
        let before: f32 = t1.rows[0][1].parse().unwrap();
        let after: f32 = t1.rows[1][1].parse().unwrap();
        assert!(after > before + 0.3, "completeness {before} -> {after}");
        // Verification catches a decent share of metric inflation.
        let t2 = &tables[1];
        let inflate = t2
            .rows
            .iter()
            .find(|r| r[0] == "inflate-metrics")
            .expect("row exists");
        let detection: f32 = inflate[2].parse().unwrap();
        assert!(detection > 0.5, "inflate detection {detection}");
        crate::exp::golden::assert_quick("e7", &tables);
    }
}
