//! E8 — Auditing and citation (§6). Audit coverage under three
//! documentation regimes (skeleton / honest / auto-generated), and citation
//! stability under lake evolution.

use crate::table::{f3, Table};
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, LakeSpec};

fn mean_coverage(lake: &ModelLake, n: usize) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..n {
        acc += lake.audit_model(ModelId(i as u64)).expect("audit").coverage();
    }
    acc / n as f32
}

/// Runs E8.
pub fn run(quick: bool) -> Vec<Table> {
    let spec = if quick {
        LakeSpec::tiny(23)
    } else {
        LakeSpec::builder()
            .seed(23)
            .num_base_models(8)
            .derivations_per_base(4)
            .build()
            .expect("valid spec")
    };
    let gt = generate_lake(&spec);
    let n = gt.models.len();
    let known: Vec<ModelId> = (0..n)
        .filter(|&i| gt.models[i].depth == 0)
        .map(|i| ModelId(i as u64))
        .collect();

    let mut t1 = Table::new(
        format!("E8a: audit coverage by documentation regime ({n} models)"),
        &["regime", "mean audit coverage"],
    );
    // Skeleton cards.
    let lake = ModelLake::new(LakeConfig::builder().name("e8-lake").build().expect("valid config"));
    populate_from_ground_truth(&lake, &gt, CardPolicy::Skeleton).expect("populate");
    lake.rebuild_version_graph(Some(known.clone())).expect("graph");
    t1.row(vec!["undocumented (skeleton cards)".into(), f3(mean_coverage(&lake, n))]);
    // Auto-generated cards installed on the same lake.
    for i in 0..n {
        let id = ModelId(i as u64);
        let card = lake.generate_card(id).expect("generate");
        lake.update_card(id, card).expect("update");
    }
    t1.row(vec!["lake auto-generated cards".into(), f3(mean_coverage(&lake, n))]);
    // Honest uploads.
    let honest = ModelLake::new(LakeConfig::builder().name("e8-honest-lake").build().expect("valid config"));
    populate_from_ground_truth(&honest, &gt, CardPolicy::Honest).expect("populate");
    honest.rebuild_version_graph(Some(known.clone())).expect("graph");
    t1.row(vec!["honest uploaded cards".into(), f3(mean_coverage(&honest, n))]);

    // ---- citation stability ---------------------------------------------
    let mut t2 = Table::new(
        "E8b: citation keys under lake evolution",
        &["event", "graph timestamp", "citation key (model 1)"],
    );
    let c0 = honest.cite(ModelId(1)).expect("cite");
    t2.row(vec!["initial graph".into(), c0.graph_timestamp.to_string(), c0.key()]);
    // New model arrives; graph rebuilt; citations change.
    honest
        .ingest_model("late-arrival", &gt.models[0].model, None)
        .expect("ingest");
    honest.rebuild_version_graph(Some(known)).expect("graph");
    let c1 = honest.cite(ModelId(1)).expect("cite");
    t2.row(vec![
        "after ingest + rebuild".into(),
        c1.graph_timestamp.to_string(),
        c1.key(),
    ]);
    // Non-graph event: card update leaves the citation stable.
    let entry_card = honest.entry(ModelId(1)).expect("entry").card;
    honest.update_card(ModelId(1), entry_card).expect("update");
    let c2 = honest.cite(ModelId(1)).expect("cite");
    t2.row(vec![
        "after card-only update".into(),
        c2.graph_timestamp.to_string(),
        c2.key(),
    ]);
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_coverage_ordering_and_citation_stability() {
        let tables = run(true);
        let t1 = &tables[0];
        let skeleton: f32 = t1.rows[0][1].parse().unwrap();
        let generated: f32 = t1.rows[1][1].parse().unwrap();
        assert!(generated > skeleton, "{generated} !> {skeleton}");
        let t2 = &tables[1];
        // Graph change bumps the key; card-only update does not.
        assert_ne!(t2.rows[0][2], t2.rows[1][2]);
        assert_eq!(t2.rows[1][2], t2.rows[2][2]);
        crate::exp::golden::assert_quick("e8", &tables);
    }
}
