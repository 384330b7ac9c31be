//! E1 — Version-graph recovery (§3 Model Versioning; Horwitz et al., Mu et
//! al.). Recover the directed model graph of the benchmark lake and score
//! edge precision/recall/F1, direction accuracy and transform-kind accuracy
//! against recorded ground truth, versus baselines, and what recovery costs
//! as the lake grows.

use super::median_time;
use crate::table::{f3, ms, Table};
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use mlake_fingerprint::extrinsic::ProbeSet;
use mlake_tensor::Seed;
use mlake_versioning::graph::{evaluate, GraphEval, RecoveredEdge, RecoveredGraph, TrueEdge};
use mlake_versioning::recover::{random_baseline, recover_graph, RecoveryMemo, RecoveryOptions};
use mlake_versioning::TransformKind;
use std::convert::Infallible;
use std::hint::black_box;
use std::time::Instant;

/// Standard probe set matching the generated lake geometry.
pub fn lake_probes(seed: u64) -> ProbeSet {
    ProbeSet::standard(8, 32, 2.5, 24, 16, 2, Seed::new(seed).derive("e1-probes"))
}

/// Ground-truth edges in the evaluator's format.
pub fn truth_edges(gt: &GroundTruth) -> Vec<TrueEdge> {
    gt.edges
        .iter()
        .map(|e| TrueEdge {
            parent: e.parent,
            child: e.child,
            kind: e.kind,
            second_parent: e.second_parent,
        })
        .collect()
}

/// Metadata-only baseline: attach every derived-looking model (name carries a
/// transform token) to the base model sharing its name's domain prefix —
/// what hub keyword search supports today (§4 Model Search and Discovery).
pub fn metadata_baseline(gt: &GroundTruth) -> RecoveredGraph {
    let mut edges = Vec::new();
    let mut roots = Vec::new();
    for (i, m) in gt.models.iter().enumerate() {
        let is_base = m.name.contains("-base-");
        if is_base {
            roots.push(i);
            continue;
        }
        let domain_prefix = m.name.split('-').next().unwrap_or_default();
        let parent = gt
            .models
            .iter()
            .position(|c| c.name.contains("-base-") && c.name.starts_with(domain_prefix));
        if let Some(p) = parent {
            let kind = TransformKind::ALL
                .iter()
                .copied()
                .find(|k| m.name.contains(k.name()))
                .unwrap_or(TransformKind::FineTune);
            edges.push(RecoveredEdge {
                parent: p,
                child: i,
                kind,
                second_parent: None,
                distance: 0.5,
            });
        } else {
            roots.push(i);
        }
    }
    RecoveredGraph {
        num_models: gt.models.len(),
        edges,
        roots,
    }
}

fn eval_row(t: &mut Table, method: &str, ev: &GraphEval) {
    t.row(vec![
        method.into(),
        f3(ev.edge_precision),
        f3(ev.edge_recall),
        f3(ev.edge_f1),
        f3(ev.direction_accuracy),
        f3(ev.kind_accuracy),
        format!("{}/{}", ev.recovered, ev.truth),
    ]);
}

/// Runs E1.
pub fn run(quick: bool) -> Vec<Table> {
    let spec = if quick {
        LakeSpec::tiny(7)
    } else {
        LakeSpec::builder()
            .seed(7)
            .num_base_models(10)
            .derivations_per_base(5)
            .build()
            .expect("valid spec")
    };
    let gt = generate_lake(&spec);
    let models: Vec<_> = gt.models.iter().map(|m| m.model.clone()).collect();
    let probes = lake_probes(spec.seed);
    let truth = truth_edges(&gt);
    let known: Vec<usize> = (0..gt.models.len())
        .filter(|&i| gt.models[i].depth == 0)
        .collect();

    let mut t = Table::new(
        format!(
            "E1: version-graph recovery ({} models, {} true edges)",
            gt.models.len(),
            truth.len()
        ),
        &[
            "method",
            "edge-P",
            "edge-R",
            "edge-F1",
            "direction",
            "kind-acc",
            "edges",
        ],
    );

    let known_roots = recover_graph(
        &models,
        Some(&probes),
        &RecoveryOptions {
            known_roots: Some(known.clone()),
            ..Default::default()
        },
    );
    eval_row(&mut t, "weights+behavior (known roots)", &evaluate(&known_roots, &truth));

    let blind = recover_graph(&models, Some(&probes), &RecoveryOptions::default());
    eval_row(&mut t, "weights+behavior (blind/Edmonds)", &evaluate(&blind, &truth));

    let intrinsic_only = recover_graph(
        &models,
        None,
        &RecoveryOptions {
            known_roots: Some(known.clone()),
            ..Default::default()
        },
    );
    eval_row(&mut t, "weights only (known roots)", &evaluate(&intrinsic_only, &truth));

    eval_row(&mut t, "metadata names (keyword baseline)", &evaluate(&metadata_baseline(&gt), &truth));
    eval_row(
        &mut t,
        "random parent (floor)",
        &evaluate(&random_baseline(models.len(), known.len(), 3), &truth),
    );

    // Second table: per-transform recall of the best method.
    let mut t2 = Table::new(
        "E1b: per-transform edge recall (known-roots recovery)",
        &["transform", "true edges", "recovered", "kind correct"],
    );
    for kind in TransformKind::ALL {
        let true_of_kind: Vec<&TrueEdge> = truth.iter().filter(|e| e.kind == kind).collect();
        if true_of_kind.is_empty() {
            continue;
        }
        let mut found = 0usize;
        let mut kind_ok = 0usize;
        for te in &true_of_kind {
            if let Some(re) = known_roots
                .edges
                .iter()
                .find(|r| (r.parent == te.parent && r.child == te.child) || (r.parent == te.child && r.child == te.parent))
            {
                found += 1;
                if re.kind == kind && re.parent == te.parent {
                    kind_ok += 1;
                }
            }
        }
        t2.row(vec![
            kind.name().into(),
            true_of_kind.len().to_string(),
            found.to_string(),
            kind_ok.to_string(),
        ]);
    }
    vec![t, t2, cost_ladder(quick)]
}

/// E1c: recovery cost over a lake-size ladder, so E1's cost has a scaling
/// exponent and not a point: the tiny test lake, then 20 and 40 base models
/// × 5 derivations (120 and 240 models; 240 is the shape and seed of
/// lakebench's `lineage-tasks` lake). `attach one` is what a lake of n − 1
/// recovered models pays for its n-th: the memo over the first n − 1 is
/// cloned off the clock. The quick run keeps the tiny rung only.
fn cost_ladder(quick: bool) -> Table {
    let ladder = |bases: usize| {
        LakeSpec::builder()
            .seed(2025)
            .num_base_models(bases)
            .derivations_per_base(5)
            .build()
            .expect("valid ladder rung")
    };
    let specs = if quick {
        vec![LakeSpec::tiny(3)]
    } else {
        vec![LakeSpec::tiny(3), ladder(20), ladder(40)]
    };
    let reps = if quick { 1 } else { 5 };
    let cost = ["known roots", "blind (Edmonds)", "attach one"];
    let mut t = Table::new(
        "E1c: recovery cost by lake size (median wall-clock)",
        &["models", cost[0], cost[1], cost[2]],
    )
    .timing(&cost);
    for spec in specs {
        let gt = generate_lake(&spec);
        let models: Vec<_> = gt.models.iter().map(|m| m.model.clone()).collect();
        let probes = lake_probes(spec.seed);
        let n = models.len();
        let known_roots = RecoveryOptions {
            known_roots: Some((0..n).filter(|&i| gt.models[i].depth == 0).collect()),
            ..Default::default()
        };
        let recover = |opts: &RecoveryOptions| {
            median_time(reps, || {
                let t0 = Instant::now();
                black_box(recover_graph(&models, Some(&probes), opts));
                t0.elapsed()
            })
        };
        let load = |i: usize| Ok::<_, Infallible>(&models[i]);
        let mut memo = RecoveryMemo::new(RecoveryOptions::default());
        memo.extend(n - 1, Some(&probes), load).expect("infallible loader");
        let attach = median_time(reps, || {
            let mut memo = memo.clone();
            let t0 = Instant::now();
            black_box(memo.extend(n, Some(&probes), load).expect("infallible loader"));
            t0.elapsed()
        });
        t.row(vec![
            n.to_string(),
            ms(recover(&known_roots)),
            ms(recover(&RecoveryOptions::default())),
            ms(attach),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_runs_and_orders_methods() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 5);
        // F1 of the known-roots method beats the random floor.
        let f1_of = |row: usize| t.rows[row][3].parse::<f32>().unwrap();
        assert!(f1_of(0) > f1_of(4), "{} !> {}", f1_of(0), f1_of(4));
        crate::exp::golden::assert_quick("e1", &tables);
    }

    #[test]
    fn metadata_baseline_wellformed() {
        let gt = generate_lake(&LakeSpec::tiny(3));
        let g = metadata_baseline(&gt);
        assert_eq!(g.num_models, gt.models.len());
        for e in &g.edges {
            assert!(e.parent < gt.models.len());
            assert!(e.child < gt.models.len());
        }
    }
}
