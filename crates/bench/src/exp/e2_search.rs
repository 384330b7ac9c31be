//! E2 — Content-based model search (§3 Model Search; Example 1.1; Lu et
//! al.'s model-as-query generalised). Every lake model is used as a query;
//! retrieval quality is graded against lineage/domain ground truth for each
//! fingerprint kind versus keyword and random baselines.

use crate::table::{f3, Table};
use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use mlake_fingerprint::FingerprintKind;
use mlake_tensor::Pcg64;

/// Precision@k of one ranked list against a relevance oracle.
fn precision_at_k(ranked: &[usize], relevant: impl Fn(usize) -> bool, k: usize) -> f32 {
    if k == 0 {
        return 0.0;
    }
    let hits = ranked.iter().take(k).filter(|&&m| relevant(m)).count();
    hits as f32 / k.min(ranked.len()).max(1) as f32
}

/// Reciprocal rank of the first relevant item.
fn reciprocal_rank(ranked: &[usize], relevant: impl Fn(usize) -> bool) -> f32 {
    ranked
        .iter()
        .position(|&m| relevant(m))
        .map(|r| 1.0 / (r + 1) as f32)
        .unwrap_or(0.0)
}

struct SearchQuality {
    p5_family: f32,
    p5_domain: f32,
    mrr_family: f32,
}

fn grade(gt: &GroundTruth, rankings: &[(usize, Vec<usize>)]) -> SearchQuality {
    let mut p5f = 0.0f32;
    let mut p5d = 0.0f32;
    let mut mrr = 0.0f32;
    let mut counted = 0usize;
    for (q, ranked) in rankings {
        let fam = gt.models[*q].family;
        let family_size = gt.family_members(fam).len() - 1;
        if family_size == 0 {
            continue;
        }
        counted += 1;
        let by_family = |m: usize| gt.models[m].family == fam;
        let by_domain = |m: usize| gt.relevance(*q, m) >= 1;
        let k = 5.min(family_size.max(1));
        p5f += precision_at_k(ranked, by_family, k);
        p5d += precision_at_k(ranked, by_domain, 5);
        mrr += reciprocal_rank(ranked, by_family);
    }
    let n = counted.max(1) as f32;
    SearchQuality {
        p5_family: p5f / n,
        p5_domain: p5d / n,
        mrr_family: mrr / n,
    }
}

/// Runs E2.
pub fn run(quick: bool) -> Vec<Table> {
    let spec = if quick {
        LakeSpec::tiny(11)
    } else {
        LakeSpec::builder()
            .seed(11)
            .num_base_models(10)
            .derivations_per_base(5)
            .build()
            .expect("valid spec")
    };
    let gt = generate_lake(&spec);
    let lake = ModelLake::new(LakeConfig::builder().name("e2-lake").build().expect("valid config"));
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).expect("populate");
    let n = gt.models.len();

    let mut t = Table::new(
        format!("E2: model-as-query search over {n} models (top-5)"),
        &["method", "P@5 (lineage)", "P@5 (domain)", "MRR (lineage)"],
    );

    for kind in FingerprintKind::ALL {
        let mut rankings = Vec::with_capacity(n);
        for q in 0..n {
            let hits = lake
                .similar(ModelId(q as u64), kind, 10)
                .expect("search succeeds");
            rankings.push((q, hits.into_iter().map(|(m, _)| m.0 as usize).collect()));
        }
        let sq = grade(&gt, &rankings);
        t.row(vec![
            format!("fingerprint: {}", kind.name()),
            f3(sq.p5_family),
            f3(sq.p5_domain),
            f3(sq.mrr_family),
        ]);
    }

    // Keyword baseline: rank by shared name tokens (hub search today).
    let mut rankings = Vec::with_capacity(n);
    for q in 0..n {
        let qtokens: Vec<&str> = gt.models[q].name.split('-').collect();
        let mut scored: Vec<(usize, usize)> = (0..n)
            .filter(|&m| m != q)
            .map(|m| {
                let overlap = gt.models[m]
                    .name
                    .split('-')
                    .filter(|tok| qtokens.contains(tok))
                    .count();
                (m, overlap)
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rankings.push((q, scored.into_iter().map(|(m, _)| m).take(10).collect()));
    }
    let sq = grade(&gt, &rankings);
    t.row(vec![
        "keyword overlap (hub baseline)".into(),
        f3(sq.p5_family),
        f3(sq.p5_domain),
        f3(sq.mrr_family),
    ]);

    // Random floor.
    let mut rng = Pcg64::new(99);
    let mut rankings = Vec::with_capacity(n);
    for q in 0..n {
        let mut others: Vec<usize> = (0..n).filter(|&m| m != q).collect();
        rng.shuffle(&mut others);
        others.truncate(10);
        rankings.push((q, others));
    }
    let sq = grade(&gt, &rankings);
    t.row(vec![
        "random (floor)".into(),
        f3(sq.p5_family),
        f3(sq.p5_domain),
        f3(sq.mrr_family),
    ]);

    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_runs_and_beats_random() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 5);
        let mrr = |r: usize| t.rows[r][3].parse::<f32>().unwrap();
        // Hybrid fingerprint must beat the random floor on lineage MRR.
        assert!(mrr(2) > mrr(4), "hybrid {} !> random {}", mrr(2), mrr(4));
        crate::exp::golden::assert_quick("e2", &tables);
    }

    #[test]
    fn grading_helpers() {
        assert_eq!(precision_at_k(&[1, 2, 3], |m| m == 2, 3), 1.0 / 3.0);
        assert_eq!(precision_at_k(&[], |_| true, 0), 0.0);
        assert_eq!(reciprocal_rank(&[5, 6, 7], |m| m == 7), 1.0 / 3.0);
        assert_eq!(reciprocal_rank(&[5], |_| false), 0.0);
    }
}
