//! MLQL planning and execution over an abstract [`QueryTarget`].
//!
//! The executor is lake-agnostic: `mlake-core` implements [`QueryTarget`]
//! and thereby exposes its indexes (metadata, vector, benchmark) to MLQL.
//! The planner's access-path choice — similarity index vs trained-on
//! relation vs benchmark join vs full scan — mirrors §6's "the model lake
//! framework can map the task function to a suitable indexer".

use crate::ast::{like_match, CmpOp, Expr, Literal, OrderKey, Query};
use crate::error::QueryError;
use std::borrow::Cow;

/// A typed field value exposed by the lake's metadata catalogue. Text is
/// borrowed from the catalogue where it is stored as is, so a scan compares
/// fields without copying them.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue<'a> {
    /// Textual field (name, domain, arch, transform, …).
    Str(Cow<'a, str>),
    /// Numeric field (depth, params, score:…).
    Num(f64),
    /// Multi-valued textual field (tags); `=`/`LIKE` match any element.
    StrList(Cow<'a, [String]>),
}

/// What the executor needs from a lake.
pub trait QueryTarget {
    /// All model ids, in stable order.
    fn all_models(&self) -> Vec<u64>;

    /// Metadata field of a model (`None` when undefined for the model).
    /// Recognised fields include `name`, `domain`, `arch`, `family`,
    /// `transform`, `depth`, `params`, `task`, and `score:<benchmark>`.
    fn field(&self, id: u64, field: &str) -> Option<FieldValue<'_>>;

    /// Up to `k` models most similar to `model` under fingerprint `using`
    /// ("weights" | "behavior" | "hybrid"), with similarity in `[0, 1]`,
    /// best first, excluding the query model itself.
    fn similar_models(
        &self,
        model: &str,
        using: &str,
        k: usize,
    ) -> Result<Vec<(u64, f32)>, QueryError>;

    /// Up to `k` models ranked by full-text relevance (BM25) against
    /// `query`, best first, score descending.
    fn text_search(&self, query: &str, k: usize) -> Result<Vec<(u64, f32)>, QueryError>;

    /// Models trained on `dataset` (optionally including derived versions).
    fn trained_on(&self, dataset: &str, include_versions: bool) -> Result<Vec<u64>, QueryError>;

    /// Models strictly outperforming `model` on `benchmark`.
    fn outperformers(&self, model: &str, benchmark: &str) -> Result<Vec<u64>, QueryError>;
}

/// One result row.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueryHit {
    /// Model id.
    pub id: u64,
    /// Similarity (when a SIMILAR TO clause ran).
    pub similarity: Option<f32>,
    /// BM25 relevance (when a MATCHES clause ran; absent in pre-§16
    /// serialized hits).
    #[serde(default)]
    pub text_score: Option<f32>,
    /// Ranking score (when ORDER BY score(...) ran).
    pub score: Option<f64>,
}

/// Candidate-pool size below which the metadata filter stays serial: the
/// pool dispatch overhead only pays for itself once per-row field lookups
/// amortize it.
const PAR_FILTER_MIN_POOL: usize = 32;

/// Executes `query` against `target`, returning ranked hits.
///
/// The metadata-filter stage is the executor's scan: on pools of at least
/// [`PAR_FILTER_MIN_POOL`] candidates it fans out over the shared
/// `mlake-par` pool in fixed index-ordered blocks. Filter evaluation is a
/// pure predicate per row, so the kept set — and therefore the result —
/// is bit-identical to the serial scan at every thread count.
pub fn execute(
    query: &Query,
    target: &(dyn QueryTarget + Sync),
) -> Result<Vec<QueryHit>, QueryError> {
    let _exec_span = mlake_obs::span("query.exec");
    // ---- access path: narrowest clause first --------------------------
    let mut similarity: std::collections::HashMap<u64, f32> = std::collections::HashMap::new();
    let mut candidates: Option<Vec<u64>> = None;
    if let Some(sim) = &query.similar {
        let ranked = target.similar_models(&sim.model, &sim.using, sim.k)?;
        for &(id, s) in &ranked {
            similarity.insert(id, s);
        }
        candidates = Some(ranked.into_iter().map(|(id, _)| id).collect());
    }
    let mut text_score: std::collections::HashMap<u64, f32> = std::collections::HashMap::new();
    if let Some(m) = &query.matches {
        let ranked = target.text_search(&m.query, m.k)?;
        for &(id, s) in &ranked {
            text_score.insert(id, s);
        }
        let ids: Vec<u64> = ranked.into_iter().map(|(id, _)| id).collect();
        candidates = Some(intersect(candidates, ids));
    }
    if let Some(t) = &query.trained_on {
        let ids = target.trained_on(&t.dataset, t.include_versions)?;
        candidates = Some(intersect(candidates, ids));
    }
    if let Some(o) = &query.outperform {
        let ids = target.outperformers(&o.model, &o.benchmark)?;
        candidates = Some(intersect(candidates, ids));
    }
    let pool = candidates.unwrap_or_else(|| target.all_models());

    // ---- filter (the scan stage) ------------------------------------
    let mut hits: Vec<QueryHit> = match &query.filter {
        Some(expr) if pool.len() >= PAR_FILTER_MIN_POOL => {
            let _scan_span = mlake_obs::span("query.scan.par");
            // One verdict per pool slot, in pool order; assembling the
            // kept rows serially afterwards preserves the exact order a
            // serial scan would produce.
            let keep = mlake_par::par_map(&pool, |&id| eval(expr, id, target));
            pool.iter()
                .zip(keep)
                .filter_map(|(&id, kept)| kept.then_some(id))
                .map(|id| QueryHit {
                    id,
                    similarity: similarity.get(&id).copied(),
                    text_score: text_score.get(&id).copied(),
                    score: None,
                })
                .collect()
        }
        filter => pool
            .iter()
            .filter(|&&id| filter.as_ref().is_none_or(|expr| eval(expr, id, target)))
            .map(|&id| QueryHit {
                id,
                similarity: similarity.get(&id).copied(),
                text_score: text_score.get(&id).copied(),
                score: None,
            })
            .collect(),
    };

    // ---- order ------------------------------------------------------
    if let Some(order) = &query.order_by {
        match &order.key {
            OrderKey::Score(bench) => {
                let field = format!("score:{bench}");
                for h in &mut hits {
                    h.score = match target.field(h.id, &field) {
                        Some(FieldValue::Num(n)) => Some(n),
                        _ => None,
                    };
                }
                hits.sort_by(|a, b| {
                    // Missing scores sort last regardless of direction.
                    match (a.score, b.score) {
                        (Some(x), Some(y)) => {
                            if order.desc {
                                y.total_cmp(&x)
                            } else {
                                x.total_cmp(&y)
                            }
                        }
                        (Some(_), None) => std::cmp::Ordering::Less,
                        (None, Some(_)) => std::cmp::Ordering::Greater,
                        (None, None) => a.id.cmp(&b.id),
                    }
                });
            }
            OrderKey::Similarity => {
                hits.sort_by(|a, b| {
                    let sa = a.similarity.unwrap_or(f32::NEG_INFINITY);
                    let sb = b.similarity.unwrap_or(f32::NEG_INFINITY);
                    if order.desc {
                        sb.total_cmp(&sa)
                    } else {
                        sa.total_cmp(&sb)
                    }
                });
            }
            OrderKey::Name => {
                // Each hit's name is fetched once; the sort is stable, so
                // equal names keep their pool order either way.
                let mut named: Vec<(Cow<'_, str>, QueryHit)> =
                    hits.drain(..).map(|h| (name_of(target, h.id), h)).collect();
                if order.desc {
                    named.sort_by(|a, b| b.0.cmp(&a.0));
                } else {
                    named.sort_by(|a, b| a.0.cmp(&b.0));
                }
                hits.extend(named.into_iter().map(|(_, h)| h));
            }
        }
    } else if query.similar.is_some() {
        // Implicit similarity ranking when a SIMILAR TO clause is present.
        hits.sort_by(|a, b| {
            b.similarity
                .unwrap_or(f32::NEG_INFINITY)
                .total_cmp(&a.similarity.unwrap_or(f32::NEG_INFINITY))
        });
    } else if query.matches.is_some() {
        // Implicit relevance ranking when only MATCHES narrows the pool.
        hits.sort_by(|a, b| {
            b.text_score
                .unwrap_or(f32::NEG_INFINITY)
                .total_cmp(&a.text_score.unwrap_or(f32::NEG_INFINITY))
        });
    }

    if let Some(limit) = query.limit {
        hits.truncate(limit);
    }
    Ok(hits)
}

/// Human-readable execution plan: which access paths the query will use, in
/// order — the §6 "map the task function to a suitable indexer" narration.
pub fn explain(query: &Query) -> Vec<String> {
    let _plan_span = mlake_obs::span("query.plan");
    let mut steps = Vec::new();
    if let Some(sim) = &query.similar {
        steps.push(format!(
            "ANN-INDEX SCAN: top-{} of fingerprint('{}') around model '{}'",
            sim.k, sim.using, sim.model
        ));
    }
    if let Some(m) = &query.matches {
        steps.push(format!(
            "TEXT-INDEX SCAN (BM25): top-{} for '{}'",
            m.k, m.query
        ));
    }
    if let Some(t) = &query.trained_on {
        steps.push(format!(
            "PROVENANCE LOOKUP: trained_on('{}'){}",
            t.dataset,
            if t.include_versions {
                " + dataset versions"
            } else {
                ""
            }
        ));
    }
    if let Some(o) = &query.outperform {
        steps.push(format!(
            "LEADERBOARD JOIN: outperformers of '{}' on '{}'",
            o.model, o.benchmark
        ));
    }
    if steps.is_empty() {
        steps.push("FULL CATALOG SCAN".to_string());
    }
    if query.filter.is_some() {
        steps.push("METADATA FILTER".to_string());
    }
    if let Some(ob) = &query.order_by {
        steps.push(format!(
            "SORT BY {:?} {}",
            ob.key,
            if ob.desc { "DESC" } else { "ASC" }
        ));
    }
    if let Some(l) = query.limit {
        steps.push(format!("LIMIT {l}"));
    }
    steps
}

fn name_of(target: &dyn QueryTarget, id: u64) -> Cow<'_, str> {
    match target.field(id, "name") {
        Some(FieldValue::Str(s)) => s,
        _ => Cow::Borrowed(""),
    }
}

fn intersect(current: Option<Vec<u64>>, new_ids: Vec<u64>) -> Vec<u64> {
    match current {
        None => new_ids,
        Some(cur) => cur.into_iter().filter(|id| new_ids.contains(id)).collect(),
    }
}

fn eval(expr: &Expr, id: u64, target: &dyn QueryTarget) -> bool {
    match expr {
        Expr::And(a, b) => eval(a, id, target) && eval(b, id, target),
        Expr::Or(a, b) => eval(a, id, target) || eval(b, id, target),
        Expr::Not(a) => !eval(a, id, target),
        Expr::Cmp { field, op, value } => {
            let Some(fv) = target.field(id, field) else {
                return false;
            };
            match (fv, value) {
                (FieldValue::Str(s), Literal::Str(lit)) => cmp_str(&s, *op, lit),
                (FieldValue::StrList(items), Literal::Str(lit)) => match op {
                    CmpOp::Ne => items.iter().all(|s| !s.eq_ignore_ascii_case(lit)),
                    _ => items.iter().any(|s| cmp_str(s, *op, lit)),
                },
                (FieldValue::Num(n), Literal::Num(lit)) => cmp_num(n, *op, *lit),
                // Type mismatch never matches (except Ne, which is true).
                _ => *op == CmpOp::Ne,
            }
        }
    }
}

fn cmp_str(s: &str, op: CmpOp, lit: &str) -> bool {
    match op {
        CmpOp::Eq => s.eq_ignore_ascii_case(lit),
        CmpOp::Ne => !s.eq_ignore_ascii_case(lit),
        CmpOp::Like => like_match(lit, s),
        CmpOp::Lt => s < lit,
        CmpOp::Le => s <= lit,
        CmpOp::Gt => s > lit,
        CmpOp::Ge => s >= lit,
    }
}

fn cmp_num(n: f64, op: CmpOp, lit: f64) -> bool {
    match op {
        CmpOp::Eq => n == lit,
        CmpOp::Ne => n != lit,
        CmpOp::Lt => n < lit,
        CmpOp::Le => n <= lit,
        CmpOp::Gt => n > lit,
        CmpOp::Ge => n >= lit,
        CmpOp::Like => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// A toy in-memory lake for executor tests.
    struct ToyLake;

    const NAMES: [&str; 4] = ["legal-base", "legal-ft", "medical-base", "news-lm"];
    const DOMAINS: [&str; 4] = ["legal", "legal", "medical", "news"];
    const DEPTHS: [f64; 4] = [0.0, 1.0, 0.0, 0.0];
    const SCORES: [Option<f64>; 4] = [Some(0.9), Some(0.95), Some(0.4), None];

    impl QueryTarget for ToyLake {
        fn all_models(&self) -> Vec<u64> {
            vec![0, 1, 2, 3]
        }

        fn field(&self, id: u64, field: &str) -> Option<FieldValue<'_>> {
            let i = id as usize;
            match field {
                "name" => Some(FieldValue::Str(NAMES[i].into())),
                "domain" => Some(FieldValue::Str(DOMAINS[i].into())),
                "depth" => Some(FieldValue::Num(DEPTHS[i])),
                "tags" => Some(FieldValue::StrList(
                    vec!["classification".into(), DOMAINS[i].into()].into(),
                )),
                "score:holdout" => SCORES[i].map(FieldValue::Num),
                _ => None,
            }
        }

        fn similar_models(
            &self,
            model: &str,
            _using: &str,
            k: usize,
        ) -> Result<Vec<(u64, f32)>, QueryError> {
            if model != "legal-base" {
                return Err(QueryError::UnknownEntity {
                    kind: "model",
                    name: model.into(),
                });
            }
            Ok(vec![(1, 0.95), (2, 0.3)].into_iter().take(k).collect())
        }

        fn text_search(&self, query: &str, k: usize) -> Result<Vec<(u64, f32)>, QueryError> {
            // Toy relevance: a name matching any query token scores by
            // how early the model sits in the catalogue.
            Ok(NAMES
                .iter()
                .enumerate()
                .filter(|(_, n)| query.split_whitespace().any(|t| n.contains(t)))
                .map(|(i, _)| (i as u64, 1.0 / (i as f32 + 1.0)))
                .take(k)
                .collect())
        }

        fn trained_on(
            &self,
            dataset: &str,
            include_versions: bool,
        ) -> Result<Vec<u64>, QueryError> {
            match (dataset, include_versions) {
                ("legal-tab-v1", false) => Ok(vec![0]),
                ("legal-tab-v1", true) => Ok(vec![0, 1]),
                _ => Ok(vec![]),
            }
        }

        fn outperformers(&self, _model: &str, _benchmark: &str) -> Result<Vec<u64>, QueryError> {
            Ok(vec![1])
        }
    }

    fn run(q: &str) -> Vec<u64> {
        execute(&parse(q).unwrap(), &ToyLake)
            .unwrap()
            .into_iter()
            .map(|h| h.id)
            .collect()
    }

    #[test]
    fn filter_only() {
        assert_eq!(run("FIND MODELS WHERE domain = 'legal'"), vec![0, 1]);
        assert_eq!(run("FIND MODELS WHERE domain != 'legal'"), vec![2, 3]);
        assert_eq!(run("FIND MODELS WHERE name LIKE '%base'"), vec![0, 2]);
        assert_eq!(run("FIND MODELS WHERE depth > 0"), vec![1]);
        assert_eq!(
            run("FIND MODELS WHERE domain = 'legal' AND depth = 0"),
            vec![0]
        );
        assert_eq!(
            run("FIND MODELS WHERE NOT (domain = 'legal' OR domain = 'news')"),
            vec![2]
        );
    }

    #[test]
    fn taglist_matching() {
        assert_eq!(
            run("FIND MODELS WHERE tags = 'classification'"),
            vec![0, 1, 2, 3]
        );
        assert_eq!(run("FIND MODELS WHERE tags = 'medical'"), vec![2]);
        assert_eq!(run("FIND MODELS WHERE tags != 'medical'"), vec![0, 1, 3]);
    }

    #[test]
    fn similarity_ranking_and_limit() {
        let hits = execute(
            &parse("FIND MODELS SIMILAR TO MODEL 'legal-base' TOP 5").unwrap(),
            &ToyLake,
        )
        .unwrap();
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[0].similarity, Some(0.95));
        assert_eq!(hits.len(), 2);
        assert_eq!(
            run("FIND MODELS SIMILAR TO MODEL 'legal-base' LIMIT 1"),
            vec![1]
        );
    }

    #[test]
    fn matches_ranks_and_intersects() {
        // 'legal' matches ids 0 and 1; id 0 scores higher.
        let hits = execute(&parse("FIND MODELS MATCHES 'legal'").unwrap(), &ToyLake).unwrap();
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(hits[0].text_score, Some(1.0));
        assert_eq!(hits[1].text_score, Some(0.5));
        // Composes with WHERE (depth > 0 keeps only id 1)...
        assert_eq!(run("FIND MODELS MATCHES 'legal' WHERE depth > 0"), vec![1]);
        // ...and intersects with SIMILAR (similar {1,2} ∩ text {0,1}).
        assert_eq!(
            run("FIND MODELS SIMILAR TO MODEL 'legal-base' MATCHES 'legal'"),
            vec![1]
        );
        assert!(run("FIND MODELS MATCHES 'zebra'").is_empty());
    }

    #[test]
    fn trained_on_with_versions() {
        assert_eq!(
            run("FIND MODELS TRAINED ON DATASET 'legal-tab-v1'"),
            vec![0]
        );
        assert_eq!(
            run("FIND MODELS TRAINED ON DATASET 'legal-tab-v1' INCLUDING VERSIONS"),
            vec![0, 1]
        );
        assert!(run("FIND MODELS TRAINED ON DATASET 'nothing'").is_empty());
    }

    #[test]
    fn clause_intersection() {
        // similar gives {1, 2}; trained_on versions gives {0, 1} -> {1}.
        assert_eq!(
            run("FIND MODELS SIMILAR TO MODEL 'legal-base' TRAINED ON DATASET 'legal-tab-v1' INCLUDING VERSIONS"),
            vec![1]
        );
        assert_eq!(
            run("FIND MODELS OUTPERFORM MODEL 'legal-base' ON BENCHMARK 'holdout'"),
            vec![1]
        );
    }

    #[test]
    fn order_by_score_missing_last() {
        let ids = run("FIND MODELS ORDER BY score('holdout') DESC");
        assert_eq!(ids, vec![1, 0, 2, 3]); // id 3 has no score -> last
        let asc = run("FIND MODELS ORDER BY score('holdout') ASC");
        assert_eq!(asc, vec![2, 0, 1, 3]);
    }

    #[test]
    fn order_by_name() {
        let ids = run("FIND MODELS ORDER BY name ASC");
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let ids = run("FIND MODELS ORDER BY name DESC");
        assert_eq!(ids, vec![3, 2, 1, 0]);
    }

    #[test]
    fn unknown_model_errors() {
        let q = parse("FIND MODELS SIMILAR TO MODEL 'ghost'").unwrap();
        assert!(matches!(
            execute(&q, &ToyLake),
            Err(QueryError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn unknown_field_never_matches() {
        assert!(run("FIND MODELS WHERE banana = 'yellow'").is_empty());
    }

    /// A target big enough to cross [`PAR_FILTER_MIN_POOL`], with fields
    /// derived from the id so expected results are computable.
    struct WideLake(usize);

    impl QueryTarget for WideLake {
        fn all_models(&self) -> Vec<u64> {
            (0..self.0 as u64).collect()
        }

        fn field(&self, id: u64, field: &str) -> Option<FieldValue<'_>> {
            match field {
                "name" => Some(FieldValue::Str(format!("m{id:04}").into())),
                "domain" => Some(FieldValue::Str(
                    ["legal", "medical", "news"][(id % 3) as usize].into(),
                )),
                "depth" => Some(FieldValue::Num((id % 7) as f64)),
                _ => None,
            }
        }

        fn similar_models(
            &self,
            model: &str,
            _using: &str,
            _k: usize,
        ) -> Result<Vec<(u64, f32)>, QueryError> {
            Err(QueryError::UnknownEntity {
                kind: "model",
                name: model.into(),
            })
        }

        fn text_search(&self, _: &str, _: usize) -> Result<Vec<(u64, f32)>, QueryError> {
            Ok(vec![])
        }

        fn trained_on(&self, _: &str, _: bool) -> Result<Vec<u64>, QueryError> {
            Ok(vec![])
        }

        fn outperformers(&self, _: &str, _: &str) -> Result<Vec<u64>, QueryError> {
            Ok(vec![])
        }
    }

    /// The parallel scan must be bit-identical to the serial program on a
    /// pool large enough to actually fan out.
    #[test]
    fn parallel_filter_matches_serial() {
        let lake = WideLake(500);
        for q in [
            "FIND MODELS WHERE domain = 'legal'",
            "FIND MODELS WHERE domain != 'news' AND depth > 2",
            "FIND MODELS WHERE name LIKE 'm00%' OR depth = 6",
            "FIND MODELS WHERE depth < 3 ORDER BY name DESC LIMIT 40",
        ] {
            let parsed = parse(q).unwrap();
            let par = execute(&parsed, &lake).unwrap();
            let serial = mlake_par::serial(|| execute(&parsed, &lake).unwrap());
            assert_eq!(par, serial, "{q}: parallel vs serial scan");
            assert!(!par.is_empty(), "{q}: scan found nothing");
        }
    }

    #[test]
    fn explain_lists_access_paths() {
        let q = parse(
            "FIND MODELS WHERE domain = 'legal' SIMILAR TO MODEL 'legal-base' \
             ORDER BY similarity LIMIT 3",
        )
        .unwrap();
        let plan = explain(&q);
        assert!(plan[0].contains("ANN-INDEX SCAN"));
        assert!(plan.iter().any(|s| s.contains("METADATA FILTER")));
        assert!(plan.iter().any(|s| s.contains("LIMIT 3")));
        let scan = explain(&parse("FIND MODELS").unwrap());
        assert_eq!(scan, vec!["FULL CATALOG SCAN".to_string()]);
        let plan = explain(&parse("FIND MODELS MATCHES 'rnn finance' TOP 3").unwrap());
        assert!(plan[0].contains("TEXT-INDEX SCAN (BM25)"));
        assert!(plan[0].contains("top-3"));
    }
}
