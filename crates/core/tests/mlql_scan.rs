//! The MLQL scan reads the catalogue's fields in place. Each statement
//! shape the served search path issues, plus `ORDER BY name DESC`, must
//! return exactly the ids, in order, of a reference written here over
//! `ModelLake::entry` clones and the lake's public search calls.
//!
//! The lake holds every model of a tiny generated lake three times (the
//! copies under new names), so a full scan crosses the executor's parallel
//! threshold and names, domains and scores repeat across rows.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{honest_card, populate_from_ground_truth, CardPolicy};
use mlake_core::registry::ModelEntry;
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use mlake_fingerprint::FingerprintKind;

fn lake() -> (ModelLake, GroundTruth) {
    let gt = generate_lake(&LakeSpec::tiny(43));
    let lake = ModelLake::new(LakeConfig::default());
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
    for copy in ["copy", "twin"] {
        for (i, m) in gt.models.iter().enumerate() {
            let name = format!("{}-{copy}", m.name);
            let mut card = honest_card(&gt, i);
            card.model_name = name.clone();
            lake.ingest_model(&name, &m.model, Some(card)).unwrap();
        }
    }
    (lake, gt)
}

fn run(lake: &ModelLake, mlql: &str) -> Vec<u64> {
    let hits = lake.prepare(mlql).unwrap().run().unwrap();
    hits.iter().map(|h| h.id).collect()
}

fn entries(lake: &ModelLake) -> Vec<ModelEntry> {
    (0..lake.len() as u64)
        .map(|id| lake.entry(ModelId(id)).unwrap())
        .collect()
}

/// `FIND MODELS WHERE <keep> [ORDER BY name] LIMIT limit`, by hand.
fn reference(
    all: &[ModelEntry],
    keep: impl Fn(&ModelEntry) -> bool,
    order: Option<bool>,
    limit: usize,
) -> Vec<u64> {
    let mut rows: Vec<&ModelEntry> = all.iter().filter(|e| keep(e)).collect();
    match order {
        Some(false) => rows.sort_by(|a, b| a.name.cmp(&b.name)),
        Some(true) => rows.sort_by(|a, b| b.name.cmp(&a.name)),
        None => {}
    }
    rows.iter().take(limit).map(|e| e.id.0).collect()
}

#[test]
fn borrowed_scan_returns_what_a_reference_filter_over_cloned_entries_returns() {
    let (lake, gt) = lake();
    let all = entries(&lake);
    assert!(
        all.len() >= 32,
        "{} rows do not reach the parallel scan",
        all.len()
    );
    let domain_of = |e: &ModelEntry| e.card.domains.first().cloned().unwrap_or_default();
    let mut domains: Vec<String> = all.iter().map(domain_of).collect();
    domains.sort();
    domains.dedup();
    let mut params: Vec<u64> = all.iter().map(|e| e.params).collect();
    params.sort_unstable();
    let mut nonempty = 0;

    for (t, domain) in domains.iter().enumerate() {
        let limit = 5 + 7 * t;
        let is_domain = |e: &ModelEntry| domain_of(e).eq_ignore_ascii_case(domain);
        for floor in [0, params[params.len() / 2], params[params.len() - 1]] {
            let q =
                format!("FIND MODELS WHERE domain = '{domain}' AND params > {floor} LIMIT {limit}");
            let want = reference(
                &all,
                |e| is_domain(e) && e.params as f64 > floor as f64,
                None,
                limit,
            );
            nonempty += usize::from(!want.is_empty());
            assert_eq!(run(&lake, &q), want, "{q}");
        }

        let named = |e: &ModelEntry| {
            e.name
                .to_ascii_lowercase()
                .starts_with(&domain.to_ascii_lowercase())
        };
        for (least, desc) in [(0.0f32, false), (0.5, false), (0.0, true), (0.5, true)] {
            let dir = if desc { "DESC" } else { "ASC" };
            let q = format!(
                "FIND MODELS WHERE name LIKE '{domain}%' AND completeness > {least:.6} \
                 ORDER BY name {dir} LIMIT {limit}"
            );
            let keep =
                |e: &ModelEntry| named(e) && f64::from(e.card.completeness()) > f64::from(least);
            let want = reference(&all, keep, Some(desc), limit);
            nonempty += usize::from(!want.is_empty());
            assert_eq!(run(&lake, &q), want, "{q}");
        }
    }

    for (f, anchor) in [(0usize, 0u64), (1, 4), (2, 9)] {
        let word = &gt.family_vocab(f)[0];
        let text = format!("{word} zqscan{f}");
        // MATCHES alone: the text ranking, best first, cut at LIMIT.
        let q = format!("FIND MODELS MATCHES '{text}' LIMIT 6");
        let ranked = lake.text_search(&text, 10).unwrap();
        let want: Vec<u64> = ranked.iter().take(6).map(|(id, _)| id.0).collect();
        nonempty += usize::from(!want.is_empty());
        assert_eq!(run(&lake, &q), want, "{q}");

        // SIMILAR TO plus MATCHES: the similar list, in its order, kept
        // where the text ranking also has the model.
        let kind = FingerprintKind::ALL[f % 3];
        let name = &all[anchor as usize].name;
        let q = format!(
            "FIND MODELS SIMILAR TO MODEL '{name}' USING {} MATCHES 'zqscan{f} {word}' LIMIT 8",
            kind.name()
        );
        let texts = lake.text_search(&format!("zqscan{f} {word}"), 10).unwrap();
        let similar = lake.similar(ModelId(anchor), kind, 10).unwrap();
        let want: Vec<u64> = similar
            .iter()
            .filter(|(id, _)| texts.iter().any(|(t, _)| t == id))
            .take(8)
            .map(|(id, _)| id.0)
            .collect();
        nonempty += usize::from(!want.is_empty());
        assert_eq!(run(&lake, &q), want, "{q}");
    }
    assert!(nonempty >= 10, "only {nonempty} statements returned rows");
}
