//! Full-text retrieval through the facade (DESIGN.md §16): BM25 results
//! are deterministic, survive persist → reopen and WAL-only replay
//! bit-identically, and card updates move text rankings without touching
//! the citation contract pinned in PR 2.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{populate_from_ground_truth, CardPolicy};
use mlake_core::ModelId;
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use mlake_fingerprint::FingerprintKind;

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mlake-textsearch-{tag}-{}", std::process::id()))
}

fn vocab_query(gt: &GroundTruth, family: usize) -> String {
    gt.family_vocab(family).join(" ")
}

/// Results as raw bits so "identical" means bit-identical, not
/// approximately-equal.
fn bits(hits: &[(ModelId, f32)]) -> Vec<(u64, u32)> {
    hits.iter().map(|(id, s)| (id.0, s.to_bits())).collect()
}

#[test]
fn text_search_finds_family_vocabulary() {
    let gt = generate_lake(&LakeSpec::tiny(42));
    let lake = ModelLake::new(LakeConfig::default());
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();

    // Every honest card seeds its notes with the family's controlled
    // vocabulary, so a vocab query's relevant set is exactly the family.
    let family = gt.models[0].family;
    let members = gt.family_members(family);
    let hits = lake.text_search(&vocab_query(&gt, family), gt.models.len()).unwrap();
    let got: Vec<u64> = hits.iter().map(|(id, _)| id.0).collect();
    for m in &members {
        assert!(
            got.contains(&(*m as u64)),
            "family member {m} missing from text hits {got:?}"
        );
    }
    // Family members outrank everything else: the top |members| hits are
    // exactly the family (vocab words appear nowhere else).
    for (id, _) in hits.iter().take(members.len()) {
        assert!(members.contains(&(id.0 as usize)), "non-member {id:?} in top hits");
    }
    // Scores are sorted descending with deterministic tie-break.
    for w in hits.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
}

#[test]
fn text_search_survives_persist_reopen_bit_identically() {
    let dir = tmp("persist");
    let _ = std::fs::remove_dir_all(&dir);
    let gt = generate_lake(&LakeSpec::tiny(7));
    let family = gt.models[0].family;
    let query = vocab_query(&gt, family);

    let (live_text, live_hybrid) = {
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
        let text = lake.text_search(&query, 10).unwrap();
        let hybrid = lake
            .hybrid_search(&query, ModelId(0), FingerprintKind::Hybrid, 5)
            .unwrap();
        lake.persist(&dir).unwrap();
        (text, hybrid)
    };
    assert!(!live_text.is_empty());

    // Reopen rebuilds the index from the folded cards — same postings,
    // same lengths, bit-identical BM25 and RRF output.
    let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    let re_text = reopened.text_search(&query, 10).unwrap();
    assert_eq!(bits(&live_text), bits(&re_text), "persisted text index diverged");
    let re_hybrid = reopened
        .hybrid_search(&query, ModelId(0), FingerprintKind::Hybrid, 5)
        .unwrap();
    assert_eq!(bits(&live_hybrid), bits(&re_hybrid), "persisted hybrid diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn text_search_rebuilds_from_wal_replay_bit_identically() {
    let dir = tmp("wal");
    let _ = std::fs::remove_dir_all(&dir);
    let gt = generate_lake(&LakeSpec::tiny(9));
    let family = gt.models[1].family;
    let query = vocab_query(&gt, family);

    let live = {
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
        // Mutate a card too, so replay exercises the update path.
        let mut card = lake.entry(ModelId(0)).unwrap().card;
        card.notes = format!("{} replayed annotation", card.notes);
        lake.update_card(ModelId(0), card).unwrap();
        // No persist(): everything after `create` lives only in the WAL.
        lake.text_search(&query, 10).unwrap()
    };

    let replayed = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    let re = replayed.text_search(&query, 10).unwrap();
    assert_eq!(bits(&live), bits(&re), "WAL-replayed text index diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn card_update_moves_bm25_but_not_citations() {
    // Regression guard for the PR 2 citation contract: a `CardUpdated`
    // event must re-rank text search (the card text changed) while
    // leaving `graph_timestamp` and citation keys untouched
    // (`EventKind::affects_graph` excludes card edits).
    let gt = generate_lake(&LakeSpec::tiny(13));
    let lake = ModelLake::new(LakeConfig::default());
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
    lake.rebuild_version_graph(None).unwrap();

    let query = "glassblowing quarterly";
    assert!(lake.text_search(query, 5).unwrap().is_empty());

    let cite_before = lake.cite(ModelId(2)).unwrap();
    let ts_before = lake.graph_timestamp();

    let mut card = lake.entry(ModelId(2)).unwrap().card;
    card.notes = "glassblowing quarterly report".into();
    lake.update_card(ModelId(2), card).unwrap();

    // The edit is visible to BM25 immediately (and through the cache,
    // whose keys are generation-stamped)...
    let hits = lake.text_search(query, 5).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, ModelId(2));

    // ...but the citation contract is untouched.
    assert_eq!(lake.graph_timestamp(), ts_before);
    let cite_after = lake.cite(ModelId(2)).unwrap();
    assert_eq!(cite_before.graph_timestamp, cite_after.graph_timestamp);
    assert_eq!(cite_before.key(), cite_after.key());

    // Updating again removes the old terms: the index replaces a doc's
    // postings wholesale rather than accumulating stale ones.
    let mut card = lake.entry(ModelId(2)).unwrap().card;
    card.notes = "back to ordinary notes".into();
    lake.update_card(ModelId(2), card).unwrap();
    assert!(lake.text_search(query, 5).unwrap().is_empty());
}

#[test]
fn hybrid_ranks_fuse_text_and_vector_evidence() {
    let gt = generate_lake(&LakeSpec::tiny(21));
    let lake = ModelLake::new(LakeConfig::default());
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();

    let family = gt.models[0].family;
    let query = vocab_query(&gt, family);
    let hits = lake
        .hybrid_search(&query, ModelId(0), FingerprintKind::Hybrid, 5)
        .unwrap();
    assert!(!hits.is_empty());
    // The anchor never appears in its own results.
    assert!(hits.iter().all(|(id, _)| *id != ModelId(0)));
    // RRF scores are descending and positive.
    for w in hits.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
    assert!(hits.iter().all(|(_, s)| *s > 0.0));
}
