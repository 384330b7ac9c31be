//! End-to-end tests of the `ModelLake` public API on a tiny benchmark lake —
//! Figure 2's full pipeline: ingest → index → version graph → generated
//! card → verification → audit → citation → MLQL.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::populate::{honest_card, populate_from_ground_truth, CardPolicy};
use mlake_benchlab::{Benchmark, Leaderboard};
use mlake_core::{LakeError, ModelId};
use mlake_datagen::{generate_lake, tabular, Domain, GroundTruth, LakeSpec};
use mlake_tensor::Seed;
use mlake_fingerprint::FingerprintKind;

fn populated(policy: CardPolicy) -> (ModelLake, GroundTruth) {
    let gt = generate_lake(&LakeSpec::tiny(42));
    let lake = ModelLake::new(LakeConfig::default());
    populate_from_ground_truth(&lake, &gt, policy).unwrap();
    (lake, gt)
}

#[test]
fn ingest_round_trips_artifacts() {
    let (lake, gt) = populated(CardPolicy::Honest);
    for i in 0..gt.models.len() {
        let model = lake.model(ModelId(i as u64)).unwrap();
        assert_eq!(model.flat_params(), gt.models[i].model.flat_params());
    }
    // Duplicate names rejected.
    let err = lake.ingest_model(&gt.models[0].name, &gt.models[0].model, None);
    assert!(matches!(err, Err(LakeError::Duplicate { .. })));
    // Unknown lookups fail cleanly.
    assert!(lake.model(ModelId(999)).is_err());
    assert!(lake.resolve("ghost").is_err());
}

#[test]
fn model_refs_resolve_by_id_name_and_digest() {
    let (lake, gt) = populated(CardPolicy::Honest);
    let name = gt.models[1].name.clone();
    let by_name = lake.resolve(name.as_str()).unwrap();
    assert_eq!(by_name, ModelId(1));
    // Digest round-trip: the entry's digest resolves back to the same id.
    let digest = lake.entry(ModelId(1)).unwrap().digest;
    assert_eq!(lake.resolve(&digest).unwrap(), ModelId(1));
    // Every read accepts any identity interchangeably.
    assert_eq!(
        lake.model(name.as_str()).unwrap().flat_params(),
        lake.model(ModelId(1)).unwrap().flat_params()
    );
    assert_eq!(lake.entry(&digest).unwrap().name, name);
    assert_eq!(
        lake.cite(name.as_str()).unwrap().model_name,
        lake.cite(ModelId(1)).unwrap().model_name
    );
}

#[test]
fn config_builder_validates() {
    let ok = LakeConfig::builder().name("validated").build().unwrap();
    assert_eq!(ok.name, "validated");
    assert!(matches!(
        LakeConfig::builder().name("  ").build(),
        Err(LakeError::Config(_))
    ));
}

#[test]
fn similarity_search_surfaces_relatives() {
    let (lake, gt) = populated(CardPolicy::Honest);
    // Find a model with a weight-continuous child.
    let edge = gt
        .edges
        .iter()
        .find(|e| e.kind.preserves_weights()
            && gt.models[e.parent].model.architecture() == gt.models[e.child].model.architecture())
        .expect("tiny lake has weight-preserving edges");
    let hits = lake
        .similar(ModelId(edge.parent as u64), FingerprintKind::Intrinsic, 5)
        .unwrap();
    assert!(!hits.is_empty());
    let hit_ids: Vec<u64> = hits.iter().map(|(m, _)| m.0).collect();
    assert!(
        hit_ids.contains(&(edge.child as u64)),
        "child {} missing from neighbours {hit_ids:?} of {}",
        edge.child,
        edge.parent
    );
    // Self excluded, similarities descending.
    assert!(!hit_ids.contains(&(edge.parent as u64)));
    for w in hits.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
}

#[test]
fn version_graph_and_lineage_paths() {
    let (lake, gt) = populated(CardPolicy::Honest);
    let known: Vec<ModelId> = (0..gt.models.len())
        .filter(|&i| gt.models[i].depth == 0)
        .map(|i| ModelId(i as u64))
        .collect();
    let graph = lake.rebuild_version_graph(Some(known)).unwrap();
    assert_eq!(graph.num_models, gt.models.len());
    // Lineage path starts at a root and ends at the model.
    let derived = gt.edges[0].child;
    let path = lake.lineage_path(ModelId(derived as u64)).unwrap();
    assert!(path.len() >= 2);
    assert_eq!(path.last().unwrap(), &gt.models[derived].name);
}

#[test]
fn benchmarking_and_outperform() {
    let (lake, _gt) = populated(CardPolicy::Honest);
    let lb = lake.leaderboard("legal-holdout").unwrap();
    assert!(!lb.rows.is_empty());
    // Scores cached: a second call must agree.
    let top = lb.best().unwrap();
    let s = lake.score_of(ModelId(top.model_id), "legal-holdout").unwrap();
    assert_eq!(s.value, top.score.value);
    assert!(lake.leaderboard("no-such-bench").is_err());
}

#[test]
fn leaderboard_from_cached_scores_equals_a_cold_one() {
    // A leaderboard decodes only models it has no score for; what it returns
    // must not depend on which those are.
    let (cold, _) = populated(CardPolicy::Honest);
    let (warm, gt) = populated(CardPolicy::Honest);
    for i in 0..gt.models.len() {
        warm.evidence_for(ModelId(i as u64)).unwrap();
    }
    let bits = |lb: &Leaderboard| -> Vec<(u64, u32)> {
        lb.rows.iter().map(|r| (r.model_id, r.score.value.to_bits())).collect()
    };
    for name in warm.benchmark_names() {
        let (a, b) = (warm.leaderboard(&name).unwrap(), cold.leaderboard(&name).unwrap());
        assert_eq!(a, b, "{name}");
        assert_eq!(bits(&a), bits(&b), "{name}");
        assert!(!a.rows.is_empty() && !a.skipped.is_empty(), "{name}");
    }
    // And equal to ranking the decoded models directly, on a benchmark the
    // test holds a copy of.
    let data = tabular::sample_tabular(
        &Domain::builtin()[0],
        &tabular::TabularSpec::default(),
        90,
        Seed::new(gt.seed),
        Seed::new(7),
    );
    let bench = Benchmark::classification("direct", data);
    warm.register_benchmark(bench.clone(), None).unwrap();
    let direct =
        Leaderboard::run(&bench, gt.models.iter().enumerate().map(|(i, m)| (i as u64, &m.model)))
            .unwrap();
    let via_lake = warm.leaderboard("direct").unwrap();
    assert_eq!(via_lake, direct);
    assert_eq!(bits(&via_lake), bits(&direct));
    // A model ingested after the warm-up is scored on demand and ranked: a
    // copy of the current leader ties with it, bit for bit.
    let before = warm.leaderboard("legal-holdout").unwrap();
    let leader = before.best().unwrap().clone();
    let copy = &gt.models[leader.model_id as usize].model;
    let id = warm.ingest_model("newcomer", copy, None).unwrap();
    let after = warm.leaderboard("legal-holdout").unwrap();
    assert_eq!(after.rows.len(), before.rows.len() + 1);
    assert_eq!(after.skipped, before.skipped);
    let rank = after.rank_of(id.0).expect("newcomer missing from the leaderboard");
    assert_eq!(after.rows[rank].score.value.to_bits(), leader.score.value.to_bits());
}

#[test]
fn generated_cards_are_complete_and_verifiable() {
    let (lake, gt) = populated(CardPolicy::Skeleton);
    lake.rebuild_version_graph(Some(
        (0..gt.models.len())
            .filter(|&i| gt.models[i].depth == 0)
            .map(|i| ModelId(i as u64))
            .collect(),
    ))
    .unwrap();
    let id = ModelId(0);
    let skeleton_completeness = lake.entry(id).unwrap().card.completeness();
    let generated = lake.generate_card(id).unwrap();
    assert!(generated.completeness() > skeleton_completeness);
    assert!(!generated.metrics.is_empty());
    // Install the generated card; it must then verify cleanly.
    lake.update_card(id, generated).unwrap();
    let report = lake.verify_model_card(id).unwrap();
    assert!(report.passes(), "{:#?}", report.findings);
}

#[test]
fn honest_cards_pass_audit_better_than_skeletons() {
    let (honest, _) = populated(CardPolicy::Honest);
    let (skeleton, _) = populated(CardPolicy::Skeleton);
    let a = honest.audit_model(ModelId(0)).unwrap();
    let b = skeleton.audit_model(ModelId(0)).unwrap();
    assert!(a.coverage() > b.coverage());
}

#[test]
fn citations_track_graph_changes() {
    let (lake, gt) = populated(CardPolicy::Honest);
    lake.rebuild_version_graph(None).unwrap();
    let c1 = lake.cite(ModelId(1)).unwrap();
    assert!(c1.graph_timestamp > 0);
    assert!(c1.key().contains(&gt.models[1].name));
    // Ingesting a new model invalidates; rebuilding bumps the timestamp.
    let clone_of_zero = gt.models[0].model.clone();
    lake.ingest_model("newcomer", &clone_of_zero, None).unwrap();
    lake.rebuild_version_graph(None).unwrap();
    let c2 = lake.cite(ModelId(1)).unwrap();
    assert!(c2.graph_timestamp > c1.graph_timestamp);
    assert_ne!(c1.key(), c2.key());
}

#[test]
fn citations_are_stable_across_card_updates() {
    // Contract pinned here (see DESIGN.md §5): a citation timestamps the
    // *version graph*, not the documentation. `EventKind::affects_graph`
    // therefore deliberately excludes `CardUpdated` — editing a card must
    // neither bump `graph_timestamp` nor change the citation key, while
    // the edit itself stays auditable through the event log.
    let (lake, _gt) = populated(CardPolicy::Honest);
    lake.rebuild_version_graph(None).unwrap();
    let before = lake.cite(ModelId(1)).unwrap();
    let ts_before = lake.graph_timestamp();
    let mut card = lake.entry(ModelId(1)).unwrap().card;
    card.notes = "revised documentation".into();
    lake.update_card(ModelId(1), card).unwrap();
    let after = lake.cite(ModelId(1)).unwrap();
    assert_eq!(lake.graph_timestamp(), ts_before);
    assert_eq!(before.graph_timestamp, after.graph_timestamp);
    assert_eq!(before.key(), after.key());
    // The card edit is still on the record.
    let events = lake.events();
    assert!(events
        .iter()
        .any(|e| e.subject == after.model_name
            && matches!(e.kind, mlake_core::event::EventKind::CardUpdated)));
}

#[test]
fn mlql_queries_run_end_to_end() {
    let (lake, gt) = populated(CardPolicy::Honest);
    // Metadata filter.
    let legal = lake
        .prepare("FIND MODELS WHERE domain = 'legal'")
        .unwrap()
        .run()
        .unwrap();
    let expected = gt
        .models
        .iter()
        .filter(|m| m.domain.name() == "legal")
        .count();
    assert_eq!(legal.len(), expected);
    // Trained-on with versions.
    let ds_name = &gt.datasets[0].name;
    let trained = lake
        .prepare(&format!(
            "FIND MODELS TRAINED ON DATASET '{ds_name}' INCLUDING VERSIONS"
        ))
        .unwrap()
        .run()
        .unwrap();
    assert!(!trained.is_empty());
    // Similarity query: prepare once, reuse the handle for run and explain.
    let q = format!(
        "FIND MODELS SIMILAR TO MODEL '{}' USING weights TOP 3",
        gt.models[0].name
    );
    let prepared = lake.prepare(&q).unwrap();
    assert_eq!(prepared.text(), q);
    let sim = prepared.run().unwrap();
    assert!(sim.len() <= 3);
    assert!(sim.iter().all(|h| h.similarity.is_some()));
    // Repeated runs of one handle agree (parse once, execute many).
    assert_eq!(prepared.run().unwrap(), sim);
    // Order by benchmark score.
    let ranked = lake
        .prepare("FIND MODELS ORDER BY score('legal-holdout') DESC LIMIT 3")
        .unwrap()
        .run()
        .unwrap();
    assert!(ranked.len() <= 3);
    // Plan narration from the same prepared handle.
    let plan = prepared.explain();
    assert!(plan[0].contains("ANN-INDEX SCAN"));
    // Unknown model in clause errors at run time, not prepare time.
    let ghost = lake.prepare("FIND MODELS SIMILAR TO MODEL 'ghost'").unwrap();
    assert!(ghost.run().is_err());
    // Syntax errors surface at prepare time.
    assert!(lake.prepare("FIND GARBAGE WAT").is_err());
}

#[test]
fn events_record_full_history() {
    let (lake, gt) = populated(CardPolicy::Honest);
    let events = lake.events();
    // datasets + benchmarks + 2 per model (ingest + card).
    assert!(events.len() >= gt.models.len() * 2);
    let first_model_history: Vec<_> = events
        .iter()
        .filter(|e| e.subject == gt.models[0].name)
        .collect();
    assert!(first_model_history.len() >= 2);
}

#[test]
fn non_finite_models_are_rejected_at_ingest() {
    use mlake_nn::{Activation, Mlp, Model};
    use mlake_tensor::{init::Init, Pcg64};
    let lake = ModelLake::new(LakeConfig::default());
    let mut rng = Pcg64::new(1);
    let mut m = Mlp::new(vec![8, 4, 3], Activation::Relu, Init::HeNormal, &mut rng).unwrap();
    let mut params = m.flat_params();
    params[0] = f32::NAN;
    m.set_flat_params(&params).unwrap();
    let err = lake.ingest_model("diverged", &Model::Mlp(m), None);
    assert!(matches!(err, Err(LakeError::CorruptArtifact(_))));
    assert!(lake.is_empty());
}

#[test]
fn count_queries() {
    let (lake, gt) = populated(CardPolicy::Honest);
    let legal = gt
        .models
        .iter()
        .filter(|m| m.domain.name() == "legal")
        .count();
    assert_eq!(
        lake.prepare("COUNT MODELS WHERE domain = 'legal'")
            .unwrap()
            .count()
            .unwrap(),
        legal
    );
    assert_eq!(
        lake.prepare("COUNT MODELS").unwrap().count().unwrap(),
        gt.models.len()
    );
    assert_eq!(
        lake.prepare("FIND MODELS WHERE domain = 'legal'")
            .unwrap()
            .count()
            .unwrap(),
        legal
    );
}

/// `similar` and MLQL `SIMILAR TO … USING` under every kind plus
/// `hybrid_search`, around every model, as raw bits: every answer a
/// fingerprint index serves.
fn search_bits(lake: &ModelLake, query: &str) -> Vec<Vec<(u64, u32)>> {
    let bits = |hits: Vec<(ModelId, f32)>| hits.iter().map(|(m, s)| (m.0, s.to_bits())).collect();
    let mut out = Vec::new();
    for id in (0..lake.len() as u64).map(ModelId) {
        for kind in FingerprintKind::ALL {
            out.push(bits(lake.similar(id, kind, 4).unwrap()));
        }
        out.push(bits(lake.hybrid_search(query, id, FingerprintKind::Hybrid, 4).unwrap()));
        let name = lake.entry(id).unwrap().name;
        for using in ["weights", "behavior", "hybrid"] {
            let mlql = format!("FIND MODELS SIMILAR TO MODEL '{name}' USING {using} TOP 4");
            let hits = lake.prepare(&mlql).unwrap().run().unwrap();
            out.push(hits.iter().map(|h| (h.id, h.similarity.unwrap().to_bits())).collect());
        }
    }
    out
}

/// HNSW is a pure function of insert order, and each kind's graph takes
/// the registry in id order: built on that kind's first read, then caught
/// up with every read of any kind. So every answer is the same however a
/// vector reached the registry (live ingest, segment fold, WAL-tail replay,
/// ingest after a lazy open) and wherever each kind was first read. The
/// beam is narrow enough that a graph built in another order answers
/// otherwise.
#[test]
fn search_is_bit_identical_however_a_vector_reached_the_registry() {
    let gt = generate_lake(&LakeSpec::tiny(17));
    let n = gt.models.len();
    let query = gt.family_vocab(gt.models[0].family).join(" ");
    let narrow = mlake_index::HnswConfig {
        m: 2,
        ef_construction: 2,
        ef_search: 2,
        ..mlake_index::HnswConfig::default()
    };
    let config = || LakeConfig::builder().hnsw(narrow).build().unwrap();
    let ingest = |lake: &ModelLake, ids: std::ops::Range<usize>| {
        for i in ids {
            let m = &gt.models[i];
            lake.ingest_model(&m.name, &m.model, Some(honest_card(&gt, i))).unwrap();
        }
    };
    let read = |lake: &ModelLake, kind| {
        lake.similar(ModelId(0), kind, 3).unwrap();
    };
    let tmp = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("mlake-api-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };

    // Reference: every kind read after every ingest, so every graph is
    // caught up insert by insert.
    let eager = ModelLake::new(config());
    for i in 0..n {
        ingest(&eager, i..i + 1);
        FingerprintKind::ALL.into_iter().for_each(|kind| read(&eager, kind));
    }
    let want = search_bits(&eager, &query);

    // Live ingest, each kind first read after 1, n/2 or n ingests, rotated
    // so that every kind takes every point.
    let points = [1, n / 2, n];
    for rot in 0..3 {
        let lake = ModelLake::new(config());
        for i in 0..n {
            ingest(&lake, i..i + 1);
            for kind in FingerprintKind::ALL {
                if points[(kind as usize + rot) % 3] == i + 1 {
                    read(&lake, kind);
                }
            }
        }
        assert_eq!(search_bits(&lake, &query), want, "rotation {rot}");
    }

    // Segment fold on reopen, and WAL-tail replay on reopen with no
    // persist. Intrinsic and extrinsic are read before the reopen, hybrid
    // only after it.
    for persist in [true, false] {
        let dir = tmp(if persist { "fold" } else { "replay" });
        {
            let lake = ModelLake::create(&dir, config()).unwrap();
            ingest(&lake, 0..n / 2);
            read(&lake, FingerprintKind::Intrinsic);
            read(&lake, FingerprintKind::Extrinsic);
            ingest(&lake, n / 2..n);
            if persist {
                lake.persist(&dir).unwrap();
            }
        }
        let reopened = ModelLake::open(&dir, config()).unwrap();
        assert_eq!(search_bits(&reopened, &query), want, "persist={persist}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Ingest following a lazy open: extrinsic is built from the persisted
    // ids, the fresh ids catch up behind them, hybrid is built from all of
    // them, and intrinsic last.
    let dir = tmp("mixed");
    {
        let lake = ModelLake::create(&dir, config()).unwrap();
        ingest(&lake, 0..n / 2);
        lake.persist(&dir).unwrap();
    }
    let reopened = ModelLake::open(&dir, config()).unwrap();
    read(&reopened, FingerprintKind::Extrinsic);
    ingest(&reopened, n / 2..n);
    read(&reopened, FingerprintKind::Hybrid);
    assert_eq!(search_bits(&reopened, &query), want, "ingest after lazy open");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// MLQL `depth` reads the version graph caught up to the lake it queries:
/// `depth > 0` is exactly the models with a recovered parent, before any
/// other read of the graph and again after one more ingest.
#[test]
fn mlql_depth_reads_a_caught_up_graph() {
    let gt = generate_lake(&LakeSpec::tiny(3));
    let lake = ModelLake::new(LakeConfig::default());
    populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
    let q = lake.prepare("FIND MODELS WHERE depth > 0").unwrap();
    let check = |lake: &ModelLake| {
        let derived: Vec<u64> = q.run().unwrap().iter().map(|h| h.id).collect();
        let mut children: Vec<u64> = lake
            .version_graph()
            .unwrap()
            .edges
            .iter()
            .map(|e| e.child as u64)
            .collect();
        children.sort_unstable();
        children.dedup();
        assert!(!derived.is_empty());
        assert_eq!(derived, children);
    };
    check(&lake);
    lake.ingest_model("newcomer", &gt.models[1].model, None)
        .unwrap();
    check(&lake);
}

/// The fingerprints ingest stores (`model_block` computes the hybrid from
/// the two halves it already has) are, as bits, the ones the public
/// fingerprinter computes from scratch — on an in-memory lake, and on a
/// durable one after a persist and a reopen: the reopened lake reads the
/// fingerprints it stored, and fingerprints a newcomer in the same space.
#[test]
fn stored_fingerprints_equal_the_fingerprinters_bitwise() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let check = |lake: &ModelLake, gt: &GroundTruth| {
        let fp = lake.fingerprinter();
        for (i, m) in gt.models.iter().enumerate() {
            let stored = lake.entry(ModelId(i as u64)).unwrap().fps;
            let fresh = [
                fp.intrinsic(&m.model),
                fp.extrinsic(&m.model).unwrap(),
                fp.hybrid(&m.model).unwrap(),
            ];
            for (kind, (s, f)) in FingerprintKind::ALL.iter().zip(stored.iter().zip(&fresh)) {
                assert_eq!(bits(s), bits(f), "{kind:?} fingerprint of {}", m.name);
            }
        }
    };
    let (lake, gt) = populated(CardPolicy::Honest);
    check(&lake, &gt);

    let dir = std::env::temp_dir().join(format!("mlake-api-fp-space-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let durable = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        populate_from_ground_truth(&durable, &gt, CardPolicy::Honest).unwrap();
        durable.persist(&dir).unwrap();
    }
    let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
    check(&reopened, &gt);
    let twin_id = reopened
        .ingest_model("twin-of-0", &gt.models[0].model, None)
        .unwrap();
    let original = reopened.entry(ModelId(0)).unwrap().fps;
    let twin = reopened.entry(twin_id).unwrap().fps;
    for (k, kind) in FingerprintKind::ALL.iter().enumerate() {
        let what = format!("{kind:?} fingerprint of the twin after reopen");
        assert_eq!(bits(&original[k]), bits(&twin[k]), "{what}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An MLP whose input width no probe has: it encodes and hashes, then fails
/// in the extrinsic fingerprint.
fn unprobeable(seed: u64) -> mlake_nn::Model {
    use mlake_nn::{Activation, Mlp, Model};
    use mlake_tensor::{init::Init, Pcg64};
    let mut rng = Pcg64::new(seed);
    Model::Mlp(Mlp::new(vec![3, 4, 2], Activation::Relu, Init::HeNormal, &mut rng).unwrap())
}

#[test]
fn rejected_ingests_leave_nothing_resident() {
    let (lake, gt) = populated(CardPolicy::Honest);
    let before = lake.resident_bytes();
    for i in 0..5 {
        let err = lake.ingest_model(&format!("odd-{i}"), &unprobeable(i), None);
        assert!(err.is_err(), "a model no probe fits was accepted");
        assert_eq!(
            lake.resident_bytes(),
            before,
            "rejected ingest {i} left its blob"
        );
    }
    assert_eq!(lake.len(), gt.models.len());
}

/// An ingest whose blob write or WAL append dies (at each write and sync
/// it makes) leaves the resident set as it found it.
#[test]
fn failed_durable_ingests_leave_nothing_resident() {
    use mlake_wal::testing::FailFs;
    use mlake_wal::Vfs;
    use std::sync::Arc;
    let gt = generate_lake(&LakeSpec::tiny(42));
    let (first, second) = (&gt.models[0].model, &gt.models[1].model);
    let dir = std::env::temp_dir().join(format!("mlake-ingest-leak-{}", std::process::id()));
    let run = |fs: &Arc<FailFs>| {
        let _ = std::fs::remove_dir_all(&dir);
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(fs));
        let lake = ModelLake::create_with(&dir, LakeConfig::default(), vfs).unwrap();
        lake.ingest_model("first", first, None).unwrap();
        let before = (lake.resident_bytes(), fs.writes(), fs.syncs());
        let second = lake.ingest_model("second", second, None);
        (lake.resident_bytes(), before, second.is_ok())
    };
    let counting = FailFs::counting();
    let (_, (_, w0, s0), ok) = run(&counting);
    assert!(ok);
    let (w1, s1) = (counting.writes(), counting.syncs());
    assert!(w1 > w0 && s1 > s0, "the second ingest wrote nothing");
    let kills = (w0 + 1..=w1)
        .map(|n| (format!("write {n}"), FailFs::kill_at_write(n, 0)))
        .chain((s0 + 1..=s1).map(|n| (format!("sync {n}"), FailFs::kill_at_sync(n))));
    for (at, fs) in kills {
        let (after, (before, _, _), ok) = run(&fs);
        assert!(!ok, "the ingest survived a crash at {at}");
        assert_eq!(
            after, before,
            "an ingest killed at {at} left its blob resident"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
