//! Readers see whole ops (DESIGN.md §12): every read answers from one
//! catalogue guard, so a hybrid search cannot fuse a text ranking that
//! already holds a model with a vector ranking that does not.
//!
//! One writer ingests `base-i`, then `probe-i`: the same weights, plus a
//! card token only `probe-i` carries. Meanwhile readers run
//! `hybrid_search(token_i, base-i)`, `text_search(token_i)` and an MLQL
//! filter over the whole lake (large enough for the parallel scan). At an
//! exhaustive beam `probe-i` is the top vector neighbour of `base-i` and the
//! only text hit for its token, so wherever it appears in the fused answer
//! it carries both branches' rank-1 mass, never one branch's.

use mlake_core::lake::{LakeConfig, ModelLake};
use mlake_core::{LakeError, ModelId};
use mlake_datagen::{generate_lake, LakeSpec};
use mlake_fingerprint::FingerprintKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

const PAIRS: usize = 8;
const READERS: usize = 3;
/// One branch's rank-1 RRF mass.
const ONE: f32 = 1.0 / (mlake_text::RRF_C + 1.0);

fn token(i: usize) -> String {
    format!("snapshottoken{i}")
}

/// What the readers saw, summed over all of them.
#[derive(Default)]
struct Seen {
    reads: usize,
    whole: usize,
    /// The mass `probe-i` carried whenever it was not both branches'.
    partial: Vec<f32>,
}

/// Runs every read once against pair `i` and records what it found.
fn read_once(lake: &ModelLake, i: usize, seen: &mut Seen) {
    let both = 0.0f32 + ONE + ONE;
    let (base, probe) = (format!("base-{i}"), format!("probe-{i}"));
    match lake.hybrid_search(&token(i), base.as_str(), FingerprintKind::Hybrid, 3) {
        Ok(hits) => {
            for (id, score) in hits {
                if lake.entry(id).unwrap().name != probe {
                    continue;
                }
                if score.to_bits() == both.to_bits() {
                    seen.whole += 1;
                } else {
                    seen.partial.push(score);
                }
            }
        }
        Err(LakeError::NotFound { .. }) => {}
        Err(e) => panic!("hybrid_search failed: {e}"),
    }
    let text = lake.text_search(&token(i), 5).unwrap();
    assert!(text.len() <= 1, "token {i} matched {text:?}");
    if let Some((id, _)) = text.first() {
        assert_eq!(lake.entry(*id).unwrap().name, probe);
    }
    let hits = lake
        .prepare("FIND MODELS WHERE name LIKE 'base-%' OR name LIKE 'probe-%'")
        .unwrap()
        .run()
        .unwrap();
    let bases = hits
        .iter()
        .filter(|h| lake.entry(ModelId(h.id)).unwrap().name.starts_with("base-"))
        .count();
    let probes = hits.len() - bases;
    assert!(
        bases == probes || bases == probes + 1,
        "the scan saw {bases} bases and {probes} probes: not one op boundary"
    );
    seen.reads += 3;
}

#[test]
fn readers_see_whole_ops() {
    let exhaustive = mlake_index::HnswConfig {
        ef_search: 4096,
        ef_construction: 4096,
        ..mlake_index::HnswConfig::default()
    };
    let lake = Arc::new(ModelLake::new(
        LakeConfig::builder().hnsw(exhaustive).build().unwrap(),
    ));
    let background = generate_lake(&LakeSpec {
        num_base_models: 8,
        ..LakeSpec::tiny(5)
    });
    for (i, m) in background.models.iter().enumerate() {
        lake.ingest_model(&format!("m-{i}"), &m.model, None)
            .unwrap();
    }
    assert!(
        lake.len() >= 32,
        "the MLQL filter must take the parallel scan"
    );
    let fresh = generate_lake(&LakeSpec::tiny(6));
    assert!(fresh.models.len() >= PAIRS);

    let done = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (lake, done, tx) = (Arc::clone(&lake), Arc::clone(&done), tx.clone());
            std::thread::spawn(move || {
                let mut seen = Seen::default();
                let mut i = r;
                while !done.load(Ordering::Acquire) {
                    read_once(&lake, i % PAIRS, &mut seen);
                    i += 1;
                }
                tx.send(()).unwrap();
                seen
            })
        })
        .collect();
    drop(tx);
    for (i, m) in fresh.models.iter().take(PAIRS).enumerate() {
        lake.ingest_model(&format!("base-{i}"), &m.model, None)
            .unwrap();
        let mut card = mlake_cards::ModelCard::skeleton(format!("probe-{i}"), "");
        card.notes = token(i);
        lake.ingest_model(&format!("probe-{i}"), &m.model, Some(card))
            .unwrap();
    }
    done.store(true, Ordering::Release);

    // A reader that hangs never signals; one that panics drops its sender,
    // and its join below reports the panic.
    for _ in 0..READERS {
        if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(120)) {
            panic!("a reader did not return");
        }
    }
    let mut total = Seen::default();
    for reader in readers {
        let seen = reader.join().expect("reader panicked");
        total.reads += seen.reads;
        total.whole += seen.whole;
        total.partial.extend(seen.partial);
    }
    let one_branch = total.partial.iter().filter(|&&s| s <= ONE).count();
    eprintln!(
        "{} reads: probe whole {} times, one branch's mass {one_branch} times, other {}",
        total.reads,
        total.whole,
        total.partial.len() - one_branch
    );
    // After the writer, every pair is whole.
    let mut last = Seen::default();
    for i in 0..PAIRS {
        read_once(&lake, i, &mut last);
    }
    assert_eq!(last.whole, PAIRS);
    assert!(
        total.partial.is_empty(),
        "probe-i carried {:?} in {} reads ({} whole); one branch's mass is {ONE}",
        total.partial,
        total.reads,
        total.whole
    );
}

/// `similar` around every model under `kind`, as raw bits.
fn kind_bits(lake: &ModelLake, kind: FingerprintKind) -> Vec<Vec<(u64, u32)>> {
    (0..lake.len() as u64)
        .map(|id| {
            let hits = lake.similar(ModelId(id), kind, 4).unwrap();
            hits.iter().map(|(m, s)| (m.0, s.to_bits())).collect()
        })
        .collect()
}

/// On a freshly reopened lake, three threads each make the first read of a
/// different kind and then read the other two: however the builds and
/// catch-ups interleave, every answer equals a sequential reader's. The
/// beam is narrow, so a graph built in another order would answer otherwise.
#[test]
fn first_reads_of_every_kind_race_to_the_sequential_answers() {
    let narrow = mlake_index::HnswConfig {
        m: 2,
        ef_construction: 2,
        ef_search: 2,
        ..mlake_index::HnswConfig::default()
    };
    let config = || LakeConfig::builder().hnsw(narrow).build().unwrap();
    let dir = std::env::temp_dir().join(format!("mlake-first-reads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gt = generate_lake(&LakeSpec::tiny(11));
    {
        // Half the models reach the reopen through the segment fold, half
        // through WAL replay.
        let lake = ModelLake::create(&dir, config()).unwrap();
        let (folded, replayed) = gt.models.split_at(gt.models.len() / 2);
        for m in folded {
            lake.ingest_model(&m.name, &m.model, None).unwrap();
        }
        lake.persist(&dir).unwrap();
        for m in replayed {
            lake.ingest_model(&m.name, &m.model, None).unwrap();
        }
    }
    let sequential = {
        let lake = ModelLake::open(&dir, config()).unwrap();
        FingerprintKind::ALL.map(|kind| kind_bits(&lake, kind))
    };
    for round in 0..4 {
        let lake = Arc::new(ModelLake::open(&dir, config()).unwrap());
        let start = Arc::new(std::sync::Barrier::new(3));
        let readers = FingerprintKind::ALL.map(|first| {
            let (lake, start) = (Arc::clone(&lake), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut seen = [(); 3].map(|_| Vec::new());
                for k in 0..3 {
                    let kind = FingerprintKind::ALL[(first as usize + k) % 3];
                    seen[kind as usize] = kind_bits(&lake, kind);
                }
                seen
            })
        });
        for (first, reader) in FingerprintKind::ALL.iter().zip(readers) {
            let seen = reader.join().expect("reader panicked");
            assert_eq!(seen, sequential, "round {round}: the reader that first read {first:?}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
