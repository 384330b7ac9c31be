//! Lake persistence: block segments + superblock + the write-ahead log
//! (DESIGN.md §12, §15). One writer, one reader.
//!
//! ```text
//! <dir>/
//!   blobs/<sha256-hex>.blob    content-addressed model artifacts
//!   segs/<seq>.seg             immutable, checksummed block segments
//!   manifest.json              superblock (v4): the live segment chain
//!                              and the WAL LSN the chain covers
//!   wal/<lsn>.wal              write-ahead log segments (mlake-wal); the
//!                              sealed ones are the persisted deltas
//! ```
//!
//! **Writer.** Every op's blocks are already on disk, in the one WAL
//! record the op appended, so the lake's history is written once.
//! [`ModelLake::persist`] into the lake's own directory runs under
//! `op_lock` and seals the WAL's active segment ([`mlake_wal::Wal::seal`]):
//! that sealed segment *is* the delta since the last persist. It writes
//! nothing else — no segment, no superblock — so its cost is O(1). The
//! chain a reopen applies is the superblock's segments, then every sealed
//! WAL segment past its `last_lsn`. Once that chain would pass
//! [`MAX_LIVE_SEGMENTS`], and on the first persist of a lake whose chain
//! is empty, the persist **folds** instead (`ModelLake::fold`): it writes
//! the whole catalogue, from memory, as one segment, swaps the superblock
//! to it and compacts away the WAL it covers. A fold is the only writer of
//! segments; create, an export into any other directory and an upgrade
//! fold too. No op folds or seals. Every file lands via temp-file +
//! rename; a crash mid-fold leaves either the old superblock or the new
//! one, never a torn mix (at worst an unreachable segment for GC).
//!
//! **Reader.** [`ModelLake::open`] reads the superblock, applies each
//! segment of the chain in order, then every WAL record past the
//! superblock's `last_lsn` — the sealed segments persists left, then the
//! active one — each through [`ModelLake::apply_record`], the function live
//! ops change the catalogue through. That is pure metadata,
//! no model blobs: the fingerprints a `Model` block carries land on the
//! registry entry (a kind's first search builds that kind's HNSW graph
//! from them, the first text read the text index from the cards), and
//! artifact bytes page in lazily through the store's residency layer on
//! first touch. An older superblock is [`LakeError::UnsupportedManifest`]
//! until [`ModelLake::upgrade`].

use crate::blockstore::{self, Block, ModelBlock};
use crate::durable::canonical_dir;
use crate::error::{LakeError, Result};
use crate::hash::Digest;
use crate::lake::{Catalogue, LakeConfig, ModelLake, SegState};
use crate::registry::BenchmarkEntry;
use crate::store::ResidentStore;
use mlake_wal::{RealFs, Vfs};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// The manifest format [`ModelLake::open`] reads (DESIGN.md §12, §15): a
/// superblock over block segments, and a WAL of block lists. Older ones go
/// through [`ModelLake::upgrade`].
pub const MANIFEST_VERSION: u32 = 4;

/// Once the chain — the superblock's segments plus the sealed WAL segments
/// past its `last_lsn` — would grow past this many, persist folds the
/// whole catalogue into a single segment instead of sealing, bounding the
/// chain open applies.
const MAX_LIVE_SEGMENTS: usize = 8;

/// The superblock: the live segment chain and the WAL position it covers.
/// A v1/v2 manifest decodes as one too (no `segments`), naming its version.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct SuperBlock {
    /// Format version.
    #[serde(default)]
    pub(crate) version: u32,
    /// Lake name.
    pub(crate) name: String,
    /// Live segment sequence numbers, in chain order.
    #[serde(default)]
    pub(crate) segments: Vec<u64>,
    /// Highest WAL LSN the chain covers; replay starts after it.
    #[serde(default)]
    pub(crate) last_lsn: u64,
}

impl SuperBlock {
    /// Decodes `manifest.json`'s bytes.
    pub(crate) fn decode(bytes: &[u8]) -> Result<SuperBlock> {
        serde_json::from_slice(bytes)
            .map_err(|e| LakeError::CorruptArtifact(format!("manifest decode: {e}")))
    }
}

/// The whole catalogue as one segment's blocks: every model with its
/// current card, the datasets, the benchmarks in name order, then the
/// event log. The only place the catalogue is walked for persistence.
fn catalogue_blocks(cat: &Catalogue) -> Vec<Block> {
    let reg = &cat.registry;
    let models = reg.models.iter().map(|entry| {
        Block::Model(ModelBlock {
            name: entry.name.clone(),
            digest: entry.digest.to_hex(),
            arch: entry.arch.clone(),
            params: entry.params,
            card: entry.card.clone(),
            fps: blockstore::fp_bits(&entry.fps),
        })
    });
    let datasets = reg.datasets.iter().map(|dataset| Block::Dataset {
        dataset: dataset.clone(),
    });
    let mut benchmarks: Vec<&BenchmarkEntry> = reg.benchmarks.values().collect();
    benchmarks.sort_by(|a, b| a.benchmark.name.cmp(&b.benchmark.name));
    let benchmarks = benchmarks.into_iter().map(|e| Block::Benchmark {
        benchmark: e.benchmark.clone(),
        domain: e.domain.clone(),
    });
    let mut blocks: Vec<Block> = models.chain(datasets).chain(benchmarks).collect();
    let events = cat.events.events();
    if !events.is_empty() {
        blocks.push(Block::Events {
            events: events.to_vec(),
        });
    }
    blocks
}

impl ModelLake {
    /// Persists the lake into `dir` (created if absent). Into the lake's
    /// own directory this seals the WAL's active segment — the delta since
    /// the last persist, already on disk — and writes nothing else, until
    /// the chain would pass [`MAX_LIVE_SEGMENTS`]: that persist, and the
    /// first one of a lake whose chain is empty, folds the whole catalogue
    /// into one segment instead. Persisting anywhere else exports the full
    /// lake.
    pub fn persist(&self, dir: &Path) -> Result<()> {
        let _span = mlake_obs::span("lake.persist");
        // Hold the op lock so the cut and its last_lsn are one consistent
        // view of the lake; it excludes every mutator of the chain too.
        let mut seg = self.op_lock.lock();
        let own = self.wal.as_ref().filter(|link| link.dir == canonical_dir(dir));
        // A chain to extend: the WAL's active segment joins it as it is.
        if let Some(link) = own.filter(|_| !seg.live.is_empty()) {
            link.wal.seal()?;
            if seg.live.len() + link.wal.sealed_count() <= MAX_LIVE_SEGMENTS {
                return Ok(());
            }
        }
        let vfs = self
            .wal
            .as_ref()
            .map(|l| Arc::clone(&l.vfs))
            .unwrap_or_else(RealFs::shared);
        self.fold(&mut seg, dir, &vfs)
    }

    /// Writes the whole catalogue, from memory, into `dir` as one segment
    /// and swaps the superblock to it: the only writer of segments. Into
    /// the lake's own directory — a persist's fold, an upgrade — the
    /// segment becomes the whole chain and the WAL prefix it covers is
    /// dropped. Anywhere else — create, an export — the blobs are copied
    /// too, and the lake's own chain and WAL stay untouched.
    /// `seg` is the `op_lock` guard, so the catalogue and its `last_lsn`
    /// are one consistent cut.
    pub(crate) fn fold(&self, seg: &mut SegState, dir: &Path, vfs: &Arc<dyn Vfs>) -> Result<()> {
        // The lake's own directory under any spelling (relative, `..`, a
        // symlink) is still its own directory: compare resolved identities.
        let own = self
            .wal
            .as_ref()
            .filter(|link| link.dir == canonical_dir(dir));
        // Another lake's directory: its WAL tail would replay onto this
        // catalogue. An export never creates `wal/`, so it can be redone.
        if own.is_none() && vfs.exists(&dir.join("wal")) {
            return Err(LakeError::Duplicate {
                kind: "lake",
                name: dir.display().to_string(),
            });
        }
        vfs.create_dir_all(dir)?;
        let seq = if own.is_some() { seg.next_seq.max(1) } else { 1 };
        let cat = self.catalogue();
        let blocks = catalogue_blocks(&cat);
        let digests: Vec<Digest> = match own {
            Some(_) => Vec::new(),
            None => cat.registry.models.iter().map(|e| e.digest).collect(),
        };
        drop(cat);
        if own.is_none() {
            // Blob export: the store faults evicted blobs back in from the
            // lake's own backing as needed.
            let blob_dir = dir.join("blobs");
            vfs.create_dir_all(&blob_dir)?;
            for digest in &digests {
                let path = ResidentStore::blob_path(&blob_dir, digest);
                if !vfs.exists(&path) {
                    vfs.write_atomic(&path, &self.store.get(digest)?)?;
                }
            }
        }

        // Segment first, superblock second: a crash between the two leaves
        // the old superblock pointing at the old chain and one unreachable
        // segment for GC. Never a torn state.
        let mut segments = Vec::new();
        if !blocks.is_empty() {
            blockstore::write_segment(dir, vfs, seq, &blocks)?;
            segments.push(seq);
        }
        let last_lsn = self.wal.as_ref().map_or(0, |link| link.wal.head());
        let superblock = SuperBlock {
            version: MANIFEST_VERSION,
            name: self.config.name.clone(),
            segments,
            last_lsn,
        };
        let json = serde_json::to_vec_pretty(&superblock)
            .map_err(|e| LakeError::CorruptArtifact(format!("superblock encode: {e}")))?;
        vfs.write_atomic(&dir.join("manifest.json"), &json)?;

        if let Some(link) = own {
            // The swap landed: the segment is the chain. The recovery memo
            // stays: its registry prefix is still the lake's.
            seg.live = superblock.segments;
            seg.next_seq = seq + 1;
            // The chain is the new recovery base: drop the covered WAL prefix.
            link.wal.compact_to(last_lsn)?;
        }
        Ok(())
    }

    /// Opens a persisted lake: loads the superblock and applies the segment
    /// chain in order — metadata only; model blobs page in lazily on first
    /// touch and each fingerprint kind's index (restored from persisted
    /// fingerprints, never recomputed) builds on that kind's first search.
    /// Then the write-ahead log replays past the superblock's `last_lsn`:
    /// the sealed segments persists left, then the active one.
    /// The returned lake is durable: further mutations append to the same
    /// WAL. Any version but [`MANIFEST_VERSION`] is
    /// [`LakeError::UnsupportedManifest`].
    ///
    /// `config` must use the same probe/sketch parameters the lake was
    /// created with for fingerprints to match; the lake name is restored
    /// from the manifest.
    // lint: no-span — open_with opens the lake.open span
    pub fn open(dir: &Path, config: LakeConfig) -> Result<ModelLake> {
        Self::open_with(dir, config, RealFs::shared())
    }

    /// [`ModelLake::open`] through an arbitrary [`Vfs`].
    pub fn open_with(dir: &Path, config: LakeConfig, vfs: Arc<dyn Vfs>) -> Result<ModelLake> {
        let _span = mlake_obs::span("lake.open");
        let sb = SuperBlock::decode(&vfs.read(&dir.join("manifest.json"))?)?;
        if sb.version != MANIFEST_VERSION {
            return Err(LakeError::UnsupportedManifest {
                found: sb.version,
                supported: MANIFEST_VERSION,
            });
        }
        let mut lake = ModelLake::new(LakeConfig {
            name: sb.name,
            ..config
        });
        // Non-resident blobs fault in, digest-verified, from the lake's
        // own blob directory.
        lake.store.attach_backing(&dir.join("blobs"), Arc::clone(&vfs));
        for &seq in &sb.segments {
            lake.apply_record(blockstore::read_segment(dir, &vfs, seq)?)?;
        }
        // The lake is not shared yet: hand the chain to `op_lock` directly.
        let seg = lake.op_lock.get_mut();
        seg.next_seq = sb.segments.iter().copied().max().unwrap_or(0) + 1;
        seg.live = sb.segments;
        // Replay everything the superblock does not cover, in LSN order.
        lake.attach_wal(dir, vfs, sb.last_lsn, ModelLake::block_list)?;
        Ok(lake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::populate::{populate_from_ground_truth, CardPolicy};
    use crate::registry::ModelId;
    use mlake_cards::ModelCard;
    use mlake_datagen::{generate_lake, LakeSpec};
    use mlake_wal::Wal;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mlake-persist-{tag}-{}", std::process::id()))
    }

    #[test]
    fn persist_open_round_trip() {
        let dir = tmp("rt");
        let _ = std::fs::remove_dir_all(&dir);
        let gt = generate_lake(&LakeSpec::tiny(3));
        let lake = ModelLake::new(LakeConfig::default());
        populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
        let citation_before = {
            lake.rebuild_version_graph(None).unwrap();
            lake.cite(ModelId(1)).unwrap()
        };
        lake.persist(&dir).unwrap();

        let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
        assert!(reopened.is_durable());
        assert_eq!(reopened.len(), lake.len());
        assert_eq!(reopened.model_names(), lake.model_names());
        assert_eq!(reopened.benchmark_names(), lake.benchmark_names());
        // Artifacts identical bit for bit.
        for i in 0..lake.len() {
            assert_eq!(
                reopened.model(ModelId(i as u64)).unwrap().flat_params(),
                lake.model(ModelId(i as u64)).unwrap().flat_params()
            );
        }
        // Cards survive.
        assert_eq!(
            reopened.entry(ModelId(0)).unwrap().card,
            lake.entry(ModelId(0)).unwrap().card
        );
        // Citations (graph timestamps) survive the round trip.
        reopened.rebuild_version_graph(None).unwrap();
        let citation_after = reopened.cite(ModelId(1)).unwrap();
        assert_eq!(citation_before.model_name, citation_after.model_name);
        // Search works on the rebuilt indexes.
        let hits = reopened
            .similar(ModelId(0), mlake_fingerprint::FingerprintKind::Hybrid, 3)
            .unwrap();
        assert!(!hits.is_empty());
        // Queries work.
        assert!(!reopened
            .prepare("FIND MODELS WHERE task = 'classification'")
            .unwrap()
            .run()
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_name_registered_twice_is_corrupt_from_the_chain_or_the_wal() {
        let dir = tmp("twice");
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = RealFs::shared();
        let gt = generate_lake(&LakeSpec::tiny(4));
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        lake.ingest_model("a", &gt.models[0].model, None).unwrap();
        lake.persist(&dir).unwrap();
        drop(lake);
        let manifest = std::fs::read(dir.join("manifest.json")).unwrap();
        let model = blockstore::read_segment(&dir, &vfs, 1).unwrap().remove(0);
        assert!(matches!(model, Block::Model(_)));
        let corrupt = || {
            matches!(
                ModelLake::open(&dir, LakeConfig::default()),
                Err(LakeError::CorruptArtifact(_))
            )
        };
        // A second segment registering "a" again — the chain the alias-dir
        // persist bug wrote.
        blockstore::write_segment(&dir, &vfs, 2, std::slice::from_ref(&model)).unwrap();
        let mut sb: SuperBlock = serde_json::from_slice(&manifest).unwrap();
        sb.segments.push(2);
        std::fs::write(dir.join("manifest.json"), serde_json::to_vec(&sb).unwrap()).unwrap();
        assert!(corrupt(), "a two-segment chain with one name twice opened");
        // The one-segment chain plus a WAL record registering "a" again.
        std::fs::write(dir.join("manifest.json"), manifest).unwrap();
        let opts = mlake_wal::WalOptions::default();
        let (wal, _) = Wal::open_with(&dir.join("wal"), opts, vfs, sb.last_lsn).unwrap();
        wal.append(&serde_json::to_vec(&[model]).unwrap()).unwrap();
        drop(wal);
        assert!(corrupt(), "a WAL tail re-registering a folded name opened");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_missing_and_corrupt() {
        let dir = tmp("bad");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(ModelLake::open(&dir, LakeConfig::default()).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), b"{not json").unwrap();
        assert!(matches!(
            ModelLake::open(&dir, LakeConfig::default()),
            Err(LakeError::CorruptArtifact(_))
        ));
        // A future manifest version must fail with the typed error, not a
        // panic and not a generic corruption report.
        std::fs::write(
            dir.join("manifest.json"),
            br#"{"version":99,"name":"x","segments":[]}"#,
        )
        .unwrap();
        std::fs::create_dir_all(dir.join("blobs")).unwrap();
        assert!(matches!(
            ModelLake::open(&dir, LakeConfig::default()),
            Err(LakeError::UnsupportedManifest {
                found: 99,
                supported: MANIFEST_VERSION
            })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exporting_into_another_lakes_directory_is_refused() {
        let dir = tmp("foreign");
        let export = tmp("foreign-export");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&export);
        let gt = generate_lake(&LakeSpec::tiny(5));
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        for gm in &gt.models[..3] {
            lake.ingest_model(&gm.name, &gm.model, None).unwrap();
        }
        lake.persist(&dir).unwrap();
        // A WAL tail the chain does not cover yet.
        for gm in &gt.models[3..5] {
            lake.ingest_model(&gm.name, &gm.model, None).unwrap();
        }
        drop(lake);
        let other = ModelLake::new(LakeConfig::default());
        other
            .ingest_model("other", &gt.models[5].model, None)
            .unwrap();
        let manifest = std::fs::read(dir.join("manifest.json")).unwrap();
        assert!(matches!(
            other.persist(&dir),
            Err(LakeError::Duplicate { kind: "lake", .. })
        ));
        assert_eq!(std::fs::read(dir.join("manifest.json")).unwrap(), manifest);
        assert_eq!(
            ModelLake::open(&dir, LakeConfig::default()).unwrap().len(),
            5
        );
        // An export holds no WAL, so exporting over it again still works.
        other.persist(&export).unwrap();
        other.persist(&export).unwrap();
        assert_eq!(
            ModelLake::open(&export, LakeConfig::default())
                .unwrap()
                .len(),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&export).unwrap();
    }

    #[test]
    fn persisted_superblock_records_wal_high_water_mark() {
        let dir = tmp("lsn");
        let _ = std::fs::remove_dir_all(&dir);
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        assert!(lake.is_durable());
        let gt = generate_lake(&LakeSpec::tiny(2));
        populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
        // The lake's chain is empty, so its first persist is a fold.
        lake.persist(&dir).unwrap();
        let sb: SuperBlock =
            serde_json::from_slice(&std::fs::read(dir.join("manifest.json")).unwrap()).unwrap();
        assert_eq!(sb.version, MANIFEST_VERSION);
        assert!(sb.last_lsn > 0, "durable mutations must advance last_lsn");
        assert!(!sb.segments.is_empty(), "the fold wrote no segment");
        // The fold covers the WAL: reopening replays nothing, state intact.
        let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
        assert_eq!(reopened.len(), lake.len());
        assert_eq!(reopened.events(), lake.events());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Everything a reopen must reproduce bit for bit: the event log,
    /// every card, and `similar` hits (ids + score bits) around each model.
    type Observed = (Vec<crate::event::Event>, Vec<ModelCard>, Vec<Vec<(u64, u32)>>);

    fn observable(lake: &ModelLake) -> Observed {
        let ids = || (0..lake.len() as u64).map(ModelId);
        (
            lake.events(),
            ids().map(|id| lake.entry(id).unwrap().card).collect(),
            ids()
                .map(|id| {
                    lake.similar(id, mlake_fingerprint::FingerprintKind::Hybrid, 4)
                        .unwrap()
                        .into_iter()
                        .map(|(m, s)| (m.0, s.to_bits()))
                        .collect()
                })
                .collect(),
        )
    }

    /// The chain a reopen applies: the superblock's segments, then the
    /// sealed WAL segments — every WAL file but the active tail.
    fn chain_len(dir: &Path) -> usize {
        let sb = SuperBlock::decode(&std::fs::read(dir.join("manifest.json")).unwrap()).unwrap();
        sb.segments.len() + std::fs::read_dir(dir.join("wal")).unwrap().count() - 1
    }

    #[test]
    fn repeated_persists_append_deltas_and_major_fold_bounds_the_chain() {
        let dir = tmp("delta");
        let export = tmp("delta-export");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&export);
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        // tiny() yields ~a dozen models — enough ingest+persist cycles to
        // push the chain past MAX_LIVE_SEGMENTS and trigger a major fold.
        let gt = generate_lake(&LakeSpec::tiny(9));
        assert!(gt.models.len() > MAX_LIVE_SEGMENTS + 1);
        let mut chain_lens = Vec::new();
        for (i, gm) in gt.models.iter().enumerate() {
            lake.ingest_model(&gm.name, &gm.model, None).unwrap();
            if i == 1 {
                // A card override the fold must carry into model 0's block.
                let mut card = lake.entry(ModelId(0)).unwrap().card;
                card.notes = "overridden before the fold".into();
                lake.update_card(ModelId(0), card).unwrap();
            }
            lake.persist(&dir).unwrap();
            chain_lens.push(chain_len(&dir));
        }
        // The first persist folds the empty chain into one segment; each
        // later one seals one WAL segment onto it, until the one that would
        // pass the bound folds again.
        assert_eq!(
            chain_lens,
            [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4],
            "the chain broke its grow-then-fold cadence"
        );
        // An idle persist adds no segment.
        let before: SuperBlock =
            serde_json::from_slice(&std::fs::read(dir.join("manifest.json")).unwrap()).unwrap();
        lake.persist(&dir).unwrap();
        let after: SuperBlock =
            serde_json::from_slice(&std::fs::read(dir.join("manifest.json")).unwrap()).unwrap();
        assert_eq!(before.segments, after.segments, "no-op persist writes no segment");
        // Reopening folds the chain back to the same catalogue.
        let live = observable(&lake);
        drop(lake);
        let reopened = ModelLake::open(&dir, LakeConfig::default()).unwrap();
        assert_eq!(reopened.len(), gt.models.len());
        assert_eq!(observable(&reopened), live, "folded chain diverged from the live lake");
        assert_eq!(live.1[0].notes, "overridden before the fold");
        // Export of a reopened, then-mutated lake: chain + delta (a fresh
        // model, an override on a folded one) must flatten to a lake that
        // reopens identical.
        let late = &generate_lake(&LakeSpec::tiny(10)).models[0];
        reopened.ingest_model("late", &late.model, None).unwrap();
        let mut card = reopened.entry(ModelId(2)).unwrap().card;
        card.notes = "overridden after the reopen".into();
        reopened.update_card(ModelId(2), card).unwrap();
        reopened.persist(&export).unwrap();
        let exported = ModelLake::open(&export, LakeConfig::default()).unwrap();
        assert_eq!(observable(&exported), observable(&reopened), "export diverged");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&export).unwrap();
    }
}
