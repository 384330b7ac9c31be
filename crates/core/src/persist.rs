//! Lake persistence: block segments + superblock + the write-ahead log
//! (DESIGN.md §12, §15). One writer, one reader.
//!
//! ```text
//! <dir>/
//!   blobs/<sha256-hex>.blob    content-addressed model artifacts
//!   segs/<seq>.seg             immutable, checksummed block segments
//!   manifest.json              superblock (v3): the live segment chain
//!                              and the WAL LSN the chain covers
//!   wal/<lsn>.wal              write-ahead log segments (mlake-wal)
//! ```
//!
//! **Writer.** [`ModelLake::persist`] — or the op that crosses a
//! [`crate::lake::CompactionPolicy`], through the same
//! [`ModelLake::persist_locked`] — runs under `op_lock`, whose guard *is*
//! the persist marks, and walks the catalogue once, under one read guard,
//! for the **delta** since those marks: the models, card overrides,
//! dataset/benchmark registrations and events the live chain does not yet
//! cover. The card overrides are the models below the model mark that a
//! `CardUpdated` event past the event mark names. Into the lake's own
//! directory that delta lands as one new segment and the superblock swaps
//! to the extended chain — cost O(ops since last persist), not O(lake). A
//! major compaction (the chain would outgrow [`MAX_LIVE_SEGMENTS`]) and an
//! export into any other directory write the delta since zero marks — the
//! whole catalogue, from memory — as a single segment. An ephemeral lake's
//! marks are zero and its chain empty, so its delta *is* the catalogue.
//! Every file lands via temp-file + rename; a crash mid-persist leaves
//! either the old superblock or the new one, never a torn mix (at worst
//! an unreachable segment for GC).
//!
//! **Reader.** [`ModelLake::open`] reads the superblock, applies each
//! segment of the chain in order, then every WAL record past the
//! superblock's `last_lsn`, each through [`ModelLake::apply_record`] — the
//! function live ops change the catalogue through. That is pure metadata,
//! no model blobs: the fingerprints a `Model` block carries land on the
//! registry entry (the first search builds the HNSW indexes from them, the
//! first text read the text index from the cards), and artifact bytes page
//! in lazily through the store's residency layer on first touch. A legacy
//! v1/v2 whole-state manifest becomes blocks through the legacy converter,
//! which faults each blob in and fingerprints it (the only re-fingerprint
//! left); its next persist writes the catalogue as segment 1 and upgrades
//! it to v3.

use crate::blockstore::{self, Block, ModelBlock};
use crate::durable::{canonical_dir, WalLink};
use crate::error::{LakeError, Result};
use crate::event::{EventKind, EventLog};
use crate::hash::Digest;
use crate::lake::{Catalogue, LakeConfig, ModelLake, SegState};
use crate::registry::BenchmarkEntry;
use crate::store::ResidentStore;
use mlake_benchlab::Benchmark;
use mlake_cards::ModelCard;
use mlake_wal::{RealFs, Vfs, Wal};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// Current manifest format version. v3 turned the manifest into a
/// superblock over immutable block segments (DESIGN.md §15); v2 added
/// `last_lsn` (the WAL high-water mark); v1 predates the WAL. All three
/// still open.
pub const MANIFEST_VERSION: u32 = 3;

/// Once the live chain would grow past this many segments, persist writes
/// the whole catalogue as a single segment instead of appending a delta,
/// bounding the chain open applies.
const MAX_LIVE_SEGMENTS: usize = 8;

/// The v3 superblock: all `manifest.json` holds is the live segment
/// chain and the WAL position it covers. State lives in the segments.
#[derive(Debug, Serialize, Deserialize)]
struct SuperBlock {
    /// Format version.
    version: u32,
    /// Lake name.
    name: String,
    /// Live segment sequence numbers, in chain order.
    segments: Vec<u64>,
    /// Highest WAL LSN the chain covers; replay starts after it.
    #[serde(default)]
    last_lsn: u64,
}

/// What every manifest version has in common: enough to dispatch on,
/// name the lake and position WAL replay.
#[derive(Debug, Deserialize)]
struct ManifestHead {
    #[serde(default)]
    version: u32,
    #[serde(default)]
    name: String,
    #[serde(default)]
    last_lsn: u64,
}

/// The catalogue part of a v1/v2 whole-state manifest. Read-only: the
/// upgrade reader ([`ModelLake::legacy_manifest`]) is its one consumer.
#[derive(Debug, Deserialize)]
struct LegacyManifest {
    models: Vec<LegacyManifestModel>,
    datasets: Vec<mlake_datagen::Dataset>,
    benchmarks: Vec<(Benchmark, Option<String>)>,
    events: EventLog,
}

#[derive(Debug, Deserialize)]
struct LegacyManifestModel {
    name: String,
    digest: String,
    card: ModelCard,
}

/// Marks covering all of `cat`; the caller sets the chain.
fn catalogue_marks(cat: &Catalogue) -> SegState {
    SegState {
        models: cat.registry.models.len(),
        datasets: cat.registry.datasets.len(),
        benchmarks: cat.registry.benchmarks.keys().cloned().collect(),
        events: cat.events.events().len(),
        ..SegState::default()
    }
}

/// The catalogue delta since the persist marks in `seg`, as blocks, plus
/// the marks that cover the catalogue once those blocks are durable. The
/// only place the catalogue is walked for persistence; at zero marks the
/// delta is the whole catalogue. The caller holds `op_lock` and the read
/// guard `cat` comes from, so catalogue and marks are one consistent cut.
pub(crate) fn delta_since(cat: &Catalogue, seg: &SegState) -> (Vec<Block>, SegState) {
    let reg = &cat.registry;
    let mut blocks = Vec::new();
    for entry in &reg.models[seg.models..] {
        blocks.push(Block::Model(ModelBlock {
            name: entry.name.clone(),
            digest: entry.digest.to_hex(),
            arch: entry.arch.clone(),
            params: entry.params,
            card: entry.card.clone(),
            fps: blockstore::fp_bits(&entry.fps),
        }));
    }
    // Cards replaced on already-persisted models, in id order: the ones a
    // `CardUpdated` event past the event mark names. The Model blocks
    // above carry their current card already.
    let events = cat.events.events();
    let dirty: std::collections::BTreeSet<u64> = events[seg.events..]
        .iter()
        .filter(|e| e.kind == EventKind::CardUpdated)
        .filter_map(|e| reg.id_of(&e.subject))
        .map(|id| id.0)
        .filter(|&id| (id as usize) < seg.models)
        .collect();
    for id in dirty {
        let card = reg.models[id as usize].card.clone();
        blocks.push(Block::CardOverride { id, card });
    }
    for dataset in &reg.datasets[seg.datasets..] {
        blocks.push(Block::Dataset {
            dataset: dataset.clone(),
        });
    }
    let mut benchmarks: Vec<&BenchmarkEntry> = reg
        .benchmarks
        .values()
        .filter(|e| !seg.benchmarks.contains(&e.benchmark.name))
        .collect();
    benchmarks.sort_by(|a, b| a.benchmark.name.cmp(&b.benchmark.name));
    for e in benchmarks {
        blocks.push(Block::Benchmark {
            benchmark: e.benchmark.clone(),
            domain: e.domain.clone(),
        });
    }
    if events.len() > seg.events {
        blocks.push(Block::Events {
            events: events[seg.events..].to_vec(),
        });
    }
    (blocks, catalogue_marks(cat))
}

impl ModelLake {
    /// Persists the lake into `dir` (created if absent). On a durable lake
    /// persisting into its own directory this is incremental: one delta
    /// segment (if anything changed), a superblock swap, and WAL
    /// compaction — cost O(ops since last persist). Persisting anywhere
    /// else exports the full lake.
    // lint: no-span — persist_locked opens the lake.persist span
    pub fn persist(&self, dir: &Path) -> Result<()> {
        let vfs = self
            .wal
            .as_ref()
            .map(|l| Arc::clone(&l.vfs))
            .unwrap_or_else(RealFs::shared);
        // Hold the op lock so the cut and its last_lsn are one consistent
        // view of the lake; it excludes every mutator of the marks too.
        self.persist_locked(&mut self.op_lock.lock(), dir, &vfs)
    }

    /// The persist body shared by [`ModelLake::persist`], create and the
    /// compaction trigger: one consistent cut of the lake under the
    /// `op_lock` (`seg` is the guard), written as the delta since the last
    /// persist (own directory) or as the whole catalogue in one segment
    /// (major compaction, or any other directory — which leaves the lake's
    /// own chain, marks and WAL untouched).
    pub(crate) fn persist_locked(
        &self,
        seg: &mut SegState,
        dir: &Path,
        vfs: &Arc<dyn Vfs>,
    ) -> Result<()> {
        let _span = mlake_obs::span("lake.persist");
        vfs.create_dir_all(dir)?;
        // The lake's own directory under any spelling (relative, `..`, a
        // symlink) is still its own directory: compare resolved identities.
        let own = self
            .wal
            .as_ref()
            .filter(|link| link.dir == canonical_dir(dir));
        let rewrite = own.is_none() || seg.live.len() + 1 > MAX_LIVE_SEGMENTS;
        let seq = if own.is_some() { seg.next_seq.max(1) } else { 1 };
        let zero = SegState::default();
        let cat = self.catalogue();
        let (blocks, mut covered) = delta_since(&cat, if rewrite { &zero } else { seg });
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
        let mut segments = if rewrite { Vec::new() } else { seg.live.clone() };
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
            // The swap landed: advance the marks to the persisted cut.
            covered.live = superblock.segments;
            covered.next_seq = seq + 1;
            *seg = covered;
            // The chain is the new recovery base: drop the covered WAL prefix.
            link.wal.compact_to(last_lsn)?;
        }
        Ok(())
    }

    /// Opens a persisted lake: loads the superblock and applies the segment
    /// chain in order — metadata only; model blobs page in lazily on first touch
    /// and the fingerprint indexes (restored from persisted fingerprints,
    /// never recomputed) build on first search. A legacy v1/v2 manifest
    /// replays as ops instead. Then the write-ahead log replays past the
    /// manifest's `last_lsn`. The returned lake is durable: further
    /// mutations append to the same WAL.
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
        let manifest_bytes = vfs.read(&dir.join("manifest.json"))?;
        let head: ManifestHead = serde_json::from_slice(&manifest_bytes)
            .map_err(|e| LakeError::CorruptArtifact(format!("manifest decode: {e}")))?;
        if head.version == 0 || head.version > MANIFEST_VERSION {
            return Err(LakeError::UnsupportedManifest {
                found: head.version,
                supported: MANIFEST_VERSION,
            });
        }
        let mut lake = ModelLake::new(LakeConfig {
            name: head.name,
            ..config
        });
        // Non-resident blobs fault in, digest-verified, from the lake's
        // own blob directory.
        lake.store.attach_backing(&dir.join("blobs"), Arc::clone(&vfs));
        // The lake is not shared yet: open builds the persist marks here
        // and hands them to `op_lock` once the lake is whole.
        let mut seg = SegState::default();
        if head.version == MANIFEST_VERSION {
            let sb: SuperBlock = serde_json::from_slice(&manifest_bytes)
                .map_err(|e| LakeError::CorruptArtifact(format!("superblock decode: {e}")))?;
            for &seq in &sb.segments {
                lake.apply_record(blockstore::read_segment(dir, &vfs, seq)?)?;
            }
            // Everything the chain covers is persisted; WAL-replayed ops
            // past this point count as fresh again.
            seg = catalogue_marks(&lake.catalogue());
            seg.next_seq = sb.segments.iter().copied().max().unwrap_or(0) + 1;
            seg.live = sb.segments;
        } else {
            lake.apply_record(lake.legacy_manifest(&manifest_bytes)?)?;
        }
        // Replay everything the manifest does not cover, in LSN order.
        let (wal, replay) = Wal::open_with(
            &dir.join("wal"),
            lake.wal_options(),
            Arc::clone(&vfs),
            head.last_lsn,
        )?;
        for (lsn, payload) in &replay.records {
            lake.replay_record(*lsn, payload)?;
        }
        lake.wal = Some(WalLink {
            wal,
            dir: canonical_dir(dir),
            vfs,
        });
        *lake.op_lock.get_mut() = seg;
        Ok(lake)
    }

    /// The v1/v2 reader: a whole-state manifest as blocks. Each model goes
    /// through the legacy converter (blob faulted in, fingerprinted) and
    /// the manifest's event history lands as one `Events` block. The
    /// persist marks stay at zero, so the next persist writes the whole
    /// catalogue as segment 1 under a v3 superblock.
    fn legacy_manifest(&self, manifest_bytes: &[u8]) -> Result<Vec<Block>> {
        let manifest: LegacyManifest = serde_json::from_slice(manifest_bytes)
            .map_err(|e| LakeError::CorruptArtifact(format!("manifest decode: {e}")))?;
        let mut blocks: Vec<Block> = manifest
            .datasets
            .into_iter()
            .map(|dataset| Block::Dataset { dataset })
            .collect();
        blocks.extend(
            manifest
                .benchmarks
                .into_iter()
                .map(|(benchmark, domain)| Block::Benchmark { benchmark, domain }),
        );
        for m in manifest.models {
            blocks.push(self.legacy_model(&m.name, &m.digest, m.card)?);
        }
        blocks.push(Block::Events {
            events: manifest.events.events().to_vec(),
        });
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::populate::{populate_from_ground_truth, CardPolicy};
    use crate::registry::ModelId;
    use mlake_datagen::{generate_lake, LakeSpec};

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
    fn persisted_superblock_records_wal_high_water_mark() {
        let dir = tmp("lsn");
        let _ = std::fs::remove_dir_all(&dir);
        let lake = ModelLake::create(&dir, LakeConfig::default()).unwrap();
        assert!(lake.is_durable());
        let gt = generate_lake(&LakeSpec::tiny(2));
        populate_from_ground_truth(&lake, &gt, CardPolicy::Honest).unwrap();
        lake.persist(&dir).unwrap();
        let sb: SuperBlock =
            serde_json::from_slice(&std::fs::read(dir.join("manifest.json")).unwrap()).unwrap();
        assert_eq!(sb.version, MANIFEST_VERSION);
        assert!(sb.last_lsn > 0, "durable mutations must advance last_lsn");
        assert!(!sb.segments.is_empty(), "the delta landed as a segment");
        // Compaction happened: reopening replays nothing, state intact.
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
            let sb: SuperBlock =
                serde_json::from_slice(&std::fs::read(dir.join("manifest.json")).unwrap())
                    .unwrap();
            chain_lens.push(sb.segments.len());
            assert!(
                sb.segments.len() <= MAX_LIVE_SEGMENTS,
                "persist {i}: chain {:?} exceeds the fold bound",
                sb.segments
            );
        }
        // The chain grew by one per persist until a major fold reset it.
        assert!(chain_lens.windows(2).any(|w| w[1] > w[0]), "deltas appended");
        assert!(chain_lens.windows(2).any(|w| w[1] < w[0]), "a major fold ran");
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
