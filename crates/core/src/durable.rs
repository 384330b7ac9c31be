//! Durable lakes: the WAL wiring (DESIGN.md §12).
//!
//! A durable [`ModelLake`] pairs the in-memory facade with a
//! [`mlake_wal::Wal`] in `<dir>/wal/`. The lake has one mutation record,
//! the segment [`Block`]. Every mutating facade op builds the blocks it
//! adds to the next delta segment — its `Model` / `CardOverride` /
//! `Dataset` / `Benchmark` block, plus one `Events` block numbering the
//! events it appends — and appends them, as one JSON block list, as one
//! WAL record (fsynced per the configured [`mlake_wal::SyncPolicy`])
//! *before* [`ModelLake::apply_record`] applies them to the catalogue under
//! one write guard, so a crash at any instant loses at most unacknowledged
//! work. A `Model` block carries the fingerprints ingest computed, so
//! replaying it touches no blob. [`ModelLake::open`] applies the segment
//! chain in order and then every record past the superblock's `last_lsn`
//! through that same `apply_record`; `persist()` is "compact now": seal
//! the delta since the last persist as a segment, then drop the WAL
//! segments it covers. With a [`crate::lake::CompactionPolicy`], the op
//! whose record crosses a threshold does that itself, after its record is
//! applied and before it returns ([`ModelLake::maybe_compact`]): the lake
//! has one writer.
//!
//! Records written before blocks were the WAL payload hold one `WalOp`
//! each — a JSON object or string, where a block list is a JSON array, so
//! a payload's own shape says which it is and `mlake-wal`'s framing is
//! untouched. They stay readable through one decode-only converter, which
//! the v1/v2 manifest reader shares: [`ModelLake::legacy_model`] faults
//! the blob in and fingerprints it, the only re-fingerprint left.
//!
//! Model artifact blobs are not stored in WAL records (they would bloat
//! it); instead [`ModelLake::ingest_model`] writes the blob to
//! `<dir>/blobs/` atomically *before* appending the record that
//! references it by digest, so every logged ingest is replayable. A
//! crash between the two leaves an orphan blob — harmless, it is
//! content-addressed and unreferenced.

use crate::blockstore::Block;
use crate::error::{LakeError, Result};
use crate::event::EventKind;
use crate::hash::Digest;
use crate::lake::{LakeConfig, ModelLake, SegState};
use crate::registry::ModelId;
use mlake_benchlab::Benchmark;
use mlake_cards::ModelCard;
use mlake_nn::Model;
use mlake_wal::{RealFs, Vfs, Wal};
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A WAL record as lakes wrote it before blocks were the payload: one
/// facade op, no fingerprints. Decode-only.
#[derive(Debug, Deserialize)]
enum WalOp {
    Ingest {
        name: String,
        digest: String,
        card: ModelCard,
    },
    UpdateCard {
        id: u64,
        card: ModelCard,
    },
    RegisterDataset {
        dataset: mlake_datagen::Dataset,
    },
    RegisterBenchmark {
        benchmark: Benchmark,
        domain: Option<String>,
    },
    GraphRebuilt,
}

/// The durability state attached to a durable lake.
pub(crate) struct WalLink {
    /// The log under `<dir>/wal/`.
    pub(crate) wal: Wal,
    /// The lake's root directory (blobs, manifest and WAL live here), as
    /// resolved by [`canonical_dir`].
    pub(crate) dir: PathBuf,
    /// Filesystem all durable writes go through (the fault-injection
    /// harness plugs in here).
    pub(crate) vfs: Arc<dyn Vfs>,
}

/// The one identity of a directory however it is spelled (relative, via
/// `..`, through a symlink). A durable lake records its root this way and
/// `persist` resolves its argument the same way, so persisting into the
/// lake's own directory is recognised as such. A path that does not exist
/// yet cannot alias anything and stays as given.
pub(crate) fn canonical_dir(dir: &Path) -> PathBuf {
    std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf())
}

impl ModelLake {
    /// Creates a new durable lake rooted at `dir`: an empty snapshot plus
    /// a fresh WAL. Fails if `dir` already holds a lake (open it instead).
    pub fn create(dir: &Path, config: LakeConfig) -> Result<ModelLake> {
        let _span = mlake_obs::span("lake.create");
        Self::create_with(dir, config, RealFs::shared())
    }

    /// [`ModelLake::create`] through an arbitrary [`Vfs`] (tests inject
    /// `mlake_wal::testing::FailFs` here to crash mid-create).
    // lint: no-span — create() opens the lake.create span
    pub fn create_with(dir: &Path, config: LakeConfig, vfs: Arc<dyn Vfs>) -> Result<ModelLake> {
        if vfs.exists(&dir.join("manifest.json")) {
            return Err(LakeError::Duplicate {
                kind: "lake",
                name: dir.display().to_string(),
            });
        }
        let mut lake = ModelLake::new(config);
        vfs.create_dir_all(dir)?;
        lake.persist_locked(&mut lake.op_lock.lock(), dir, &vfs)?;
        // Evicted blobs page back in from the lake's own blob directory.
        lake.store.attach_backing(&dir.join("blobs"), Arc::clone(&vfs));
        let (wal, _) = Wal::open_with(
            &dir.join("wal"),
            lake.wal_options(),
            Arc::clone(&vfs),
            0,
        )?;
        lake.wal = Some(WalLink {
            wal,
            dir: canonical_dir(dir),
            vfs,
        });
        Ok(lake)
    }

    pub(crate) fn wal_options(&self) -> mlake_wal::WalOptions {
        mlake_wal::WalOptions {
            sync: self.config().wal_sync,
            ..mlake_wal::WalOptions::default()
        }
    }

    /// Flushes any group-commit-buffered WAL records to stable storage.
    /// A no-op on ephemeral lakes and under `SyncPolicy::Always`.
    pub fn sync(&self) -> Result<()> {
        let _span = mlake_obs::span("lake.sync");
        if let Some(link) = &self.wal {
            link.wal.sync()?;
        }
        Ok(())
    }

    /// Appends one op's blocks as one WAL record. A no-op when ephemeral.
    pub(crate) fn log_record(&self, blocks: &[Block]) -> Result<()> {
        let Some(link) = &self.wal else {
            return Ok(());
        };
        let payload = serde_json::to_vec(blocks)
            .map_err(|e| LakeError::Internal(format!("wal record encode: {e}")))?;
        link.wal.append(&payload)?;
        Ok(())
    }

    /// The compaction trigger (DESIGN.md §13), run by every committed op
    /// after its record is applied. Once the live WAL footprint or the
    /// sealed-segment backlog crosses the configured
    /// [`crate::lake::CompactionPolicy`], the op that crossed it persists
    /// the lake into its own directory and then collects garbage, under
    /// the `op_lock` it holds (`seg` is the guard). Its WAL record is
    /// durable already, so a failed compaction or GC is counted
    /// (`compact.errors`) and dropped: the op still succeeds, and the next
    /// trigger or explicit persist retries from scratch. Without a policy
    /// this is one `Option` check.
    pub(crate) fn maybe_compact(&self, seg: &mut SegState) {
        let (Some(policy), Some(link)) = (&self.config.compaction, &self.wal) else {
            return;
        };
        let by_bytes = policy.wal_bytes > 0 && link.wal.live_bytes() >= policy.wal_bytes;
        let by_segments =
            policy.wal_segments > 0 && link.wal.sealed_count() >= policy.wal_segments;
        if !(by_bytes || by_segments) {
            return;
        }
        let _span = mlake_obs::span("lake.compact");
        let outcome = self
            .persist_locked(seg, &link.dir, &link.vfs)
            .and_then(|()| self.gc_locked(seg));
        if mlake_obs::enabled() {
            match outcome {
                Ok(_) => mlake_obs::counter!("compact.runs").inc(),
                Err(_) => mlake_obs::counter!("compact.errors").inc(),
            }
        }
    }

    /// Durable half of ingestion: writes the artifact blob atomically, so
    /// the record naming it can be logged. A no-op when ephemeral.
    pub(crate) fn write_blob(&self, digest: &Digest, bytes: &[u8]) -> Result<()> {
        let Some(link) = &self.wal else {
            return Ok(());
        };
        let blob_dir = link.dir.join("blobs");
        link.vfs.create_dir_all(&blob_dir)?;
        let path = blob_dir.join(format!("{}.blob", digest.to_hex()));
        if !link.vfs.exists(&path) {
            link.vfs.write_atomic(&path, bytes)?;
        }
        // The bytes are safely on disk: the resident copy may now be
        // evicted under memory pressure (DESIGN.md §15).
        self.store.mark_durable(digest);
        Ok(())
    }

    /// Applies WAL record `lsn`: a block list as written, a legacy op
    /// through the converter first.
    pub(crate) fn replay_record(&self, lsn: u64, payload: &[u8]) -> Result<()> {
        let corrupt =
            |e: serde_json::Error| LakeError::CorruptArtifact(format!("wal record {lsn}: {e}"));
        let blocks = if payload.first() == Some(&b'[') {
            serde_json::from_slice(payload).map_err(corrupt)?
        } else {
            self.legacy_record(serde_json::from_slice(payload).map_err(corrupt)?)?
        };
        self.apply_record(blocks)?;
        Ok(())
    }

    /// The blocks a legacy op stands for, numbered after the log head as
    /// the live op would have numbered them.
    fn legacy_record(&self, op: WalOp) -> Result<Vec<Block>> {
        Ok(match op {
            WalOp::Ingest { name, digest, card } => {
                let model = self.legacy_model(&name, &digest, card)?;
                let events = [
                    (EventKind::ModelIngested, &*name),
                    (EventKind::CardUpdated, &*name),
                ];
                self.with_events(vec![model], &events)
            }
            WalOp::UpdateCard { id, card } => {
                let name = self.entry(ModelId(id))?.name;
                let events = [(EventKind::CardUpdated, &*name)];
                self.with_events(vec![Block::CardOverride { id, card }], &events)
            }
            WalOp::RegisterDataset { dataset } => {
                let name = dataset.name.clone();
                let events = [(EventKind::DatasetRegistered, &*name)];
                self.with_events(vec![Block::Dataset { dataset }], &events)
            }
            WalOp::RegisterBenchmark { benchmark, domain } => {
                let name = benchmark.name.clone();
                let events = [(EventKind::BenchmarkRegistered, &*name)];
                self.with_events(vec![Block::Benchmark { benchmark, domain }], &events)
            }
            WalOp::GraphRebuilt => self.with_events(Vec::new(), &[(EventKind::GraphRebuilt, "*")]),
        })
    }

    /// The `Model` block of a model a legacy record or v1/v2 manifest
    /// names by digest only: the blob faults in (digest-verified), decodes
    /// and is fingerprinted — the one re-fingerprint left in the lake.
    pub(crate) fn legacy_model(&self, name: &str, digest: &str, card: ModelCard) -> Result<Block> {
        let digest = Digest::from_hex(digest)
            .ok_or_else(|| LakeError::CorruptArtifact(format!("bad digest for '{name}'")))?;
        let model = Model::from_bytes(&self.store.get(&digest)?)
            .map_err(|e| LakeError::CorruptArtifact(e.to_string()))?;
        self.model_block(name, &digest, &model, card)
    }
}
