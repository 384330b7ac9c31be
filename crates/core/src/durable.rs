//! Durable lakes: the WAL wiring (DESIGN.md §12).
//!
//! A durable [`ModelLake`] pairs the in-memory facade with a
//! [`mlake_wal::Wal`] in `<dir>/wal/`. The lake has one mutation record,
//! the segment [`Block`]. Every mutating facade op builds the blocks it
//! changes the catalogue by — its `Model` / `CardOverride` / `Dataset` /
//! `Benchmark` block, plus one `Events` block numbering the events it
//! appends — and appends them, as one JSON block list, as one WAL record,
//! fsynced before the op returns, *before* [`ModelLake::apply_record`]
//! applies them to the catalogue under one write guard, so a crash at any
//! instant loses at most unacknowledged work. A `Model` block carries the
//! fingerprints ingest computed, so replaying it touches no blob.
//! [`ModelLake::open`] applies the segment chain in order and then every
//! record past the superblock's `last_lsn` through that same
//! `apply_record`. Those records are the lake's only copy of its history
//! since the last fold: `persist()` seals the WAL's active segment as the
//! delta, and once the chain would pass eight links it folds — writes the
//! whole catalogue as one segment, then drops the WAL segments it covers.
//! No op folds or seals: only `persist` rewrites the chain, so a served
//! lake's WAL is bounded by its owner's persists.
//!
//! A v4 superblock means every record past its `last_lsn` is a block list.
//! The one-op records older lakes wrote are read only by
//! [`ModelLake::upgrade`] (`crate::legacy`).
//!
//! Model artifact blobs are not stored in WAL records (they would bloat
//! it); instead [`ModelLake::ingest_model`] writes the blob to
//! `<dir>/blobs/` atomically *before* appending the record that
//! references it by digest, so every logged ingest is replayable. A
//! crash between the two leaves an orphan blob — harmless, it is
//! content-addressed and unreferenced.

use crate::blockstore::Block;
use crate::error::{LakeError, Result};
use crate::hash::Digest;
use crate::lake::{LakeConfig, ModelLake};
use mlake_wal::{RealFs, Vfs, Wal};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
        lake.fold(&mut lake.op_lock.lock(), dir, &vfs)?;
        // Evicted blobs page back in from the lake's own blob directory.
        lake.store.attach_backing(&dir.join("blobs"), Arc::clone(&vfs));
        lake.attach_wal(dir, vfs, 0, ModelLake::block_list)?;
        Ok(lake)
    }

    /// Opens the WAL under `dir`, applies every record past `last_lsn` as
    /// `decode` reads it, and makes the lake durable through that WAL.
    pub(crate) fn attach_wal(
        &mut self,
        dir: &Path,
        vfs: Arc<dyn Vfs>,
        last_lsn: u64,
        decode: impl Fn(&Self, u64, &[u8]) -> Result<Vec<Block>>,
    ) -> Result<()> {
        let opts = self.wal_options();
        let (wal, replay) = Wal::open_with(&dir.join("wal"), opts, Arc::clone(&vfs), last_lsn)?;
        for (lsn, payload) in &replay.records {
            self.apply_record(decode(self, *lsn, payload)?)?;
        }
        let dir = canonical_dir(dir);
        self.wal = Some(WalLink { wal, dir, vfs });
        Ok(())
    }

    /// WAL record `lsn` as what a v4 lake logs: one op's block list.
    pub(crate) fn block_list(&self, lsn: u64, payload: &[u8]) -> Result<Vec<Block>> {
        serde_json::from_slice(payload)
            .map_err(|e| LakeError::CorruptArtifact(format!("wal record {lsn}: {e}")))
    }

    pub(crate) fn wal_options(&self) -> mlake_wal::WalOptions {
        mlake_wal::WalOptions {
            sync: self.config().wal_sync,
            ..mlake_wal::WalOptions::default()
        }
    }

    /// Commit barrier. Every acked op's WAL record is already fsynced, so
    /// on a durable lake this only fails if the log broke; a no-op on
    /// ephemeral lakes.
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

    /// Durable half of ingestion: writes the artifact blob atomically, so
    /// the record naming it can be logged and its resident copy evicted
    /// (DESIGN.md §15). A no-op when ephemeral.
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
        Ok(())
    }
}
