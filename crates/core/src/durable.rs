//! Durable lakes: the WAL wiring (DESIGN.md §12).
//!
//! A durable [`ModelLake`] pairs the in-memory facade with a
//! [`mlake_wal::Wal`] in `<dir>/wal/`. Every mutating facade op —
//! everything that appends to the event log — is serialized as a
//! [`WalOp`] and appended (fsynced per the configured
//! [`mlake_wal::SyncPolicy`]) *before* the in-memory state mutates, so a
//! crash at any instant loses at most unacknowledged work.
//! [`ModelLake::open`] is segment-chain fold + WAL replay; `persist()` is
//! "compact now": seal the delta since the last persist as a segment,
//! then drop the WAL segments it covers.
//!
//! Model artifact blobs are not stored in WAL records (they would bloat
//! it); instead [`ModelLake::ingest_model`] writes the blob to
//! `<dir>/blobs/` atomically *before* appending the `Ingest` record that
//! references it by digest, so every logged ingest is replayable. A
//! crash between the two leaves an orphan blob — harmless, it is
//! content-addressed and unreferenced.

use crate::error::{LakeError, Result};
use crate::hash::Digest;
use crate::lake::{LakeConfig, ModelLake};
use crate::registry::ModelId;
use mlake_benchlab::Benchmark;
use mlake_cards::ModelCard;
use mlake_nn::Model;
use mlake_wal::{RealFs, Vfs, Wal};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One durable mutation, as JSON-serialized into a WAL record payload.
/// Exactly the facade ops that append to the event log.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) enum WalOp {
    /// `ingest_model`: the blob is already durable under `blobs/<digest>`.
    Ingest {
        name: String,
        digest: String,
        card: ModelCard,
    },
    /// `update_card`.
    UpdateCard { id: u64, card: ModelCard },
    /// `register_dataset`.
    RegisterDataset { dataset: mlake_datagen::Dataset },
    /// `register_benchmark`.
    RegisterBenchmark {
        benchmark: Benchmark,
        domain: Option<String>,
    },
    /// `rebuild_version_graph` (the graph itself is derived state; only
    /// the event matters for replay).
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
        lake.persist_with(dir, &vfs)?;
        // Evicted blobs page back in from the lake's own blob directory.
        lake.shared
            .store
            .attach_backing(&dir.join("blobs"), Arc::clone(&vfs));
        let (wal, _) = Wal::open_with(
            &dir.join("wal"),
            lake.wal_options(),
            Arc::clone(&vfs),
            0,
        )?;
        lake.shared_mut()?.wal = Some(WalLink {
            wal,
            dir: canonical_dir(dir),
            vfs,
        });
        lake.spawn_compactor()?;
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
        if let Some(link) = &self.shared.wal {
            link.wal.sync()?;
        }
        Ok(())
    }

    fn wal_append_op(&self, op: &WalOp) -> Result<()> {
        let Some(link) = &self.shared.wal else {
            return Ok(());
        };
        let payload = serde_json::to_vec(op)
            .map_err(|e| LakeError::Internal(format!("wal op encode: {e}")))?;
        link.wal.append(&payload)?;
        self.maybe_request_compaction(link);
        Ok(())
    }

    /// The write-side compaction trigger (DESIGN.md §13): after each WAL
    /// append, schedule a background compaction once the live WAL
    /// footprint or the sealed-segment backlog crosses the configured
    /// [`crate::lake::CompactionPolicy`] threshold. Pure accounting reads
    /// plus a condvar signal — the appending caller never pays the
    /// snapshot cost. Called under the `op_lock`; the compactor state
    /// lock ranks strictly below it (DESIGN.md §10).
    // lint: no-span — per-append accounting check; the scheduled work
    // opens its own compact.bg span
    fn maybe_request_compaction(&self, link: &WalLink) {
        let (Some(policy), Some(compactor)) = (&self.shared.config.compaction, &self.compactor)
        else {
            return;
        };
        let by_bytes = policy.wal_bytes > 0 && link.wal.live_bytes() >= policy.wal_bytes;
        let by_segments =
            policy.wal_segments > 0 && link.wal.sealed_count() >= policy.wal_segments;
        if by_bytes || by_segments {
            compactor.request();
        }
    }

    /// Durable half of ingestion: writes the artifact blob atomically,
    /// then logs the `Ingest` record referencing it. No-op when ephemeral.
    pub(crate) fn durable_ingest(
        &self,
        name: &str,
        digest: &Digest,
        bytes: &[u8],
        card: &ModelCard,
    ) -> Result<()> {
        let Some(link) = &self.shared.wal else {
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
        self.shared.store.mark_durable(digest);
        self.wal_append_op(&WalOp::Ingest {
            name: name.into(),
            digest: digest.to_hex(),
            card: card.clone(),
        })
    }

    pub(crate) fn wal_update_card(&self, id: ModelId, card: &ModelCard) -> Result<()> {
        self.wal_append_op(&WalOp::UpdateCard {
            id: id.0,
            card: card.clone(),
        })
    }

    pub(crate) fn wal_register_dataset(&self, dataset: &mlake_datagen::Dataset) -> Result<()> {
        self.wal_append_op(&WalOp::RegisterDataset {
            dataset: dataset.clone(),
        })
    }

    pub(crate) fn wal_register_benchmark(
        &self,
        benchmark: &Benchmark,
        domain: &Option<String>,
    ) -> Result<()> {
        self.wal_append_op(&WalOp::RegisterBenchmark {
            benchmark: benchmark.clone(),
            domain: domain.clone(),
        })
    }

    pub(crate) fn wal_graph_rebuilt(&self) -> Result<()> {
        self.wal_append_op(&WalOp::GraphRebuilt)
    }

    /// Applies one replayed op to in-memory state (never re-logs).
    /// Idempotent for `Ingest`: a model already present under the same
    /// name and digest is skipped, so replaying an op the in-memory state
    /// already saw cannot duplicate it.
    pub(crate) fn apply_op(&self, lsn: u64, op: WalOp) -> Result<()> {
        match op {
            WalOp::Ingest { name, digest, card } => {
                let digest = Digest::from_hex(&digest).ok_or_else(|| {
                    LakeError::CorruptArtifact(format!(
                        "wal record {lsn}: bad digest for '{name}'"
                    ))
                })?;
                if let Ok(existing) = self.entry(name.as_str()) {
                    if existing.digest == digest {
                        return Ok(());
                    }
                    return Err(LakeError::CorruptArtifact(format!(
                        "wal record {lsn}: replayed ingest of '{name}' conflicts \
                         with existing artifact"
                    )));
                }
                let bytes = self.shared.store.get(&digest)?;
                let model = Model::from_bytes(&bytes)
                    .map_err(|e| LakeError::CorruptArtifact(e.to_string()))?;
                let fps = self.compute_fingerprints(&model)?;
                self.finish_ingest(&name, &model, digest, card, fps)?;
                Ok(())
            }
            WalOp::UpdateCard { id, card } => self.apply_update_card(ModelId(id), card),
            WalOp::RegisterDataset { dataset } => self.apply_register_dataset(dataset),
            WalOp::RegisterBenchmark { benchmark, domain } => {
                self.apply_register_benchmark(benchmark, domain)
            }
            WalOp::GraphRebuilt => {
                self.apply_graph_rebuilt();
                Ok(())
            }
        }
    }
}
