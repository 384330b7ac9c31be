//! The formats before superblock v4 — v1/v2 whole-state manifests, v3
//! segments that may end in a `TextIndex` block, v3 WAL records that may be
//! one-op `WalOp`s — and the one way out of them, [`ModelLake::upgrade`]
//! (DESIGN.md §12): read the lake through the converters below, then fold
//! the whole catalogue into one segment in its own directory. The
//! superblock swap is the commit point; the old chain is left for
//! [`ModelLake::gc`].

use crate::blockstore::{self, Block};
use crate::error::{LakeError, Result};
use crate::event::{EventKind, EventLog};
use crate::hash::Digest;
use crate::lake::{LakeConfig, ModelLake, SegState};
use crate::persist::{SuperBlock, MANIFEST_VERSION};
use crate::registry::ModelId;
use mlake_benchlab::Benchmark;
use mlake_cards::ModelCard;
use mlake_wal::{RealFs, Vfs};
use serde::Deserialize;
use std::path::Path;
use std::sync::Arc;

/// A model as the older formats name it: by digest, with no fingerprints.
#[derive(Debug, Deserialize)]
struct LegacyModel {
    name: String,
    digest: String,
    card: ModelCard,
}

/// The catalogue part of a v1/v2 whole-state manifest.
#[derive(Debug, Deserialize)]
struct LegacyManifest {
    models: Vec<LegacyModel>,
    datasets: Vec<mlake_datagen::Dataset>,
    benchmarks: Vec<(Benchmark, Option<String>)>,
    events: EventLog,
}

/// A WAL record as lakes wrote it before blocks were the payload: one
/// facade op. A JSON object or string, where a block list is a JSON array.
#[derive(Debug, Deserialize)]
enum WalOp {
    Ingest(LegacyModel),
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

impl ModelLake {
    /// Rewrites the lake in `dir` in the one format [`ModelLake::open`]
    /// reads; on a lake already in it, writes nothing. Crash-safe: a crash
    /// before its superblock swap leaves the old lake to upgrade again.
    /// `config` must use the probe/sketch parameters the lake was written
    /// with: a model an older format names by digest is fingerprinted here.
    // lint: no-span — upgrade_with opens the lake.upgrade span
    pub fn upgrade(dir: &Path, config: LakeConfig) -> Result<()> {
        Self::upgrade_with(dir, config, RealFs::shared())
    }

    /// [`ModelLake::upgrade`] through an arbitrary [`Vfs`].
    pub fn upgrade_with(dir: &Path, config: LakeConfig, vfs: Arc<dyn Vfs>) -> Result<()> {
        let _span = mlake_obs::span("lake.upgrade");
        let manifest = vfs.read(&dir.join("manifest.json"))?;
        let sb = SuperBlock::decode(&manifest)?;
        match sb.version {
            MANIFEST_VERSION => return Ok(()),
            1..=3 => {}
            found => return Err(LakeError::UnsupportedManifest { found, supported: MANIFEST_VERSION }),
        }
        let mut lake = ModelLake::new(LakeConfig { name: sb.name, ..config });
        lake.store.attach_backing(&dir.join("blobs"), Arc::clone(&vfs));
        if sb.version < 3 {
            lake.apply_record(lake.legacy_manifest(&manifest)?)?;
        }
        for &seq in &sb.segments {
            lake.apply_record(legacy_segment(dir, &vfs, seq)?)?;
        }
        lake.attach_wal(dir, Arc::clone(&vfs), sb.last_lsn, ModelLake::legacy_record)?;
        // The whole catalogue, in a segment past the old chain.
        let next_seq = sb.segments.iter().max().map_or(1, |seq| seq + 1);
        lake.fold(&mut SegState { next_seq, ..SegState::default() }, dir, &vfs)
    }

    /// A v1/v2 manifest's catalogue as one record: its datasets and
    /// benchmarks, each model through `legacy_model`, then the manifest's
    /// event history as one `Events` block.
    fn legacy_manifest(&self, manifest_bytes: &[u8]) -> Result<Vec<Block>> {
        let manifest: LegacyManifest = serde_json::from_slice(manifest_bytes)
            .map_err(|e| LakeError::CorruptArtifact(format!("manifest decode: {e}")))?;
        let datasets = manifest.datasets.into_iter().map(|dataset| Block::Dataset { dataset });
        let benchmarks = manifest.benchmarks.into_iter().map(|(benchmark, domain)| {
            Block::Benchmark { benchmark, domain }
        });
        let mut blocks: Vec<Block> = datasets.chain(benchmarks).collect();
        for model in manifest.models {
            blocks.push(self.legacy_model(model)?);
        }
        blocks.push(Block::Events {
            events: manifest.events.events().to_vec(),
        });
        Ok(blocks)
    }

    /// WAL record `lsn` of a v2/v3 lake as blocks: a block list as written,
    /// a `WalOp` as the blocks the live op would have built, numbered after
    /// the log head.
    fn legacy_record(&self, lsn: u64, payload: &[u8]) -> Result<Vec<Block>> {
        let corrupt =
            |e: serde_json::Error| LakeError::CorruptArtifact(format!("wal record {lsn}: {e}"));
        if payload.first() == Some(&b'[') {
            return serde_json::from_slice(payload).map_err(corrupt);
        }
        Ok(match serde_json::from_slice(payload).map_err(corrupt)? {
            WalOp::Ingest(model) => {
                let name = model.name.clone();
                let model = self.legacy_model(model)?;
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

    /// The `Model` block of `model`: its blob faults in (digest-verified),
    /// decodes and is fingerprinted — the lake's last re-fingerprint, which
    /// only `upgrade` reaches.
    fn legacy_model(&self, model: LegacyModel) -> Result<Block> {
        let LegacyModel { name, digest, card } = model;
        let digest = Digest::from_hex(&digest)
            .ok_or_else(|| LakeError::CorruptArtifact(format!("bad digest for '{name}'")))?;
        self.model_block(&name, &digest, &self.load(&digest)?, card)
    }
}

/// Segment `seq` of a v3 chain: its blocks, less any `TextIndex` block
/// (derived state some v3 builds persisted), dropped before decode.
fn legacy_segment(dir: &Path, vfs: &Arc<dyn Vfs>, seq: u64) -> Result<Vec<Block>> {
    let path = blockstore::seg_path(dir, seq);
    let bytes = vfs.read(&path)?;
    blockstore::segment_payloads(&bytes, &path)?
        .into_iter()
        .filter(|(_, payload)| !payload.starts_with(br#"{"TextIndex":"#))
        .map(|(at, payload)| blockstore::decode_block(payload, at, &path))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_wal::crc32c;

    #[test]
    fn text_index_block_of_older_exports_is_dropped_before_decode() {
        let dir = std::env::temp_dir().join(format!("mlake-legacy-text-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(blockstore::seg_dir(&dir)).unwrap();
        let plain = blockstore::encode_segment(&[
            Block::Benchmark {
                benchmark: Benchmark::perplexity("b", vec![1, 2]),
                domain: None,
            },
            Block::Events { events: vec![] },
        ])
        .unwrap();
        // What a full export by a build that persisted the text index
        // appended as its last block.
        let mut index = mlake_text::TextIndex::new(mlake_text::Bm25Params::default());
        index.insert(0, &[(mlake_text::Field::Name, "a".to_string())]);
        let payload = format!(
            r#"{{"TextIndex":{{"index":{}}}}}"#,
            serde_json::to_string(&index).unwrap()
        );
        let mut with_text = plain.clone();
        with_text.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        with_text.extend_from_slice(&crc32c(payload.as_bytes()).to_le_bytes());
        with_text.extend_from_slice(payload.as_bytes());
        std::fs::write(blockstore::seg_path(&dir, 1), &with_text).unwrap();
        let vfs = RealFs::shared();
        // The v4 reader does not know the block; the legacy one drops it.
        assert!(matches!(
            blockstore::read_segment(&dir, &vfs, 1),
            Err(LakeError::CorruptArtifact(_))
        ));
        let blocks = legacy_segment(&dir, &vfs, 1).unwrap();
        assert_eq!(blockstore::encode_segment(&blocks).unwrap(), plain);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
