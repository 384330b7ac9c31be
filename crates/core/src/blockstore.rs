//! Immutable, checksummed block segments (DESIGN.md §15).
//!
//! A [`Block`] is the lake's one mutation record. A persisted lake is a
//! **superblock** (`manifest.json`, format v3) naming an ordered chain of
//! immutable segment files under `<dir>/segs/<seq>.seg`. Each segment
//! holds the *delta* of catalogue state since the previous one: model
//! registrations (with their fingerprints, so reopening never recomputes
//! them), card overrides, dataset/benchmark registrations, and the
//! event-log slice. A WAL record is the same thing at op granularity: the
//! blocks one facade op adds to the next delta, plus the `Events` block
//! numbering its events (`crate::durable`). Open applies the chain's
//! segments in sequence order, then the WAL tail, through
//! `Catalogue::apply`, the one function that changes the catalogue; later
//! blocks override earlier ones (a `CardOverride` replaces the card a
//! `Model` block carried). A major compaction or an export writes the
//! catalogue from memory as one segment — the delta since zero marks —
//! never by re-reading the chain. Everything else a lake serves — vector
//! indexes, the text index — is derived from the catalogue, never stored.
//!
//! On-disk segment layout:
//!
//! ```text
//! "MLSG" | version u16 LE | block*
//! block := len u32 LE | crc32c u32 LE | payload (JSON-encoded Block)
//! ```
//!
//! Per-block CRC32C reuses `mlake-wal`'s Castagnoli table, so segment
//! corruption is detected block-precise and surfaces as the typed
//! [`LakeError::CorruptArtifact`]. Segments land via temp-file + rename
//! (`Vfs::write_atomic`) and are never modified afterwards: a crash
//! mid-write leaves either no segment or a whole one, and a crash after a
//! segment write but before the superblock swap leaves an unreachable
//! segment the garbage collector removes ([`crate::gc`]).

use crate::error::{LakeError, Result};
use crate::event::Event;
use mlake_benchlab::Benchmark;
use mlake_cards::ModelCard;
use mlake_wal::{crc32c, Vfs};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Segment file magic.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"MLSG";
/// Segment format version.
pub(crate) const SEGMENT_VERSION: u16 = 1;

/// One catalogue delta record inside a segment, in apply order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Block {
    /// A model registration: everything the registry needs, plus the
    /// three fingerprints so reopening never touches the blob.
    Model(ModelBlock),
    /// A card replacement for an already-persisted model.
    CardOverride {
        /// Lake-local model id (its position in the model list).
        id: u64,
        /// The replacement card.
        card: ModelCard,
    },
    /// A dataset registration.
    Dataset {
        /// The dataset.
        dataset: mlake_datagen::Dataset,
    },
    /// A benchmark registration.
    Benchmark {
        /// The benchmark.
        benchmark: Benchmark,
        /// Its domain label.
        domain: Option<String>,
    },
    /// The event-log slice this segment's delta covers.
    Events {
        /// Events, oldest first.
        events: Vec<Event>,
    },
    /// A text-index snapshot. No longer written: the text index is derived
    /// state, caught up from the catalogue's cards on read (DESIGN.md §16).
    /// Full exports by PR 10–11 builds carry one, so the kind still
    /// decodes — its payload ignored — and applies as nothing.
    TextIndex {},
}

/// The model payload of a [`Block::Model`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ModelBlock {
    /// Unique model name.
    pub name: String,
    /// Hex content digest of the artifact blob.
    pub digest: String,
    /// Architecture signature.
    pub arch: String,
    /// Parameter count.
    pub params: u64,
    /// The model card (as of this segment; later overrides replace it).
    pub card: ModelCard,
    /// Intrinsic / extrinsic / hybrid fingerprints as f32 *bit patterns*
    /// (`f32::to_bits`), so the round trip is exact — JSON float
    /// formatting never touches them.
    pub fps: [Vec<u32>; 3],
}

/// Fingerprints → exact bit-pattern encoding.
pub(crate) fn fp_bits(fps: &[Vec<f32>; 3]) -> [Vec<u32>; 3] {
    [0, 1, 2].map(|i| fps[i].iter().map(|v| v.to_bits()).collect())
}

/// Bit-pattern encoding → fingerprints.
pub(crate) fn fp_floats(bits: &[Vec<u32>; 3]) -> [Vec<f32>; 3] {
    [0, 1, 2].map(|i| bits[i].iter().map(|b| f32::from_bits(*b)).collect())
}

/// The segment directory under a lake root.
pub(crate) fn seg_dir(dir: &Path) -> PathBuf {
    dir.join("segs")
}

/// Path of segment `seq` under a lake root.
pub(crate) fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    seg_dir(dir).join(format!("{seq:020}.seg"))
}

/// Parses a segment file name back to its sequence number.
pub(crate) fn parse_seg_name(path: &Path) -> Option<u64> {
    if path.extension().and_then(|e| e.to_str()) != Some("seg") {
        return None;
    }
    path.file_stem()?.to_str()?.parse().ok()
}

/// Encodes blocks into the on-disk segment byte layout.
pub(crate) fn encode_segment(blocks: &[Block]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    for block in blocks {
        let payload = serde_json::to_vec(block)
            .map_err(|e| LakeError::Internal(format!("segment block encode: {e}")))?;
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32c(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    Ok(out)
}

/// Decodes and CRC-checks a segment file's bytes.
pub(crate) fn decode_segment(bytes: &[u8], origin: &Path) -> Result<Vec<Block>> {
    let corrupt = |detail: String| {
        LakeError::CorruptArtifact(format!("segment {}: {detail}", origin.display()))
    };
    if bytes.len() < 6 || bytes[..4] != SEGMENT_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SEGMENT_VERSION {
        return Err(corrupt(format!("unsupported segment version {version}")));
    }
    let mut blocks = Vec::new();
    let mut at = 6usize;
    while at < bytes.len() {
        if at + 8 > bytes.len() {
            return Err(corrupt(format!("truncated block header at byte {at}")));
        }
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let crc =
            u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        at += 8;
        if at + len > bytes.len() {
            return Err(corrupt(format!("truncated block payload at byte {at}")));
        }
        let payload = &bytes[at..at + len];
        if crc32c(payload) != crc {
            return Err(corrupt(format!("block CRC mismatch at byte {at}")));
        }
        let block: Block = serde_json::from_slice(payload)
            .map_err(|e| corrupt(format!("block decode at byte {at}: {e}")))?;
        blocks.push(block);
        at += len;
    }
    Ok(blocks)
}

/// Writes segment `seq` atomically (temp + rename). Returns the encoded
/// size in bytes.
pub(crate) fn write_segment(
    dir: &Path,
    vfs: &std::sync::Arc<dyn Vfs>,
    seq: u64,
    blocks: &[Block],
) -> Result<u64> {
    let bytes = encode_segment(blocks)?;
    vfs.create_dir_all(&seg_dir(dir))?;
    vfs.write_atomic(&seg_path(dir, seq), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Reads and decodes segment `seq`.
pub(crate) fn read_segment(
    dir: &Path,
    vfs: &std::sync::Arc<dyn Vfs>,
    seq: u64,
) -> Result<Vec<Block>> {
    let path = seg_path(dir, seq);
    let bytes = vfs.read(&path)?;
    decode_segment(&bytes, &path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lake::{Catalogue, SegState};
    use mlake_wal::RealFs;

    fn card(name: &str) -> ModelCard {
        ModelCard::skeleton(name, "mlp:2-2:relu")
    }

    fn model_block(name: &str, digest_seed: u8) -> ModelBlock {
        ModelBlock {
            name: name.into(),
            digest: format!("{:02x}", digest_seed).repeat(32),
            arch: "mlp:2-2:relu".into(),
            params: 8,
            card: card(name),
            // The widths `sketch_dim` 1 implies: 8 + 1, 1, 8 + 2.
            fps: [
                vec![1.0f32.to_bits(); 9],
                vec![2.5f32.to_bits()],
                vec![(-0.0f32).to_bits(); 10],
            ],
        }
    }

    /// Applies segments `seqs` in order, as open does.
    fn apply_chain(dir: &Path, vfs: &std::sync::Arc<dyn Vfs>, seqs: &[u64]) -> Result<Catalogue> {
        let mut cat = Catalogue::default();
        for &seq in seqs {
            for block in read_segment(dir, vfs, seq)? {
                cat.apply(block, 1)?;
            }
        }
        Ok(cat)
    }

    #[test]
    fn encode_decode_round_trip() {
        let blocks = vec![
            Block::Model(model_block("a", 1)),
            Block::CardOverride {
                id: 0,
                card: card("a-v2"),
            },
            Block::Events { events: vec![] },
        ];
        let bytes = encode_segment(&blocks).unwrap();
        let back = decode_segment(&bytes, Path::new("test.seg")).unwrap();
        assert_eq!(back.len(), 3);
        match &back[0] {
            Block::Model(m) => assert_eq!(m.name, "a"),
            other => panic!("expected model block, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_bits_round_trip_exactly() {
        let fps = [
            vec![0.1f32, -3.25, f32::MIN_POSITIVE],
            vec![1e-38, 2.0],
            vec![-0.0, 123.456],
        ];
        let back = fp_floats(&fp_bits(&fps));
        for (a, b) in fps.iter().zip(&back) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact round trip");
            }
        }
    }

    #[test]
    fn corruption_is_detected_block_precise() {
        let blocks = vec![Block::Model(model_block("a", 1))];
        let mut bytes = encode_segment(&blocks).unwrap();
        // Flip one payload bit.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_segment(&bytes, Path::new("x.seg")),
            Err(LakeError::CorruptArtifact(_))
        ));
        // Truncated tail.
        let blocks = vec![Block::Events { events: vec![] }];
        let bytes = encode_segment(&blocks).unwrap();
        assert!(decode_segment(&bytes[..bytes.len() - 2], Path::new("x.seg")).is_err());
        // Bad magic.
        assert!(decode_segment(b"NOPE\x01\x00", Path::new("x.seg")).is_err());
    }

    #[test]
    fn fold_applies_overrides_in_order() {
        let dir = std::env::temp_dir().join(format!("mlake-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = RealFs::shared();
        write_segment(&dir, &vfs, 1, &[Block::Model(model_block("a", 1))]).unwrap();
        let mut new_card = card("a");
        new_card.notes = "updated".into();
        write_segment(
            &dir,
            &vfs,
            2,
            &[
                Block::CardOverride {
                    id: 0,
                    card: new_card,
                },
                Block::Model(model_block("b", 2)),
            ],
        )
        .unwrap();
        let models = apply_chain(&dir, &vfs, &[1, 2]).unwrap().registry.models;
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].card.notes, "updated");
        assert_eq!(models[1].name, "b");
        // An override for a model the chain never registered is corruption.
        write_segment(
            &dir,
            &vfs,
            3,
            &[Block::CardOverride {
                id: 9,
                card: card("ghost"),
            }],
        )
        .unwrap();
        assert!(apply_chain(&dir, &vfs, &[1, 2, 3]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_index_block_of_older_exports_decodes_and_folds_to_nothing() {
        let dir = std::env::temp_dir().join(format!("mlake-seg-text-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(seg_dir(&dir)).unwrap();
        let plain = encode_segment(&[
            Block::Model(model_block("a", 1)),
            Block::Model(model_block("b", 2)),
            Block::Events { events: vec![] },
        ])
        .unwrap();
        // What a PR 10–11 full export appended as its last block.
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
        std::fs::write(seg_path(&dir, 1), &plain).unwrap();
        std::fs::write(seg_path(&dir, 2), &with_text).unwrap();
        let vfs = RealFs::shared();
        assert_eq!(read_segment(&dir, &vfs, 2).unwrap().len(), 4, "the block decodes");
        let flat = |seq| {
            let cat = apply_chain(&dir, &vfs, &[seq]).unwrap();
            let (blocks, _) = crate::persist::delta_since(&cat, &SegState::default());
            encode_segment(&blocks).unwrap()
        };
        assert_eq!(flat(1), flat(2), "same catalogue with and without the block");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seg_names_parse_back() {
        assert_eq!(parse_seg_name(Path::new("00000000000000000042.seg")), Some(42));
        assert_eq!(parse_seg_name(Path::new("x.blob")), None);
        assert_eq!(parse_seg_name(Path::new("junk.seg")), None);
    }
}
