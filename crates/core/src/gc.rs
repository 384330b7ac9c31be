//! Reference-counting garbage collection (DESIGN.md §15).
//!
//! A durable lake accretes unreachable files in three ways: **orphan
//! blobs** (an ingest crashed between the atomic blob write and the WAL
//! record that would reference it), **dead segments** (superseded by a
//! major compaction, or written just before a crash that prevented the
//! superblock swap), and **stray temp files** (a `write_atomic` that died
//! between creating `<path>.tmp` and the rename). None of them are ever
//! read again — the superblock and the registry are the only roots — so
//! collecting them is pure reclamation.
//!
//! Reachability rules:
//! * a blob is live iff some registry entry's digest names it;
//! * a segment is live iff its sequence number is in the in-memory live
//!   set (which mirrors the last superblock written — both are updated
//!   under the `op_lock`);
//! * `*.tmp` files under `blobs/` or `segs/` are never live (a completed
//!   `write_atomic` always renames its temp file away).
//!
//! The collector runs under the `op_lock`, so no ingest or persist can
//! add a reference concurrently; deletion order is therefore free, and a
//! crash at *any* point during GC only leaves some garbage uncollected —
//! the next run (explicit [`ModelLake::gc`] or the pass an op makes after
//! the compaction it triggered) picks it up. GC never deletes a reachable
//! file.

use crate::blockstore;
use crate::error::Result;
use crate::lake::{ModelLake, SegState};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// What one garbage-collection pass reclaimed.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcReport {
    /// Content-addressed blobs no registry entry references.
    pub orphan_blobs: usize,
    /// Segment files outside the live superblock chain.
    pub dead_segments: usize,
    /// Stray `*.tmp` files from interrupted atomic writes.
    pub temp_files: usize,
    /// Total bytes reclaimed.
    pub bytes_reclaimed: u64,
}

impl GcReport {
    /// Total files removed.
    pub fn files_removed(&self) -> usize {
        self.orphan_blobs + self.dead_segments + self.temp_files
    }
}

impl ModelLake {
    /// Collects unreachable on-disk state: orphan blobs from crashed
    /// ingests, segments superseded by compaction, and stray temp files
    /// (DESIGN.md §15). Ephemeral lakes return an empty report. Safe to
    /// call at any time; a crash mid-GC leaves the lake fully
    /// recoverable (only garbage is ever deleted).
    pub fn gc(&self) -> Result<GcReport> {
        let _span = mlake_obs::span("lake.gc");
        // Exclude all mutators: no new blob or segment can become
        // reachable while the sweep runs.
        self.gc_locked(&self.op_lock.lock())
    }

    /// The GC body, shared by [`ModelLake::gc`] and the compaction
    /// trigger; `seg` is the `op_lock` guard. A no-op (empty report) on
    /// ephemeral lakes — nothing is on disk to collect.
    pub(crate) fn gc_locked(&self, seg: &SegState) -> Result<GcReport> {
        let Some(link) = &self.wal else {
            return Ok(GcReport::default());
        };
        let mut report = GcReport::default();

        // Live roots.
        let live_blobs: BTreeSet<String> = {
            let cat = self.catalogue();
            cat.registry.models.iter().map(|m| m.digest.to_hex()).collect()
        };
        let live_segs: BTreeSet<u64> = seg.live.iter().copied().collect();

        // Sweep blobs/: unreferenced blobs and stray temp files.
        let blob_dir = link.dir.join("blobs");
        if link.vfs.exists(&blob_dir) {
            for path in link.vfs.list(&blob_dir)? {
                let ext = path.extension().and_then(|e| e.to_str());
                let stem = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or_default();
                let dead = match ext {
                    Some("tmp") => {
                        report.temp_files += 1;
                        true
                    }
                    Some("blob") if !live_blobs.contains(stem) => {
                        report.orphan_blobs += 1;
                        true
                    }
                    _ => false,
                };
                if dead {
                    report.bytes_reclaimed += link.vfs.read(&path).map_or(0, |b| b.len() as u64);
                    link.vfs.remove_file(&path)?;
                }
            }
        }

        // Sweep segs/: segments the superblock no longer references.
        let seg_dir = blockstore::seg_dir(&link.dir);
        if link.vfs.exists(&seg_dir) {
            for path in link.vfs.list(&seg_dir)? {
                let dead = match path.extension().and_then(|e| e.to_str()) {
                    Some("tmp") => {
                        report.temp_files += 1;
                        true
                    }
                    Some("seg") => match blockstore::parse_seg_name(&path) {
                        Some(seq) if !live_segs.contains(&seq) => {
                            report.dead_segments += 1;
                            true
                        }
                        _ => false,
                    },
                    _ => false,
                };
                if dead {
                    report.bytes_reclaimed += link.vfs.read(&path).map_or(0, |b| b.len() as u64);
                    link.vfs.remove_file(&path)?;
                }
            }
        }

        if mlake_obs::enabled() {
            mlake_obs::counter!("gc.runs").inc();
            mlake_obs::counter!("gc.orphans").add(report.orphan_blobs as u64);
            mlake_obs::counter!("gc.dead_segments").add(report.dead_segments as u64);
            mlake_obs::counter!("gc.bytes_reclaimed").add(report.bytes_reclaimed);
        }
        Ok(report)
    }
}
