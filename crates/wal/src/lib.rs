//! # mlake-wal — segmented, checksummed write-ahead log
//!
//! Durability substrate for the model lake (DESIGN.md §12). The facade
//! appends every mutating operation here *before* touching in-memory
//! state; `ModelLake::open` is snapshot-load + WAL replay; `persist()`
//! is "compact now".
//!
//! The crate is layered bottom-up:
//!
//! * [`record`] — the on-disk frame: fixed 22-byte header (magic,
//!   format version, payload length, LSN, CRC32C) + payload.
//! * [`vfs`] — the file-layer seam ([`Vfs`]/[`VFile`]) everything writes
//!   through, so the fault-injection harness can crash the "process" at
//!   an exact write.
//! * [`Wal`] — the writer: LSN-stamped appends, 4 MiB segment roll-over,
//!   fsync-on-commit ([`SyncPolicy::Always`]) or count-based group
//!   commit ([`SyncPolicy::Batch`]), and [`Wal::compact_to`] for folding
//!   snapshotted prefixes away.
//! * [`Recovery`] — the reader: replays to the last valid record,
//!   truncates torn tails (CRC-detected), surfaces sealed-segment
//!   corruption as a typed error, enforces LSN continuity.
//! * [`testing`] — [`testing::FailFs`], the deterministic crash
//!   injector behind the recovery test matrix.
//!
//! Zero external dependencies; instrumented with `mlake-obs`
//! (`wal.append` / `wal.fsync` / `wal.replay` / `wal.compact` spans,
//! `wal.bytes` counter, `wal.segments` gauge).

pub mod record;
pub mod recovery;
pub mod testing;
pub mod vfs;
#[allow(clippy::module_inception)]
pub mod wal;

pub use record::{crc32c, Lsn, TornReason};
pub use recovery::{Recovery, Replay, Torn};
pub use vfs::{RealFs, VFile, Vfs};
pub use wal::{SyncPolicy, Wal, WalOptions, DEFAULT_SEGMENT_BYTES};

pub(crate) use wal::SegMeta;

/// The workspace lock hierarchy (`mlake_par::lockorder`), re-exported so
/// a crate that writes through this log ranks its own locks in the same
/// hierarchy as the log's writer mutex.
pub use mlake_par::lockorder;

/// Errors the log can surface.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A segment that must be intact (anything but the newest segment's
    /// tail) failed to decode — history has been damaged in place.
    Corrupt {
        /// Segment file holding the bad bytes.
        segment: std::path::PathBuf,
        /// Byte offset of the first undecodable record.
        offset: u64,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A previous append or sync on this writer failed, leaving the
    /// on-disk suffix in an unknown state; the log refuses further
    /// appends until reopened (which re-runs recovery).
    Broken,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "wal corruption in {} at byte {offset}: {detail}",
                segment.display()
            ),
            WalError::Broken => {
                f.write_str("wal is broken after an earlier write failure; reopen to recover")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let io: WalError = std::io::Error::other("disk gone").into();
        assert!(io.to_string().contains("disk gone"));
        assert!(std::error::Error::source(&io).is_some());

        let c = WalError::Corrupt {
            segment: "00000000000000000001.wal".into(),
            offset: 44,
            detail: "crc mismatch".into(),
        };
        let msg = c.to_string();
        assert!(msg.contains("byte 44") && msg.contains("crc mismatch"), "{msg}");

        assert!(WalError::Broken.to_string().contains("reopen"));
    }
}
