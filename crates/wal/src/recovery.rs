//! Crash recovery: scan segments, replay valid records, truncate torn
//! tails.
//!
//! The invariants the reader enforces (and the crash matrix proves):
//!
//! * **No committed record is lost.** Every record that was fully written
//!   and fsynced decodes cleanly and is replayed.
//! * **Torn tails are dropped, not trusted.** A malformed suffix of the
//!   *newest* segment — truncated header, truncated payload, CRC
//!   mismatch — is physically truncated away. Such bytes can only come
//!   from a crash mid-write, so they were never acknowledged.
//! * **Recovery is idempotent.** After truncation the log decodes
//!   cleanly end-to-end; running recovery again replays the same records
//!   and truncates nothing.
//! * **Sealed corruption is loud.** A bad record in any segment *other
//!   than the newest* cannot be a torn tail (later segments prove later
//!   durable writes), so it is surfaced as [`WalError::Corrupt`] instead
//!   of silently shortening history.

use crate::record::{self, Decoded, Lsn};
use crate::wal::{parse_segment_name, SegMeta};
use crate::vfs::Vfs;
use crate::WalError;
use std::path::Path;
use std::sync::Arc;

/// A torn tail the recovery reader truncated away.
#[derive(Debug, Clone)]
pub struct Torn {
    /// Segment file that held the torn bytes.
    pub segment: std::path::PathBuf,
    /// Valid byte length the segment was truncated to.
    pub valid_len: u64,
    /// Number of bytes dropped.
    pub dropped_bytes: u64,
    /// Why the suffix failed to decode.
    pub reason: record::TornReason,
}

/// Everything recovery found: the records to replay and what (if
/// anything) was truncated.
#[derive(Debug)]
pub struct Replay {
    /// Valid records with LSN strictly greater than the caller's
    /// `base_lsn`, in LSN order.
    pub records: Vec<(Lsn, Vec<u8>)>,
    /// Highest valid LSN seen anywhere in the log (0 when empty). May be
    /// below `base_lsn` right after a compaction.
    pub last_lsn: Lsn,
    /// The torn tail, when one was found and truncated.
    pub torn: Option<Torn>,
    /// Per-segment metadata for the writer to resume from.
    pub(crate) segments: Vec<SegMeta>,
}

/// The recovery reader. Stateless; [`Recovery::run`] does the work.
pub struct Recovery;

impl Recovery {
    /// Scans the segments in `dir`, truncates a torn tail in the newest
    /// segment, and returns the records with LSN `> base_lsn`.
    ///
    /// Enforces LSN continuity: records must be dense and ascending
    /// across segment boundaries, and a non-empty segment's first record
    /// must carry the LSN its file name promises. Violations mean
    /// history was lost or reordered and surface as
    /// [`WalError::Corrupt`].
    pub fn run(dir: &Path, vfs: &Arc<dyn Vfs>, base_lsn: Lsn) -> Result<Replay, WalError> {
        let _span = mlake_obs::span("wal.replay");
        let paths: Vec<_> = match vfs.list(dir) {
            Ok(paths) => paths
                .into_iter()
                .filter(|p| parse_segment_name(p).is_some())
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };

        let mut records = Vec::new();
        let mut segments = Vec::new();
        let mut torn = None;
        let mut last_lsn: Lsn = 0;
        let mut expected_next: Option<Lsn> = None;
        let mut replayed_bytes: u64 = 0;

        let n = paths.len();
        for (i, path) in paths.into_iter().enumerate() {
            let is_last = i + 1 == n;
            let first = parse_segment_name(&path)
                .unwrap_or_default();
            let buf = vfs.read(&path)?;
            replayed_bytes += buf.len() as u64;

            let mut offset = 0usize;
            let mut seg_last: Option<Lsn> = None;
            loop {
                match record::decode(&buf, offset) {
                    Decoded::End => break,
                    Decoded::Record { lsn, payload, next } => {
                        if seg_last.is_none() && lsn != first {
                            return Err(WalError::Corrupt {
                                segment: path.clone(),
                                offset: offset as u64,
                                detail: format!(
                                    "first record has lsn {lsn}, file name promises {first}"
                                ),
                            });
                        }
                        if let Some(expected) = expected_next {
                            if lsn != expected {
                                return Err(WalError::Corrupt {
                                    segment: path.clone(),
                                    offset: offset as u64,
                                    detail: format!(
                                        "lsn gap: expected {expected}, found {lsn}"
                                    ),
                                });
                            }
                        }
                        if lsn > base_lsn {
                            records.push((lsn, payload.to_vec()));
                        }
                        last_lsn = lsn;
                        seg_last = Some(lsn);
                        // Saturating: nothing may follow lsn `u64::MAX`,
                        // and `Wal::open_with` refuses a log that ends there.
                        expected_next = Some(lsn.saturating_add(1));
                        offset = next;
                    }
                    Decoded::Torn(reason) => {
                        if !is_last {
                            // Later segments exist, so durable writes
                            // happened after these bytes: not a tail.
                            return Err(WalError::Corrupt {
                                segment: path.clone(),
                                offset: offset as u64,
                                detail: format!("{reason} in sealed segment"),
                            });
                        }
                        let dropped = (buf.len() - offset) as u64;
                        vfs.truncate(&path, offset as u64)?;
                        torn = Some(Torn {
                            segment: path.clone(),
                            valid_len: offset as u64,
                            dropped_bytes: dropped,
                            reason,
                        });
                        break;
                    }
                }
            }

            let len = torn
                .as_ref()
                .filter(|t| t.segment == path)
                .map_or(buf.len() as u64, |t| t.valid_len);
            segments.push(SegMeta {
                path,
                first,
                last: seg_last,
                len,
            });
        }

        mlake_obs::histogram!("wal.replay.bytes").record(replayed_bytes);
        Ok(Replay {
            records,
            last_lsn,
            torn,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::FailFs;
    use crate::vfs::RealFs;
    use crate::wal::{segment_name, SyncPolicy, Wal, WalOptions};
    use crate::record::HEADER_LEN;
    use std::path::PathBuf;

    fn fresh(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mlake-recovery-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_log(dir: &Path, n: u64) {
        let (wal, _) = Wal::open(dir, WalOptions::default()).unwrap();
        for i in 1..=n {
            wal.append(format!("record-{i}").as_bytes()).unwrap();
        }
    }

    #[test]
    fn empty_dir_recovers_to_nothing() {
        let dir = fresh("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let replay = Recovery::run(&dir, &RealFs::shared(), 0).unwrap();
        assert_eq!(replay.records.len(), 0);
        assert_eq!(replay.last_lsn, 0);
        assert!(replay.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = fresh("torn");
        write_log(&dir, 3);
        let seg = dir.join(segment_name(1));
        // Tear the last record: chop 4 bytes off its payload.
        FailFs::truncate_tail(&seg, 4).unwrap();
        let before = std::fs::metadata(&seg).unwrap().len();

        let replay = Recovery::run(&dir, &RealFs::shared(), 0).unwrap();
        assert_eq!(replay.records.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(replay.last_lsn, 2);
        let torn = replay.torn.expect("tail must be reported");
        assert_eq!(torn.reason, record::TornReason::TruncatedPayload);
        assert_eq!(torn.valid_len + torn.dropped_bytes, before);

        // Second run: same records, nothing further to truncate.
        let again = Recovery::run(&dir, &RealFs::shared(), 0).unwrap();
        assert_eq!(again.records, replay.records);
        assert!(again.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_tail_drops_the_suffix() {
        let dir = fresh("flip");
        write_log(&dir, 3);
        let seg = dir.join(segment_name(1));
        // Records are 22 + 8 = 30 bytes ("record-N"); flip a payload bit
        // of record 2.
        FailFs::flip_bit(&seg, 30 + HEADER_LEN + 3, 2).unwrap();
        let replay = Recovery::run(&dir, &RealFs::shared(), 0).unwrap();
        // Record 2's CRC fails, so records 2 and 3 are both dropped —
        // the log cannot trust anything past the first bad byte.
        assert_eq!(replay.records.iter().map(|r| r.0).collect::<Vec<_>>(), [1]);
        let torn = replay.torn.expect("flip must be detected");
        assert_eq!(torn.reason, record::TornReason::BadCrc);
        assert_eq!(torn.valid_len, 30);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_sealed_segment_is_a_hard_error() {
        let dir = fresh("sealed");
        let opts = WalOptions {
            segment_bytes: 64,
            sync: SyncPolicy::Always,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        for _ in 0..4 {
            wal.append(&[5u8; 10]).unwrap(); // 32-byte records, 2 per segment
        }
        drop(wal);
        // Corrupt the FIRST segment — not the newest.
        FailFs::flip_bit(&dir.join(segment_name(1)), HEADER_LEN + 1, 0).unwrap();
        let err = Recovery::run(&dir, &RealFs::shared(), 0).unwrap_err();
        match err {
            WalError::Corrupt { segment, .. } => {
                assert_eq!(segment, dir.join(segment_name(1)));
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lsn_gap_is_detected() {
        let dir = fresh("gap");
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-craft a segment whose records skip LSN 2.
        let mut buf = record::encode(1, b"one");
        buf.extend_from_slice(&record::encode(3, b"three"));
        std::fs::write(dir.join(segment_name(1)), &buf).unwrap();
        let err = Recovery::run(&dir, &RealFs::shared(), 0).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misnamed_segment_is_detected() {
        let dir = fresh("misnamed");
        std::fs::create_dir_all(&dir).unwrap();
        // File says first LSN is 5 but the record inside carries 1.
        std::fs::write(dir.join(segment_name(5)), record::encode(1, b"one")).unwrap();
        let err = Recovery::run(&dir, &RealFs::shared(), 0).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_segment_files_are_ignored() {
        let dir = fresh("ignore");
        write_log(&dir, 2);
        std::fs::write(dir.join("manifest.json"), b"{}").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        let replay = Recovery::run(&dir, &RealFs::shared(), 0).unwrap();
        assert_eq!(replay.records.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_at_every_write_offset_never_loses_a_committed_record() {
        // WAL-level crash matrix: drive the same append script, killing
        // at every write offset with a few torn-prefix lengths, and
        // check every acked append survives recovery.
        let script: Vec<Vec<u8>> = (1..=8u64)
            .map(|i| format!("payload-{i}-{}", "x".repeat(i as usize)).into_bytes())
            .collect();
        let opts = WalOptions {
            segment_bytes: 96, // force several roll-overs
            sync: SyncPolicy::Always,
        };

        // Pass 1: count writes.
        let dir = fresh("matrix-count");
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FailFs::counting();
        {
            let (wal, _) =
                Wal::open_with(&dir, opts, Arc::new(Arc::clone(&fs)), 0).unwrap();
            for p in &script {
                wal.append(p).unwrap();
            }
        }
        let total_writes = fs.writes();
        assert!(total_writes >= script.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();

        // Pass 2: sweep every kill point × torn prefix length.
        for kill in 1..=total_writes {
            for torn_bytes in [0usize, 1, 7] {
                let dir = fresh(&format!("matrix-{kill}-{torn_bytes}"));
                std::fs::create_dir_all(&dir).unwrap();
                let fs = FailFs::kill_at_write(kill, torn_bytes);
                let mut acked: Vec<(Lsn, Vec<u8>)> = Vec::new();
                {
                    let (wal, _) =
                        Wal::open_with(&dir, opts, Arc::new(Arc::clone(&fs)), 0)
                            .unwrap();
                    for p in &script {
                        match wal.append(p) {
                            Ok(lsn) => acked.push((lsn, p.clone())),
                            Err(_) => break,
                        }
                    }
                }
                assert!(fs.is_dead(), "kill point {kill} never fired");

                let replay = Recovery::run(&dir, &RealFs::shared(), 0).unwrap();
                // Every acknowledged record must be recovered, in order,
                // possibly followed by the unacked torn record's bytes —
                // never fewer. With fsync=always a record is acked only
                // once durable, so recovered >= acked, and the prefix
                // must match acked exactly.
                assert!(
                    replay.records.len() >= acked.len(),
                    "kill {kill}/{torn_bytes}: lost committed records \
                     ({} recovered < {} acked)",
                    replay.records.len(),
                    acked.len()
                );
                assert_eq!(
                    &replay.records[..acked.len()],
                    &acked[..],
                    "kill {kill}/{torn_bytes}: committed prefix differs"
                );
                // At most the one in-flight record can exceed acked.
                assert!(replay.records.len() <= acked.len() + 1);

                // Idempotence: a second recovery is a clean no-op.
                let again = Recovery::run(&dir, &RealFs::shared(), 0).unwrap();
                assert_eq!(again.records, replay.records);
                assert!(again.torn.is_none());
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}
