//! The log writer: segmented appends, fsync on commit, compaction.

use crate::record::{self, Lsn};
use crate::vfs::{RealFs, VFile, Vfs};
use crate::WalError;
use mlake_par::lockorder::{self, ranks, OrderToken};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default segment roll-over threshold: 4 MiB.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// When appended records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SyncPolicy {
    /// `fsync` after every append; an `Ok` from [`Wal::append`] means the
    /// record is on stable storage.
    Always,
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Roll to a new segment once the current one would exceed this many
    /// bytes (a single over-sized record still goes in one segment).
    pub segment_bytes: u64,
    /// Commit durability policy.
    pub sync: SyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            sync: SyncPolicy::Always,
        }
    }
}

/// A sealed (no longer written) segment.
#[derive(Debug, Clone)]
pub(crate) struct Sealed {
    pub(crate) path: PathBuf,
    pub(crate) last: Lsn,
    /// Byte length of the sealed file, so the live-size accounting a
    /// compaction trigger reads never touches the filesystem.
    pub(crate) bytes: u64,
}

/// Segment metadata the recovery reader hands back so [`Wal::open_with`]
/// can resume writing where the log left off.
#[derive(Debug, Clone)]
pub(crate) struct SegMeta {
    pub(crate) path: PathBuf,
    pub(crate) first: Lsn,
    /// Last valid LSN in the segment; `None` when the segment holds no
    /// valid records (fresh tail segment).
    pub(crate) last: Option<Lsn>,
    /// Byte length after any torn-tail truncation.
    pub(crate) len: u64,
}

struct Inner {
    /// Handle to the active tail segment.
    file: Box<dyn VFile>,
    /// Path of the active tail segment.
    seg_path: PathBuf,
    /// LSN the active segment is named after (its first record's LSN).
    seg_first: Lsn,
    /// Bytes written to the active segment so far.
    seg_bytes: u64,
    /// Whether the active segment holds at least one record.
    seg_nonempty: bool,
    /// LSN the next append will carry.
    next_lsn: Lsn,
    /// Sealed segments, oldest first.
    sealed: Vec<Sealed>,
    /// A write or sync failed; the log refuses further appends because
    /// the on-disk suffix is in an unknown state.
    broken: bool,
}

/// Guard over the writer state that pairs the mutex with its lock-order
/// token, so every acquisition goes through one annotated site.
struct InnerGuard<'a> {
    _ord: OrderToken,
    g: MutexGuard<'a, Inner>,
}

impl std::ops::Deref for InnerGuard<'_> {
    type Target = Inner;
    fn deref(&self) -> &Inner {
        &self.g
    }
}

impl std::ops::DerefMut for InnerGuard<'_> {
    fn deref_mut(&mut self) -> &mut Inner {
        &mut self.g
    }
}

/// Name of the segment whose first record carries `lsn`. Zero-padded so
/// lexicographic directory order equals numeric LSN order.
pub(crate) fn segment_name(lsn: Lsn) -> String {
    format!("{lsn:020}.wal")
}

/// Parses a segment file name back into its first LSN.
pub(crate) fn parse_segment_name(path: &Path) -> Option<Lsn> {
    let stem = path.file_name()?.to_str()?.strip_suffix(".wal")?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// A segmented, checksummed write-ahead log.
///
/// Appends are serialized through an internal mutex; `&self` methods make
/// the log shareable behind an `Arc` or embeddable in a facade that is
/// itself `Sync`. An `Ok` from [`Wal::append`] means the record is
/// durable: it was fsynced before the call returned.
pub struct Wal {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    opts: WalOptions,
    inner: Mutex<Inner>,
}

impl Wal {
    /// Opens (or creates) the log in `dir` on the real filesystem,
    /// starting from LSN 0 — i.e. a log with no snapshot in front of it.
    /// Returns the writer plus everything recovery replayed.
    // lint: no-span — delegates to open_with, which opens the replay span
    pub fn open(dir: &Path, opts: WalOptions) -> Result<(Wal, crate::Replay), WalError> {
        Wal::open_with(dir, opts, Arc::new(RealFs), 0)
    }

    /// Opens (or creates) the log in `dir` through an arbitrary [`Vfs`]
    /// (the fault-injection harness plugs in here). `base_lsn` is the
    /// highest LSN already folded into the caller's snapshot: records at
    /// or below it are skipped during replay, and a fresh log starts at
    /// `base_lsn + 1`.
    // lint: no-span — recovery opens the wal.replay span; appends open wal.append
    pub fn open_with(
        dir: &Path,
        opts: WalOptions,
        vfs: Arc<dyn Vfs>,
        base_lsn: Lsn,
    ) -> Result<(Wal, crate::Replay), WalError> {
        vfs.create_dir_all(dir)?;
        let replay = crate::Recovery::run(dir, &vfs, base_lsn)?;
        // A hostile snapshot or record can claim the last LSN there is.
        let next_lsn = replay
            .last_lsn
            .max(base_lsn)
            .checked_add(1)
            .ok_or_else(|| WalError::Corrupt {
                segment: dir.to_path_buf(),
                offset: 0,
                detail: "no lsn left after the last one".into(),
            })?;

        // Resume the newest segment when it still has room; otherwise
        // seal everything and start a fresh tail segment.
        let mut sealed = Vec::new();
        let mut tail: Option<&crate::SegMeta> = None;
        for (i, seg) in replay.segments.iter().enumerate() {
            let is_last = i + 1 == replay.segments.len();
            if is_last && seg.len < opts.segment_bytes {
                tail = Some(seg);
            } else if let Some(last) = seg.last {
                sealed.push(Sealed {
                    path: seg.path.clone(),
                    last,
                    bytes: seg.len,
                });
            } else {
                // A full-sized segment with no valid record cannot occur
                // (truncation would have emptied it), but stay safe:
                // delete rather than strand it.
                vfs.remove_file(&seg.path)?;
            }
        }

        let inner = match tail {
            Some(seg) => Inner {
                file: vfs.open_append(&seg.path)?,
                seg_path: seg.path.clone(),
                seg_first: seg.first,
                seg_bytes: seg.len,
                seg_nonempty: seg.last.is_some(),
                next_lsn,
                sealed,
                broken: false,
            },
            None => {
                let seg_path = dir.join(segment_name(next_lsn));
                Inner {
                    file: vfs.open_append(&seg_path)?,
                    seg_path,
                    seg_first: next_lsn,
                    seg_bytes: 0,
                    seg_nonempty: false,
                    next_lsn,
                    sealed,
                    broken: false,
                }
            }
        };

        mlake_obs::gauge!("wal.segments").set(inner.sealed.len() as i64 + 1);
        let wal = Wal {
            dir: dir.to_path_buf(),
            vfs,
            opts,
            inner: Mutex::new(inner),
        };
        Ok((wal, replay))
    }

    fn lock_inner(&self) -> InnerGuard<'_> {
        let _ord = lockorder::acquire(ranks::WAL_INNER, "wal.inner");
        // A panic while holding the guard (e.g. an OOM in a test) only
        // poisons state we re-validate via `broken`, so unwrap the poison.
        // lock-order: 50 (wal.inner)
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        InnerGuard { _ord, g }
    }

    /// Directory the log lives in.
    // lint: no-span — trivial accessor
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN of the last record ever appended (0 when the log has none).
    // lint: no-span — trivial accessor
    pub fn head(&self) -> Lsn {
        self.lock_inner().next_lsn - 1
    }

    /// Number of live segment files (sealed + active tail).
    // lint: no-span — trivial accessor
    pub fn segment_count(&self) -> usize {
        self.lock_inner().sealed.len() + 1
    }

    /// Number of sealed (no longer written) segments awaiting compaction.
    // lint: no-span — trivial accessor
    pub fn sealed_count(&self) -> usize {
        self.lock_inner().sealed.len()
    }

    /// Total bytes in live segments (sealed + active tail) — the log's
    /// on-disk footprint a snapshot has not yet folded away. A lake's
    /// compaction trigger reads this after every op it commits; it is pure
    /// in-memory accounting, no filesystem access.
    // lint: no-span — trivial accessor on the mutation hot path
    pub fn live_bytes(&self) -> u64 {
        let inner = self.lock_inner();
        inner.sealed.iter().map(|s| s.bytes).sum::<u64>() + inner.seg_bytes
    }

    /// Appends one record and returns its LSN.
    ///
    /// The record is fsynced before this returns. Any I/O failure marks
    /// the log broken: subsequent appends fail with [`WalError::Broken`]
    /// because the on-disk suffix is no longer known-good.
    pub fn append(&self, payload: &[u8]) -> Result<Lsn, WalError> {
        let _span = mlake_obs::span("wal.append");
        let mut inner = self.lock_inner();
        if inner.broken {
            return Err(WalError::Broken);
        }
        let lsn = inner.next_lsn;
        let rec = record::encode(lsn, payload);

        // Roll to a new segment when this record would overflow the
        // current one (never leaving an empty segment behind).
        if inner.seg_nonempty && inner.seg_bytes + rec.len() as u64 > self.opts.segment_bytes {
            if let Err(e) = self.roll(&mut inner, lsn) {
                inner.broken = true;
                return Err(e);
            }
        }

        if let Err(e) = inner.file.write_all(&rec) {
            inner.broken = true;
            return Err(e.into());
        }
        inner.seg_bytes += rec.len() as u64;
        inner.seg_nonempty = true;
        inner.next_lsn = lsn + 1;
        mlake_obs::counter!("wal.bytes").add(rec.len() as u64);

        // lint: blocking-ok fsync on commit — the fsync must cover exactly
        // the record written under this guard (DESIGN.md §6)
        if let Err(e) = Self::fsync(&mut inner) {
            inner.broken = true;
            return Err(e);
        }
        Ok(lsn)
    }

    /// Commit barrier: every appended record is already durable, so this
    /// only reports whether the log is still writable.
    pub fn sync(&self) -> Result<(), WalError> {
        let _span = mlake_obs::span("wal.sync");
        if self.lock_inner().broken {
            return Err(WalError::Broken);
        }
        Ok(())
    }

    fn fsync(inner: &mut Inner) -> Result<(), WalError> {
        let _span = mlake_obs::span("wal.fsync");
        inner.file.sync()?;
        Ok(())
    }

    /// Seals the active segment and starts a fresh one whose first record
    /// will be `next_first`. Every append was fsynced when it was made, so
    /// a sealed segment is already fully durable.
    fn roll(&self, inner: &mut Inner, next_first: Lsn) -> Result<(), WalError> {
        let new_path = self.dir.join(segment_name(next_first));
        let new_file = self.vfs.open_append(&new_path)?;
        let old_path = std::mem::replace(&mut inner.seg_path, new_path);
        let old_bytes = inner.seg_bytes;
        inner.sealed.push(Sealed {
            path: old_path,
            last: next_first - 1,
            bytes: old_bytes,
        });
        inner.file = new_file;
        inner.seg_first = next_first;
        inner.seg_bytes = 0;
        inner.seg_nonempty = false;
        mlake_obs::gauge!("wal.segments").set(inner.sealed.len() as i64 + 1);
        Ok(())
    }

    /// Drops sealed segments whose every record has LSN `<= upto` — the
    /// caller just folded those records into a snapshot. The active tail
    /// segment is first sealed (if non-empty) so it too can be collected
    /// when fully covered. Records above `upto` are untouched.
    pub fn compact_to(&self, upto: Lsn) -> Result<(), WalError> {
        let _span = mlake_obs::span("wal.compact");
        let mut inner = self.lock_inner();
        if inner.broken {
            return Err(WalError::Broken);
        }
        // Seal the tail if the snapshot covers everything in it, so the
        // whole log can shrink to a single fresh segment.
        if inner.seg_nonempty && inner.next_lsn - 1 <= upto {
            let next = inner.next_lsn;
            if let Err(e) = self.roll(&mut inner, next) {
                inner.broken = true;
                return Err(e);
            }
        }
        let (drop_now, keep): (Vec<_>, Vec<_>) =
            std::mem::take(&mut inner.sealed)
                .into_iter()
                .partition(|s| s.last <= upto);
        inner.sealed = keep;
        for seg in drop_now {
            self.vfs.remove_file(&seg.path)?;
        }
        mlake_obs::gauge!("wal.segments").set(inner.sealed.len() as i64 + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mlake-wal-{tag}-{}", std::process::id()))
    }

    fn fresh(tag: &str) -> PathBuf {
        let dir = tmp(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn segment_names_sort_numerically() {
        assert_eq!(segment_name(1), "00000000000000000001.wal");
        let a = segment_name(9);
        let b = segment_name(10);
        assert!(a < b);
        assert_eq!(parse_segment_name(Path::new(&b)), Some(10));
        assert_eq!(parse_segment_name(Path::new("x.wal")), None);
        assert_eq!(parse_segment_name(Path::new("manifest.json")), None);
    }

    #[test]
    fn append_assigns_dense_lsns() {
        let dir = fresh("dense");
        let (wal, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(replay.records.len(), 0);
        assert_eq!(wal.head(), 0);
        for i in 1..=5u64 {
            assert_eq!(wal.append(format!("op{i}").as_bytes()).unwrap(), i);
        }
        assert_eq!(wal.head(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_at_threshold() {
        let dir = fresh("roll");
        let opts = WalOptions {
            segment_bytes: 64,
            sync: SyncPolicy::Always,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        // Each record is 22 + 10 = 32 bytes; two fit per 64-byte segment.
        for _ in 0..5 {
            wal.append(&[7u8; 10]).unwrap();
        }
        assert_eq!(wal.segment_count(), 3);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&segment_name(1)));
        assert!(names.contains(&segment_name(3)));
        assert!(names.contains(&segment_name(5)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_still_lands_alone() {
        let dir = fresh("oversize");
        let opts = WalOptions {
            segment_bytes: 64,
            sync: SyncPolicy::Always,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        wal.append(&[1u8; 200]).unwrap(); // bigger than a whole segment
        wal.append(b"next").unwrap(); // rolls into a new segment
        assert_eq!(wal.segment_count(), 2);
        let (_, replay) = Wal::open(&dir, opts).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].1.len(), 200);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_mode_syncs_every_append() {
        use crate::testing::FailFs;
        let dir = fresh("always");
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FailFs::counting();
        let (wal, _) = Wal::open_with(
            &dir,
            WalOptions::default(),
            Arc::new(Arc::clone(&fs)),
            0,
        )
        .unwrap();
        for _ in 0..3 {
            wal.append(b"x").unwrap();
        }
        assert_eq!(fs.syncs(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_lsns_and_tail_segment() {
        let dir = fresh("resume");
        {
            let (wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
        }
        let (wal, replay) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(replay.last_lsn, 2);
        assert_eq!(
            replay.records,
            vec![(1, b"one".to_vec()), (2, b"two".to_vec())]
        );
        assert_eq!(wal.append(b"three").unwrap(), 3);
        // Still one segment: the tail was resumed, not replaced.
        assert_eq!(wal.segment_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn base_lsn_skips_snapshotted_prefix() {
        let dir = fresh("base");
        {
            let (wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 1..=4u64 {
                wal.append(format!("r{i}").as_bytes()).unwrap();
            }
        }
        let (wal, replay) =
            Wal::open_with(&dir, WalOptions::default(), RealFs::shared(), 2).unwrap();
        assert_eq!(
            replay.records,
            vec![(3, b"r3".to_vec()), (4, b"r4".to_vec())]
        );
        assert_eq!(wal.head(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_drops_covered_segments() {
        let dir = fresh("compact");
        let opts = WalOptions {
            segment_bytes: 64,
            sync: SyncPolicy::Always,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        for _ in 0..6 {
            wal.append(&[9u8; 10]).unwrap();
        }
        assert_eq!(wal.segment_count(), 3);
        // Snapshot covers LSNs 1..=4: the first two segments go.
        wal.compact_to(4).unwrap();
        assert_eq!(wal.segment_count(), 1);
        let (_, replay) = Wal::open_with(&dir, opts, RealFs::shared(), 4).unwrap();
        assert_eq!(replay.records.iter().map(|r| r.0).collect::<Vec<_>>(), [5, 6]);
        // Snapshot covers everything: tail is sealed and dropped too.
        let (wal, _) = Wal::open_with(&dir, opts, RealFs::shared(), 4).unwrap();
        wal.compact_to(6).unwrap();
        assert_eq!(wal.segment_count(), 1); // one fresh empty segment
        let (wal, replay) = Wal::open_with(&dir, opts, RealFs::shared(), 6).unwrap();
        assert_eq!(replay.records.len(), 0);
        assert_eq!(wal.append(b"after").unwrap(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_bytes_tracks_appends_rolls_and_compaction() {
        let dir = fresh("livebytes");
        let opts = WalOptions {
            segment_bytes: 64,
            sync: SyncPolicy::Always,
        };
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        assert_eq!(wal.live_bytes(), 0);
        assert_eq!(wal.sealed_count(), 0);
        for _ in 0..6 {
            wal.append(&[9u8; 10]).unwrap();
        }
        // Each record is 32 bytes; two per 64-byte segment → 2 sealed.
        assert_eq!(wal.sealed_count(), 2);
        let before = wal.live_bytes();
        assert_eq!(before, 6 * 32);
        // Reopen: accounting must survive recovery. The full tail segment
        // is sealed on reopen (no room left), so a fresh empty tail opens.
        drop(wal);
        let (wal, _) = Wal::open(&dir, opts).unwrap();
        assert_eq!(wal.live_bytes(), before);
        assert_eq!(wal.sealed_count(), 3);
        // Compaction drops the covered bytes; records 5..=6 stay.
        wal.compact_to(4).unwrap();
        assert_eq!(wal.sealed_count(), 1);
        assert_eq!(wal.live_bytes(), 2 * 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn broken_log_refuses_appends() {
        use crate::testing::FailFs;
        let dir = fresh("broken");
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FailFs::kill_at_write(2, 0);
        let (wal, _) = Wal::open_with(
            &dir,
            WalOptions::default(),
            Arc::new(Arc::clone(&fs)),
            0,
        )
        .unwrap();
        wal.append(b"ok").unwrap();
        assert!(matches!(wal.append(b"boom"), Err(WalError::Io(_))));
        assert!(matches!(wal.append(b"later"), Err(WalError::Broken)));
        assert!(matches!(wal.sync(), Err(WalError::Broken)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
