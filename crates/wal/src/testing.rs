//! Deterministic fault-injection harness (`FailFs`).
//!
//! [`FailFs`] wraps the real filesystem and kills the process-under-test —
//! in the simulated sense: every subsequent filesystem operation fails —
//! at an exact point in the write stream:
//!
//! * **kill at the Nth write**, optionally letting a *torn prefix* of that
//!   write reach the file first (simulating a partial page flush);
//! * **kill at the Nth fsync**, after the data of preceding writes has
//!   already reached the file (simulating the
//!   written-but-not-acknowledged window before an fsync returns).
//!
//! The crash-recovery matrix drives the same mutation script once with a
//! counting-only `FailFs` to learn the total number of writes W, then
//! replays it W times, killing at every write offset in turn and asserting
//! the reopened state equals the committed prefix. Because the plan is a
//! plain counter, every run is bit-deterministic.
//!
//! Post-hoc corruption helpers ([`FailFs::flip_bit`],
//! [`FailFs::truncate_tail`]) mutate files directly for the
//! CRC-detection tests.

use crate::vfs::{RealFs, VFile, Vfs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where the injected crash happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillPoint {
    /// Never crash; count operations only.
    None,
    /// Crash at the 1-based Nth `write_all`, persisting only the first
    /// `torn_bytes` bytes of that write.
    Write { nth: u64, torn_bytes: usize },
    /// Crash at the 1-based Nth `sync`, after the data already reached
    /// the file (written but never acknowledged durable).
    Sync { nth: u64 },
    /// Crash at the 1-based Nth `remove_file`, before it deletes anything
    /// (simulating a crash mid-GC: some files already gone, this one not).
    Remove { nth: u64 },
}

/// A [`Vfs`] that injects one deterministic crash, after which every
/// operation fails with an `injected crash` I/O error.
pub struct FailFs {
    inner: RealFs,
    writes: AtomicU64,
    syncs: AtomicU64,
    removes: AtomicU64,
    kill: KillPoint,
    dead: AtomicBool,
}

fn crashed() -> io::Error {
    io::Error::other("injected crash (FailFs)")
}

impl FailFs {
    /// Counting-only mode: behaves exactly like [`RealFs`] while counting
    /// writes and syncs. Used to measure a script's write count before
    /// sweeping kill points over it.
    pub fn counting() -> Arc<FailFs> {
        Arc::new(FailFs {
            inner: RealFs,
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            kill: KillPoint::None,
            dead: AtomicBool::new(false),
        })
    }

    /// Crashes at the `nth` (1-based) `write_all`; the first `torn_bytes`
    /// bytes of that write still reach the file (0 = nothing lands).
    pub fn kill_at_write(nth: u64, torn_bytes: usize) -> Arc<FailFs> {
        Arc::new(FailFs {
            inner: RealFs,
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            kill: KillPoint::Write { nth, torn_bytes },
            dead: AtomicBool::new(false),
        })
    }

    /// Crashes at the `nth` (1-based) `sync`, after the preceding writes'
    /// data already reached the file.
    pub fn kill_at_sync(nth: u64) -> Arc<FailFs> {
        Arc::new(FailFs {
            inner: RealFs,
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            kill: KillPoint::Sync { nth },
            dead: AtomicBool::new(false),
        })
    }

    /// Crashes at the `nth` (1-based) `remove_file`, before that file is
    /// deleted. Earlier removals already happened — the exact window a
    /// crash mid-GC leaves behind.
    pub fn kill_at_remove(nth: u64) -> Arc<FailFs> {
        Arc::new(FailFs {
            inner: RealFs,
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            removes: AtomicU64::new(0),
            kill: KillPoint::Remove { nth },
            dead: AtomicBool::new(false),
        })
    }

    /// Number of `write_all` calls observed so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Number of `sync` calls observed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    /// Number of `remove_file` calls observed so far.
    pub fn removes(&self) -> u64 {
        self.removes.load(Ordering::SeqCst)
    }

    /// Whether the injected crash has fired.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.is_dead() {
            Err(crashed())
        } else {
            Ok(())
        }
    }

    /// Flips bit `bit` (0–7) of byte `byte` of the file at `path`.
    pub fn flip_bit(path: &Path, byte: usize, bit: u8) -> io::Result<()> {
        let mut bytes = std::fs::read(path)?;
        if byte >= bytes.len() {
            return Err(io::Error::other(format!(
                "flip_bit: byte {byte} out of range ({} bytes)",
                bytes.len()
            )));
        }
        bytes[byte] ^= 1u8 << (bit & 7);
        std::fs::write(path, bytes)
    }

    /// Removes the last `n` bytes of the file at `path` (physical tail
    /// truncation, as a crashed kernel might leave it).
    pub fn truncate_tail(path: &Path, n: u64) -> io::Result<()> {
        let len = std::fs::metadata(path)?.len();
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len.saturating_sub(n))
    }
}

struct FailFile {
    fs: Arc<FailFs>,
    inner: Box<dyn VFile>,
}

impl VFile for FailFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.fs.check_alive()?;
        let n = self.fs.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if let KillPoint::Write { nth, torn_bytes } = self.fs.kill {
            if n == nth {
                let keep = torn_bytes.min(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                }
                self.fs.dead.store(true, Ordering::SeqCst);
                return Err(crashed());
            }
        }
        self.inner.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.fs.check_alive()?;
        let n = self.fs.syncs.fetch_add(1, Ordering::SeqCst) + 1;
        if let KillPoint::Sync { nth } = self.fs.kill {
            if n == nth {
                self.fs.dead.store(true, Ordering::SeqCst);
                return Err(crashed());
            }
        }
        self.inner.sync()
    }
}

/// All [`Vfs`] entry points check liveness first, so after the kill point
/// the whole filesystem is inert — the closest in-process equivalent of
/// the process being gone.
impl Vfs for Arc<FailFs> {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.create_dir_all(dir)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VFile>> {
        self.check_alive()?;
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(FailFile {
            fs: Arc::clone(self),
            inner,
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VFile>> {
        self.check_alive()?;
        let inner = self.inner.create(path)?;
        Ok(Box::new(FailFile {
            fs: Arc::clone(self),
            inner,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        self.inner.read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.check_alive()?;
        self.inner.list(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        let n = self.removes.fetch_add(1, Ordering::SeqCst) + 1;
        if let KillPoint::Remove { nth } = self.kill {
            if n == nth {
                self.dead.store(true, Ordering::SeqCst);
                return Err(crashed());
            }
        }
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.rename(from, to)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.check_alive()?;
        self.inner.truncate(path, len)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.is_dead() && self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mlake-failfs-{tag}-{}", std::process::id()))
    }

    #[test]
    fn counting_mode_is_transparent() {
        let dir = tmp("count");
        let _ = std::fs::remove_dir_all(&dir);
        let fs = FailFs::counting();
        fs.create_dir_all(&dir).unwrap();
        let mut f = fs.open_append(&dir.join("x")).unwrap();
        f.write_all(b"ab").unwrap();
        f.write_all(b"cd").unwrap();
        f.sync().unwrap();
        assert_eq!((fs.writes(), fs.syncs()), (2, 1));
        assert!(!fs.is_dead());
        assert_eq!(fs.read(&dir.join("x")).unwrap(), b"abcd");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_at_write_leaves_torn_prefix_and_kills_everything_after() {
        let dir = tmp("kill");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FailFs::kill_at_write(2, 3);
        let mut f = fs.open_append(&dir.join("x")).unwrap();
        f.write_all(b"first|").unwrap();
        let err = f.write_all(b"second").unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(fs.is_dead());
        // First write intact, second torn to its 3-byte prefix.
        assert_eq!(std::fs::read(dir.join("x")).unwrap(), b"first|sec");
        // Every later operation fails, on old and new handles alike.
        assert!(f.write_all(b"more").is_err());
        assert!(f.sync().is_err());
        assert!(fs.open_append(&dir.join("y")).is_err());
        assert!(fs.rename(&dir.join("x"), &dir.join("z")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_at_write_with_zero_torn_bytes_writes_nothing() {
        let dir = tmp("zero");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FailFs::kill_at_write(1, 0);
        let mut f = fs.open_append(&dir.join("x")).unwrap();
        assert!(f.write_all(b"gone").is_err());
        assert_eq!(std::fs::read(dir.join("x")).unwrap(), b"");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_at_sync_keeps_written_data() {
        let dir = tmp("sync");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FailFs::kill_at_sync(1);
        let mut f = fs.open_append(&dir.join("x")).unwrap();
        f.write_all(b"landed").unwrap();
        assert!(f.sync().is_err());
        assert!(fs.is_dead());
        // The data reached the file even though the sync "crashed".
        assert_eq!(std::fs::read(dir.join("x")).unwrap(), b"landed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_helpers() {
        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x");
        std::fs::write(&path, b"\x00\x00\x00").unwrap();
        FailFs::flip_bit(&path, 1, 7).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"\x00\x80\x00");
        FailFs::truncate_tail(&path, 2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"\x00");
        assert!(FailFs::flip_bit(&path, 9, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
