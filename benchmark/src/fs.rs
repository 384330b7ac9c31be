//! A counting [`Vfs`] over the real filesystem, and the crash check built on
//! it.
//!
//! Counters and call times are always on (atomics and two clock reads, tens of
//! nanoseconds a call); a traced run also records a span per call. The time
//! inside calls that wait for the device — fsync, and the create / rename /
//! remove / truncate that wait for the journal — is what `store-write-restart`
//! takes out of its wall time (see `store.rs`). The wrapper also remembers, per file, how many
//! bytes had been written when the file was last fsynced: [`CountingFs::crash`]
//! cuts every file back to that length, which is what a power loss may leave —
//! killing the process alone would not do it, because the operating system's
//! cache survives a kill.

use crate::trace;
use mlake_wal::vfs::{RealFs, VFile, Vfs};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What went through the wrapper since it was made (or since [`CountingFs::reset`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    pub bytes_written: u64,
    pub writes: u64,
    pub fsyncs: u64,
    pub bytes_read: u64,
    pub reads: u64,
    pub removes: u64,
    /// Directory operations: create, open for append, rename, remove,
    /// truncate (`removes` counts the removes among them once more).
    pub dir_ops: u64,
}

/// Nanoseconds spent inside calls through the wrapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsTimes {
    pub write_ns: u64,
    pub fsync_ns: u64,
    pub read_ns: u64,
    /// Nanoseconds inside directory operations.
    pub dir_op_ns: u64,
}

impl FsTimes {
    /// Seconds spent waiting for the device: fsyncs and journalled
    /// directory operations. Writes and reads go to and come from the
    /// operating system's cache and are the CPU's work.
    pub fn device_s(&self) -> f64 {
        (self.fsync_ns + self.dir_op_ns) as f64 / 1e9
    }
}

#[derive(Default)]
struct Shared {
    bytes_written: AtomicU64,
    writes: AtomicU64,
    fsyncs: AtomicU64,
    bytes_read: AtomicU64,
    reads: AtomicU64,
    removes: AtomicU64,
    dir_ops: AtomicU64,
    write_ns: AtomicU64,
    fsync_ns: AtomicU64,
    read_ns: AtomicU64,
    dir_op_ns: AtomicU64,
    traced: AtomicBool,
    /// Path → (bytes written, bytes written at the last fsync).
    files: Mutex<HashMap<PathBuf, (u64, u64)>>,
}

impl Shared {
    /// Runs `f` and adds its time to `total`; in a traced run inside a span.
    fn timed<R>(&self, name: &'static str, total: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = if self.traced.load(Ordering::Relaxed) {
            trace::span(name, f)
        } else {
            f()
        };
        total.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Counts and times a directory operation (no span of its own).
    fn dir_op<R>(&self, f: impl FnOnce() -> R) -> R {
        self.dir_ops.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let out = f();
        self.dir_op_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn files(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, (u64, u64)>> {
        self.files
            .lock()
            .expect("no thread panics while holding the file table")
    }
}

/// The counting filesystem. Cloning shares the counters.
#[derive(Clone, Default)]
pub struct CountingFs {
    shared: Arc<Shared>,
}

impl CountingFs {
    /// `traced` switches the `fs.*` spans on.
    pub fn new(traced: bool) -> CountingFs {
        let fs = CountingFs::default();
        fs.shared.traced.store(traced, Ordering::Relaxed);
        fs
    }

    pub fn as_vfs(&self) -> Arc<dyn Vfs> {
        Arc::new(self.clone())
    }

    pub fn counts(&self) -> FsCounts {
        let s = &self.shared;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FsCounts {
            bytes_written: get(&s.bytes_written),
            writes: get(&s.writes),
            fsyncs: get(&s.fsyncs),
            bytes_read: get(&s.bytes_read),
            reads: get(&s.reads),
            removes: get(&s.removes),
            dir_ops: get(&s.dir_ops),
        }
    }

    pub fn times(&self) -> FsTimes {
        let s = &self.shared;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FsTimes {
            write_ns: get(&s.write_ns),
            fsync_ns: get(&s.fsync_ns),
            read_ns: get(&s.read_ns),
            dir_op_ns: get(&s.dir_op_ns),
        }
    }

    /// Zeroes the counters and times (the per-file sync state stays).
    pub fn reset(&self) {
        let s = &self.shared;
        for a in [
            &s.bytes_written,
            &s.writes,
            &s.fsyncs,
            &s.bytes_read,
            &s.reads,
            &s.removes,
            &s.dir_ops,
            &s.write_ns,
            &s.fsync_ns,
            &s.read_ns,
            &s.dir_op_ns,
        ] {
            a.store(0, Ordering::Relaxed);
        }
    }

    /// Simulates power loss: truncates every file written through this
    /// wrapper to the length it had at its last fsync. Returns how many
    /// files lost bytes.
    pub fn crash(&self) -> io::Result<usize> {
        let mut cut = 0;
        for (path, (written, synced)) in self.shared.files().drain() {
            if synced < written && path.exists() {
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(synced)?;
                cut += 1;
            }
        }
        Ok(cut)
    }
}

struct CountingFile {
    inner: Box<dyn VFile>,
    path: PathBuf,
    shared: Arc<Shared>,
}

impl VFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let s = &self.shared;
        s.writes.fetch_add(1, Ordering::Relaxed);
        s.bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        let inner = &mut self.inner;
        s.timed("fs.write", &s.write_ns, || inner.write_all(buf))?;
        if let Some(state) = s.files().get_mut(&self.path) {
            state.0 += buf.len() as u64;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let s = &self.shared;
        s.fsyncs.fetch_add(1, Ordering::Relaxed);
        let inner = &mut self.inner;
        s.timed("fs.fsync", &s.fsync_ns, || inner.sync())?;
        if let Some(state) = s.files().get_mut(&self.path) {
            state.1 = state.0;
        }
        Ok(())
    }
}

impl Vfs for CountingFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealFs.create_dir_all(dir)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VFile>> {
        let inner = self.shared.dir_op(|| RealFs.open_append(path))?;
        // Bytes already in the file were written before this process could
        // lose them: they count as synced.
        let len = std::fs::metadata(path)?.len();
        self.shared
            .files()
            .entry(path.to_path_buf())
            .or_insert((len, len));
        Ok(Box::new(CountingFile {
            inner,
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VFile>> {
        let inner = self.shared.dir_op(|| RealFs.create(path))?;
        self.shared.files().insert(path.to_path_buf(), (0, 0));
        Ok(Box::new(CountingFile {
            inner,
            path: path.to_path_buf(),
            shared: Arc::clone(&self.shared),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = &self.shared;
        let bytes = s.timed("fs.read", &s.read_ns, || RealFs.read(path))?;
        s.reads.fetch_add(1, Ordering::Relaxed);
        s.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        RealFs.list(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.shared.removes.fetch_add(1, Ordering::Relaxed);
        self.shared.files().remove(path);
        self.shared.dir_op(|| RealFs.remove_file(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.shared.dir_op(|| RealFs.rename(from, to))?;
        let mut files = self.shared.files();
        if let Some(state) = files.remove(from) {
            files.insert(to.to_path_buf(), state);
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.shared.dir_op(|| RealFs.truncate(path, len))?;
        if let Some(state) = self.shared.files().get_mut(path) {
            *state = (len, len);
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
}

/// Total size in bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Number of regular files directly under `dir` (0 when it does not exist).
pub fn file_count(dir: &Path) -> usize {
    RealFs.list(dir).map(|l| l.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lakebench-fs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counts_writes_syncs_reads_and_removes() {
        let dir = tmp("counts");
        let fs = CountingFs::new(false);
        let path = dir.join("a.log");
        let mut f = fs.open_append(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.write_all(b"!!").unwrap();
        f.sync().unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"hello!!");
        fs.remove_file(&path).unwrap();
        let c = fs.counts();
        assert_eq!((c.bytes_written, c.writes, c.fsyncs), (7, 2, 1));
        assert_eq!((c.bytes_read, c.reads, c.removes), (7, 1, 1));
        assert_eq!(c.dir_ops, 2, "open for append, remove");
        let t = fs.times();
        assert!(t.write_ns > 0 && t.fsync_ns > 0 && t.read_ns > 0 && t.dir_op_ns > 0);
        assert_eq!(t.device_s(), (t.fsync_ns + t.dir_op_ns) as f64 / 1e9);
        fs.reset();
        assert_eq!(fs.counts(), FsCounts::default());
        assert_eq!(fs.times().device_s(), 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_discards_bytes_written_after_the_last_fsync() {
        let dir = tmp("crash");
        std::fs::write(dir.join("old.log"), b"before").unwrap();
        let fs = CountingFs::new(false);
        // Appends to a file that already existed: the old bytes stay.
        let mut old = fs.open_append(&dir.join("old.log")).unwrap();
        old.write_all(b"+acked").unwrap();
        old.sync().unwrap();
        old.write_all(b"+lost").unwrap();
        // write_atomic = create tmp, write, fsync, rename: survives whole.
        fs.write_atomic(&dir.join("blob"), b"payload").unwrap();
        // A file never synced comes back empty.
        let mut never = fs.create(&dir.join("never")).unwrap();
        never.write_all(b"gone").unwrap();
        assert_eq!(fs.crash().unwrap(), 2);
        assert_eq!(std::fs::read(dir.join("old.log")).unwrap(), b"before+acked");
        assert_eq!(std::fs::read(dir.join("blob")).unwrap(), b"payload");
        assert_eq!(std::fs::read(dir.join("never")).unwrap(), b"");
        assert_eq!(dir_bytes(&dir).unwrap(), 12 + 7);
        assert_eq!(file_count(&dir), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
