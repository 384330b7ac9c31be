//! Content-addressed blob store with a bounded residency layer
//! (DESIGN.md §15).
//!
//! Blobs are keyed by the SHA-256 of their contents: identical artifacts
//! deduplicate for free and reads verify integrity. The store holds a
//! *resident* subset of the lake's blobs in memory; on a durable lake the
//! rest live as `<hex-digest>.blob` files and page in lazily on first
//! touch ([`ResidentStore::get`] faults the file in, verifies its digest,
//! and caches it) — the only way bytes enter the store from disk, whatever
//! manifest version the lake was opened from.
//! `LakeConfig::builder().resident_bytes(n)` bounds the resident set: once
//! the cap is exceeded the least-recently-used *evictable* blobs are
//! dropped — a blob is evictable only after its bytes are known durable on
//! disk (either faulted in from a file or admitted by a durable ingest
//! after its blob write landed), so eviction can never lose data.
//!
//! Observability: `store.fault` / `store.evict` counters and the
//! `store.resident.bytes` gauge. The resident map's mutex is rank
//! **45 (store.resident)** in the §10 hierarchy — above the index locks,
//! below `wal.inner` — and is never held across file I/O (fault-in reads
//! happen between two separate acquisitions).

use crate::error::{LakeError, Result};
use crate::hash::{sha256, Digest};
use mlake_wal::Vfs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One resident blob.
struct Entry {
    bytes: Vec<u8>,
    /// Logical access clock value at last touch (LRU order).
    stamp: u64,
    /// Evictable only once the bytes are known durable on disk: a durable
    /// ingest admits its blob after writing the file, and faulted-in blobs
    /// were read *from* disk. [`ResidentStore::put`]s and ephemeral ingests
    /// stay pinned.
    durable: bool,
}

/// The guarded residency state.
struct Resident {
    blobs: HashMap<Digest, Entry>,
    /// Sum of resident payload sizes.
    bytes: u64,
    /// Monotone access clock for LRU stamps.
    clock: u64,
}

/// Where non-resident blobs live on a durable lake.
struct Backing {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
}

/// The default thread-safe store: a resident map over optional
/// file-backed blobs.
pub struct ResidentStore {
    resident: Mutex<Resident>,
    backing: Mutex<Option<Backing>>,
    /// Lock-free mirror of `backing.is_some()`, so the eviction scan
    /// (which runs under the resident lock) never nests the two mutexes.
    backed: std::sync::atomic::AtomicBool,
    /// Resident-set cap in bytes (0 = unbounded). Pinned (not-yet-durable)
    /// blobs never count against evictability, so the resident set may
    /// transiently exceed the cap while writes are in flight.
    cap_bytes: u64,
}

impl Default for ResidentStore {
    fn default() -> Self {
        ResidentStore::new()
    }
}

impl std::fmt::Debug for ResidentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentStore")
            .field("resident", &self.len())
            .field("cap_bytes", &self.cap_bytes)
            .finish_non_exhaustive()
    }
}

impl ResidentStore {
    /// Creates an empty, unbounded, purely in-memory store.
    pub fn new() -> ResidentStore {
        ResidentStore::with_cap(0)
    }

    /// Creates an empty store with a resident-set cap (`0` = unbounded).
    pub fn with_cap(cap_bytes: u64) -> ResidentStore {
        ResidentStore {
            resident: Mutex::new(Resident {
                blobs: HashMap::new(),
                bytes: 0,
                clock: 0,
            }),
            backing: Mutex::new(None),
            backed: std::sync::atomic::AtomicBool::new(false),
            cap_bytes,
        }
    }

    /// Attaches the on-disk blob directory non-resident reads fault in
    /// from. Called during durable create/open; idempotent.
    pub(crate) fn attach_backing(&self, dir: &Path, vfs: Arc<dyn Vfs>) {
        // lock-order: 45 (store.resident)
        let mut backing = self.backing.lock();
        *backing = Some(Backing {
            dir: dir.to_path_buf(),
            vfs,
        });
        self.backed
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Path of a blob file under `dir`.
    pub(crate) fn blob_path(dir: &Path, digest: &Digest) -> PathBuf {
        dir.join(format!("{}.blob", digest.to_hex()))
    }

    /// Sum of resident payload sizes (the `store.resident.bytes` gauge).
    pub fn resident_bytes(&self) -> u64 {
        // lock-order: 45 (store.resident)
        self.resident.lock().bytes
    }

    /// Drops least-recently-used durable blobs until the resident set fits
    /// the cap. Caller holds the resident lock. Pinned (non-durable)
    /// entries are skipped — they are the only copy of their bytes.
    fn evict_over_cap(&self, res: &mut Resident) {
        if self.cap_bytes == 0 {
            publish_resident_bytes(res.bytes);
            return;
        }
        // Eviction needs a backing dir to recover evicted blobs from, so
        // stores without one (ephemeral lakes) never evict. Read off the
        // atomic mirror: no second lock under the resident lock.
        if !self.backed.load(std::sync::atomic::Ordering::Acquire) {
            publish_resident_bytes(res.bytes);
            return;
        }
        while res.bytes > self.cap_bytes {
            let victim = res
                .blobs
                .iter()
                .filter(|(_, e)| e.durable)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(d, _)| *d);
            let Some(digest) = victim else {
                break; // everything left is pinned
            };
            if let Some(e) = res.blobs.remove(&digest) {
                res.bytes -= e.bytes.len() as u64;
                if mlake_obs::enabled() {
                    mlake_obs::counter!("store.evict").inc();
                }
            }
        }
        publish_resident_bytes(res.bytes);
    }

    /// Faults a blob in from the backing directory, verifying its digest.
    fn fault_in(&self, digest: &Digest) -> Result<Vec<u8>> {
        let (dir, vfs) = {
            // lock-order: 45 (store.resident)
            let backing = self.backing.lock();
            let Some(b) = backing.as_ref() else {
                return Err(LakeError::NotFound {
                    kind: "blob",
                    name: digest.short(),
                });
            };
            (b.dir.clone(), Arc::clone(&b.vfs))
        };
        // File I/O happens with no store lock held.
        let path = Self::blob_path(&dir, digest);
        let bytes = vfs.read(&path).map_err(|_| LakeError::NotFound {
            kind: "blob",
            name: digest.short(),
        })?;
        if sha256(&bytes) != *digest {
            return Err(LakeError::CorruptArtifact(format!(
                "blob file {} fails integrity check",
                digest.short()
            )));
        }
        if mlake_obs::enabled() {
            mlake_obs::counter!("store.fault").inc();
        }
        // Read *from* disk, so evictable from the start.
        self.admit(*digest, bytes.clone(), true);
        Ok(bytes)
    }

    /// Makes `bytes`, whose digest the caller computed, resident under
    /// `digest`, then evicts down to the cap. `durable` says a blob file
    /// already holds them, so they may be evicted; otherwise they are
    /// pinned. Returns `false`, changing nothing, when they already were
    /// resident.
    pub(crate) fn admit(&self, digest: Digest, bytes: Vec<u8>, durable: bool) -> bool {
        let len = bytes.len() as u64;
        // lock-order: 45 (store.resident)
        let mut res = self.resident.lock();
        res.clock += 1;
        let stamp = res.clock;
        let fresh = !res.blobs.contains_key(&digest);
        if fresh {
            res.bytes += len;
            res.blobs.insert(
                digest,
                Entry {
                    bytes,
                    stamp,
                    durable,
                },
            );
        }
        self.evict_over_cap(&mut res);
        fresh
    }

    /// Drops a blob's resident copy: an ingest that [`admit`]ted it and
    /// then failed to commit takes it back out.
    ///
    /// [`admit`]: ResidentStore::admit
    pub(crate) fn discard(&self, digest: &Digest) {
        // lock-order: 45 (store.resident)
        let mut res = self.resident.lock();
        if let Some(e) = res.blobs.remove(digest) {
            res.bytes -= e.bytes.len() as u64;
        }
        publish_resident_bytes(res.bytes);
    }

    /// Stores `bytes` pinned, returning their digest. Idempotent.
    pub fn put(&self, bytes: &[u8]) -> Digest {
        let digest = sha256(bytes);
        self.admit(digest, bytes.to_vec(), false);
        digest
    }

    /// Retrieves and integrity-checks a blob, faulting it in from the
    /// backing directory when it is not resident.
    pub fn get(&self, digest: &Digest) -> Result<Vec<u8>> {
        let resident = {
            // lock-order: 45 (store.resident)
            let mut res = self.resident.lock();
            res.clock += 1;
            let stamp = res.clock;
            res.blobs.get_mut(digest).map(|e| {
                e.stamp = stamp;
                e.bytes.clone()
            })
        };
        let Some(bytes) = resident else {
            return self.fault_in(digest);
        };
        // Defence in depth: re-verify on read.
        if sha256(&bytes) != *digest {
            return Err(LakeError::CorruptArtifact(format!(
                "stored blob {} fails integrity check",
                digest.short()
            )));
        }
        Ok(bytes)
    }

    /// Whether the digest is resident or available from backing files.
    pub fn contains(&self, digest: &Digest) -> bool {
        {
            // lock-order: 45 (store.resident)
            let res = self.resident.lock();
            if res.blobs.contains_key(digest) {
                return true;
            }
        }
        let (dir, vfs) = {
            // lock-order: 45 (store.resident)
            let backing = self.backing.lock();
            match backing.as_ref() {
                Some(b) => (b.dir.clone(), Arc::clone(&b.vfs)),
                None => return false,
            }
        };
        vfs.exists(&Self::blob_path(&dir, digest))
    }

    /// Number of *resident* blobs.
    pub fn len(&self) -> usize {
        // lock-order: 45 (store.resident)
        self.resident.lock().blobs.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Pushes the resident footprint to the `store.resident.bytes` gauge.
fn publish_resident_bytes(bytes: u64) {
    if mlake_obs::enabled() {
        mlake_obs::gauge!("store.resident.bytes").set(bytes as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_wal::RealFs;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mlake-store-{tag}-{}", std::process::id()))
    }

    #[test]
    fn put_get_round_trip_and_dedup() {
        let store = ResidentStore::new();
        let d1 = store.put(b"artifact-a");
        let d2 = store.put(b"artifact-a");
        assert_eq!(d1, d2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&d1).unwrap(), b"artifact-a");
        assert!(store.contains(&d1));
        assert!(!store.is_empty());
    }

    #[test]
    fn missing_blob_errors() {
        let store = ResidentStore::new();
        let ghost = sha256(b"never stored");
        assert!(matches!(
            store.get(&ghost),
            Err(LakeError::NotFound { kind: "blob", .. })
        ));
        assert!(!store.contains(&ghost));
    }

    #[test]
    fn fault_in_pages_missing_blobs_from_backing() {
        let dir = tmp("fault");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let d = sha256(b"on disk only");
        std::fs::write(ResidentStore::blob_path(&dir, &d), b"on disk only").unwrap();
        let store = ResidentStore::new();
        store.attach_backing(&dir, RealFs::shared());
        assert_eq!(store.len(), 0, "nothing resident before first touch");
        assert!(store.contains(&d), "backing file counts as contained");
        assert_eq!(store.get(&d).unwrap(), b"on disk only");
        assert_eq!(store.len(), 1, "faulted blob is now resident");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_in_rejects_corrupt_backing_file() {
        let dir = tmp("fault-bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let d = sha256(b"expected");
        std::fs::write(ResidentStore::blob_path(&dir, &d), b"tampered!").unwrap();
        let store = ResidentStore::new();
        store.attach_backing(&dir, RealFs::shared());
        assert!(matches!(
            store.get(&d),
            Err(LakeError::CorruptArtifact(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_respects_cap_and_pins() {
        let dir = tmp("evict");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Cap of 100 bytes; blobs of 60 bytes each.
        let store = ResidentStore::with_cap(100);
        store.attach_backing(&dir, RealFs::shared());
        let a = vec![0xAAu8; 60];
        let b = vec![0xBBu8; 60];
        let pins = ResidentStore::with_cap(100);
        pins.attach_backing(&dir, RealFs::shared());
        pins.put(&a);
        pins.put(&b);
        // Both pinned (no blob file vouches for them): nothing may be
        // evicted even though 120 > 100.
        assert_eq!(pins.len(), 2);
        assert_eq!(pins.resident_bytes(), 120);
        // Durable once the files exist: LRU (da) gets evicted.
        let (da, db) = (sha256(&a), sha256(&b));
        std::fs::write(ResidentStore::blob_path(&dir, &da), &a).unwrap();
        std::fs::write(ResidentStore::blob_path(&dir, &db), &b).unwrap();
        assert!(store.admit(da, a.clone(), true));
        assert!(store.admit(db, b.clone(), true));
        assert_eq!(store.len(), 1, "one blob evicted to fit the cap");
        assert!(store.resident_bytes() <= 100);
        // With the backing files gone, `contains` answers from residency
        // alone: the most recent blob stayed, the least recent went.
        std::fs::remove_file(ResidentStore::blob_path(&dir, &da)).unwrap();
        std::fs::remove_file(ResidentStore::blob_path(&dir, &db)).unwrap();
        assert!(store.contains(&db), "the most recently admitted blob stays resident");
        assert!(!store.contains(&da), "the least recently used blob is evicted");
        // The evicted blob still reads back — by faulting in — and the
        // fault-in itself re-evicts to stay under the cap.
        std::fs::write(ResidentStore::blob_path(&dir, &da), &a).unwrap();
        std::fs::write(ResidentStore::blob_path(&dir, &db), &b).unwrap();
        assert_eq!(store.get(&da).unwrap(), a);
        assert!(store.resident_bytes() <= 100);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let store = ResidentStore::new();
        let mut digests = Vec::new();
        for i in 0..16u8 {
            digests.push(store.put(&[i; 128]));
        }
        assert_eq!(store.len(), 16);
        for d in &digests {
            assert!(store.get(d).is_ok());
        }
    }
}
