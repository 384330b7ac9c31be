//! Work-stealing data-parallel execution layer for the model lake.
//!
//! A single persistent pool of worker threads serves the whole process.
//! Parallel regions are *scoped*: the calling thread submits one job per
//! participating worker, joins the computation itself, and blocks until
//! every job has finished, so borrowed data stays valid for the duration
//! of the region.
//!
//! Scheduling is work-stealing over index ranges. Each participant owns a
//! contiguous block of the iteration space packed into one `AtomicU64`
//! (`lo` and `hi` in the two 32-bit halves). The owner claims grain-sized
//! chunks from the front with a CAS; an idle thread steals the back half
//! of a victim's remaining range with a single CAS. There are no locks on
//! the hot path and no allocation per chunk.
//!
//! # Determinism policy
//!
//! * `par_for` guarantees every index is visited exactly once, but chunk
//!   boundaries and thread assignment vary run to run. Use it only for
//!   element-wise independent work (each index writes its own output).
//! * `par_map_reduce` decomposes the iteration space into *fixed* blocks
//!   derived from `len` and `grain` alone — never from the thread count —
//!   and folds block results in ascending block order. Given the same
//!   `grain`, the reduction tree is identical whether the region executes
//!   on one thread or sixteen, so floating-point results are bit-stable
//!   across `MLAKE_THREADS` settings.
//! * `MLAKE_THREADS=1` (or [`serial`]) runs every region inline on the
//!   calling thread in ascending index order: exactly the serial program.
//!
//! # Nesting and liveness
//!
//! A parallel region entered from inside a pool worker runs inline (the
//! worker is already a unit of parallelism; blocking it on the pool could
//! deadlock). The calling thread always participates and can finish the
//! whole region alone by stealing, so a region completes even if the pool
//! is saturated by other callers. Worker panics are captured and re-raised
//! on the calling thread after the region completes.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

pub mod lockorder;

use lockorder::ranks;

// ---------------------------------------------------------------------------
// Thread-count policy
// ---------------------------------------------------------------------------

/// Number of threads parallel regions may use, decided once per process.
///
/// `MLAKE_THREADS` overrides the detected CPU count; `MLAKE_THREADS=1`
/// makes every parallel primitive run inline and in order (the serial
/// program). Values are clamped to `[1, 256]`.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        let detected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        std::env::var("MLAKE_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(detected)
            .clamp(1, 256)
    })
}

thread_local! {
    /// True on pool worker threads: nested regions run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Depth of `serial()` scopes on this thread.
    static SERIAL_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with all parallel primitives forced inline on this thread.
///
/// Inside the scope every `par_*` call degenerates to the serial loop in
/// ascending index order, regardless of `MLAKE_THREADS`. Used by the
/// equivalence tests to compare parallel output against the exact serial
/// computation within one process.
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    SERIAL_DEPTH.with(|d| d.set(d.get() + 1));
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SERIAL_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let _guard = Guard;
    f()
}

fn inline_only() -> bool {
    num_threads() == 1
        || IN_POOL.with(|c| c.get())
        || SERIAL_DEPTH.with(|d| d.get() > 0)
}

// ---------------------------------------------------------------------------
// Persistent pool
// ---------------------------------------------------------------------------

/// A type-erased unit of work queued on the pool.
struct Job {
    /// Borrowed closure; the submitting region keeps it alive until its
    /// latch opens, which this job signals before returning.
    f: *const (dyn Fn(usize) + Sync),
    /// Participant slot the job should execute as.
    slot: usize,
    latch: *const Latch,
}

// SAFETY: the raw pointers are only dereferenced while the submitting
// region is blocked on its latch, which keeps the referents alive.
unsafe impl Send for Job {}

/// Counts outstanding pool jobs for one parallel region and stores the
/// first captured panic.
struct Latch {
    remaining: AtomicUsize,
    lock: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: AtomicUsize::new(count),
            lock: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn count_down(&self, payload: Option<Box<dyn std::any::Any + Send>>) {
        // The decrement and the notification both happen under the mutex:
        // `wait` only reads `remaining` while holding it, so the waiter
        // cannot observe zero (and free the stack-allocated latch) until
        // this guard drops — the unlock is the worker's last touch of
        // `self`.
        // lock-order: 20 (par.latch)
        let _ord = lockorder::acquire(ranks::PAR_LATCH, "par.latch");
        let mut slot = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = payload {
            slot.get_or_insert(p);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Option<Box<dyn std::any::Any + Send>> {
        // lock-order: 20 (par.latch)
        let _ord = lockorder::acquire(ranks::PAR_LATCH, "par.latch");
        let mut slot = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.remaining.load(Ordering::Acquire) != 0 {
            slot = self.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        slot.take()
    }
}

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

impl Pool {
    fn submit(&self, jobs: impl Iterator<Item = Job>) {
        // lock-order: 10 (par.queue)
        let _ord = lockorder::acquire(ranks::PAR_QUEUE, "par.queue");
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let mut n = 0usize;
        for job in jobs {
            q.push_back(job);
            n += 1;
        }
        if mlake_obs::enabled() {
            mlake_obs::gauge!("par.queue.depth").set(q.len() as i64);
        }
        drop(q);
        for _ in 0..n {
            self.available.notify_one();
        }
    }

    fn worker_loop(&self, index: usize) {
        IN_POOL.with(|c| c.set(true));
        // Resolved once per worker; `None` when observability is disabled,
        // so the hot loop takes no clock reads in that case.
        let busy = mlake_obs::enabled()
            .then(|| mlake_obs::registry().counter_dyn(&format!("par.worker{index}.busy_ns")));
        loop {
            let job = {
                // Released before the job runs, so the job's own latch
                // acquisition starts from an empty held-set.
                // lock-order: 10 (par.queue)
                let _ord = lockorder::acquire(ranks::PAR_QUEUE, "par.queue");
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = q.pop_front() {
                        if busy.is_some() {
                            mlake_obs::gauge!("par.queue.depth").set(q.len() as i64);
                        }
                        break job;
                    }
                    q = self.available.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            // SAFETY: the submitting region blocks on its latch until this
            // job counts down, keeping the borrowed closure alive.
            let exec = || panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.f)(job.slot) }));
            let result = match busy {
                Some(c) => c.time(exec),
                None => exec(),
            };
            // SAFETY: as above — the latch is stack-allocated in the still-
            // blocked submitting region, so the pointer is live here.
            let latch = unsafe { &*job.latch };
            latch.count_down(result.err());
            // `job.f`/`job.latch` must not be touched after the count-down:
            // the submitting region may have already returned.
        }
    }
}

/// The process-wide pool, spawned on first parallel region.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }));
        for i in 0..num_threads().saturating_sub(1) {
            std::thread::Builder::new()
                .name(format!("mlake-par-{i}"))
                .spawn(move || pool.worker_loop(i))
                // lint: panic-ok one-time process init; a host that cannot
                // spawn threads cannot run parallel regions at all
                .expect("failed to spawn mlake-par worker");
        }
        pool
    })
}

// ---------------------------------------------------------------------------
// Work-stealing range scheduler
// ---------------------------------------------------------------------------

#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    (v as u32, (v >> 32) as u32)
}

/// Drains `blocks` from participant `slot`: grain-sized chunks from the
/// front of the own block, then back-half steals from victims.
fn drive(blocks: &[AtomicU64], slot: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
    let grain = grain.max(1) as u32;
    // Phase 1: consume the own block front-to-back.
    let own = &blocks[slot];
    loop {
        let cur = own.load(Ordering::Acquire);
        let (lo, hi) = unpack(cur);
        if lo >= hi {
            break;
        }
        let take = grain.min(hi - lo);
        if own
            .compare_exchange_weak(cur, pack(lo + take, hi), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            f(lo as usize..(lo + take) as usize);
        }
    }
    // Phase 2: steal the back half of the largest remaining victim range
    // until the whole iteration space is drained.
    loop {
        let mut best: Option<(usize, u64, u32)> = None;
        for (v, block) in blocks.iter().enumerate() {
            if v == slot {
                continue;
            }
            let cur = block.load(Ordering::Acquire);
            let (lo, hi) = unpack(cur);
            let rem = hi.saturating_sub(lo);
            if rem > 0 && best.is_none_or(|(_, _, r)| rem > r) {
                best = Some((v, cur, rem));
            }
        }
        let Some((victim, cur, rem)) = best else {
            return;
        };
        let (lo, hi) = unpack(cur);
        let take = rem.div_ceil(2).min(rem);
        let split = hi - take;
        if blocks[victim]
            .compare_exchange(cur, pack(lo, split), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            if mlake_obs::enabled() {
                mlake_obs::counter!("par.steals").inc();
            }
            // Process the stolen range in grain-sized chunks.
            let mut s = split;
            while s < hi {
                let e = (s + grain).min(hi);
                f(s as usize..e as usize);
                s = e;
            }
        }
        // CAS failure: the victim's range moved under us; rescan.
    }
}

/// Executes `f` over disjoint sub-ranges covering `0..len` in parallel.
///
/// Every index is visited exactly once; `f` must be safe to call from
/// multiple threads on disjoint ranges. Chunk boundaries are not
/// deterministic — each chunk is at most `grain` long when claimed by its
/// owner, but steals hand over larger spans. With `MLAKE_THREADS=1`,
/// inside [`serial`], or when `len <= grain`, this is exactly
/// `f(0..len)` on the calling thread.
pub fn par_for(len: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
    if len == 0 {
        return;
    }
    assert!(len < u32::MAX as usize, "par_for range too large");
    let grain = grain.max(1);
    if inline_only() || len <= grain {
        f(0..len);
        return;
    }
    let threads = num_threads().min(len.div_ceil(grain)).max(1);
    if threads == 1 {
        f(0..len);
        return;
    }

    // Even initial partition; stealing rebalances skew.
    let blocks: Vec<AtomicU64> = (0..threads)
        .map(|t| {
            let lo = len * t / threads;
            let hi = len * (t + 1) / threads;
            AtomicU64::new(pack(lo as u32, hi as u32))
        })
        .collect();

    let run = |slot: usize| drive(&blocks, slot, grain, &f);
    region(threads, &run);
}

/// Submits `threads - 1` pool jobs for `run`, executes slot 0 inline, and
/// waits for all jobs; re-raises the first captured panic.
fn region(threads: usize, run: &(dyn Fn(usize) + Sync)) {
    if mlake_obs::enabled() {
        mlake_obs::counter!("par.regions").inc();
    }
    let latch = Latch::new(threads - 1);
    // SAFETY: the transmute only erases the region lifetime; `wait()`
    // below keeps `run` and `latch` alive until every job has signalled
    // the latch, so no job dereferences a dangling pointer.
    let f: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(run) };
    pool().submit((1..threads).map(|slot| Job {
        f,
        slot,
        latch: &latch,
    }));
    let own = panic::catch_unwind(AssertUnwindSafe(|| run(0)));
    let pool_panic = latch.wait();
    if let Err(p) = own {
        panic::resume_unwind(p);
    }
    if let Some(p) = pool_panic {
        panic::resume_unwind(p);
    }
}

// ---------------------------------------------------------------------------
// Deterministic collection / reduction primitives
// ---------------------------------------------------------------------------

/// Pointer wrapper asserting that disjoint-index writes are thread-safe.
struct SendPtr<T>(*mut T);
// SAFETY: holders only write through the pointer at disjoint indices
// (each caller below partitions the index space), so shared access from
// multiple threads never aliases a write.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Maps `f` over `0..len`, collecting results in index order.
///
/// Result order (and, for order-insensitive `f`, content) is identical
/// across thread counts. If `f` panics, completed results in other slots
/// are leaked, not dropped; the panic is re-raised.
pub fn par_map_index<R: Send>(len: usize, grain: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut out: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(len);
    // SAFETY: MaybeUninit needs no initialization; every slot is written
    // exactly once below before assuming init.
    unsafe { out.set_len(len) };
    let ptr = SendPtr(out.as_mut_ptr());
    par_for(len, grain, |range| {
        let base = &ptr;
        for i in range {
            let value = f(i);
            // SAFETY: ranges are disjoint, so slot `i` is written once.
            unsafe { base.0.add(i).write(std::mem::MaybeUninit::new(value)) };
        }
    });
    let mut out = std::mem::ManuallyDrop::new(out);
    let (ptr, len, cap) = (out.as_mut_ptr(), out.len(), out.capacity());
    // SAFETY: par_for visited every index exactly once, so all `len`
    // slots are initialized. Rebuild via raw parts rather than transmute:
    // Vec's layout is unspecified, so transmuting Vec<MaybeUninit<R>> to
    // Vec<R> is UB even though the element types match.
    unsafe { Vec::from_raw_parts(ptr as *mut R, len, cap) }
}

/// Maps `f` over a slice in parallel, preserving order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let grain = items.len().div_ceil(4 * num_threads()).max(1);
    par_map_index(items.len(), grain, |i| f(&items[i]))
}

/// Scatter region: runs `f(i)` once per task `i in 0..n`, one pool task
/// per item, collecting results in index order.
///
/// The scatter half of scatter-gather fan-outs (one task per index shard,
/// one task per replica, …) where `n` is small and each task is coarse —
/// unlike [`par_map`], no grain batching is applied, so even `n = 2` tasks
/// run concurrently. Result order is index order regardless of thread
/// count; with `MLAKE_THREADS=1` or inside [`serial`] the tasks run
/// inline in ascending order — exactly the serial program.
pub fn par_scatter<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    par_map_index(n, 1, f)
}

/// Runs `f(chunk_index, chunk)` over `chunk_len`-sized chunks of `data`
/// in parallel (the final chunk may be shorter).
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk_len = chunk_len.max(1);
    let n = data.len();
    let chunks = n.div_ceil(chunk_len);
    let ptr = SendPtr(data.as_mut_ptr());
    par_for(chunks, 1, |range| {
        let base = &ptr;
        for ci in range {
            let start = ci * chunk_len;
            let end = (start + chunk_len).min(n);
            // SAFETY: chunk indices are disjoint, so the sub-slices are.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
            f(ci, chunk);
        }
    });
}

/// Parallel map-reduce with a deterministic reduction tree.
///
/// The iteration space is cut into fixed grain-sized blocks
/// (`0..grain`, `grain..2*grain`, …) that depend only on `len` and
/// `grain`; `map` runs per block in parallel and the block results fold
/// left-to-right in block order. The same inputs therefore reduce in the
/// same order regardless of thread count — floating-point sums are
/// bit-stable across `MLAKE_THREADS` settings. Returns `None` for an
/// empty range.
pub fn par_map_reduce<R: Send>(
    len: usize,
    grain: usize,
    map: impl Fn(Range<usize>) -> R + Sync,
    reduce: impl FnMut(R, R) -> R,
) -> Option<R> {
    if len == 0 {
        return None;
    }
    let grain = grain.max(1);
    let blocks = len.div_ceil(grain);
    let partials = par_map_index(blocks, 1, |b| {
        let lo = b * grain;
        let hi = (lo + grain).min(len);
        map(lo..hi)
    });
    partials.into_iter().reduce(reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn par_for_visits_every_index_once() {
        let n = 100_000;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        par_for(n, 64, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_and_tiny() {
        par_for(0, 8, |_| panic!("must not run"));
        let hit = AtomicU32::new(0);
        par_for(1, 8, |r| {
            assert_eq!(r, 0..1);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(&items, |&x| x * 2 + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 2 + 1));
    }

    #[test]
    fn par_map_index_non_copy_results() {
        let out = par_map_index(1000, 16, |i| vec![i; i % 7]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 7);
            assert!(v.iter().all(|&x| x == i));
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut data = vec![0u32; 10_001];
        par_chunks_mut(&mut data, 97, |ci, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = (ci * 97 + k) as u32;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn map_reduce_matches_serial_sum() {
        let n = 54_321usize;
        let expect: u64 = (0..n as u64).sum();
        let got = par_map_reduce(
            n,
            1000,
            |r| r.map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(got, Some(expect));
        assert_eq!(par_map_reduce(0, 10, |_| 0u64, |a, b| a + b), None);
    }

    #[test]
    fn map_reduce_float_bit_stable_vs_serial() {
        // Pseudo-random values with awkward magnitudes: the fold order must
        // match the serial (in-order block) fold bit-for-bit.
        let xs: Vec<f32> = (0..10_000)
            .map(|i| ((i as f32 * 0.731).sin() * 1e3) + 1e-3 * i as f32)
            .collect();
        let grain = 128;
        let serial_result = serial(|| {
            par_map_reduce(
                xs.len(),
                grain,
                |r| r.map(|i| xs[i] as f64).sum::<f64>(),
                |a, b| a + b,
            )
        });
        let parallel_result = par_map_reduce(
            xs.len(),
            grain,
            |r| r.map(|i| xs[i] as f64).sum::<f64>(),
            |a, b| a + b,
        );
        assert_eq!(
            serial_result.unwrap().to_bits(),
            parallel_result.unwrap().to_bits()
        );
    }

    #[test]
    fn serial_scope_runs_inline_in_order() {
        serial(|| {
            let order = Mutex::new(Vec::new());
            par_for(10, 1, |r| {
                order.lock().unwrap().push(r.start);
            });
            // Inline execution is one call with the whole range.
            assert_eq!(*order.lock().unwrap(), vec![0]);
        });
    }

    #[test]
    fn nested_regions_complete() {
        let outer: Vec<u64> = par_map_index(8, 1, |i| {
            par_map_reduce(
                1000,
                64,
                |r| r.map(|j| (i * 1000 + j) as u64).sum::<u64>(),
                |a, b| a + b,
            )
            .unwrap()
        });
        for (i, &v) in outer.iter().enumerate() {
            let expect: u64 = (0..1000u64).map(|j| i as u64 * 1000 + j).sum();
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn panic_propagates() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            par_for(1000, 8, |r| {
                if r.contains(&777) {
                    panic!("boom at 777");
                }
            });
        }));
        assert!(caught.is_err());
        // Pool must still be usable afterwards.
        let ok = par_map_reduce(100, 8, |r| r.len(), |a, b| a + b);
        assert_eq!(ok, Some(100));
    }

    #[test]
    fn concurrent_callers_make_progress() {
        // Multiple user threads using the shared pool at once must all
        // complete (callers can finish their own regions by stealing).
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    par_map_reduce(
                        20_000,
                        128,
                        |r| r.map(|i| (i + t) as u64).sum::<u64>(),
                        |a, b| a + b,
                    )
                    .unwrap()
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let expect: u64 = (0..20_000u64).map(|i| i + t as u64).sum();
            assert_eq!(h.join().unwrap(), expect);
        }
    }
}
