//! Debug-mode lock-order race detector (DESIGN.md §10).
//!
//! Deadlock freedom across the workspace rests on one
//! global rule: locks are acquired in strictly ascending rank order. The
//! ranks (see [`ranks`]) form the workspace lock hierarchy:
//!
//! | rank | lock                                             |
//! |------|--------------------------------------------------|
//! | 4    | `server.router` — lake-router map `RwLock`       |
//! | 8    | `core.catalogue` — the lake's catalogue `RwLock` |
//! | 10   | `par.queue` — pool job deque mutex               |
//! | 20   | `par.latch` — per-region latch mutex             |
//! | 45   | `store.resident` — blob residency table          |
//! | 50   | `wal.inner` — WAL writer state mutex             |
//!
//! In debug builds every tracked acquisition is recorded in a
//! thread-local stack; acquiring a lock whose rank is **not strictly
//! greater** than every lock already held panics with both sites, so the
//! inverted acquisition that *could* deadlock under unlucky scheduling
//! fails loudly and deterministically on the first test run instead. Note
//! equal ranks also panic: two same-rank locks (e.g. two region latches)
//! taken together can deadlock against a thread taking them in the
//! opposite order, so the hierarchy demands they be held one at a time.
//!
//! In release builds [`acquire`] compiles to nothing — [`OrderToken`] is
//! a zero-sized type and the call inlines away — so the production hot
//! path pays zero cost.
//!
//! Call sites pair the token with the `// lock-order: N` comment the
//! `mlake-lint` `lock-order` pass demands, keeping the static annotation
//! and the runtime check in sync:
//!
//! ```ignore
//! // lock-order: 10 (par.queue)
//! let _ord = lockorder::acquire(ranks::PAR_QUEUE, "par.queue");
//! let g = queue.lock();
//! ```

/// The workspace lock hierarchy. Gaps between ranks leave room for new
/// locks without renumbering annotations.
pub mod ranks {
    /// `mlake-server` lake-router map `RwLock`. Below every other rank:
    /// routing resolves a lake handle before any lake/pool lock is taken,
    /// and never while one is held.
    pub const SERVER_ROUTER: u32 = 4;
    /// `mlake-core` catalogue `RwLock` (`ModelLake::catalogue`): registry
    /// plus event log. Below the pool ranks, because a read holds it
    /// across the MLQL parallel scan, and below the store and the WAL,
    /// which run under it; a thread never holds it twice.
    pub const CORE_CATALOGUE: u32 = 8;
    /// Pool job deque mutex (`Pool::queue`).
    pub const PAR_QUEUE: u32 = 10;
    /// Per-region latch mutex (`Latch::lock`).
    pub const PAR_LATCH: u32 = 20;
    /// `mlake-core` blob residency table (`ResidentStore::resident`): the
    /// LRU map of paged-in blobs. A leaf among the core locks — faulting
    /// a blob in reads the filesystem *outside* this lock and never takes
    /// another lock while holding it.
    pub const STORE_RESIDENT: u32 = 45;
    /// WAL writer state mutex (`Wal::inner` in `mlake-wal`). Ranked above
    /// the core locks: a facade mutation appends to the WAL under the op
    /// lock, and the WAL never calls back into the lake.
    pub const WAL_INNER: u32 = 50;
}

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks and sites of tracked locks currently held by this thread,
        /// in acquisition order.
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub fn push(rank: u32, site: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(&(held_rank, held_site)) =
                held.iter().find(|&&(r, _)| r >= rank)
            {
                // Drop the borrow before unwinding so the token's Drop
                // (which re-borrows) cannot double-panic.
                drop(held);
                // lint: panic-ok deliberate debug-build abort: a lock-order
                // inversion is a latent deadlock and must crash the test run
                panic!(
                    "lock-order violation: acquiring `{site}` (rank {rank}) while \
                     holding `{held_site}` (rank {held_rank}); locks must be taken \
                     in strictly ascending rank order (DESIGN.md §10)"
                );
            }
            held.push((rank, site));
        });
    }

    pub fn pop(rank: u32, site: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held
                .iter()
                .rposition(|&(r, s)| r == rank && std::ptr::eq(s, site))
            {
                held.remove(pos);
            }
        });
    }

    /// Number of tracked locks held by this thread (test hook).
    pub fn held_count() -> usize {
        HELD.with(|h| h.borrow().len())
    }
}

/// RAII token recording one tracked lock acquisition. Hold it for exactly
/// as long as the lock guard it shadows; dropping it releases the
/// tracker entry. Zero-sized and inert in release builds.
#[must_use = "the order token must live as long as the lock guard it tracks"]
pub struct OrderToken {
    #[cfg(debug_assertions)]
    rank: u32,
    #[cfg(debug_assertions)]
    site: &'static str,
}

/// Records acquiring the lock `site` with rank `rank`.
///
/// Debug builds panic (with both sites) when `rank` is not strictly
/// greater than every rank this thread already holds; release builds do
/// nothing.
#[inline]
pub fn acquire(rank: u32, site: &'static str) -> OrderToken {
    #[cfg(debug_assertions)]
    {
        imp::push(rank, site);
        OrderToken { rank, site }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (rank, site);
        OrderToken {}
    }
}

impl Drop for OrderToken {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        imp::pop(self.rank, self.site);
    }
}

/// Number of tracked locks held by the current thread (0 in release
/// builds). Exposed for tests asserting balanced acquire/release.
pub fn held_count() -> usize {
    #[cfg(debug_assertions)]
    {
        imp::held_count()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)]
    fn catches(f: impl FnOnce() + Send + 'static) -> bool {
        // Run in a fresh thread so a panicking acquisition cannot leave
        // residue in this thread's HELD stack.
        std::thread::spawn(f).join().is_err()
    }

    #[test]
    #[cfg(debug_assertions)]
    fn ascending_acquisition_is_clean() {
        let ok = !catches(|| {
            let _q = acquire(ranks::PAR_QUEUE, "par.queue");
            let _l = acquire(ranks::PAR_LATCH, "par.latch");
        });
        assert!(ok);
        assert_eq!(held_count(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn inverted_acquisition_panics_with_both_sites() {
        let r = std::thread::spawn(|| {
            let _high = acquire(ranks::PAR_LATCH, "par.latch");
            let _low = acquire(ranks::PAR_QUEUE, "par.queue");
        })
        .join();
        let payload = r.expect_err("inversion must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("par.queue"), "missing acquiring site: {msg}");
        assert!(msg.contains("par.latch"), "missing held site: {msg}");
        assert!(msg.contains("rank 10") && msg.contains("rank 20"), "{msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn equal_rank_nesting_panics() {
        assert!(catches(|| {
            let _a = acquire(ranks::PAR_LATCH, "par.latch");
            let _b = acquire(ranks::PAR_LATCH, "par.latch");
        }));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn release_unwinds_allow_reacquisition() {
        {
            let _a = acquire(ranks::PAR_LATCH, "par.latch");
        }
        // Rank 20 released; taking rank 10 now is legal.
        let _b = acquire(ranks::PAR_QUEUE, "par.queue");
        drop(_b);
        assert_eq!(held_count(), 0);
    }

    #[test]
    fn release_build_token_is_inert() {
        // Compiles and runs in both profiles; in release the token is a
        // ZST and held_count is constant 0.
        let t = acquire(ranks::PAR_QUEUE, "par.queue");
        drop(t);
        assert_eq!(held_count(), 0);
    }
}
