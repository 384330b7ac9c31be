//! Background WAL compaction (DESIGN.md §13).
//!
//! A durable lake configured with a [`crate::lake::CompactionPolicy`]
//! owns one `mlake-compact` thread. After every WAL append the facade
//! checks the policy thresholds ([`ModelLake::maybe_request_compaction`],
//! called from `durable::log_record`); when the live WAL footprint or
//! the sealed-segment count crosses a threshold, the facade *schedules*
//! a compaction and returns — the caller never pays the snapshot cost.
//! The thread then runs exactly what an explicit `persist()` into the
//! lake's own directory would: a consistent snapshot cut under the
//! `op_lock`, followed by dropping the covered WAL segments
//! ([`crate::persist::persist_shared`]).
//!
//! Correctness does not depend on the thread at all: the WAL already
//! holds every acknowledged mutation, so a crash before (or during) a
//! background compaction recovers identically — the snapshot is only a
//! replay accelerator and a segment-space reclaimer. That is why a
//! failed background compaction is recorded (`compact.bg.errors`) and
//! otherwise dropped: the next trigger or explicit persist retries from
//! scratch.
//!
//! Lock order (DESIGN.md §10): `op_lock` → compactor state. The facade
//! calls [`Compactor::request`] while holding `op_lock`; the thread
//! takes `op_lock` (inside `persist_shared`) only while *not* holding
//! its state lock, so the two never nest in reverse.

use crate::error::{LakeError, Result};
use crate::lake::LakeShared;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Compactor state, guarded by the leaf-rank mutex in the pair.
struct State {
    /// A compaction has been scheduled but not yet picked up.
    pending: bool,
    /// The thread is inside a compaction run right now.
    running: bool,
    /// The owning lake is dropping; exit the loop.
    shutdown: bool,
}

/// Handle to the background compaction thread. Owned by `ModelLake`;
/// dropped (via [`Compactor::shutdown`]) before the lake's own state.
pub(crate) struct Compactor {
    state: Arc<(Mutex<State>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Spawns the compaction thread over a clone of the lake's shared
    /// state. Called once, at the end of durable create/open, after the
    /// WAL link is installed.
    pub(crate) fn spawn(shared: Arc<LakeShared>) -> Result<Compactor> {
        let state = Arc::new((
            Mutex::new(State {
                pending: false,
                running: false,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let thread_state = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("mlake-compact".into())
            .spawn(move || run(shared, thread_state))
            .map_err(|e| LakeError::Internal(format!("compactor thread spawn: {e}")))?;
        Ok(Compactor {
            state,
            handle: Some(handle),
        })
    }

    /// Schedules a compaction (idempotent while one is already pending).
    /// Safe to call under the `op_lock`; only the leaf state lock is
    /// taken. Never blocks on the compaction itself.
    pub(crate) fn request(&self) {
        let (lock, cvar) = &*self.state;
        // lock-order: 60 (compact.state)
        let mut s = lock.lock();
        if !s.pending {
            s.pending = true;
            if mlake_obs::enabled() {
                mlake_obs::gauge!("compact.pending").set(1);
            }
        }
        cvar.notify_all();
    }

    /// Blocks until no compaction is pending or running. Test/shutdown
    /// synchronization only — the data path never waits on the thread.
    pub(crate) fn wait_idle(&self) {
        let (lock, cvar) = &*self.state;
        // lock-order: 60 (compact.state)
        let mut s = lock.lock();
        while s.pending || s.running {
            cvar.wait(&mut s);
        }
    }

    /// Signals shutdown and joins the thread. A pending-but-unstarted
    /// compaction is dropped — the WAL still holds everything it would
    /// have folded in, so recovery is unaffected.
    pub(crate) fn shutdown(mut self) {
        {
            let (lock, cvar) = &*self.state;
            // lock-order: 60 (compact.state)
            let mut s = lock.lock();
            s.shutdown = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            // A panicked compactor thread has nothing left to corrupt
            // (its snapshot writes are atomic); swallow the join error.
            let _ = handle.join();
        }
    }
}

/// Thread body: wait for a request, run one compaction, repeat.
fn run(shared: Arc<LakeShared>, state: Arc<(Mutex<State>, Condvar)>) {
    loop {
        {
            let (lock, cvar) = &*state;
            // lock-order: 60 (compact.state)
            let mut s = lock.lock();
            while !s.pending && !s.shutdown {
                cvar.wait(&mut s);
            }
            if s.shutdown {
                return;
            }
            s.pending = false;
            s.running = true;
        }
        if mlake_obs::enabled() {
            mlake_obs::gauge!("compact.pending").set(0);
        }
        let outcome = {
            let _span = mlake_obs::span("compact.bg");
            match &shared.wal {
                Some(link) => crate::persist::persist_shared(&shared, &link.dir, &link.vfs),
                None => Ok(()),
            }
        };
        if mlake_obs::enabled() {
            match &outcome {
                Ok(()) => mlake_obs::counter!("compact.bg.runs").inc(),
                Err(_) => mlake_obs::counter!("compact.bg.errors").inc(),
            }
        }
        // Opportunistic GC after a successful compaction: the superblock
        // swap just made the previous chain (and any crash orphans)
        // unreachable. Failure is recorded and dropped — the next pass
        // retries from scratch (DESIGN.md §15).
        if outcome.is_ok() {
            if let Err(_e) = crate::gc::gc_shared(&shared) {
                if mlake_obs::enabled() {
                    mlake_obs::counter!("gc.bg.errors").inc();
                }
            }
        }
        {
            let (lock, cvar) = &*state;
            // lock-order: 60 (compact.state)
            let mut s = lock.lock();
            s.running = false;
            cvar.notify_all();
        }
    }
}
