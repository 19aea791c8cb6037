// telco-lint: deny-panic
//! The work-stealing claim/drain/merge protocol and the day gate of the
//! spilled runner, isolated from the runner so they can be model-checked.
//!
//! The runner's concurrency reduces to four obligations:
//!
//! 1. **claim** — every work item in `0..n_items` is claimed by exactly
//!    one worker ([`StealCursor::claim`] drains a shared atomic counter);
//! 2. **drain** — a worker that sees the cursor exhausted stops, so no
//!    worker spins once the grid is empty, and [`StealCursor::abort`]
//!    exhausts it early after the first error;
//! 3. **merge** — the per-worker `(item, run)` vectors, concatenated and
//!    sorted by item index ([`collect_runs`]), recover the canonical
//!    day-major item order no matter which worker produced which item;
//! 4. **day gate** — the spilled runner merges each day's run files into
//!    the sealed trace once, in day order, and only after every item of
//!    that day is on disk ([`DayGate`]).
//!
//! Together these make the parallel runner's output a pure function of
//! the item grid — byte-identical across thread counts — which is the
//! determinism contract `telco-sim/tests/determinism.rs` checks end to
//! end. This module is the only place the runner touches an atomic or a
//! lock, and `tests/loom_steal.rs` verifies the obligations under *every*
//! interleaving of their operations (build with `RUSTFLAGS="--cfg loom"`).
//!
//! The cursor uses `Relaxed` ordering: claims are independent — workers
//! publish their results through the thread-join that ends the scope,
//! not through the counter — and read-modify-write operations on a
//! single location are totally ordered at any ordering, so `Relaxed`
//! already guarantees unique claims. The day gate's counters are
//! different: a day's count hands that day's run files to whichever
//! worker merges it, so they pair release with acquire.

#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::{Mutex, PoisonError, TryLockError};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::{Mutex, PoisonError, TryLockError};

/// A shared cursor over the flattened `(day, chunk)` work-item grid.
/// Workers call [`StealCursor::claim`] until it returns `None`.
#[derive(Debug)]
pub struct StealCursor {
    next: AtomicUsize,
    n_items: usize,
}

impl StealCursor {
    /// A cursor over items `0..n_items`.
    pub fn new(n_items: usize) -> Self {
        StealCursor { next: AtomicUsize::new(0), n_items }
    }

    /// Claim the next unclaimed item, or `None` once the grid is
    /// drained. Each item in `0..n_items` is returned exactly once
    /// across all workers: the `fetch_add` read-modify-write gives every
    /// claimant a distinct index. (Claims past exhaustion keep
    /// incrementing the counter; with one claim per worker thread after
    /// exhaustion, wraparound would need ~2^64 workers.)
    pub fn claim(&self) -> Option<usize> {
        // ordering: Relaxed suffices — single-location RMW is totally ordered, results publish via thread join
        let item = self.next.fetch_add(1, Ordering::Relaxed);
        (item < self.n_items).then_some(item)
    }

    /// Exhaust the cursor early: every later [`StealCursor::claim`]
    /// returns `None`. Items already claimed are unaffected; the workers
    /// holding them finish them and then stop.
    pub fn abort(&self) {
        // ordering: Relaxed suffices — single-location RMW, and the abort publishes nothing else
        self.next.fetch_max(self.n_items, Ordering::Relaxed);
    }

    /// Total items in the grid.
    pub fn n_items(&self) -> usize {
        self.n_items
    }
}

/// Recover the canonical item order from per-worker production: flatten
/// the workers' `(item, run)` vectors and sort by item index. Claim
/// uniqueness makes the item keys distinct, so the unstable sort is
/// deterministic and the result is independent of which worker produced
/// which item and of production order.
pub fn collect_runs<R>(per_worker: Vec<Vec<(usize, R)>>) -> Vec<(usize, R)> {
    let mut runs: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    runs.sort_unstable_by_key(|&(item, _)| item);
    runs
}

/// The spilled runner's day gate: a per-day count of spilled items, and
/// one merger that folds complete days into its state `S` (the sealed
/// trace writer, in the runner) in day order.
///
/// Each worker calls [`DayGate::spilled`] after an item's run file is
/// closed. The worker whose item completes a day tries to take the
/// merger; if it wins, it merges every consecutive complete day from the
/// next unmerged one on, while the other workers keep simulating. If
/// another worker holds the merger, it goes straight back to work: the
/// holder merges the day too if it sees it complete in time, and
/// [`DayGate::finish`], run after every worker has joined, merges
/// whatever is left. Which worker wins a `try_lock` therefore never
/// changes what is merged, only when.
///
/// At most one day merges at a time, so the merge needs no more open
/// files than one day's runs. The first failure — a merge error, or
/// [`DayGate::abort`] after a spill error — stops the merger for good:
/// no later day is merged, by a worker or by `finish`.
#[derive(Debug)]
pub struct DayGate<S> {
    /// Items of each day whose run file is closed.
    spilled: Vec<AtomicUsize>,
    items_per_day: usize,
    merger: Mutex<Merger<S>>,
}

/// The merger's state, behind the gate's mutex.
#[derive(Debug)]
struct Merger<S> {
    state: S,
    /// The first day not merged yet.
    next_day: usize,
    failed: bool,
}

impl<S> Merger<S> {
    /// Merge every consecutive complete day from `next_day` on; stop at
    /// the first incomplete day, after a failure, or past the last day.
    fn merge_ready<E>(
        &mut self,
        spilled: &[AtomicUsize],
        items_per_day: usize,
        merge: impl Fn(&mut S, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        while !self.failed {
            let Some(count) = spilled.get(self.next_day) else { break };
            // ordering: Acquire pairs with each item's AcqRel count, so the day's closed run files are visible here
            if count.load(Ordering::Acquire) < items_per_day {
                break;
            }
            if let Err(e) = merge(&mut self.state, self.next_day) {
                self.failed = true;
                return Err(e);
            }
            self.next_day += 1;
        }
        Ok(())
    }
}

impl<S> DayGate<S> {
    /// A gate over `n_days` days of `items_per_day` items each, merging
    /// into `state`.
    pub fn new(n_days: usize, items_per_day: usize, state: S) -> Self {
        DayGate {
            spilled: (0..n_days).map(|_| AtomicUsize::new(0)).collect(),
            items_per_day,
            merger: Mutex::new(Merger { state, next_day: 0, failed: false }),
        }
    }

    /// Count one spilled item of `day`; call it once the item's run file
    /// is closed. If the item completes its day and the merger is free,
    /// merge every complete day not merged yet with `merge(state, day)`,
    /// in day order. The first merge error fails the gate and is
    /// returned.
    pub fn spilled<E>(
        &self,
        day: usize,
        merge: impl Fn(&mut S, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        // A day outside the gate has nothing to merge.
        let Some(count) = self.spilled.get(day) else { return Ok(()) };
        // ordering: AcqRel — the release publishes this item's closed run file, the acquire lets the completing worker see the others'
        if count.fetch_add(1, Ordering::AcqRel) + 1 < self.items_per_day {
            return Ok(());
        }
        match self.merger.try_lock() {
            Ok(mut merger) => merger.merge_ready(&self.spilled, self.items_per_day, merge),
            // The holder or the final drain merges this day.
            Err(TryLockError::WouldBlock) => Ok(()),
            // A merge panicked halfway: the state may be torn, so nothing
            // touches it again (the panic surfaces when the workers join).
            Err(TryLockError::Poisoned(_)) => Ok(()),
        }
    }

    /// Stop merging: once this returns, no day merges, by a worker or by
    /// [`DayGate::finish`]. Waits for a day merge in progress.
    pub fn abort(&self) {
        // Setting the flag is safe on a merger a panic left torn.
        self.merger.lock().unwrap_or_else(PoisonError::into_inner).failed = true;
    }

    /// Merge every complete day still unmerged, then hand back the
    /// state. Taking the gate by value means every worker has finished,
    /// so no count can change. After a failure, or a panic inside a
    /// merge, nothing more is merged and the state comes back as it was
    /// left.
    pub fn finish<E>(self, merge: impl Fn(&mut S, usize) -> Result<(), E>) -> Result<S, E> {
        let mut merger = self.merger.into_inner().unwrap_or_else(|poisoned| {
            let mut merger = poisoned.into_inner();
            merger.failed = true;
            merger
        });
        merger.merge_ready(&self.spilled, self.items_per_day, merge)?;
        Ok(merger.state)
    }
}
