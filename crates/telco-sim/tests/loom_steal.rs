//! Exhaustive model checking of the work-stealing claim/drain/merge
//! protocol and the spilled runner's day gate ([`telco_sim::steal`])
//! under loom.
//!
//! Only compiled with `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p telco-sim --test loom_steal --release
//! ```
//!
//! Every test wraps the protocol in `loom::model`, which replays the
//! closure under *all* interleavings of the cursor's and the gate's
//! atomic and lock operations. The properties proved (for the modelled
//! sizes):
//!
//! - every item is claimed exactly once, whatever the interleaving;
//! - workers stop when the grid drains (no claim past `n_items`), or
//!   when the cursor is aborted;
//! - the merged run list is the identity permutation of the item grid,
//!   independent of which worker won which claim — the schedule can
//!   affect *assignment*, never *output order*;
//! - the day gate merges each day exactly once, in day order, and only
//!   after all its items were spilled — a lost `try_lock` included, with
//!   the final drain counted as part of the run — and merges nothing
//!   once it has been aborted.
#![cfg(loom)]

use std::sync::atomic::AtomicBool as StdAtomicBool;
use std::sync::atomic::AtomicUsize as StdAtomicUsize;

use loom::sync::atomic::Ordering;
use loom::sync::Arc;
use loom::thread;

use telco_sim::steal::{collect_runs, DayGate, StealCursor};

/// Spawn `workers` model threads draining a `n_items` grid; return each
/// worker's claimed `(item, payload)` runs, joined in spawn order (the
/// same collection shape as the runner's scoped workers).
fn drain(workers: usize, n_items: usize) -> Vec<Vec<(usize, usize)>> {
    let cursor = Arc::new(StealCursor::new(n_items));
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let cursor = Arc::clone(&cursor);
            thread::spawn(move || {
                let mut produced: Vec<(usize, usize)> = Vec::new();
                while let Some(item) = cursor.claim() {
                    // The "run" payload encodes the producing worker so
                    // the merge test can show worker identity never
                    // leaks into output order.
                    produced.push((item, w));
                }
                produced
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
}

#[test]
fn items_claimed_exactly_once() {
    loom::model(|| {
        let per_worker = drain(2, 3);
        let mut seen = [0usize; 3];
        for (item, _) in per_worker.iter().flatten() {
            seen[*item] += 1;
        }
        assert_eq!(seen, [1, 1, 1], "each item claimed exactly once");
    });
}

#[test]
fn drained_cursor_stops_every_worker() {
    loom::model(|| {
        let per_worker = drain(3, 2);
        let total: usize = per_worker.iter().map(|v| v.len()).sum();
        assert_eq!(total, 2, "no worker may claim past the grid");
        // And a fresh claim on an exhausted cursor stays exhausted.
        let cursor = StealCursor::new(0);
        assert_eq!(cursor.claim(), None);
    });
}

#[test]
fn merge_recovers_canonical_order() {
    loom::model(|| {
        let per_worker = drain(2, 4);
        let runs = collect_runs(per_worker);
        let items: Vec<usize> = runs.iter().map(|&(item, _)| item).collect();
        assert_eq!(items, vec![0, 1, 2, 3], "merged order must be the item grid order");
    });
}

/// The gate model: 2 days of 2 items each, drained by 2 workers.
const DAYS: usize = 2;
const ITEMS_PER_DAY: usize = 2;
const N_ITEMS: usize = DAYS * ITEMS_PER_DAY;

/// What the merges are checked against. Plain std atomics, not
/// scheduling points: they observe the protocol without widening the
/// explored schedule space.
#[derive(Default)]
struct Disk {
    /// Item `i`'s run file is closed (set just before it is counted).
    closed: [StdAtomicBool; N_ITEMS],
    /// The aborting worker's `abort` has returned.
    aborted: StdAtomicBool,
}

/// The merge the gate drives: check that every item of `day` is on disk
/// and that no abort has returned, then record the day.
fn merge_day(disk: &Disk) -> impl Fn(&mut Vec<u32>, usize) -> Result<(), ()> + '_ {
    move |merged, day| {
        for item in day * ITEMS_PER_DAY..(day + 1) * ITEMS_PER_DAY {
            assert!(
                disk.closed[item].load(Ordering::SeqCst),
                "day {day} merged before item {item}"
            );
        }
        assert!(!disk.aborted.load(Ordering::SeqCst), "day {day} merged after the abort");
        merged.push(day as u32);
        Ok(())
    }
}

/// Run 2 workers over the gate, then its final drain. With `abort`,
/// worker 1 fails on its first item, as a run file that cannot be
/// created does: it aborts the cursor and the gate instead of counting
/// the item. Returns the merged days, how many of them the drain merged,
/// and whether the abort happened.
fn drive_gate(abort: bool) -> (Vec<u32>, usize, bool) {
    let cursor = Arc::new(StealCursor::new(N_ITEMS));
    let gate = Arc::new(DayGate::new(DAYS, ITEMS_PER_DAY, Vec::new()));
    let disk = Arc::new(Disk::default());
    let handles: Vec<_> = (0..2)
        .map(|w| {
            let (cursor, gate, disk) = (Arc::clone(&cursor), Arc::clone(&gate), Arc::clone(&disk));
            thread::spawn(move || {
                while let Some(item) = cursor.claim() {
                    if abort && w == 1 {
                        cursor.abort();
                        gate.abort();
                        disk.aborted.store(true, Ordering::SeqCst);
                        assert_eq!(cursor.claim(), None, "claim after the abort");
                        return;
                    }
                    disk.closed[item].store(true, Ordering::SeqCst);
                    gate.spilled(item / ITEMS_PER_DAY, merge_day(&disk)).expect("merge");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let Ok(gate) = Arc::try_unwrap(gate) else { panic!("a worker still holds the gate") };
    let drained = StdAtomicUsize::new(0);
    let merged = gate
        .finish(|merged, day| {
            drained.fetch_add(1, Ordering::SeqCst);
            merge_day(&disk)(merged, day)
        })
        .expect("drain");
    (merged, drained.into_inner(), disk.aborted.load(Ordering::SeqCst))
}

#[test]
fn day_gate_merges_each_day_once_in_order() {
    static DRAINED: StdAtomicUsize = StdAtomicUsize::new(0);
    loom::model(|| {
        let (merged, drained, _) = drive_gate(false);
        assert_eq!(merged, vec![0, 1], "each day merged exactly once, in day order");
        DRAINED.fetch_add(drained, Ordering::SeqCst);
    });
    // Some schedule completes a day while the other worker holds the
    // merger and has already looked past it: only the drain merges it.
    assert!(DRAINED.load(Ordering::SeqCst) > 0, "the explorer must reach a lost try_lock");
}

#[test]
fn aborted_day_gate_merges_nothing_more() {
    static ABORTED: StdAtomicUsize = StdAtomicUsize::new(0);
    loom::model(|| {
        let (merged, _, aborted) = drive_gate(true);
        let in_order = merged.iter().enumerate().all(|(i, &day)| day as usize == i);
        assert!(in_order, "merged days {merged:?} out of order");
        if aborted {
            // The aborting worker's item is never counted, so its day
            // and every later one stay unmerged.
            assert!(merged.len() < DAYS, "merged {merged:?} past the failed item");
            ABORTED.fetch_add(1, Ordering::SeqCst);
        } else {
            assert_eq!(merged, vec![0, 1], "worker 0 drained the grid alone");
        }
    });
    assert!(ABORTED.load(Ordering::SeqCst) > 0, "the explorer must reach the abort");
}

/// The stand-in explorer itself must still catch races — guards against
/// the model checker silently degrading into a single-schedule runner.
#[test]
fn explorer_canary_detects_lost_update() {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    let result = std::panic::catch_unwind(|| {
        loom::model(|| {
            let c = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("joined");
            }
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        });
    });
    assert!(result.is_err(), "explorer must find the racy-increment interleaving");
}
