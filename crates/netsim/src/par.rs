//! `par` — a deterministic fan-out executor for independent sweep points.
//!
//! Every figure of the paper regenerates from a *sweep*: a grid of
//! simulation runs that differ only in their parameters, each owning its
//! own seed and its own [`crate::MetricsRegistry`]. The runs share no
//! state, so they can execute on any number of worker threads — what
//! must never change is the *output*: tables and JSONL artifacts are
//! assembled strictly in sweep-point index order, so the bytes written
//! with one worker are identical to the bytes written with sixteen
//! (DESIGN.md §10).
//!
//! The executor is dependency-free and contains no `unsafe`: a
//! [`std::thread::scope`] worker pool pulls indices from an atomic
//! counter and posts `(index, result)` pairs over an [`std::sync::mpsc`]
//! channel; the caller's thread reassembles the dense result vector by
//! index. RNG streams cannot interleave because each point derives all
//! of its randomness from its own seed — nothing ambient is drawn
//! (determinism rule D003, DESIGN.md §8).
//!
//! Worker count resolution, highest priority first:
//!
//! 1. an explicit [`set_threads`] call (the experiments CLI's
//!    `--threads N` flag),
//! 2. the `SS_EXPERIMENTS_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count used by [`sweep`]. `0` clears the
/// override, falling back to `SS_EXPERIMENTS_THREADS` and then the
/// machine's available parallelism.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count [`sweep`] will use right now. Always at least 1.
pub fn threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("SS_EXPERIMENTS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over every sweep point on the configured worker pool (see
/// [`threads`]) and returns the results **in index order** — element `i`
/// of the returned vector is `f(i, &points[i])`, whatever thread computed
/// it.
///
/// Determinism contract: `f` must derive everything it computes from its
/// arguments alone (each sweep point owns its seed), which every
/// simulation in this workspace already guarantees under determinism
/// rules D001–D003 (`clippy.toml`, DESIGN.md §8). Under that contract
/// the returned vector — and anything serialized from it in order — is
/// byte-identical for every worker count, including 1.
///
/// A panic inside `f` propagates to the caller once the pool has joined
/// (the panicking run's output is lost; no partial vector is returned).
pub fn sweep<P, T, F>(points: &[P], f: F) -> Vec<T>
where
    P: Sync,
    T: Send,
    F: Fn(usize, &P) -> T + Sync,
{
    sweep_with_threads(threads(), points, f)
}

/// [`sweep`] on exactly `threads` workers, reassembling the results
/// densely in index order.
pub(crate) fn sweep_with_threads<P, T, F>(threads: usize, points: &[P], f: F) -> Vec<T>
where
    P: Sync,
    T: Send,
    F: Fn(usize, &P) -> T + Sync,
{
    let n = points.len();
    if threads <= 1 || n <= 1 {
        // The sequential oracle: the parallel path must reproduce this
        // byte for byte.
        return points.iter().enumerate().map(|(i, p)| f(i, p)).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // A send only fails if the receiver is gone, which
                // cannot happen while the scope holds the caller.
                let _ = tx.send((i, f(i, &points[i])));
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        debug_assert!(slots[i].is_none(), "sweep point {i} computed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("sweep point {i} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn results_come_back_in_index_order() {
        let points: Vec<u64> = (0..64).collect();
        let out = sweep_with_threads(8, &points, |i, &p| {
            assert_eq!(i as u64, p);
            p * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_oracle() {
        // Each point owns a seed; the draws must be identical however
        // many workers execute the sweep.
        let points: Vec<u64> = (0..40).collect();
        let job = |_: usize, &seed: &u64| {
            let mut rng = SimRng::new(seed);
            (0..100).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        let seq = sweep_with_threads(1, &points, job);
        for threads in [2, 3, 8, 64] {
            assert_eq!(sweep_with_threads(threads, &points, job), seq);
        }
    }

    #[test]
    fn more_workers_than_points_is_fine() {
        let points = [1u32, 2];
        assert_eq!(sweep_with_threads(16, &points, |_, &p| p + 1), vec![2, 3]);
    }

    #[test]
    fn empty_sweep_returns_empty() {
        let points: [u8; 0] = [];
        let out: Vec<u8> = sweep_with_threads(4, &points, |_, &p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn override_wins_and_clears() {
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let points: Vec<u32> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            sweep_with_threads(4, &points, |_, &p| {
                assert!(p != 5, "boom");
                p
            })
        });
        assert!(r.is_err(), "a panicking sweep point must not be swallowed");
    }
}
