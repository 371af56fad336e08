//! # predvfs-par
//!
//! Deterministic, order-preserving data-parallel primitives for the
//! simulator stack. The evaluation workloads are embarrassingly parallel
//! — per-job trace simulation, per-scheme runs, per-benchmark sweeps —
//! and this crate fans them out over [`std::thread::scope`] while
//! guaranteeing **bit-identical results to the serial path**: items are
//! claimed from an atomic cursor but results land in their input slots,
//! every reduction downstream runs in input order, and workers carry no
//! RNG or other per-thread state.
//!
//! The environment is offline (rayon cannot be vendored), so the pool is
//! ~100 lines of scoped threads; callers never observe the difference.
//!
//! ## Thread-count control
//!
//! Effective worker count, highest priority first:
//!
//! 1. [`with_threads`] — scoped override on the calling thread (tests);
//! 2. [`set_threads`] — process-global override (the CLI `--threads`);
//! 3. the `PREDVFS_THREADS` environment variable;
//! 4. [`std::thread::available_parallelism`].
//!
//! A count of 1 short-circuits to a plain serial loop on the calling
//! thread, so single-threaded runs have zero synchronization overhead.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-global thread override; 0 = unset.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Environment-derived default, read once.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

thread_local! {
    /// Scoped override installed by [`with_threads`]; 0 = unset.
    static SCOPED_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("PREDVFS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Sets the process-global worker count (0 restores the default).
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Runs `f` with the calling thread's worker count forced to `n`.
///
/// The override applies to parallel calls made *by this thread* while
/// `f` runs (nested calls made from inside spawned workers fall back to
/// the global setting). With `n == 1` every mapped closure executes on
/// the calling thread, which makes serial/parallel comparisons exact.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    SCOPED_THREADS.with(|c| {
        let prev = c.get();
        c.set(n);
        // Restore on unwind too, so a panicking test can't poison
        // later tests that share this thread.
        struct Reset<'a>(&'a Cell<usize>, usize);
        impl Drop for Reset<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _reset = Reset(c, prev);
        f()
    })
}

/// The worker count parallel calls on this thread would use right now.
pub fn current_threads() -> usize {
    let scoped = SCOPED_THREADS.with(Cell::get);
    if scoped > 0 {
        return scoped;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` — including panic
/// propagation — but fanned out over [`current_threads`] workers.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    match par_try_map(items, |t| Ok::<U, std::convert::Infallible>(f(t))) {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// Maps a fallible `f` over `items` in parallel, preserving input order.
///
/// On failure, returns the error of the **lowest-indexed** failing item
/// — exactly what the serial `.map(f).collect::<Result<_, _>>()` would
/// return — regardless of which worker hit it first. All items are still
/// attempted (the simulator's errors are rare and cheap), which keeps
/// the error choice deterministic.
pub fn par_try_map<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    let threads = current_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<U, E>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        let result = slot
            .into_inner()
            .expect("result slot poisoned")
            .expect("every slot filled by a worker");
        out.push(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = with_threads(8, || par_map(&items, |&i| i * 3));
        assert_eq!(out, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_bitwise() {
        let items: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.1).collect();
        let work = |&x: &f64| (x.sin() * 1e9).mul_add(x, x.sqrt());
        let serial: Vec<f64> = with_threads(1, || par_map(&items, work));
        let parallel: Vec<f64> = with_threads(7, || par_map(&items, work));
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn first_error_by_index_wins() {
        let items: Vec<usize> = (0..64).collect();
        let failing = |&i: &usize| {
            if i % 10 == 3 {
                Err(i)
            } else {
                Ok(i)
            }
        };
        let serial = with_threads(1, || par_try_map(&items, failing));
        let parallel = with_threads(6, || par_try_map(&items, failing));
        assert_eq!(serial, Err(3));
        assert_eq!(parallel, Err(3));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn scoped_override_wins_and_restores() {
        set_threads(2);
        assert_eq!(current_threads(), 2);
        with_threads(5, || assert_eq!(current_threads(), 5));
        assert_eq!(current_threads(), 2);
        set_threads(0);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&i| {
                    assert!(i != 7, "boom");
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
