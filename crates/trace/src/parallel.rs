//! Deterministic scoped-thread parallelism, shared by the whole workspace.
//!
//! Two levels of the pipeline fan out over cores: corpus measurement and
//! fold training map over independent bags or folds, and one workload's
//! profile maps its per-image kernel stages over the batch. Both are
//! embarrassingly parallel — every item is a pure function of its input —
//! so [`parallel_map`] runs them on [`std::thread::scope`] workers and
//! keeps the output **in input order**, making the parallel path
//! bit-identical to the serial one. [`map_profiled`] adds what a kernel
//! stage needs on top: each contiguous chunk of items counts into its own
//! [`Profiler`], and the chunk counts merge back in chunk order. The counts
//! are integer sums, so the merged profile is exact.
//!
//! The worker count comes from [`configured_threads`]: the
//! `BAGPRED_THREADS` environment variable when set (and positive),
//! otherwise [`std::thread::available_parallelism`]. `BAGPRED_THREADS=1`
//! forces the serial path exactly.
//!
//! The levels never multiply. Every item of a [`parallel_map`] runs with
//! its thread marked as a map worker, and a map called from a marked
//! thread runs serially on it: a bag worker that profiles a fresh workload
//! runs that profile's stages itself, and `*_threads(1)` entry points stay
//! on one thread all the way down. So a map over `n` workers never has
//! more than `n` threads busy, while a thread outside any map (a serving
//! shard worker profiling a cold request) still spreads the stages over
//! every core.
//!
//! No external thread-pool crate is involved — the build stays offline.

use crate::Profiler;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "BAGPRED_THREADS";

/// Chunks per worker in [`map_profiled`]: a few more chunks than workers
/// lets a worker that drew cheap images pick up another chunk.
const CHUNKS_PER_THREAD: usize = 4;

/// The worker-thread count the pipeline will use: `BAGPRED_THREADS` when
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 when that is unknown).
pub fn configured_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

thread_local! {
    /// Whether this thread is running an item of a [`parallel_map`].
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// The workers a map over `len` items asked for `threads` may use: one
/// inside another map's item, otherwise `threads` capped by the input.
fn workers(threads: usize, len: usize) -> usize {
    if IN_MAP.get() {
        1
    } else {
        threads.min(len).max(1)
    }
}

/// Runs `body` with this thread marked as a map worker, restoring the
/// previous mark afterwards (also when `body` panics).
fn as_map_worker<R>(body: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_MAP.set(self.0);
        }
    }
    let _restore = Restore(IN_MAP.replace(true));
    body()
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results **in input order**.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs balance across workers; determinism comes from reassembling by
/// index afterwards, never from scheduling. `threads <= 1`, a short
/// input, or a call from inside another map's item runs the plain serial
/// loop — the two paths produce identical output for a pure `f`. Either
/// way `f` runs as a map worker, so maps nested in it run serially.
///
/// # Panics
///
/// A panic in `f` is re-raised on the calling thread with its original
/// payload, so the caller sees the worker's own message.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = workers(threads, items.len());
    if threads == 1 {
        return as_map_worker(|| items.iter().map(f).collect());
    }

    let cursor = AtomicUsize::new(0);
    let worker = || {
        as_map_worker(|| {
            let mut local: Vec<(usize, U)> = Vec::new();
            loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    return local;
                }
                local.push((idx, f(&items[idx])));
            }
        })
    };
    let mut indexed: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        let mut all = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(local) => all.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_unstable_by_key(|(idx, _)| *idx);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, value)| value).collect()
}

/// Maps a profiled kernel stage `f` over `items` on up to `threads`
/// workers, returning results in input order and adding every count `f`
/// records into `prof`.
///
/// The items are cut into contiguous chunks; each chunk runs serially
/// into a fresh [`Profiler`], and the chunk profilers are
/// [`merged`](Profiler::merge) into `prof` in chunk order. `threads <= 1`,
/// or a call from inside a [`parallel_map`] item, runs the plain serial
/// loop straight into `prof`.
///
/// # Example
///
/// ```
/// use bagpred_trace::parallel::map_profiled;
/// use bagpred_trace::{InstrClass, Profiler};
///
/// let stage = |&x: &u64, prof: &mut Profiler| {
///     prof.count(InstrClass::Alu, x);
///     x * 2
/// };
/// let items: Vec<u64> = (1..=10).collect();
/// let mut serial = Profiler::new();
/// let mut parallel = Profiler::new();
/// let out = map_profiled(&items, 1, &mut serial, stage);
/// assert_eq!(map_profiled(&items, 3, &mut parallel, stage), out);
/// assert_eq!(serial, parallel);
/// assert_eq!(serial.class_count(InstrClass::Alu), 55);
/// ```
pub fn map_profiled<T, U, F>(items: &[T], threads: usize, prof: &mut Profiler, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T, &mut Profiler) -> U + Sync,
{
    let threads = workers(threads, items.len());
    if threads == 1 {
        return items.iter().map(|item| f(item, prof)).collect();
    }
    let chunk_len = items.len().div_ceil(threads * CHUNKS_PER_THREAD);
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let parts = parallel_map(&chunks, threads, |chunk| {
        let mut local = Profiler::new();
        let out: Vec<U> = chunk.iter().map(|item| f(item, &mut local)).collect();
        (out, local)
    });
    let mut out = Vec::with_capacity(items.len());
    for (part, local) in parts {
        out.extend(part);
        prof.merge(&local);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstrClass;

    #[test]
    fn preserves_input_order_regardless_of_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let serial = parallel_map(&items, 1, |&i| i * 3);
        for threads in [2, 4, 8, 33] {
            assert_eq!(parallel_map(&items, threads, |&i| i * 3), serial);
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, 4, |&b| b).is_empty());
        assert_eq!(parallel_map(&[7u8], 4, |&b| b + 1), vec![8]);
        let mut prof = Profiler::new();
        assert!(map_profiled(&empty, 4, &mut prof, |&b, _| b).is_empty());
        assert_eq!(prof, Profiler::new());
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 4, |&i| {
            // Skew the cost so late items finish before early ones.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * i
        });
        assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "item 13 is cursed")]
    fn worker_panics_propagate_with_their_message() {
        let items: Vec<u32> = (0..32).collect();
        parallel_map(&items, 4, |&i| {
            assert!(i != 13, "item {i} is cursed");
            i
        });
    }

    #[test]
    fn profiled_map_matches_the_serial_stage_at_every_thread_count() {
        let stage = |&i: &u64, prof: &mut Profiler| {
            prof.count(InstrClass::Fp, i);
            prof.read_bytes(i + 1);
            i.wrapping_mul(0x9E37_79B9)
        };
        for len in [0, 1, 2, 3, 7, 20, 33] {
            let items: Vec<u64> = (0..len).collect();
            let mut serial = Profiler::new();
            let expected = map_profiled(&items, 1, &mut serial, stage);
            for threads in [2, 3, 5, 64] {
                let mut prof = Profiler::new();
                assert_eq!(map_profiled(&items, threads, &mut prof, stage), expected);
                assert_eq!(prof, serial, "len {len}, {threads} threads");
            }
        }
    }

    #[test]
    fn maps_nested_in_a_map_item_run_serially_on_its_thread() {
        let on_own_thread = |_: &u32| {
            let me = std::thread::current().id();
            let inner: Vec<u64> = (0..16).collect();
            let nested = parallel_map(&inner, 8, |_| std::thread::current().id() == me);
            let profiled = map_profiled(&inner, 8, &mut Profiler::new(), |_, _| {
                std::thread::current().id() == me
            });
            nested.into_iter().chain(profiled).all(|same| same)
        };
        let outer: Vec<u32> = (0..4).collect();
        // Also when the outer map itself is serial: `*_threads(1)` means
        // one thread all the way down.
        for threads in [1, 4] {
            assert!(parallel_map(&outer, threads, on_own_thread)
                .into_iter()
                .all(|same| same));
        }
        // Outside any map the mark is cleared again, so a map fans out.
        let me = std::thread::current().id();
        let ids = parallel_map(&outer, 4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != me));
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
