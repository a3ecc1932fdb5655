//! `fexiot-par` — the deterministic data-parallel execution layer.
//!
//! The two fan-outs of the FexIoT pipeline that gain from a second core
//! (dataset featurization and federated client steps) are maps over
//! independent items whose *outputs* must stay bit-identical no matter how
//! many cores run it — the repo's golden tests and the obs-diff CI gate lock
//! `f64` bit patterns, not approximations. That rules out work-stealing
//! (gather order would depend on scheduling), so this crate implements the
//! simplest executor that cannot be nondeterministic:
//!
//! * **Fixed contiguous chunking.** `n` items are split into at most
//!   `threads` contiguous chunks whose boundaries depend only on `(n,
//!   threads)`. Chunk `0` runs on the calling thread.
//! * **Order-preserving gather.** Results are concatenated in chunk order,
//!   so the output vector is identical to the sequential map.
//! * **Inline fast path.** With one chunk or one core no thread is spawned
//!   and no synchronization happens — the chunks run in order on the
//!   calling thread, which *is* the sequential code path.
//!
//! Callers that need randomness draw it sequentially on the calling thread
//! before scattering, so item `i` sees the same stream at any width.
//!
//! Observability: workers must not record into the process-global registry
//! (the per-thread span stacks would interleave nondeterministically).
//! Callers either keep worker closures obs-free, or route them into
//! per-worker child registries (`fexiot_obs::with_registry`) and merge the
//! snapshots on the calling thread in worker order (`Registry::absorb`).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-global thread count: 0 = not configured yet (resolve from the
/// environment on first use).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "FEXIOT_THREADS";

/// Sets the process-global thread count used by [`pool`] (the `--threads`
/// CLI flag lands here). Clamped to at least 1.
pub fn set_threads(threads: usize) {
    GLOBAL_THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// The process-global pool: configured by [`set_threads`], else
/// `FEXIOT_THREADS`, else available parallelism. Resolution is cached.
pub fn pool() -> ParPool {
    let mut t = GLOBAL_THREADS.load(Ordering::Relaxed);
    if t == 0 {
        t = ParPool::from_env().threads();
        GLOBAL_THREADS.store(t, Ordering::Relaxed);
    }
    ParPool::new(t)
}

/// A deterministic scatter-gather executor. Creating one is free (it holds
/// no threads); each call spawns scoped workers only when the thread count,
/// the item count and the machine all warrant it.
#[derive(Debug, Clone, Copy)]
pub struct ParPool {
    threads: usize,
}

impl ParPool {
    /// A pool that runs at most `threads` chunks concurrently (min 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The machine's available parallelism (1 when unknown), cached once.
    /// Chunking never depends on it — only whether chunks run on threads.
    pub fn available() -> usize {
        static CACHE: OnceLock<usize> = OnceLock::new();
        *CACHE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Thread count from `FEXIOT_THREADS` (when set to a positive integer),
    /// else [`ParPool::available`].
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(Self::available);
        Self::new(threads)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Contiguous chunk boundaries for `n` items: a pure function of
    /// `(n, self.threads)`, never of runtime scheduling. At most `threads`
    /// chunks, none empty unless `n == 0`; the first `n % k` chunks carry
    /// one extra item.
    fn chunk_bounds(&self, n: usize) -> Vec<(usize, usize)> {
        let k = self.threads.min(n).max(1);
        let base = n / k;
        let extra = n % k;
        let mut bounds = Vec::with_capacity(k);
        let mut start = 0;
        for c in 0..k {
            let len = base + usize::from(c < extra);
            bounds.push((start, start + len));
            start += len;
        }
        bounds
    }

    /// The one scatter: `work(chunk)` for every chunk, results concatenated
    /// in chunk order. Chunk 0 runs on the calling thread and the rest on
    /// scoped workers — unless there is one chunk or one core, in which
    /// case all chunks run inline in order. A worker's panic resumes on the
    /// calling thread. No pool call the program makes is nested in another;
    /// one that were would spawn its own workers and give the same results.
    fn scatter<C: Send, R: Send>(
        &self,
        chunks: Vec<C>,
        work: impl Fn(C) -> Vec<R> + Sync,
    ) -> Vec<R> {
        let threaded = chunks.len() > 1 && Self::available() > 1;
        let mut chunks = chunks.into_iter();
        let first = chunks.next().expect("chunk_bounds yields a chunk");
        if !threaded {
            let mut out = work(first);
            chunks.for_each(|c| out.extend(work(c)));
            return out;
        }
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks.map(|c| scope.spawn(move || work(c))).collect();
            let mut out = work(first);
            for h in handles {
                out.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            out
        })
    }

    /// Order-preserving parallel map: `out[i] = f(i, &items[i])`.
    pub fn map_indexed<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let chunks = self
            .chunk_bounds(items.len())
            .into_iter()
            .map(|(start, end)| (start, &items[start..end]))
            .collect();
        self.scatter(chunks, |(start, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(k, item)| f(start + k, item))
                .collect()
        })
    }

    /// Order-preserving parallel map with mutable access over a *sparse
    /// subset*: `out[j] = f(indices[j], &mut items[indices[j]])`. `indices`
    /// must be strictly increasing and in bounds (a sampled federated cohort
    /// is drawn sorted). Chunking is over the subset, not the backing slice,
    /// so a 50-client cohort inside a 2000-client fleet still balances
    /// across workers; each chunk owns the disjoint sub-slice from its first
    /// index up to the next chunk's, so workers never alias.
    ///
    /// # Panics
    /// Panics when `indices` is not strictly increasing or indexes out of
    /// bounds.
    pub fn map_subset_mut<T: Send, R: Send>(
        &self,
        items: &mut [T],
        indices: &[usize],
        f: impl Fn(usize, &mut T) -> R + Sync,
    ) -> Vec<R> {
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "map_subset_mut: indices must be strictly increasing"
        );
        if let Some(&last) = indices.last() {
            assert!(
                last < items.len(),
                "map_subset_mut: index {last} out of bounds for {} items",
                items.len()
            );
        }
        // Carve back to front: every chunk after the first is non-empty and
        // starts its span at its own first index; the first starts at 0.
        let bounds = self.chunk_bounds(indices.len());
        let mut chunks = Vec::with_capacity(bounds.len());
        let mut rest = items;
        for (start, end) in bounds.into_iter().rev() {
            let lo = if start == 0 { 0 } else { indices[start] };
            let (head, span) = std::mem::take(&mut rest).split_at_mut(lo);
            chunks.push((lo, &indices[start..end], span));
            rest = head;
        }
        chunks.reverse();
        self.scatter(chunks, |(lo, idx, span)| {
            idx.iter().map(|&i| f(i, &mut span[i - lo])).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn pools() -> Vec<ParPool> {
        vec![
            ParPool::new(1),
            ParPool::new(2),
            ParPool::new(3),
            ParPool::new(7),
        ]
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for pool in pools() {
            for n in [0usize, 1, 2, 5, 7, 8, 100] {
                let bounds = pool.chunk_bounds(n);
                assert!(bounds.len() <= pool.threads().max(1));
                let mut expect = 0;
                for &(s, e) in &bounds {
                    assert_eq!(s, expect);
                    assert!(e >= s);
                    expect = e;
                }
                assert_eq!(expect, n, "bounds must cover 0..{n}");
                // Balanced: sizes differ by at most one.
                if !bounds.is_empty() {
                    let sizes: Vec<usize> = bounds.iter().map(|&(s, e)| e - s).collect();
                    let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(mx - mn <= 1, "unbalanced chunks {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn map_indexed_matches_sequential_at_any_width() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 3 + i as u64)
            .collect();
        for pool in pools() {
            let got = pool.map_indexed(&items, |i, &x| x * 3 + i as u64);
            assert_eq!(got, expect, "threads={}", pool.threads());
        }
    }

    #[test]
    fn map_subset_mut_over_every_index_mutates_in_place_in_order() {
        let expect: Vec<i64> = (0..41).map(|i| i * 10).collect();
        let all: Vec<usize> = (0..41).collect();
        for pool in pools() {
            let mut items: Vec<i64> = (0..41).collect();
            let returned = pool.map_subset_mut(&mut items, &all, |i, x| {
                *x *= 10;
                i
            });
            assert_eq!(items, expect);
            assert_eq!(returned, (0..41).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn map_subset_mut_touches_only_the_subset_in_order() {
        let indices = [0usize, 3, 4, 9, 17, 18, 40];
        for pool in pools() {
            let mut items: Vec<i64> = (0..41).collect();
            let returned = pool.map_subset_mut(&mut items, &indices, |i, x| {
                *x += 1000;
                i
            });
            assert_eq!(returned, indices.to_vec(), "threads={}", pool.threads());
            for (i, &x) in items.iter().enumerate() {
                let expect = if indices.contains(&i) {
                    i as i64 + 1000
                } else {
                    i as i64
                };
                assert_eq!(x, expect, "item {i} at threads={}", pool.threads());
            }
        }
    }

    #[test]
    fn map_subset_mut_handles_edge_shapes() {
        let pool = ParPool::new(4);
        let mut items: Vec<u8> = vec![7; 10];
        assert!(pool.map_subset_mut(&mut items, &[], |i, _| i).is_empty());
        // Single index, and a dense subset equal to the whole slice.
        assert_eq!(pool.map_subset_mut(&mut items, &[9], |i, _| i), vec![9]);
        let all: Vec<usize> = (0..10).collect();
        let got = pool.map_subset_mut(&mut items, &all, |i, x| {
            *x = i as u8;
            i
        });
        assert_eq!(got, all);
        assert_eq!(items, (0..10).map(|i| i as u8).collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn map_subset_mut_rejects_unsorted_indices() {
        let mut items = vec![0u8; 4];
        ParPool::new(2).map_subset_mut(&mut items, &[2, 1], |i, _| i);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn map_subset_mut_rejects_out_of_bounds() {
        let mut items = vec![0u8; 4];
        ParPool::new(2).map_subset_mut(&mut items, &[1, 7], |i, _| i);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = ParPool::new(4);
        let out: Vec<u8> = pool.map_indexed(&[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
        assert!(pool
            .map_subset_mut(&mut [] as &mut [u8], &[], |i, _| i)
            .is_empty());
    }

    #[test]
    fn nested_maps_stay_correct() {
        let pool = ParPool::new(4);
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..4).collect();
        let got = pool.map_indexed(&outer, |_, &x| {
            ParPool::new(4)
                .map_indexed(&inner, |_, &j| x * 10 + j)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = outer
            .iter()
            .map(|&x| (0..4).map(|j| x * 10 + j).sum())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn threads_are_used_when_the_machine_has_them() {
        // With more than one core a width-2 call must put its second chunk
        // on another thread. With one core everything runs inline.
        let parallel = ParPool::available() > 1;
        let caller = thread::current().id();
        let here = || thread::current().id();
        let pool = ParPool::new(2);
        let items = [0u8; 2];

        let ids = pool.map_indexed(&items, |_, _| here());
        assert_eq!(ids[0], caller);
        assert_eq!(ids[1] != caller, parallel, "map_indexed second chunk");

        let mut slots = [0u8; 2];
        let ids = pool.map_subset_mut(&mut slots, &[0, 1], |_, _| here());
        assert_eq!(ids[0], caller);
        assert_eq!(ids[1] != caller, parallel, "map_subset_mut second chunk");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        ParPool::new(4).map_indexed(&items, |i, _| {
            assert!(i != 13, "boom");
            i
        });
    }

    #[test]
    fn env_and_global_configuration() {
        assert!(ParPool::available() >= 1);
        set_threads(3);
        assert_eq!(pool().threads(), 3);
        set_threads(0);
        assert_eq!(pool().threads(), 1, "zero clamps to one");
        set_threads(2);
    }
}
