//! Data-parallel primitives over the persistent [`workpool`]
//! work-stealing pool.
//!
//! The sanctioned dependency set has no rayon, so the miners parallelize
//! through this module instead. Two layers of API:
//!
//! * [`par_map`] / [`par_map_with`] — level-wise fan-out: map a slice in
//!   parallel, results in input order (the support engines' shape);
//! * [`scope`] + [`Scope::spawn`] + [`OrderedSink`] — **nested** fan-out:
//!   a recursive traversal spawns child subtrees from *inside* running
//!   tasks, so a single dominant subtree (deep skew) no longer serializes
//!   on one worker the way a one-level decomposition forces it to.
//!
//! Both run on one process-global pool of persistent workers
//! (`vendor/workpool`: lazily-spawned threads, per-worker Chase-Lev-style
//! deques plus a shared injector). Worker threads are started on demand
//! and kept — the pool grows to the high-water mark of requested
//! parallelism and is partitioned per call by an admission cap, instead
//! of re-spawning OS threads per call as the old `std::thread::scope`
//! fan-out did.
//!
//! ## Determinism
//!
//! Everything observable is bit-for-bit identical whatever `UFIM_THREADS`
//! says — a pool of 1 and a pool of 64 produce the same floating-point
//! records and the same statistics. The argument has three legs:
//!
//! 1. **Ordered maps.** [`par_map`] workers claim fixed-size chunks (at
//!    most [`PAR_CHUNK`] items) from an atomic queue and results are
//!    reassembled in **input order**; chunk boundaries are a pure
//!    function of the input length, never of the pool, so scheduling
//!    granularity cannot leak into results. Callers that reduce across
//!    blocks of work (the horizontal scan's per-chunk partial sums) make
//!    each block an item with their own fixed block size.
//! 2. **Pure-function decomposition.** Nested spawns are gated by
//!    size/depth cutoffs computed from the *input* (plus the binary "is
//!    this run parallel at all" — every pool size > 1 spawns the same
//!    task tree, and pool size 1 runs everything inline). Every float is
//!    computed within exactly one task either way, and merged counters
//!    are integer sums and maxes, so even the inline/spawned split cannot
//!    change a bit.
//! 3. **Keyed collection.** Tasks push results into an [`OrderedSink`]
//!    under structural keys assigned in spawn order ([`SpawnKey`]), and
//!    the sink merges by key — never by completion order.
//!
//! ## Threading policy
//!
//! Threading is opt-out: `UFIM_THREADS=1` forces sequential execution,
//! any other value caps the per-call thread budget, and the default is
//! [`std::thread::available_parallelism`]. Tests and benches that need a
//! specific budget without touching the (process-global, racy) `env` use
//! the scoped [`with_thread_override`]. The budget is captured **once per
//! call** (at [`scope`]/[`par_map`] entry, on the calling thread) into the
//! scope's admission cap; tasks consult [`Scope::threads`] — never the
//! worker thread's own environment — so cutoff decisions inside tasks
//! agree with the owner's. Overriding can therefore never change *what*
//! is computed, only how many workers participate; the persistent pool
//! grows to serve the largest budget ever requested and never shrinks.
//!
//! Callers are expected to gate small inputs themselves (see
//! [`par_map_min_len_with`] and the miners' spawn cutoffs) — fanning out a
//! four-transaction database costs more than it saves.
//!
//! ## Per-worker state
//!
//! [`par_map_with`] threads a mutable per-worker state value through every
//! item a worker claims — the seam for reusable scratch buffers
//! ([`crate::vertical::ScratchSpace`]): each worker allocates its buffers
//! once and every intersection after the high-water mark is
//! allocation-free. The state must never influence results (it is scratch,
//! not an accumulator); the determinism contract above still holds because
//! outputs remain a pure function of the item.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use workpool::Scope;

/// Default work-size gate for [`par_map_min_len_with`] callers: below this many
/// units of work, fanning out costs more than it saves. Shared by the
/// support engines so all backends fan out at the same scale.
pub const DEFAULT_MIN_WORK: usize = 1 << 15;

/// Upper bound on items per scheduling chunk. The effective chunk size
/// shrinks (down to 1) when there are fewer than `PAR_CHUNK × threads`
/// items, so a handful of heavy items — e.g. the horizontal scan's
/// 4096-transaction blocks — still fans out across the whole pool. Chunk
/// granularity affects scheduling only, never results (see the module
/// docs). Small enough to load-balance skewed per-item costs; large
/// enough that the one atomic claim per chunk is noise.
pub const PAR_CHUNK: usize = 8;

thread_local! {
    /// Scoped override installed by [`with_thread_override`]; consulted
    /// before the environment so tests can pin pool sizes without the
    /// process-global races of `std::env::set_var`.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Per-call thread budget: a [`with_thread_override`] scope when active,
/// else the `UFIM_THREADS` environment variable when set to a positive
/// integer, else the machine's available parallelism. Captured once at
/// every [`scope`]/[`par_map`] entry on the calling thread.
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.get() {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("UFIM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` with [`max_threads`] pinned to `threads` **on the calling
/// thread** (every [`scope`] or [`par_map`] entered from inside `f`
/// captures the pinned budget). Scoped and panic-safe: the previous
/// override is restored when `f` returns or unwinds, and other threads —
/// including concurrently running tests — are unaffected.
///
/// Interaction with the persistent pool: the override does **not** spawn
/// or kill workers by itself. It sets the admission cap of scopes created
/// under it; the pool then grows (lazily, monotonically) to serve the
/// largest cap ever requested and is partitioned between concurrent
/// scopes by those caps. This is how the cross-thread-count determinism
/// suites sweep pool sizes; results must be bit-identical for every
/// pinned value, so overriding can never change what `f` computes.
pub fn with_thread_override<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.replace(Some(threads.max(1))));
    f()
}

/// Opens a work-stealing [`Scope`] with the current [`max_threads`]
/// budget as its admission cap and returns once `f` **and every task
/// transitively spawned inside** have completed. With a budget of 1,
/// [`Scope::spawn`] runs tasks inline and execution is genuinely
/// sequential. Panics from tasks are re-thrown here after the scope
/// drains (see `vendor/workpool`).
pub fn scope<'env, R>(f: impl FnOnce(&Scope<'env>) -> R) -> R {
    workpool::scope(max_threads(), f)
}

/// A structural task key assigned in **spawn order**: a child's key is
/// its parent task's key extended by the parent's running spawn ordinal.
/// Because every task's spawn sequence is a pure function of the input
/// (see the module docs), keys are identical across runs and pool sizes,
/// and sorting them lexicographically reproduces the sequential
/// depth-first spawn order — the deterministic merge order for
/// [`OrderedSink`].
pub type SpawnKey = Vec<u32>;

/// Extends `parent` by the next ordinal from `seq` (incrementing it) —
/// the one way task keys are minted, so uniqueness is structural.
pub fn child_key(parent: &[u32], seq: &mut u32) -> SpawnKey {
    let mut key = Vec::with_capacity(parent.len() + 1);
    key.extend_from_slice(parent);
    key.push(*seq);
    *seq += 1;
    key
}

/// A concurrency-safe collector merging per-task results in key order.
///
/// Tasks [`push`](OrderedSink::push) their local result under their
/// [`SpawnKey`]; after the scope drains,
/// [`into_sorted_values`](OrderedSink::into_sorted_values) yields the
/// results sorted by key — i.e. in spawn order, independent of completion
/// order. Keys must be unique (structural minting via [`child_key`]
/// guarantees it).
#[derive(Debug, Default)]
pub struct OrderedSink<R> {
    results: Mutex<Vec<(SpawnKey, R)>>,
}

impl<R> OrderedSink<R> {
    /// An empty sink.
    pub fn new() -> Self {
        OrderedSink {
            results: Mutex::new(Vec::new()),
        }
    }

    /// Records one task's result under its spawn key.
    pub fn push(&self, key: SpawnKey, value: R) {
        self.results.lock().unwrap().push((key, value));
    }

    /// All recorded results, sorted by spawn key.
    pub fn into_sorted_values(self) -> Vec<R> {
        let mut results = self.results.into_inner().unwrap();
        results.sort_by(|a, b| a.0.cmp(&b.0));
        results.into_iter().map(|(_, value)| value).collect()
    }
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Worker loops claim chunks of at most [`PAR_CHUNK`] items from an
/// atomic queue (see the module docs on determinism). With one item, one
/// thread, or an empty slice the map runs inline on the caller's thread —
/// producing, like every other pool size, exactly the sequential result.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, max_threads(), f)
}

/// [`par_map`] with a mutable **per-worker state** threaded through every
/// item a worker claims — the scratch-buffer seam (see the module docs).
/// `init` runs once per worker loop (once total when sequential); `f`
/// receives the worker's state and the item. The state must not influence
/// results: outputs stay a pure function of the item, so the determinism
/// contract is unchanged.
pub fn par_map_with<S, T, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    par_map_with_threads(items, max_threads(), init, f)
}

/// [`par_map`] with an explicit thread cap — the testable core. Results
/// must not depend on `threads`; the determinism tests pin this.
fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with_threads(items, threads, || (), |(), item| f(item))
}

/// [`par_map_with`] with an explicit thread cap — the shared engine under
/// both map flavors. `threads − 1` worker loops are spawned as pool tasks
/// and the calling thread runs one more, so at most `threads` states are
/// ever built, exactly as when each call spawned its own OS threads.
fn par_map_with_threads<S, T, R, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    // Shrink the chunk when items are few so every thread gets work: a
    // 5-item map over heavy items must not collapse onto one thread. The
    // chunk size affects scheduling only — per-item outputs reassembled in
    // input order are identical whatever the granularity.
    let chunk_size = PAR_CHUNK.min(items.len().div_ceil(threads)).max(1);
    let num_chunks = items.len().div_ceil(chunk_size);
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(num_chunks));
    let run_loop = |collected: &Mutex<Vec<(usize, Vec<R>)>>| {
        let mut state = init();
        let mut got: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            let start = chunk * chunk_size;
            if start >= items.len() {
                break;
            }
            let end = (start + chunk_size).min(items.len());
            got.push((
                chunk,
                items[start..end]
                    .iter()
                    .map(|item| f(&mut state, item))
                    .collect(),
            ));
        }
        collected.lock().unwrap().extend(got);
    };
    workpool::scope(threads, |s| {
        for _ in 0..threads - 1 {
            s.spawn(|_| run_loop(&collected));
        }
        run_loop(&collected);
    });
    // Reassemble in input order: chunk index → slot.
    let mut slots: Vec<Option<Vec<R>>> = (0..num_chunks).map(|_| None).collect();
    for (chunk, results) in collected.into_inner().unwrap() {
        slots[chunk] = Some(results);
    }
    let mut out = Vec::with_capacity(items.len());
    for s in slots {
        out.extend(s.expect("every chunk claimed exactly once"));
    }
    out
}

/// [`par_map_with`] gated on input size: runs sequentially unless
/// `items.len() * weight` reaches `min_work`. `weight` lets callers fold
/// per-item cost (e.g. transactions per candidate) into the threshold. The
/// sequential path still builds one state and threads it through every
/// item, so scratch reuse works at every scale.
pub fn par_map_min_len_with<S, T, R, I, F>(
    items: &[T],
    weight: usize,
    min_work: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if items.len().saturating_mul(weight.max(1)) < min_work {
        let mut state = init();
        items.iter().map(|item| f(&mut state, item)).collect()
    } else {
        par_map_with(items, init, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map(&[] as &[u32], |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn min_len_gate_runs_sequentially_but_identically() {
        let items: Vec<u32> = (0..100).collect();
        // The sequential path threads one state through every item.
        let seq = par_map_min_len_with(
            &items,
            1,
            usize::MAX,
            || 0u32,
            |calls, &x| {
                *calls += 1;
                (x + 1, *calls)
            },
        );
        let par = par_map(&items, |&x| x + 1);
        assert_eq!(seq.iter().map(|&(y, _)| y).collect::<Vec<_>>(), par);
        assert_eq!(seq.last().map(|&(_, calls)| calls), Some(100));
    }

    #[test]
    fn threads_env_is_respected() {
        // max_threads is ≥ 1 whatever the environment says.
        assert!(max_threads() >= 1);
    }

    /// The determinism contract: a floating-point reduction over the
    /// ordered results is bit-identical for every pool size, including
    /// awkward ones that don't divide the chunk count.
    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let items: Vec<f64> = (0..1000).map(|i| 0.1 + (i % 97) as f64 / 96.0).collect();
        let f = |&x: &f64| x * 1.000000001 + x * x;
        let reference: Vec<f64> = items.iter().map(f).collect();
        let ref_sum: f64 = reference.iter().sum();
        for threads in [1usize, 2, 3, 4, 7, 16, 64] {
            let out = par_map_threads(&items, threads, f);
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
            let sum: f64 = out.iter().sum();
            assert_eq!(sum.to_bits(), ref_sum.to_bits(), "threads={threads}");
        }
    }

    /// Per-worker state is created once per worker loop and threaded
    /// through all its items, and results stay order-preserving whatever
    /// the state does internally.
    #[test]
    fn stateful_map_reuses_worker_state() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..5_000).collect();
        let inits = AtomicUsize::new(0);
        for threads in [1usize, 3, 8] {
            inits.store(0, Ordering::Relaxed);
            let out = par_map_with_threads(
                &items,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new() // a scratch buffer
                },
                |scratch, &x| {
                    scratch.clear();
                    scratch.extend([x, x + 1]);
                    scratch.iter().sum::<u64>()
                },
            );
            assert!(inits.load(Ordering::Relaxed) <= threads);
            assert!(inits.load(Ordering::Relaxed) >= 1);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, 2 * i as u64 + 1, "threads={threads}");
            }
        }
        // The gated variant builds exactly one state when sequential.
        inits.store(0, Ordering::Relaxed);
        let _ = par_map_min_len_with(
            &items,
            1,
            usize::MAX,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, &x| x,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    /// `with_thread_override` pins `max_threads` on the calling thread,
    /// nests, and restores on exit and unwind.
    #[test]
    fn thread_override_is_scoped() {
        let outside = max_threads();
        let seen = with_thread_override(3, || {
            assert_eq!(max_threads(), 3);
            with_thread_override(7, max_threads)
        });
        assert_eq!(seen, 7);
        assert_eq!(max_threads(), outside);
        // 0 is clamped to 1 (a pool always has one worker: the caller).
        assert_eq!(with_thread_override(0, max_threads), 1);
        // Restored even when the closure panics.
        let _ = std::panic::catch_unwind(|| with_thread_override(5, || panic!("boom")));
        assert_eq!(max_threads(), outside);
    }

    /// Every chunk is claimed exactly once even when the item count is not
    /// a multiple of the chunk size.
    #[test]
    fn ragged_tail_is_covered() {
        for n in [
            0usize,
            1,
            PAR_CHUNK - 1,
            PAR_CHUNK,
            PAR_CHUNK + 1,
            5 * PAR_CHUNK + 3,
        ] {
            let items: Vec<usize> = (0..n).collect();
            let out = par_map_threads(&items, 3, |&x| x);
            assert_eq!(out, items, "n={n}");
        }
    }

    /// The override flows into [`scope`]'s admission cap: tasks observe
    /// the budget through [`Scope::threads`], and a budget of 1 runs
    /// spawns inline on the calling thread.
    #[test]
    fn override_reaches_scope_budget() {
        with_thread_override(5, || {
            scope(|s| {
                assert_eq!(s.threads(), 5);
                s.spawn(|s| assert_eq!(s.threads(), 5));
            });
        });
        let caller = std::thread::current().id();
        with_thread_override(1, || {
            scope(|s| {
                s.spawn(move |_| assert_eq!(std::thread::current().id(), caller));
            });
        });
    }

    /// Nested spawns (depth ≥ 4) with spawn-order keys: the sink's merged
    /// output is identical for every pool size, whatever the completion
    /// order was.
    #[test]
    fn ordered_sink_merges_in_spawn_order_across_pool_sizes() {
        fn grow<'env>(
            s: &Scope<'env>,
            sink: &'env OrderedSink<u64>,
            key: &[u32],
            depth: u32,
            value: u64,
        ) {
            let mut seq = 0;
            if depth < 4 {
                for child in 0..3u64 {
                    let child_value = value * 10 + child;
                    let child_key = child_key(key, &mut seq);
                    s.spawn(move |s| {
                        grow(s, sink, &child_key, depth + 1, child_value);
                        sink.push(child_key.clone(), child_value);
                    });
                }
            }
        }
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 8] {
            let sink = OrderedSink::new();
            with_thread_override(threads, || {
                scope(|s| grow(s, &sink, &[], 0, 1));
            });
            let values = sink.into_sorted_values();
            assert_eq!(values.len(), 3 + 9 + 27 + 81, "threads={threads}");
            match &reference {
                None => reference = Some(values),
                Some(expected) => assert_eq!(&values, expected, "threads={threads}"),
            }
        }
    }

    /// A panic inside a deeply nested task surfaces from [`scope`] on the
    /// owner's thread.
    #[test]
    fn nested_task_panic_propagates_to_scope_owner() {
        let result = std::panic::catch_unwind(|| {
            with_thread_override(4, || {
                scope(|s| {
                    s.spawn(|s| {
                        s.spawn(|s| {
                            s.spawn(|_| panic!("deep failure"));
                        });
                    });
                });
            })
        });
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "deep failure");
    }
}
