//! Deterministic data-parallel execution.
//!
//! Every thread in the workspace is spawned from this module (the
//! `thread-discipline` lint rule enforces it), and the executor here
//! preserves a single invariant: **outputs are a pure function of inputs
//! and seed, never of worker count or interleaving.** It lives in the
//! lowest crate that runs parallel work, so the dataset render and every
//! crate above it share one executor. The techniques:
//!
//! - **Input-ordered results.** [`par_map_indexed`] collects each
//!   shard's results in item order and concatenates the shards in shard
//!   order, so the returned `Vec` is in input order no matter which
//!   worker finished first. Callers fold reductions over that `Vec`
//!   serially, which keeps non-associative `f64` accumulation in the
//!   exact serial order.
//! - **Contiguous sharding.** Items are split into `workers` contiguous
//!   shards ([`shard_len`]); the split is a function of `(n, workers)`
//!   only, so a given `--workers N` always produces the same schedule.
//!   The calling thread runs shard 0 itself, so `workers` workers cost
//!   `workers - 1` spawned threads.
//!
//! Worker counts come from configuration ([`resolve_workers`]); `0`
//! means "auto" — available parallelism capped at [`MAX_WORKERS`]. The
//! machine's core count may vary, but because of the invariants above it
//! can only change *how fast* an answer arrives, never the answer.
//! Telemetry-aware mapping (tape-and-replay) and seed streams build on
//! this executor in `kodan::par`.

/// Cap applied to auto-detected worker counts. Space-grade compute
/// targets modeled by `kodan-hw` top out well below this, and a bound
/// keeps per-worker shards large enough to amortize spawn cost.
pub const MAX_WORKERS: usize = 8;

/// Hard ceiling on explicitly configured worker counts.
const MAX_CONFIGURED_WORKERS: usize = 64;

/// Worker count auto-detected from the host, clamped to
/// `1..=`[`MAX_WORKERS`]. Used only when configuration says `0` (auto);
/// the result never influences computed outputs, only wall-clock time.
fn auto_workers() -> usize {
    // A capability probe, not a thread spawn; par.rs is the sanctioned
    // home for std::thread anyway (thread-discipline carve-out).
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_WORKERS)
}

/// Resolves a configured worker count: `0` means auto-detect, anything
/// else is clamped to `1..=64`.
pub fn resolve_workers(configured: usize) -> usize {
    if configured == 0 {
        auto_workers()
    } else {
        configured.min(MAX_CONFIGURED_WORKERS)
    }
}

/// Length of shard `index` when `n` items are split into `workers`
/// contiguous shards: the first `n % workers` shards get one extra item.
/// This is the exact schedule [`par_map_indexed`] executes, exposed so
/// benchmarks can compute the critical path of the deterministic
/// schedule.
pub fn shard_len(n: usize, workers: usize, index: usize) -> usize {
    debug_assert!(workers > 0 && index < workers);
    // Total even on a (never produced) zero worker count: behave as one
    // serial shard rather than dividing by zero.
    let workers = workers.max(1);
    let base = n / workers;
    let extra = n.checked_rem(workers).unwrap_or(0);
    if index < extra {
        base + 1
    } else {
        base
    }
}

/// Maps `f` over `items` on `workers` workers, returning results in
/// input order. `f` receives the item's index and the item; shards
/// concatenate in shard order, so the output is identical to
/// `items.iter().enumerate().map(...)` regardless of scheduling.
///
/// The calling thread is worker 0: it runs the first shard itself while
/// `workers - 1` spawned threads run the rest. Panics in `f`, on any
/// worker, are propagated to the caller after all workers join.
pub fn par_map_indexed<I, T, F>(workers: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let workers = workers.min(n);
    // Each shard fills its own output Vec; concatenating in shard order
    // reproduces input order without index-keyed Option slots (and
    // without the unfillable-slot panic path they would imply).
    let mut shard_outputs: Vec<Vec<T>> = Vec::with_capacity(workers);
    shard_outputs.resize_with(workers, Vec::new);

    let result = crossbeam::scope(|scope| {
        let f = &f;
        let mut rest = items;
        let mut start = 0usize;
        let mut caller_shard = None;
        for (w, out) in shard_outputs.iter_mut().enumerate() {
            let len = shard_len(n, workers, w).min(rest.len());
            let (shard_items, tail) = rest.split_at(len);
            rest = tail;
            let shard_start = start;
            start += len;
            let mut shard = move || {
                *out = shard_items
                    .iter()
                    .enumerate()
                    .map(|(offset, item)| f(shard_start + offset, item))
                    .collect();
            };
            if w == 0 {
                caller_shard = Some(shard);
            } else {
                scope.spawn(move |_| shard());
            }
        }
        // Worker 0 starts once the others are spawned. If it panics, the
        // scope still joins every spawned thread before unwinding.
        if let Some(mut shard) = caller_shard {
            shard();
        }
    });
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }

    shard_outputs.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_all_items_exactly_once() {
        for n in 0..40 {
            for workers in 1..=9 {
                let total: usize = (0..workers).map(|w| shard_len(n, workers, w)).sum();
                assert_eq!(total, n, "n={n} workers={workers}");
                // First shards are the long ones; lengths differ by at most 1.
                let lens: Vec<usize> = (0..workers).map(|w| shard_len(n, workers, w)).collect();
                for pair in lens.windows(2) {
                    assert!(pair[0] >= pair[1]);
                    assert!(pair[0] - pair[1] <= 1);
                }
            }
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..23).collect();
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 3 + i as u64).collect();
        for workers in [1, 2, 3, 4, 8, 40] {
            let parallel = par_map_indexed(workers, &items, |i, x| x * 3 + i as u64);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn the_caller_runs_the_first_shard() {
        let items: Vec<u32> = (0..6).collect();
        let caller = std::thread::current().id();
        let ran_on = par_map_indexed(3, &items, |_, _| std::thread::current().id());
        // Shards of 2: items 0 and 1 are the caller's, the rest are not.
        assert_eq!(ran_on[..2], [caller, caller]);
        assert!(ran_on[2..].iter().all(|id| *id != caller));
    }

    #[test]
    fn a_panic_in_any_shard_reaches_the_caller() {
        let items: Vec<u32> = (0..8).collect();
        // Item 0 sits in the caller's shard, item 7 in the last spawned one.
        for bad in [0u32, 7] {
            let outcome = std::panic::catch_unwind(|| {
                par_map_indexed(4, &items, |_, x| {
                    assert!(*x != bad, "item {bad} fails");
                    *x
                })
            });
            assert!(outcome.is_err(), "the panic on item {bad} was lost");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed(4, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map_indexed(4, &[9u32], |_, x| x + 1), vec![10]);
    }

    #[test]
    fn resolve_workers_clamps() {
        assert!(resolve_workers(0) >= 1);
        assert!(resolve_workers(0) <= MAX_WORKERS);
        assert_eq!(resolve_workers(3), 3);
        assert_eq!(resolve_workers(1000), MAX_CONFIGURED_WORKERS);
    }
}
