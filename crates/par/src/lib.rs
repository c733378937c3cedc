//! # eadrl-par — deterministic std-only thread pool
//!
//! A zero-dependency parallel map whose output is **bitwise identical**
//! to the serial computation at every thread count. The workspace's
//! embarrassingly parallel hot paths — base-model pool fitting, the
//! rolling pool-prediction matrix, the 16-method evaluation loop, the
//! Bayes-sign-test Monte-Carlo chains — all funnel through [`par_map`],
//! so the repo's determinism contract (frozen `eadrl_rng::DetRng`
//! stream, byte-identical quickstart outputs) survives parallelism.
//!
//! ## Determinism model
//!
//! [`par_map`] applies a pure-per-item function to each element of an
//! owned `Vec` and merges results **strictly by input index**. Work is
//! dealt out strided — item `i` goes to worker `i % workers`, and each
//! worker walks its items in ascending order — with a *static*
//! assignment (no work stealing, no shared queue): which item runs on
//! which thread is a function of `(items.len(), workers)` only, never of
//! timing. Striding matters because batches are often sorted by cost:
//! the standard pool lists its statistical families before the
//! recurrent ones, so contiguous chunks would hand one worker nearly
//! all of the pool fit. Because
//! `f` receives ownership of its item and may not share mutable state
//! (the `Fn` + [`Sync`] bounds enforce this), the result for item `i`
//! cannot depend on scheduling — so the merged output equals the serial
//! `items.into_iter().map(f).collect()` bit for bit.
//!
//! Code that draws randomness inside `f` must derive its generator from
//! the item index (`DetRng::substream` — state and
//! index in, stream out), never from a generator threaded *across*
//! items; `crates/core/tests/par_determinism.rs` and this crate's
//! property suite enforce the contract end to end.
//!
//! ## Thread count
//!
//! `EADRL_PAR_THREADS` selects the worker count; unset (or unparsable)
//! falls back to [`std::thread::available_parallelism`]. `1` forces the
//! serial fallback, which runs **the identical code path** (same
//! assignment, same per-item panic containment, same index merge) on the
//! calling thread — there is no separate serial implementation to drift
//! out of sync. [`par_map_with`] pins the count explicitly (used by the
//! differential tests so they need no env mutation).
//!
//! ## Panic containment
//!
//! A panic inside `f` is caught at the owning worker, which stops
//! there, and [`par_map`] returns [`ParError::Panic`] carrying the
//! *originating input index* — the smallest panicking index across
//! workers (each worker ascends, so its first panic is its smallest),
//! so even the error is deterministic. Workers are scoped
//! threads ([`std::thread::scope`]): every worker is joined before
//! `par_map` returns, no thread outlives the call, and the pool is
//! trivially usable for the next call (there is no poisoned state to
//! clear). Items not yet processed when a batch is abandoned are
//! dropped normally (no leaks — asserted by the fault-injection tests).
//!
//! ## Telemetry
//!
//! Each call opens a `par.map` span (debug: `items`, `workers`,
//! `chunk` — the busiest worker's item count, `ceil(items / workers)`);
//! each worker runs its items inside a `par.worker` span (debug:
//! `worker`, `items`, `queue_wait_us` — the spawn-to-start latency),
//! and a contained panic emits `par.panic` (warn: `index`).
//! Counters `par.maps_total` / `par.tasks_total` accumulate in the
//! global registry.
//!
//! Worker telemetry is **deterministically ordered**: every worker runs
//! under an [`eadrl_obs::worker_context`] that (a) stamps its events
//! with `thread = 1 + worker index`, (b) inherits the caller's span
//! path so worker spans nest under `par.map` instead of becoming
//! orphaned roots, and (c) buffers events thread-locally. A worker
//! drains its buffer after every item and tags the batch with the
//! item's input index. After the join, item batches are replayed in
//! input-index order, then the `par.worker` spans in worker order, so
//! the flushed trace is ordered exactly like the serial one, at every
//! thread count. The serial fallback runs the identical context +
//! buffer path inline.

use eadrl_obs::Level;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Environment variable selecting the worker count ("1" = serial).
pub const THREADS_ENV: &str = "EADRL_PAR_THREADS";

/// Failure of a parallel batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// The mapped function panicked on the item at `index` (the
    /// smallest panicking input index — deterministic across thread
    /// counts and interleavings).
    Panic {
        /// Input index of the item whose closure panicked.
        index: usize,
        /// Panic payload, when it was a `&str`/`String` message.
        message: String,
    },
    /// A worker thread terminated without delivering its results and
    /// without a caught panic. Not reachable through the public API
    /// (workers catch all unwinds); kept so the merge step can report
    /// the condition instead of panicking if an internal invariant is
    /// ever broken.
    WorkerLost {
        /// Input index of the first item with no result.
        index: usize,
    },
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Panic { index, message } => {
                write!(
                    f,
                    "parallel task panicked at input index {index}: {message}"
                )
            }
            ParError::WorkerLost { index } => {
                write!(f, "worker delivered no result for input index {index}")
            }
        }
    }
}

impl std::error::Error for ParError {}

/// Resolves the worker count: `EADRL_PAR_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (and 1 if even that is unavailable).
#[must_use]
pub fn thread_count() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eadrl_obs::warn("par.threads.invalid", &[("raw", raw.as_str().into())]);
                default_threads()
            }
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parallel map with deterministic, serial-identical output: applies
/// `f` to every item and returns the results in input order. Worker
/// count comes from [`thread_count`].
///
/// # Errors
/// [`ParError::Panic`] when `f` panics on some item (smallest such
/// input index).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count (bypasses the
/// environment). `threads == 1` runs the identical code path serially
/// on the calling thread.
///
/// # Errors
/// [`ParError::Panic`] when `f` panics on some item.
pub fn par_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_indexed_with(threads, items, |_, item| f(item))
}

/// Index-aware parallel map: `f` receives `(input_index, item)`. This
/// is the right entry point for stochastic tasks — derive the task's
/// RNG from the index (`eadrl_rng::DetRng::substream`) and the draw
/// stream is independent of the thread count.
///
/// # Errors
/// [`ParError::Panic`] when `f` panics on some item.
pub fn par_map_indexed<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_indexed_with(thread_count(), items, f)
}

/// [`par_map_indexed`] with an explicit worker count.
///
/// # Errors
/// [`ParError::Panic`] when `f` panics on some item.
pub fn par_map_indexed_with<T, R, F>(
    threads: usize,
    items: Vec<T>,
    f: F,
) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    let mut span = eadrl_obs::span_at(Level::Debug, "par.map");
    span.record("items", n.into());
    span.record("workers", workers.into());
    span.record("chunk", n.div_ceil(workers.max(1)).into());
    eadrl_obs::counter("par.maps_total").inc();
    eadrl_obs::counter("par.tasks_total").add(n as u64);
    if n == 0 {
        return Ok(Vec::new());
    }
    // Captured once, before any worker runs: the span path workers
    // inherit (so their spans nest here identically at every thread
    // count) and whether their telemetry should be buffered at all.
    let parent_path = eadrl_obs::current_span_path();
    let buffer = eadrl_obs::level().is_some();

    // Static strided assignment: worker w owns items w, w + workers,
    // w + 2·workers, … in ascending order. It depends only on
    // (n, workers), never on timing, and spreads a batch whose cost
    // rises with the index (the pool lists its cheap statistical
    // families before the recurrent ones) over every worker.
    let mut shares: Vec<Vec<(usize, T)>> = (0..workers)
        .map(|w| Vec::with_capacity((n - w).div_ceil(workers)))
        .collect();
    for (index, item) in items.into_iter().enumerate() {
        shares[index % workers].push((index, item));
    }

    let outcomes: Vec<WorkerOutcome<R>> = if workers == 1 {
        // Serial fallback: the identical per-worker code path (context,
        // buffering, span, containment), run inline — no spawn.
        shares
            .into_iter()
            .enumerate()
            .map(|(w, share)| run_worker(w, share, &f, None, parent_path.as_deref(), buffer))
            .collect()
    } else {
        // Debug-gated so the clock is never read when telemetry is off
        // (which also keeps this crate runnable under Miri isolation).
        // eadrl-lint: allow(determinism): queue-wait telemetry only — the timestamp never reaches a result
        let spawned_at = eadrl_obs::enabled(Level::Debug).then(std::time::Instant::now);
        std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .into_iter()
                .enumerate()
                .map(|(w, share)| {
                    let f = &f;
                    let parent = parent_path.as_deref();
                    scope.spawn(move || run_worker(w, share, f, spawned_at, parent, buffer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| WorkerOutcome::default()))
                .collect()
        })
    };

    // Merge strictly by input index. Slots make the invariant explicit
    // and turn any violation into a typed error rather than wrong
    // output. Telemetry replays the same way: every item's events in
    // input-index order, then the `par.worker` spans in worker order —
    // so the trace reads like the serial one at every thread count.
    let mut first_panic: Option<(usize, String)> = None;
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut item_events: Vec<Vec<eadrl_obs::Event>> = (0..n).map(|_| Vec::new()).collect();
    let mut worker_events = Vec::with_capacity(workers);
    for outcome in outcomes {
        if let Some((index, message)) = outcome.panic {
            let sooner = first_panic.as_ref().is_none_or(|(i, _)| index < *i);
            if sooner {
                first_panic = Some((index, message));
            }
        }
        for (index, value) in outcome.results {
            slots[index] = Some(value);
        }
        for (index, events) in outcome.item_events {
            item_events[index] = events;
        }
        worker_events.push(outcome.worker_events);
    }
    for events in item_events.into_iter().chain(worker_events) {
        eadrl_obs::emit_batch(events);
    }
    if let Some((index, message)) = first_panic {
        eadrl_obs::warn("par.panic", &[("index", index.into())]);
        return Err(ParError::Panic { index, message });
    }
    let mut out = Vec::with_capacity(n);
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(value) => out.push(value),
            None => return Err(ParError::WorkerLost { index }),
        }
    }
    Ok(out)
}

/// What one worker hands back: results for the items it ran, the
/// panic that stopped it, if any, and its buffered telemetry (empty
/// when telemetry is off).
struct WorkerOutcome<R> {
    results: Vec<(usize, R)>,
    panic: Option<(usize, String)>,
    /// Events each item emitted, tagged with its input index (the
    /// panicking item's included: the trace up to the failure is kept).
    item_events: Vec<(usize, Vec<eadrl_obs::Event>)>,
    /// The worker's own `par.worker` span, emitted after its items.
    worker_events: Vec<eadrl_obs::Event>,
}

impl<R> Default for WorkerOutcome<R> {
    fn default() -> Self {
        WorkerOutcome {
            results: Vec::new(),
            panic: None,
            item_events: Vec::new(),
            worker_events: Vec::new(),
        }
    }
}

/// Runs one worker's share, ascending by input index, inside an
/// [`eadrl_obs::worker_context`] and a `par.worker` span. The buffer is
/// drained after every item so the merge can replay item telemetry in
/// input-index order. The first panicking item stops the worker; since
/// the share ascends, it is also the worker's smallest panicking index.
fn run_worker<T, R, F>(
    worker: usize,
    share: Vec<(usize, T)>,
    f: &F,
    spawned_at: Option<std::time::Instant>,
    parent_path: Option<&str>,
    buffer: bool,
) -> WorkerOutcome<R>
where
    F: Fn(usize, T) -> R,
{
    let mut ctx = eadrl_obs::worker_context(worker as u64 + 1, parent_path, buffer);
    let mut out = WorkerOutcome {
        results: Vec::with_capacity(share.len()),
        ..WorkerOutcome::default()
    };
    {
        let mut span = eadrl_obs::span_at(Level::Debug, "par.worker");
        span.record("worker", worker.into());
        span.record("items", share.len().into());
        if span.is_recording() {
            let queue_wait_us = spawned_at.map_or(0, |t| t.elapsed().as_micros() as u64);
            span.record("queue_wait_us", queue_wait_us.into());
        }
        for (index, item) in share {
            let result = catch_unwind(AssertUnwindSafe(|| f(index, item)));
            let events = ctx.take_buffered();
            if !events.is_empty() {
                out.item_events.push((index, events));
            }
            match result {
                Ok(value) => out.results.push((index, value)),
                Err(payload) => {
                    // Abandon the rest of the share: its items drop with
                    // the iterator, the completed results are still
                    // reported so the merge sees a consistent map.
                    out.panic = Some((index, panic_message(payload.as_ref())));
                    break;
                }
            }
        }
    }
    out.worker_events = ctx.take_buffered();
    out
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 200] {
            let got = par_map_with(threads, items.clone(), |x| x * x + 1).expect("no panics");
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u64> = par_map_with(4, Vec::<u64>::new(), |x| x).expect("no panics");
        assert!(got.is_empty());
    }

    #[test]
    fn single_item_runs_serially() {
        let got = par_map_with(8, vec![41u64], |x| x + 1).expect("no panics");
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn indexed_variant_sees_input_indices() {
        let got = par_map_indexed_with(3, vec!["a", "b", "c", "d"], |i, s| format!("{i}{s}"))
            .expect("no panics");
        assert_eq!(got, vec!["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn panic_is_contained_with_smallest_index() {
        // Two panicking items on different workers: index 2 must win
        // regardless of which worker finishes first.
        for threads in [1, 2, 4] {
            let err = par_map_with(threads, (0..16u64).collect(), |x| {
                assert!(x != 2 && x != 11, "boom at {x}");
                x
            })
            .expect_err("must fail");
            assert_eq!(
                err,
                ParError::Panic {
                    index: 2,
                    message: "boom at 2".to_string()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_worker_stops_at_its_first_panic() {
        // At 4 workers, items 3 and 7 share worker 3: it stops at 3, so
        // 7 never runs, while every other worker finishes its items.
        let ran: Vec<std::sync::atomic::AtomicBool> = (0..12).map(|_| Default::default()).collect();
        let err = par_map_indexed_with(4, (0..12u64).collect(), |i, x| {
            ran[i].store(true, std::sync::atomic::Ordering::SeqCst);
            assert!(i != 3 && i != 7, "boom at {i}");
            x
        })
        .expect_err("must fail");
        assert!(matches!(err, ParError::Panic { index: 3, .. }), "{err:?}");
        let ran: Vec<bool> = ran
            .iter()
            .map(|r| r.load(std::sync::atomic::Ordering::SeqCst))
            .collect();
        let expect: Vec<bool> = (0..12).map(|i| i != 7 && i != 11).collect();
        assert_eq!(ran, expect);
    }

    #[test]
    fn pool_is_usable_after_a_panic() {
        let _ = par_map_with(4, vec![1u64], |_| -> u64 { panic!("once") });
        let got = par_map_with(4, vec![1u64, 2, 3], |x| x * 10).expect("pool must stay usable");
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }
}
