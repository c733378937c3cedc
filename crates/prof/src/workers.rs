//! Worker-utilization analysis over `par.worker` spans.
//!
//! `eadrl-par` records one `par.worker` span per worker and batch (a
//! "chunk") with the worker index, item count, and queue wait.
//! Aggregating them per worker answers the two questions that matter
//! for the thread pool: **is the work balanced** (imbalance ratio:
//! slowest worker's busy time over the mean) and **is the assignment
//! fair** (item skew: most-loaded worker's items over the mean). A
//! ratio well above 1.0 means one worker is carrying the map. Only
//! spans whose leaf segment is `par.worker` count: spans nested under
//! a worker (a `ddpg.episode` inside a restart) are work, not chunks.

use crate::trace::Trace;
use eadrl_obs::{EventKind, Value};
use std::collections::BTreeMap;

/// Aggregated load for one worker index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (as recorded in the `worker` field).
    pub worker: u64,
    /// Number of chunks this worker executed.
    pub chunks: u64,
    /// Total items across those chunks.
    pub items: u64,
    /// Summed span durations, µs.
    pub busy_us: u64,
    /// Summed queue wait (spawn → first item), µs.
    pub queue_wait_us: u64,
}

/// The per-worker utilization profile of a trace.
#[derive(Debug, Clone, Default)]
pub struct Utilization {
    /// One entry per worker index seen, ascending.
    pub workers: Vec<WorkerStats>,
}

fn u64_field(event: &eadrl_obs::Event, key: &str) -> u64 {
    match event.get(key) {
        Some(Value::U64(v)) => *v,
        Some(Value::F64(v)) => *v as u64,
        _ => 0,
    }
}

impl Utilization {
    /// Aggregates every `par.worker` span in the trace.
    pub fn analyze(trace: &Trace) -> Utilization {
        let mut by_worker: BTreeMap<u64, WorkerStats> = BTreeMap::new();
        for event in &trace.events {
            let leaf = event.name.rsplit('/').next();
            if event.kind != EventKind::Span || leaf != Some("par.worker") {
                continue;
            }
            let worker = u64_field(event, "worker");
            let stats = by_worker.entry(worker).or_insert(WorkerStats {
                worker,
                chunks: 0,
                items: 0,
                busy_us: 0,
                queue_wait_us: 0,
            });
            stats.chunks += 1;
            stats.items += u64_field(event, "items");
            stats.busy_us += u64_field(event, "duration_us");
            stats.queue_wait_us += u64_field(event, "queue_wait_us");
        }
        Utilization {
            workers: by_worker.into_values().collect(),
        }
    }

    /// Total busy time across all workers, µs.
    pub fn total_busy_us(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_us).sum()
    }

    /// Total items processed across all workers.
    pub fn total_items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Slowest worker's busy time over the mean; 1.0 is perfect
    /// balance, 0.0 means no workers (or an all-idle trace).
    pub fn imbalance_ratio(&self) -> f64 {
        ratio_max_over_mean(self.workers.iter().map(|w| w.busy_us))
    }

    /// Most-loaded worker's item count over the mean item count.
    pub fn item_skew(&self) -> f64 {
        ratio_max_over_mean(self.workers.iter().map(|w| w.items))
    }
}

fn ratio_max_over_mean(values: impl Iterator<Item = u64> + Clone) -> f64 {
    let n = values.clone().count();
    if n == 0 {
        return 0.0;
    }
    let sum: u64 = values.clone().sum();
    if sum == 0 {
        return 0.0;
    }
    let max = values.max().unwrap_or(0);
    max as f64 * n as f64 / sum as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_obs::{Event, Level};

    fn worker_span(worker: u64, items: u64, busy: u64, wait: u64) -> String {
        Event::new(
            "eadrl.fit/par.map/par.worker",
            EventKind::Span,
            Level::Debug,
        )
        .field("duration_us", busy)
        .field("worker", worker)
        .field("items", items)
        .field("queue_wait_us", wait)
        .to_json_line()
    }

    #[test]
    fn aggregates_per_worker_and_computes_imbalance() {
        let text = [
            worker_span(0, 6, 30, 1),
            worker_span(1, 6, 10, 2),
            worker_span(0, 4, 10, 0),
            // Non-worker spans are ignored.
            Event::new("eadrl.fit", EventKind::Span, Level::Info)
                .field("duration_us", 99u64)
                .to_json_line(),
        ]
        .join("\n");
        let util = Utilization::analyze(&Trace::from_jsonl(&text));
        assert_eq!(util.workers.len(), 2);
        assert_eq!(
            util.workers[0],
            WorkerStats {
                worker: 0,
                chunks: 2,
                items: 10,
                busy_us: 40,
                queue_wait_us: 1
            }
        );
        assert_eq!(util.total_busy_us(), 50);
        assert_eq!(util.total_items(), 16);
        // Busy: 40 vs 10, mean 25 → 1.6. Items: 10 vs 6, mean 8 → 1.25.
        assert!((util.imbalance_ratio() - 1.6).abs() < 1e-12);
        assert!((util.item_skew() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn spans_nested_under_a_worker_are_not_chunks() {
        let text = [
            worker_span(0, 2, 30, 1),
            Event::new(
                "eadrl.fit/par.map/par.worker/ddpg.episode",
                EventKind::Span,
                Level::Info,
            )
            .field("duration_us", 20u64)
            .to_json_line(),
        ]
        .join("\n");
        let util = Utilization::analyze(&Trace::from_jsonl(&text));
        assert_eq!(
            util.workers,
            vec![WorkerStats {
                worker: 0,
                chunks: 1,
                items: 2,
                busy_us: 30,
                queue_wait_us: 1
            }]
        );
    }

    #[test]
    fn empty_trace_is_all_zero_not_a_panic() {
        let util = Utilization::analyze(&Trace::from_jsonl(""));
        assert!(util.workers.is_empty());
        assert_eq!(util.imbalance_ratio(), 0.0);
        assert_eq!(util.item_skew(), 0.0);
    }
}
