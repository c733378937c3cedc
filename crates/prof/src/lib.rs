//! # eadrl-prof — trace-driven profiler for `eadrl-obs` traces
//!
//! Post-hoc analysis of the JSONL traces the workspace's telemetry
//! layer writes: no sampling, no ptrace, no clocks of its own — every
//! number in a report comes from timestamps already in the trace, so
//! analyzing the same trace twice gives byte-identical output.
//!
//! The pipeline:
//!
//! 1. [`trace::Trace`] — tolerant JSONL loading (damaged trailing
//!    lines, ring-overflow markers);
//! 2. [`tree::SpanTree`] — span-tree reconstruction from `/`-joined
//!    span paths, with per-path total time, self time, call counts and
//!    p50/p95/p99;
//! 3. [`flame::folded`] — folded-stack flamegraph export
//!    (`a;b;leaf self_us`, consumable by `flamegraph.pl`/speedscope);
//! 4. [`workers::Utilization`] — per-worker busy time, imbalance
//!    ratio, and item skew from `par.worker` spans;
//! 5. [`diff::DiffReport`] — path-by-path latency comparison with a
//!    ratio threshold and noise floor: the CI regression gate;
//! 6. [`report`] — deterministic text and JSON rendering.
//!
//! The `obs_report` binary wires these into a CLI; see the README's
//! *Profiling* section for the workflow.
//!
//! ## Thread-count independence
//!
//! Worker spans inherit their caller's span path, so the tree *paths*
//! are identical at every `EADRL_PAR_THREADS` setting; only the number
//! of `par.worker` chunk spans varies. [`tree::TreeOptions::shape_stable`]
//! collapses those, making tree shape and counts bitwise-comparable
//! across thread counts — the property the cross-thread golden test
//! and the CI diff gate rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod flame;
pub mod report;
pub mod trace;
pub mod tree;
pub mod workers;

pub use diff::{DiffOptions, DiffReport, PathDelta};
pub use trace::Trace;
pub use tree::{SpanNode, SpanTree, TreeOptions};
pub use workers::{Utilization, WorkerStats};
