//! Telemetry-overhead benchmark: the batched DDPG update workload run
//! under three observability settings —
//!
//! * `off`         — level `None`: every span/event call is a level
//!   check and nothing else (the production default);
//! * `info_coarse` — level `Info`: fit/episode-grained spans only; the
//!   per-update phase spans stay disabled;
//! * `trace_full`  — level `Trace`: full profiling instrumentation
//!   (DDPG phase spans + nn kernel spans), written through a
//!   [`JsonlSink`] backed by `io::sink()` so the cost measured is
//!   event construction + serialization, not disk.
//!
//! The interesting numbers are the ratios: `info_coarse / off` is the
//! cost of leaving coarse telemetry on in production, `trace_full /
//! off` is the price of a full profiling run. Committed as
//! `BENCH_obs.json` and documented in EXPERIMENTS.md.
//!
//! Flags: `--quick` (CI smoke budget), `--json` (stdout report),
//! `--out <path>` (write the JSON document, workspace-root-relative).

use eadrl_bench::harness::{Harness, Summary};
use eadrl_bench::{json_output, print_json_report};
use eadrl_obs::{JsonlSink, Level};
use eadrl_rl::{ActionSquash, DdpgAgent, DdpgConfig, SamplingStrategy, Transition};
use eadrl_rng::DetRng;
use std::hint::black_box;

const STATE_DIM: usize = 10;
const ACTION_DIM: usize = 10;

/// Consecutive updates timed per sample (fresh seeded agent each
/// sample, so every sample does identical deterministic work).
const UPDATES_PER_RUN: usize = 50;

fn seeded_agent() -> DdpgAgent {
    let mut agent = DdpgAgent::new(
        STATE_DIM,
        ACTION_DIM,
        DdpgConfig {
            sampling: SamplingStrategy::Uniform,
            batch_size: 64,
            hidden: vec![32, 32],
            squash: ActionSquash::BoundedSoftmax { scale: 6.0 },
            seed: 42,
            ..Default::default()
        },
    );
    let mut rng = DetRng::seed_from_u64(99);
    for i in 0..256 {
        let state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let next_state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mut action: Vec<f64> = (0..ACTION_DIM)
            .map(|_| rng.random_range(0.0..1.0))
            .collect();
        let sum: f64 = action.iter().sum();
        for a in action.iter_mut() {
            *a /= sum;
        }
        agent.observe(Transition {
            state,
            action,
            reward: rng.random_range(-1.0..1.0),
            next_state,
            done: i % 9 == 0,
        });
    }
    agent
}

/// Benches `UPDATES_PER_RUN` batched updates under one telemetry mode.
/// The level (and, for enabled levels, a null-device JSONL sink) is
/// installed before measuring and reset afterwards.
fn bench_modes(c: &mut Harness) -> Vec<(String, Summary)> {
    let modes: [(&str, Option<Level>); 3] = [
        ("off", None),
        ("info_coarse", Some(Level::Info)),
        ("trace_full", Some(Level::Trace)),
    ];
    let mut group = c.benchmark_group("ddpg_update_batch64_telemetry");
    for (label, level) in modes {
        group.bench_function(label, |b| {
            eadrl_obs::set_sink(std::sync::Arc::new(JsonlSink::new(Box::new(
                std::io::sink(),
            ))));
            eadrl_obs::set_level(level);
            b.iter_batched(seeded_agent, |mut agent| {
                for _ in 0..UPDATES_PER_RUN {
                    agent.update();
                }
                black_box(agent.updates())
            });
            eadrl_obs::set_level(None);
        });
    }
    group.finish()
}

fn out_path() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let raw = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))?;
    let path = std::path::PathBuf::from(raw);
    if path.is_absolute() {
        return Some(path);
    }
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => Some(std::path::Path::new(&dir).join("../..").join(path)),
        Err(_) => Some(path),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut h = if quick {
        Harness::default()
            .measurement_time(std::time::Duration::from_millis(300))
            .warm_up_time(std::time::Duration::from_millis(100))
            .sample_size(10)
    } else {
        Harness::default()
            .measurement_time(std::time::Duration::from_secs(2))
            .warm_up_time(std::time::Duration::from_millis(500))
            .sample_size(20)
    };

    let summaries = bench_modes(&mut h);
    let median_of = |id: &str| -> f64 {
        summaries
            .iter()
            .find(|(name, _)| name == id)
            .map_or(f64::NAN, |(_, s)| s.median_ns)
    };
    let off = median_of("off");
    let info = median_of("info_coarse");
    let trace = median_of("trace_full");
    let per_update = |total: f64| total / UPDATES_PER_RUN as f64;
    let fields: Vec<(String, eadrl_obs::json::JsonValue)> = vec![
        ("batch_size".to_string(), 64usize.into()),
        ("updates_per_run".to_string(), UPDATES_PER_RUN.into()),
        (
            "off_median_ns_per_update".to_string(),
            per_update(off).into(),
        ),
        (
            "info_coarse_median_ns_per_update".to_string(),
            per_update(info).into(),
        ),
        (
            "trace_full_median_ns_per_update".to_string(),
            per_update(trace).into(),
        ),
        ("info_over_off_ratio".to_string(), (info / off).into()),
        ("trace_over_off_ratio".to_string(), (trace / off).into()),
    ];

    let doc = {
        let mut obj: Vec<(String, eadrl_obs::json::JsonValue)> =
            vec![("report".to_string(), "obs_overhead_bench".into())];
        obj.extend(fields.iter().cloned());
        eadrl_obs::json::JsonValue::Obj(obj).to_json()
    };
    if let Some(path) = out_path() {
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
    if json_output() {
        print_json_report("obs_overhead_bench", fields);
    }
}
