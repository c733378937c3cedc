//! Benchmarks for the online-refresh and serving hot paths: the parallel
//! restart sweep inside `EaDrlPolicy::warm_up`, cold vs warm-start
//! `AdaptiveEaDrl` refresh latency, and the ring-buffered sliding windows
//! against the `Vec::remove(0)` shifts they replaced.
//!
//! Flags (combinable):
//! - `--quick`   shrink the measurement budget for CI smoke runs;
//! - `--json`    print a machine-readable `refresh_bench` report on stdout;
//! - `--out <p>` also write that JSON document to the file `<p>`;
//! - `--check`   exit non-zero if a warm-start refresh is slower than a
//!   cold refresh, or a ring-buffer slide is slower than the shifted-Vec
//!   equivalent (the perf regression gates wired into CI).
//!
//! The restart-scaling group reports warm-up latency at
//! `EADRL_PAR_THREADS` ∈ {1, 2, 4} and is *not* gated: on a single-core
//! runner all thread counts collapse onto one worker and the honest
//! number is ~1.0x (see `EXPERIMENTS.md` for the multi-core protocol).

use eadrl_bench::harness::{Harness, Summary};
use eadrl_bench::{json_output, print_json_report};
use eadrl_core::{
    AdaptiveEaDrl, Combiner, EaDrlConfig, EaDrlPolicy, RefreshStrategy, RefreshTrigger,
};
use eadrl_obs::json::JsonValue;
use eadrl_timeseries::window::{SlideWindow, StepRing};
use std::hint::black_box;

/// Warm-up stream length (validation steps feeding `warm_up`).
const WARM_STEPS: usize = 120;
/// Online steps used to saturate the refresh buffer.
const ONLINE_STEPS: usize = 80;
/// Pool width of the synthetic prediction matrix.
const MODELS: usize = 5;
/// Refinement episodes of the warm-start strategy under test.
const WARM_EPISODES: usize = 2;

fn bench_config() -> EaDrlConfig {
    EaDrlConfig {
        omega: 6,
        episodes: 8,
        max_iter: 40,
        restarts: 2,
        ..Default::default()
    }
}

/// Deterministic synthetic stream: `MODELS` forecasters of staggered
/// quality around a seasonal level (same family as the core tests).
fn stream(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let actuals: Vec<f64> = (0..n)
        .map(|t| (t as f64 / 6.0).sin() * 3.0 + 10.0)
        .collect();
    let preds = actuals
        .iter()
        .enumerate()
        .map(|(t, &a)| {
            let w = ((t * 7) % 13) as f64 / 13.0 - 0.5;
            (0..MODELS)
                .map(|i| a + 0.1 * (i as f64 + 1.0) * w + 0.4 * i as f64)
                .collect()
        })
        .collect();
    (preds, actuals)
}

/// Offline warm-up latency at several `EADRL_PAR_THREADS` settings, with
/// `restarts = 4` so the sweep has work to fan out.
fn bench_restart_scaling(c: &mut Harness) -> Vec<(usize, Summary)> {
    let (preds, actuals) = stream(WARM_STEPS);
    let mut config = bench_config();
    config.restarts = 4;
    let mut group = c.benchmark_group("warm_up_restarts4");
    for threads in [1usize, 2, 4] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads.to_string());
        group.bench_function(format!("threads{threads}"), |b| {
            b.iter_batched(
                || EaDrlPolicy::new(config.clone()),
                |mut policy| {
                    policy.warm_up(&preds, &actuals);
                    black_box(policy.is_trained())
                },
            );
        });
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);
    let summaries = group.finish();
    [1usize, 2, 4]
        .iter()
        .map(|&t| {
            let s = summaries
                .iter()
                .find(|(name, _)| name == &format!("threads{t}"))
                .map(|(_, s)| *s)
                .unwrap_or(Summary {
                    median_ns: f64::NAN,
                    mean_ns: f64::NAN,
                    min_ns: f64::NAN,
                });
            (t, s)
        })
        .collect()
}

/// An adaptive combiner with a trained policy and a saturated refresh
/// buffer — the state a triggered refresh sees in serving.
fn primed_adaptive(strategy: RefreshStrategy) -> AdaptiveEaDrl {
    let (preds, actuals) = stream(WARM_STEPS + ONLINE_STEPS);
    let (wp, op) = preds.split_at(WARM_STEPS);
    let (wa, oa) = actuals.split_at(WARM_STEPS);
    let mut adaptive = AdaptiveEaDrl::new(bench_config(), RefreshTrigger::Never, ONLINE_STEPS)
        .with_strategy(strategy);
    adaptive.warm_up(wp, wa);
    for (p, &a) in op.iter().zip(oa.iter()) {
        adaptive.observe(p, a);
    }
    adaptive
}

/// Cold vs warm-start refresh latency on the same buffer. Each sample
/// times one `refresh_now` (retrain + deploy) on a persistent combiner —
/// exactly the pause a serving loop takes when a trigger fires.
fn bench_refresh_latency(c: &mut Harness) -> Vec<(String, Summary)> {
    let mut group = c.benchmark_group("refresh_latency");
    let mut cold = primed_adaptive(RefreshStrategy::Cold);
    group.bench_function("cold", |b| {
        b.iter(|| {
            cold.refresh_now();
            black_box(cold.refreshes())
        });
    });
    let mut warm = primed_adaptive(RefreshStrategy::WarmStart {
        episodes: WARM_EPISODES,
    });
    group.bench_function("warm_start", |b| {
        b.iter(|| {
            warm.refresh_now();
            black_box(warm.refreshes())
        });
    });
    group.finish()
}

/// Ring-buffered sliding windows against the shifted-Vec equivalents
/// they replaced, at serving-representative and stress window sizes.
fn bench_window_slide(c: &mut Harness, window: usize, steps: usize) -> Vec<(String, Summary)> {
    let mut group = c.benchmark_group(format!("window_slide_w{window}"));
    group.bench_function("vec_shift", |b| {
        let mut buf: Vec<f64> = (0..window).map(|i| i as f64).collect();
        b.iter(|| {
            for i in 0..steps {
                buf.push(i as f64);
                if buf.len() > window {
                    buf.remove(0);
                }
            }
            black_box(buf[0])
        });
    });
    group.bench_function("ring", |b| {
        let mut ring = SlideWindow::new(window);
        ring.assign(&(0..window).map(|i| i as f64).collect::<Vec<f64>>());
        b.iter(|| {
            for i in 0..steps {
                ring.slide(i as f64);
            }
            black_box(ring[0])
        });
    });
    group.finish()
}

/// `(preds, actual)` history recording: the old `to_vec` + shift against
/// `StepRing::record`'s slot reuse.
fn bench_history_record(c: &mut Harness, window: usize, steps: usize) -> Vec<(String, Summary)> {
    let preds: Vec<f64> = (0..MODELS).map(|i| i as f64).collect();
    let mut group = c.benchmark_group(format!("history_record_w{window}"));
    group.bench_function("vec_shift", |b| {
        let mut buf: Vec<(Vec<f64>, f64)> = Vec::new();
        b.iter(|| {
            for i in 0..steps {
                buf.push((preds.to_vec(), i as f64));
                if buf.len() > window {
                    buf.remove(0);
                }
            }
            black_box(buf.len())
        });
    });
    group.bench_function("ring", |b| {
        let mut ring = StepRing::new(window);
        b.iter(|| {
            for i in 0..steps {
                ring.record(&preds, i as f64);
            }
            black_box(ring.len())
        });
    });
    group.finish()
}

/// `--out <path>` value, when present. Relative paths are resolved
/// against the workspace root (cargo runs bench binaries with the
/// package directory as cwd, which is rarely where the artifact should
/// land).
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
    let check = std::env::args().any(|a| a == "--check");

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

    let scaling = bench_restart_scaling(&mut h);
    let refresh = bench_refresh_latency(&mut h);
    let slide_small = bench_window_slide(&mut h, 16, 512);
    let slide_large = bench_window_slide(&mut h, 256, 512);
    let record = bench_history_record(&mut h, 256, 512);

    let pick = |rows: &[(String, Summary)], id: &str| -> f64 {
        rows.iter()
            .find(|(name, _)| name == id)
            .map_or(f64::NAN, |(_, s)| s.median_ns)
    };

    let mut fields: Vec<(String, JsonValue)> = vec![
        ("warm_steps".to_string(), WARM_STEPS.into()),
        ("online_steps".to_string(), ONLINE_STEPS.into()),
        ("models".to_string(), MODELS.into()),
        ("warm_episodes".to_string(), WARM_EPISODES.into()),
        (
            "cores".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .into(),
        ),
    ];
    let serial = scaling
        .iter()
        .find(|(t, _)| *t == 1)
        .map_or(f64::NAN, |(_, s)| s.median_ns);
    for (threads, s) in &scaling {
        fields.push((
            format!("warm_up_restarts4_threads{threads}_median_ns"),
            s.median_ns.into(),
        ));
        fields.push((
            format!("warm_up_restarts4_threads{threads}_speedup"),
            (serial / s.median_ns).into(),
        ));
    }
    let mut gate_failures: Vec<String> = Vec::new();

    let cold = pick(&refresh, "cold");
    let warm = pick(&refresh, "warm_start");
    let refresh_speedup = cold / warm;
    fields.push(("refresh_cold_median_ns".to_string(), cold.into()));
    fields.push(("refresh_warm_start_median_ns".to_string(), warm.into()));
    fields.push((
        "refresh_speedup_warm_start".to_string(),
        refresh_speedup.into(),
    ));
    // NaN (e.g. a zero-time fluke) must also trip the gate, hence the
    // negated comparison rather than `speedup < 1.0`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(refresh_speedup >= 1.0) {
        gate_failures.push(format!(
            "warm-start refresh slower than cold (speedup {refresh_speedup:.3}x)"
        ));
    }

    for (label, rows) in [
        ("window_slide_w16", &slide_small),
        ("window_slide_w256", &slide_large),
        ("history_record_w256", &record),
    ] {
        let shift = pick(rows, "vec_shift");
        let ring = pick(rows, "ring");
        let speedup = shift / ring;
        fields.push((format!("{label}_vec_shift_median_ns"), shift.into()));
        fields.push((format!("{label}_ring_median_ns"), ring.into()));
        fields.push((format!("{label}_speedup_ring"), speedup.into()));
        // The 16-wide window is reported but not gated: at serving-size
        // windows both paths are tens of nanoseconds and the comparison
        // is noise-bound. The 256-wide groups are where `remove(0)`'s
        // O(n) shift must lose to the ring.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if label != "window_slide_w16" && !(speedup >= 1.0) {
            gate_failures.push(format!(
                "{label}: ring slower than shift (speedup {speedup:.3}x)"
            ));
        }
    }

    let doc = {
        let mut obj: Vec<(String, JsonValue)> =
            vec![("report".to_string(), "refresh_bench".into())];
        obj.extend(fields.iter().cloned());
        JsonValue::Obj(obj).to_json()
    };
    if let Some(path) = out_path() {
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
    if json_output() {
        print_json_report("refresh_bench", fields);
    }

    if check {
        if gate_failures.is_empty() {
            eprintln!(
                "check passed: warm-start refresh at most cold latency; rings at least match shifts"
            );
        } else {
            for failure in &gate_failures {
                eprintln!("check FAILED: {failure}");
            }
            std::process::exit(1);
        }
    }
}
