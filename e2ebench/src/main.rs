//! End-to-end EA-DRL benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <fit|serve_long|adapt> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs generated from `--seed`, checks its
//! outputs, and prints as the last line of standard output one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable report (seed, threads, core count,
//! output digest, percentiles used) goes to standard error and, with the
//! spans of a traced run, to `e2ebench/out/`. See `e2ebench/README.md`.

mod stats;
mod trace;
mod workloads;

use eadrl_obs::json::JsonValue;
use eadrl_obs::ObsConfig;
use stats::{median, summarize};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{run, Ctx, Outcome};

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("rel_rmse", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run; a layer the
/// workload does not run reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("core.fit_pool_ms", "ms"),
    ("core.prediction_matrix_ms", "ms"),
    ("core.warm_up_ms", "ms"),
    ("rl.episodes", "count"),
    ("rl.episode_ms", "ms"),
    ("models.fit_ms.lstm", "ms"),
    ("models.fit_ms.bilstm", "ms"),
    ("models.fit_ms.cnn-lstm", "ms"),
    ("models.fit_ms.conv-lstm", "ms"),
    ("models.fit_ms.gbm", "ms"),
    ("models.fit_ms.rf", "ms"),
    ("models.fit_ms.mlp", "ms"),
    ("models.fit_ms.other", "ms"),
    ("core.predict_next_us.head", "us"),
    ("core.predict_next_us.tail", "us"),
    ("models.predict_us.arima", "us"),
    ("models.predict_us.ets", "us"),
    ("models.predict_us.lstm", "us"),
    ("models.predict_us.bilstm", "us"),
    ("models.predict_us.cnn-lstm", "us"),
    ("models.predict_us.conv-lstm", "us"),
    ("models.predict_us.other", "us"),
    ("core.serve_overhead_us", "us"),
    ("core.guard_sweep_us", "us"),
    ("core.combine_us", "us"),
    ("core.observe_us", "us"),
    ("core.refresh_ms", "ms"),
    ("core.refreshes", "count"),
    ("refresh_ms_p50", "ms"),
    ("obs.events_per_step", "count"),
    ("obs.bytes_per_step", "B"),
    ("guard.faults", "count"),
    ("fail_rate", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.op_self_us", "us"),
];

/// The workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["fit", "serve_long", "adapt"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required: one of {WORKLOADS:?}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}: one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Worker threads the program will use, and the core count. A request
/// for more workers than cores is clamped to the core count, so the load
/// never oversubscribes the machine.
fn threads() -> Result<(usize, usize), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let var = "EADRL_PAR_THREADS";
    match std::env::var(var) {
        Err(std::env::VarError::NotPresent) => Ok((nproc, nproc)),
        Err(e) => Err(format!("{var}: {e}")),
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 && n <= nproc => Ok((n, nproc)),
            Ok(n) if n > nproc => {
                eprintln!("e2ebench: {var}={n} exceeds the {nproc} cores; clamped to {nproc}");
                std::env::set_var(var, nproc.to_string());
                Ok((nproc, nproc))
            }
            _ => Err(format!("{var}={raw:?} is not a positive integer")),
        },
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Cumulative (steal, total) CPU ticks of the machine from `/proc/stat`:
/// time the host ran something else while this guest wanted the CPU.
/// Reported next to the timings, never folded into them.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let (threads, nproc) = threads()?;
    // Program telemetry stays off whatever the environment says; the
    // `adapt` workload turns it on for its serving passes only.
    eadrl_obs::init(&ObsConfig::off());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
    };
    eprintln!(
        "e2ebench: workload={} seed={} seconds={} trace={} threads={threads} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let ticks_before = cpu_ticks();
    let outcome = match args.workload.as_str() {
        "fit" => run(&workloads::fit::Fit, &ctx, args.trace)?,
        "serve_long" => run(&workloads::serve_long::ServeLong, &ctx, args.trace)?,
        _ => run(&workloads::adapt::Adapt, &ctx, args.trace)?,
    };
    let steal_pct = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64,
        _ => f64::NAN,
    };

    let failures = check(&outcome);
    for f in &failures {
        eprintln!("e2ebench: CHECK FAILED: {f}");
    }
    let mut tally = workloads::Tally::default();
    for pass in outcome
        .passes
        .iter()
        .chain(outcome.traced.iter().map(|t| &t.pass))
    {
        tally.add(&pass.tally);
    }
    let first = &outcome.passes[0];
    let latencies: Vec<f64> = outcome
        .passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let lat = summarize(&latencies).ok_or("no operation ran")?;
    // Every pass does the same work, so the median pass throughput
    // shrugs off a pass the host slowed down.
    let per_pass: Vec<f64> = outcome
        .passes
        .iter()
        .map(|p| p.latencies_ms.len() as f64 * 1e3 / p.latencies_ms.iter().sum::<f64>())
        .collect();
    let mut report = vec![
        (
            "workload".to_string(),
            JsonValue::from(args.workload.as_str()),
        ),
        ("seed".into(), JsonValue::from(args.seed)),
        ("threads".into(), JsonValue::from(threads)),
        ("nproc".into(), JsonValue::from(nproc)),
        ("seconds".into(), JsonValue::from(args.seconds)),
        ("trace".into(), JsonValue::from(args.trace)),
        (
            "digest".into(),
            JsonValue::from(first.digest.hex().as_str()),
        ),
        ("passes".into(), JsonValue::from(outcome.passes.len())),
        (
            "ops_per_s_by_pass".into(),
            JsonValue::Arr(per_pass.iter().map(|&v| v.into()).collect()),
        ),
        ("setups".into(), JsonValue::from(outcome.setup_s.len())),
        ("ops".into(), JsonValue::from(lat.count)),
        ("tail_percentile".into(), JsonValue::from(lat.tail_pct)),
        ("steal_pct".into(), JsonValue::from(steal_pct)),
    ];
    eprintln!(
        "e2ebench: digest={} rel_rmse={} passes={} ops={} latency p50={:.4} ms p{}={:.4} ms (n={}) host steal {steal_pct:.1}%",
        first.digest.hex(),
        first.rel_rmse,
        outcome.passes.len(),
        lat.count,
        lat.p50,
        lat.tail_pct,
        lat.tail,
        lat.count,
    );

    let metrics: Vec<(String, f64, &str)> = match &outcome.traced {
        None => {
            let values = [
                median(&outcome.setup_s).unwrap_or(f64::NAN),
                median(&per_pass).unwrap_or(f64::NAN),
                lat.p50,
                lat.tail,
                first.rel_rmse,
                peak_rss_mb()?,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name.to_string(), v, unit))
                .collect()
        }
        Some(traced) => {
            let spans = traced.tracer.spans();
            let ops = traced.pass.latencies_ms.len().max(1) as f64;
            let traced_ms: f64 = traced.pass.latencies_ms.iter().sum();
            let untraced_ms: f64 = first.latencies_ms.iter().sum();
            let self_ns = traced.tracer.self_ns();
            let op_self_ns: u64 = spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.parent.is_none())
                .map(|(_, &ns)| ns)
                .sum();
            let mut layers = traced.layers.clone();
            layers.push((
                "refresh_ms_p50".into(),
                median(&first.refresh_ms).unwrap_or(0.0),
                "ms",
            ));
            layers.push(("guard.faults".into(), tally.guard_faults as f64, "count"));
            layers.push(("fail_rate".into(), tally.fail_rate(), "ratio"));
            layers.push((
                "trace.overhead".into(),
                traced_ms / untraced_ms - 1.0,
                "ratio",
            ));
            layers.push((
                "trace.op_self_us".into(),
                op_self_ns as f64 / ops / 1e3,
                "us",
            ));
            eprintln!(
                "e2ebench: trace overhead {:+.2}% ({traced_ms:.1} ms traced vs {untraced_ms:.1} ms untraced, probes excluded)",
                (traced_ms / untraced_ms - 1.0) * 100.0
            );
            for (path, s) in traced.tracer.by_path() {
                eprintln!(
                    "  span {path:<40} n={:<6} total={:>10.3} ms self={:>10.3} ms",
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6
                );
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = layers
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .map_or(0.0, |&(_, v, _)| v);
                    (name.to_string(), value, unit)
                })
                .collect()
        }
    };

    let correct = failures.is_empty();
    let metrics_json = JsonValue::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                eprintln!("  {name:<30} {value:>16.6} {unit}");
                (
                    name.clone(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(*value)),
                        ("unit".into(), JsonValue::from(*unit)),
                    ]),
                )
            })
            .collect(),
    );
    let result = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::from(tally.attempted)),
        ("failed".into(), JsonValue::from(tally.failed)),
        ("metrics".into(), metrics_json),
    ]);
    report.push((
        "setup_s".into(),
        JsonValue::Arr(outcome.setup_s.iter().map(|&s| s.into()).collect()),
    ));
    report.push((
        "checks_failed".into(),
        JsonValue::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
    ));
    report.push(("result".into(), result.clone()));
    write_report(&args, &outcome, JsonValue::Obj(report));
    println!("{}", result.to_json());
    Ok(correct)
}

/// The output checks: every forecast finite, every pass bit-identical
/// to the first (same digest and `rel_rmse`), the traced pass included.
fn check(outcome: &Outcome) -> Vec<String> {
    let mut failures = Vec::new();
    let first = &outcome.passes[0];
    let traced = outcome.traced.iter().map(|t| (&t.pass, "traced pass"));
    let untraced = outcome.passes.iter().map(|p| (p, "untraced pass"));
    for (i, (pass, kind)) in untraced.chain(traced).enumerate() {
        if pass.tally.non_finite > 0 {
            failures.push(format!(
                "{kind} {i}: {} non-finite forecasts",
                pass.tally.non_finite
            ));
        }
        if pass.digest.hex() != first.digest.hex() {
            failures.push(format!(
                "{kind} {i}: digest {} differs from the first pass's {}",
                pass.digest.hex(),
                first.digest.hex()
            ));
        }
        if pass.rel_rmse.to_bits() != first.rel_rmse.to_bits() {
            failures.push(format!(
                "{kind} {i}: rel_rmse {} differs from the first pass's {}",
                pass.rel_rmse, first.rel_rmse
            ));
        }
    }
    if !(first.rel_rmse.is_finite() && first.rel_rmse > 0.0) {
        failures.push(format!(
            "rel_rmse {} is not a positive number",
            first.rel_rmse
        ));
    }
    failures
}

/// Writes the report and, for a traced run, the spans under `out/`.
/// A write failure is reported but does not fail the run.
fn write_report(args: &Args, outcome: &Outcome, report: JsonValue) {
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), report.to_json() + "\n"))
        .and_then(|()| match &outcome.traced {
            Some(t) => t
                .tracer
                .write_jsonl(&dir.join(format!("{stem}.spans.jsonl"))),
            None => Ok(()),
        });
    match written {
        Ok(()) => eprintln!("e2ebench: report in {}", dir.join(stem).display()),
        Err(e) => eprintln!(
            "e2ebench: cannot write the report to {}: {e}",
            dir.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists above must match `BENCHMARK.json`,
    /// which is what the runs are judged against.
    #[test]
    fn lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = eadrl_obs::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
