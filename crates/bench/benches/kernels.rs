//! Benchmarks for the batched GEMM training path: the cache-blocked
//! linalg kernels, the batched dense forward, the minibatch-as-matrix
//! DDPG update against the per-sample reference
//! (`eadrl_rl::reference::update_per_sample`), and that update at the
//! production EA-DRL shape (`ddpg_update_production`), which is the unit
//! of work behind the end-to-end ledger's warm-up and refresh rows. The
//! report records `isa`, the instruction set the GEMM kernels dispatched
//! to (`kernels::isa()`), next to the timings.
//!
//! Flags (combinable):
//! - `--quick`   shrink the measurement budget for CI smoke runs;
//! - `--json`    print a machine-readable `kernels_bench` report on stdout;
//! - `--out <p>` also write that JSON document to the file `<p>`;
//! - `--check`   exit non-zero if the batched DDPG update is slower than
//!   the per-sample path at any batch size ≥ 32 (the perf regression gate
//!   wired into CI).
//!
//! The DDPG benchmarks fill the replay buffer with synthetic transitions
//! rather than a fitted forecaster pool: the update cost depends only on
//! the state/action dimensions, batch size, and network shape, and this
//! keeps `--quick` runs in seconds. Each DDPG sample times
//! [`UPDATES_PER_RUN`] consecutive updates from a freshly seeded agent
//! (reported per update): the paths are bitwise-identical, so both
//! traverse the same weight trajectory and see the same activation
//! sparsity, making the comparison controlled and every sample
//! deterministic.

use eadrl_bench::harness::{Harness, Summary};
use eadrl_bench::{json_output, print_json_report};
use eadrl_core::EaDrlConfig;
use eadrl_linalg::{kernels, Matrix};
use eadrl_models::STANDARD_POOL_SIZE;
use eadrl_nn::{Activation, Dense, Mlp, Network};
use eadrl_obs::json::JsonValue;
use eadrl_rl::{
    reference, ActionSquash, DdpgAgent, DdpgConfig, SamplingStrategy, Transition, UpdateStats,
};
use eadrl_rng::DetRng;
use std::hint::black_box;

/// Dimensions of the batched-vs-per-sample gate groups: ω = 10 recent
/// ensemble outputs as the state and a 10-wide `BoundedSoftmax` action on
/// the 32×32 hidden stack. The action is narrower than the production
/// pool's so the per-sample reference stays quick; the production shape
/// is [`bench_ddpg_production`]'s.
const STATE_DIM: usize = 10;
const ACTION_DIM: usize = 10;

/// Consecutive updates timed per DDPG benchmark sample (from a fresh
/// seeded agent, so every sample does the identical deterministic work).
const UPDATES_PER_RUN: usize = 100;

fn random_matrix(rng: &mut DetRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    Matrix::from_rows(&data).expect("rectangular rows")
}

/// The unblocked reference GEMM the blocked kernel is measured against
/// (same i-k-j order, no tiling, fresh accumulation).
fn naive_gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            let brow = &b[kk * n..(kk + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

fn bench_gemm(c: &mut Harness) {
    let mut rng = DetRng::seed_from_u64(7);
    let (m, k, n) = (64, 96, 64);
    let a = random_matrix(&mut rng, m, k);
    let b = random_matrix(&mut rng, k, n);
    let mut out = vec![0.0; m * n];
    let mut group = c.benchmark_group("gemm_64x96x64");
    group.bench_function("naive_ikj", |b_| {
        b_.iter(|| {
            naive_gemm(m, k, n, a.data(), b.data(), &mut out);
            black_box(out[0])
        })
    });
    group.bench_function("blocked", |b_| {
        b_.iter(|| {
            kernels::gemm(m, k, n, a.data(), b.data(), &mut out);
            black_box(out[0])
        })
    });
    group.finish();
}

fn bench_dense_forward(c: &mut Harness) -> Vec<(String, Summary)> {
    let mut rng = DetRng::seed_from_u64(11);
    let batch = 64;
    let rows: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..32).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    let input = Matrix::from_rows(&rows).expect("rectangular rows");
    let mut per = Dense::new(&mut rng, 32, 32, Activation::Relu);
    let mut bat = per.clone();
    let mut group = c.benchmark_group("dense_forward_32x32_batch64");
    group.bench_function("per_sample_x64", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in &rows {
                acc += per.forward(row)[0];
            }
            black_box(acc)
        })
    });
    group.bench_function("forward_batch", |b| {
        b.iter(|| {
            let out = bat.forward_batch(&input);
            black_box(out.row(0)[0])
        })
    });
    group.finish()
}

fn bench_mlp_train_step(c: &mut Harness) {
    let mut rng = DetRng::seed_from_u64(13);
    let batch = 64;
    let rows: Vec<Vec<f64>> = (0..batch)
        .map(|_| (0..12).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    let grads: Vec<Vec<f64>> = (0..batch)
        .map(|_| vec![rng.random_range(-1.0..1.0)])
        .collect();
    let input = Matrix::from_rows(&rows).expect("rectangular rows");
    let gout = Matrix::from_rows(&grads).expect("rectangular rows");
    let mut per = Mlp::new(
        &mut rng,
        &[12, 32, 32, 1],
        Activation::Relu,
        Activation::Identity,
    );
    let mut bat = per.clone();
    let mut group = c.benchmark_group("mlp_fwd_bwd_12_32_32_1_batch64");
    group.bench_function("per_sample_x64", |b| {
        b.iter(|| {
            per.zero_grad();
            for (x, g) in rows.iter().zip(grads.iter()) {
                per.forward(x);
                per.backward(g);
            }
            black_box(per.grad_norm())
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            bat.zero_grad();
            bat.forward_batch(&input);
            bat.backward_batch(&gout);
            black_box(bat.grad_norm())
        })
    });
    group.finish();
}

/// The gate groups' agent configuration at one batch size.
fn gate_config(batch_size: usize) -> DdpgConfig {
    DdpgConfig {
        sampling: SamplingStrategy::Uniform,
        batch_size,
        hidden: vec![32, 32],
        squash: ActionSquash::BoundedSoftmax { scale: 6.0 },
        seed: 42,
        ..Default::default()
    }
}

/// A freshly seeded agent with an ω-wide state and an `action_dim`-wide
/// action, its replay buffer holding 256 synthetic transitions (enough
/// for any benched batch size).
fn agent_with(action_dim: usize, config: DdpgConfig) -> DdpgAgent {
    let mut agent = DdpgAgent::new(STATE_DIM, action_dim, config);
    let mut rng = DetRng::seed_from_u64(99);
    for i in 0..256 {
        let state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let next_state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mut action: Vec<f64> = (0..action_dim)
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

/// One DDPG update of an agent: the batched method or the reference.
type UpdateFn = fn(&mut DdpgAgent) -> Option<UpdateStats>;

/// One `ddpg_update_batchN` group per batch size; returns
/// `(batch_size, per_sample_summary, batched_summary)` rows for the
/// report and the `--check` gate.
fn bench_ddpg_update(c: &mut Harness, batch_sizes: &[usize]) -> Vec<(usize, Summary, Summary)> {
    let mut results = Vec::new();
    for &batch_size in batch_sizes {
        let mut group = c.benchmark_group(format!("ddpg_update_batch{batch_size}"));
        let paths: [(&str, UpdateFn); 2] = [
            ("per_sample", reference::update_per_sample),
            ("batched", DdpgAgent::update),
        ];
        for (label, update) in paths {
            group.bench_function(label, |b| {
                // Each sample times UPDATES_PER_RUN consecutive updates
                // from a freshly seeded agent. Because the two update
                // paths are bitwise-identical, both traverse exactly the
                // same weight trajectory and therefore see exactly the
                // same activation sparsity — a controlled comparison. A
                // free-running agent would drift to a path-dependent
                // weight state mid-measurement and confound the ratio.
                b.iter_batched(
                    || agent_with(ACTION_DIM, gate_config(batch_size)),
                    |mut agent| {
                        for _ in 0..UPDATES_PER_RUN {
                            update(&mut agent);
                        }
                        black_box(agent.updates())
                    },
                );
            });
        }
        let summaries = group.finish();
        let get = |id: &str| -> Summary {
            summaries
                .iter()
                .find(|(name, _)| name == id)
                .map(|(_, s)| *s)
                .unwrap_or(Summary {
                    median_ns: f64::NAN,
                    mean_ns: f64::NAN,
                    min_ns: f64::NAN,
                })
        };
        results.push((batch_size, get("per_sample"), get("batched")));
    }
    results
}

/// The batched update at the production EA-DRL shape: the default
/// `EaDrlConfig`'s DDPG settings (Softmax, diversity sampling, batch 32,
/// 32×32 hidden), an ω = 10 state and one action weight per member of
/// the standard 43-model pool. Returns the per-update median in ns.
fn bench_ddpg_production(c: &mut Harness) -> f64 {
    let config = DdpgConfig {
        seed: 42,
        ..EaDrlConfig::default().ddpg
    };
    let mut group = c.benchmark_group("ddpg_update_production");
    group.bench_function("batched", |b| {
        b.iter_batched(
            || agent_with(STANDARD_POOL_SIZE, config.clone()),
            |mut agent| {
                for _ in 0..UPDATES_PER_RUN {
                    agent.update();
                }
                black_box(agent.updates())
            },
        );
    });
    group
        .finish()
        .first()
        .map_or(f64::NAN, |(_, s)| s.median_ns / UPDATES_PER_RUN as f64)
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

    bench_gemm(&mut h);
    let dense = bench_dense_forward(&mut h);
    bench_mlp_train_step(&mut h);
    let ddpg = bench_ddpg_update(&mut h, &[32, 64]);
    let production = bench_ddpg_production(&mut h);

    let dense_get = |id: &str| -> f64 {
        dense
            .iter()
            .find(|(name, _)| name == id)
            .map_or(f64::NAN, |(_, s)| s.median_ns)
    };
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("isa".to_string(), kernels::isa().into()),
        ("state_dim".to_string(), STATE_DIM.into()),
        ("action_dim".to_string(), ACTION_DIM.into()),
        (
            "dense_per_sample_x64_median_ns".to_string(),
            dense_get("per_sample_x64").into(),
        ),
        (
            "dense_forward_batch_median_ns".to_string(),
            dense_get("forward_batch").into(),
        ),
    ];
    fields.push((
        "production_action_dim".to_string(),
        STANDARD_POOL_SIZE.into(),
    ));
    fields.push((
        "ddpg_update_production_batched_median_ns".to_string(),
        production.into(),
    ));
    let mut gate_failures = Vec::new();
    for (batch_size, per, bat) in &ddpg {
        let speedup = per.median_ns / bat.median_ns;
        // Each sample timed UPDATES_PER_RUN updates; report per-update.
        fields.push((
            format!("ddpg_update_batch{batch_size}_per_sample_median_ns"),
            (per.median_ns / UPDATES_PER_RUN as f64).into(),
        ));
        fields.push((
            format!("ddpg_update_batch{batch_size}_batched_median_ns"),
            (bat.median_ns / UPDATES_PER_RUN as f64).into(),
        ));
        fields.push((
            format!("ddpg_update_batch{batch_size}_speedup_batched"),
            speedup.into(),
        ));
        // NaN (e.g. a zero-time fluke) must also trip the gate, hence
        // the negated comparison rather than `speedup < 1.0`.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if *batch_size >= 32 && !(speedup >= 1.0) {
            gate_failures.push((*batch_size, speedup));
        }
    }

    let doc = {
        let mut obj: Vec<(String, JsonValue)> =
            vec![("report".to_string(), "kernels_bench".into())];
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
        print_json_report("kernels_bench", fields);
    }

    if check {
        if gate_failures.is_empty() {
            eprintln!(
                "check passed: batched DDPG update at least matches per-sample at batch >= 32"
            );
        } else {
            for (batch_size, speedup) in &gate_failures {
                eprintln!(
                    "check FAILED: batched DDPG update slower than per-sample at batch {batch_size} \
                     (speedup {speedup:.3}x)"
                );
            }
            std::process::exit(1);
        }
    }
}
