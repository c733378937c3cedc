//! Benchmarks for the fused stacked-gate recurrent training path:
//! windows-as-matrix LSTM/BiLSTM training epochs and the im2col Conv1d
//! batch pass against the per-sequence reference loops of
//! `eadrl_nn::reference`.
//!
//! Flags (combinable):
//! - `--quick`   shrink the measurement budget for CI smoke runs;
//! - `--json`    print a machine-readable `recurrent_bench` report on stdout;
//! - `--out <p>` also write that JSON document to the file `<p>`;
//! - `--check`   exit non-zero if the batched LSTM training epoch is
//!   slower than the per-sequence path at any batch size ≥ 32 (the perf
//!   regression gate wired into CI).
//!
//! Each epoch sample runs [`N_WINDOWS`] synthetic windows through
//! `N_WINDOWS / batch` optimizer steps via `iter_batched` with freshly
//! seeded networks per sample: the two paths are bitwise-identical, so
//! both traverse the same weight trajectory and see the same activation
//! sparsity — a controlled comparison, and every sample deterministic.
//! The measurement protocol is documented in `EXPERIMENTS.md`.

use eadrl_bench::harness::{Harness, Summary};
use eadrl_bench::{json_output, print_json_report};
use eadrl_linalg::Matrix;
use eadrl_nn::reference::{
    bilstm_backward_last, bilstm_forward, conv_backward, conv_forward, lstm_backward_last,
    lstm_forward,
};
use eadrl_nn::{
    mse_loss_grad, Activation, Adam, BiLstm, BiRecurrentWorkspace, Conv1d, ConvWorkspace, Dense,
    Lstm, Network, Optimizer, RecurrentWorkspace,
};
use eadrl_obs::json::JsonValue;
use eadrl_rng::DetRng;
use std::hint::black_box;

/// Windows per training epoch (each sample times one full epoch).
const N_WINDOWS: usize = 128;
/// Forecaster-representative shapes: scalar inputs over a k=12 embedded
/// window, hidden width 8 (the pool members run h ∈ [6, 20]).
const STEPS: usize = 12;
const HIDDEN: usize = 8;

fn dataset(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = DetRng::seed_from_u64(seed);
    let windows: Vec<Vec<f64>> = (0..N_WINDOWS)
        .map(|i| {
            (0..STEPS)
                .map(|t| {
                    // Structured zeros exercise the kernels' zero-skip
                    // branches at a realistic post-ReLU-like density.
                    if (i + t) % 5 == 0 {
                        0.0
                    } else {
                        rng.random_range(-1.0..1.0)
                    }
                })
                .collect()
        })
        .collect();
    let targets: Vec<f64> = (0..N_WINDOWS)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    (windows, targets)
}

/// Recurrent layer + head as one parameter group (mirrors the models
/// crate wiring) so Adam's positional moments line up across paths.
struct Stack<'a, R: Network>(&'a mut R, &'a mut Dense);

impl<R: Network> Network for Stack<'_, R> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.0.visit_params(f);
        self.1.visit_params(f);
    }
}

fn fresh_lstm() -> (Lstm, Dense, Adam) {
    let mut rng = DetRng::seed_from_u64(21);
    let lstm = Lstm::new(&mut rng, 1, HIDDEN);
    let head = Dense::new(&mut rng, HIDDEN, 1, Activation::Identity);
    (lstm, head, Adam::new(0.01))
}

fn fresh_bilstm() -> (BiLstm, Dense, Adam) {
    let mut rng = DetRng::seed_from_u64(23);
    let bi = BiLstm::new(&mut rng, 1, HIDDEN);
    let head = Dense::new(&mut rng, 2 * HIDDEN, 1, Activation::Identity);
    (bi, head, Adam::new(0.01))
}

/// One `lstm_epoch_batchN` group per batch size; returns
/// `(batch, per_sequence_summary, batched_summary)` rows for the report
/// and the `--check` gate.
fn bench_lstm_epoch(c: &mut Harness, batch_sizes: &[usize]) -> Vec<(usize, Summary, Summary)> {
    let (windows, targets) = dataset(0x5EED);
    let idx: Vec<usize> = (0..N_WINDOWS).collect();
    let mut results = Vec::new();
    for &batch in batch_sizes {
        let mut group = c.benchmark_group(format!("lstm_epoch_batch{batch}"));
        group.bench_function("per_sequence", |b| {
            b.iter_batched(fresh_lstm, |(mut lstm, mut head, mut opt)| {
                for chunk in idx.chunks(batch) {
                    let mut g = Stack(&mut lstm, &mut head);
                    g.zero_grad();
                    for &i in chunk {
                        let seq: Vec<Vec<f64>> = windows[i].iter().map(|&v| vec![v]).collect();
                        let trace = lstm_forward(g.0, &seq);
                        let y = g.1.forward(trace.last_hidden());
                        let gr = mse_loss_grad(&y, &[targets[i]]);
                        let gh = g.1.backward(&gr);
                        lstm_backward_last(g.0, &trace, &gh);
                    }
                    g.clip_grad_norm(5.0);
                    opt.step(&mut g);
                }
                black_box(lstm.flat_params()[0])
            });
        });
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    let nets = fresh_lstm();
                    (
                        nets,
                        RecurrentWorkspace::new(),
                        Matrix::default(),
                        Matrix::default(),
                    )
                },
                |((mut lstm, mut head, mut opt), mut ws, mut hb, mut gb)| {
                    for chunk in idx.chunks(batch) {
                        let mut g = Stack(&mut lstm, &mut head);
                        g.zero_grad();
                        let n = chunk.len();
                        ws.stage(n, STEPS, 1, HIDDEN);
                        for (s, &i) in chunk.iter().enumerate() {
                            for (t, v) in windows[i].iter().enumerate() {
                                ws.set_input(s, t, std::slice::from_ref(v));
                            }
                        }
                        g.0.forward_batch(&mut ws);
                        hb.resize(n, HIDDEN);
                        hb.data_mut().copy_from_slice(ws.h_last());
                        gb.resize(n, 1);
                        {
                            let out = g.1.forward_batch(&hb);
                            for (r, &i) in chunk.iter().enumerate() {
                                let gr = mse_loss_grad(out.row(r), &[targets[i]]);
                                gb.row_mut(r).copy_from_slice(&gr);
                            }
                        }
                        let gh = g.1.backward_batch(&gb);
                        g.0.backward_batch_last(gh.data(), &mut ws, false);
                        g.clip_grad_norm(5.0);
                        opt.step(&mut g);
                    }
                    black_box(lstm.flat_params()[0])
                },
            );
        });
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
        results.push((batch, get("per_sequence"), get("batched")));
    }
    results
}

/// BiLSTM epoch at one representative batch size.
fn bench_bilstm_epoch(c: &mut Harness, batch: usize) -> Vec<(String, Summary)> {
    let (windows, targets) = dataset(0xB15);
    let idx: Vec<usize> = (0..N_WINDOWS).collect();
    let mut group = c.benchmark_group(format!("bilstm_epoch_batch{batch}"));
    group.bench_function("per_sequence", |b| {
        b.iter_batched(fresh_bilstm, |(mut bi, mut head, mut opt)| {
            for chunk in idx.chunks(batch) {
                let mut g = Stack(&mut bi, &mut head);
                g.zero_grad();
                for &i in chunk {
                    let seq: Vec<Vec<f64>> = windows[i].iter().map(|&v| vec![v]).collect();
                    let trace = bilstm_forward(g.0, &seq);
                    let y = g.1.forward(&trace.output());
                    let gr = mse_loss_grad(&y, &[targets[i]]);
                    let gh = g.1.backward(&gr);
                    bilstm_backward_last(g.0, &trace, &gh);
                }
                g.clip_grad_norm(5.0);
                opt.step(&mut g);
            }
            black_box(bi.flat_params()[0])
        });
    });
    group.bench_function("batched", |b| {
        b.iter_batched(
            || {
                let nets = fresh_bilstm();
                (
                    nets,
                    BiRecurrentWorkspace::new(),
                    Matrix::default(),
                    Matrix::default(),
                )
            },
            |((mut bi, mut head, mut opt), mut ws, mut hb, mut gb)| {
                for chunk in idx.chunks(batch) {
                    let mut g = Stack(&mut bi, &mut head);
                    g.zero_grad();
                    let n = chunk.len();
                    ws.stage(n, STEPS, 1, HIDDEN);
                    for (s, &i) in chunk.iter().enumerate() {
                        for (t, v) in windows[i].iter().enumerate() {
                            ws.set_input(s, t, std::slice::from_ref(v));
                        }
                    }
                    g.0.forward_batch(&mut ws);
                    hb.resize(n, 2 * HIDDEN);
                    hb.data_mut().copy_from_slice(ws.output());
                    gb.resize(n, 1);
                    {
                        let out = g.1.forward_batch(&hb);
                        for (r, &i) in chunk.iter().enumerate() {
                            let gr = mse_loss_grad(out.row(r), &[targets[i]]);
                            gb.row_mut(r).copy_from_slice(&gr);
                        }
                    }
                    let gh = g.1.backward_batch(&gb);
                    g.0.backward_batch_last(gh.data(), &mut ws, false);
                    g.clip_grad_norm(5.0);
                    opt.step(&mut g);
                }
                black_box(bi.flat_params()[0])
            },
        );
    });
    group.finish()
}

/// Conv1d forward+backward over one staged batch: per-sample loops vs
/// the im2col GEMM path (weights-only backward on both sides of the
/// comparison — the CNN-LSTM wiring discards conv input gradients).
fn bench_conv_batch(c: &mut Harness, batch: usize) -> Vec<(String, Summary)> {
    let (windows, _) = dataset(0xC0);
    let (oc, k, in_len) = (4, 3, STEPS);
    let t_out = in_len - k + 1;
    let mut rng = DetRng::seed_from_u64(29);
    let conv_seed = Conv1d::new(&mut rng, 1, oc, k, Activation::Relu);
    let mut group = c.benchmark_group(format!("conv_fwd_bwd_c{oc}_k{k}_batch{batch}"));
    group.bench_function("per_sample", |b| {
        b.iter_batched(
            || conv_seed.clone(),
            |mut conv| {
                conv.zero_grad();
                for w in windows.iter().take(batch) {
                    let input = std::slice::from_ref(w);
                    let y = conv_forward(&conv, input);
                    let g: Vec<Vec<f64>> = y
                        .iter()
                        .map(|ch| ch.iter().map(|v| v - 0.25).collect())
                        .collect();
                    conv_backward(&mut conv, input, &y, &g);
                }
                black_box(conv.grad_norm())
            },
        );
    });
    group.bench_function("batched", |b| {
        b.iter_batched(
            || (conv_seed.clone(), ConvWorkspace::new()),
            |(mut conv, mut ws)| {
                conv.zero_grad();
                conv.stage_batch(&mut ws, batch, in_len);
                for (s, w) in windows.iter().take(batch).enumerate() {
                    ws.input_mut(s).copy_from_slice(w);
                }
                conv.forward_batch(&mut ws);
                for s in 0..batch {
                    for t in 0..t_out {
                        let y: Vec<f64> = ws.output_row(s, t).to_vec();
                        let grow = ws.grad_output_row_mut(s, t);
                        for (gv, yv) in grow.iter_mut().zip(&y) {
                            *gv = yv - 0.25;
                        }
                    }
                }
                conv.backward_batch_weights_only(&mut ws);
                black_box(conv.grad_norm())
            },
        );
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

    let lstm = bench_lstm_epoch(&mut h, &[16, 32, 64]);
    let bilstm = bench_bilstm_epoch(&mut h, 64);
    let conv = bench_conv_batch(&mut h, 64);

    let pick = |rows: &[(String, Summary)], id: &str| -> f64 {
        rows.iter()
            .find(|(name, _)| name == id)
            .map_or(f64::NAN, |(_, s)| s.median_ns)
    };
    let mut fields: Vec<(String, JsonValue)> = vec![
        ("n_windows".to_string(), N_WINDOWS.into()),
        ("steps".to_string(), STEPS.into()),
        ("hidden".to_string(), HIDDEN.into()),
    ];
    let mut gate_failures = Vec::new();
    for (batch, per, bat) in &lstm {
        let speedup = per.median_ns / bat.median_ns;
        fields.push((
            format!("lstm_epoch_batch{batch}_per_sequence_median_ns"),
            per.median_ns.into(),
        ));
        fields.push((
            format!("lstm_epoch_batch{batch}_batched_median_ns"),
            bat.median_ns.into(),
        ));
        fields.push((
            format!("lstm_epoch_batch{batch}_speedup_batched"),
            speedup.into(),
        ));
        // NaN (e.g. a zero-time fluke) must also trip the gate, hence
        // the negated comparison rather than `speedup < 1.0`.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if *batch >= 32 && !(speedup >= 1.0) {
            gate_failures.push((*batch, speedup));
        }
    }
    let bi_per = pick(&bilstm, "per_sequence");
    let bi_bat = pick(&bilstm, "batched");
    fields.push((
        "bilstm_epoch_batch64_per_sequence_median_ns".to_string(),
        bi_per.into(),
    ));
    fields.push((
        "bilstm_epoch_batch64_batched_median_ns".to_string(),
        bi_bat.into(),
    ));
    fields.push((
        "bilstm_epoch_batch64_speedup_batched".to_string(),
        (bi_per / bi_bat).into(),
    ));
    let cv_per = pick(&conv, "per_sample");
    let cv_bat = pick(&conv, "batched");
    fields.push((
        "conv_fwd_bwd_batch64_per_sample_median_ns".to_string(),
        cv_per.into(),
    ));
    fields.push((
        "conv_fwd_bwd_batch64_batched_median_ns".to_string(),
        cv_bat.into(),
    ));
    fields.push((
        "conv_fwd_bwd_batch64_speedup_batched".to_string(),
        (cv_per / cv_bat).into(),
    ));

    let doc = {
        let mut obj: Vec<(String, JsonValue)> =
            vec![("report".to_string(), "recurrent_bench".into())];
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
        print_json_report("recurrent_bench", fields);
    }

    if check {
        if gate_failures.is_empty() {
            eprintln!(
                "check passed: batched LSTM epoch at least matches per-sequence at batch >= 32"
            );
        } else {
            for (batch, speedup) in &gate_failures {
                eprintln!(
                    "check FAILED: batched LSTM epoch slower than per-sequence at batch {batch} \
                     (speedup {speedup:.3}x)"
                );
            }
            std::process::exit(1);
        }
    }
}
