//! Differential proof that the fused batched recurrent paths are drop-in
//! replacements for the per-sequence reference implementations in
//! `eadrl_nn::reference`.
//!
//! Each test trains two identically seeded stacks through full epoch
//! loops with Adam — one through the reference loops, one through the
//! windows-as-matrix workspace paths — and asserts the post-update
//! parameters and subsequent predictions are **bitwise** equal
//! (`assert_eq!` on `f64`, no tolerance). Chunk size 7 exercises odd and
//! ragged minibatches. The suite runs under the CI `EADRL_PAR_THREADS`
//! matrix {1, 4}; nothing here is thread-count sensitive, which is
//! exactly the claim — the batched kernels are sequential-deterministic.

use eadrl_linalg::Matrix;
use eadrl_nn::reference::{
    bilstm_backward_last, bilstm_forward, conv_backward, conv_forward, lstm_backward,
    lstm_backward_last, lstm_forward,
};
use eadrl_nn::{
    mse_loss_grad, Activation, Adam, BiLstm, BiLstmInferenceCache, BiRecurrentWorkspace, Conv1d,
    ConvWorkspace, Dense, Lstm, LstmInferenceCache, Network, Optimizer, RecurrentWorkspace,
};
use eadrl_rng::DetRng;

const CHUNK: usize = 7;

/// Deterministic windows with structured zeros (to exercise the
/// zero-skip branches of the kernels) plus scalar targets.
fn dataset(n: usize, len: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = DetRng::seed_from_u64(seed);
    let windows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..len)
                .map(|t| {
                    if (i + t) % 5 == 0 {
                        0.0
                    } else {
                        rng.random_range(-1.0..1.0)
                    }
                })
                .collect()
        })
        .collect();
    let targets: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    (windows, targets)
}

/// Recurrent layer + linear head trained as one parameter group, so the
/// optimizer's positional moment buffers line up between the two paths.
struct Stack<'a, R: Network>(&'a mut R, &'a mut Dense);

impl<R: Network> Network for Stack<'_, R> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.0.visit_params(f);
        self.1.visit_params(f);
    }
}

fn flat<N: Network>(n: &mut N) -> Vec<f64> {
    n.flat_params()
}

#[test]
fn lstm_training_epochs_batched_equals_per_sequence_bitwise() {
    let (windows, targets) = dataset(19, 6, 0xA1);
    let steps = windows[0].len();
    let hidden = 5;

    // Reference: per-sequence loops.
    let mut rng = DetRng::seed_from_u64(7);
    let mut lstm_a = Lstm::new(&mut rng, 1, hidden);
    let mut head_a = Dense::new(&mut rng, hidden, 1, Activation::Identity);
    let mut opt_a = Adam::new(0.01);
    for _ in 0..3 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack(&mut lstm_a, &mut head_a);
            group.zero_grad();
            for &i in chunk {
                let seq: Vec<Vec<f64>> = windows[i].iter().map(|&v| vec![v]).collect();
                let trace = lstm_forward(group.0, &seq);
                let y = group.1.forward(trace.last_hidden());
                let g = mse_loss_grad(&y, &[targets[i]]);
                let gh = group.1.backward(&g);
                lstm_backward_last(group.0, &trace, &gh);
            }
            group.clip_grad_norm(5.0);
            opt_a.step(&mut group);
        }
    }

    // Candidate: fused batched path over the same data and chunking.
    let mut rng = DetRng::seed_from_u64(7);
    let mut lstm_b = Lstm::new(&mut rng, 1, hidden);
    let mut head_b = Dense::new(&mut rng, hidden, 1, Activation::Identity);
    let mut opt_b = Adam::new(0.01);
    let mut ws = RecurrentWorkspace::new();
    let mut hb = Matrix::default();
    let mut gb = Matrix::default();
    for _ in 0..3 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack(&mut lstm_b, &mut head_b);
            group.zero_grad();
            let n = chunk.len();
            ws.stage(n, steps, 1, hidden);
            for (s, &i) in chunk.iter().enumerate() {
                for (t, v) in windows[i].iter().enumerate() {
                    ws.set_input(s, t, std::slice::from_ref(v));
                }
            }
            group.0.forward_batch(&mut ws);
            hb.resize(n, hidden);
            hb.data_mut().copy_from_slice(ws.h_last());
            gb.resize(n, 1);
            {
                let out = group.1.forward_batch(&hb);
                for (r, &i) in chunk.iter().enumerate() {
                    let g = mse_loss_grad(out.row(r), &[targets[i]]);
                    gb.row_mut(r).copy_from_slice(&g);
                }
            }
            let gh = group.1.backward_batch(&gb);
            group.0.backward_batch_last(gh.data(), &mut ws, false);
            group.clip_grad_norm(5.0);
            opt_b.step(&mut group);
        }
    }

    assert_eq!(flat(&mut lstm_a), flat(&mut lstm_b), "LSTM params diverged");
    assert_eq!(flat(&mut head_a), flat(&mut head_b), "head params diverged");

    // Predictions: per-sequence inference vs the strided zero-alloc cache.
    let mut cache = LstmInferenceCache::default();
    for w in &windows {
        let seq: Vec<Vec<f64>> = w.iter().map(|&v| vec![v]).collect();
        let trace = lstm_forward(&lstm_a, &seq);
        let y_ref = head_a.forward_inference(trace.last_hidden());
        let h = lstm_b.forward_inference_cached(w, 1, &mut cache);
        let mut y = [0.0];
        head_b.forward_inference_into(h, &mut y);
        assert_eq!(trace.last_hidden(), h, "hidden state diverged");
        assert_eq!(y_ref[0], y[0], "prediction diverged");
    }
}

#[test]
fn bilstm_training_epochs_batched_equals_per_sequence_bitwise() {
    let (windows, targets) = dataset(17, 5, 0xB2);
    let steps = windows[0].len();
    let hidden = 4;

    let mut rng = DetRng::seed_from_u64(11);
    let mut bi_a = BiLstm::new(&mut rng, 1, hidden);
    let mut head_a = Dense::new(&mut rng, 2 * hidden, 1, Activation::Identity);
    let mut opt_a = Adam::new(0.01);
    for _ in 0..2 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack(&mut bi_a, &mut head_a);
            group.zero_grad();
            for &i in chunk {
                let seq: Vec<Vec<f64>> = windows[i].iter().map(|&v| vec![v]).collect();
                let trace = bilstm_forward(group.0, &seq);
                let y = group.1.forward(&trace.output());
                let g = mse_loss_grad(&y, &[targets[i]]);
                let gh = group.1.backward(&g);
                bilstm_backward_last(group.0, &trace, &gh);
            }
            group.clip_grad_norm(5.0);
            opt_a.step(&mut group);
        }
    }

    let mut rng = DetRng::seed_from_u64(11);
    let mut bi_b = BiLstm::new(&mut rng, 1, hidden);
    let mut head_b = Dense::new(&mut rng, 2 * hidden, 1, Activation::Identity);
    let mut opt_b = Adam::new(0.01);
    let mut ws = BiRecurrentWorkspace::new();
    let mut hb = Matrix::default();
    let mut gb = Matrix::default();
    for _ in 0..2 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack(&mut bi_b, &mut head_b);
            group.zero_grad();
            let n = chunk.len();
            ws.stage(n, steps, 1, hidden);
            for (s, &i) in chunk.iter().enumerate() {
                for (t, v) in windows[i].iter().enumerate() {
                    ws.set_input(s, t, std::slice::from_ref(v));
                }
            }
            group.0.forward_batch(&mut ws);
            hb.resize(n, 2 * hidden);
            hb.data_mut().copy_from_slice(ws.output());
            gb.resize(n, 1);
            {
                let out = group.1.forward_batch(&hb);
                for (r, &i) in chunk.iter().enumerate() {
                    let g = mse_loss_grad(out.row(r), &[targets[i]]);
                    gb.row_mut(r).copy_from_slice(&g);
                }
            }
            let gh = group.1.backward_batch(&gb);
            group.0.backward_batch_last(gh.data(), &mut ws, false);
            group.clip_grad_norm(5.0);
            opt_b.step(&mut group);
        }
    }

    assert_eq!(flat(&mut bi_a), flat(&mut bi_b), "BiLSTM params diverged");
    assert_eq!(flat(&mut head_a), flat(&mut head_b), "head params diverged");

    let mut cache = BiLstmInferenceCache::default();
    for w in &windows {
        let seq: Vec<Vec<f64>> = w.iter().map(|&v| vec![v]).collect();
        let h_ref = bilstm_forward(&bi_a, &seq).output();
        let h = bi_b.forward_inference_cached(w, 1, &mut cache);
        assert_eq!(h_ref.as_slice(), h, "bi-directional output diverged");
    }
}

#[test]
fn conv_training_steps_batched_equals_per_sample_bitwise() {
    let (windows, _) = dataset(13, 8, 0xC3);
    let (oc, k) = (3, 2);
    let t_out = windows[0].len() - k + 1;

    let mut rng = DetRng::seed_from_u64(13);
    let mut conv_a = Conv1d::new(&mut rng, 1, oc, k, Activation::Relu);
    let mut opt_a = Adam::new(0.01);
    let mut rng = DetRng::seed_from_u64(13);
    let mut conv_b = Conv1d::new(&mut rng, 1, oc, k, Activation::Relu);
    let mut opt_b = Adam::new(0.01);
    let mut ws = ConvWorkspace::new();

    for _ in 0..3 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            // Per-sample reference. The synthetic upstream gradient is a
            // deterministic function of position (structured zeros again).
            conv_a.zero_grad();
            for &i in chunk {
                let input = [windows[i].clone()];
                let y = conv_forward(&conv_a, &input);
                let g: Vec<Vec<f64>> = (0..oc)
                    .map(|c| {
                        (0..t_out)
                            .map(|t| {
                                if (c + t + i) % 4 == 0 {
                                    0.0
                                } else {
                                    y[c][t] - 0.25
                                }
                            })
                            .collect()
                    })
                    .collect();
                conv_backward(&mut conv_a, &input, &y, &g);
            }
            conv_a.clip_grad_norm(5.0);
            opt_a.step(&mut conv_a);

            // Batched candidate, same windows and same upstream grads.
            conv_b.zero_grad();
            let n = chunk.len();
            conv_b.stage_batch(&mut ws, n, windows[0].len());
            for (s, &i) in chunk.iter().enumerate() {
                ws.input_mut(s).copy_from_slice(&windows[i]);
            }
            conv_b.forward_batch(&mut ws);
            for (s, &i) in chunk.iter().enumerate() {
                for t in 0..t_out {
                    let row: Vec<f64> = ws.output_row(s, t).to_vec();
                    let grow = ws.grad_output_row_mut(s, t);
                    for (c, g) in grow.iter_mut().enumerate() {
                        *g = if (c + t + i) % 4 == 0 {
                            0.0
                        } else {
                            row[c] - 0.25
                        };
                    }
                }
            }
            conv_b.backward_batch_weights_only(&mut ws);
            conv_b.clip_grad_norm(5.0);
            opt_b.step(&mut conv_b);
        }
    }

    assert_eq!(
        flat(&mut conv_a),
        flat(&mut conv_b),
        "Conv1d params diverged"
    );
}

/// Two recurrent layers plus a linear head as one parameter group (the
/// stacked-LSTM wiring), in the same positional order on both paths.
struct Stack3<'a>(&'a mut Lstm, &'a mut Lstm, &'a mut Dense);

impl Network for Stack3<'_> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.0.visit_params(f);
        self.1.visit_params(f);
        self.2.visit_params(f);
    }
}

#[test]
fn stacked_lstm_training_epochs_batched_equals_per_sequence_bitwise() {
    let (windows, targets) = dataset(23, 6, 0xD4);
    let steps = windows[0].len();
    let (h1, h2) = (5, 4);

    // Reference: per-sequence loops, layer 1's full hidden sequence
    // feeding layer 2 and layer 2's input gradients flowing back into
    // every step of layer 1.
    let mut rng = DetRng::seed_from_u64(17);
    let mut l1_a = Lstm::new(&mut rng, 1, h1);
    let mut l2_a = Lstm::new(&mut rng, h1, h2);
    let mut head_a = Dense::new(&mut rng, h2, 1, Activation::Identity);
    let mut opt_a = Adam::new(0.01);
    for _ in 0..3 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack3(&mut l1_a, &mut l2_a, &mut head_a);
            group.zero_grad();
            for &i in chunk {
                let seq: Vec<Vec<f64>> = windows[i].iter().map(|&v| vec![v]).collect();
                let trace1 = lstm_forward(group.0, &seq);
                let trace2 = lstm_forward(group.1, trace1.hidden());
                let y = group.2.forward(trace2.last_hidden());
                let g = mse_loss_grad(&y, &[targets[i]]);
                let gh2 = group.2.backward(&g);
                let gh1 = lstm_backward_last(group.1, &trace2, &gh2);
                lstm_backward(group.0, &trace1, &gh1);
            }
            group.clip_grad_norm(5.0);
            opt_a.step(&mut group);
        }
    }

    // Candidate: layer 1 batched forward, each step's hidden block staged
    // as layer 2's input, layer 2's per-step input gradients fed back as
    // layer 1's upstream hidden gradients for the full batched BPTT.
    let mut rng = DetRng::seed_from_u64(17);
    let mut l1_b = Lstm::new(&mut rng, 1, h1);
    let mut l2_b = Lstm::new(&mut rng, h1, h2);
    let mut head_b = Dense::new(&mut rng, h2, 1, Activation::Identity);
    let mut opt_b = Adam::new(0.01);
    let mut ws1 = RecurrentWorkspace::new();
    let mut ws2 = RecurrentWorkspace::new();
    let mut hb = Matrix::default();
    let mut gb = Matrix::default();
    for _ in 0..3 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack3(&mut l1_b, &mut l2_b, &mut head_b);
            group.zero_grad();
            let n = chunk.len();
            ws1.stage(n, steps, 1, h1);
            for (s, &i) in chunk.iter().enumerate() {
                for (t, v) in windows[i].iter().enumerate() {
                    ws1.set_input(s, t, std::slice::from_ref(v));
                }
            }
            group.0.forward_batch(&mut ws1);
            ws2.stage(n, steps, h1, h2);
            for t in 0..steps {
                let hs = ws1.h(t);
                for s in 0..n {
                    ws2.set_input(s, t, &hs[s * h1..(s + 1) * h1]);
                }
            }
            group.1.forward_batch(&mut ws2);
            hb.resize(n, h2);
            hb.data_mut().copy_from_slice(ws2.h_last());
            gb.resize(n, 1);
            {
                let out = group.2.forward_batch(&hb);
                for (r, &i) in chunk.iter().enumerate() {
                    let g = mse_loss_grad(out.row(r), &[targets[i]]);
                    gb.row_mut(r).copy_from_slice(&g);
                }
            }
            let gh = group.2.backward_batch(&gb);
            group.1.backward_batch_last(gh.data(), &mut ws2, true);
            for t in 0..steps {
                ws1.grad_h_mut(t).copy_from_slice(ws2.grad_x(t));
            }
            group.0.backward_batch_full(&mut ws1, false);
            group.clip_grad_norm(5.0);
            opt_b.step(&mut group);
        }
    }

    assert_eq!(flat(&mut l1_a), flat(&mut l1_b), "layer-1 params diverged");
    assert_eq!(flat(&mut l2_a), flat(&mut l2_b), "layer-2 params diverged");
    assert_eq!(flat(&mut head_a), flat(&mut head_b), "head params diverged");

    // Predictions: per-sequence inference vs the strided caches the
    // stacked regressor serves through.
    let (mut c1, mut c2) = (LstmInferenceCache::default(), LstmInferenceCache::default());
    for w in &windows {
        let seq: Vec<Vec<f64>> = w.iter().map(|&v| vec![v]).collect();
        let trace1 = lstm_forward(&l1_a, &seq);
        let trace2 = lstm_forward(&l2_a, trace1.hidden());
        let y_ref = head_a.forward_inference(trace2.last_hidden());
        let hs = l1_b.forward_inference_cached_full(w, 1, &mut c1);
        let h = l2_b.forward_inference_cached(hs, h1, &mut c2);
        let mut y = [0.0];
        head_b.forward_inference_into(h, &mut y);
        assert_eq!(trace2.last_hidden(), h, "layer-2 hidden state diverged");
        assert_eq!(y_ref[0], y[0], "prediction diverged");
    }
}
