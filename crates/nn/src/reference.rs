//! Per-sequence LSTM/BiLSTM and per-sample Conv1d passes: the
//! differential reference for the batched layers, not a training API.
//!
//! [`Lstm`], [`BiLstm`] and [`Conv1d`] train through one path each, the
//! batched workspace methods, and serve through their strided inference
//! caches. The functions here are the textbook one-window-at-a-time
//! loops those paths replaced. They stay so that
//! `tests/recurrent_equivalence.rs` and the in-crate tests can prove the
//! batched paths bitwise-identical to them, and so that the `recurrent`
//! bench of `eadrl-bench` can measure the gap.
//!
//! A forward pass returns its trace by value; the matching backward pass
//! reads it and accumulates into the layer's gradient buffers, so the
//! layers themselves hold no training state. Inference is the same
//! forward with the trace dropped.

use crate::conv::Conv1d;
use crate::lstm::{BiLstm, Lstm};
use eadrl_linalg::{kernels, vector};

/// Everything one LSTM step's backward pass reads.
#[derive(Debug, Clone)]
struct LstmStep {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// Record of one [`lstm_forward`] pass: every hidden state plus the
/// per-step activations [`lstm_backward`] reads.
#[derive(Debug, Clone, Default)]
pub struct LstmTrace {
    steps: Vec<LstmStep>,
    hidden: Vec<Vec<f64>>,
}

impl LstmTrace {
    /// Every hidden state, in input order.
    pub fn hidden(&self) -> &[Vec<f64>] {
        &self.hidden
    }

    /// The final hidden state (empty for an empty sequence).
    pub fn last_hidden(&self) -> &[f64] {
        self.hidden.last().map_or(&[], Vec::as_slice)
    }
}

/// Runs `lstm` over `inputs` one step at a time from a zero state.
pub fn lstm_forward(lstm: &Lstm, inputs: &[Vec<f64>]) -> LstmTrace {
    let (ind, hsz) = (lstm.in_dim, lstm.hidden);
    let mut trace = LstmTrace::default();
    let mut h = vec![0.0; hsz];
    let mut c = vec![0.0; hsz];
    for x in inputs {
        debug_assert_eq!(x.len(), ind, "lstm_forward: input dim");
        // z = b + (W x + U h_prev), gate blocks [i | f | g | o].
        let mut z = lstm.b.clone();
        for (row, zv) in z.iter_mut().enumerate() {
            let wrow = &lstm.w[row * ind..(row + 1) * ind];
            let urow = &lstm.u[row * hsz..(row + 1) * hsz];
            *zv += wrow.iter().zip(x.iter()).map(|(a, b)| a * b).sum::<f64>()
                + urow.iter().zip(h.iter()).map(|(a, b)| a * b).sum::<f64>();
        }
        let sigmoid = |v: f64| 1.0 / (1.0 + (-v).exp());
        let i: Vec<f64> = z[..hsz].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f64> = z[hsz..2 * hsz].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f64> = z[2 * hsz..3 * hsz].iter().map(|&v| v.tanh()).collect();
        let o: Vec<f64> = z[3 * hsz..].iter().map(|&v| sigmoid(v)).collect();
        let c_new: Vec<f64> = (0..hsz).map(|k| f[k] * c[k] + i[k] * g[k]).collect();
        let tanh_c: Vec<f64> = c_new.iter().map(|v| v.tanh()).collect();
        let h_new: Vec<f64> = (0..hsz).map(|k| o[k] * tanh_c[k]).collect();
        trace.hidden.push(h_new.clone());
        trace.steps.push(LstmStep {
            x: x.clone(),
            h_prev: std::mem::replace(&mut h, h_new),
            c_prev: std::mem::replace(&mut c, c_new),
            i,
            f,
            g,
            o,
            tanh_c,
        });
    }
    trace
}

/// BPTT with a gradient on *every* hidden state: `grad_hs[t]` flows into
/// `h_t` from above. Accumulates `lstm`'s parameter gradients and returns
/// the gradient with respect to each input vector.
///
/// # Panics
/// Panics on an empty trace or when `grad_hs` does not hold one gradient
/// per step.
pub fn lstm_backward(lstm: &mut Lstm, trace: &LstmTrace, grad_hs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let (ind, hsz) = (lstm.in_dim, lstm.hidden);
    let steps = trace.steps.len();
    assert!(steps > 0, "lstm_backward called before lstm_forward");
    assert_eq!(grad_hs.len(), steps, "one hidden gradient per step");
    let mut grad_inputs = vec![vec![0.0; ind]; steps];
    let mut dh = vec![0.0; hsz];
    let mut dc_next = vec![0.0; hsz];
    for t in (0..steps).rev() {
        for (d, g) in dh.iter_mut().zip(grad_hs[t].iter()) {
            *d += g;
        }
        let st = &trace.steps[t];
        let mut dz = vec![0.0; 4 * hsz]; // pre-activation grads [i|f|g|o]
        let mut dc_prev = vec![0.0; hsz];
        for k in 0..hsz {
            let do_k = dh[k] * st.tanh_c[k];
            let dc = dc_next[k] + dh[k] * st.o[k] * (1.0 - st.tanh_c[k] * st.tanh_c[k]);
            let di = dc * st.g[k];
            let df = dc * st.c_prev[k];
            let dg = dc * st.i[k];
            dc_prev[k] = dc * st.f[k];
            dz[k] = di * st.i[k] * (1.0 - st.i[k]);
            dz[hsz + k] = df * st.f[k] * (1.0 - st.f[k]);
            dz[2 * hsz + k] = dg * (1.0 - st.g[k] * st.g[k]);
            dz[3 * hsz + k] = do_k * st.o[k] * (1.0 - st.o[k]);
        }
        let mut dh_prev = vec![0.0; hsz];
        for row in 0..4 * hsz {
            let d = dz[row];
            // eadrl-lint: allow(no-float-eq): subgradient sparsity skip — exact zero contributes nothing to any parameter
            if d == 0.0 {
                continue;
            }
            lstm.grad_b[row] += d;
            let gw = &mut lstm.grad_w[row * ind..(row + 1) * ind];
            for (gwi, &xi) in gw.iter_mut().zip(st.x.iter()) {
                *gwi += d * xi;
            }
            let gu = &mut lstm.grad_u[row * hsz..(row + 1) * hsz];
            for (gui, &hi) in gu.iter_mut().zip(st.h_prev.iter()) {
                *gui += d * hi;
            }
            let wrow = &lstm.w[row * ind..(row + 1) * ind];
            for (gi, &wv) in grad_inputs[t].iter_mut().zip(wrow.iter()) {
                *gi += d * wv;
            }
            let urow = &lstm.u[row * hsz..(row + 1) * hsz];
            for (ghi, &uv) in dh_prev.iter_mut().zip(urow.iter()) {
                *ghi += d * uv;
            }
        }
        dh = dh_prev;
        dc_next = dc_prev;
    }
    grad_inputs
}

/// BPTT from a gradient on the *final* hidden state only; see
/// [`lstm_backward`].
///
/// # Panics
/// Panics on an empty trace.
pub fn lstm_backward_last(
    lstm: &mut Lstm,
    trace: &LstmTrace,
    grad_h_last: &[f64],
) -> Vec<Vec<f64>> {
    let mut grads = vec![vec![0.0; lstm.hidden]; trace.steps.len()];
    if let Some(last) = grads.last_mut() {
        last.copy_from_slice(grad_h_last);
    }
    lstm_backward(lstm, trace, &grads)
}

/// Record of one [`bilstm_forward`] pass: one trace per direction, the
/// backward direction's over the reversed inputs.
#[derive(Debug, Clone, Default)]
pub struct BiLstmTrace {
    fwd: LstmTrace,
    bwd: LstmTrace,
}

impl BiLstmTrace {
    /// The layer output `[h_fwd ‖ h_bwd]` (both final hidden states).
    pub fn output(&self) -> Vec<f64> {
        [self.fwd.last_hidden(), self.bwd.last_hidden()].concat()
    }
}

/// Runs both directions of `bi` over `inputs`.
pub fn bilstm_forward(bi: &BiLstm, inputs: &[Vec<f64>]) -> BiLstmTrace {
    let reversed: Vec<Vec<f64>> = inputs.iter().rev().cloned().collect();
    BiLstmTrace {
        fwd: lstm_forward(&bi.forward, inputs),
        bwd: lstm_forward(&bi.backward, &reversed),
    }
}

/// BPTT from a gradient on the concatenated output; returns per-input
/// gradients in forward order.
///
/// # Panics
/// Panics on an empty trace.
pub fn bilstm_backward_last(
    bi: &mut BiLstm,
    trace: &BiLstmTrace,
    grad_out: &[f64],
) -> Vec<Vec<f64>> {
    let h = bi.forward.hidden;
    debug_assert_eq!(grad_out.len(), 2 * h, "bilstm_backward_last: grad shape");
    let mut grads = lstm_backward_last(&mut bi.forward, &trace.fwd, &grad_out[..h]);
    let bwd_grads = lstm_backward_last(&mut bi.backward, &trace.bwd, &grad_out[h..]);
    // The backward direction saw the inputs reversed; fold its gradients back.
    for (g, bg) in grads.iter_mut().zip(bwd_grads.iter().rev()) {
        for (a, b) in g.iter_mut().zip(bg.iter()) {
            *a += b;
        }
    }
    grads
}

/// Runs `conv` over one channel-major input; returns the channel-major
/// output, which [`conv_backward`] takes back together with the input.
///
/// Each output column is a bias-seeded `gemm_acc` over the gathered
/// receptive field: the accumulation chain for `out[oc][t]` starts at
/// `b[oc]` and adds products in ascending `(ic, k)` order.
pub fn conv_forward(conv: &Conv1d, input: &[Vec<f64>]) -> Vec<Vec<f64>> {
    debug_assert_eq!(input.len(), conv.in_channels, "conv_forward: channel count");
    let len = input.first().map_or(0, Vec::len);
    debug_assert!(
        len >= conv.kernel,
        "conv_forward: input shorter than kernel"
    );
    let out_len = conv.out_len(len);
    let ick = conv.in_channels * conv.kernel;
    let mut out = vec![vec![0.0; out_len]; conv.out_channels];
    let mut patch = vec![0.0; ick];
    let mut col = vec![0.0; conv.out_channels];
    for t in 0..out_len {
        gather_patch(conv, input, t, &mut patch);
        col.copy_from_slice(&conv.b);
        kernels::gemm_acc(conv.out_channels, ick, 1, &conv.w, &patch, &mut col);
        for (och, &s) in out.iter_mut().zip(col.iter()) {
            och[t] = conv.activation.apply(s);
        }
    }
    out
}

/// Gathers the receptive field at output position `t` into `patch`
/// (`in_ch * kernel`, matching the weight layout `[ic][k]`).
fn gather_patch(conv: &Conv1d, input: &[Vec<f64>], t: usize, patch: &mut [f64]) {
    for (ic, ich) in input.iter().enumerate() {
        patch[ic * conv.kernel..(ic + 1) * conv.kernel].copy_from_slice(&ich[t..t + conv.kernel]);
    }
}

/// Backward pass of [`conv_forward`] given its `input` and `output`:
/// accumulates parameter gradients and returns input gradients
/// (channel-major, same shape as `input`).
///
/// Weight gradients route through `vector::axpy` over the gathered
/// receptive field (per weight element the contributions stay in
/// ascending-`t` order). The input-gradient scatter stays scalar: its
/// writes overlap across output positions.
pub fn conv_backward(
    conv: &mut Conv1d,
    input: &[Vec<f64>],
    output: &[Vec<f64>],
    grad_output: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    debug_assert_eq!(
        grad_output.len(),
        conv.out_channels,
        "conv_backward: grad shape"
    );
    let (kernel, ick) = (conv.kernel, conv.in_channels * conv.kernel);
    let in_len = input.first().map_or(0, Vec::len);
    let mut grad_input = vec![vec![0.0; in_len]; conv.in_channels];
    let mut patch = vec![0.0; ick];
    for t in 0..conv.out_len(in_len) {
        gather_patch(conv, input, t, &mut patch);
        for oc in 0..conv.out_channels {
            let dz = grad_output[oc][t] * conv.activation.derivative_from_output(output[oc][t]);
            // eadrl-lint: allow(no-float-eq): ReLU subgradient — exact zero means no gradient flows, skip is lossless
            if dz == 0.0 {
                continue;
            }
            conv.grad_b[oc] += dz;
            vector::axpy(dz, &patch, &mut conv.grad_w[oc * ick..(oc + 1) * ick]);
            for (ic, gin) in grad_input.iter_mut().enumerate() {
                let w = &conv.w[(oc * conv.in_channels + ic) * kernel..][..kernel];
                for (k, &wv) in w.iter().enumerate() {
                    gin[t + k] += dz * wv;
                }
            }
        }
    }
    grad_input
}
