//! Finite-difference gradient checking for [`Network`] implementations.
//!
//! Manual-backprop code has exactly one failure mode that silently ruins
//! everything downstream: a wrong gradient. This module packages the
//! central-difference check used throughout this crate's tests as a public
//! utility, so anyone adding a custom layer can verify it the same way.

use crate::network::Network;

/// Outcome of a gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Parameters checked.
    pub checked: usize,
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_error: f64,
    /// Index (into the flat parameter vector) of the worst parameter.
    pub worst_index: usize,
}

impl GradCheckReport {
    /// True when every checked gradient matched within `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_abs_error <= tol
    }
}

/// Checks the analytic gradients currently stored in `network` against
/// central finite differences of `loss`.
///
/// The caller is responsible for having run the forward + backward pass
/// that populated the gradients (and for `loss` recomputing the *same*
/// scalar loss from scratch — typically a closure over the same inputs
/// and targets). `indices` selects which flat-parameter entries to probe;
/// probing all of them is O(2·|θ|) loss evaluations, so tests usually
/// sample a handful.
///
/// # Panics
/// Panics when an index is out of range.
pub fn check_gradients<N: Network>(
    network: &mut N,
    loss: impl Fn(&mut N) -> f64,
    indices: &[usize],
    step: f64,
) -> GradCheckReport {
    let flat = network.flat_params();
    let mut grads = Vec::with_capacity(flat.len());
    network.visit_params(&mut |_p, g| grads.extend_from_slice(g));
    assert_eq!(flat.len(), grads.len(), "params/grads disagree");

    let mut max_abs_error: f64 = 0.0;
    let mut worst_index = 0;
    for &idx in indices {
        assert!(idx < flat.len(), "gradcheck index {idx} out of range");
        let mut up = flat.clone();
        up[idx] += step;
        network.load_flat_params(&up);
        let lu = loss(network);
        let mut down = flat.clone();
        down[idx] -= step;
        network.load_flat_params(&down);
        let ld = loss(network);
        let numeric = (lu - ld) / (2.0 * step);
        let err = (numeric - grads[idx]).abs();
        if err > max_abs_error {
            max_abs_error = err;
            worst_index = idx;
        }
    }
    network.load_flat_params(&flat);
    GradCheckReport {
        checked: indices.len(),
        max_abs_error,
        worst_index,
    }
}

/// Runs the forward/backward pair through the **batched** path
/// ([`crate::network::BatchNetwork::forward_batch`] /
/// [`crate::network::BatchNetwork::backward_batch`]) to
/// populate the gradients, then checks them against central finite
/// differences of `loss` exactly like [`check_gradients`].
///
/// `loss` must recompute, from scratch, the same scalar the batch
/// implicitly optimizes — i.e. the loss whose per-row gradients are
/// `grad_output` (typically a sum of per-row losses over `input`). Since
/// the batched path accumulates gradients bitwise-identically to per-sample
/// passes in row order, this check passing for one path proves it for both;
/// tests still run both paths to enforce that equivalence end to end.
///
/// # Panics
/// Panics when an index is out of range.
pub fn check_gradients_batched<N: crate::network::BatchNetwork>(
    network: &mut N,
    input: &eadrl_linalg::Matrix,
    grad_output: &eadrl_linalg::Matrix,
    loss: impl Fn(&mut N) -> f64,
    indices: &[usize],
    step: f64,
) -> GradCheckReport {
    network.zero_grad();
    network.forward_batch(input);
    network.backward_batch(grad_output);
    check_gradients(network, loss, indices, step)
}

/// Convenience: evenly spaced probe indices covering a parameter vector.
pub fn probe_indices(param_count: usize, probes: usize) -> Vec<usize> {
    if param_count == 0 || probes == 0 {
        return Vec::new();
    }
    let probes = probes.min(param_count);
    (0..probes)
        .map(|i| i * (param_count - 1) / probes.max(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::{mse_loss, mse_loss_grad};
    use crate::mlp::Mlp;
    use eadrl_rng::DetRng;

    #[test]
    fn mlp_gradients_pass_the_check() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng, &[3, 5, 2], Activation::Tanh, Activation::Identity);
        let x = [0.3, -0.7, 0.5];
        let target = [1.0, -0.5];
        let y = mlp.forward(&x);
        let g = mse_loss_grad(&y, &target);
        mlp.zero_grad();
        mlp.forward(&x);
        mlp.backward(&g);

        let n = mlp.param_count();
        let indices = probe_indices(n, 12);
        let report = check_gradients(
            &mut mlp,
            |net| mse_loss(&net.forward_inference(&x), &target),
            &indices,
            1e-6,
        );
        assert!(report.passes(1e-5), "{report:?}");
        assert_eq!(report.checked, 12);
    }

    #[test]
    fn corrupted_gradients_fail_the_check() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut mlp = Mlp::new(&mut rng, &[2, 3, 1], Activation::Tanh, Activation::Identity);
        let x = [0.5, -0.5];
        let target = [2.0];
        let y = mlp.forward(&x);
        let g = mse_loss_grad(&y, &target);
        mlp.backward(&g);
        // Sabotage: add garbage to every gradient.
        mlp.visit_params(&mut |_p, grads| {
            for v in grads.iter_mut() {
                *v += 1.0;
            }
        });
        let n = mlp.param_count();
        let report = check_gradients(
            &mut mlp,
            |net| mse_loss(&net.forward_inference(&x), &target),
            &probe_indices(n, 6),
            1e-6,
        );
        assert!(!report.passes(1e-5));
        assert!(report.max_abs_error > 0.5);
    }

    #[test]
    fn per_sample_and_batched_checks_agree_bitwise() {
        use eadrl_linalg::Matrix;

        let mut rng = DetRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng, &[3, 5, 2], Activation::Tanh, Activation::Identity);
        let xs = [[0.3, -0.7, 0.5], [0.9, 0.1, -0.2]];
        let targets = [[1.0, -0.5], [0.0, 0.25]];
        let total_loss = |net: &mut Mlp| -> f64 {
            xs.iter()
                .zip(targets.iter())
                .map(|(x, t)| mse_loss(&net.forward_inference(x), t))
                .sum()
        };

        // Per-sample path: forward/backward each row in order.
        mlp.zero_grad();
        let mut grad_rows = Vec::new();
        for (x, t) in xs.iter().zip(targets.iter()) {
            let y = mlp.forward(x);
            let g = mse_loss_grad(&y, t);
            mlp.backward(&g);
            grad_rows.push(g);
        }
        let indices = probe_indices(mlp.param_count(), 12);
        let per_sample = check_gradients(&mut mlp, total_loss, &indices, 1e-6);
        assert!(per_sample.passes(1e-5), "{per_sample:?}");

        // Batched path over the same rows, same loss, same probes.
        let input = Matrix::from_rows(&xs.iter().map(|x| x.to_vec()).collect::<Vec<_>>()).unwrap();
        let gout = Matrix::from_rows(&grad_rows).unwrap();
        let batched = check_gradients_batched(&mut mlp, &input, &gout, total_loss, &indices, 1e-6);
        assert!(batched.passes(1e-5), "{batched:?}");
        assert_eq!(
            per_sample, batched,
            "batched gradcheck must reproduce the per-sample report bitwise"
        );
    }

    #[test]
    fn lstm_fused_batched_backward_passes_the_check() {
        use crate::lstm::{Lstm, RecurrentWorkspace};

        let mut rng = DetRng::seed_from_u64(11);
        let mut lstm = Lstm::new(&mut rng, 1, 4);
        let windows: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..5).map(|t| ((i * 5 + t) as f64 * 0.37).sin()).collect())
            .collect();

        // Populate the gradients through the fused batched BPTT path,
        // with upstream gradient dL/dh = h, i.e. L = Σ_s ½‖h_last‖².
        let mut ws = RecurrentWorkspace::new();
        ws.stage(windows.len(), 5, 1, 4);
        for (s, w) in windows.iter().enumerate() {
            for (t, v) in w.iter().enumerate() {
                ws.set_input(s, t, std::slice::from_ref(v));
            }
        }
        lstm.zero_grad();
        lstm.forward_batch(&mut ws);
        let grad: Vec<f64> = ws.h_last().to_vec();
        lstm.backward_batch_last(&grad, &mut ws, false);

        let loss = |net: &mut Lstm| -> f64 {
            windows
                .iter()
                .map(|w| {
                    let seq: Vec<Vec<f64>> = w.iter().map(|&v| vec![v]).collect();
                    let trace = crate::reference::lstm_forward(net, &seq);
                    0.5 * trace.last_hidden().iter().map(|v| v * v).sum::<f64>()
                })
                .sum()
        };
        let indices = probe_indices(lstm.param_count(), 16);
        let report = check_gradients(&mut lstm, loss, &indices, 1e-6);
        assert!(report.passes(1e-5), "{report:?}");
        assert_eq!(report.checked, 16);
    }

    #[test]
    fn conv_fused_batched_backward_passes_the_check() {
        use crate::conv::{Conv1d, ConvWorkspace};

        let mut rng = DetRng::seed_from_u64(12);
        let mut conv = Conv1d::new(&mut rng, 1, 3, 2, Activation::Tanh);
        let windows: Vec<Vec<f64>> = (0..2)
            .map(|i| (0..6).map(|t| ((i * 6 + t) as f64 * 0.53).cos()).collect())
            .collect();
        let t_out = 6 - 2 + 1;

        // Fused im2col forward + weights-only backward, with upstream
        // gradient dL/dy = y, i.e. L = Σ ½‖y‖² over the whole batch.
        let mut ws = ConvWorkspace::new();
        conv.stage_batch(&mut ws, windows.len(), 6);
        for (s, w) in windows.iter().enumerate() {
            ws.input_mut(s).copy_from_slice(w);
        }
        conv.zero_grad();
        conv.forward_batch(&mut ws);
        for s in 0..windows.len() {
            for t in 0..t_out {
                let y: Vec<f64> = ws.output_row(s, t).to_vec();
                ws.grad_output_row_mut(s, t).copy_from_slice(&y);
            }
        }
        conv.backward_batch_weights_only(&mut ws);

        let loss = |net: &mut Conv1d| -> f64 {
            windows
                .iter()
                .map(|w| {
                    let y = crate::reference::conv_forward(net, std::slice::from_ref(w));
                    0.5 * y
                        .iter()
                        .flat_map(|ch| ch.iter())
                        .map(|v| v * v)
                        .sum::<f64>()
                })
                .sum()
        };
        let indices = probe_indices(conv.param_count(), 9);
        let report = check_gradients(&mut conv, loss, &indices, 1e-6);
        assert!(report.passes(1e-5), "{report:?}");
    }

    #[test]
    fn probe_indices_cover_the_range() {
        let idx = probe_indices(100, 5);
        assert_eq!(idx.len(), 5);
        assert!(idx[0] < idx[4]);
        assert!(idx.iter().all(|&i| i < 100));
        assert!(probe_indices(0, 5).is_empty());
        assert_eq!(probe_indices(3, 10).len(), 3);
    }
}
