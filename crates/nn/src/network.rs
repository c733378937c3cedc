//! The parameter-visitor trait that connects networks to optimizers.

use eadrl_linalg::Matrix;

/// Anything with trainable parameters and gradient buffers.
///
/// Optimizers never see layer structure; they only visit `(params, grads)`
/// slice pairs in a fixed, topology-determined order. The order must be
/// stable across calls — [`crate::Adam`] allocates its moment buffers
/// positionally on first use.
pub trait Network {
    /// Visits every parameter buffer together with its gradient buffer.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64]));

    /// Clears all gradient buffers.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_p, g| {
            for x in g.iter_mut() {
                *x = 0.0;
            }
        });
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _g| n += p.len());
        n
    }

    /// Global L2 norm of the current gradients.
    fn grad_norm(&mut self) -> f64 {
        let mut s = 0.0;
        self.visit_params(&mut |_p, g| {
            s += g.iter().map(|x| x * x).sum::<f64>();
        });
        s.sqrt()
    }

    /// Scales gradients so their global norm does not exceed `max_norm`,
    /// and returns the norm before clipping (the [`Self::grad_norm`]
    /// value, so callers that report it need no second pass).
    fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            self.visit_params(&mut |_p, g| {
                for x in g.iter_mut() {
                    *x *= scale;
                }
            });
        }
        norm
    }

    /// Flattens all parameters into one vector (used for target-network
    /// syncing and serialization).
    fn flat_params(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        self.flat_params_into(&mut out);
        out
    }

    /// Flattens all parameters into a caller-owned buffer, reusing its
    /// allocation — the allocation-free form of [`Self::flat_params`] for
    /// per-update hot paths (Polyak target syncs, telemetry snapshots).
    fn flat_params_into(&mut self, out: &mut Vec<f64>) {
        out.clear();
        self.visit_params(&mut |p, _g| out.extend_from_slice(p));
    }

    /// Loads parameters from a flat vector produced by [`Self::flat_params`]
    /// on an identically-shaped network.
    ///
    /// # Panics
    /// Panics when the vector length does not match the parameter count.
    fn load_flat_params(&mut self, flat: &[f64]) {
        let mut offset = 0;
        self.visit_params(&mut |p, _g| {
            p.copy_from_slice(&flat[offset..offset + p.len()]);
            offset += p.len();
        });
        assert_eq!(offset, flat.len(), "flat parameter length mismatch");
    }

    /// Polyak soft update: `self = tau * source + (1 - tau) * self`.
    ///
    /// This is DDPG's target-network update; `source` must have identical
    /// topology.
    fn soft_update_from(&mut self, source: &[f64], tau: f64) {
        let mut offset = 0;
        self.visit_params(&mut |p, _g| {
            for x in p.iter_mut() {
                *x = tau * source[offset] + (1.0 - tau) * *x;
                offset += 1;
            }
        });
        assert_eq!(offset, source.len(), "soft update length mismatch");
    }
}

/// A [`Network`] that can also process a whole batch of samples per pass.
///
/// The contract is strict: for any batch assembled from rows `x_0..x_n`,
/// `forward_batch` must produce exactly the rows `forward(x_0)..forward(x_n)`
/// **bitwise**, and `backward_batch` must leave the gradient buffers bitwise
/// equal to running the per-sample `forward`/`backward` pairs in row order.
/// The property tests in `crates/nn/tests/props.rs` enforce this for every
/// implementor.
pub trait BatchNetwork: Network {
    /// Forward pass over input rows (`batch x in_dim`), caching the batch
    /// for [`Self::backward_batch`]; returns output rows.
    fn forward_batch(&mut self, input: &Matrix) -> &Matrix;

    /// Backward pass over output-gradient rows matching the last
    /// [`Self::forward_batch`]; accumulates parameter gradients in sample
    /// order and returns input-gradient rows.
    fn backward_batch(&mut self, grad_output: &Matrix) -> &Matrix;
}
