//! Loss functions.

/// Mean squared error `mean((y - t)²)`.
///
/// # Panics
/// Debug-panics on length mismatch; returns 0 for empty inputs.
pub fn mse_loss(output: &[f64], target: &[f64]) -> f64 {
    debug_assert_eq!(output.len(), target.len(), "mse_loss: length mismatch");
    if output.is_empty() {
        return 0.0;
    }
    output
        .iter()
        .zip(target.iter())
        .map(|(y, t)| (y - t) * (y - t))
        .sum::<f64>()
        / output.len() as f64
}

/// Gradient of [`mse_loss`] with respect to `output`: `2 (y - t) / n`.
pub fn mse_loss_grad(output: &[f64], target: &[f64]) -> Vec<f64> {
    debug_assert_eq!(output.len(), target.len(), "mse_loss_grad: length mismatch");
    let n = output.len().max(1) as f64;
    output
        .iter()
        .zip(target.iter())
        .map(|(y, t)| 2.0 * (y - t) / n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_value() {
        assert!((mse_loss(&[1.0, 3.0], &[0.0, 1.0]) - 2.5).abs() < 1e-12);
        assert_eq!(mse_loss(&[], &[]), 0.0);
    }

    #[test]
    fn mse_grad_matches_finite_difference() {
        let y = [0.5, -1.2, 3.0];
        let t = [0.0, 0.0, 2.0];
        let g = mse_loss_grad(&y, &t);
        let h = 1e-6;
        for i in 0..3 {
            let mut yp = y;
            yp[i] += h;
            let mut ym = y;
            ym[i] -= h;
            let numeric = (mse_loss(&yp, &t) - mse_loss(&ym, &t)) / (2.0 * h);
            assert!((numeric - g[i]).abs() < 1e-6);
        }
    }
}
