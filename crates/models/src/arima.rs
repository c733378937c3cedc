//! ARIMA(p, d, q) fitted with the Hannan–Rissanen two-stage procedure.

use crate::forecaster::{ForecastStream, Forecaster, ModelError};
use eadrl_linalg::{ridge, Matrix};
use eadrl_timeseries::transform::difference;

/// An ARIMA(p, d, q) forecaster.
///
/// Fitting follows Hannan–Rissanen:
///
/// 1. difference the series `d` times;
/// 2. fit a long autoregression by least squares to estimate the
///    innovation sequence;
/// 3. regress each value on its `p` lags and `q` lagged innovations.
///
/// One-step forecasting filters the fitted model over the observed history
/// to reconstruct the innovations, predicts the next differenced value and
/// integrates back `d` times. The filter is a stream
/// ([`Forecaster::stream`]): `predict_next` feeds the history into a fresh
/// one, and a serving layer can keep one alive and feed it only new values.
#[derive(Debug, Clone)]
pub struct Arima {
    name: String,
    p: usize,
    d: usize,
    q: usize,
    /// `[intercept, phi_1..phi_p, theta_1..theta_q]`.
    coef: Vec<f64>,
    /// Winsorization bound for filtered innovations (set at fit time).
    innovation_cap: f64,
    fitted: bool,
}

impl Arima {
    /// Creates an unfitted ARIMA(p, d, q).
    ///
    /// # Panics
    /// Panics when `p + q == 0` (a pure-integration model forecasts
    /// nothing) or `d > 2`.
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        assert!(p + q > 0, "ARIMA requires p + q > 0");
        assert!(d <= 2, "ARIMA supports d <= 2");
        Arima {
            name: format!("ARIMA({p},{d},{q})"),
            p,
            d,
            q,
            coef: Vec::new(),
            innovation_cap: f64::INFINITY,
            fitted: false,
        }
    }

    /// `(p, d, q)` orders.
    pub fn orders(&self) -> (usize, usize, usize) {
        (self.p, self.d, self.q)
    }

    fn diff_all(&self, series: &[f64]) -> Vec<f64> {
        let mut w = series.to_vec();
        for _ in 0..self.d {
            w = difference(&w, 1);
        }
        w
    }

    /// Long-AR residual estimation (stage 1 of Hannan–Rissanen).
    fn long_ar_residuals(w: &[f64], order: usize) -> Option<Vec<f64>> {
        if w.len() <= order + 2 {
            return None;
        }
        let rows: Vec<Vec<f64>> = (order..w.len())
            .map(|t| {
                let mut r = Vec::with_capacity(order + 1);
                r.push(1.0);
                for lag in 1..=order {
                    r.push(w[t - lag]);
                }
                r
            })
            .collect();
        let targets: Vec<f64> = w[order..].to_vec();
        let x = Matrix::from_rows(&rows).ok()?;
        let beta = ridge(&x, &targets, 1e-8).ok()?;
        // Residuals aligned to w (zeros for the first `order` entries).
        let mut resid = vec![0.0; w.len()];
        for (row_idx, t) in (order..w.len()).enumerate() {
            let pred: f64 = rows[row_idx]
                .iter()
                .zip(beta.iter())
                .map(|(a, b)| a * b)
                .sum();
            resid[t] = w[t] - pred;
        }
        Some(resid)
    }

    /// A fresh serving stream over this model's coefficients.
    fn new_stream(&self) -> ArimaStream {
        ArimaStream {
            filter: ArimaFilter {
                p: self.p,
                d: self.d,
                q: self.q,
                coef: self.coef.clone(),
                innovation_cap: self.innovation_cap,
                fitted: self.fitted,
            },
            state: ArimaState {
                n: 0,
                last: 0.0,
                levels: [0.0; 2],
                tw: 0,
                w_end: self.p,
                e_end: self.q,
            },
            w_lags: vec![0.0; self.p + LAG_SLACK],
            e_lags: vec![0.0; self.q + LAG_SLACK],
        }
    }
}

/// ARIMA's incremental one-step state: the last value of each of the `d`
/// integration levels, the last `p` values of the differenced series `w`
/// and the last `q` filtered innovations. One push differences the new
/// value, filters one innovation and shifts the lags, so serving a
/// growing history costs O(p + q + d) per value.
#[derive(Debug, Clone)]
struct ArimaStream {
    filter: ArimaFilter,
    state: ArimaState,
    /// Lag window of `w`: its last `p` values, oldest first, end at
    /// `state.w_end` (zeros before they exist). See [`shift_in`].
    w_lags: Vec<f64>,
    /// Lag window of the innovations: the last `q`, like `w_lags`.
    e_lags: Vec<f64>,
}

/// The fitted model, as the stream reads it.
#[derive(Debug, Clone)]
struct ArimaFilter {
    p: usize,
    d: usize,
    q: usize,
    /// `[intercept, phi_1..phi_p, theta_1..theta_q]` (empty when unfitted).
    coef: Vec<f64>,
    innovation_cap: f64,
    fitted: bool,
}

/// The stream's scalar state, copied into locals while a slice is pushed.
#[derive(Debug, Clone, Copy)]
struct ArimaState {
    /// Values pushed so far.
    n: usize,
    /// The last value pushed: the fallback forecast.
    last: f64,
    /// `levels[k]`: the last value of the `k`-times differenced series,
    /// for `k < d`.
    levels: [f64; 2],
    /// Values of `w` (the `d`-times differenced series) seen so far.
    tw: usize,
    /// End of the lag window in `w_lags` / `e_lags`.
    w_end: usize,
    e_end: usize,
}

/// Free slots after a lag window: the window is copied back to the
/// front of its buffer once every `LAG_SLACK` pushes.
const LAG_SLACK: usize = 64;

/// Appends `v` to a lag window of length `k` that ends at `*end` in
/// `buf`. `buf` holds `k + LAG_SLACK` slots: appends fill it, and once
/// it is full the window is copied back to its first `k` slots, so a
/// push costs O(1) amortized and never allocates.
fn shift_in(buf: &mut [f64], end: &mut usize, k: usize, v: f64) {
    if *end == buf.len() {
        buf.copy_within(*end - k.., 0);
        *end = k;
    }
    buf[*end] = v;
    *end += 1;
}

impl ArimaFilter {
    /// The ARMA one-step prediction of `w[t]` from the lag windows held
    /// when `t` values of `w` have been seen: the intercept, then `p` lags
    /// of `w`, then `q` lagged innovations, each added only when it exists.
    fn arma_step(&self, t: usize, state: &ArimaState, w: &[f64], e: &[f64]) -> f64 {
        let mut pred = self.coef[0];
        for lag in 1..=self.p {
            if t >= lag {
                pred += self.coef[lag] * w[state.w_end - lag];
            }
        }
        for lag in 1..=self.q {
            if t >= lag {
                pred += self.coef[self.p + lag] * e[state.e_end - lag];
            }
        }
        pred
    }

    /// Consumes one value: the recurrence behind every ARIMA forecast.
    fn step(&self, state: &mut ArimaState, w: &mut [f64], e: &mut [f64], y: f64) {
        let n = state.n;
        state.n += 1;
        state.last = y;
        // Difference `d` times; the k-th level gets its first value when
        // the k-th observation arrives, and `w` only after all d levels.
        let mut v = y;
        for k in 0..self.d {
            let prev = state.levels[k];
            state.levels[k] = v;
            if n == k {
                return;
            }
            v -= prev;
        }
        if !self.fitted {
            return;
        }
        // Filter the innovation of the new `w` value: zero until `p`
        // lags exist, then the winsorized one-step residual. A pure AR
        // model (`q = 0`) never reads its innovations, so it skips them.
        if self.q > 0 {
            let t = state.tw;
            let innovation = if t >= self.p {
                (v - self.arma_step(t, state, w, e))
                    .clamp(-self.innovation_cap, self.innovation_cap)
            } else {
                0.0
            };
            shift_in(e, &mut state.e_end, self.q, innovation);
        }
        shift_in(w, &mut state.w_end, self.p, v);
        state.tw += 1;
    }
}

impl ForecastStream for ArimaStream {
    fn push(&mut self, y: f64) {
        self.push_slice(std::slice::from_ref(&y));
    }

    fn push_slice(&mut self, ys: &[f64]) {
        let mut state = self.state;
        for &y in ys {
            self.filter
                .step(&mut state, &mut self.w_lags, &mut self.e_lags, y);
        }
        self.state = state;
    }

    fn forecast(&self) -> f64 {
        let (f, s) = (&self.filter, &self.state);
        let fallback = if s.n == 0 { 0.0 } else { s.last };
        if !f.fitted || s.n < f.d + f.p.max(f.q) + 2 {
            return fallback;
        }
        // One-step forecast of `w`, integrated back `d` times by adding
        // the last value of each level, innermost first.
        let mut out = f.arma_step(s.tw, s, &self.w_lags, &self.e_lags);
        for &level in s.levels[..f.d].iter().rev() {
            out += level;
        }
        if out.is_finite() {
            out
        } else {
            fallback
        }
    }
}

impl Forecaster for Arima {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        let long_order = (self.p + self.q + 4).max(8);
        let needed = self.d + long_order + self.p.max(self.q) + 8;
        if series.len() < needed {
            return Err(ModelError::SeriesTooShort {
                needed,
                got: series.len(),
            });
        }
        let w = self.diff_all(series);
        let resid = Self::long_ar_residuals(&w, long_order).ok_or(ModelError::Numerical {
            context: "long-AR stage failed".into(),
        })?;

        // Stage 2: regress w_t on p lags of w and q lags of resid.
        let start = long_order.max(self.p).max(self.q);
        let rows: Vec<Vec<f64>> = (start..w.len())
            .map(|t| {
                let mut r = Vec::with_capacity(1 + self.p + self.q);
                r.push(1.0);
                for lag in 1..=self.p {
                    r.push(w[t - lag]);
                }
                for lag in 1..=self.q {
                    r.push(resid[t - lag]);
                }
                r
            })
            .collect();
        let targets: Vec<f64> = w[start..].to_vec();
        let x = Matrix::from_rows(&rows).map_err(|e| ModelError::Numerical {
            context: e.to_string(),
        })?;
        self.coef = ridge(&x, &targets, 1e-8).map_err(|e| ModelError::Numerical {
            context: e.to_string(),
        })?;
        // Enforce (approximate) invertibility of the MA part: the
        // innovation filter in `ArimaFilter::step` recurses on its own
        // output, so |θ| ≥ 1 diverges exponentially over long histories.
        // R's arima() enforces this via constrained optimization; clamping
        // is the lightweight equivalent.
        for theta in self.coef[1 + self.p..].iter_mut() {
            *theta = theta.clamp(-0.9, 0.9);
        }
        // Innovation cap for the filter: a few sigmas of the differenced
        // series, so a mis-specified model stays bounded.
        let w_mean = w.iter().sum::<f64>() / w.len() as f64;
        let w_std =
            (w.iter().map(|v| (v - w_mean) * (v - w_mean)).sum::<f64>() / w.len() as f64).sqrt();
        self.innovation_cap = (6.0 * w_std).max(1e-6);
        self.fitted = true;
        Ok(())
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        let mut stream = self.new_stream();
        stream.push_slice(history);
        stream.forecast()
    }

    fn stream(&self) -> Option<Box<dyn ForecastStream>> {
        Some(Box::new(self.new_stream()))
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// The stateless predict path this module served before the stream
/// existed, kept verbatim as the test oracle the stream is proven
/// against (see `crate::stream_differential`).
#[cfg(test)]
pub(crate) mod oracle {
    use super::Arima;
    use crate::forecaster::fallback_forecast;
    use eadrl_timeseries::transform::difference;

    impl Arima {
        /// Filters the fitted ARMA over `w`, returning the innovation sequence.
        fn oracle_filter_innovations(&self, w: &[f64]) -> Vec<f64> {
            let mut e = vec![0.0; w.len()];
            let start = self.p;
            for t in start..w.len() {
                let mut pred = self.coef[0];
                for lag in 1..=self.p {
                    pred += self.coef[lag] * w[t - lag];
                }
                for lag in 1..=self.q {
                    if t >= lag {
                        pred += self.coef[self.p + lag] * e[t - lag];
                    }
                }
                e[t] = (w[t] - pred).clamp(-self.innovation_cap, self.innovation_cap);
            }
            e
        }

        pub(crate) fn oracle_predict_next(&self, history: &[f64]) -> f64 {
            if !self.fitted || history.len() < self.d + self.p.max(self.q) + 2 {
                return fallback_forecast(history);
            }
            let w = self.diff_all(history);
            if w.len() < self.p.max(1) {
                return fallback_forecast(history);
            }
            let e = self.oracle_filter_innovations(&w);
            // One-step-ahead forecast of the differenced series.
            let t = w.len();
            let mut pred = self.coef[0];
            for lag in 1..=self.p {
                if t >= lag {
                    pred += self.coef[lag] * w[t - lag];
                }
            }
            for lag in 1..=self.q {
                if t >= lag {
                    pred += self.coef[self.p + lag] * e[t - lag];
                }
            }
            // Integrate back d times: forecast of x_{t+1} adds the last values
            // of each integration level.
            let mut levels: Vec<f64> = Vec::with_capacity(self.d);
            let mut cur = history.to_vec();
            for _ in 0..self.d {
                let Some(&last) = cur.last() else { break };
                levels.push(last);
                cur = difference(&cur, 1);
            }
            let mut out = pred;
            for &lvl in levels.iter().rev() {
                out += lvl;
            }
            if out.is_finite() {
                out
            } else {
                fallback_forecast(history)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1(phi: f64, c: f64, n: usize, seed: u64) -> Vec<f64> {
        // Deterministic LCG noise keeps the test hermetic.
        let mut state = seed;
        let mut noise = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut s = vec![c / (1.0 - phi)];
        for t in 1..n {
            let prev = s[t - 1];
            s.push(c + phi * prev + 0.3 * noise());
        }
        s
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let s = ar1(0.7, 1.0, 600, 42);
        let mut m = Arima::new(1, 0, 0);
        m.fit(&s).unwrap();
        assert!((m.coef[1] - 0.7).abs() < 0.1, "phi = {}", m.coef[1]);
    }

    #[test]
    fn forecasts_ar1_one_step() {
        let s = ar1(0.8, 0.5, 500, 7);
        let mut m = Arima::new(1, 0, 0);
        m.fit(&s).unwrap();
        let pred = m.predict_next(&s);
        let expected = m.coef[0] + m.coef[1] * s[s.len() - 1];
        assert!((pred - expected).abs() < 1e-9);
    }

    #[test]
    fn differencing_handles_linear_trend() {
        // x_t = 2t + AR noise: ARIMA(1,1,0) should forecast the next step
        // close to last + 2.
        let base = ar1(0.3, 0.0, 300, 9);
        let s: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(t, v)| 2.0 * t as f64 + v)
            .collect();
        let mut m = Arima::new(1, 1, 0);
        m.fit(&s).unwrap();
        let pred = m.predict_next(&s);
        let naive_trend = s[s.len() - 1] + 2.0;
        assert!(
            (pred - naive_trend).abs() < 1.0,
            "pred {pred} vs {naive_trend}"
        );
    }

    #[test]
    fn ma_component_is_fitted() {
        let s = ar1(0.5, 0.2, 500, 3);
        let mut m = Arima::new(1, 0, 1);
        m.fit(&s).unwrap();
        assert_eq!(m.coef.len(), 3);
        assert!(m.predict_next(&s).is_finite());
    }

    #[test]
    fn short_series_is_error_and_fallback_works() {
        let mut m = Arima::new(2, 1, 1);
        assert!(m.fit(&[1.0, 2.0, 3.0]).is_err());
        // Unfitted: falls back to last value.
        assert_eq!(m.predict_next(&[5.0, 6.0]), 6.0);
    }

    #[test]
    #[should_panic(expected = "p + q > 0")]
    fn degenerate_orders_panic() {
        let _ = Arima::new(0, 1, 0);
    }

    #[test]
    fn orders_accessor() {
        assert_eq!(Arima::new(2, 1, 1).orders(), (2, 1, 1));
    }

    #[test]
    fn fitted_arima_leaves_white_residuals_on_ar_data() {
        use eadrl_timeseries::stats::ljung_box;
        let s = ar1(0.8, 0.5, 600, 13);
        let mut m = Arima::new(1, 0, 0);
        m.fit(&s).unwrap();
        // One-step rolling residuals over the second half.
        let residuals: Vec<f64> = (300..s.len())
            .map(|t| s[t] - m.predict_next(&s[..t]))
            .collect();
        let q = ljung_box(&residuals, 10).unwrap();
        // Raw series is strongly autocorrelated; residuals should not be.
        let q_raw = ljung_box(&s[300..], 10).unwrap();
        assert!(q < 0.2 * q_raw, "residual Q {q} vs raw Q {q_raw}");
    }
}
