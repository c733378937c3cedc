//! Exponential-smoothing forecasters (SES, Holt, additive Holt–Winters).

use crate::forecaster::{ForecastStream, Forecaster, ModelError};

/// The exponential-smoothing variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtsKind {
    /// Simple exponential smoothing (level only).
    Simple,
    /// Holt's linear trend method (level + trend).
    Holt,
    /// Additive Holt–Winters (level + trend + seasonal) with the given
    /// period.
    HoltWinters {
        /// Seasonal period in observations.
        period: usize,
    },
}

/// An ETS forecaster whose smoothing parameters are selected by grid search
/// on one-step-ahead training SSE (the standard automatic-ETS approach at
/// laptop scale).
#[derive(Debug, Clone)]
pub struct Ets {
    name: String,
    kind: EtsKind,
    alpha: f64,
    beta: f64,
    gamma: f64,
    fitted: bool,
}

impl Ets {
    /// Creates an unfitted ETS model.
    ///
    /// # Panics
    /// Panics for a Holt–Winters period < 2.
    pub fn new(kind: EtsKind) -> Self {
        if let EtsKind::HoltWinters { period } = kind {
            assert!(period >= 2, "Holt-Winters period must be >= 2");
        }
        let name = match kind {
            EtsKind::Simple => "ETS(SES)".to_string(),
            EtsKind::Holt => "ETS(Holt)".to_string(),
            EtsKind::HoltWinters { period } => format!("ETS(HW,{period})"),
        };
        Ets {
            name,
            kind,
            alpha: 0.3,
            beta: 0.1,
            gamma: 0.1,
            fitted: false,
        }
    }

    /// Selected `(alpha, beta, gamma)` after fitting.
    pub fn params(&self) -> (f64, f64, f64) {
        (self.alpha, self.beta, self.gamma)
    }

    /// A fresh serving stream with smoothing parameters `(alpha, beta,
    /// gamma)`; `fitted: false` makes every forecast the fallback.
    fn new_stream(&self, alpha: f64, beta: f64, gamma: f64, fitted: bool) -> EtsStream {
        let buffered = match self.kind {
            EtsKind::HoltWinters { period } => 2 * period,
            _ => 0,
        };
        EtsStream {
            fitted,
            state: Smoothing {
                kind: self.kind,
                alpha,
                beta,
                gamma,
                n: 0,
                last: 0.0,
                level: 0.0,
                trend: 0.0,
                sse: 0.0,
            },
            season: vec![0.0; buffered],
        }
    }
}

/// ETS's incremental one-step state: level, trend and (Holt–Winters)
/// seasonal terms, plus the one-step SSE accumulated over the pass —
/// the quantity `fit`'s grid search minimizes.
///
/// SES seeds its level from the first value. Holt also seeds its trend
/// from the second. Holt–Winters runs the Holt recursion (its fallback
/// for short histories) until `2·period` values have arrived, buffering
/// them; it then seeds level and trend from the means of the first two
/// seasons and the seasonal terms from first-season deviations, and
/// replays the recursion over the second season. Every later push is one
/// O(1) recursion step.
#[derive(Debug, Clone)]
struct EtsStream {
    fitted: bool,
    state: Smoothing,
    /// Holt–Winters only (`2·period` slots): the first two seasons as
    /// they arrive; from seeding on, the first `period` slots are the
    /// seasonal terms.
    season: Vec<f64>,
}

/// The smoothing recursion's scalar state, copied into locals while a
/// slice is pushed.
#[derive(Debug, Clone, Copy)]
struct Smoothing {
    kind: EtsKind,
    alpha: f64,
    beta: f64,
    gamma: f64,
    /// Values pushed so far.
    n: usize,
    /// The last value pushed: the fallback forecast.
    last: f64,
    level: f64,
    trend: f64,
    /// One-step SSE of the recursion run so far.
    sse: f64,
}

impl Smoothing {
    /// Consumes one value: the recurrence behind every ETS forecast and
    /// `fit`'s SSE.
    fn step(&mut self, season: &mut [f64], x: f64) {
        let t = self.n;
        self.n += 1;
        self.last = x;
        match self.kind {
            EtsKind::Simple => {
                if t == 0 {
                    self.level = x;
                } else {
                    let err = x - self.level;
                    self.sse += err * err;
                    self.level += self.alpha * err;
                }
            }
            EtsKind::Holt => self.holt_step(t, x),
            EtsKind::HoltWinters { period } => {
                if t >= 2 * period {
                    self.seasonal_step(season, t, x, period);
                } else {
                    // Too short for seasonal init: degrade to Holt.
                    season[t] = x;
                    self.holt_step(t, x);
                    if t + 1 == 2 * period {
                        self.seed_seasonal(season, period);
                    }
                }
            }
        }
    }

    /// One Holt step for the `t`-th value (`t` counts from 0).
    fn holt_step(&mut self, t: usize, x: f64) {
        match t {
            0 => {
                self.level = x;
                self.trend = 0.0;
                return;
            }
            1 => self.trend = x - self.level,
            _ => {}
        }
        let forecast = self.level + self.trend;
        let err = x - forecast;
        self.sse += err * err;
        let new_level = self.alpha * x + (1.0 - self.alpha) * (self.level + self.trend);
        self.trend = self.beta * (new_level - self.level) + (1.0 - self.beta) * self.trend;
        self.level = new_level;
    }

    /// One Holt–Winters step for the `t`-th value.
    fn seasonal_step(&mut self, season: &mut [f64], t: usize, x: f64, period: usize) {
        let sidx = t % period;
        let seasonal = season[sidx];
        let forecast = self.level + self.trend + seasonal;
        let err = x - forecast;
        self.sse += err * err;
        let new_level =
            self.alpha * (x - seasonal) + (1.0 - self.alpha) * (self.level + self.trend);
        self.trend = self.beta * (new_level - self.level) + (1.0 - self.beta) * self.trend;
        season[sidx] = self.gamma * (x - new_level) + (1.0 - self.gamma) * seasonal;
        self.level = new_level;
    }

    /// Seeds the Holt–Winters state from the buffered first two seasons
    /// and replays the recursion over the second one. The seasonal terms
    /// overwrite the first season in place: the replay reads only the
    /// second.
    fn seed_seasonal(&mut self, season: &mut [f64], period: usize) {
        let s1: f64 = season[..period].iter().sum::<f64>() / period as f64;
        let s2: f64 = season[period..2 * period].iter().sum::<f64>() / period as f64;
        self.level = s1;
        self.trend = (s2 - s1) / period as f64;
        for x in &mut season[..period] {
            *x -= s1;
        }
        self.sse = 0.0;
        for t in period..2 * period {
            let x = season[t];
            self.seasonal_step(season, t, x, period);
        }
    }
}

impl ForecastStream for EtsStream {
    fn push(&mut self, x: f64) {
        self.push_slice(std::slice::from_ref(&x));
    }

    fn push_slice(&mut self, xs: &[f64]) {
        let mut state = self.state;
        for &x in xs {
            state.step(&mut self.season, x);
        }
        self.state = state;
    }

    fn forecast(&self) -> f64 {
        let s = &self.state;
        let fallback = if s.n == 0 { 0.0 } else { s.last };
        if !self.fitted || s.n < 2 {
            return fallback;
        }
        let forecast = match s.kind {
            EtsKind::Simple => s.level,
            EtsKind::HoltWinters { period } if s.n >= 2 * period => {
                s.level + s.trend + self.season[s.n % period]
            }
            _ => s.level + s.trend,
        };
        if forecast.is_finite() {
            forecast
        } else {
            fallback
        }
    }
}

impl Forecaster for Ets {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        let needed = match self.kind {
            EtsKind::HoltWinters { period } => (2 * period).max(10),
            _ => 10,
        };
        if series.len() < needed {
            return Err(ModelError::SeriesTooShort {
                needed,
                got: series.len(),
            });
        }
        // Coarse grid search over smoothing parameters.
        let grid = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
        let beta_grid: &[f64] = match self.kind {
            EtsKind::Simple => &[0.0],
            _ => &[0.01, 0.05, 0.1, 0.3],
        };
        let gamma_grid: &[f64] = match self.kind {
            EtsKind::HoltWinters { .. } => &[0.05, 0.1, 0.3],
            _ => &[0.0],
        };
        let mut best = (f64::INFINITY, 0.3, 0.1, 0.1);
        for &a in &grid {
            for &b in beta_grid {
                for &g in gamma_grid {
                    let mut stream = self.new_stream(a, b, g, false);
                    stream.push_slice(series);
                    let sse = stream.state.sse;
                    if sse < best.0 {
                        best = (sse, a, b, g);
                    }
                }
            }
        }
        self.alpha = best.1;
        self.beta = best.2;
        self.gamma = best.3;
        self.fitted = true;
        Ok(())
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        let mut stream = self.new_stream(self.alpha, self.beta, self.gamma, self.fitted);
        stream.push_slice(history);
        stream.forecast()
    }

    fn stream(&self) -> Option<Box<dyn ForecastStream>> {
        Some(Box::new(self.new_stream(
            self.alpha,
            self.beta,
            self.gamma,
            self.fitted,
        )))
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
    use super::{Ets, EtsKind};
    use crate::forecaster::fallback_forecast;

    impl Ets {
        /// Runs the smoothing recursion over `series` and returns the one-step
        /// forecast for the value after the series, plus the accumulated
        /// one-step SSE over the pass.
        pub(crate) fn oracle_run(
            &self,
            series: &[f64],
            alpha: f64,
            beta: f64,
            gamma: f64,
        ) -> (f64, f64) {
            match self.kind {
                EtsKind::Simple => {
                    let mut level = series[0];
                    let mut sse = 0.0;
                    for &x in &series[1..] {
                        let err = x - level;
                        sse += err * err;
                        level += alpha * err;
                    }
                    (level, sse)
                }
                EtsKind::Holt => {
                    let mut level = series[0];
                    let mut trend = if series.len() > 1 {
                        series[1] - series[0]
                    } else {
                        0.0
                    };
                    let mut sse = 0.0;
                    for &x in &series[1..] {
                        let forecast = level + trend;
                        let err = x - forecast;
                        sse += err * err;
                        let new_level = alpha * x + (1.0 - alpha) * (level + trend);
                        trend = beta * (new_level - level) + (1.0 - beta) * trend;
                        level = new_level;
                    }
                    (level + trend, sse)
                }
                EtsKind::HoltWinters { period } => {
                    if series.len() < 2 * period {
                        // Too short for seasonal init; degrade to Holt.
                        let holt = Ets {
                            kind: EtsKind::Holt,
                            ..self.clone()
                        };
                        return holt.oracle_run(series, alpha, beta, 0.0);
                    }
                    // Initialize level/trend from the first two seasons and the
                    // seasonal terms from first-season deviations.
                    let s1: f64 = series[..period].iter().sum::<f64>() / period as f64;
                    let s2: f64 = series[period..2 * period].iter().sum::<f64>() / period as f64;
                    let mut level = s1;
                    let mut trend = (s2 - s1) / period as f64;
                    let mut seasonal: Vec<f64> = series[..period].iter().map(|&x| x - s1).collect();
                    let mut sse = 0.0;
                    for (t, &x) in series.iter().enumerate().skip(period) {
                        let sidx = t % period;
                        let forecast = level + trend + seasonal[sidx];
                        let err = x - forecast;
                        sse += err * err;
                        let new_level =
                            alpha * (x - seasonal[sidx]) + (1.0 - alpha) * (level + trend);
                        trend = beta * (new_level - level) + (1.0 - beta) * trend;
                        seasonal[sidx] = gamma * (x - new_level) + (1.0 - gamma) * seasonal[sidx];
                        level = new_level;
                    }
                    let next_sidx = series.len() % period;
                    (level + trend + seasonal[next_sidx], sse)
                }
            }
        }

        pub(crate) fn oracle_predict_next(&self, history: &[f64]) -> f64 {
            if !self.fitted || history.len() < 2 {
                return fallback_forecast(history);
            }
            let (forecast, _) = self.oracle_run(history, self.alpha, self.beta, self.gamma);
            if forecast.is_finite() {
                forecast
            } else {
                fallback_forecast(history)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ses_on_constant_series_predicts_constant() {
        let s = vec![4.0; 30];
        let mut m = Ets::new(EtsKind::Simple);
        m.fit(&s).unwrap();
        assert!((m.predict_next(&s) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ses_picks_high_alpha_for_random_walk_like_data() {
        // Alternating large jumps: recent value matters most.
        let mut s = vec![0.0];
        let mut state = 11u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let step = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            s.push(s.last().unwrap() + step);
        }
        let mut m = Ets::new(EtsKind::Simple);
        m.fit(&s).unwrap();
        assert!(m.params().0 >= 0.5, "alpha = {}", m.params().0);
    }

    #[test]
    fn holt_extrapolates_linear_trend() {
        let s: Vec<f64> = (0..60).map(|t| 3.0 * t as f64 + 5.0).collect();
        let mut m = Ets::new(EtsKind::Holt);
        m.fit(&s).unwrap();
        let pred = m.predict_next(&s);
        assert!((pred - (3.0 * 60.0 + 5.0)).abs() < 0.5, "pred {pred}");
    }

    #[test]
    fn holt_winters_tracks_seasonal_pattern() {
        let s: Vec<f64> = (0..96)
            .map(|t| 10.0 + [0.0, 5.0, 8.0, 5.0, 0.0, -5.0, -8.0, -5.0][t % 8])
            .collect();
        let mut m = Ets::new(EtsKind::HoltWinters { period: 8 });
        m.fit(&s).unwrap();
        let pred = m.predict_next(&s);
        let truth = 10.0 + 0.0; // t = 96 -> phase 0
        assert!((pred - truth).abs() < 1.0, "pred {pred} truth {truth}");
    }

    #[test]
    fn holt_winters_degrades_gracefully_on_short_history() {
        let mut m = Ets::new(EtsKind::HoltWinters { period: 12 });
        let s: Vec<f64> = (0..40).map(|t| t as f64).collect();
        m.fit(&s).unwrap();
        // Online: history shorter than 2 periods still forecasts.
        let pred = m.predict_next(&s[..20]);
        assert!(pred.is_finite());
    }

    #[test]
    fn stream_sse_matches_the_oracle_over_the_fit_grid() {
        // `fit` ranks the grid by the stream's SSE; it must be the
        // oracle's to the bit, so the same parameters are selected.
        let s: Vec<f64> = (0..90)
            .map(|t| 10.0 + 0.1 * t as f64 + [0.0, 4.0, 7.0, 3.0, -2.0, -5.0][t % 6])
            .collect();
        for kind in [
            EtsKind::Simple,
            EtsKind::Holt,
            EtsKind::HoltWinters { period: 6 },
            EtsKind::HoltWinters { period: 60 },
        ] {
            let m = Ets::new(kind);
            for (a, b, g) in [(0.05, 0.01, 0.05), (0.3, 0.1, 0.1), (0.9, 0.3, 0.3)] {
                let mut stream = m.new_stream(a, b, g, false);
                stream.push_slice(&s);
                let (_, want) = m.oracle_run(&s, a, b, g);
                assert_eq!(
                    stream.state.sse.to_bits(),
                    want.to_bits(),
                    "{kind:?} {a} {b} {g}"
                );
            }
        }
    }

    #[test]
    fn fit_length_requirement() {
        let mut m = Ets::new(EtsKind::Simple);
        assert!(m.fit(&[1.0; 5]).is_err());
        let mut hw = Ets::new(EtsKind::HoltWinters { period: 24 });
        assert!(hw.fit(&[1.0; 40]).is_err());
    }

    #[test]
    #[should_panic(expected = "period must be >= 2")]
    fn tiny_period_panics() {
        let _ = Ets::new(EtsKind::HoltWinters { period: 1 });
    }
}
