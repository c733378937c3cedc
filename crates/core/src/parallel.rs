//! Parallel pool operations: base-model fitting and the rolling
//! pool-prediction matrix, routed through `eadrl-par`.
//!
//! Both operations are embarrassingly parallel across pool members and
//! deterministic per member (every base model is seeded by its own
//! configuration, never by a generator shared across members), so the
//! index-merged [`eadrl_par::par_map`] makes the parallel output
//! bitwise identical to the serial one at every `EADRL_PAR_THREADS`
//! setting — `crates/core/tests/par_determinism.rs` is the differential
//! proof.

use eadrl_models::{fallback_forecast, Forecaster};
use eadrl_obs::Level;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fits every pool member on `fit_part` in parallel, preserving pool
/// order. Returns the fitted members plus the names of the members the
/// series could not support (also in pool order). A member whose `fit`
/// panics is dropped individually — its name is captured before the
/// call, so the drop report stays precise even though the panicked
/// model itself is discarded — instead of taking down the whole sweep.
pub fn fit_pool(
    pool: Vec<Box<dyn Forecaster>>,
    fit_part: &[f64],
) -> (Vec<Box<dyn Forecaster>>, Vec<String>) {
    let fitted = eadrl_par::par_map(pool, |mut model| {
        let name = model.name().to_string();
        match catch_unwind(AssertUnwindSafe(|| model.fit(fit_part))) {
            Ok(Ok(())) => Ok(model),
            Ok(Err(_)) => Err(name),
            Err(_) => Err(format!("{name} (fit panicked)")),
        }
    });
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    match fitted {
        Ok(results) => {
            for outcome in results {
                match outcome {
                    Ok(model) => kept.push(model),
                    Err(name) => dropped.push(name),
                }
            }
        }
        Err(err) => {
            // Unreachable with the per-member catch above unless `name`
            // or a destructor panics; keep the sweep alive regardless.
            eadrl_obs::warn(
                "par.panic",
                &[("context", format!("{err}").as_str().into())],
            );
            dropped.push(format!("pool batch lost: {err}"));
        }
    }
    (kept, dropped)
}

/// Rolling one-step prediction matrix `preds[t][i]` of a fitted pool
/// over `segment`, with the preceding history given by `train` — model
/// `i`'s forecasts computed in parallel across the pool, then merged by
/// pool index and transposed into per-step rows.
///
/// The per-model rolling state (the growing history buffer) is
/// allocated once per member up front — not re-sliced and re-grown per
/// timestep — and the transpose pre-sizes every row, so the matrix
/// costs exactly `m + t + 2` allocations for an `m`-model pool over `t`
/// steps.
pub fn prediction_matrix(
    pool: &[Box<dyn Forecaster>],
    train: &[f64],
    segment: &[f64],
) -> Vec<Vec<f64>> {
    let refs: Vec<&dyn Forecaster> = pool.iter().map(AsRef::as_ref).collect();
    let per_model = match eadrl_par::par_map(refs, |model| guarded_rolling(model, train, segment)) {
        Ok(columns) => columns,
        Err(err) => {
            eadrl_obs::event(
                "par.panic",
                Level::Warn,
                &[("context", format!("{err}").as_str().into())],
            );
            // Serial fallback keeps the forecast path alive; with the
            // per-step guard inside `guarded_rolling` this is only
            // reachable through a panicking destructor.
            pool.iter()
                .map(|m| guarded_rolling(m.as_ref(), train, segment))
                .collect()
        }
    };
    // Fault telemetry is emitted *after* the index-ordered merge, never
    // from inside a worker: worker-side emission would interleave events
    // in thread-completion order and break the telemetry-determinism
    // contract across `EADRL_PAR_THREADS` settings.
    for (i, (column, faults)) in per_model.iter().enumerate() {
        if *faults > 0 {
            eadrl_obs::event(
                "eadrl.degraded",
                Level::Warn,
                &[
                    ("context", "prediction_matrix".into()),
                    ("model", pool[i].name().into()),
                    ("faults", (*faults).into()),
                    ("steps", column.len().into()),
                ],
            );
        }
    }
    let mut rows = Vec::with_capacity(segment.len());
    for t in 0..segment.len() {
        let mut row = Vec::with_capacity(per_model.len());
        for (column, _) in &per_model {
            row.push(column[t]);
        }
        rows.push(row);
    }
    rows
}

/// [`eadrl_models::rolling_forecast`] with a per-step degradation
/// guard: a step on which the model panics or emits a non-finite value
/// contributes the documented history fallback instead of poisoning the
/// column (or the whole sweep). On a well-behaved model this is
/// call-for-call identical to the unguarded walk, so the clean-path
/// matrix stays bitwise equal to the unguarded one. Returns the
/// column plus its fault count; the caller owns fault telemetry (workers
/// must not emit events — see `prediction_matrix`).
fn guarded_rolling(model: &dyn Forecaster, train: &[f64], segment: &[f64]) -> (Vec<f64>, usize) {
    let mut history = Vec::with_capacity(train.len() + segment.len());
    history.extend_from_slice(train);
    let mut out = Vec::with_capacity(segment.len());
    let mut faults = 0usize;
    for &actual in segment {
        match crate::guard::guarded_call(model, &history, None) {
            Ok(value) => out.push(value),
            Err(_) => {
                faults += 1;
                out.push(fallback_forecast(&history));
            }
        }
        history.push(actual);
    }
    (out, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_models::{auto_regressive, rolling_forecast, Naive, SeasonalNaive};

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 4.0 + 10.0)
            .collect()
    }

    fn pool() -> Vec<Box<dyn Forecaster>> {
        vec![
            Box::new(Naive),
            Box::new(SeasonalNaive::new(12)),
            Box::new(auto_regressive(4, 1e-3)),
        ]
    }

    #[test]
    fn fit_pool_keeps_order_and_reports_drops() {
        let s = series(120);
        let mut p = pool();
        p.push(Box::new(SeasonalNaive::new(100_000)));
        let (kept, dropped) = fit_pool(p, &s);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].name(), "Naive");
        assert_eq!(dropped, vec!["SeasonalNaive".to_string()]);
    }

    /// Misbehaving member for hardening tests: panics in `fit` and/or
    /// emits NaN every `nan_every`-th prediction.
    #[derive(Debug, Clone)]
    struct Misbehaving {
        panic_on_fit: bool,
        nan_every: usize,
    }

    impl Forecaster for Misbehaving {
        fn name(&self) -> &str {
            "Misbehaving"
        }
        fn fit(&mut self, _s: &[f64]) -> Result<(), eadrl_models::ModelError> {
            if self.panic_on_fit {
                panic!("injected fit panic");
            }
            Ok(())
        }
        fn predict_next(&self, history: &[f64]) -> f64 {
            if self.nan_every > 0 && history.len().is_multiple_of(self.nan_every) {
                f64::NAN
            } else {
                history.last().copied().unwrap_or(0.0) + 1.0
            }
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn panicking_fit_drops_only_the_offender() {
        let s = series(120);
        let mut p = pool();
        p.push(Box::new(Misbehaving {
            panic_on_fit: true,
            nan_every: 0,
        }));
        let (kept, dropped) = fit_pool(p, &s);
        assert_eq!(kept.len(), 3, "healthy members survive a peer's panic");
        assert_eq!(dropped, vec!["Misbehaving (fit panicked)".to_string()]);
    }

    #[test]
    fn non_finite_prediction_steps_fall_back_instead_of_poisoning() {
        let s = series(150);
        let (train, seg) = s.split_at(120);
        let faulty: Vec<Box<dyn Forecaster>> = vec![
            Box::new(Naive),
            Box::new(Misbehaving {
                panic_on_fit: false,
                nan_every: 7,
            }),
        ];
        let rows = prediction_matrix(&faulty, train, seg);
        assert_eq!(rows.len(), seg.len());
        for (t, row) in rows.iter().enumerate() {
            assert!(
                row.iter().all(|v| v.is_finite()),
                "non-finite entry leaked at step {t}: {row:?}"
            );
        }
    }

    #[test]
    fn matrix_matches_the_serial_rolling_forecast_bitwise() {
        let s = series(150);
        let (train, seg) = s.split_at(120);
        let (kept, _) = fit_pool(pool(), train);
        let rows = prediction_matrix(&kept, train, seg);
        assert_eq!(rows.len(), seg.len());
        for (i, model) in kept.iter().enumerate() {
            let serial = rolling_forecast(model.as_ref(), train, seg);
            for (t, row) in rows.iter().enumerate() {
                assert_eq!(row[i].to_bits(), serial[t].to_bits(), "model {i} step {t}");
            }
        }
    }
}
