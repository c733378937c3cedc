//! `fit`: offline policy learning. One operation fits one Table I series
//! through the sequence `EaDrl::fit` runs — `parallel::fit_pool`, then
//! `parallel::prediction_matrix` over the validation tail, then
//! `EaDrlPolicy::warm_up` — on the Table II split (75 % train, of which
//! 25 % is the validation tail). No serving code is timed.

use super::{
    eadrl_config, family_key, mean_span, series, Ctx, Layers, Pass, Workload, EMBEDDING,
    FIT_FAMILIES, TRAIN_LEN,
};
use crate::stats::{geometric_mean, mean, RelError};
use crate::trace::Tracer;
use eadrl_core::{fit_pool, prediction_matrix, run_combiner, sanitize_predictions};
use eadrl_core::{Combiner, EaDrlPolicy};
use eadrl_datasets::DatasetId;
use eadrl_models::{standard_pool, Forecaster};
use std::collections::BTreeMap;
use std::time::Instant;

/// The series one pass fits, one per cadence of Table I.
pub const DATASETS: [DatasetId; 4] = [
    DatasetId::WaterConsumption,
    DatasetId::BikeRentals,
    DatasetId::TaxiDemand1,
    DatasetId::EnergyTempOut,
];

/// The `fit` workload.
pub struct Fit;

/// One series with its unfitted 43-model pool.
pub struct Input {
    values: Vec<f64>,
    pool: Vec<Box<dyn Forecaster>>,
}

impl Workload for Fit {
    type Instance = Vec<Input>;

    fn setup(&self, ctx: &Ctx) -> Result<Vec<Input>, String> {
        Ok(DATASETS
            .iter()
            .map(|&id| {
                let s = series(id, TRAIN_LEN, ctx.seed);
                Input {
                    pool: standard_pool(EMBEDDING, s.season, ctx.seed),
                    values: s.values,
                }
            })
            .collect())
    }

    fn pass(
        &self,
        ctx: &Ctx,
        inputs: Vec<Input>,
        tracer: &mut Tracer,
    ) -> Result<(Pass, Layers), String> {
        let config = eadrl_config(ctx.seed);
        let mut pass = Pass::default();
        let mut rel = Vec::new();
        let mut episodes = Vec::new();
        let mut member_fit_ms: BTreeMap<&str, f64> = BTreeMap::new();
        let datasets = inputs.len();
        for input in inputs {
            let cut = (input.values.len() as f64 * 0.75).round() as usize;
            let (train, test) = input.values.split_at(cut);
            let fit_len = (train.len() as f64 * (1.0 - config.val_fraction)).round() as usize;
            let (fit_part, val_part) = train.split_at(fit_len);

            if tracer.enabled() {
                // Each member alone on a clone, outside the operation.
                for member in &input.pool {
                    let mut clone = member.box_clone();
                    let start = Instant::now();
                    let fitted = clone.fit(fit_part);
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    std::hint::black_box(fitted.is_ok());
                    *member_fit_ms
                        .entry(family_key(member.name(), &FIT_FAMILIES))
                        .or_default() += ms;
                }
            }

            let op = tracer.begin_op("fit.dataset");
            let (pool, dropped) = tracer.span("core.fit_pool", || fit_pool(input.pool, fit_part));
            let mut preds = tracer.span("core.prediction_matrix", || {
                prediction_matrix(&pool, fit_part, val_part)
            });
            sanitize_predictions(&mut preds, fit_part);
            let mut policy = EaDrlPolicy::new(config.clone());
            tracer.span("core.warm_up", || policy.warm_up(&preds, val_part));
            let ns = tracer.exit(op);
            pass.latencies_ms.push(ns as f64 / 1e6);

            // Accuracy of the fitted ensemble on the held-out test
            // segment, outside the operation.
            let mut test_preds = prediction_matrix(&pool, train, test);
            sanitize_predictions(&mut test_preds, train);
            let forecasts = run_combiner(&mut policy, &test_preds, test);
            let mut err = RelError::default();
            let mut last = train[train.len() - 1];
            for (&forecast, &actual) in forecasts.iter().zip(test) {
                err.push(forecast, actual, last);
                pass.digest.push(forecast);
                last = actual;
            }
            rel.push(err.ratio());
            episodes.push(policy.learning_curve().len() as f64);
            let finite = forecasts.iter().all(|f| f.is_finite());
            pass.tally
                .record(finite, 0, dropped.is_empty() && policy.is_trained());
        }
        pass.rel_rmse = geometric_mean(&rel);

        let mut layers = Layers::new();
        if tracer.enabled() {
            let warm_up_ms = mean_span(tracer, "core.warm_up", 1e6);
            let episodes = mean(&episodes);
            layers.push((
                "core.fit_pool_ms".into(),
                mean_span(tracer, "core.fit_pool", 1e6),
                "ms",
            ));
            layers.push((
                "core.prediction_matrix_ms".into(),
                mean_span(tracer, "core.prediction_matrix", 1e6),
                "ms",
            ));
            layers.push(("core.warm_up_ms".into(), warm_up_ms, "ms"));
            layers.push(("rl.episodes".into(), episodes, "count"));
            layers.push((
                "rl.episode_ms".into(),
                if episodes > 0.0 {
                    warm_up_ms / episodes
                } else {
                    0.0
                },
                "ms",
            ));
            for family in FIT_FAMILIES {
                let total = member_fit_ms.get(family).copied().unwrap_or(0.0);
                layers.push((
                    format!("models.fit_ms.{family}"),
                    total / datasets.max(1) as f64,
                    "ms",
                ));
            }
        }
        Ok((pass, layers))
    }
}
