//! `serve_long`: the guarded production serving path as history grows.
//! One `EaDrl` is fitted on the first [`TRAIN_LEN`] points of a long
//! series; one operation is one `EaDrl::predict_next` over everything
//! observed so far, after which the next value is revealed. No policy
//! training runs while serving.

use super::{
    eadrl_config, family_key, guard_faults, series, Ctx, Layers, Pass, Workload, EMBEDDING,
    PREDICT_FAMILIES, TRAIN_LEN,
};
use crate::stats::{median, RelError};
use crate::trace::Tracer;
use eadrl_core::{fit_pool, EaDrl};
use eadrl_datasets::DatasetId;
use eadrl_models::standard_pool;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The long series: hourly humidity, stationary around its daily cycle,
/// so members fitted on the first [`TRAIN_LEN`] points stay in range
/// and `rel_rmse` measures the ensemble, not the drift.
pub const DATASET: DatasetId = DatasetId::BikeHumidity;

/// Served steps per pass; the history grows from [`TRAIN_LEN`] to
/// `TRAIN_LEN + STEPS` observations. Sized so that a 20 s run holds
/// three passes, whose median throughput is reported.
pub const STEPS: usize = 10_000;

/// In the traced pass, the clone pool is probed on every `PROBE_EVERY`-th
/// step of the last tenth.
const PROBE_EVERY: usize = 8;

/// The `serve_long` workload.
pub struct ServeLong;

/// A fitted model and the series it serves.
pub struct Instance {
    values: Vec<f64>,
    season: usize,
    model: EaDrl,
}

impl Workload for ServeLong {
    type Instance = Instance;

    fn setup(&self, ctx: &Ctx) -> Result<Instance, String> {
        let s = series(DATASET, TRAIN_LEN + STEPS, ctx.seed);
        let pool = standard_pool(EMBEDDING, s.season, ctx.seed);
        let mut model = EaDrl::new(pool, eadrl_config(ctx.seed));
        model
            .fit(&s.values[..TRAIN_LEN])
            .map_err(|e| format!("serve_long: EaDrl::fit failed: {e}"))?;
        if !model.dropped_models().is_empty() {
            return Err(format!(
                "serve_long: fit dropped members {:?}",
                model.dropped_models()
            ));
        }
        Ok(Instance {
            values: s.values,
            season: s.season,
            model,
        })
    }

    fn pass(
        &self,
        ctx: &Ctx,
        instance: Instance,
        tracer: &mut Tracer,
    ) -> Result<(Pass, Layers), String> {
        let Instance {
            values,
            season,
            mut model,
        } = instance;
        // The traced pass times every member alone on a clone pool fitted
        // exactly as `EaDrl::fit` fitted its own.
        let probe_pool = if tracer.enabled() {
            let config = eadrl_config(ctx.seed);
            let fit_len = (TRAIN_LEN as f64 * (1.0 - config.val_fraction)).round() as usize;
            let (pool, _) = fit_pool(
                standard_pool(EMBEDDING, season, ctx.seed),
                &values[..fit_len],
            );
            let names: Vec<&str> = pool.iter().map(|m| m.name()).collect();
            if names != model.model_names() {
                return Err("serve_long: probe pool differs from the served pool".into());
            }
            pool
        } else {
            Vec::new()
        };
        let head_end = STEPS / 10;
        let tail_start = STEPS - STEPS / 10;

        let mut pass = Pass::default();
        let mut err = RelError::default();
        let mut probes: Vec<(u64, BTreeMap<&str, f64>)> = Vec::new();
        let m = model.n_models();
        let mut faults = guard_faults(model.guard(), m);
        let mut history = Vec::with_capacity(values.len());
        history.extend_from_slice(&values[..TRAIN_LEN]);
        for (step, &actual) in values[TRAIN_LEN..].iter().enumerate() {
            let op = tracer.begin_op("serve.step");
            let forecast = tracer.span("core.predict_next", || model.predict_next(&history));
            let ns = tracer.exit(op);
            pass.latencies_ms.push(ns as f64 / 1e6);

            if !probe_pool.is_empty()
                && step >= tail_start
                && (step - tail_start).is_multiple_of(PROBE_EVERY)
            {
                let mut by_family: BTreeMap<&str, f64> = BTreeMap::new();
                for member in &probe_pool {
                    let start = Instant::now();
                    black_box(member.predict_next(black_box(&history)));
                    *by_family
                        .entry(family_key(member.name(), &PREDICT_FAMILIES))
                        .or_default() += start.elapsed().as_nanos() as f64;
                }
                probes.push((tracer.op(), by_family));
            }

            let now = guard_faults(model.guard(), m);
            pass.tally.record(forecast.is_finite(), now - faults, true);
            faults = now;
            err.push(forecast, actual, history[history.len() - 1]);
            pass.digest.push(forecast);
            history.push(actual);
        }
        pass.rel_rmse = err.ratio();

        let mut layers = Layers::new();
        if tracer.enabled() {
            let predict = tracer.durations("core.predict_next");
            let window_p50 = |range: std::ops::Range<usize>| {
                let us: Vec<f64> = predict[range]
                    .iter()
                    .map(|&(_, ns)| ns as f64 / 1e3)
                    .collect();
                median(&us).unwrap_or(0.0)
            };
            layers.push((
                "core.predict_next_us.head".into(),
                window_p50(0..head_end),
                "us",
            ));
            layers.push((
                "core.predict_next_us.tail".into(),
                window_p50(tail_start..STEPS),
                "us",
            ));
            // Medians over the probed steps: a probe runs at another
            // moment than the step it shadows, so single pairs are noisy.
            for family in PREDICT_FAMILIES {
                let us: Vec<f64> = probes
                    .iter()
                    .map(|(_, f)| f.get(family).copied().unwrap_or(0.0) / 1e3)
                    .collect();
                layers.push((
                    format!("models.predict_us.{family}"),
                    median(&us).unwrap_or(0.0),
                    "us",
                ));
            }
            // Ops are numbered from 1 in step order.
            let overhead_us: Vec<f64> = probes
                .iter()
                .map(|(op, f)| (predict[*op as usize - 1].1 as f64 - f.values().sum::<f64>()) / 1e3)
                .collect();
            layers.push((
                "core.serve_overhead_us".into(),
                median(&overhead_us).unwrap_or(0.0),
                "us",
            ));
        }
        Ok((pass, layers))
    }
}
