//! `adapt`: a monitored deployment with policy refresh beside serving.
//! One operation is one step of the adaptive loop — `PoolGuard::sweep`,
//! `AdaptiveEaDrl::combine`, then `AdaptiveEaDrl::observe` with the
//! revealed value — under a periodic trigger with warm-start refresh.
//! Program telemetry is on at `debug` for the whole pass, written as
//! JSONL to a writer that counts the bytes and discards them.

use super::{
    combine_guarded, eadrl_config, guard_faults, mean_span, series, Ctx, Layers, Pass, Workload,
    EMBEDDING, TRAIN_LEN,
};
use crate::stats::RelError;
use crate::trace::Tracer;
use eadrl_core::{fit_pool, prediction_matrix, sanitize_predictions};
use eadrl_core::{AdaptiveEaDrl, Combiner, PoolGuard, RefreshStrategy, RefreshTrigger};
use eadrl_datasets::DatasetId;
use eadrl_models::{standard_pool, Forecaster};
use eadrl_obs::{JsonlSink, Level, NoopSink};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The served series.
pub const DATASET: DatasetId = DatasetId::TaxiDemand1;

/// Served steps per pass.
pub const STEPS: usize = 2_000;

/// Steps between refreshes: [`STEPS`] / `PERIOD` = 40 refreshes a pass.
pub const PERIOD: usize = 50;

/// Recent steps the refresh retrains on.
pub const BUFFER: usize = 120;

/// Training episodes of one warm-start refresh.
pub const REFRESH_EPISODES: usize = 4;

/// The `adapt` workload.
pub struct Adapt;

/// A fitted pool, a warmed adaptive policy and the series they serve.
pub struct Instance {
    values: Vec<f64>,
    pool: Vec<Box<dyn Forecaster>>,
    adaptive: AdaptiveEaDrl,
    guard: PoolGuard,
}

impl Workload for Adapt {
    type Instance = Instance;

    fn setup(&self, ctx: &Ctx) -> Result<Instance, String> {
        let s = series(DATASET, TRAIN_LEN + STEPS, ctx.seed);
        let config = eadrl_config(ctx.seed);
        let fit_len = (TRAIN_LEN as f64 * (1.0 - config.val_fraction)).round() as usize;
        let (fit_part, val_part) = s.values[..TRAIN_LEN].split_at(fit_len);
        let (pool, dropped) = fit_pool(standard_pool(EMBEDDING, s.season, ctx.seed), fit_part);
        if !dropped.is_empty() {
            return Err(format!("adapt: fit dropped members {dropped:?}"));
        }
        let mut preds = prediction_matrix(&pool, fit_part, val_part);
        sanitize_predictions(&mut preds, fit_part);
        let guard = PoolGuard::new(config.guard.clone(), pool.len());
        let mut adaptive =
            AdaptiveEaDrl::new(config, RefreshTrigger::Periodic { period: PERIOD }, BUFFER)
                .with_strategy(RefreshStrategy::WarmStart {
                    episodes: REFRESH_EPISODES,
                });
        adaptive.warm_up(&preds, val_part);
        Ok(Instance {
            values: s.values,
            pool,
            adaptive,
            guard,
        })
    }

    fn pass(
        &self,
        _ctx: &Ctx,
        instance: Instance,
        tracer: &mut Tracer,
    ) -> Result<(Pass, Layers), String> {
        let Instance {
            values,
            pool,
            mut adaptive,
            mut guard,
        } = instance;
        let written = ByteCount::default();
        eadrl_obs::set_sink(Arc::new(JsonlSink::new(Box::new(written.clone()))));
        eadrl_obs::set_level(Some(Level::Debug));

        let mut pass = Pass::default();
        let mut err = RelError::default();
        let mut refresh_ops = Vec::new();
        let m = pool.len();
        let mut history = Vec::with_capacity(values.len());
        history.extend_from_slice(&values[..TRAIN_LEN]);
        for (step, &actual) in values[TRAIN_LEN..].iter().enumerate() {
            let faults = guard_faults(&guard, m);
            let refreshes = adaptive.refreshes();
            let op = tracer.begin_op("adapt.step");
            let sweep = tracer.span("core.guard_sweep", || guard.sweep(&pool, &history));
            let forecast = tracer.span("core.combine", || combine_guarded(&mut adaptive, &sweep));
            tracer.span("core.observe", || adaptive.observe(&sweep.values, actual));
            let ns = tracer.exit(op);
            let ms = ns as f64 / 1e6;
            pass.latencies_ms.push(ms);

            let refreshed = adaptive.refreshes() > refreshes;
            if refreshed {
                pass.refresh_ms.push(ms);
                refresh_ops.push(tracer.op());
            }
            let due = (step + 1).is_multiple_of(PERIOD);
            pass.tally.record(
                forecast.is_finite(),
                guard_faults(&guard, m) - faults,
                refreshed == due,
            );
            err.push(forecast, actual, history[history.len() - 1]);
            pass.digest.push(forecast);
            history.push(actual);
        }
        eadrl_obs::flush();
        eadrl_obs::set_level(None);
        eadrl_obs::set_sink(Arc::new(NoopSink));
        pass.rel_rmse = err.ratio();

        let mut layers = Layers::new();
        if tracer.enabled() {
            let (mut observe_ns, mut refresh_ns) = (Vec::new(), Vec::new());
            for (op, ns) in tracer.durations("core.observe") {
                if refresh_ops.contains(&op) {
                    refresh_ns.push(ns as f64);
                } else {
                    observe_ns.push(ns as f64);
                }
            }
            let steps = STEPS as f64;
            layers.push((
                "core.guard_sweep_us".into(),
                mean_span(tracer, "core.guard_sweep", 1e3),
                "us",
            ));
            layers.push((
                "core.combine_us".into(),
                mean_span(tracer, "core.combine", 1e3),
                "us",
            ));
            layers.push((
                "core.observe_us".into(),
                crate::stats::mean(&observe_ns) / 1e3,
                "us",
            ));
            layers.push((
                "core.refresh_ms".into(),
                crate::stats::mean(&refresh_ns) / 1e6,
                "ms",
            ));
            layers.push(("core.refreshes".into(), refresh_ops.len() as f64, "count"));
            layers.push((
                "obs.events_per_step".into(),
                written.lines() as f64 / steps,
                "count",
            ));
            layers.push((
                "obs.bytes_per_step".into(),
                written.bytes() as f64 / steps,
                "B",
            ));
        }
        Ok((pass, layers))
    }
}

/// A writer that counts bytes and lines (one JSONL event each) and
/// discards them.
#[derive(Clone, Default)]
struct ByteCount {
    bytes: Arc<AtomicU64>,
    lines: Arc<AtomicU64>,
}

impl ByteCount {
    fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }
}

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.lines.fetch_add(lines, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
