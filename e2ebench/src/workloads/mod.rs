//! The three workloads and what they share: inputs generated from the
//! workload seed, the paper's full-scale configuration, failure
//! accounting and the per-pass outcome.
//!
//! Every workload is a closed loop with one caller: an operation starts
//! only after the previous one returned, and in the serving workloads
//! the next value is revealed only after the forecast for it returned
//! (Algorithm 1 of the paper).

pub mod adapt;
pub mod fit;
pub mod serve_long;

use crate::stats::Digest;
use crate::trace::Tracer;
use eadrl_core::{renormalize_over_active, Combiner, EaDrlConfig, GuardedSweep, PoolGuard};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::ModelFamily;
use std::time::{Duration, Instant};

/// Observations the offline fit sees (the Table I/II series length).
pub const TRAIN_LEN: usize = 480;

/// Embedding dimension of the regression families (the paper's k = 5).
pub const EMBEDDING: usize = 5;

/// The fewest set-ups an invocation times; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Seed of every generated input (series, pool, policy).
    pub seed: u64,
    /// How long after the invocation began new untraced passes start.
    pub seconds: f64,
}

/// The paper's full-scale configuration: ω = 10, 50 episodes of at most
/// 100 steps, 2 restarts, rank reward, diversity replay.
pub fn eadrl_config(seed: u64) -> EaDrlConfig {
    let mut config = EaDrlConfig::default();
    config.ddpg.seed = seed;
    config
}

/// A generated series with the seasonal period its pool uses.
pub struct Series {
    /// Observations, oldest first.
    pub values: Vec<f64>,
    /// Holt–Winters period, capped so the fit prefix holds two seasons.
    pub season: usize,
}

/// Generates `len` observations of dataset `id` from the workload seed.
pub fn series(id: DatasetId, len: usize, seed: u64) -> Series {
    let generated = generate(id, len, seed);
    let season = generated.frequency().default_season().min(TRAIN_LEN / 4);
    Series {
        values: generated.values().to_vec(),
        season,
    }
}

/// Operations attempted and failed in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed (see [`Tally::record`]).
    pub failed: u64,
    /// Forecasts that were not finite.
    pub non_finite: u64,
    /// Faults the serving guard recorded.
    pub guard_faults: u64,
}

impl Tally {
    /// Records one operation. It failed when a forecast it produced was
    /// not finite, when the guard recorded new faults during it, or when
    /// `ok` is false (a dropped member, an untrained policy, a refresh
    /// that did not deploy).
    pub fn record(&mut self, finite: bool, new_faults: u64, ok: bool) {
        self.attempted += 1;
        self.guard_faults += new_faults;
        if !finite {
            self.non_finite += 1;
        }
        if !finite || new_faults > 0 || !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.non_finite += other.non_finite;
        self.guard_faults += other.guard_faults;
    }

    /// `failed / attempted` (0 when nothing ran).
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Faults the guard has recorded over all `m` members.
pub fn guard_faults(guard: &PoolGuard, m: usize) -> u64 {
    (0..m).map(|i| guard.total_faults(i)).sum()
}

/// Combines one guarded sweep the way `EaDrl::predict_next` does: the
/// combiner's own forecast on a clean sweep, the weights renormalized
/// over the surviving members otherwise.
pub fn combine_guarded(combiner: &mut dyn Combiner, sweep: &GuardedSweep) -> f64 {
    if sweep.all_active {
        return combiner.combine(&sweep.values);
    }
    let weights = combiner.weights(sweep.values.len());
    renormalize_over_active(&weights, &sweep.active)
        .iter()
        .zip(&sweep.values)
        .map(|(w, v)| w * v)
        .sum()
}

/// Everything one pass over a workload's fixed inputs produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Latency of every operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Latency of the operations that ran a policy refresh, ms.
    pub refresh_ms: Vec<f64>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// One-step RMSE over the last-value RMSE (geometric mean over
    /// datasets on `fit`).
    pub rel_rmse: f64,
    /// Digest of every forecast, in order.
    pub digest: Digest,
}

/// A workload's result for one invocation.
pub struct Outcome {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Untraced passes.
    pub passes: Vec<Pass>,
    /// The traced pass, its spans and the per-layer metrics it gave.
    pub traced: Option<Traced>,
}

/// The traced pass of a `--trace 1` run.
pub struct Traced {
    /// Outcome of the traced pass (same inputs as the first untraced).
    pub pass: Pass,
    /// Its spans.
    pub tracer: Tracer,
    /// Per-layer metrics of the workload.
    pub layers: Layers,
}

/// Per-layer metrics of a traced pass: name, value, unit.
pub type Layers = Vec<(String, f64, &'static str)>;

/// One workload: how to set it up and how to run one pass over its
/// fixed inputs.
pub trait Workload {
    /// What a set-up produces and one pass consumes.
    type Instance;

    /// Generates the inputs and builds what the measured operations
    /// need; timed as `setup_s`.
    fn setup(&self, ctx: &Ctx) -> Result<Self::Instance, String>;

    /// Runs every operation of one pass. With `tracer` recording, also
    /// runs the clone-pool probes (outside every operation) and returns
    /// the per-layer metrics.
    fn pass(
        &self,
        ctx: &Ctx,
        instance: Self::Instance,
        tracer: &mut Tracer,
    ) -> Result<(Pass, Layers), String>;
}

/// Runs a workload for one invocation: untraced passes, each right after
/// its own timed set-up, until `ctx.seconds` have passed since the
/// invocation began (at least one pass; only one when `trace` is set),
/// then with `trace` one traced pass over the same inputs. Set-ups are
/// topped up to [`SETUPS`] so `setup_s` is always a median of several.
pub fn run<W: Workload>(workload: &W, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| -> Result<W::Instance, String> {
        let start = Instant::now();
        let instance = workload.setup(ctx)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok(instance)
    };
    let mut passes = Vec::new();
    loop {
        let (pass, _) = workload.pass(ctx, set_up(&mut setup_s)?, &mut Tracer::new(false))?;
        passes.push(pass);
        if trace || Instant::now() >= deadline {
            break;
        }
    }
    let traced = if trace {
        let mut tracer = Tracer::new(true);
        let (pass, layers) = workload.pass(ctx, set_up(&mut setup_s)?, &mut tracer)?;
        Some(Traced {
            pass,
            tracer,
            layers,
        })
    } else {
        None
    };
    while setup_s.len() < SETUPS {
        set_up(&mut setup_s)?;
    }
    Ok(Outcome {
        setup_s,
        passes,
        traced,
    })
}

/// Families reported by `models.fit_ms.*`.
pub const FIT_FAMILIES: [&str; 8] = [
    "lstm",
    "bilstm",
    "cnn-lstm",
    "conv-lstm",
    "gbm",
    "rf",
    "mlp",
    "other",
];

/// Families reported by `models.predict_us.*`.
pub const PREDICT_FAMILIES: [&str; 7] = [
    "arima",
    "ets",
    "lstm",
    "bilstm",
    "cnn-lstm",
    "conv-lstm",
    "other",
];

/// The key of a pool member among `families` (`"other"` when its family
/// is not listed).
pub fn family_key(model_name: &str, families: &[&'static str]) -> &'static str {
    let key = match ModelFamily::of(model_name) {
        ModelFamily::Arima => "arima",
        ModelFamily::Ets => "ets",
        ModelFamily::Gbm => "gbm",
        ModelFamily::RandomForest => "rf",
        ModelFamily::Mlp => "mlp",
        ModelFamily::Lstm => "lstm",
        ModelFamily::BiLstm => "bilstm",
        ModelFamily::CnnLstm => "cnn-lstm",
        ModelFamily::ConvLstm => "conv-lstm",
        _ => "other",
    };
    families
        .iter()
        .copied()
        .find(|&f| f == key)
        .unwrap_or("other")
}

/// Mean of the durations (ns) of spans named `name`, in the given unit
/// divisor (1e3 for µs, 1e6 for ms); 0 when there are none.
pub fn mean_span(tracer: &Tracer, name: &str, divisor: f64) -> f64 {
    let d = tracer.durations(name);
    if d.is_empty() {
        return 0.0;
    }
    d.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / d.len() as f64 / divisor
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_core::{EaDrl, GuardConfig};
    use eadrl_models::{Forecaster, ModelError, Naive};

    /// A pool member that fits and then forecasts NaN forever.
    #[derive(Clone)]
    struct NonFinite;

    impl Forecaster for NonFinite {
        fn name(&self) -> &str {
            "injected-nan"
        }
        fn fit(&mut self, _series: &[f64]) -> Result<(), ModelError> {
            Ok(())
        }
        fn predict_next(&self, _history: &[f64]) -> f64 {
            f64::NAN
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            Box::new(self.clone())
        }
    }

    fn pool(inject: bool) -> Vec<Box<dyn Forecaster>> {
        let mut pool: Vec<Box<dyn Forecaster>> = vec![Box::new(Naive), Box::new(Naive)];
        if inject {
            pool.push(Box::new(NonFinite));
        }
        pool
    }

    fn small_config() -> EaDrlConfig {
        let mut config = eadrl_config(3);
        config.episodes = 2;
        config.max_iter = 20;
        config.restarts = 1;
        config
    }

    fn wave(n: usize) -> Vec<f64> {
        (0..n).map(|t| 10.0 + (t as f64 / 5.0).sin()).collect()
    }

    /// Serves `steps` steps through `EaDrl::predict_next` with the same
    /// accounting as `serve_long`.
    fn serve(inject: bool, steps: usize) -> Tally {
        let values = wave(120 + steps);
        let mut model = EaDrl::new(pool(inject), small_config());
        model.fit(&values[..120]).expect("fit");
        let m = model.n_models();
        let mut tally = Tally::default();
        let mut faults = guard_faults(model.guard(), m);
        for t in 120..values.len() {
            let forecast = model.predict_next(&values[..t]);
            let now = guard_faults(model.guard(), m);
            tally.record(forecast.is_finite(), now - faults, true);
            faults = now;
        }
        tally
    }

    #[test]
    fn fail_rate_counts_steps_with_an_injected_non_finite_member() {
        let healthy = serve(false, 30);
        assert_eq!((healthy.attempted, healthy.failed), (30, 0));
        assert_eq!(healthy.fail_rate(), 0.0);

        let injected = serve(true, 30);
        assert_eq!(injected.attempted, 30);
        // The guard masks the member on every step (quarantined members
        // are still probed), so every step counts as failed, yet every
        // served forecast stays finite.
        assert_eq!(injected.guard_faults, 30);
        assert_eq!(injected.failed, 30);
        assert_eq!(injected.non_finite, 0);
        assert_eq!(injected.fail_rate(), 1.0);
    }

    #[test]
    fn guarded_combination_masks_the_injected_member() {
        let values = wave(100);
        let members = pool(true);
        let mut guard = PoolGuard::new(GuardConfig::default(), members.len());
        let mut combiner = eadrl_core::baselines::StaticEnsemble::new();
        let mut tally = Tally::default();
        for t in 50..values.len() {
            let before = guard_faults(&guard, members.len());
            let sweep = guard.sweep(&members, &values[..t]);
            let forecast = combine_guarded(&mut combiner, &sweep);
            combiner.observe(&sweep.values, values[t]);
            tally.record(
                forecast.is_finite(),
                guard_faults(&guard, members.len()) - before,
                true,
            );
            // Both Naive members agree, so the masked mean is exact.
            assert_eq!(forecast, values[t - 1]);
        }
        assert_eq!(tally.attempted, 50);
        assert_eq!(tally.failed, 50);
        assert_eq!(tally.non_finite, 0);

        let mut other = Tally::default();
        other.record(false, 0, true);
        other.record(true, 0, false);
        other.record(true, 0, true);
        assert_eq!((other.attempted, other.failed, other.non_finite), (3, 2, 1));
        tally.add(&other);
        assert_eq!((tally.attempted, tally.failed), (53, 52));
    }

    #[test]
    fn family_keys_fold_unlisted_families_into_other() {
        assert_eq!(family_key("ARIMA(1,0,0)", &PREDICT_FAMILIES), "arima");
        assert_eq!(family_key("ARIMA(1,0,0)", &FIT_FAMILIES), "other");
        assert_eq!(family_key("CNN-LSTM(4)", &FIT_FAMILIES), "cnn-lstm");
        assert_eq!(family_key("RFR(15)", &FIT_FAMILIES), "rf");
        assert_eq!(family_key("RFR(15)", &PREDICT_FAMILIES), "other");
    }
}
