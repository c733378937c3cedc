//! Graceful degradation for the online serving path.
//!
//! Ensemble methods are valuable precisely because members fail
//! independently — but the naive Algorithm-1 loop assumes every pooled
//! forecaster always returns a finite value: one panicking or
//! NaN-emitting member poisons the weighted sum for every subsequent
//! request. [`PoolGuard`] makes member failures independent in practice:
//!
//! * every per-model call runs under `catch_unwind` with non-finite
//!   output detection (via [`Forecaster::try_predict_next`]) and an
//!   optional deterministic latency budget
//!   ([`Forecaster::cost_hint_us`] vs [`GuardConfig::latency_budget_us`]
//!   — never a wall clock, which would break bitwise reproducibility);
//! * a faulted member is masked for the step (its weight is
//!   redistributed over the survivors) and after
//!   [`GuardConfig::quarantine_after`] consecutive faults it is
//!   **quarantined**: excluded from the combination but still probed
//!   each step, re-entering after
//!   [`GuardConfig::reentry_clean_calls`] consecutive clean probes;
//! * members with a serving stream ([`Forecaster::stream`]: ARIMA,
//!   ETS) are called through it, kept by the guard across sweeps: the
//!   push of the new values and the forecast run inside the same guarded
//!   region, and a stream that panics is dropped — its member serves
//!   statelessly until the guard is reset;
//! * every masking decision is observable: `eadrl.degraded` (per
//!   degraded step, with the effective weights actually served) and
//!   `eadrl.quarantine` (enter/exit transitions) telemetry events.
//!
//! The guard is *pay-per-fault*: on a fault-free step it performs the
//! identical arithmetic in the identical order as the unguarded loop,
//! and emits no additional telemetry — the committed quickstart
//! baselines stay byte-identical.

use eadrl_models::{fallback_forecast, ForecastStream, Forecaster, PredictError};
use eadrl_obs::Level;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a guarded call failed — the classification recorded in
/// `eadrl.degraded` / `eadrl.quarantine` telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The model panicked; caught by the per-call `catch_unwind`.
    Panic,
    /// The model returned NaN or ±Inf.
    NonFinite,
    /// The model's declared per-call cost exceeds the serving budget.
    BudgetExceeded,
}

impl FaultClass {
    /// Stable lowercase label used in telemetry fields.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Panic => "panic",
            FaultClass::NonFinite => "non_finite",
            FaultClass::BudgetExceeded => "budget_exceeded",
        }
    }
}

/// Degradation policy knobs.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Consecutive faulted calls after which a member is quarantined.
    /// Before the threshold a faulted member is only masked for the
    /// faulting step (transient glitches should not cost a member its
    /// seat). `1` quarantines on first fault.
    pub quarantine_after: u32,
    /// Consecutive clean probe calls a quarantined member must produce
    /// to re-enter the combination. Quarantined members are still
    /// called every step — the probe result is discarded — so recovery
    /// is observed on live traffic without risking the forecast.
    pub reentry_clean_calls: u32,
    /// Optional deterministic per-call latency budget (µs), enforced
    /// against [`Forecaster::cost_hint_us`]. `None` disables budget
    /// enforcement; models that do not declare a cost are never
    /// budget-faulted.
    pub latency_budget_us: Option<u64>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            quarantine_after: 3,
            reentry_clean_calls: 8,
            latency_budget_us: None,
        }
    }
}

/// Per-member health state.
#[derive(Debug, Clone, Default)]
struct MemberHealth {
    fault_streak: u32,
    clean_streak: u32,
    quarantined: bool,
    total_faults: u64,
}

/// The outcome of one guarded pool sweep: per-member values with the
/// members that may take part in this step's combination.
#[derive(Debug, Clone)]
pub struct GuardedSweep {
    /// One value per pool member. Faulted members carry the documented
    /// fallback (last finite history value) so downstream state updates
    /// stay finite; their `active` flag is `false`.
    pub values: Vec<f64>,
    /// `active[i]` — member `i` produced a clean value this step *and*
    /// is not quarantined; only active members may receive weight.
    pub active: Vec<bool>,
    /// Indices that faulted on this step, with their classification.
    pub faults: Vec<(usize, FaultClass)>,
    /// True when every member is active (the fast, telemetry-free path).
    pub all_active: bool,
}

/// Tracks pool-member health across serving steps, keeps one serving
/// stream per member, and executes the guarded per-model calls. Owned by
/// [`crate::EaDrl`] or by any loop that serves a fitted pool itself; the
/// pool stays outside so borrows remain simple.
pub struct PoolGuard {
    config: GuardConfig,
    health: Vec<MemberHealth>,
    /// One slot per pool member, kept across sweeps (empty until the
    /// first sweep after a reset). `None` reads the whole history on
    /// every call: the model has no stream, or its stream panicked and
    /// stays dropped until [`PoolGuard::reset`].
    streams: Vec<Option<MemberStream>>,
    /// The history the streams have been fed.
    served: Vec<f64>,
}

impl std::fmt::Debug for PoolGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolGuard")
            .field("config", &self.config)
            .field("health", &self.health)
            .finish_non_exhaustive()
    }
}

impl PoolGuard {
    /// Creates a guard for a pool of `m` members.
    pub fn new(config: GuardConfig, m: usize) -> Self {
        PoolGuard {
            config,
            health: vec![MemberHealth::default(); m],
            streams: Vec::new(),
            served: Vec::new(),
        }
    }

    /// Resets health tracking and drops every serving stream, for a
    /// (re)fitted pool of `m` members: call it after every refit.
    pub fn reset(&mut self, m: usize) {
        self.health = vec![MemberHealth::default(); m];
        self.streams.clear();
        self.served.clear();
    }

    /// The active configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Indices currently quarantined (ascending).
    pub fn quarantined(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total faults observed for member `i` since the last reset.
    pub fn total_faults(&self, i: usize) -> u64 {
        self.health.get(i).map_or(0, |h| h.total_faults)
    }

    /// Calls every pool member once under the guard and updates health.
    ///
    /// `history` is the (already sanitized) input passed to each model.
    /// Members with a [`Forecaster::stream`] (ARIMA, ETS) keep it across
    /// sweeps and push only the values that arrived since the previous
    /// sweep, inside the guarded region; any history that does not
    /// extend the previous one bit for bit reopens the streams. Every
    /// other member reads the whole history ([`guarded_call`]). Either
    /// way the values are bitwise `predict_next` on the whole history.
    ///
    /// A guard serves one fitted pool: [`PoolGuard::reset`] it after a
    /// refit, or the streams keep serving the old fit.
    pub fn sweep(&mut self, pool: &[Box<dyn Forecaster>], history: &[f64]) -> GuardedSweep {
        self.sync_streams(pool, history);
        let budget = self.config.latency_budget_us;
        let substitute = fallback_forecast(history);
        let mut values = Vec::with_capacity(pool.len());
        let mut active = Vec::with_capacity(pool.len());
        let mut faults = Vec::new();
        for (i, model) in pool.iter().enumerate() {
            let model = model.as_ref();
            match guarded_stream_call(model, &mut self.streams[i], history, budget) {
                Ok(value) => {
                    let in_quarantine = self.record_clean(i, model.name());
                    values.push(value);
                    active.push(!in_quarantine);
                }
                Err(class) => {
                    self.record_fault(i, model.name(), class);
                    faults.push((i, class));
                    values.push(substitute);
                    active.push(false);
                }
            }
        }
        let all_active = active.iter().all(|&a| a);
        GuardedSweep {
            values,
            active,
            faults,
            all_active,
        }
    }

    /// Makes `served` equal to `history`. When `history` extends `served`
    /// bit for bit, only the new suffix is appended and each stream will
    /// consume it. On any other history every live stream is reopened and
    /// will consume `history` from the start; a dropped one stays
    /// dropped. A pool of another length than the slots opens all anew.
    fn sync_streams(&mut self, pool: &[Box<dyn Forecaster>], history: &[f64]) {
        let n = self.served.len();
        if self.streams.len() != pool.len() {
            self.streams = pool
                .iter()
                .map(|model| open_stream(model.as_ref()))
                .collect();
            self.served.clear();
        } else if history.len() < n || !same_bits(&self.served, &history[..n]) {
            for (slot, model) in self.streams.iter_mut().zip(pool) {
                if slot.is_some() {
                    *slot = open_stream(model.as_ref());
                }
            }
            self.served.clear();
        }
        self.served.extend_from_slice(&history[self.served.len()..]);
    }

    /// Records a clean call; returns `true` while the member remains
    /// quarantined (probe succeeded but re-entry not yet earned).
    fn record_clean(&mut self, i: usize, name: &str) -> bool {
        let reentry = self.config.reentry_clean_calls.max(1);
        let h = &mut self.health[i];
        h.fault_streak = 0;
        if !h.quarantined {
            return false;
        }
        h.clean_streak += 1;
        if h.clean_streak >= reentry {
            h.quarantined = false;
            h.clean_streak = 0;
            eadrl_obs::event(
                "eadrl.quarantine",
                Level::Warn,
                &[
                    ("model", name.into()),
                    ("index", i.into()),
                    ("action", "exit".into()),
                    ("clean_calls", u64::from(reentry).into()),
                    ("total_faults", self.health[i].total_faults.into()),
                ],
            );
            return false;
        }
        true
    }

    fn record_fault(&mut self, i: usize, name: &str, class: FaultClass) {
        let threshold = self.config.quarantine_after.max(1);
        let h = &mut self.health[i];
        h.total_faults += 1;
        h.clean_streak = 0;
        h.fault_streak = h.fault_streak.saturating_add(1);
        if !h.quarantined && h.fault_streak >= threshold {
            h.quarantined = true;
            eadrl_obs::event(
                "eadrl.quarantine",
                Level::Warn,
                &[
                    ("model", name.into()),
                    ("index", i.into()),
                    ("action", "enter".into()),
                    ("class", class.as_str().into()),
                    ("fault_streak", u64::from(h.fault_streak).into()),
                    ("total_faults", h.total_faults.into()),
                ],
            );
        }
    }
}

/// One guarded model call: `catch_unwind` around the checked prediction
/// path, plus deterministic budget enforcement.
pub fn guarded_call(
    model: &dyn Forecaster,
    history: &[f64],
    budget_us: Option<u64>,
) -> Result<f64, FaultClass> {
    check_budget(model, budget_us)?;
    // A fitted model is immutable while predicting (Forecaster contract),
    // so observing it after a caught panic cannot expose broken state.
    classify(catch_unwind(AssertUnwindSafe(|| {
        model.try_predict_next(history)
    })))
}

/// A member's live serving stream, with the number of values of the
/// served history it has consumed.
struct MemberStream {
    stream: Box<dyn ForecastStream>,
    consumed: usize,
}

/// Opens `model`'s stream: `None` when the model has none
/// ([`Forecaster::stream`]) or panics while opening it.
fn open_stream(model: &dyn Forecaster) -> Option<MemberStream> {
    let stream = catch_unwind(AssertUnwindSafe(|| model.stream()))
        .ok()
        .flatten()?;
    Some(MemberStream {
        stream,
        consumed: 0,
    })
}

/// [`guarded_call`] for a member served through `slot`: a live stream
/// pushes the unconsumed suffix of `history` and forecasts, inside the
/// same budget check and `catch_unwind` and with the same non-finite
/// classification. A panic drops the stream (`slot` becomes `None`).
fn guarded_stream_call(
    model: &dyn Forecaster,
    slot: &mut Option<MemberStream>,
    history: &[f64],
    budget_us: Option<u64>,
) -> Result<f64, FaultClass> {
    let Some(MemberStream { stream, consumed }) = slot else {
        return guarded_call(model, history, budget_us);
    };
    check_budget(model, budget_us)?;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        stream.push_slice(&history[*consumed..]);
        *consumed = history.len();
        let value = stream.forecast();
        if value.is_finite() {
            Ok(value)
        } else {
            Err(PredictError::NonFinite {
                bits: value.to_bits(),
            })
        }
    }));
    if outcome.is_err() {
        *slot = None;
    }
    classify(outcome)
}

/// `a == b` bit for bit, as a branch-free scan per block so the
/// comparison vectorizes.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    const BLOCK: usize = 256;
    a.len() == b.len()
        && a.chunks(BLOCK).zip(b.chunks(BLOCK)).all(|(x, y)| {
            x.iter()
                .zip(y)
                .fold(0u64, |diff, (p, q)| diff | (p.to_bits() ^ q.to_bits()))
                == 0
        })
}

/// Deterministic budget enforcement: the model's declared cost against
/// the configured budget, checked before it is called.
fn check_budget(model: &dyn Forecaster, budget_us: Option<u64>) -> Result<(), FaultClass> {
    match (budget_us, model.cost_hint_us()) {
        (Some(budget), Some(cost)) if cost > budget => Err(FaultClass::BudgetExceeded),
        _ => Ok(()),
    }
}

/// Classifies the outcome of a guarded, checked prediction.
fn classify(outcome: std::thread::Result<Result<f64, PredictError>>) -> Result<f64, FaultClass> {
    match outcome {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(PredictError::NonFinite { .. })) => Err(FaultClass::NonFinite),
        Ok(Err(PredictError::BudgetExceeded { .. })) => Err(FaultClass::BudgetExceeded),
        Err(_) => Err(FaultClass::Panic),
    }
}

/// Renormalizes `weights` over the active members.
///
/// Returns the effective simplex actually served: masked members get
/// exactly `0.0`; the surviving mass is rescaled to sum to 1. When the
/// surviving mass is numerically negligible the survivors share uniform
/// weight (the policy's opinion carries no information about them).
/// When *no* member is active, every weight is `0.0` — the caller must
/// fall back to a history-based forecast.
pub fn renormalize_over_active(weights: &[f64], active: &[bool]) -> Vec<f64> {
    let survivors = active.iter().filter(|&&a| a).count();
    if survivors == 0 {
        return vec![0.0; weights.len()];
    }
    let mass: f64 = weights
        .iter()
        .zip(active.iter())
        .filter(|(_, &a)| a)
        .map(|(w, _)| w.max(0.0))
        .sum();
    if mass > 1e-12 && mass.is_finite() {
        weights
            .iter()
            .zip(active.iter())
            .map(|(w, &a)| if a { w.max(0.0) / mass } else { 0.0 })
            .collect()
    } else {
        let uniform = 1.0 / survivors as f64;
        active
            .iter()
            .map(|&a| if a { uniform } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use eadrl_models::ModelError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Scripted test double: panics / returns NaN on chosen calls.
    struct Scripted {
        name: String,
        outputs: Vec<f64>, // cycled; NaN entries fault, f64::MAX panics
        calls: std::sync::atomic::AtomicUsize,
        cost: Option<u64>,
    }

    impl Scripted {
        fn new(outputs: Vec<f64>) -> Self {
            Scripted {
                name: "Scripted".into(),
                outputs,
                calls: std::sync::atomic::AtomicUsize::new(0),
                cost: None,
            }
        }
    }

    impl Forecaster for Scripted {
        fn name(&self) -> &str {
            &self.name
        }
        fn fit(&mut self, _s: &[f64]) -> Result<(), ModelError> {
            Ok(())
        }
        fn predict_next(&self, _h: &[f64]) -> f64 {
            let i = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let v = self.outputs[i % self.outputs.len()];
            if v == f64::MAX {
                panic!("scripted panic");
            }
            v
        }
        fn cost_hint_us(&self) -> Option<u64> {
            self.cost
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            unreachable!("test double is never cloned")
        }
    }

    fn boxed(outputs: Vec<f64>) -> Box<dyn Forecaster> {
        Box::new(Scripted::new(outputs))
    }

    #[test]
    fn clean_sweep_keeps_everyone_active() {
        let pool = vec![boxed(vec![1.0]), boxed(vec![2.0])];
        let mut guard = PoolGuard::new(GuardConfig::default(), 2);
        let sweep = guard.sweep(&pool, &[5.0]);
        assert!(sweep.all_active);
        assert_eq!(sweep.values, vec![1.0, 2.0]);
        assert!(sweep.faults.is_empty());
        assert!(guard.quarantined().is_empty());
    }

    #[test]
    fn nan_output_is_masked_and_substituted() {
        let pool = vec![boxed(vec![1.0]), boxed(vec![f64::NAN])];
        let mut guard = PoolGuard::new(GuardConfig::default(), 2);
        let sweep = guard.sweep(&pool, &[5.0, 7.0]);
        assert!(!sweep.all_active);
        assert_eq!(sweep.values, vec![1.0, 7.0]); // last history value
        assert_eq!(sweep.active, vec![true, false]);
        assert_eq!(sweep.faults, vec![(1, FaultClass::NonFinite)]);
    }

    #[test]
    fn panicking_member_is_caught_and_quarantined_after_threshold() {
        let pool = vec![boxed(vec![1.0]), boxed(vec![f64::MAX])];
        let config = GuardConfig {
            quarantine_after: 2,
            ..GuardConfig::default()
        };
        let mut guard = PoolGuard::new(config, 2);
        let s1 = guard.sweep(&pool, &[3.0]);
        assert_eq!(s1.faults, vec![(1, FaultClass::Panic)]);
        assert!(guard.quarantined().is_empty(), "one fault is transient");
        guard.sweep(&pool, &[3.0]);
        assert_eq!(guard.quarantined(), vec![1]);
        assert_eq!(guard.total_faults(1), 2);
    }

    #[test]
    fn quarantined_member_reenters_after_clean_probes() {
        // Faults twice, then recovers forever.
        let pool = vec![boxed(vec![f64::NAN, f64::NAN, 4.0, 4.0, 4.0, 4.0])];
        let config = GuardConfig {
            quarantine_after: 2,
            reentry_clean_calls: 3,
            latency_budget_us: None,
        };
        let mut guard = PoolGuard::new(config, 1);
        guard.sweep(&pool, &[1.0]);
        guard.sweep(&pool, &[1.0]);
        assert_eq!(guard.quarantined(), vec![0]);
        // Three clean probes: still quarantined during the first two.
        assert_eq!(guard.sweep(&pool, &[1.0]).active, vec![false]);
        assert_eq!(guard.sweep(&pool, &[1.0]).active, vec![false]);
        let back = guard.sweep(&pool, &[1.0]);
        assert_eq!(back.active, vec![true], "third clean probe re-enters");
        assert!(guard.quarantined().is_empty());
    }

    #[test]
    fn declared_cost_over_budget_is_a_fault() {
        let mut slow = Scripted::new(vec![1.0]);
        slow.cost = Some(10_000);
        let pool: Vec<Box<dyn Forecaster>> = vec![Box::new(slow), boxed(vec![2.0])];
        let config = GuardConfig {
            latency_budget_us: Some(500),
            ..GuardConfig::default()
        };
        let mut guard = PoolGuard::new(config, 2);
        let sweep = guard.sweep(&pool, &[9.0]);
        assert_eq!(sweep.faults, vec![(0, FaultClass::BudgetExceeded)]);
        assert_eq!(sweep.active, vec![false, true]);
    }

    #[test]
    fn renormalization_preserves_simplex_over_survivors() {
        let w = [0.5, 0.3, 0.2];
        let eff = renormalize_over_active(&w, &[true, false, true]);
        assert_eq!(eff[1], 0.0);
        assert!((eff.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((eff[0] - 0.5 / 0.7).abs() < 1e-12);

        // Zero surviving mass -> uniform over survivors.
        let eff = renormalize_over_active(&[0.0, 1.0], &[true, false]);
        assert_eq!(eff, vec![1.0, 0.0]);

        // Nobody active -> all-zero sentinel.
        let eff = renormalize_over_active(&[0.5, 0.5], &[false, false]);
        assert_eq!(eff, vec![0.0, 0.0]);
    }

    /// Test double whose stream counts the values pushed into it (and
    /// the streams opened) and panics on the `panic_on`-th push. It
    /// forecasts the last value, as its `predict_next` does.
    #[derive(Clone, Default)]
    pub(crate) struct Counting {
        pushes: Arc<AtomicUsize>,
        opens: Arc<AtomicUsize>,
        panic_on: Option<usize>,
    }

    impl Counting {
        /// `(values pushed, streams opened)` so far.
        pub(crate) fn counted(&self) -> (usize, usize) {
            (
                self.pushes.load(Ordering::Relaxed),
                self.opens.load(Ordering::Relaxed),
            )
        }
    }

    struct CountingStream {
        model: Counting,
        last: f64,
    }

    impl ForecastStream for CountingStream {
        fn push(&mut self, y: f64) {
            let k = self.model.pushes.fetch_add(1, Ordering::Relaxed) + 1;
            if self.model.panic_on == Some(k) {
                panic!("scripted stream panic");
            }
            self.last = y;
        }
        fn forecast(&self) -> f64 {
            self.last
        }
    }

    impl Forecaster for Counting {
        fn name(&self) -> &str {
            "Counting"
        }
        fn fit(&mut self, _series: &[f64]) -> Result<(), ModelError> {
            Ok(())
        }
        fn predict_next(&self, history: &[f64]) -> f64 {
            fallback_forecast(history)
        }
        fn stream(&self) -> Option<Box<dyn ForecastStream>> {
            self.opens.fetch_add(1, Ordering::Relaxed);
            Some(Box::new(CountingStream {
                model: self.clone(),
                last: 0.0,
            }))
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            Box::new(self.clone())
        }
    }

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|t| t as f64 * 0.5 + 1.0).collect()
    }

    #[test]
    fn streams_consume_only_new_values_and_rebuild_on_any_other_history() {
        let s = ramp(80);
        let counting = Counting::default();
        let pool: Vec<Box<dyn Forecaster>> = vec![Box::new(counting.clone()), boxed(vec![2.0])];
        let mut guard = PoolGuard::new(GuardConfig::default(), 2);
        let mut serve = |h: &[f64]| {
            let sweep = guard.sweep(&pool, h);
            assert_eq!(sweep.values[0].to_bits(), h[h.len() - 1].to_bits());
        };
        serve(&s[..50]);
        assert_eq!(counting.counted(), (50, 1));
        serve(&s[..51]);
        serve(&s[..53]);
        assert_eq!(counting.counted(), (53, 1), "growth pushes the suffix");
        serve(&s[..53]);
        assert_eq!(counting.counted(), (53, 1), "same history pushes nothing");
        let mut rewritten = s[..53].to_vec();
        rewritten[52] += 1.0;
        serve(&rewritten);
        assert_eq!(counting.counted(), (106, 2), "a rewritten tail rebuilds");
        serve(&s[..10]);
        assert_eq!(counting.counted(), (116, 3), "a shorter history rebuilds");
    }

    #[test]
    fn a_panicking_stream_faults_once_then_serves_statelessly_until_reset() {
        let s = ramp(200);
        let counting = Counting {
            panic_on: Some(55),
            ..Counting::default()
        };
        let pool: Vec<Box<dyn Forecaster>> = vec![Box::new(counting.clone()), boxed(vec![2.0])];
        let mut guard = PoolGuard::new(GuardConfig::default(), 2);
        assert!(guard.sweep(&pool, &s[..50]).all_active);
        // The 55th push panics: one caught fault, the member masked.
        let sweep = guard.sweep(&pool, &s[..60]);
        assert_eq!(sweep.faults, vec![(0, FaultClass::Panic)]);
        assert_eq!(sweep.active, vec![false, true]);
        assert_eq!(counting.counted(), (55, 1));
        // From now on the member reads the whole history, cleanly and
        // with `predict_next`'s bits; a history that does not extend the
        // served one reopens the other streams, not the lost one.
        for h in [&s[..61], &s[..20], &s[..62]] {
            let sweep = guard.sweep(&pool, h);
            assert!(sweep.all_active);
            assert_eq!(sweep.values[0].to_bits(), pool[0].predict_next(h).to_bits());
        }
        assert_eq!(guard.total_faults(0), 1);
        assert_eq!(counting.counted(), (55, 1));
        // Only a reset gives the member a live stream again...
        guard.reset(2);
        assert_eq!(guard.total_faults(0), 0);
        guard.sweep(&pool, &s[..150]);
        assert_eq!(counting.counted(), (205, 2));
        // ...or a pool of another length, even over an extending
        // history: its slots are opened anew, never indexed stale.
        let fresh = Counting::default();
        let other: Vec<Box<dyn Forecaster>> = vec![Box::new(fresh.clone())];
        assert_eq!(guard.sweep(&other, &s[..152]).values, vec![s[151]]);
        assert_eq!(fresh.counted(), (152, 1));
    }

    #[test]
    fn same_bits_compares_bit_patterns() {
        let a: Vec<f64> = (0..600).map(|t| t as f64 * 0.5).collect();
        assert!(same_bits(&a, &a.clone()));
        assert!(!same_bits(&a, &a[..599]));
        let mut b = a.clone();
        b[517] = -b[517];
        assert!(!same_bits(&a, &b));
        // Bits, not values: 0.0 and -0.0 differ, NaN equals itself.
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(same_bits(&[f64::NAN], &[f64::NAN]));
    }
}
