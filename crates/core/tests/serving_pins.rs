//! Serving pins: one quick-pool `EaDrl`, and one `PoolGuard` over a
//! fitted quick pool, are each served through a scripted sequence of
//! histories, and an FNV-1a digest of every output's bits is asserted
//! against a recorded value. The `EaDrl` sequence exercises every way a
//! caller's history can relate to the previous call's:
//!
//! * a history that grows by one value per call;
//! * `forecast(h, n)` followed by the real values, so the tail diverges
//!   from what the model last saw;
//! * a NaN gap burst inside the history and at its end;
//! * leading NaNs;
//! * a shorter history, down to a single value;
//! * a refit, after which serving starts over.
//!
//! Both digests were recorded with a stateless sweep (every member
//! re-reads the whole history on every call), so any serving state kept
//! between calls must reproduce them bit for bit.

use eadrl_core::{fit_pool, EaDrl, EaDrlConfig, GuardConfig, GuardedSweep, PoolGuard};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::quick_pool;

const SEASON: usize = 24;

/// FNV-1a over the forecast bits, in serving order.
#[derive(Default)]
struct Digest {
    hash: u64,
    count: usize,
}

impl Digest {
    fn push(&mut self, value: f64) {
        if self.count == 0 {
            self.hash = 0xcbf2_9ce4_8422_2325;
        }
        self.fold(&value.to_bits().to_le_bytes());
        self.count += 1;
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One sweep: every value's bits, then the `active` flags, then each
    /// fault's index and class.
    fn push_sweep(&mut self, sweep: &GuardedSweep) {
        for &value in &sweep.values {
            self.push(value);
        }
        for &active in &sweep.active {
            self.fold(&[u8::from(active)]);
        }
        for &(i, class) in &sweep.faults {
            self.fold(&(i as u64).to_le_bytes());
            self.fold(class.as_str().as_bytes());
        }
    }
}

fn config() -> EaDrlConfig {
    let mut config = EaDrlConfig::default();
    config.omega = 6;
    config.episodes = 6;
    config.max_iter = 30;
    config.restarts = 1;
    config.ddpg.seed = 11;
    config
}

fn serve(model: &mut EaDrl, digest: &mut Digest, history: &[f64]) {
    let value = model.predict_next(history);
    assert!(
        value.is_finite(),
        "non-finite forecast at len {}",
        history.len()
    );
    digest.push(value);
}

fn serve_script() -> Digest {
    let s = generate(DatasetId::BikeHumidity, 380, 5).values().to_vec();
    let mut model = EaDrl::new(quick_pool(5, SEASON, 3), config());
    model.fit(&s[..240]).expect("quick pool fits 240 points");
    let mut d = Digest::default();

    // A growing history.
    for t in 240..300 {
        serve(&mut model, &mut d, &s[..t]);
    }
    // Recursive forecasts, then the real values: the served tail diverges.
    for value in model.forecast(&s[..300], 4) {
        d.push(value);
    }
    for t in 300..310 {
        serve(&mut model, &mut d, &s[..t]);
    }
    // A NaN gap burst inside the history, which then keeps growing...
    let mut h = s[..320].to_vec();
    h[312..316].fill(f64::NAN);
    serve(&mut model, &mut d, &h);
    for &y in &s[320..326] {
        h.push(y);
        serve(&mut model, &mut d, &h);
    }
    // ...and a burst at its end, later repaired with real values.
    for _ in 0..3 {
        h.push(f64::NAN);
        serve(&mut model, &mut d, &h);
    }
    serve(&mut model, &mut d, &s[..330]);
    // Leading NaNs.
    let mut lead = s[..340].to_vec();
    lead[..3].fill(f64::NAN);
    serve(&mut model, &mut d, &lead);
    lead.extend_from_slice(&s[340..344]);
    serve(&mut model, &mut d, &lead);
    // Shorter histories: below the Holt–Winters seeding length and the
    // ARIMA fallback threshold, down to a single value.
    for t in [100, 40, 30, 3, 2, 1] {
        serve(&mut model, &mut d, &s[..t]);
    }
    serve(&mut model, &mut d, &s[..345]);
    // A refit restarts serving.
    model.fit(&s[..260]).expect("quick pool refits 260 points");
    for t in 345..360 {
        serve(&mut model, &mut d, &s[..t]);
    }
    d
}

#[test]
fn scripted_serving_sequence_is_pinned() {
    let digest = serve_script();
    assert_eq!(digest.count, 109);
    assert_eq!(
        format!("{:016x}", digest.hash),
        "d34c9f5f49c328f2",
        "serving digest moved"
    );
}

/// The guard-level script: the same kinds of history as the `EaDrl`
/// script, served straight through one `PoolGuard` over a fitted pool.
fn sweep_script() -> Digest {
    let s = generate(DatasetId::BikeHumidity, 380, 5).values().to_vec();
    let (pool, dropped) = fit_pool(quick_pool(5, SEASON, 3), &s[..240]);
    assert!(dropped.is_empty(), "quick pool fits 240 points");
    let mut guard = PoolGuard::new(GuardConfig::default(), pool.len());
    let mut d = Digest::default();
    let mut sweep = |guard: &mut PoolGuard, pool: &[_], h: &[f64]| {
        let out = guard.sweep(pool, h);
        assert!(out.all_active, "clean pool faulted at len {}", h.len());
        d.push_sweep(&out);
    };

    // Grow by one, then by several, then the same history again.
    for t in 240..300 {
        sweep(&mut guard, &pool, &s[..t]);
    }
    for t in [303, 310, 322, 330, 330] {
        sweep(&mut guard, &pool, &s[..t]);
    }
    // A rewritten tail, which then keeps growing.
    let mut h = s[..330].to_vec();
    h[327..].iter_mut().for_each(|y| *y += 1.5);
    sweep(&mut guard, &pool, &h);
    h.extend_from_slice(&s[330..334]);
    sweep(&mut guard, &pool, &h);
    // Shorter histories, down to a single value, then a long one again.
    for t in [100, 40, 30, 3, 2, 1, 345] {
        sweep(&mut guard, &pool, &s[..t]);
    }
    // A refit, after which the guard is reset and serving starts over.
    let (pool, dropped) = fit_pool(quick_pool(5, SEASON, 3), &s[..260]);
    assert!(dropped.is_empty(), "quick pool refits 260 points");
    guard.reset(pool.len());
    for t in 345..360 {
        sweep(&mut guard, &pool, &s[..t]);
    }
    d
}

#[test]
fn scripted_guard_sweep_sequence_is_pinned() {
    let digest = sweep_script();
    assert_eq!(digest.count, 8 * 89);
    assert_eq!(
        format!("{:016x}", digest.hash),
        "337b21d0785b6fda",
        "guard sweep digest moved"
    );
}
