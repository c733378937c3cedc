//! Pipeline-level pin that the batched GEMM training path never changes
//! results: the full EA-DRL training + online-forecast pipeline runs at
//! `EADRL_PAR_THREADS` ∈ {1, 4}, and both runs must reproduce the digest
//! of the per-sample reference pipeline bit for bit — the online
//! predictions and the actor's `eadrl.weights` telemetry payloads. The
//! pipeline has no switch to the transition-at-a-time reference update
//! (`eadrl_rl::reference::update_per_sample`), so its output is pinned as
//! a digest recorded from a serial run through that update;
//! `crates/rl/tests/batched_equivalence.rs` checks the update itself
//! against the reference one update at a time. Any accumulation-order,
//! workspace-reuse, or blocking bug in the batched kernels diverges here.
//!
//! Everything lives in ONE `#[test]` because the thread count comes
//! from an environment variable: tests in one binary may run
//! concurrently, and `set_var` must not race another assertion.

use eadrl_core::{EaDrl, EaDrlConfig};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::quick_pool;
use eadrl_obs::{Level, RingSink, Value};
use std::sync::Arc;

/// One pipeline run: EA-DRL fit + 15 online predictions, capturing the
/// prediction bits and the actor's `eadrl.weights` payload bits.
fn run_pipeline(seed: u64) -> (Vec<u64>, Vec<Vec<u64>>) {
    let sink = Arc::new(RingSink::new(4096));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));

    let series = generate(DatasetId::TaxiDemand2, 360, seed);
    let (train, test) = series.split(0.75);
    let mut config = EaDrlConfig::default();
    config.omega = 8;
    config.episodes = 6;
    config.restarts = 1;
    config.ddpg.seed = seed;
    let mut model = EaDrl::new(quick_pool(5, 48, seed), config);
    model.fit(train).expect("fit");

    let mut history = train.to_vec();
    let mut pred_bits = Vec::new();
    for &actual in test.iter().take(15) {
        pred_bits.push(model.predict_next(&history).to_bits());
        history.push(actual);
    }

    let weight_bits: Vec<Vec<u64>> = sink
        .events_named("eadrl.weights")
        .iter()
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("weights", Value::F64s(w)) => Some(w.iter().map(|x| x.to_bits()).collect()),
                _ => None,
            })
        })
        .collect();
    assert!(
        !weight_bits.is_empty(),
        "expected eadrl.weights events at debug level"
    );
    (pred_bits, weight_bits)
}

/// FNV-1a (64-bit) over the little-endian bytes of: the prediction
/// count, each prediction's bits, the payload count, then each payload's
/// length followed by its bits.
fn fnv1a(preds: &[u64], weights: &[Vec<u64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(preds.len() as u64);
    preds.iter().for_each(|&p| feed(p));
    feed(weights.len() as u64);
    for w in weights {
        feed(w.len() as u64);
        w.iter().for_each(|&x| feed(x));
    }
    h
}

/// Digest of `run_pipeline(11)` through the per-sample DDPG update at one
/// thread (15 predictions, 15 `eadrl.weights` payloads).
const PER_SAMPLE_DIGEST: u64 = 0xa3c3_a067_165f_434a;

#[test]
fn batched_and_per_sample_pipelines_are_bitwise_identical_at_1_and_4_threads() {
    for threads in ["1", "4"] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads);
        let (preds, weights) = run_pipeline(11);
        assert_eq!(
            fnv1a(&preds, &weights),
            PER_SAMPLE_DIGEST,
            "pipeline output diverged from the per-sample reference digest at {threads} threads"
        );
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);
}
