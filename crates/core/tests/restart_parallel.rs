//! Differential proof that the parallel restart sweep never changes the
//! trained policy: `EaDrlPolicy::warm_up` with several restarts is run at
//! `EADRL_PAR_THREADS` ∈ {1, 4} and the post-warm-up snapshot bits, the
//! online predictions, the `eadrl.weights` telemetry payloads, and the
//! per-restart `eadrl.restart` events (order included) must all be
//! bitwise identical. The serial run (1 thread) is the reference.
//!
//! The same binary then exercises the warm-start refresh path: a
//! drift-triggered `WarmStart` refresh must still recover after a regime
//! flip (the RMSE bound the cold path established) while running far
//! fewer training episodes per refresh.
//!
//! Finally, `warm_up` (informed and cold initialization) and `refine`
//! are pinned bitwise to a recorded FNV-1a digest of the deployed actor,
//! the learning curve and the selection telemetry, so a refactor of the
//! training-and-selection code cannot silently move a number.
//!
//! Everything lives in ONE `#[test]` because the thread count comes from
//! an environment variable: tests in one binary may run concurrently,
//! and `set_var` must not race another assertion.

use eadrl_core::{
    run_combiner, AdaptiveEaDrl, Combiner, EaDrlConfig, EaDrlPolicy, RefreshStrategy,
    RefreshTrigger,
};
use eadrl_obs::{Level, RingSink, Value};
use eadrl_timeseries::metrics::rmse;
use std::sync::Arc;

fn quick_config(restarts: usize) -> EaDrlConfig {
    let mut config = EaDrlConfig::default();
    config.omega = 6;
    config.episodes = 8;
    config.max_iter = 40;
    config.restarts = restarts;
    config
}

/// Model 0 accurate before the flip, model 1 after, model 2 never.
fn regime_stream(n: usize, flip: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let actuals: Vec<f64> = (0..n)
        .map(|t| (t as f64 / 6.0).sin() * 3.0 + 10.0)
        .collect();
    let preds = actuals
        .iter()
        .enumerate()
        .map(|(t, &a)| {
            let w = ((t * 7) % 13) as f64 / 13.0 - 0.5;
            if t < flip {
                vec![a + 0.1 * w, a + 2.5 + w, a - 7.0]
            } else {
                vec![a + 2.5 - w, a + 0.1 * w, a - 7.0]
            }
        })
        .collect();
    (preds, actuals)
}

/// FNV-1a over a byte stream.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Digest of one policy-learning call: the deployed actor's parameters,
/// the learning curve, and every `eadrl.candidate` / `eadrl.restart` /
/// `eadrl.selection` payload in emission order. Clears the sink.
fn learning_digest(policy: &mut EaDrlPolicy, sink: &RingSink) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let snapshot = policy.snapshot().expect("trained policy must snapshot");
    for p in &snapshot.params {
        fnv1a(&mut hash, &p.to_bits().to_le_bytes());
    }
    for ep in policy.learning_curve() {
        for x in [
            ep.total_reward,
            ep.avg_reward,
            ep.critic_loss,
            ep.actor_objective,
        ] {
            fnv1a(&mut hash, &x.to_bits().to_le_bytes());
        }
        fnv1a(&mut hash, &(ep.steps as u64).to_le_bytes());
    }
    for e in sink.events() {
        if matches!(
            e.name.as_str(),
            "eadrl.candidate" | "eadrl.restart" | "eadrl.selection"
        ) {
            // Debug-formatting of f64 round-trips, so this covers the
            // payload bits and the field order.
            fnv1a(&mut hash, format!("{} {:?}", e.name, e.fields).as_bytes());
        }
    }
    sink.clear();
    hash
}

/// One warm-up + online run at the current thread count, capturing every
/// bit the determinism contract covers.
struct RunCapture {
    snapshot_bits: (Vec<u64>, Vec<u64>),
    prediction_bits: Vec<u64>,
    weight_payload_bits: Vec<Vec<u64>>,
    restart_events: Vec<String>,
}

fn run_warm_up() -> RunCapture {
    let sink = Arc::new(RingSink::new(4096));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));

    let (preds, actuals) = regime_stream(260, 500); // no flip in range
    let (wp, op) = preds.split_at(120);
    let (wa, oa) = actuals.split_at(120);

    let mut policy = EaDrlPolicy::new(quick_config(4));
    policy.warm_up(wp, wa);
    let snapshot = policy.snapshot().expect("trained policy must snapshot");
    let snapshot_bits = (
        snapshot.params.iter().map(|p| p.to_bits()).collect(),
        snapshot.window.iter().map(|w| w.to_bits()).collect(),
    );

    let out = run_combiner(&mut policy, op, oa);
    let prediction_bits = out.iter().map(|p| p.to_bits()).collect();

    let weight_payload_bits: Vec<Vec<u64>> = sink
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
        !weight_payload_bits.is_empty(),
        "expected eadrl.weights events at debug level"
    );
    // Debug-formatting of f64 round-trips, so this captures both the
    // payload bits and the field order of every per-restart event.
    let restart_events = sink
        .events_named("eadrl.restart")
        .iter()
        .map(|e| format!("{:?}", e.fields))
        .collect();
    RunCapture {
        snapshot_bits,
        prediction_bits,
        weight_payload_bits,
        restart_events,
    }
}

#[test]
fn parallel_restarts_and_warm_start_refresh_match_serial_contract() {
    // --- Part 1: serial vs parallel restart sweep, bit for bit. ---
    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads);
        runs.push((threads, run_warm_up()));
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);

    let (_, reference) = &runs[0];
    assert_eq!(
        reference.restart_events.len(),
        4,
        "one eadrl.restart event per restart"
    );
    for (i, ev) in reference.restart_events.iter().enumerate() {
        assert!(
            ev.contains(&format!("(\"restart\", U64({i}))")),
            "restart events must flush in restart order, got {ev} at {i}"
        );
    }
    for (threads, run) in &runs[1..] {
        assert_eq!(
            run.snapshot_bits, reference.snapshot_bits,
            "policy snapshot diverged from serial at {threads} threads"
        );
        assert_eq!(
            run.prediction_bits, reference.prediction_bits,
            "predictions diverged from serial at {threads} threads"
        );
        assert_eq!(
            run.weight_payload_bits, reference.weight_payload_bits,
            "eadrl.weights telemetry diverged from serial at {threads} threads"
        );
        assert_eq!(
            run.restart_events, reference.restart_events,
            "eadrl.restart telemetry diverged from serial at {threads} threads"
        );
    }

    // --- Part 2: warm-start refresh still recovers from drift, with a
    // fraction of the training episodes per refresh. ---
    let (preds, actuals) = regime_stream(320, 200);
    let (wp, op) = preds.split_at(100);
    let (wa, oa) = actuals.split_at(100);

    let mut frozen = EaDrlPolicy::new(quick_config(1));
    frozen.warm_up(wp, wa);
    let frozen_out = run_combiner(&mut frozen, op, oa);

    let warm_episodes = 6;
    let mut adaptive = AdaptiveEaDrl::new(
        quick_config(1),
        RefreshTrigger::DriftDetected {
            delta: 0.05,
            lambda: 6.0,
        },
        60,
    )
    .with_strategy(RefreshStrategy::WarmStart {
        episodes: warm_episodes,
    });
    adaptive.warm_up(wp, wa);
    let adaptive_out = run_combiner(&mut adaptive, op, oa);

    assert!(
        adaptive.refreshes() >= 1,
        "drift never triggered a warm-start refresh"
    );
    // Each warm-start refresh trained `warm_episodes` episodes, not the
    // full offline schedule — the policy's learning curve records the
    // last refinement run.
    assert_eq!(
        adaptive.policy().learning_curve().len(),
        warm_episodes,
        "warm-start refresh must run only the configured refinement episodes"
    );
    // Post-flip segment (flip at absolute 200 = online step 100): the
    // same recovery bound the cold-strategy drift test enforces.
    let frozen_post = rmse(&oa[120..], &frozen_out[120..]);
    let adaptive_post = rmse(&oa[120..], &adaptive_out[120..]);
    assert!(
        adaptive_post < frozen_post,
        "warm-start refresh did not help after drift: adaptive {adaptive_post:.3} vs frozen {frozen_post:.3}"
    );

    // --- Part 3: warm-up and refine are pinned bit for bit. ---
    let sink = Arc::new(RingSink::new(8192));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));
    let mut informed = EaDrlPolicy::new(quick_config(2));
    informed.warm_up(wp, wa);
    let informed_digest = learning_digest(&mut informed, &sink);
    assert!(
        informed.refine(&preds[150..260], &actuals[150..260], warm_episodes),
        "a trained policy with a matching pool width must refine"
    );
    let refined_digest = learning_digest(&mut informed, &sink);
    let mut cold = EaDrlPolicy::new(EaDrlConfig {
        informed_init: false,
        ..quick_config(2)
    });
    cold.warm_up(wp, wa);
    let cold_digest = learning_digest(&mut cold, &sink);
    assert_eq!(
        [informed_digest, refined_digest, cold_digest],
        [
            0x13ea_598a_0bad_2a48,
            0xd38c_430f_1891_3cce,
            0x829c_109a_68c2_2b17
        ],
        "policy learning drifted from the recorded digests \
         [informed warm_up, refine, cold warm_up]"
    );
}
