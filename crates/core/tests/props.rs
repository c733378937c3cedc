//! Property-based tests for the EA-DRL core.

use eadrl_core::baselines::opera::project_simplex;
use eadrl_core::env::normalize_window;
use eadrl_core::{Combiner, EaDrlConfig, EaDrlPolicy, EnsembleEnv, PolicySnapshot, RewardKind};
use eadrl_ptest::prelude::*;
use eadrl_rl::{ActionSquash, DdpgAgent, Environment};

/// A well-formed snapshot text: a freshly initialized 6 → 8 → 8 → 5
/// actor (real parameter magnitudes) and a full state window.
fn snapshot_text(squash: ActionSquash) -> String {
    let mut config = EaDrlConfig::default();
    config.ddpg.hidden = vec![8, 8];
    config.ddpg.squash = squash;
    let mut agent = DdpgAgent::new(6, 5, config.ddpg);
    let snapshot = PolicySnapshot {
        omega: 6,
        action_dim: 5,
        hidden: vec![8, 8],
        squash,
        params: agent.actor_params(),
        window: vec![20.5, 21.0, 19.75, 22.0, 20.0, 21.25],
    };
    let mut buf = Vec::new();
    snapshot.write(&mut buf).expect("write to a Vec");
    String::from_utf8(buf).expect("snapshots are ASCII")
}

/// Applies one mutation to a snapshot text: `kind` 0 truncates at
/// `pos`, 1 overwrites the hex digit at (or after) `pos` with `digit`,
/// 2 replaces the first number of line `pos` with an edited count.
fn mutate(text: &str, kind: usize, pos: usize, digit: usize) -> String {
    match kind {
        0 => text[..pos % text.len()].to_string(),
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            let start = pos % bytes.len();
            if let Some(i) = (start..bytes.len()).find(|&i| bytes[i].is_ascii_hexdigit()) {
                bytes[i] = b"0123456789abcdef"[digit % 16];
            }
            String::from_utf8(bytes).expect("hex digits keep the text ASCII")
        }
        _ => {
            let lines: Vec<&str> = text.lines().collect();
            let target = pos % lines.len();
            let edited: Vec<String> = lines
                .iter()
                .enumerate()
                .map(|(i, line)| {
                    let mut parts: Vec<String> = line.split(' ').map(str::to_string).collect();
                    if i == target && parts.len() > 1 {
                        let n: u64 = parts[1].parse().unwrap_or(0);
                        parts[1] = match digit % 6 {
                            0 => "0".to_string(),
                            1 => n.saturating_sub(1).to_string(),
                            2 => (n + 1).to_string(),
                            3 => (n * 2).to_string(),
                            4 => u64::MAX.to_string(),
                            _ => "99999999999999999999999".to_string(),
                        };
                    }
                    parts.join(" ")
                })
                .collect();
            edited.join("\n") + "\n"
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// A corrupted snapshot is either rejected with an error or restores
    /// a policy that serves finite weights — it never panics.
    #[test]
    fn corrupt_snapshots_are_rejected_or_serve_finitely(
        kind in 0usize..3,
        pos in 0usize..100_000,
        digit in 0usize..16,
        bounded in 0usize..2,
    ) {
        let squash = if bounded == 1 {
            ActionSquash::BoundedSoftmax { scale: 3.0 }
        } else {
            ActionSquash::Softmax
        };
        let text = mutate(&snapshot_text(squash), kind, pos, digit);
        if let Ok(snapshot) = PolicySnapshot::read(text.as_bytes()) {
            let m = snapshot.action_dim;
            let mut policy = EaDrlPolicy::restore(EaDrlConfig::default(), &snapshot);
            for step in 0..8 {
                let w = policy.weights(m);
                prop_assert_eq!(w.len(), m);
                prop_assert!(w.iter().all(|v| v.is_finite()), "non-finite weights {w:?}");
                let preds: Vec<f64> = (0..m).map(|i| 20.0 + (i + step) as f64 * 0.25).collect();
                let served = policy.combine(&preds);
                prop_assert!(served.is_finite(), "non-finite forecast {served}");
                policy.observe(&preds, 21.0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simplex_projection_is_idempotent_and_valid(
        v in prop::collection::vec(-100.0f64..100.0, 1..20),
    ) {
        let p = project_simplex(&v);
        prop_assert_eq!(p.len(), v.len());
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
        // Projecting again changes nothing.
        let q = project_simplex(&p);
        for (a, b) in p.iter().zip(q.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_preserves_order(v in prop::collection::vec(-10.0f64..10.0, 2..12)) {
        let p = project_simplex(&v);
        for i in 0..v.len() {
            for j in 0..v.len() {
                if v[i] > v[j] {
                    prop_assert!(p[i] >= p[j] - 1e-12, "order violated at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn normalized_windows_have_zero_mean_unit_std(
        window in prop::collection::vec(-1e4f64..1e4, 2..30),
    ) {
        let spread = window.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - window.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1e-6);
        let n = normalize_window(&window);
        let mean: f64 = n.iter().sum::<f64>() / n.len() as f64;
        let var: f64 = n.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n.len() as f64;
        prop_assert!(mean.abs() < 1e-9);
        prop_assert!((var - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rank_reward_is_always_in_range(
        noise in prop::collection::vec(-5.0f64..5.0, 20..40),
        offsets in prop::collection::vec(-10.0f64..10.0, 3),
        weights_raw in prop::collection::vec(0.01f64..1.0, 3),
    ) {
        let actuals: Vec<f64> = noise.iter().scan(0.0, |acc, n| {
            *acc += n;
            Some(*acc)
        }).collect();
        let preds: Vec<Vec<f64>> = actuals
            .iter()
            .map(|&a| offsets.iter().map(|o| a + o).collect())
            .collect();
        let m = offsets.len();
        let total: f64 = weights_raw.iter().sum();
        let weights: Vec<f64> = weights_raw.iter().map(|w| w / total).collect();

        let mut env = EnsembleEnv::new(
            preds,
            actuals,
            5,
            RewardKind::Rank { normalize: true },
            1000,
        );
        env.reset();
        loop {
            let (state, reward, done) = env.step(&weights);
            prop_assert!(reward >= 1.0 / m as f64 - 1e-12 && reward <= 1.0 + 1e-12,
                "normalized rank reward {reward} out of range");
            prop_assert_eq!(state.len(), 5);
            prop_assert!(state.iter().all(|v| v.is_finite()));
            if done {
                break;
            }
        }
    }

    #[test]
    fn nrmse_reward_never_exceeds_one(
        noise in prop::collection::vec(-3.0f64..3.0, 20..40),
        offset in -5.0f64..5.0,
    ) {
        let actuals: Vec<f64> = (0..noise.len())
            .map(|t| (t as f64 / 4.0).sin() * 3.0 + noise[t] * 0.1)
            .collect();
        let preds: Vec<Vec<f64>> = actuals.iter().map(|&a| vec![a + offset, a]).collect();
        let mut env = EnsembleEnv::new(preds, actuals, 4, RewardKind::OneMinusNrmse, 1000);
        env.reset();
        loop {
            let (_, reward, done) = env.step(&[0.5, 0.5]);
            prop_assert!(reward <= 1.0 + 1e-9, "1-NRMSE reward {reward} > 1");
            if done {
                break;
            }
        }
    }
}
