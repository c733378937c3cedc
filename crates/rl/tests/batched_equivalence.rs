//! Differential test for the DDPG update against its per-sample reference.
//!
//! [`DdpgAgent::update`] re-expresses the per-sample critic/actor updates
//! of [`reference::update_per_sample`] as one batched forward/backward per
//! network. The repo's determinism contract requires the rewrite to be
//! *bitwise* equivalent, not just numerically close: after any number of
//! updates on identical replay contents, both must hold identical
//! parameters (actor, critic, and both Polyak targets) and report
//! identical [`eadrl_rl::UpdateStats`].
//!
//! The batch size is deliberately not a power of two so that the
//! `x / n as f64` mean-reduction terms cannot silently be replaced by a
//! reciprocal multiply (which rounds differently).

use eadrl_rl::{reference, ActionSquash, DdpgAgent, DdpgConfig, SamplingStrategy, Transition};
use eadrl_rng::DetRng;

const STATE_DIM: usize = 3;
const ACTION_DIM: usize = 4;

fn agent(sampling: SamplingStrategy) -> DdpgAgent {
    DdpgAgent::new(
        STATE_DIM,
        ACTION_DIM,
        DdpgConfig {
            gamma: 0.9,
            actor_lr: 0.005,
            critic_lr: 0.01,
            tau: 0.02,
            // Non-power-of-2: 1/33 is inexact, so any reciprocal-multiply
            // shortcut in the batched path would change low-order bits.
            batch_size: 33,
            buffer_capacity: 1_000,
            sampling,
            hidden: vec![16, 8],
            squash: ActionSquash::Softmax,
            noise_sigma: 0.2,
            // Non-zero so the actor's logit-regularisation term is part of
            // the comparison.
            actor_logit_reg: 1e-3,
            seed: 11,
        },
    )
}

/// Deterministic synthetic replay contents: both agents observe the same
/// transition stream, including occasional terminal transitions so the
/// `done` branch of the Bellman target is exercised.
fn fill_buffer(agent: &mut DdpgAgent, transitions: usize) {
    let mut rng = DetRng::seed_from_u64(404);
    for i in 0..transitions {
        let state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let next_state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mut action: Vec<f64> = (0..ACTION_DIM)
            .map(|_| rng.random_range(0.0..1.0))
            .collect();
        let sum: f64 = action.iter().sum();
        for a in action.iter_mut() {
            *a /= sum;
        }
        agent.observe(Transition {
            state,
            action,
            reward: rng.random_range(-1.0..1.0),
            next_state,
            done: i % 7 == 0,
        });
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_paths_agree(sampling: SamplingStrategy) {
    let mut batched = agent(sampling);
    let mut per_sample = agent(sampling);
    fill_buffer(&mut batched, 120);
    fill_buffer(&mut per_sample, 120);

    for step in 0..8 {
        let sb = batched.update().expect("buffer is filled");
        let sp = reference::update_per_sample(&mut per_sample).expect("buffer is filled");
        assert_eq!(
            sb.critic_loss.to_bits(),
            sp.critic_loss.to_bits(),
            "critic_loss diverged at update {step} ({sampling:?}): \
             batched {} vs per-sample {}",
            sb.critic_loss,
            sp.critic_loss,
        );
        assert_eq!(
            sb.actor_objective.to_bits(),
            sp.actor_objective.to_bits(),
            "actor_objective diverged at update {step} ({sampling:?}): \
             batched {} vs per-sample {}",
            sb.actor_objective,
            sp.actor_objective,
        );
        assert_eq!(
            bits(&batched.actor_params()),
            bits(&per_sample.actor_params()),
            "actor parameters diverged at update {step} ({sampling:?})"
        );
        assert_eq!(
            bits(&batched.critic_params()),
            bits(&per_sample.critic_params()),
            "critic parameters diverged at update {step} ({sampling:?})"
        );
        assert_eq!(
            bits(&batched.target_params()),
            bits(&per_sample.target_params()),
            "target parameters diverged at update {step} ({sampling:?})"
        );
    }

    // The updated policies act identically too.
    let probe = [0.25, -0.5, 0.75];
    assert_eq!(
        bits(&batched.act(&probe)),
        bits(&per_sample.act(&probe)),
        "greedy actions diverged ({sampling:?})"
    );
}

#[test]
fn batched_updates_match_per_sample_bitwise_uniform() {
    assert_paths_agree(SamplingStrategy::Uniform);
}

#[test]
fn batched_updates_match_per_sample_bitwise_diversity() {
    assert_paths_agree(SamplingStrategy::Diversity);
}
