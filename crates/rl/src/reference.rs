//! The transition-at-a-time DDPG update: the differential reference for
//! [`DdpgAgent::update`], not a training API.
//!
//! The agent trains through one path, the minibatch-as-matrix update.
//! [`update_per_sample`] is the loop it replaced: one forward/backward
//! per network per sampled transition. It stays so that
//! `tests/batched_equivalence.rs` can prove the two bitwise-identical in
//! every observable way — post-update parameters, [`UpdateStats`],
//! telemetry at levels up to `debug`, and the RNG stream — and so that
//! the `kernels` bench of `eadrl-bench` can measure the gap. (At `trace`
//! level the batched update additionally emits per-phase profiling spans
//! inside `ddpg.update`, which this loop lacks.)

use crate::ddpg::{concat, DdpgAgent, UpdateStats};
use crate::replay::Transition;
use eadrl_nn::{Network, Optimizer};
use eadrl_obs::Level;

/// Runs one DDPG update on `agent` one transition at a time. Same
/// contract as [`DdpgAgent::update`]: `None` until the replay buffer
/// holds a batch, otherwise exactly one replay-sampling draw and the
/// update's diagnostics.
pub fn update_per_sample(agent: &mut DdpgAgent) -> Option<UpdateStats> {
    let n = agent.config.batch_size;
    if agent.buffer.len() < n {
        return None;
    }
    let _span = eadrl_obs::span_at(Level::Trace, "ddpg.update");
    let batch: Vec<Transition> = agent
        .buffer
        .sample(n, agent.config.sampling, &mut agent.rng)
        .into_iter()
        .cloned()
        .collect();

    // ---- Critic update: minimize (Q(s,a) - y)² with Bellman targets.
    let mut targets = Vec::with_capacity(n);
    for t in &batch {
        let raw_next = agent.target_actor.forward_inference(&t.next_state);
        let a_next = agent.config.squash.forward(&raw_next);
        let q_next = agent
            .target_critic
            .forward_inference(&concat(&t.next_state, &a_next))[0];
        let y = t.reward
            + if t.done {
                0.0
            } else {
                agent.config.gamma * q_next
            };
        targets.push(y);
    }
    agent.critic.zero_grad();
    let mut critic_loss = 0.0;
    for (t, &y) in batch.iter().zip(targets.iter()) {
        let q = agent.critic.forward(&concat(&t.state, &t.action))[0];
        let err = q - y;
        critic_loss += err * err / n as f64;
        let g = 2.0 * err / n as f64;
        agent.critic.backward(&[g]);
    }
    // Gradient norms are only interesting to traces: report the
    // pre-clip norm the clip computes anyway, and only at debug level.
    let norm = agent.critic.clip_grad_norm(5.0);
    let critic_grad_norm = eadrl_obs::enabled(Level::Debug).then_some(norm);
    agent.critic_opt.step(&mut agent.critic);

    // ---- Actor update: ascend ∇_θ Q(s, π_θ(s)).
    agent.actor.zero_grad();
    agent.critic.zero_grad(); // scratch space for input gradients
    let mut actor_objective = 0.0;
    for t in &batch {
        let raw = agent.actor.forward(&t.state);
        let action = agent.config.squash.forward(&raw);
        let q = agent.critic.forward(&concat(&t.state, &action));
        actor_objective += q[0] / n as f64;
        // dQ/d(input) with loss = -Q / n (gradient ascent on Q).
        let grad_in = agent.critic.backward(&[-1.0 / n as f64]);
        let grad_action = &grad_in[agent.state_dim..];
        let mut grad_raw = agent.config.squash.backward(&raw, &action, grad_action);
        // Logit weight decay: keeps the actor out of squash saturation.
        let reg = agent.config.actor_logit_reg;
        if reg > 0.0 {
            for (g, &r) in grad_raw.iter_mut().zip(raw.iter()) {
                *g += reg * r / n as f64;
            }
        }
        agent.actor.backward(&grad_raw);
    }
    let norm = agent.actor.clip_grad_norm(5.0);
    let actor_grad_norm = eadrl_obs::enabled(Level::Debug).then_some(norm);
    agent.actor_opt.step(&mut agent.actor);
    agent.critic.zero_grad(); // discard scratch gradients

    agent.polyak_target_updates();
    let stats = UpdateStats {
        critic_loss,
        actor_objective,
        critic_grad_norm,
        actor_grad_norm,
    };
    agent.count_update(&stats);
    Some(stats)
}
