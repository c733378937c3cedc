//! Persistence of trained combination policies.
//!
//! EA-DRL's whole deployment story is "train offline, ship the policy
//! network" — so the policy must survive a process restart. A
//! [`PolicySnapshot`] captures everything needed to rebuild the deployed
//! actor (topology, squash, parameters) in a small, dependency-free text
//! format. Parameters are stored as hexadecimal `f64` bit patterns, so
//! the round trip is bit-exact.

use eadrl_rl::ActionSquash;
use std::io::{BufRead, BufReader, Read, Write};

/// A serializable snapshot of a trained EA-DRL actor.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    /// State window length ω.
    pub omega: usize,
    /// Action dimension (pool size m).
    pub action_dim: usize,
    /// Hidden-layer sizes of the actor MLP.
    pub hidden: Vec<usize>,
    /// Output map.
    pub squash: ActionSquash,
    /// Flat actor parameters (see `eadrl_nn::Network::flat_params`).
    pub params: Vec<f64>,
    /// The deployed policy's current state window (so a restored policy
    /// resumes exactly where the saved one stopped).
    pub window: Vec<f64>,
}

/// Errors while reading a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the snapshot text.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Format(msg) => write!(f, "snapshot format error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

const MAGIC: &str = "eadrl-policy v1";

/// Largest accepted layer width (ω, hidden sizes, pool size): far above
/// any real EA-DRL policy, low enough that a corrupt size is rejected
/// before the actor and critic are allocated from it.
const MAX_WIDTH: usize = 1 << 16;
/// Largest accepted number of hidden layers.
const MAX_DEPTH: usize = 64;
/// Largest accepted magnitude of a parameter or window value. Trained
/// actor parameters stay many orders of magnitude below it (the largest
/// are the informed initialization's logits, `T · e_i / min_j e_j` with
/// the minimum floored at 1e-12); a value above it is corruption, and
/// would overflow the actor's forward pass.
const MAX_ABS_VALUE: f64 = 1e50;

/// Largest accepted parameter count of the actor, and of the critic that
/// restoring builds beside it (`omega + action_dim → hidden… → 1`).
const MAX_PARAMS: usize = 1 << 24;

/// The flat parameter count of a dense stack `input → hidden… → output`
/// (weights then bias per layer), or `None` on overflow.
fn dense_param_count(input: usize, hidden: &[usize], output: usize) -> Option<usize> {
    let mut fan_in = input;
    let mut total = 0usize;
    for &fan_out in hidden.iter().chain(std::iter::once(&output)) {
        let layer = fan_in.checked_mul(fan_out)?.checked_add(fan_out)?;
        total = total.checked_add(layer)?;
        fan_in = fan_out;
    }
    Some(total)
}

/// The actor's parameter count for the topology, after checking that
/// neither it nor the critic exceeds [`MAX_PARAMS`].
fn actor_param_count(
    omega: usize,
    hidden: &[usize],
    action_dim: usize,
) -> Result<usize, PersistError> {
    let critic_input = omega.checked_add(action_dim);
    let actor = dense_param_count(omega, hidden, action_dim);
    let critic = critic_input.and_then(|input| dense_param_count(input, hidden, 1));
    match (actor, critic) {
        (Some(actor), Some(critic)) if actor <= MAX_PARAMS && critic <= MAX_PARAMS => Ok(actor),
        _ => Err(PersistError::Format(format!(
            "topology {omega}→{hidden:?}→{action_dim} exceeds {MAX_PARAMS} parameters"
        ))),
    }
}

fn check_width(label: &str, value: usize) -> Result<usize, PersistError> {
    if (1..=MAX_WIDTH).contains(&value) {
        Ok(value)
    } else {
        Err(PersistError::Format(format!(
            "{label}: {value} is outside 1..={MAX_WIDTH}"
        )))
    }
}

fn check_values(label: &str, values: &[f64]) -> Result<(), PersistError> {
    match values
        .iter()
        .position(|v| !v.is_finite() || v.abs() > MAX_ABS_VALUE)
    {
        None => Ok(()),
        Some(i) => Err(PersistError::Format(format!(
            "{label}[{i}] = {} is not a finite value within ±{MAX_ABS_VALUE:e}",
            values[i]
        ))),
    }
}

fn squash_tag(squash: ActionSquash) -> String {
    match squash {
        ActionSquash::Identity => "identity".to_string(),
        ActionSquash::Tanh => "tanh".to_string(),
        ActionSquash::Softmax => "softmax".to_string(),
        ActionSquash::BoundedSoftmax { scale } => {
            format!("bounded:{:x}", scale.to_bits())
        }
    }
}

fn parse_squash(tag: &str) -> Result<ActionSquash, PersistError> {
    match tag {
        "identity" => Ok(ActionSquash::Identity),
        "tanh" => Ok(ActionSquash::Tanh),
        "softmax" => Ok(ActionSquash::Softmax),
        other => {
            if let Some(hex) = other.strip_prefix("bounded:") {
                let bits = u64::from_str_radix(hex, 16)
                    .map_err(|_| PersistError::Format(format!("bad squash scale {hex:?}")))?;
                Ok(ActionSquash::BoundedSoftmax {
                    scale: f64::from_bits(bits),
                })
            } else {
                Err(PersistError::Format(format!("unknown squash {other:?}")))
            }
        }
    }
}

fn write_floats<W: Write>(writer: &mut W, label: &str, values: &[f64]) -> std::io::Result<()> {
    write!(writer, "{label} {}", values.len())?;
    for v in values {
        write!(writer, " {:x}", v.to_bits())?;
    }
    writeln!(writer)
}

fn parse_floats(line: &str, label: &str) -> Result<Vec<f64>, PersistError> {
    let mut parts = line.split_whitespace();
    let got = parts.next().unwrap_or_default();
    if got != label {
        return Err(PersistError::Format(format!(
            "expected {label:?} line, got {got:?}"
        )));
    }
    let count: usize = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| PersistError::Format(format!("{label}: bad count")))?;
    let values: Result<Vec<f64>, _> = parts
        .map(|hex| u64::from_str_radix(hex, 16).map(f64::from_bits))
        .collect();
    let values = values.map_err(|_| PersistError::Format(format!("{label}: bad hex float")))?;
    if values.len() != count {
        return Err(PersistError::Format(format!(
            "{label}: expected {count} values, found {}",
            values.len()
        )));
    }
    Ok(values)
}

impl PolicySnapshot {
    /// Writes the snapshot in the v1 text format.
    pub fn write<W: Write>(&self, mut writer: W) -> Result<(), PersistError> {
        writeln!(writer, "{MAGIC}")?;
        writeln!(writer, "omega {}", self.omega)?;
        writeln!(writer, "action_dim {}", self.action_dim)?;
        write!(writer, "hidden {}", self.hidden.len())?;
        for h in &self.hidden {
            write!(writer, " {h}")?;
        }
        writeln!(writer)?;
        writeln!(writer, "squash {}", squash_tag(self.squash))?;
        write_floats(&mut writer, "params", &self.params)?;
        write_floats(&mut writer, "window", &self.window)?;
        Ok(())
    }

    /// Reads a snapshot written by [`PolicySnapshot::write`].
    ///
    /// Anything [`crate::EaDrlPolicy::restore`] could not rebuild is a
    /// [`PersistError::Format`], never a panic: sizes outside
    /// `1..=65536` (or more than 64 hidden layers), an actor or critic
    /// beyond 2^24 parameters, a parameter count that does not match the
    /// `(omega, hidden, action_dim)` topology, a window longer than
    /// `omega`, and non-finite or implausibly large (beyond ±1e50)
    /// parameter, window or squash-scale values.
    pub fn read<R: Read>(reader: R) -> Result<Self, PersistError> {
        let mut lines = BufReader::new(reader).lines();
        let mut next = |what: &str| -> Result<String, PersistError> {
            lines
                .next()
                .ok_or_else(|| PersistError::Format(format!("missing {what} line")))?
                .map_err(PersistError::Io)
        };
        let magic = next("magic")?;
        if magic.trim() != MAGIC {
            return Err(PersistError::Format(format!(
                "bad magic {magic:?}, expected {MAGIC:?}"
            )));
        }
        let parse_usize_line = |line: String, label: &str| -> Result<usize, PersistError> {
            let mut parts = line.split_whitespace();
            if parts.next() != Some(label) {
                return Err(PersistError::Format(format!("expected {label} line")));
            }
            parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| PersistError::Format(format!("{label}: bad value")))
        };
        let omega = check_width("omega", parse_usize_line(next("omega")?, "omega")?)?;
        let action_dim = check_width(
            "action_dim",
            parse_usize_line(next("action_dim")?, "action_dim")?,
        )?;
        let hidden_line = next("hidden")?;
        let mut hp = hidden_line.split_whitespace();
        if hp.next() != Some("hidden") {
            return Err(PersistError::Format("expected hidden line".into()));
        }
        let hcount: usize = hp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| PersistError::Format("hidden: bad count".into()))?;
        if hcount > MAX_DEPTH {
            return Err(PersistError::Format(format!(
                "hidden: {hcount} layers exceed {MAX_DEPTH}"
            )));
        }
        let hidden: Result<Vec<usize>, _> = hp
            .map(|v| match v.parse::<usize>() {
                Ok(size) => check_width("hidden", size),
                Err(_) => Err(PersistError::Format("hidden: bad size".into())),
            })
            .collect();
        let hidden = hidden?;
        if hidden.len() != hcount {
            return Err(PersistError::Format("hidden: count mismatch".into()));
        }
        let expected_params = actor_param_count(omega, &hidden, action_dim)?;
        let squash_line = next("squash")?;
        let tag = squash_line
            .strip_prefix("squash ")
            .ok_or_else(|| PersistError::Format("expected squash line".into()))?;
        let squash = parse_squash(tag.trim())?;
        if let ActionSquash::BoundedSoftmax { scale } = squash {
            check_values("squash scale", &[scale])?;
        }
        let params = parse_floats(&next("params")?, "params")?;
        if params.len() != expected_params {
            return Err(PersistError::Format(format!(
                "params: {} values, but the topology {omega}→{hidden:?}→{action_dim} has {expected_params}",
                params.len()
            )));
        }
        check_values("params", &params)?;
        let window = parse_floats(&next("window")?, "window")?;
        if window.len() > omega {
            return Err(PersistError::Format(format!(
                "window: {} values exceed omega = {omega}",
                window.len()
            )));
        }
        check_values("window", &window)?;
        Ok(PolicySnapshot {
            omega,
            action_dim,
            hidden,
            squash,
            params,
            window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3 → 5 → 4 actor: 3·5 + 5 + 5·4 + 4 = 44 parameters.
    fn sample() -> PolicySnapshot {
        let mut params = vec![0.1, -2.5, std::f64::consts::PI, 1e-300];
        params.extend((4..44).map(|i| f64::from(i) * 0.01 - 0.2));
        PolicySnapshot {
            omega: 3,
            action_dim: 4,
            hidden: vec![5],
            squash: ActionSquash::BoundedSoftmax { scale: 6.0 },
            params,
            window: vec![1.0, 2.0, 3.0],
        }
    }

    fn written(snap: &PolicySnapshot) -> String {
        let mut buf = Vec::new();
        snap.write(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn rejects(text: &str) -> bool {
        matches!(
            PolicySnapshot::read(text.as_bytes()),
            Err(PersistError::Format(_))
        )
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let snap = sample();
        let mut buf = Vec::new();
        snap.write(&mut buf).unwrap();
        let back = PolicySnapshot::read(buf.as_slice()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn all_squash_variants_roundtrip() {
        for squash in [
            ActionSquash::Identity,
            ActionSquash::Tanh,
            ActionSquash::Softmax,
            ActionSquash::BoundedSoftmax { scale: 3.25 },
        ] {
            let snap = PolicySnapshot { squash, ..sample() };
            let mut buf = Vec::new();
            snap.write(&mut buf).unwrap();
            assert_eq!(PolicySnapshot::read(buf.as_slice()).unwrap().squash, squash);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = PolicySnapshot::read("not a policy\n".as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let snap = sample();
        let mut buf = Vec::new();
        snap.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(PolicySnapshot::read(truncated.as_bytes()).is_err());
    }

    #[test]
    fn corrupted_params_are_rejected() {
        let snap = sample();
        let mut buf = Vec::new();
        snap.write(&mut buf).unwrap();
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("params 44", "params 49");
        assert!(PolicySnapshot::read(text.as_bytes()).is_err());
    }

    #[test]
    fn param_count_must_match_the_topology() {
        assert_eq!(actor_param_count(3, &[5], 4).ok(), Some(44));
        assert_eq!(actor_param_count(10, &[32, 32], 43).ok(), Some(2827));
        assert_eq!(dense_param_count(usize::MAX, &[2], 1), None);
        // A small actor whose critic would be huge.
        assert_eq!(dense_param_count(1, &[65536, 1], 65536), Some(327_681));
        assert!(actor_param_count(1, &[65536, 1], 65536).is_err());
        // Consistent counts, wrong topology: one parameter short.
        let mut short = sample();
        short.params.pop();
        assert!(rejects(&written(&short)));
        // A different hidden width with the same parameter count line.
        let text = written(&sample()).replace("hidden 1 5", "hidden 1 6");
        assert!(rejects(&text));
    }

    #[test]
    fn zero_and_absurd_sizes_are_rejected() {
        let text = written(&sample());
        for (from, to) in [
            ("omega 3", "omega 0"),
            ("action_dim 4", "action_dim 0"),
            ("hidden 1 5", "hidden 1 0"),
            ("omega 3", "omega 99999999999"),
            ("hidden 1 5", "hidden 100000 5"),
            ("action_dim 4", "action_dim 18446744073709551615"),
        ] {
            assert!(rejects(&text.replacen(from, to, 1)), "{to}");
        }
    }

    #[test]
    fn non_finite_values_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -1e300] {
            let mut snap = sample();
            snap.params[7] = bad;
            assert!(rejects(&written(&snap)), "param {bad}");
            let mut snap = sample();
            snap.window[1] = bad;
            assert!(rejects(&written(&snap)), "window {bad}");
            let snap = PolicySnapshot {
                squash: ActionSquash::BoundedSoftmax { scale: bad },
                ..sample()
            };
            assert!(rejects(&written(&snap)), "scale {bad}");
        }
        let mut long = sample();
        long.window.push(4.0);
        assert!(rejects(&written(&long)), "window longer than omega");
    }
}
