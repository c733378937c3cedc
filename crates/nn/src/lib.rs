#![allow(clippy::needless_range_loop)] // index loops over multiple parallel arrays read clearer in numeric kernels

//! Minimal neural-network library with manual backpropagation.
//!
//! This crate is the learning substrate of the reproduction. It powers
//!
//! * the **actor** (policy) and **critic** (value) networks of the DDPG
//!   agent in `eadrl-rl` — plain MLPs, as in the paper's setup, and
//! * the neural base forecasters of `eadrl-models` (MLP, LSTM, Bi-LSTM,
//!   CNN-LSTM, Conv-LSTM).
//!
//! Scope is deliberately small: forward/backward passes over `f64` slices,
//! explicit gradient buffers per layer, and optimizers that walk a
//! network's parameters via the [`Network`] visitor. Every layer trains
//! through one batched, workspace-backed path: minibatch-as-matrix GEMMs
//! for [`Dense`]/[`Mlp`] (whose per-sample `forward`/`backward` are the
//! batch-of-1 case of the same code) and stacked-gate recurrent kernels
//! for [`Lstm`]/[`BiLstm`]/[`Conv1d`]. The per-sequence and per-sample
//! loops those kernels replaced are kept in
//! [`reference`](mod@reference) as the differential oracle the batched
//! paths are proven bitwise-identical to; [`gradcheck`] checks any layer
//! against finite differences.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod gradcheck;
pub mod init;
pub mod loss;
pub mod lstm;
pub mod mlp;
pub mod network;
pub mod optimizer;
pub mod reference;

pub use activation::Activation;
pub use conv::{Conv1d, ConvInferenceCache, ConvWorkspace};
pub use dense::Dense;
pub use gradcheck::{check_gradients, check_gradients_batched, probe_indices, GradCheckReport};
pub use loss::{mse_loss, mse_loss_grad};
pub use lstm::{
    BiLstm, BiLstmInferenceCache, BiRecurrentWorkspace, Lstm, LstmInferenceCache,
    RecurrentWorkspace,
};
pub use mlp::Mlp;
pub use network::{BatchNetwork, Network};
pub use optimizer::{Adam, Optimizer, Sgd};
