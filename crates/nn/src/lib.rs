//! # lttf-nn
//!
//! Neural-network building blocks for the Conformer (ICDE 2023)
//! reproduction: parameter management, layers, six attention mechanisms,
//! optimizers, and losses — all on top of [`lttf_autograd`].
//!
//! ## Parameter model
//!
//! Trainable state lives in a [`ParamSet`]; layers hold [`ParamId`] handles
//! created at construction time. A forward pass runs inside an [`Fwd`]
//! context that binds parameters into the current [`Graph`](lttf_autograd::Graph)
//! as leaves and records the binding so gradients can be harvested after
//! `backward`:
//!
//! ```
//! use lttf_autograd::Graph;
//! use lttf_nn::{Adam, Fwd, Linear, Optimizer, ParamSet};
//! use lttf_tensor::{Rng, Tensor};
//!
//! let mut ps = ParamSet::new();
//! let mut rng = Rng::seed(0);
//! let layer = Linear::new(&mut ps, "lin", 4, 2, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! // one SGD step on || layer(x) ||²
//! let g = Graph::new();
//! let cx = Fwd::new(&g, &ps, true, 1);
//! let x = g.leaf(Tensor::randn(&[8, 4], &mut rng));
//! let loss = layer.forward(&cx, x).square().mean_all();
//! let grads = g.backward(loss);
//! let collected = cx.collect_grads(&grads);
//! ps.zero_grad();
//! ps.apply_grads(collected);
//! opt.step(&mut ps);
//! ```
//!
//! ## Attention mechanisms
//!
//! [`MultiHeadAttention`] implements the paper's sliding-window attention
//! plus the five mechanisms it is compared against in Table VI and Fig. 5:
//! full ([Vaswani et al.]), ProbSparse (Informer), LSH (Reformer),
//! log-sparse (LogTrans), and auto-correlation (Autoformer).

#![warn(missing_docs)]

mod decomp;
mod embed;
mod init;
mod linear;
mod loss;
mod norm;
mod optim;
mod param;
mod rnn;
mod serialize;

pub mod attention;

pub use attention::{AttentionKind, MultiHeadAttention};
pub use decomp::SeriesDecomp;
pub use embed::{positional_encoding, DataEmbedding, TokenEmbedding};
pub use init::{kaiming_uniform, xavier_uniform};
pub use linear::Linear;
pub use loss::{mae_loss, mse_loss, mse_loss_to};
pub use norm::LayerNorm;
pub use optim::{Adam, GradClip, Optimizer, Sgd};
pub use param::{Fwd, ParamId, ParamSet};
pub use rnn::{Gru, GruCell, Lstm, LstmCell, RnnOutput};
pub use serialize::{
    load_params, load_params_with_meta, read_params, read_params_with_meta, save_params,
    save_params_with_meta, write_params, write_params_with_meta,
};
