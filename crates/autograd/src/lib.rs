//! # lttf-autograd
//!
//! Tape-based reverse-mode automatic differentiation over [`lttf_tensor`].
//!
//! ## Model
//!
//! A [`Graph`] is a growing tape of nodes. Each node stores its forward
//! value, the ids of its parents, and (for non-leaf nodes) a backward
//! closure that maps the node's output gradient to per-parent gradients.
//! A [`Var`] is a copyable handle (graph reference + node id).
//! An inference graph ([`Graph::inference`]) builds no parents or
//! closures, and can drop the values a layer no longer needs
//! ([`Graph::release_since`]).
//!
//! A fresh graph is built for every training step — there is no graph
//! reuse, no in-place mutation, and therefore no stale-state hazards:
//!
//! ```
//! use lttf_autograd::Graph;
//! use lttf_tensor::Tensor;
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::from_slice(&[1.0, 2.0, 3.0]));
//! let y = x.square().sum_all(); // y = Σ x²  ⇒  dy/dx = 2x
//! let grads = g.backward(y);
//! assert_eq!(grads.get(x).unwrap().data(), &[2.0, 4.0, 6.0]);
//! ```
//!
//! ## Design notes
//!
//! * Nodes are stored in `RefCell<Vec<_>>` columns (values / backward
//!   state / op names), so `Var` can be `Copy` and ops can take `&self`.
//! * Backward closures do **not** capture parent tensors; they read them
//!   from the tape at backward time through [`Ctx`]. Only small config
//!   (axes, shapes, masks) is captured.
//! * Broadcasting ops reduce their output gradient back to each parent's
//!   shape by summing over broadcast axes ([`reduce_to_shape`]).
//! * Every op's gradient is verified against central finite differences in
//!   the test suite (see [`check::grad_check`]).

// `Var` mirrors the tensor vocabulary (`add`, `mul`, …) as inherent methods
// rather than operator traits: `Var` is `Copy` and carries a graph lifetime,
// so trait-based operators would add noise without ergonomics gains.
#![allow(clippy::should_implement_trait)]
#![warn(missing_docs)]

mod graph;
mod ops_basic;
mod ops_conv;
mod ops_matmul;
mod ops_reduce;
mod ops_shape;

pub mod check;

pub use graph::{Ctx, Grads, Graph, Var};
pub use ops_basic::reduce_to_shape;

#[cfg(test)]
mod proptests;
