//! # lttf-tensor
//!
//! A small, self-contained N-dimensional `f32` tensor library that serves as
//! the numerical substrate for the Conformer (ICDE 2023) reproduction.
//!
//! Design goals, in order:
//!
//! 1. **Correctness** — every kernel is covered by unit tests against
//!    hand-computed values and by property tests of algebraic identities.
//! 2. **Simplicity** — tensors are always row-major and contiguous. Shape
//!    transformations that would require strided views (`permute`, `slice`)
//!    materialize a new tensor instead. At the model sizes used in this
//!    reproduction (sequence length ≤ 1k, width ≤ 64) the copies are cheap
//!    and the kernels stay trivially verifiable.
//! 3. **Just enough surface** — exactly the operations the forecasting
//!    models need: broadcasting arithmetic, matmul, 1-D convolution and
//!    pooling, reductions, softmax, shape surgery, and seeded randomness.
//!
//! Shape errors are programming errors in this codebase, so shape-mismatched
//! operations **panic** with a descriptive message rather than returning
//! `Result`. Every panicking precondition is documented on the method.
//!
//! ```
//! use lttf_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

// The arithmetic methods on `Tensor` (`add`, `mul`, …) intentionally mirror
// the vocabulary of numpy/PyTorch rather than implementing the operator
// traits, which would force either pervasive references (`&a + &b`) or
// implicit clones.
#![allow(clippy::should_implement_trait)]
#![warn(missing_docs)]

mod broadcast;
mod conv;
mod display;
mod elementwise;
mod gru;
mod matmul;
mod pool;
mod random;
mod reduce;
mod shape;
mod shape_ops;
pub mod simd;
mod tensor;

pub use broadcast::broadcast_shapes;
pub use gru::{gru_layer_backward, gru_layer_forward, GruGrads, GruStash};
pub use random::Rng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Minimum kernel work size (madds / touched elements) before a telemetry
/// span is opened. Keeps the ~50 ns guard cost off tiny ops (e.g. the
/// per-step matmuls of a narrow GRU) so the `telemetry` feature stays
/// within the <3% overhead budget enforced by `scripts/bench_check.sh`.
pub const OBS_MIN_WORK: usize = 4096;

/// Like [`OBS_MIN_WORK`] but for O(n) reductions, which do so little work
/// per element that a span only pays for itself on large inputs.
pub const OBS_MIN_REDUCE: usize = 32 * 1024;

/// [`OBS_MIN_WORK`] with the `OBS_MIN_WORK` environment override applied
/// (parsed once per process by `lttf_obs::env`). Kernel span conditions
/// call this, so e.g. `OBS_MIN_WORK=1 lttf trace profile` captures every
/// kernel in the timeline. Only evaluated when `telemetry` is compiled in.
pub fn obs_min_work() -> usize {
    lttf_obs::env::min_work()
}

/// [`OBS_MIN_REDUCE`] with the `OBS_MIN_REDUCE` environment override
/// applied; see [`obs_min_work`].
pub fn obs_min_reduce() -> usize {
    lttf_obs::env::min_reduce()
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;
