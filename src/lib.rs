//! # lttf
//!
//! Umbrella crate for the Rust reproduction of *Towards Long-Term
//! Time-Series Forecasting: Feature, Pattern, and Distribution*
//! (Conformer, ICDE 2023). Re-exports the whole workspace so examples and
//! downstream users need a single dependency:
//!
//! * [`tensor`] — N-D `f32` arrays, broadcasting, matmul, conv1d, moving average
//! * [`fft`] — autocorrelation and period detection
//! * [`autograd`] — tape-based reverse-mode differentiation
//! * [`nn`] — layers, six attention mechanisms, the Adam optimizer, MSE loss
//! * [`data`] — series containers, scalers, windows, synthetic datasets
//! * [`conformer`] — the paper's model (SIRN + sliding-window attention +
//!   normalizing flow)
//! * [`baselines`] — GRU, LSTNet, N-BEATS, Informer, Autoformer,
//!   Reformer, Longformer, LogTrans, TS2Vec
//! * [`eval`] — metrics, trainer, experiment utilities
//! * [`obs`] — zero-dependency telemetry: spans, counters, JSONL run logs
//! * [`parallel`] — the fork-join thread pool behind the kernels
//! * [`serve`] — batched inference serving over TCP (`lttf serve`)
//!
//! See `examples/quickstart.rs` for an end-to-end training run.

pub use lttf_autograd as autograd;
pub use lttf_baselines as baselines;
pub use lttf_conformer as conformer;
pub use lttf_data as data;
pub use lttf_eval as eval;
pub use lttf_fft as fft;
pub use lttf_nn as nn;
pub use lttf_obs as obs;
pub use lttf_parallel as parallel;
pub use lttf_serve as serve;
pub use lttf_tensor as tensor;

/// Crate version, for binaries that report it.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

// Install the instrumented allocator for every binary and test that
// links this umbrella crate. Exactly one `#[global_allocator]` may exist
// per program, so the leaf crate owns the installation (see
// `lttf_obs::alloc`). It is installed in every build: its heap policy
// (freed pages stay mapped across training steps) is not telemetry, and
// both builds must manage the heap alike for the telemetry-overhead gate
// to compare them. With `--no-default-features` its counters compile out.
#[global_allocator]
static GLOBAL_ALLOC: lttf_obs::alloc::CountingAlloc = lttf_obs::alloc::CountingAlloc;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile() {
        let t = crate::tensor::Tensor::ones(&[2]);
        assert_eq!(t.sum(), 2.0);
        assert!(!crate::VERSION.is_empty());
    }
}
