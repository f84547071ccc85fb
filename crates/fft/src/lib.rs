//! # lttf-fft
//!
//! Fast Fourier Transform and autocorrelation for the LTTF reproduction.
//!
//! The Conformer paper uses FFT twice:
//!
//! 1. **Input representation (Eq. 1–2)**: the multivariate correlation block
//!    computes the circular autocorrelation of each series via
//!    `iFFT(FFT(x) · conj(FFT(x)))` and softmaxes it into variable weights.
//! 2. **The Autoformer baseline**: its auto-correlation attention mechanism
//!    ranks time delays by the same FFT-computed autocorrelation.
//!
//! This crate implements:
//! - an iterative radix-2 Cooley–Tukey FFT for power-of-two lengths,
//! - Bluestein's algorithm for arbitrary lengths (so series of length 96,
//!   336, … need no padding),
//! - forward/inverse transforms, real-input convenience wrappers,
//! - circular autocorrelation and top-k period detection, with the
//!   transform core running four series side by side for a batch
//!   ([`autocorrelations`]).
//!
//! ```
//! use lttf_fft::{autocorrelation, top_k_periods};
//!
//! // a period-12 wave: its dominant lag is found exactly
//! let wave: Vec<f32> = (0..144)
//!     .map(|t| (2.0 * std::f32::consts::PI * t as f32 / 12.0).sin())
//!     .collect();
//! assert_eq!(top_k_periods(&wave, 1)[0], 12);
//! let r = autocorrelation(&wave);
//! assert!(r[12] > 0.9 * r[0]);
//! ```

#![warn(missing_docs)]

mod autocorr;
mod complex;
mod transform;

pub use autocorr::{autocorrelation, autocorrelation_matrix, autocorrelations, top_k_periods};
pub use complex::Complex;
pub use transform::{fft, ifft, next_pow2, rfft_magnitudes};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;
