//! Element-wise arithmetic and transcendental operations.
//!
//! Maps over large tensors run chunked on the worker pool; each chunk is a
//! pure element-wise image of the corresponding input range, so the output
//! bytes do not depend on the thread count. Binary arithmetic reads its
//! operands in place through the broadcasting row walker, whose contiguous
//! rows run the [`crate::simd`] lane kernels; the four transcendental maps
//! the models lean on (`exp`, `sigmoid`, `tanh`, `gelu`) dispatch through
//! [`crate::simd`] too; the rest go through the generic closure map.

use crate::simd::{BinOp, UnOp};
use crate::tensor::Tensor;
use lttf_parallel::{chunk_bounds, par_chunks_mut};

/// Elements below which an element-wise map is not worth dispatching.
pub(crate) const PAR_MAP_MIN: usize = 64 * 1024;
/// Chunk length for parallel element-wise work.
pub(crate) const PAR_MAP_CHUNK: usize = 16 * 1024;

impl Tensor {
    /// Transcendental map through the dispatched kernels; per-element, so
    /// chunk boundaries never change the bytes (per backend).
    fn map_simd(&self, op: UnOp) -> Tensor {
        let n = self.data.len();
        let mut out = vec![0.0f32; n];
        if n < PAR_MAP_MIN || lttf_parallel::num_threads() <= 1 {
            crate::simd::unary(op, &self.data, &mut out);
        } else {
            let src = &self.data;
            par_chunks_mut(&mut out, PAR_MAP_CHUNK, |ci, chunk| {
                let (s, e) = chunk_bounds(n, PAR_MAP_CHUNK, ci);
                crate::simd::unary(op, &src[s..e], chunk);
            });
        }
        Tensor {
            data: out,
            shape: self.shape.clone(),
        }
    }

    /// Element-wise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, BinOp::Add, |a, b| a + b)
    }

    /// Element-wise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, BinOp::Sub, |a, b| a - b)
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, BinOp::Mul, |a, b| a * b)
    }

    /// Element-wise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, BinOp::Div, |a, b| a / b)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Negate every element.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Element-wise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map_simd(UnOp::Exp)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.map(|v| v * v)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map_simd(UnOp::Tanh)
    }

    /// Element-wise logistic sigmoid `1 / (1 + e^{-x})`.
    pub fn sigmoid(&self) -> Tensor {
        self.map_simd(UnOp::Sigmoid)
    }

    /// Element-wise ReLU `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Element-wise GELU (tanh approximation, as used by transformers).
    pub fn gelu(&self) -> Tensor {
        self.map_simd(UnOp::Gelu)
    }

    /// Element-wise ELU with `alpha = 1`.
    pub fn elu(&self) -> Tensor {
        self.map(|v| if v > 0.0 { v } else { v.exp_m1() })
    }

    /// Element-wise softplus `ln(1 + e^x)`, computed stably.
    pub fn softplus(&self) -> Tensor {
        self.map(|v| if v > 20.0 { v } else { (1.0 + v.exp()).ln() })
    }

    /// Apply an arbitrary function to every element.
    ///
    /// Large tensors are processed in fixed-size chunks on the worker pool.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let n = self.data.len();
        if n < PAR_MAP_MIN || lttf_parallel::num_threads() <= 1 {
            return Tensor {
                data: self.data.iter().map(|&v| f(v)).collect(),
                shape: self.shape.clone(),
            };
        }
        let mut out = vec![0.0f32; n];
        let src = &self.data;
        par_chunks_mut(&mut out, PAR_MAP_CHUNK, |ci, chunk| {
            let (s, _) = chunk_bounds(n, PAR_MAP_CHUNK, ci);
            for (o, &v) in chunk.iter_mut().zip(&src[s..]) {
                *o = f(v);
            }
        });
        Tensor {
            data: out,
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += other` for identically shaped tensors (no broadcast).
    ///
    /// Used on hot accumulation paths (gradient accumulation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += row` for a 1-D `row` as wide as `self`'s last
    /// axis, repeated over every leading index: the bits of
    /// `self.add(row)` (each element is `self + row`, in that order)
    /// without a new buffer.
    ///
    /// # Panics
    /// Panics unless `row` is 1-D and as wide as the last axis.
    pub fn add_row_assign(&mut self, row: &Tensor) {
        let w = row.numel();
        assert!(
            row.ndim() == 1 && self.shape.dims().last() == Some(&w),
            "add_row_assign: row {} does not match the last axis of {}",
            row.shape,
            self.shape
        );
        if w == 0 {
            return;
        }
        let (n, row) = (self.data.len(), &row.data);
        let add = |ci: usize, chunk: &mut [f32]| {
            let (s, _) = chunk_bounds(n, PAR_MAP_CHUNK, ci);
            // A chunk may start mid-row: its first piece ends the row.
            let (mut c, mut rest) = (s % w, chunk);
            while !rest.is_empty() {
                let len = (w - c).min(rest.len());
                let (piece, tail) = rest.split_at_mut(len);
                for (v, &b) in piece.iter_mut().zip(&row[c..c + len]) {
                    *v += b;
                }
                (c, rest) = (0, tail);
            }
        };
        if n < PAR_MAP_MIN || lttf_parallel::num_threads() <= 1 {
            add(0, &mut self.data);
        } else {
            par_chunks_mut(&mut self.data, PAR_MAP_CHUNK, add);
        }
    }

    /// In-place `self *= other` for identically shaped tensors (no
    /// broadcast): the bits of `self.mul(other)` without a new buffer.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "mul_assign shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let n = self.data.len();
        let src = &other.data;
        let mul = |ci: usize, chunk: &mut [f32]| {
            let (s, _) = chunk_bounds(n, PAR_MAP_CHUNK, ci);
            for (a, &b) in chunk.iter_mut().zip(&src[s..]) {
                *a *= b;
            }
        };
        if n < PAR_MAP_MIN || lttf_parallel::num_threads() <= 1 {
            mul(0, &mut self.data);
        } else {
            par_chunks_mut(&mut self.data, PAR_MAP_CHUNK, mul);
        }
    }

    /// [`Tensor::map`] in place: the same bits without a new buffer.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let apply = |_: usize, chunk: &mut [f32]| {
            for v in chunk.iter_mut() {
                *v = f(*v);
            }
        };
        if self.data.len() < PAR_MAP_MIN || lttf_parallel::num_threads() <= 1 {
            apply(0, &mut self.data);
        } else {
            par_chunks_mut(&mut self.data, PAR_MAP_CHUNK, apply);
        }
    }

    /// In-place scalar multiply.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    /// `add_row_assign` gives `add`'s bits, serially and on the pool,
    /// where chunks start mid-row.
    #[test]
    fn add_row_assign_matches_broadcast_add() {
        let mut rng = crate::Rng::seed(5);
        for shape in [vec![7, 1], vec![5, 16], vec![3, 9, 17], vec![3, 97, 251]] {
            let x = Tensor::randn(&shape, &mut rng);
            let row = Tensor::randn(&[*shape.last().unwrap()], &mut rng);
            for threads in [1, 4] {
                lttf_parallel::set_thread_threads_override(Some(threads));
                let want = x.add(&row);
                let mut got = x.clone();
                got.add_row_assign(&row);
                lttf_parallel::set_thread_threads_override(None);
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{shape:?} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn arithmetic() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn broadcast_arithmetic() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let row = Tensor::from_vec(vec![10.0, 20.0], &[1, 2]);
        assert_eq!(m.add(&row).data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0]);
        assert_eq!(a.mul_scalar(-2.0).data(), &[-2.0, 4.0]);
        assert_eq!(a.neg().data(), &[-1.0, 2.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0]);
    }

    #[test]
    fn activations() {
        let a = t(&[0.0]);
        assert_eq!(a.sigmoid().data(), &[0.5]);
        assert_eq!(a.tanh().data(), &[0.0]);
        assert_eq!(t(&[-1.0, 2.0]).relu().data(), &[0.0, 2.0]);
        // softplus(0) = ln 2
        assert!((a.softplus().data()[0] - 2f32.ln()).abs() < 1e-6);
        // softplus is stable for large inputs
        assert_eq!(t(&[100.0]).softplus().data(), &[100.0]);
        // gelu(0) = 0, gelu(large) ≈ large
        assert_eq!(a.gelu().data(), &[0.0]);
        assert!((t(&[10.0]).gelu().data()[0] - 10.0).abs() < 1e-3);
    }

    #[test]
    fn transcendentals() {
        let a = t(&[1.0, 4.0]);
        assert_eq!(a.sqrt().data(), &[1.0, 2.0]);
        assert_eq!(a.square().data(), &[1.0, 16.0]);
        assert!((t(&[std::f32::consts::E]).ln().data()[0] - 1.0).abs() < 1e-6);
        assert!((t(&[1.0]).exp().data()[0] - std::f32::consts::E).abs() < 1e-6);
    }

    #[test]
    fn in_place_ops() {
        let mut a = t(&[1.0, 2.0]);
        a.add_assign(&t(&[3.0, 4.0]));
        assert_eq!(a.data(), &[4.0, 6.0]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn elu_behaviour() {
        let a = t(&[1.0, 0.0, -1.0]);
        let e = a.elu();
        assert_eq!(e.data()[0], 1.0);
        assert_eq!(e.data()[1], 0.0);
        assert!((e.data()[2] - (-1f32).exp_m1()).abs() < 1e-6);
    }
}
