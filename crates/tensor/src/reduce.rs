//! Reductions (sum, mean, variance, extrema) over whole tensors or axes,
//! plus softmax.
//!
//! Full-tensor sums use **chunked pairwise summation**: the input is cut
//! into fixed-size blocks, each block is reduced by recursive halving, and
//! the per-block partials are pairwise-reduced in turn. Rounding error
//! grows O(log n) instead of the O(n) of a left fold, and because block
//! boundaries are fixed the result is bit-identical whether the blocks are
//! reduced serially or in parallel.

use crate::tensor::Tensor;
use lttf_parallel::{chunk_count, par_chunks_mut};

/// Below this length a plain sequential fold is both fastest and accurate
/// enough; it is the recursion base of [`pairwise_sum`].
const PAIRWISE_BASE: usize = 32;

/// Fixed block length for the top level of chunked pairwise summation.
/// Must not depend on thread count: block boundaries define the reduction
/// tree, and the tree defines the bits of the answer.
const SUM_BLOCK: usize = 8192;

/// Elements below which `sum` does not bother with the parallel path.
const PAR_SUM_MIN: usize = 4 * SUM_BLOCK;

/// Elements below which an axis reduction or softmax runs serially.
const PAR_AXIS_MIN_WORK: usize = 1 << 15;

/// Pairwise (cascade) summation by recursive halving.
pub(crate) fn pairwise_sum(x: &[f32]) -> f32 {
    if x.len() <= PAIRWISE_BASE {
        return x.iter().sum();
    }
    let mid = x.len() / 2;
    pairwise_sum(&x[..mid]) + pairwise_sum(&x[mid..])
}

/// Pairwise summation of the element-wise product `a[i] * b[i]`.
pub(crate) fn pairwise_dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() <= PAIRWISE_BASE {
        return a.iter().zip(b).map(|(&x, &y)| x * y).sum();
    }
    let mid = a.len() / 2;
    pairwise_dot(&a[..mid], &b[..mid]) + pairwise_dot(&a[mid..], &b[mid..])
}

/// `v[i] = e^{v[i]}` through the [`crate::simd::unary`] kernel, staged
/// through a fixed stack buffer (the kernel reads and writes distinct
/// slices). The kernel is per element, so the staging changes no bits.
fn exp_in_place(v: &mut [f32]) {
    let mut buf = [0.0f32; 256];
    for piece in v.chunks_mut(buf.len()) {
        let staged = &mut buf[..piece.len()];
        staged.copy_from_slice(piece);
        crate::simd::unary(crate::simd::UnOp::Exp, staged, piece);
    }
}

impl Tensor {
    /// Sum of all elements, via chunked pairwise summation.
    ///
    /// The reduction tree — `SUM_BLOCK`-sized leaf blocks combined
    /// pairwise — is a pure function of the length, so the serial and
    /// pool-parallel paths produce the same bits; the thread count only
    /// decides who reduces which block. Block reduction dispatches through
    /// [`crate::simd::sum`]; each backend's tree is fixed, but the two
    /// backends' trees differ (DESIGN.md §8).
    pub fn sum(&self) -> f32 {
        let n = self.data.len();
        if n <= SUM_BLOCK {
            return crate::simd::sum(&self.data);
        }
        let span = lttf_obs::span!("reduce_sum", n >= crate::obs_min_reduce());
        span.bytes(n * 4);
        let blocks = chunk_count(n, SUM_BLOCK);
        let mut partials = vec![0.0f32; blocks];
        let src = &self.data;
        let block_sum = |bi: usize| {
            let s = bi * SUM_BLOCK;
            crate::simd::sum(&src[s..(s + SUM_BLOCK).min(n)])
        };
        if n >= PAR_SUM_MIN && lttf_parallel::num_threads() > 1 {
            par_chunks_mut(&mut partials, 1, |bi, slot| {
                slot[0] = block_sum(bi);
            });
        } else {
            for (bi, slot) in partials.iter_mut().enumerate() {
                *slot = block_sum(bi);
            }
        }
        pairwise_sum(&partials)
    }

    /// Mean of all elements.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn mean(&self) -> f32 {
        assert!(self.numel() > 0, "mean of empty tensor");
        self.sum() / self.numel() as f32
    }

    /// Maximum element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn max(&self) -> f32 {
        assert!(self.numel() > 0, "max of empty tensor");
        self.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn min(&self) -> f32 {
        assert!(self.numel() > 0, "min of empty tensor");
        self.data.iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn var(&self) -> f32 {
        let m = self.mean();
        self.data.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / self.numel() as f32
    }

    /// Population standard deviation of all elements.
    pub fn std(&self) -> f32 {
        self.var().sqrt()
    }

    /// Flat index of the maximum element (first occurrence).
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(self.numel() > 0, "argmax of empty tensor");
        self.data
            .iter()
            .enumerate()
            .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            })
            .0
    }

    /// Generic axis reduction: folds each lane along `axis` with `f` starting
    /// from `init`, then post-processes the lane result with `fin`.
    ///
    /// Each outer index owns a disjoint `inner`-sized slice of the output,
    /// so large reductions run outer-parallel with bit-identical results.
    fn reduce_axis(
        &self,
        axis: isize,
        init: f32,
        f: impl Fn(f32, f32) -> f32 + Sync,
        fin: impl Fn(f32, usize) -> f32 + Sync,
        keepdim: bool,
    ) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        let dims = self.shape.dims();
        let extent = dims[ax];
        let outer: usize = dims[..ax].iter().product();
        let inner: usize = dims[ax + 1..].iter().product();
        let mut out = vec![init; outer * inner];
        let src = &self.data;
        // Fold every lane of outer index `o` into its output slice; the
        // element-visit order is identical on the serial and parallel paths.
        let fold_outer = |o: usize, lane: &mut [f32]| {
            if inner == 1 {
                // One contiguous lane: fold it directly.
                let src_lane = &src[o * extent..(o + 1) * extent];
                lane[0] = fin(src_lane.iter().fold(init, |acc, &v| f(acc, v)), extent);
                return;
            }
            for e in 0..extent {
                let base = (o * extent + e) * inner;
                for (i, slot) in lane.iter_mut().enumerate() {
                    *slot = f(*slot, src[base + i]);
                }
            }
            for v in lane.iter_mut() {
                *v = fin(*v, extent);
            }
        };
        if out.is_empty() {
            // zero-extent axis elsewhere in the shape: nothing to fold
        } else if outer >= 2
            && outer * extent * inner >= PAR_AXIS_MIN_WORK
            && lttf_parallel::num_threads() > 1
        {
            let per = (PAR_AXIS_MIN_WORK / (extent * inner).max(1)).max(1);
            par_chunks_mut(&mut out, per * inner, |ci, chunk| {
                for (j, lane) in chunk.chunks_mut(inner).enumerate() {
                    fold_outer(ci * per + j, lane);
                }
            });
        } else {
            for (o, lane) in out.chunks_mut(inner).enumerate() {
                fold_outer(o, lane);
            }
        }
        let mut new_dims: Vec<usize> = dims.to_vec();
        if keepdim {
            new_dims[ax] = 1;
        } else {
            new_dims.remove(ax);
        }
        Tensor::from_vec(out, &new_dims)
    }

    /// Sum along `axis`, removing that axis.
    pub fn sum_axis(&self, axis: isize) -> Tensor {
        self.reduce_axis(axis, 0.0, |a, b| a + b, |v, _| v, false)
    }

    /// Sum along `axis`, keeping it with extent 1.
    pub fn sum_axis_keepdim(&self, axis: isize) -> Tensor {
        self.reduce_axis(axis, 0.0, |a, b| a + b, |v, _| v, true)
    }

    /// Mean along `axis`, removing that axis.
    pub fn mean_axis(&self, axis: isize) -> Tensor {
        self.reduce_axis(axis, 0.0, |a, b| a + b, |v, n| v / n as f32, false)
    }

    /// Mean along `axis`, keeping it with extent 1.
    pub fn mean_axis_keepdim(&self, axis: isize) -> Tensor {
        self.reduce_axis(axis, 0.0, |a, b| a + b, |v, n| v / n as f32, true)
    }

    /// Maximum along `axis`, removing that axis.
    pub fn max_axis(&self, axis: isize) -> Tensor {
        self.reduce_axis(axis, f32::NEG_INFINITY, f32::max, |v, _| v, false)
    }

    /// Numerically stable softmax along `axis`.
    ///
    /// Each lane along `axis` is shifted by its maximum before
    /// exponentiation, so the result is finite for any finite input.
    ///
    /// One pass over each lane, reading the input in place: the maximum
    /// is a left fold from −∞, the shifted values go through the
    /// [`crate::simd::unary`] `exp` kernel, the sum is a left fold from
    /// 0.0, and each value is divided by its lane's sum — the same float
    /// operations in the same order as composing a keep-dim `max_axis`,
    /// `sub`, `exp`, `sum_axis_keepdim` and `div`, so the bits match that
    /// composition. Large inputs run outer-parallel with the axis
    /// reductions' threshold and chunking.
    pub fn softmax(&self, axis: isize) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        let dims = self.shape.dims();
        let extent = dims[ax];
        let outer: usize = dims[..ax].iter().product();
        let inner: usize = dims[ax + 1..].iter().product();
        let block = extent * inner;
        let mut out = vec![0.0f32; self.data.len()];
        if out.is_empty() {
            return Tensor::from_vec(out, dims);
        }
        let src = &self.data;
        // Softmax of the whole outer blocks that start at block `first`
        // and fill `dst`.
        let blocks = |first: usize, dst: &mut [f32]| {
            let x = &src[first * block..first * block + dst.len()];
            if inner == 1 {
                // Contiguous lanes.
                for (d, x) in dst.chunks_mut(extent).zip(x.chunks(extent)) {
                    let m = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                    for (d, &v) in d.iter_mut().zip(x) {
                        *d = v - m;
                    }
                }
                exp_in_place(dst);
                for d in dst.chunks_mut(extent) {
                    let t = d.iter().fold(0.0f32, |t, &v| t + v);
                    for v in d.iter_mut() {
                        *v /= t;
                    }
                }
            } else {
                // `inner` lanes side by side: each step along the axis is
                // one contiguous row holding one element of every lane.
                let mut acc = vec![0.0f32; inner];
                for (d, x) in dst.chunks_mut(block).zip(x.chunks(block)) {
                    acc.fill(f32::NEG_INFINITY);
                    for row in x.chunks(inner) {
                        for (m, &v) in acc.iter_mut().zip(row) {
                            *m = m.max(v);
                        }
                    }
                    for (drow, row) in d.chunks_mut(inner).zip(x.chunks(inner)) {
                        for ((d, &v), &m) in drow.iter_mut().zip(row).zip(&acc) {
                            *d = v - m;
                        }
                    }
                }
                exp_in_place(dst);
                for d in dst.chunks_mut(block) {
                    acc.fill(0.0);
                    for row in d.chunks(inner) {
                        for (t, &v) in acc.iter_mut().zip(row) {
                            *t += v;
                        }
                    }
                    for row in d.chunks_mut(inner) {
                        for (v, &t) in row.iter_mut().zip(&acc) {
                            *v /= t;
                        }
                    }
                }
            }
        };
        if outer >= 2 && outer * block >= PAR_AXIS_MIN_WORK && lttf_parallel::num_threads() > 1 {
            let per = (PAR_AXIS_MIN_WORK / block).max(1);
            par_chunks_mut(&mut out, per * block, |ci, chunk| blocks(ci * per, chunk));
        } else {
            blocks(0, &mut out);
        }
        Tensor::from_vec(out, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Tensor {
        Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3])
    }

    #[test]
    fn global_reductions() {
        let t = m23();
        assert_eq!(t.sum(), 21.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max(), 6.0);
        assert_eq!(t.min(), 1.0);
        assert!((t.var() - 35.0 / 12.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_occurrence() {
        let t = Tensor::from_slice(&[1.0, 5.0, 5.0, 2.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn axis_reductions() {
        let t = m23();
        assert_eq!(t.sum_axis(0).data(), &[5., 7., 9.]);
        assert_eq!(t.sum_axis(1).data(), &[6., 15.]);
        assert_eq!(t.sum_axis(-1).data(), &[6., 15.]);
        assert_eq!(t.mean_axis(1).data(), &[2., 5.]);
        assert_eq!(t.max_axis(0).data(), &[4., 5., 6.]);
    }

    #[test]
    fn keepdim_shapes() {
        let t = m23();
        assert_eq!(t.sum_axis_keepdim(0).shape(), &[1, 3]);
        assert_eq!(t.mean_axis_keepdim(1).shape(), &[2, 1]);
    }

    #[test]
    fn axis_reduction_3d_middle() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        let s = t.sum_axis(1);
        assert_eq!(s.shape(), &[2, 4]);
        // lane (0, :, 0) = 0 + 4 + 8 = 12
        assert_eq!(s.at(&[0, 0]), 12.0);
        // lane (1, :, 3) = 15 + 19 + 23 = 57
        assert_eq!(s.at(&[1, 3]), 57.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = m23();
        let s = t.softmax(-1);
        for r in 0..2 {
            let row: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((row - 1.0).abs() < 1e-6);
        }
        // softmax is monotone: larger input -> larger probability
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let t = Tensor::from_slice(&[1000.0, 1000.0]);
        let s = t.softmax(0);
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
        assert!(!s.has_non_finite());
    }

    /// Chunked pairwise summation must land far closer to the f64 reference
    /// than a naive left fold on a long series of same-sign values (where a
    /// left fold's accumulator swallows low bits of every addend).
    #[test]
    fn pairwise_sum_tracks_f64_reference() {
        let n = 200_000;
        let data: Vec<f32> = (0..n).map(|i| 1.0 + (i % 7) as f32 * 0.01).collect();
        let exact: f64 = data.iter().map(|&v| v as f64).sum();
        let naive: f32 = data.iter().sum();
        let pw = Tensor::from_vec(data, &[n]).sum();
        let err_pw = (pw as f64 - exact).abs();
        let err_naive = (naive as f64 - exact).abs();
        // Pairwise error stays within a few ulps of the result...
        assert!(
            err_pw <= exact.abs() * 1e-6,
            "pairwise sum drifted: {pw} vs f64 {exact} (err {err_pw:e})"
        );
        // ...while the naive fold it replaced drifts visibly.
        assert!(
            err_pw < err_naive,
            "pairwise err {err_pw:e} not below naive err {err_naive:e}"
        );
    }

    #[test]
    fn pairwise_dot_tracks_f64_reference() {
        let n = 120_000;
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.311).cos() * 50.0).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.057).sin() * 50.0 + 0.5).collect();
        let exact: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum();
        // The products cancel heavily, so measure error against the total
        // magnitude that passed through the accumulator, not the tiny net.
        let magnitude: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x as f64 * y as f64).abs())
            .sum();
        let got = Tensor::from_vec(a, &[n]).dot(&Tensor::from_vec(b, &[n]));
        let err = (got as f64 - exact).abs();
        assert!(
            err <= magnitude * 1e-6,
            "pairwise dot drifted: {got} vs f64 {exact} (err {err:e}, magnitude {magnitude:e})"
        );
    }

    /// `sum` takes the block-parallel path for large tensors; the answer
    /// must be bit-identical to the serial chunked reduction.
    #[test]
    fn parallel_sum_is_bit_identical() {
        let n = 100_000;
        let t = Tensor::from_vec(
            (0..n).map(|i| (i as f32 * 0.41).sin() * 3.0).collect(),
            &[n],
        );
        // Both sums must see the same kernel backend; tests that flip it
        // hold this lock.
        let _guard = crate::simd::test_lock();
        lttf_parallel::set_threads_override(Some(1));
        let serial = t.sum();
        lttf_parallel::set_threads_override(Some(4));
        let parallel = t.sum();
        lttf_parallel::set_threads_override(None);
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }
}
