//! Shape surgery: reshape, permute, slicing, concatenation, padding, etc.
//!
//! All operations materialize contiguous results (see crate docs for why).

use crate::broadcast::{fill_rows, AxisVec, Rows};
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// View the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let s = Shape::new(shape);
        assert_eq!(
            s.numel(),
            self.numel(),
            "cannot reshape {} ({} elements) to {} ({} elements)",
            self.shape,
            self.numel(),
            s,
            s.numel()
        );
        let span = lttf_obs::span!("reshape", self.numel() >= crate::obs_min_work());
        span.bytes(self.numel() * 8);
        Tensor {
            data: self.data.clone(),
            shape: s,
        }
    }

    /// [`Tensor::reshape`] that keeps the buffer instead of copying it.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn into_reshape(self, shape: &[usize]) -> Tensor {
        let s = Shape::new(shape);
        assert_eq!(
            s.numel(),
            self.numel(),
            "cannot reshape {} ({} elements) to {} ({} elements)",
            self.shape,
            self.numel(),
            s,
            s.numel()
        );
        Tensor {
            data: self.data,
            shape: s,
        }
    }

    /// Insert a new axis of extent 1 at `axis` (may equal `ndim` to append).
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        assert!(
            axis <= self.ndim(),
            "unsqueeze axis {axis} out of range for rank {}",
            self.ndim()
        );
        let mut dims = self.shape.dims().to_vec();
        dims.insert(axis, 1);
        self.reshape(&dims)
    }

    /// Remove an axis of extent 1.
    ///
    /// # Panics
    /// Panics if the axis extent is not 1.
    pub fn squeeze(&self, axis: isize) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        assert_eq!(
            self.shape.dims()[ax],
            1,
            "cannot squeeze axis {ax} of extent {} in {}",
            self.shape.dims()[ax],
            self.shape
        );
        let mut dims = self.shape.dims().to_vec();
        dims.remove(ax);
        self.reshape(&dims)
    }

    /// Transpose a 2-D tensor.
    ///
    /// # Panics
    /// Panics unless the tensor is 2-D.
    pub fn t(&self) -> Tensor {
        assert_eq!(
            self.ndim(),
            2,
            "t() requires a 2-D tensor, got {}",
            self.shape
        );
        self.permute(&[1, 0])
    }

    /// Permute axes by `order` (a permutation of `0..ndim`), materializing.
    ///
    /// The output is written one innermost row at a time through the
    /// shared row walker. When the source's innermost axis stays innermost
    /// (the attention head split and merge) each row is one
    /// `copy_from_slice`; otherwise the row is gathered at the source
    /// stride of the new innermost axis.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of the axes.
    pub fn permute(&self, order: &[usize]) -> Tensor {
        let span = lttf_obs::span!("permute", self.numel() >= crate::obs_min_work());
        span.bytes(self.numel() * 8);
        self.permuted(order)
    }

    /// [`Tensor::permute`] without its telemetry span, for callers that
    /// open their own.
    fn permuted(&self, order: &[usize]) -> Tensor {
        let n = self.ndim();
        assert_eq!(
            order.len(),
            n,
            "permute order has wrong length for {}",
            self.shape
        );
        for (i, &o) in order.iter().enumerate() {
            assert!(
                o < n && !order[..i].contains(&o),
                "invalid permutation {order:?} for rank {n}"
            );
        }
        let src_dims = self.shape.dims();
        let dst_dims: Vec<usize> = order.iter().map(|&o| src_dims[o]).collect();
        let rows = Rows::permuted(src_dims, order);
        let step = rows.row_stride(0);
        let src = &self.data;
        let data = fill_rows(&rows, self.numel(), |dst, [off]| {
            if step == 1 {
                dst.copy_from_slice(&src[off..off + dst.len()]);
            } else {
                for (i, o) in dst.iter_mut().enumerate() {
                    *o = src[off + i * step];
                }
            }
        });
        Tensor {
            data,
            shape: Shape(dst_dims),
        }
    }

    /// Swap two axes.
    pub fn swap_axes(&self, a: isize, b: isize) -> Tensor {
        let a = self.shape.normalize_axis(a);
        let b = self.shape.normalize_axis(b);
        let mut order = AxisVec::zeros(self.ndim());
        for (i, o) in order.iter_mut().enumerate() {
            *o = i;
        }
        order.swap(a, b);
        let span = lttf_obs::span!("swap_axes", self.numel() >= crate::obs_min_work());
        span.bytes(self.numel() * 8);
        self.permuted(&order)
    }

    /// Take the half-open range `[start, start+len)` along `axis`.
    ///
    /// # Panics
    /// Panics if the range exceeds the axis extent.
    pub fn narrow(&self, axis: isize, start: usize, len: usize) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        let dims = self.shape.dims();
        assert!(
            start + len <= dims[ax],
            "narrow range {start}..{} exceeds axis {ax} extent {} in {}",
            start + len,
            dims[ax],
            self.shape
        );
        let outer: usize = dims[..ax].iter().product();
        let inner: usize = dims[ax + 1..].iter().product();
        let extent = dims[ax];
        let mut out = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = (o * extent + start) * inner;
            out.extend_from_slice(&self.data[base..base + len * inner]);
        }
        let mut new_dims = dims.to_vec();
        new_dims[ax] = len;
        Tensor::from_vec(out, &new_dims)
    }

    /// Select a single index along `axis`, removing that axis.
    pub fn index_axis(&self, axis: isize, index: usize) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        let t = self.narrow(axis, index, 1);
        t.squeeze(ax as isize)
    }

    /// Select (gather) the given `indices` along `axis`, in order.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn select(&self, axis: isize, indices: &[usize]) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        let dims = self.shape.dims();
        let extent = dims[ax];
        for &i in indices {
            assert!(
                i < extent,
                "select index {i} out of range for axis extent {extent}"
            );
        }
        let outer: usize = dims[..ax].iter().product();
        let inner: usize = dims[ax + 1..].iter().product();
        let mut out = Vec::with_capacity(outer * indices.len() * inner);
        for o in 0..outer {
            for &i in indices {
                let base = (o * extent + i) * inner;
                out.extend_from_slice(&self.data[base..base + inner]);
            }
        }
        let mut new_dims = dims.to_vec();
        new_dims[ax] = indices.len();
        Tensor::from_vec(out, &new_dims)
    }

    /// Concatenate tensors along `axis`. All other axes must match.
    ///
    /// # Panics
    /// Panics on an empty list or mismatched non-concat axes.
    pub fn concat(tensors: &[&Tensor], axis: isize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of empty tensor list");
        let ax = tensors[0].shape.normalize_axis(axis);
        let first_dims = tensors[0].shape.dims();
        let mut total = 0usize;
        for t in tensors {
            assert_eq!(
                t.ndim(),
                first_dims.len(),
                "concat rank mismatch: {} vs {}",
                t.shape,
                tensors[0].shape
            );
            for (a, (&d, &d0)) in t.shape.dims().iter().zip(first_dims).enumerate() {
                assert!(
                    a == ax || d == d0,
                    "concat shape mismatch on axis {a}: {} vs {}",
                    t.shape,
                    tensors[0].shape
                );
            }
            total += t.shape.dims()[ax];
        }
        let outer: usize = first_dims[..ax].iter().product();
        let inner: usize = first_dims[ax + 1..].iter().product();
        let mut new_dims = first_dims.to_vec();
        new_dims[ax] = total;
        let mut out = Vec::with_capacity(outer * total * inner);
        for o in 0..outer {
            for t in tensors {
                let e = t.shape.dims()[ax];
                let base = o * e * inner;
                out.extend_from_slice(&t.data[base..base + e * inner]);
            }
        }
        Tensor::from_vec(out, &new_dims)
    }

    /// Stack tensors of identical shape along a new leading `axis`.
    pub fn stack(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "stack of empty tensor list");
        let unsqueezed: Vec<Tensor> = tensors.iter().map(|t| t.unsqueeze(axis)).collect();
        let refs: Vec<&Tensor> = unsqueezed.iter().collect();
        Tensor::concat(&refs, axis as isize)
    }

    /// Split into equal chunks of `size` along `axis`.
    ///
    /// # Panics
    /// Panics if the axis extent is not divisible by `size`.
    pub fn split(&self, axis: isize, size: usize) -> Vec<Tensor> {
        let ax = self.shape.normalize_axis(axis);
        let extent = self.shape.dims()[ax];
        assert_eq!(
            extent % size,
            0,
            "axis {ax} extent {extent} not divisible by chunk size {size}"
        );
        (0..extent / size)
            .map(|i| self.narrow(axis, i * size, size))
            .collect()
    }

    /// Pad `axis` with `before` copies of `value` in front and `after` behind.
    pub fn pad_axis(&self, axis: isize, before: usize, after: usize, value: f32) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        let dims = self.shape.dims();
        let extent = dims[ax];
        let outer: usize = dims[..ax].iter().product();
        let inner: usize = dims[ax + 1..].iter().product();
        let new_extent = extent + before + after;
        let mut out = vec![value; outer * new_extent * inner];
        for o in 0..outer {
            let src = o * extent * inner;
            let dst = (o * new_extent + before) * inner;
            out[dst..dst + extent * inner].copy_from_slice(&self.data[src..src + extent * inner]);
        }
        let mut new_dims = dims.to_vec();
        new_dims[ax] = new_extent;
        Tensor::from_vec(out, &new_dims)
    }

    /// Pad `axis` by replicating the edge values (used by series
    /// decomposition, which pads with the first/last time step).
    pub fn pad_axis_replicate(&self, axis: isize, before: usize, after: usize) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        let extent = self.shape.dims()[ax];
        assert!(
            extent > 0,
            "cannot replicate-pad empty axis {ax} of {}",
            self.shape
        );
        let mut indices = Vec::with_capacity(before + extent + after);
        indices.extend(std::iter::repeat_n(0, before));
        indices.extend(0..extent);
        indices.extend(std::iter::repeat_n(extent - 1, after));
        self.select(ax as isize, &indices)
    }

    /// Reverse the order of elements along `axis`.
    pub fn flip(&self, axis: isize) -> Tensor {
        let ax = self.shape.normalize_axis(axis);
        let extent = self.shape.dims()[ax];
        let indices: Vec<usize> = (0..extent).rev().collect();
        self.select(ax as isize, &indices)
    }

    /// Repeat the whole tensor `n` times along `axis`.
    pub fn repeat_axis(&self, axis: isize, n: usize) -> Tensor {
        let copies: Vec<&Tensor> = std::iter::repeat_n(self, n).collect();
        Tensor::concat(&copies, axis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Tensor {
        Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3])
    }

    #[test]
    fn reshape_and_squeeze() {
        let t = m23();
        assert_eq!(t.reshape(&[3, 2]).shape(), &[3, 2]);
        assert_eq!(t.reshape(&[6]).data(), t.data());
        let u = t.unsqueeze(0);
        assert_eq!(u.shape(), &[1, 2, 3]);
        assert_eq!(u.squeeze(0).shape(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_wrong_count_panics() {
        m23().reshape(&[4]);
    }

    #[test]
    fn transpose_2d() {
        let t = m23().t();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        // double transpose is identity
        assert_eq!(t.t().data(), m23().data());
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), t.at(&[0, 2, 1]));
        assert_eq!(p.at(&[3, 1, 0]), t.at(&[1, 0, 3]));
        // identity permutation
        assert_eq!(t.permute(&[0, 1, 2]).data(), t.data());
    }

    #[test]
    fn swap_axes_matches_t_for_2d() {
        let t = m23();
        assert_eq!(t.swap_axes(0, 1).data(), t.t().data());
        assert_eq!(t.swap_axes(-2, -1).data(), t.t().data());
    }

    #[test]
    fn narrow_and_index() {
        let t = m23();
        let n = t.narrow(1, 1, 2);
        assert_eq!(n.shape(), &[2, 2]);
        assert_eq!(n.data(), &[2., 3., 5., 6.]);
        let r = t.index_axis(0, 1);
        assert_eq!(r.shape(), &[3]);
        assert_eq!(r.data(), &[4., 5., 6.]);
    }

    #[test]
    fn select_reorders() {
        let t = m23();
        let s = t.select(1, &[2, 0]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[3., 1., 6., 4.]);
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = m23();
        let b = m23().mul_scalar(10.0);
        let c0 = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c0.shape(), &[4, 3]);
        assert_eq!(c0.at(&[2, 0]), 10.0);
        let c1 = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c1.shape(), &[2, 6]);
        assert_eq!(c1.at(&[0, 3]), 10.0);
        assert_eq!(c1.at(&[1, 5]), 60.0);
    }

    #[test]
    fn stack_new_axis() {
        let a = Tensor::from_slice(&[1., 2.]);
        let b = Tensor::from_slice(&[3., 4.]);
        let s = Tensor::stack(&[&a, &b], 0);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[1., 2., 3., 4.]);
        let s1 = Tensor::stack(&[&a, &b], 1);
        assert_eq!(s1.shape(), &[2, 2]);
        assert_eq!(s1.data(), &[1., 3., 2., 4.]);
    }

    #[test]
    fn split_round_trip() {
        let t = m23();
        let parts = t.split(1, 1);
        assert_eq!(parts.len(), 3);
        let refs: Vec<&Tensor> = parts.iter().collect();
        let back = Tensor::concat(&refs, 1);
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn pad_constant() {
        let t = Tensor::from_slice(&[1., 2.]);
        let p = t.pad_axis(0, 1, 2, 0.0);
        assert_eq!(p.data(), &[0., 1., 2., 0., 0.]);
    }

    #[test]
    fn pad_replicate() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[3, 2]);
        let p = t.pad_axis_replicate(0, 2, 1);
        assert_eq!(p.shape(), &[6, 2]);
        assert_eq!(p.data(), &[1., 2., 1., 2., 1., 2., 3., 4., 5., 6., 5., 6.]);
    }

    #[test]
    fn flip_axis() {
        let t = m23();
        assert_eq!(t.flip(1).data(), &[3., 2., 1., 6., 5., 4.]);
        assert_eq!(t.flip(0).data(), &[4., 5., 6., 1., 2., 3.]);
    }

    #[test]
    fn select_empty_indices_gives_empty_axis() {
        let t = m23();
        let s = t.select(1, &[]);
        assert_eq!(s.shape(), &[2, 0]);
        assert_eq!(s.numel(), 0);
    }

    #[test]
    fn concat_rank1() {
        let a = Tensor::from_slice(&[1., 2.]);
        let b = Tensor::from_slice(&[3.]);
        let c = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c.data(), &[1., 2., 3.]);
    }

    #[test]
    fn narrow_full_range_is_identity() {
        let t = m23();
        assert_eq!(t.narrow(0, 0, 2).data(), t.data());
        assert_eq!(t.narrow(1, 0, 3).data(), t.data());
    }

    #[test]
    #[should_panic(expected = "exceeds axis")]
    fn narrow_overflow_panics() {
        m23().narrow(1, 2, 2);
    }

    #[test]
    fn repeat_axis_tiles() {
        let t = Tensor::from_slice(&[1., 2.]);
        let r = t.repeat_axis(0, 3);
        assert_eq!(r.data(), &[1., 2., 1., 2., 1., 2.]);
    }
}
