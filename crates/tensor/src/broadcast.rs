//! NumPy-style broadcasting between shapes.

use std::ops::Range;

use crate::elementwise::{PAR_MAP_CHUNK, PAR_MAP_MIN};
use crate::shape::Shape;
use crate::simd::BinOp;
use crate::tensor::Tensor;

/// Compute the broadcast shape of two shapes under NumPy rules.
///
/// Shapes are aligned at the trailing axes; each axis pair must be equal or
/// one of them must be 1.
///
/// # Panics
/// Panics if the shapes are not broadcast-compatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Vec<usize> {
    let n = a.len().max(b.len());
    let mut out = vec![0usize; n];
    for i in 0..n {
        let da = if i < n - a.len() {
            1
        } else {
            a[i - (n - a.len())]
        };
        let db = if i < n - b.len() {
            1
        } else {
            b[i - (n - b.len())]
        };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            panic!(
                "shapes {} and {} are not broadcast-compatible (axis {i}: {da} vs {db})",
                Shape::new(a),
                Shape::new(b)
            )
        };
    }
    out
}

impl Tensor {
    /// Materialize this tensor broadcast to `target` shape.
    ///
    /// # Panics
    /// Panics if `self.shape()` cannot broadcast to `target`.
    pub fn broadcast_to(&self, target: &[usize]) -> Tensor {
        let bs = broadcast_shapes(self.shape(), target);
        assert_eq!(
            bs,
            target,
            "cannot broadcast {} to {}",
            self.shape,
            Shape::new(target)
        );
        if self.shape() == target {
            return self.clone();
        }
        let rows = Rows::broadcast(target, [self.shape()]);
        let step = rows.row_stride(0);
        let src = &self.data;
        let data = fill_rows(&rows, bs.iter().product(), |dst, [off]| {
            if step == 0 {
                dst.fill(src[off]);
            } else {
                dst.copy_from_slice(&src[off..off + dst.len()]);
            }
        });
        Tensor {
            data,
            shape: Shape(bs),
        }
    }

    /// Apply a binary op element-wise with broadcasting, returning the result.
    ///
    /// Each operand is read in place: the output is written one innermost
    /// row at a time, and along a row each operand either advances by one
    /// element or repeats one value (stride 0). Rows where both operands advance
    /// go through the [`crate::simd::binary`] lane kernel when `op` names
    /// the operation (bit-identical to `f` — the lane kernels apply the same
    /// IEEE operation); every other element is `f(a, b)`. Same-shaped
    /// operands coalesce into a single row. When `op` is named, one operand
    /// has the output's shape and the other is one repeated trailing row
    /// (`[w]`, `[1, w]`, …), a single [`crate::simd::binary_rows`] call
    /// covers every row of a chunk instead. Large outputs are filled in
    /// fixed-size chunks on the worker pool (bit-identical at any count).
    pub(crate) fn broadcast_zip(
        &self,
        other: &Tensor,
        op: Option<BinOp>,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Tensor {
        let target = broadcast_shapes(self.shape(), other.shape());
        if let Some(op) = op {
            let (full, row, row_left) = if is_row_of(other.shape(), &target) {
                (self, other, false)
            } else {
                (other, self, true)
            };
            if full.shape() == target.as_slice() && is_row_of(row.shape(), &target) {
                let (full, row, w) = (&full.data, &row.data, row.numel());
                let data = fill_chunked(full.len(), |s, out| {
                    let full = &full[s..s + out.len()];
                    crate::simd::binary_rows(op, full, row, s % w, row_left, out)
                });
                return Tensor {
                    data,
                    shape: Shape(target),
                };
            }
        }
        let rows = Rows::broadcast(&target, [self.shape(), other.shape()]);
        let (step_a, step_b) = (rows.row_stride(0), rows.row_stride(1));
        let (a, b) = (&self.data, &other.data);
        let data = fill_rows(&rows, target.iter().product(), |dst, [ao, bo]| {
            let w = dst.len();
            match (step_a, step_b) {
                (1, 1) => {
                    let (x, y) = (&a[ao..ao + w], &b[bo..bo + w]);
                    match op {
                        Some(op) => crate::simd::binary(op, x, y, dst),
                        None => {
                            for ((o, &x), &y) in dst.iter_mut().zip(x).zip(y) {
                                *o = f(x, y);
                            }
                        }
                    }
                }
                (1, 0) => {
                    let y = b[bo];
                    for (o, &x) in dst.iter_mut().zip(&a[ao..ao + w]) {
                        *o = f(x, y);
                    }
                }
                (0, 1) => {
                    let x = a[ao];
                    for (o, &y) in dst.iter_mut().zip(&b[bo..bo + w]) {
                        *o = f(x, y);
                    }
                }
                (0, 0) => dst.fill(f(a[ao], b[bo])),
                _ => unreachable!("a broadcast operand steps by 0 or 1 along a row"),
            }
        });
        Tensor {
            data,
            shape: Shape(target),
        }
    }
}

/// True when `shape` is one row of `target`'s trailing axis, `w ≥ 2` wide,
/// with every other axis 1: broadcasting repeats it along the leading
/// axes. (A width-1 row is a scalar, which the walker runs as one row.)
fn is_row_of(shape: &[usize], target: &[usize]) -> bool {
    matches!(
        (shape.split_last(), target.last()),
        (Some((&w, rest)), Some(&tw)) if w == tw && w >= 2 && rest.iter().all(|&d| d == 1)
    )
}

/// Axes kept inline by [`AxisVec`]; every tensor the models build fits.
const INLINE_AXES: usize = 8;

/// A per-axis list of `usize` (extents, strides, a multi-index) that lives
/// on the stack up to [`INLINE_AXES`] entries and on the heap past that,
/// so strided iteration allocates nothing at the ranks in use.
pub(crate) struct AxisVec {
    len: usize,
    inline: [usize; INLINE_AXES],
    heap: Vec<usize>,
}

impl AxisVec {
    /// `n` zeros.
    pub(crate) fn zeros(n: usize) -> Self {
        AxisVec {
            len: n,
            inline: [0; INLINE_AXES],
            heap: if n > INLINE_AXES {
                vec![0; n]
            } else {
                Vec::new()
            },
        }
    }

    fn push(&mut self, x: usize) {
        if self.len < INLINE_AXES {
            self.inline[self.len] = x;
        } else {
            if self.len == INLINE_AXES {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(x);
        }
        self.len += 1;
    }
}

impl std::ops::Deref for AxisVec {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        if self.len <= INLINE_AXES {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

impl std::ops::DerefMut for AxisVec {
    fn deref_mut(&mut self) -> &mut [usize] {
        if self.len <= INLINE_AXES {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }
}

/// Strided iteration over a row-major output whose `K` operands are read
/// in place, each through its own per-axis strides.
///
/// The constructors drop extent-1 axes and merge every pair of adjacent
/// axes that all operands step through contiguously, so the innermost row
/// is as long as the layouts allow (same-shaped operands make one row).
/// [`Rows::walk`] then does the index arithmetic once per row; along a
/// row, operand `k` advances by [`Rows::row_stride`]`(k)`. Broadcasting
/// and `permute` both read through this one walker.
pub(crate) struct Rows<const K: usize> {
    /// Coalesced extents, innermost first; never empty.
    dims: AxisVec,
    /// Per-operand strides over the coalesced axes, innermost first.
    strides: [AxisVec; K],
}

impl<const K: usize> Rows<K> {
    /// Rows over the output axes given innermost first, each as its
    /// extent and the stride every operand steps along it.
    fn from_axes(axes: impl Iterator<Item = (usize, [usize; K])>) -> Self {
        let mut rows = Rows {
            dims: AxisVec::zeros(0),
            strides: std::array::from_fn(|_| AxisVec::zeros(0)),
        };
        for (d, s) in axes {
            if d == 1 {
                continue;
            }
            // The new axis is outside the last kept one; when every operand
            // steps over it exactly one full inner extent, they merge.
            match rows.dims.len().checked_sub(1) {
                Some(l) if (0..K).all(|k| s[k] == rows.strides[k][l] * rows.dims[l]) => {
                    rows.dims[l] *= d;
                }
                _ => {
                    rows.dims.push(d);
                    for (st, &sk) in rows.strides.iter_mut().zip(&s) {
                        st.push(sk);
                    }
                }
            }
        }
        if rows.dims.is_empty() {
            rows.dims.push(1);
            for st in rows.strides.iter_mut() {
                st.push(0);
            }
        }
        rows
    }

    /// Rows of a `target`-shaped output whose operand `k` is a contiguous
    /// tensor of extents `operands[k]` broadcast to it: aligned at the
    /// trailing axes, with stride 0 along leading and extent-1 axes.
    pub(crate) fn broadcast(target: &[usize], operands: [&[usize]; K]) -> Self {
        let n = target.len();
        let mut step = [1usize; K];
        Rows::from_axes((0..n).rev().map(|ax| {
            let strides = std::array::from_fn(|k| {
                let src = operands[k];
                let Some(i) = (ax + src.len()).checked_sub(n) else {
                    return 0;
                };
                let stride = if src[i] == 1 { 0 } else { step[k] };
                step[k] *= src[i];
                stride
            });
            (target[ax], strides)
        }))
    }

    /// How far operand `k` advances per element along a row.
    pub(crate) fn row_stride(&self, k: usize) -> usize {
        self.strides[k][0]
    }

    /// Call `row(dst, offsets)` for each row, or piece of a row, inside the
    /// output element range `span`: `dst` is the output range it covers and
    /// `offsets[k]` is operand `k`'s offset of its first element.
    pub(crate) fn walk(&self, span: Range<usize>, mut row: impl FnMut(Range<usize>, [usize; K])) {
        if span.is_empty() {
            return;
        }
        let (width, outer) = (self.dims[0], &self.dims[1..]);
        let strides: [&[usize]; K] = std::array::from_fn(|k| &self.strides[k][1..]);
        let step: [usize; K] = std::array::from_fn(|k| self.row_stride(k));
        // Multi-index of the first row over the outer axes (innermost
        // first), and the operands' offsets at that row's first element.
        let mut idx = AxisVec::zeros(outer.len());
        let idx = &mut idx[..];
        let mut base = [0usize; K];
        let mut rest = span.start / width;
        for (ax, i) in idx.iter_mut().enumerate() {
            *i = rest % outer[ax];
            rest /= outer[ax];
            for k in 0..K {
                base[k] += *i * strides[k][ax];
            }
        }
        // Only the first piece can start mid-row.
        let (mut pos, mut col) = (span.start, span.start % width);
        loop {
            let end = (pos - col + width).min(span.end);
            row(pos..end, std::array::from_fn(|k| base[k] + col * step[k]));
            if end == span.end {
                return;
            }
            (pos, col) = (end, 0);
            for (ax, i) in idx.iter_mut().enumerate() {
                *i += 1;
                for k in 0..K {
                    base[k] += strides[k][ax];
                }
                if *i < outer[ax] {
                    break;
                }
                for k in 0..K {
                    base[k] -= strides[k][ax] * outer[ax];
                }
                *i = 0;
            }
        }
    }
}

impl Rows<1> {
    /// Rows of `src`'s contiguous tensor with its axes permuted by `order`:
    /// output axis `ax` steps through source axis `order[ax]`.
    pub(crate) fn permuted(src: &[usize], order: &[usize]) -> Self {
        Rows::from_axes(
            order
                .iter()
                .rev()
                .map(|&o| (src[o], [src[o + 1..].iter().product()])),
        )
    }
}

/// A fresh `n`-element buffer written row by row through `rows`:
/// `row(dst, offsets)` fills one (piece of a) row. Large outputs are
/// filled in fixed-size chunks on the worker pool; a chunk boundary may
/// split a row, which changes no bits because every element is written
/// by the same function of the same operands.
pub(crate) fn fill_rows<const K: usize>(
    rows: &Rows<K>,
    n: usize,
    row: impl Fn(&mut [f32], [usize; K]) + Sync,
) -> Vec<f32> {
    fill_chunked(n, |s, chunk| {
        rows.walk(s..s + chunk.len(), |dst, offs| {
            row(&mut chunk[dst.start - s..dst.end - s], offs)
        });
    })
}

/// A fresh `n`-element buffer written by `fill(start, chunk)`, `chunk`
/// being the elements from `start` on: the whole buffer at once, or for
/// large outputs fixed-size chunks on the worker pool.
fn fill_chunked(n: usize, fill: impl Fn(usize, &mut [f32]) + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    if n < PAR_MAP_MIN || lttf_parallel::num_threads() <= 1 {
        fill(0, &mut out);
    } else {
        lttf_parallel::par_chunks_mut(&mut out, PAR_MAP_CHUNK, |ci, chunk| {
            fill(ci * PAR_MAP_CHUNK, chunk);
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_shape_rules() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4]), vec![4]);
        assert_eq!(broadcast_shapes(&[5, 1, 2], &[4, 1]), vec![5, 4, 2]);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn incompatible_shapes_panic() {
        broadcast_shapes(&[2, 3], &[2, 4]);
    }

    #[test]
    fn broadcast_row_vector() {
        let row = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = row.broadcast_to(&[2, 3]);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = col.broadcast_to(&[2, 3]);
        assert_eq!(b.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn broadcast_scalar_to_matrix() {
        let s = Tensor::scalar(7.0);
        let b = s.broadcast_to(&[2, 2]);
        assert_eq!(b.data(), &[7.0; 4]);
    }

    #[test]
    fn broadcast_adds_leading_axis() {
        let v = Tensor::from_slice(&[1.0, 2.0]);
        let b = v.broadcast_to(&[3, 2]);
        assert_eq!(b.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn broadcast_middle_axis() {
        // [2,1,2] -> [2,2,2]
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 2]);
        let b = t.broadcast_to(&[2, 2, 2]);
        assert_eq!(b.data(), &[1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0]);
    }

    #[test]
    fn zip_same_shape_fast_path() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        let c = a.broadcast_zip(&b, None, |x, y| x * y);
        assert_eq!(c.data(), &[3.0, 8.0]);
    }
}
