//! Matrix multiplication kernels: 2-D, batched 3-D, and transposed variants.
//!
//! The serial kernel dispatches through [`crate::simd`]: an AVX2+FMA
//! register-blocked micro-tile when the CPU supports it (with a packed
//! B-panel on the `k > KC` tiled path so the microkernel streams
//! contiguous vectors), else a cache-blocked i-k-j scalar loop. The
//! rank-2/rank-3 entry points parallelize over row blocks / batches with
//! `lttf-parallel`. Chunk boundaries depend only on the problem shape, so
//! results are bit-identical at any thread count (per backend).

use crate::tensor::Tensor;
use lttf_parallel::par_chunks_mut;

/// k-tile: `KC` consecutive inner-dimension elements are accumulated into
/// the accumulator panel before touching `out`, keeping both operand
/// panels in L1/L2.
pub(crate) const KC: usize = 256;
/// n-tile: width of the accumulator / packed-B panel.
pub(crate) const NC: usize = 128;
/// Row micro-tile: rows of `a` processed together so each loaded `b` row is
/// reused `MR` times.
pub(crate) const MR: usize = 4;

/// Approximate multiply-add count per parallel chunk. Below ~2 chunks of
/// this the dispatch overhead outweighs the win and kernels run serially.
/// Halved from the original 128k when the SIMD kernels landed: each madd
/// now takes fewer cycles, and a lower grain lets the serve model's
/// batch=1 gemms (~100–300k madds) split across the pool.
const PAR_GRAIN: usize = 64 * 1024;

/// A gemm operand read in place: element `(i, j)` is `data[i * rs + j * cs]`.
///
/// A row-major matrix with `c` columns is [`Mat::rows`]; its transpose is
/// [`Mat::transposed`], so a backward pass reads `Xᵀ` of an activation
/// without copying it. The left operand is read at any strides, the right
/// one at any row stride; a right operand whose columns are not adjacent
/// is packed into a row-major panel first (in every caller it is a weight,
/// a few hundred floats).
#[derive(Clone, Copy)]
pub(crate) struct Mat<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// Element `(i, j)` at `data[i * rs + j * cs]`.
    pub(crate) fn new(data: &'a [f32], rs: usize, cs: usize) -> Self {
        Mat { data, rs, cs }
    }

    /// Row-major `data` with `cols` columns.
    pub(crate) fn rows(data: &'a [f32], cols: usize) -> Self {
        Mat::new(data, cols, 1)
    }

    /// The transpose of row-major `data` with `cols` columns.
    pub(crate) fn transposed(data: &'a [f32], cols: usize) -> Self {
        Mat::new(data, 1, cols)
    }

    /// The operand from row `i` on.
    fn rows_from(self, i: usize) -> Self {
        Mat {
            data: &self.data[i * self.rs..],
            ..self
        }
    }

    /// Element `(i, j)`.
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }

    /// The first `rows × cols` block copied out row-major.
    fn to_rows(self, rows: usize, cols: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            out.extend((0..cols).map(|j| self.at(i, j)));
        }
        out
    }
}

/// Multiply an `m×k` row-major block by a `k×n` row-major block into `m×n`,
/// accumulating into `out` (callers pass a zeroed buffer).
pub(crate) fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_mat(Mat::rows(a, k), Mat::rows(b, n), out, m, k, n);
}

/// [`gemm`] over strided operands: `out[m×n] += a[m×k] @ b[k×n]`, with
/// `a` at any strides, `b` row-major at any row stride ([`gemm_par_mat`]
/// packs any other), and `out` row-major.
///
/// `k <= KC` (every matmul this codebase actually issues) takes the lean
/// path that accumulates straight into `out`; larger `k` goes through the
/// k/n-tiled stack accumulator. The path depends only on the shape, never
/// on the thread count or the strides: each output element sees the same
/// operations in the same order whichever way its operands are laid out.
fn gemm_mat(a: Mat<'_>, b: Mat<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    debug_assert!(a.data.len() > (m - 1) * a.rs + (k - 1) * a.cs);
    debug_assert_eq!(b.cs, 1, "right operand read by columns is not packed");
    let (b, ldb) = (b.data, b.rs);
    debug_assert!(b.len() >= (k - 1) * ldb + n);
    if k <= KC {
        if crate::simd::enabled() {
            crate::simd::gemm_block(a.data, a.rs, a.cs, b, ldb, out, n, m, k, n);
        } else {
            gemm_single_ktile(a, b, ldb, out, m, k, n);
        }
        return;
    }
    if crate::simd::enabled() {
        gemm_tiled_packed(a, b, ldb, out, m, k, n);
        return;
    }
    for ks in (0..k).step_by(KC) {
        let ke = (ks + KC).min(k);
        for ns in (0..n).step_by(NC) {
            let ne = (ns + NC).min(n);
            let nb = ne - ns;
            let mut i = 0;
            while i < m {
                let mr = MR.min(m - i);
                let mut acc = [[0.0f32; NC]; MR];
                for p in ks..ke {
                    let b_row = &b[p * ldb + ns..p * ldb + ne];
                    for (r, acc_r) in acc.iter_mut().enumerate().take(mr) {
                        let a_ip = a.at(i + r, p);
                        for (slot, &bv) in acc_r.iter_mut().zip(b_row) {
                            *slot += a_ip * bv;
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate().take(mr) {
                    let row = (i + r) * n;
                    let out_row = &mut out[row + ns..row + ne];
                    for (o, &v) in out_row.iter_mut().zip(&acc_r[..nb]) {
                        *o += v;
                    }
                }
                i += mr;
            }
        }
    }
}

/// KC/NC-tiled gemm for the SIMD backend: each `[kc × nb]` panel of `b`
/// is packed into a contiguous buffer once, then every `MR`-row block of
/// `a` streams it through the AVX2 micro-tile. Packing pays for itself
/// because the panel is reused `m / MR` times with unit-stride loads.
fn gemm_tiled_packed(
    a: Mat<'_>,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    // Heap-allocated: 128 KiB would be a meaningful bite out of a worker
    // thread's stack, and this path only runs for k > KC. The span wraps
    // just the allocation so the pack-buffer churn shows up in `lttf
    // profile`'s alloc columns without eating the gemm's self time.
    let mut pack = {
        let _span = lttf_obs::span!("gemm.pack");
        vec![0.0f32; KC * NC.min(n)]
    };
    for ks in (0..k).step_by(KC) {
        let ke = (ks + KC).min(k);
        let kc = ke - ks;
        for ns in (0..n).step_by(NC) {
            let ne = (ns + NC).min(n);
            let nb = ne - ns;
            for (pi, p) in (ks..ke).enumerate() {
                pack[pi * nb..(pi + 1) * nb].copy_from_slice(&b[p * ldb + ns..p * ldb + ne]);
            }
            crate::simd::gemm_block(
                &a.data[ks * a.cs..],
                a.rs,
                a.cs,
                &pack[..kc * nb],
                nb,
                &mut out[ns..],
                n,
                m,
                kc,
                nb,
            );
        }
    }
}

/// i-k-j kernel for `k <= KC`: with a single k-tile the (zeroed) output
/// rows serve as the accumulators directly — no stack tile to clear and
/// flush. `MR` rows advance together so each streamed `b` row is reused
/// `MR` times from registers.
fn gemm_single_ktile(
    a: Mat<'_>,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i + MR <= m {
        let rows = &mut out[i * n..(i + MR) * n];
        let (o0, rest) = rows.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, o3) = rest.split_at_mut(n);
        for p in 0..k {
            let b_row = &b[p * ldb..p * ldb + n];
            let a0 = a.at(i, p);
            let a1 = a.at(i + 1, p);
            let a2 = a.at(i + 2, p);
            let a3 = a.at(i + 3, p);
            for j in 0..n {
                let bv = b_row[j];
                o0[j] += a0 * bv;
                o1[j] += a1 * bv;
                o2[j] += a2 * bv;
                o3[j] += a3 * bv;
            }
        }
        i += MR;
    }
    for r in i..m {
        let out_row = &mut out[r * n..(r + 1) * n];
        for p in 0..k {
            let a_ip = a.at(r, p);
            let b_row = &b[p * ldb..p * ldb + n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * bv;
            }
        }
    }
}

/// `gemm` parallelized over row blocks of `a`/`out`.
pub(crate) fn gemm_par(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    gemm_par_mat(Mat::rows(a, k), Mat::rows(b, n), out, m, k, n);
}

/// [`gemm_mat`] parallelized over row blocks of `a`/`out`; a right operand
/// read by columns is packed into a row-major panel first.
///
/// Each task owns a disjoint block of output rows, so no float operation
/// crosses a block boundary and the result is bit-identical to the serial
/// kernel. Block size is a pure function of the problem shape.
pub(crate) fn gemm_par_mat(a: Mat<'_>, b: Mat<'_>, out: &mut [f32], m: usize, k: usize, n: usize) {
    if b.cs != 1 {
        let packed = b.to_rows(k, n);
        gemm_par_mat(a, Mat::rows(&packed, n), out, m, k, n);
        return;
    }
    let work = m * k * n;
    if work < 2 * PAR_GRAIN || lttf_parallel::num_threads() <= 1 {
        gemm_mat(a, b, out, m, k, n);
        return;
    }
    // Rows per chunk sized to ~PAR_GRAIN multiply-adds, rounded up to a
    // multiple of MR so every chunk starts on a micro-tile boundary.
    let rows = lttf_parallel::rows_per_block(k * n, PAR_GRAIN, MR);
    par_chunks_mut(out, rows * n, |ci, chunk| {
        let mb = chunk.len() / n;
        gemm_mat(a.rows_from(ci * rows), b, chunk, mb, k, n);
    });
}

/// Batched gemm over `bt` independent problems, parallelized across batches.
///
/// `a_of`/`b_of` map a batch index to its operand slice (so shared operands
/// broadcast without copies). Batches are grouped so each task carries
/// ~`PAR_GRAIN` multiply-adds; a single batch degrades to row-parallel
/// [`gemm_par`].
fn gemm_batched<'a>(
    a_of: impl Fn(usize) -> &'a [f32] + Sync,
    b_of: impl Fn(usize) -> &'a [f32] + Sync,
    out: &mut [f32],
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if bt == 1 {
        gemm_par(a_of(0), b_of(0), out, m, k, n);
        return;
    }
    let per = lttf_parallel::items_per_task(m * k * n, PAR_GRAIN);
    par_chunks_mut(out, per * m * n, |ci, chunk| {
        for (j, o) in chunk.chunks_mut(m * n).enumerate() {
            let bi = ci * per + j;
            gemm(a_of(bi), b_of(bi), o, m, k, n);
        }
    });
}

impl Tensor {
    /// Matrix product.
    ///
    /// Supported rank combinations:
    /// - `[m,k] @ [k,n] -> [m,n]`
    /// - `[b,m,k] @ [k,n] -> [b,m,n]` (shared right operand)
    /// - `[b,m,k] @ [b,k,n] -> [b,m,n]` (batched)
    /// - `[m,k] @ [b,k,n] -> [b,m,n]` (shared left operand)
    ///
    /// # Panics
    /// Panics on unsupported ranks or mismatched inner/batch dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        // ~b*m*k*n madds for every supported rank combination.
        let work = self.numel() * other.shape().last().copied().unwrap_or(0);
        let span = lttf_obs::span!("matmul", work >= crate::obs_min_work());
        span.bytes((self.numel() + other.numel()) * 4);
        match (self.ndim(), other.ndim()) {
            (2, 2) => {
                let (m, k) = (self.shape()[0], self.shape()[1]);
                let (k2, n) = (other.shape()[0], other.shape()[1]);
                assert_eq!(
                    k, k2,
                    "matmul inner dimension mismatch: {} vs {}",
                    self.shape, other.shape
                );
                let mut out = vec![0.0; m * n];
                gemm_par(&self.data, &other.data, &mut out, m, k, n);
                Tensor::from_vec(out, &[m, n])
            }
            (3, 2) => {
                let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
                let (k2, n) = (other.shape()[0], other.shape()[1]);
                assert_eq!(
                    k, k2,
                    "matmul inner dimension mismatch: {} vs {}",
                    self.shape, other.shape
                );
                let mut out = vec![0.0; b * m * n];
                gemm_batched(
                    |bi| &self.data[bi * m * k..(bi + 1) * m * k],
                    |_| &other.data[..],
                    &mut out,
                    b,
                    m,
                    k,
                    n,
                );
                Tensor::from_vec(out, &[b, m, n])
            }
            (3, 3) => {
                let (b, m, k) = (self.shape()[0], self.shape()[1], self.shape()[2]);
                let (b2, k2, n) = (other.shape()[0], other.shape()[1], other.shape()[2]);
                assert_eq!(
                    b, b2,
                    "batched matmul batch mismatch: {} vs {}",
                    self.shape, other.shape
                );
                assert_eq!(
                    k, k2,
                    "matmul inner dimension mismatch: {} vs {}",
                    self.shape, other.shape
                );
                let mut out = vec![0.0; b * m * n];
                gemm_batched(
                    |bi| &self.data[bi * m * k..(bi + 1) * m * k],
                    |bi| &other.data[bi * k * n..(bi + 1) * k * n],
                    &mut out,
                    b,
                    m,
                    k,
                    n,
                );
                Tensor::from_vec(out, &[b, m, n])
            }
            (2, 3) => {
                let (m, k) = (self.shape()[0], self.shape()[1]);
                let (b, k2, n) = (other.shape()[0], other.shape()[1], other.shape()[2]);
                assert_eq!(
                    k, k2,
                    "matmul inner dimension mismatch: {} vs {}",
                    self.shape, other.shape
                );
                let mut out = vec![0.0; b * m * n];
                gemm_batched(
                    |_| &self.data[..],
                    |bi| &other.data[bi * k * n..(bi + 1) * k * n],
                    &mut out,
                    b,
                    m,
                    k,
                    n,
                );
                Tensor::from_vec(out, &[b, m, n])
            }
            (ra, rb) => panic!(
                "matmul supports rank (2|3)x(2|3) operands, got rank {ra} {} and rank {rb} {}",
                self.shape, other.shape
            ),
        }
    }

    /// Dot product of two 1-D tensors, accumulated with chunked pairwise
    /// summation (error grows O(log n) instead of O(n)).
    ///
    /// # Panics
    /// Panics if either operand is not 1-D or lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.ndim(),
            1,
            "dot requires 1-D operands, got {}",
            self.shape
        );
        assert_eq!(
            other.ndim(),
            1,
            "dot requires 1-D operands, got {}",
            other.shape
        );
        assert_eq!(
            self.numel(),
            other.numel(),
            "dot length mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        let _span = lttf_obs::span!("reduce_dot", self.numel() >= crate::obs_min_reduce());
        crate::simd::dot(&self.data, &other.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x2_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).data(), a.data());
        assert_eq!(i.matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_hand_computed() {
        // [1 2 3]   [7  8]     [58  64]
        // [4 5 6] x [9 10]  =  [139 154]
        //           [11 12]
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn batched_matmul() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let b = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        // batch 0: [[0,1,2],[3,4,5]] @ [[0,1],[2,3],[4,5]]
        assert_eq!(&c.data()[..4], &[10., 13., 28., 40.]);
        // batch 1: [[6,7,8],[9,10,11]] @ [[6,7],[8,9],[10,11]]
        assert_eq!(&c.data()[4..], &[172., 193., 244., 274.]);
    }

    #[test]
    fn broadcast_batch_right() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let w = Tensor::eye(3);
        let c = a.matmul(&w);
        assert_eq!(c.shape(), &[2, 2, 3]);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn broadcast_batch_left() {
        let a = Tensor::eye(3);
        let b = Tensor::from_vec((0..18).map(|v| v as f32).collect(), &[2, 3, 3]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 3, 3]);
        assert_eq!(c.data(), b.data());
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn inner_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        a.matmul(&b);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    /// The blocked kernel must agree with a textbook triple loop on shapes
    /// that are not multiples of any tile size.
    #[test]
    fn blocked_gemm_matches_naive_on_ragged_shapes() {
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (17, 33, 9), (130, 70, 129)] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.25).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 61 % 19) as f32 - 9.0) * 0.5).collect();
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for p in 0..k {
                    let a_ip = a[i * k + p];
                    for j in 0..n {
                        naive[i * n + j] += a_ip * b[p * n + j];
                    }
                }
            }
            let ta = Tensor::from_vec(a, &[m, k]);
            let tb = Tensor::from_vec(b, &[k, n]);
            let c = ta.matmul(&tb);
            for (i, (&got, &want)) in c.data().iter().zip(&naive).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "({m}x{k}x{n}) mismatch at {i}: {got} vs {want}"
                );
            }
        }
    }
}
