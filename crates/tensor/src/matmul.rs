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
        self.pack_into(&mut out, rows, cols);
        out
    }

    /// The first `rows × cols` block appended to `out` row-major.
    fn pack_into(self, out: &mut Vec<f32>, rows: usize, cols: usize) {
        for i in 0..rows {
            out.extend((0..cols).map(|j| self.at(i, j)));
        }
    }
}

/// Multiply an `m×k` row-major block by a `k×n` row-major block into `m×n`,
/// accumulating into `out` (callers pass a zeroed buffer).
pub(crate) fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    gemm_mat(Mat::rows(a, k), Mat::rows(b, n), (out, n), m, k, n);
}

/// [`gemm`] over strided operands: `out[m×n] += a[m×k] @ b[k×n]`, with
/// `a` at any strides, `b` row-major at any row stride ([`gemm_par_mat`]
/// packs any other), and `out` row-major at row stride `ldo`.
///
/// `k <= KC` (every matmul this codebase actually issues) takes the lean
/// path that accumulates straight into `out`; larger `k` goes through the
/// k/n-tiled stack accumulator. The path depends only on the shape, never
/// on the thread count or the strides: each output element sees the same
/// operations in the same order whichever way its operands are laid out.
pub(crate) fn gemm_mat(
    a: Mat<'_>,
    b: Mat<'_>,
    (out, ldo): (&mut [f32], usize),
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    debug_assert!(out.len() >= (m - 1) * ldo + n);
    debug_assert!(a.data.len() > (m - 1) * a.rs + (k - 1) * a.cs);
    debug_assert_eq!(b.cs, 1, "right operand read by columns is not packed");
    let (b, ldb) = (b.data, b.rs);
    debug_assert!(b.len() >= (k - 1) * ldb + n);
    if k <= KC {
        if crate::simd::enabled() {
            crate::simd::gemm_block(a.data, a.rs, a.cs, b, ldb, out, ldo, m, k, n);
        } else {
            gemm_single_ktile(a, b, ldb, (out, ldo), m, k, n);
        }
        return;
    }
    if crate::simd::enabled() {
        gemm_tiled_packed(a, b, ldb, (out, ldo), m, k, n);
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
                    let row = (i + r) * ldo;
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
    (out, ldo): (&mut [f32], usize),
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
                ldo,
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
    (out, ldo): (&mut [f32], usize),
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i + MR <= m {
        let rows = &mut out[i * ldo..];
        let (o0, rest) = rows.split_at_mut(ldo);
        let (o1, rest) = rest.split_at_mut(ldo);
        let (o2, o3) = rest.split_at_mut(ldo);
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
        let out_row = &mut out[r * ldo..r * ldo + n];
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
#[cfg(test)]
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
    debug_assert_eq!(out.len(), m * n);
    if b.cs != 1 {
        let packed = b.to_rows(k, n);
        gemm_par_mat(a, Mat::rows(&packed, n), out, m, k, n);
        return;
    }
    let work = m * k * n;
    if work < 2 * PAR_GRAIN || lttf_parallel::num_threads() <= 1 {
        gemm_mat(a, b, (out, n), m, k, n);
        return;
    }
    // Rows per chunk sized to ~PAR_GRAIN multiply-adds, rounded up to a
    // multiple of MR so every chunk starts on a micro-tile boundary.
    let rows = lttf_parallel::rows_per_block(k * n, PAR_GRAIN, MR);
    par_chunks_mut(out, rows * n, |ci, chunk| {
        let mb = chunk.len() / n;
        gemm_mat(a.rows_from(ci * rows), b, (chunk, n), mb, k, n);
    });
}

/// A [`Tensor::matmul`] operand: a row-major `[rows, cols]` matrix or
/// `[batch, rows, cols]` stack, read as itself or transposed in its last
/// two axes.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    batch: Option<usize>,
    rows: usize,
    cols: usize,
    transposed: bool,
}

impl<'a> Operand<'a> {
    /// `t` as an operand, or `None` unless it is rank 2 or 3.
    fn of(t: &'a Tensor, transposed: bool) -> Option<Self> {
        let (batch, rows, cols) = match *t.shape() {
            [rows, cols] => (None, rows, cols),
            [b, rows, cols] => (Some(b), rows, cols),
            _ => return None,
        };
        Some(Operand {
            data: &t.data,
            batch,
            rows,
            cols,
            transposed,
        })
    }

    /// `(rows, cols)` as read.
    fn dims(&self) -> (usize, usize) {
        if self.transposed {
            (self.cols, self.rows)
        } else {
            (self.rows, self.cols)
        }
    }

    /// Batch `bi`'s matrix (the only one when unbatched), read in place.
    fn mat(&self, bi: usize) -> Mat<'a> {
        let plane = self.rows * self.cols;
        let data = match self.batch {
            Some(_) => &self.data[bi * plane..(bi + 1) * plane],
            None => self.data,
        };
        if self.transposed {
            Mat::transposed(data, self.cols)
        } else {
            Mat::rows(data, self.cols)
        }
    }
}

/// Batched gemm over `bt` independent problems, parallelized across
/// batches. An unbatched operand is shared by every batch without a copy.
///
/// Batches are grouped so each task carries ~`PAR_GRAIN` multiply-adds; a
/// single batch degrades to row-parallel [`gemm_par_mat`]. A right operand
/// read by columns is packed row-major first: once when shared, else one
/// batch panel at a time in each task's buffer.
fn gemm_batched(
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f32],
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if bt == 1 {
        gemm_par_mat(a.mat(0), b.mat(0), out, m, k, n);
        return;
    }
    let shared = (b.batch.is_none() && b.transposed).then(|| b.mat(0).to_rows(k, n));
    let per_batch = b.batch.is_some() && b.transposed;
    let per = lttf_parallel::items_per_task(m * k * n, PAR_GRAIN);
    par_chunks_mut(out, per * m * n, |ci, chunk| {
        let mut panel = Vec::with_capacity(if per_batch { k * n } else { 0 });
        for (j, o) in chunk.chunks_mut(m * n).enumerate() {
            let bi = ci * per + j;
            let bm = match &shared {
                Some(packed) => Mat::rows(packed, n),
                None if per_batch => {
                    panel.clear();
                    b.mat(bi).pack_into(&mut panel, k, n);
                    Mat::rows(&panel, n)
                }
                None => b.mat(bi),
            };
            gemm_mat(a.mat(bi), bm, (o, n), m, k, n);
        }
    });
}

/// `out[m×n] = Σ_b a_b @ b_b` over `bt` batched problems: the gradient of
/// an operand every batch shared, with no `[bt, m, n]` stack.
///
/// Each batch's product is computed into one zeroed `m×n` scratch, as
/// [`gemm_batched`] computes it into its slice of the stack, and the
/// scratch is added into `out` (zeroed by the caller) in batch order, as
/// `sum_axis(0)` folds the stack: every element gets the bits of the
/// summed stack. On the pool, tasks own blocks of output rows (multiples
/// of `MR`, so each row sees the kernel it sees serially) and walk the
/// batches in order. A transposed right operand is packed one batch panel
/// at a time in each task's buffer.
fn gemm_batched_sum(
    a: Operand<'_>,
    b: Operand<'_>,
    out: &mut [f32],
    bt: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let sum_rows = |r0: usize, mb: usize, out: &mut [f32]| {
        let mut scratch = vec![0.0f32; out.len()];
        let mut panel = Vec::with_capacity(if b.transposed { k * n } else { 0 });
        for bi in 0..bt {
            let bm = if b.transposed {
                panel.clear();
                b.mat(bi).pack_into(&mut panel, k, n);
                Mat::rows(&panel, n)
            } else {
                b.mat(bi)
            };
            scratch.fill(0.0);
            gemm_mat(a.mat(bi).rows_from(r0), bm, (&mut scratch, n), mb, k, n);
            for (o, &p) in out.iter_mut().zip(&scratch) {
                *o += p;
            }
        }
    };
    if bt * m * k * n < 2 * PAR_GRAIN || lttf_parallel::num_threads() <= 1 {
        sum_rows(0, m, out);
        return;
    }
    let rows = lttf_parallel::rows_per_block(bt * k * n, PAR_GRAIN, MR);
    par_chunks_mut(out, rows * n, |ci, chunk| {
        sum_rows(ci * rows, chunk.len() / n, chunk)
    });
}

/// The product of `x` and `y`, each read transposed in its last two axes
/// when its flag says so. A transposed left operand is read in place, a
/// transposed right one packed as [`gemm_batched`] describes; no tensor is
/// copied whole. Every output element gets the bits the product of
/// materialized transposes gives it: the gemm's accumulation order depends
/// only on the shape. With `sum_batches`, two batched operands give the
/// `[m, n]` sum over the batch axis ([`gemm_batched_sum`]) instead of the
/// `[b, m, n]` stack.
fn matmul_read(x: &Tensor, xt: bool, y: &Tensor, yt: bool, sum_batches: bool) -> Tensor {
    let (Some(a), Some(b)) = (Operand::of(x, xt), Operand::of(y, yt)) else {
        panic!(
            "matmul supports rank (2|3)x(2|3) operands, got rank {} {} and rank {} {}",
            x.ndim(),
            x.shape,
            y.ndim(),
            y.shape
        );
    };
    let batch = match (a.batch, b.batch) {
        (Some(ba), Some(bb)) => {
            assert_eq!(
                ba, bb,
                "batched matmul batch mismatch: {} vs {}",
                x.shape, y.shape
            );
            Some(ba)
        }
        (ba, bb) => ba.or(bb),
    };
    let ((m, k), (k2, n)) = (a.dims(), b.dims());
    assert_eq!(
        k, k2,
        "matmul inner dimension mismatch: {} vs {}",
        x.shape, y.shape
    );
    let bt = batch.unwrap_or(1);
    let span = lttf_obs::span!("matmul", bt * m * k * n >= crate::obs_min_work());
    span.bytes((x.numel() + y.numel()) * 4);
    if sum_batches {
        assert!(
            a.batch.is_some() && b.batch.is_some(),
            "a batch-summed matmul needs two batched operands, got {} and {}",
            x.shape,
            y.shape
        );
        let mut out = vec![0.0; m * n];
        gemm_batched_sum(a, b, &mut out, bt, m, k, n);
        return Tensor::from_vec(out, &[m, n]);
    }
    let mut out = vec![0.0; bt * m * n];
    match batch {
        Some(bt) => {
            gemm_batched(a, b, &mut out, bt, m, k, n);
            Tensor::from_vec(out, &[bt, m, n])
        }
        None => {
            gemm_par_mat(a.mat(0), b.mat(0), &mut out, m, k, n);
            Tensor::from_vec(out, &[m, n])
        }
    }
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
        matmul_read(self, false, other, false, false)
    }

    /// `self @ otherᵀ`, with `other`'s last two axes transposed: bit for
    /// bit the [`Tensor::matmul`] of `other.swap_axes(-1, -2)`, read in
    /// place instead of copied (the gradient `dA = dC·Bᵀ`).
    ///
    /// # Panics
    /// As [`Tensor::matmul`].
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        matmul_read(self, false, other, true, false)
    }

    /// `selfᵀ @ other`, with `self`'s last two axes transposed: bit for
    /// bit the [`Tensor::matmul`] of `self.swap_axes(-1, -2)`, read in
    /// place instead of copied (the gradient `dB = Aᵀ·dC`).
    ///
    /// # Panics
    /// As [`Tensor::matmul`].
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        matmul_read(self, true, other, false, false)
    }

    /// `Σ_b self_b @ other_bᵀ` over the batch axis of two `[b, ·, ·]`
    /// stacks: bit for bit `self.matmul_nt(other).sum_axis(0)`, without
    /// the `[b, m, n]` stack (the gradient `dA = Σ_b dC_b·B_bᵀ` of a left
    /// operand every batch shared).
    ///
    /// # Panics
    /// As [`Tensor::matmul`], and unless both operands are rank 3.
    pub fn matmul_nt_sum(&self, other: &Tensor) -> Tensor {
        matmul_read(self, false, other, true, true)
    }

    /// `Σ_b self_bᵀ @ other_b` over the batch axis of two `[b, ·, ·]`
    /// stacks: bit for bit `self.matmul_tn(other).sum_axis(0)`, without
    /// the `[b, m, n]` stack (the gradient `dB = Σ_b A_bᵀ·dC_b` of a right
    /// operand every batch shared, such as a Linear weight).
    ///
    /// # Panics
    /// As [`Tensor::matmul`], and unless both operands are rank 3.
    pub fn matmul_tn_sum(&self, other: &Tensor) -> Tensor {
        matmul_read(self, true, other, false, true)
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
