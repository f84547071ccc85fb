//! AVX2+FMA kernels.
//!
//! Every function here is `#[target_feature(enable = "avx2", enable =
//! "fma")]` and must only be reached through the dispatchers in
//! [`super`], which guarantee the features were detected at runtime.
//!
//! Determinism: each kernel's instruction schedule — vector lane
//! grouping, accumulator count, tail handling — is a pure function of the
//! operand lengths, never of the thread count or any global state, so a
//! fixed input always produces the same bytes. Where a tail shorter than
//! one vector remains, the inputs are staged through a zero-padded stack
//! buffer so tail lanes go through the *same* polynomial/FMA pipeline as
//! full lanes (no libm/poly mixing within one backend).

#![allow(unsafe_op_in_unsafe_fn)]

use super::{Band, BinOp, Strided, UnOp};
use core::arch::x86_64::*;

/// Recursion base for the pairwise reductions. Larger than the scalar
/// backend's 32 because each lane of the 4×8-wide accumulator bank only
/// folds `256 / 32 = 8` addends sequentially — comparable error growth.
const PAIRWISE_BASE: usize = 256;

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Horizontal sum in a fixed lane order (pure function of the register).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn hsum(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    _mm_cvtss_f32(s)
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sum_base(x: &[f32]) -> f32 {
    let n = x.len();
    let p = x.as_ptr();
    let mut a0 = _mm256_setzero_ps();
    let mut a1 = _mm256_setzero_ps();
    let mut a2 = _mm256_setzero_ps();
    let mut a3 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 32 <= n {
        a0 = _mm256_add_ps(a0, _mm256_loadu_ps(p.add(i)));
        a1 = _mm256_add_ps(a1, _mm256_loadu_ps(p.add(i + 8)));
        a2 = _mm256_add_ps(a2, _mm256_loadu_ps(p.add(i + 16)));
        a3 = _mm256_add_ps(a3, _mm256_loadu_ps(p.add(i + 24)));
        i += 32;
    }
    let mut acc = _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
    while i + 8 <= n {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(p.add(i)));
        i += 8;
    }
    let mut s = hsum(acc);
    while i < n {
        s += *p.add(i);
        i += 1;
    }
    s
}

/// Pairwise sum with a vectorized 256-element base block.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sum(x: &[f32]) -> f32 {
    if x.len() <= PAIRWISE_BASE {
        return sum_base(x);
    }
    let mid = x.len() / 2;
    sum(&x[..mid]) + sum(&x[mid..])
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_base(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    let mut a0 = _mm256_setzero_ps();
    let mut a1 = _mm256_setzero_ps();
    let mut a2 = _mm256_setzero_ps();
    let mut a3 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 32 <= n {
        a0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), a0);
        a1 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 8)),
            _mm256_loadu_ps(pb.add(i + 8)),
            a1,
        );
        a2 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 16)),
            _mm256_loadu_ps(pb.add(i + 16)),
            a2,
        );
        a3 = _mm256_fmadd_ps(
            _mm256_loadu_ps(pa.add(i + 24)),
            _mm256_loadu_ps(pb.add(i + 24)),
            a3,
        );
        i += 32;
    }
    let mut acc = _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
    while i + 8 <= n {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc);
        i += 8;
    }
    let mut s = hsum(acc);
    while i < n {
        s = (*pa.add(i)).mul_add(*pb.add(i), s);
        i += 1;
    }
    s
}

/// Pairwise dot with a vectorized FMA base block.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    if a.len() <= PAIRWISE_BASE {
        return dot_base(a, b);
    }
    let mid = a.len() / 2;
    dot(&a[..mid], &b[..mid]) + dot(&a[mid..], &b[mid..])
}

/// `y[i] += a * x[i]` with FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    let n = y.len();
    let py = y.as_mut_ptr();
    let px = x.as_ptr();
    let av = _mm256_set1_ps(a);
    let mut i = 0;
    while i + 8 <= n {
        let r = _mm256_fmadd_ps(av, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(py.add(i)));
        _mm256_storeu_ps(py.add(i), r);
        i += 8;
    }
    while i < n {
        *py.add(i) = a.mul_add(*px.add(i), *py.add(i));
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Channels-last convolution
// ---------------------------------------------------------------------------

/// Rows of a channels-last convolution with every tap fused. Output row
/// `r < rows` (`n = out.len() / rows` lanes at `out[r·n..]`) is `init`
/// (or `+0.0`), then for each channel `c` and tap `t < taps` in order,
/// `out[r·n + j] = fma(src[first + r·rstep + t·step + c], w[(c·k + kk0 +
/// t)·n + j], out[r·n + j])`.
///
/// Up to four rows advance together, each with its own accumulators, so
/// every weight load serves four independent FMA chains. Lanes go sixteen
/// to a block in registers, then eight at a time with a lane mask for the
/// last `n % 8`: a masked lane is neither read nor written, and each live
/// lane runs the same FMA chain a scalar `mul_add` loop would.
///
/// # Safety
/// The CPU must support AVX2 and FMA, every `first + r·rstep + t·step + c`
/// must index `src`, `w` must hold `n_ch·k·n`, `kk0 + taps <= k`, and
/// `init`, when given, `n`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn conv_rows_fma(
    src: &[f32],
    first: usize,
    rstep: usize,
    step: isize,
    taps: usize,
    n_ch: usize,
    w: &[f32],
    k: usize,
    kk0: usize,
    init: Option<&[f32]>,
    out: &mut [f32],
    rows: usize,
) {
    let n = out.len() / rows.max(1);
    let g = ConvGeom {
        rstep,
        step,
        taps,
        n_ch,
        w: w.as_ptr(),
        k,
        kk0,
        init: init.map(|b| b.as_ptr()),
        n,
    };
    let mut r = 0;
    while r < rows {
        // Not dereferenced when there are no taps, so it may point past
        // `src` then; `wrapping_add` keeps forming it defined.
        let x = src.as_ptr().wrapping_add(first + r * rstep);
        let o = out.as_mut_ptr().add(r * n);
        match rows - r {
            1 => conv_block::<1>(&g, x, o),
            2 => conv_block::<2>(&g, x, o),
            3 => conv_block::<3>(&g, x, o),
            _ => conv_block::<4>(&g, x, o),
        }
        r += 4;
    }
}

/// The geometry [`conv_rows_fma`] shares across its row blocks.
struct ConvGeom {
    rstep: usize,
    step: isize,
    taps: usize,
    n_ch: usize,
    w: *const f32,
    k: usize,
    kk0: usize,
    init: Option<*const f32>,
    n: usize,
}

impl ConvGeom {
    /// Offset of row `r`'s tap `t`, channel `c` from the block's first
    /// source row.
    #[inline(always)]
    fn tap(&self, r: usize, t: usize, c: usize) -> isize {
        (r * self.rstep) as isize + t as isize * self.step + c as isize
    }
}

/// `-1` lanes then `0` lanes: eight from `8 - m` mask the first `m`.
static LANE_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// `R` consecutive output rows of [`conv_rows_fma`]: row `r`'s source row
/// starts at `x + r·rstep`, its output at `o + r·n`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn conv_block<const R: usize>(g: &ConvGeom, x: *const f32, o: *mut f32) {
    let n = g.n;
    let mut j = 0;
    while j + 16 <= n {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        if let Some(b) = g.init {
            for a in acc.iter_mut() {
                *a = [_mm256_loadu_ps(b.add(j)), _mm256_loadu_ps(b.add(j + 8))];
            }
        }
        for c in 0..g.n_ch {
            let wc = g.w.add((c * g.k + g.kk0) * n + j);
            for t in 0..g.taps {
                let w0 = _mm256_loadu_ps(wc.add(t * n));
                let w1 = _mm256_loadu_ps(wc.add(t * n + 8));
                for (r, a) in acc.iter_mut().enumerate() {
                    let xv = _mm256_set1_ps(*x.offset(g.tap(r, t, c)));
                    a[0] = _mm256_fmadd_ps(xv, w0, a[0]);
                    a[1] = _mm256_fmadd_ps(xv, w1, a[1]);
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(o.add(r * n + j), a[0]);
            _mm256_storeu_ps(o.add(r * n + j + 8), a[1]);
        }
        j += 16;
    }
    while j < n {
        let live = (n - j).min(8);
        let mask = _mm256_loadu_si256(LANE_MASK.as_ptr().add(8 - live) as *const __m256i);
        let mut acc = [_mm256_setzero_ps(); R];
        if let Some(b) = g.init {
            for a in acc.iter_mut() {
                *a = _mm256_maskload_ps(b.add(j), mask);
            }
        }
        for c in 0..g.n_ch {
            let wc = g.w.add((c * g.k + g.kk0) * n + j);
            for t in 0..g.taps {
                let w0 = _mm256_maskload_ps(wc.add(t * n), mask);
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_ps(_mm256_set1_ps(*x.offset(g.tap(r, t, c))), w0, *a);
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            _mm256_maskstore_ps(o.add(r * n + j), mask, *a);
        }
        j += 8;
    }
}

/// `acc + a[i·sa] · b[i·sb..i·sb + 8]`, fused, per lane; with `FULL`
/// false only the lanes `mask` selects read `b`, the rest read zero.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_term<const FULL: bool>(
    a: *const f32,
    sa: usize,
    b: *const f32,
    sb: usize,
    mask: __m256i,
    i: usize,
    acc: __m256,
) -> __m256 {
    let bv = if FULL {
        _mm256_loadu_ps(b.add(i * sb))
    } else {
        _mm256_maskload_ps(b.add(i * sb), mask)
    };
    _mm256_fmadd_ps(_mm256_set1_ps(*a.add(i * sa)), bv, acc)
}

/// Eight [`dot`]s at once, one per lane: lane `l` is the dot of the
/// `n`-element sequences `a[i·sa]` and `b[i·sb + l]`, with [`dot`]'s exact
/// schedule — pairwise halving above [`PAIRWISE_BASE`], and in each base
/// block the 4×8 FMA accumulator bank, its `(a0+a1)+(a2+a3)` fold, the
/// 8-element blocks, the horizontal-sum tree and the scalar FMA tail. Each
/// of those steps is per dot, so running them with the eight dots in the
/// eight lanes of a register gives every lane the bits [`dot`] gives it.
///
/// With `FULL` false only the lanes `mask` selects read `b`; the others
/// compute on zeros and are to be ignored.
///
/// # Safety
/// The CPU must support AVX2 and FMA; `a` must be readable at `(n-1)·sa`
/// and `b` at `(n-1)·sb + l` for every selected lane `l`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_lanes<const FULL: bool>(
    a: *const f32,
    sa: usize,
    b: *const f32,
    sb: usize,
    mask: __m256i,
    n: usize,
) -> __m256 {
    if n > PAIRWISE_BASE {
        let mid = n / 2;
        let lo = dot_lanes::<FULL>(a, sa, b, sb, mask, mid);
        let hi = dot_lanes::<FULL>(a.add(mid * sa), sa, b.add(mid * sb), sb, mask, n - mid);
        return _mm256_add_ps(lo, hi);
    }
    // `acc[l]` holds dot-lane `l` of `dot_base`'s folded accumulator, one
    // register lane per dot. Dot-lane `l` of bank register `a_j` sums the
    // elements `32·t + 8·j + l` in order of `t`: four independent chains,
    // folded `(a0+a1)+(a2+a3)` as `dot_base` folds them.
    let blocks = n / 32;
    let mut acc = [_mm256_setzero_ps(); 8];
    if blocks > 0 {
        for (l, v) in acc.iter_mut().enumerate() {
            let mut bank = [_mm256_setzero_ps(); 4];
            for t in 0..blocks {
                for (j, c) in bank.iter_mut().enumerate() {
                    *c = fma_term::<FULL>(a, sa, b, sb, mask, 32 * t + 8 * j + l, *c);
                }
            }
            *v = _mm256_add_ps(
                _mm256_add_ps(bank[0], bank[1]),
                _mm256_add_ps(bank[2], bank[3]),
            );
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        for (l, v) in acc.iter_mut().enumerate() {
            *v = fma_term::<FULL>(a, sa, b, sb, mask, i + l, *v);
        }
        i += 8;
    }
    // `hsum`'s tree: ((v0+v4) + (v2+v6)) + ((v1+v5) + (v3+v7)).
    let t0 = _mm256_add_ps(acc[0], acc[4]);
    let t1 = _mm256_add_ps(acc[1], acc[5]);
    let t2 = _mm256_add_ps(acc[2], acc[6]);
    let t3 = _mm256_add_ps(acc[3], acc[7]);
    let mut s = _mm256_add_ps(_mm256_add_ps(t0, t2), _mm256_add_ps(t1, t3));
    while i < n {
        s = fma_term::<FULL>(a, sa, b, sb, mask, i, s);
        i += 1;
    }
    s
}

/// `out[l] += ` lane `l` of [`dot_lanes`] over `a` and `b`, for the
/// `out.len()` (at most eight) lanes from `b`'s first.
///
/// # Safety
/// The CPU must support AVX2 and FMA, `out.len() <= 8`, and `a` must be
/// readable at `(n-1)·sa` and `b` at `(n-1)·sb + out.len() - 1`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot_lanes_acc(a: &[f32], sa: usize, b: &[f32], sb: usize, n: usize, out: &mut [f32]) {
    let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let live = out.len();
    let mask = _mm256_loadu_si256(LANE_MASK.as_ptr().add(8 - live) as *const __m256i);
    if live == 8 {
        let d = dot_lanes::<true>(pa, sa, pb, sb, mask, n);
        _mm256_storeu_ps(po, _mm256_add_ps(_mm256_loadu_ps(po), d));
    } else {
        let d = dot_lanes::<false>(pa, sa, pb, sb, mask, n);
        _mm256_maskstore_ps(po, mask, _mm256_add_ps(_mm256_maskload_ps(po, mask), d));
    }
}

// ---------------------------------------------------------------------------
// gemm micro-tile
// ---------------------------------------------------------------------------

/// `out[0..m,0..n] += a @ b` over strided row-major operands.
///
/// Register blocking: 4 rows × 16 columns (8 FMA accumulators held in
/// registers for the whole k-loop), then a 4×8 column tail, then scalar
/// columns; leftover rows run one at a time with 16/8-wide accumulators.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and every index the strides name
/// must lie inside its slice: `a` past `(m-1)·lda + (k-1)·acs`, `b` past
/// `(k-1)·ldb + n - 1`, `out` past `(m-1)·ldo + n - 1`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemm_block(
    a: &[f32],
    lda: usize,
    acs: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let po = out.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= m {
        let a0 = pa.add(i * lda);
        let a1 = pa.add((i + 1) * lda);
        let a2 = pa.add((i + 2) * lda);
        let a3 = pa.add((i + 3) * lda);
        let o0 = po.add(i * ldo);
        let o1 = po.add((i + 1) * ldo);
        let o2 = po.add((i + 2) * ldo);
        let o3 = po.add((i + 3) * ldo);
        let mut j = 0;
        while j + 16 <= n {
            let mut c00 = _mm256_setzero_ps();
            let mut c01 = _mm256_setzero_ps();
            let mut c10 = _mm256_setzero_ps();
            let mut c11 = _mm256_setzero_ps();
            let mut c20 = _mm256_setzero_ps();
            let mut c21 = _mm256_setzero_ps();
            let mut c30 = _mm256_setzero_ps();
            let mut c31 = _mm256_setzero_ps();
            for p in 0..k {
                let b0 = _mm256_loadu_ps(pb.add(p * ldb + j));
                let b1 = _mm256_loadu_ps(pb.add(p * ldb + j + 8));
                let v0 = _mm256_set1_ps(*a0.add(p * acs));
                c00 = _mm256_fmadd_ps(v0, b0, c00);
                c01 = _mm256_fmadd_ps(v0, b1, c01);
                let v1 = _mm256_set1_ps(*a1.add(p * acs));
                c10 = _mm256_fmadd_ps(v1, b0, c10);
                c11 = _mm256_fmadd_ps(v1, b1, c11);
                let v2 = _mm256_set1_ps(*a2.add(p * acs));
                c20 = _mm256_fmadd_ps(v2, b0, c20);
                c21 = _mm256_fmadd_ps(v2, b1, c21);
                let v3 = _mm256_set1_ps(*a3.add(p * acs));
                c30 = _mm256_fmadd_ps(v3, b0, c30);
                c31 = _mm256_fmadd_ps(v3, b1, c31);
            }
            _mm256_storeu_ps(o0.add(j), _mm256_add_ps(_mm256_loadu_ps(o0.add(j)), c00));
            _mm256_storeu_ps(
                o0.add(j + 8),
                _mm256_add_ps(_mm256_loadu_ps(o0.add(j + 8)), c01),
            );
            _mm256_storeu_ps(o1.add(j), _mm256_add_ps(_mm256_loadu_ps(o1.add(j)), c10));
            _mm256_storeu_ps(
                o1.add(j + 8),
                _mm256_add_ps(_mm256_loadu_ps(o1.add(j + 8)), c11),
            );
            _mm256_storeu_ps(o2.add(j), _mm256_add_ps(_mm256_loadu_ps(o2.add(j)), c20));
            _mm256_storeu_ps(
                o2.add(j + 8),
                _mm256_add_ps(_mm256_loadu_ps(o2.add(j + 8)), c21),
            );
            _mm256_storeu_ps(o3.add(j), _mm256_add_ps(_mm256_loadu_ps(o3.add(j)), c30));
            _mm256_storeu_ps(
                o3.add(j + 8),
                _mm256_add_ps(_mm256_loadu_ps(o3.add(j + 8)), c31),
            );
            j += 16;
        }
        while j + 8 <= n {
            let mut c0 = _mm256_setzero_ps();
            let mut c1 = _mm256_setzero_ps();
            let mut c2 = _mm256_setzero_ps();
            let mut c3 = _mm256_setzero_ps();
            for p in 0..k {
                let bv = _mm256_loadu_ps(pb.add(p * ldb + j));
                c0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0.add(p * acs)), bv, c0);
                c1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1.add(p * acs)), bv, c1);
                c2 = _mm256_fmadd_ps(_mm256_set1_ps(*a2.add(p * acs)), bv, c2);
                c3 = _mm256_fmadd_ps(_mm256_set1_ps(*a3.add(p * acs)), bv, c3);
            }
            _mm256_storeu_ps(o0.add(j), _mm256_add_ps(_mm256_loadu_ps(o0.add(j)), c0));
            _mm256_storeu_ps(o1.add(j), _mm256_add_ps(_mm256_loadu_ps(o1.add(j)), c1));
            _mm256_storeu_ps(o2.add(j), _mm256_add_ps(_mm256_loadu_ps(o2.add(j)), c2));
            _mm256_storeu_ps(o3.add(j), _mm256_add_ps(_mm256_loadu_ps(o3.add(j)), c3));
            j += 8;
        }
        while j < n {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for p in 0..k {
                let bv = *pb.add(p * ldb + j);
                s0 = (*a0.add(p * acs)).mul_add(bv, s0);
                s1 = (*a1.add(p * acs)).mul_add(bv, s1);
                s2 = (*a2.add(p * acs)).mul_add(bv, s2);
                s3 = (*a3.add(p * acs)).mul_add(bv, s3);
            }
            *o0.add(j) += s0;
            *o1.add(j) += s1;
            *o2.add(j) += s2;
            *o3.add(j) += s3;
            j += 1;
        }
        i += 4;
    }
    while i < m {
        let ar = pa.add(i * lda);
        let or = po.add(i * ldo);
        let mut j = 0;
        while j + 16 <= n {
            let mut c0 = _mm256_setzero_ps();
            let mut c1 = _mm256_setzero_ps();
            for p in 0..k {
                let av = _mm256_set1_ps(*ar.add(p * acs));
                c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb.add(p * ldb + j)), c0);
                c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb.add(p * ldb + j + 8)), c1);
            }
            _mm256_storeu_ps(or.add(j), _mm256_add_ps(_mm256_loadu_ps(or.add(j)), c0));
            _mm256_storeu_ps(
                or.add(j + 8),
                _mm256_add_ps(_mm256_loadu_ps(or.add(j + 8)), c1),
            );
            j += 16;
        }
        while j + 8 <= n {
            let mut c0 = _mm256_setzero_ps();
            for p in 0..k {
                c0 = _mm256_fmadd_ps(
                    _mm256_set1_ps(*ar.add(p * acs)),
                    _mm256_loadu_ps(pb.add(p * ldb + j)),
                    c0,
                );
            }
            _mm256_storeu_ps(or.add(j), _mm256_add_ps(_mm256_loadu_ps(or.add(j)), c0));
            j += 8;
        }
        while j < n {
            let mut s = 0.0f32;
            for p in 0..k {
                s = (*ar.add(p * acs)).mul_add(*pb.add(p * ldb + j), s);
            }
            *or.add(j) += s;
            j += 1;
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Transcendentals
// ---------------------------------------------------------------------------

/// Vector `e^x`: range-reduced degree-5 polynomial (Cephes `expf`
/// coefficients), ≈2 ulp over the finite range, clamped so the scaled
/// result never overflows.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp8(x: __m256) -> __m256 {
    let x = _mm256_max_ps(
        _mm256_min_ps(x, _mm256_set1_ps(88.376_26)),
        _mm256_set1_ps(-88.376_26),
    );
    // n = round-to-floor(x * log2(e) + 0.5); r = x - n*ln2 in two parts.
    let fx = _mm256_floor_ps(_mm256_fmadd_ps(
        x,
        _mm256_set1_ps(std::f32::consts::LOG2_E),
        _mm256_set1_ps(0.5),
    ));
    let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693_359_4), x);
    let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.121_944_4e-4), r);
    let z = _mm256_mul_ps(r, r);
    let mut y = _mm256_set1_ps(1.987_569_1e-4);
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.398_199_9e-3));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.333_452e-3));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.166_579_6e-2));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(0.166_666_65));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(0.5));
    y = _mm256_fmadd_ps(y, z, r);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
    // y * 2^n via the exponent field.
    let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_cvtps_epi32(fx),
        _mm256_set1_epi32(127),
    )));
    _mm256_mul_ps(y, pow2)
}

/// glibc's `expf` table (`e_exp2f_data.c`, `N = 32`): the bits of
/// `2^(i/32)` minus `i << 47`, so that adding `k << 47` to entry `k & 31`
/// gives the bits of `2^(k/32)`.
static EXPF_TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// Four lanes of [`expf8`], in double precision as glibc computes them.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn expf4(x: __m128) -> __m128 {
    let inv_ln2_n = _mm256_set1_pd(f64::from_bits(0x40471547652b82fe)); // 0x1.71547652b82fep+5
    let shift = _mm256_set1_pd(f64::from_bits(0x4338000000000000)); // 0x1.8p+52
    let c0 = _mm256_set1_pd(f64::from_bits(0x3ebc6af84b912394)); // 0x1.c6af84b912394p-20
    let c1 = _mm256_set1_pd(f64::from_bits(0x3f2ebfce50fac4f3)); // 0x1.ebfce50fac4f3p-13
    let c2 = _mm256_set1_pd(f64::from_bits(0x3f962e42ff0c52d6)); // 0x1.62e42ff0c52d6p-6
    let xd = _mm256_cvtps_pd(x);
    // x·N/ln2 = k + r: k rounded to nearest through the shift, r fused.
    let kd = _mm256_add_pd(_mm256_mul_pd(inv_ln2_n, xd), shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
    // s = 2^(k/N): the table entry for k mod N, with k/N added to its exponent.
    let t = _mm256_i64gather_epi64::<8>(
        EXPF_TAB.as_ptr() as *const i64,
        _mm256_and_si256(ki, _mm256_set1_epi64x(31)),
    );
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let y = _mm256_fmadd_pd(
        _mm256_fmadd_pd(c0, r, c1),
        _mm256_mul_pd(r, r),
        _mm256_fmadd_pd(c2, r, _mm256_set1_pd(1.0)),
    );
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// Vector `e^x` with `f32::exp`'s bits for `x ≤ 0` and NaN: a port of
/// glibc 2.36's `expf` as its FMA build computes it (the `r` reduction is
/// one fused multiply-subtract). Inputs below `log(2^-150)`, `−∞`
/// included, give `+0`; a NaN gives `x + x`, as glibc does. Positive
/// inputs are outside its contract (no overflow handling).
///
/// [`exp8`] is a different function on purpose: `Tensor::exp`, `sigmoid`
/// and `tanh` have gone through its polynomial since the SIMD backend
/// landed, and the pinned forecast and training digests hold its bits.
/// The window-attention softmax has always called `f32::exp`, so its lane
/// kernel needs this one.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn expf8(x: __m256) -> __m256 {
    let y = _mm256_set_m128(
        expf4(_mm256_extractf128_ps(x, 1)),
        expf4(_mm256_castps256_ps128(x)),
    );
    let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(f32::from_bits(0xc2cff1b4)));
    let y = _mm256_andnot_ps(under, y);
    _mm256_blendv_ps(y, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
}

/// Vector sigmoid `1 / (1 + e^{-x})`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sigmoid8(x: __m256) -> __m256 {
    let e = exp8(_mm256_sub_ps(_mm256_setzero_ps(), x));
    _mm256_div_ps(
        _mm256_set1_ps(1.0),
        _mm256_add_ps(_mm256_set1_ps(1.0), e),
    )
}

/// Vector tanh via `1 - 2/(e^{2x} + 1)` on `|x|`, sign restored at the
/// end. Absolute error ≈1e-7 near zero (cancellation in `1 - t`), exact
/// saturation for large `|x|`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tanh8(x: __m256) -> __m256 {
    let sign_mask = _mm256_set1_ps(-0.0);
    let sign = _mm256_and_ps(x, sign_mask);
    let ax = _mm256_andnot_ps(sign_mask, x);
    let e = exp8(_mm256_mul_ps(ax, _mm256_set1_ps(-2.0)));
    // (1 - e) / (1 + e)
    let t = _mm256_div_ps(
        _mm256_sub_ps(_mm256_set1_ps(1.0), e),
        _mm256_add_ps(_mm256_set1_ps(1.0), e),
    );
    _mm256_or_ps(t, sign)
}

/// Vector GELU (tanh approximation).
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gelu8(x: __m256) -> __m256 {
    let c = _mm256_set1_ps(0.797_884_6); // sqrt(2/pi)
    let inner = _mm256_mul_ps(
        c,
        _mm256_fmadd_ps(
            _mm256_set1_ps(0.044_715),
            _mm256_mul_ps(_mm256_mul_ps(x, x), x),
            x,
        ),
    );
    let t = _mm256_add_ps(_mm256_set1_ps(1.0), tanh8(inner));
    _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5), x), t)
}

/// Apply `op` lane-wise; tails go through a zero-padded stack buffer so
/// every element sees the same polynomial pipeline.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn unary(op: UnOp, x: &[f32], out: &mut [f32]) {
    let n = x.len();
    let px = x.as_ptr();
    let po = out.as_mut_ptr();
    let apply = |v: __m256| match op {
        UnOp::Exp => exp8(v),
        UnOp::Sigmoid => sigmoid8(v),
        UnOp::Tanh => tanh8(v),
        UnOp::Gelu => gelu8(v),
    };
    let mut i = 0;
    while i + 8 <= n {
        _mm256_storeu_ps(po.add(i), apply(_mm256_loadu_ps(px.add(i))));
        i += 8;
    }
    if i < n {
        let mut buf = [0.0f32; 8];
        buf[..n - i].copy_from_slice(&x[i..]);
        let r = apply(_mm256_loadu_ps(buf.as_ptr()));
        _mm256_storeu_ps(buf.as_mut_ptr(), r);
        out[i..].copy_from_slice(&buf[..n - i]);
    }
}

/// See [`super::binary_rows`]: [`binary`] over each piece of a row.
///
/// # Safety
/// The CPU must support AVX2 and FMA, `full` and `out` must have one
/// length, and `phase < row.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn binary_rows(
    op: BinOp,
    full: &[f32],
    row: &[f32],
    phase: usize,
    row_left: bool,
    out: &mut [f32],
) {
    super::row_pieces(full, row, phase, row_left, out, |a, b, o| {
        // SAFETY: AVX2 and FMA as this function requires; each piece's
        // operands have its length.
        unsafe { binary(op, a, b, o) }
    });
}

/// Lane-wise binary arithmetic; same IEEE ops as the scalar backend, so
/// the results are bit-identical — only the stride differs.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and `a` and `b` must be at least as
/// long as `out`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i + 8 <= n {
        let x = _mm256_loadu_ps(pa.add(i));
        let y = _mm256_loadu_ps(pb.add(i));
        let r = match op {
            BinOp::Add => _mm256_add_ps(x, y),
            BinOp::Sub => _mm256_sub_ps(x, y),
            BinOp::Mul => _mm256_mul_ps(x, y),
            BinOp::Div => _mm256_div_ps(x, y),
        };
        _mm256_storeu_ps(po.add(i), r);
        i += 8;
    }
    while i < n {
        let (x, y) = (*pa.add(i), *pb.add(i));
        *po.add(i) = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        };
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Fused GRU gates
// ---------------------------------------------------------------------------

/// See [`super::gru_gates_rows`]: one call for every row of a step.
///
/// The full 8-lane vectors of every row go through the gate math in three
/// passes: `r` and `z` for every vector, then `n`, then `h'`, each pass
/// leaving its results in `gi`'s slots for the next. A pass's vectors are
/// independent, so the processor overlaps their `σ`/`tanh` chains instead
/// of waiting out one vector's chain at a time. A row's last `hs mod 8`
/// lanes are staged through zero-padded buffers and go through the same
/// passes one vector at a time. Each lane sees the same operations either
/// way.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and the operands must hold `rows`
/// rows as [`super::gru_gates_rows`] checks.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gru_gates_rows(
    hs: usize,
    gi: &mut [f32],
    gh: &[f32],
    h: &mut [f32],
    (out, out_stride): (&mut [f32], usize),
    mut stash: Option<[&mut [f32]; 4]>,
) {
    let rows = h.len() / hs;
    let full = hs / 8 * 8;
    let at = |row: usize, j: usize| GateLanes {
        gate: row * 3 * hs + j,
        hs,
        h: row * hs + j,
        out: row * out_stride + j,
    };
    let (pgi, pgh) = (gi.as_mut_ptr(), gh.as_ptr());
    let (ph, po) = (h.as_mut_ptr(), out.as_mut_ptr());
    let pstash = stash.as_mut().map(|s| s.each_mut().map(|g| g.as_mut_ptr()));
    for row in 0..rows {
        for j in (0..full).step_by(8) {
            gates_rz(pgi, pgh, at(row, j));
        }
    }
    for row in 0..rows {
        for j in (0..full).step_by(8) {
            gates_n(pgi, pgh, at(row, j));
        }
    }
    for row in 0..rows {
        for j in (0..full).step_by(8) {
            gates_h(pgi, pgh, (ph, po, pstash), at(row, j));
        }
    }
    if full == hs {
        return;
    }
    // The tails: lanes `full..hs` of each row, staged.
    let t = hs - full;
    for row in 0..rows {
        let (lanes, gates) = (row * hs + full..(row + 1) * hs, row * 3 * hs + full);
        let mut bgi = [0.0f32; 24];
        let mut bgh = [0.0f32; 24];
        for g in 0..3 {
            let from = gates + g * hs;
            bgi[8 * g..8 * g + t].copy_from_slice(&gi[from..from + t]);
            bgh[8 * g..8 * g + t].copy_from_slice(&gh[from..from + t]);
        }
        let mut bh = [0.0f32; 8];
        bh[..t].copy_from_slice(&h[lanes.clone()]);
        let (mut bout, mut bstash) = ([0.0f32; 8], [[0.0f32; 8]; 4]);
        let v = GateLanes {
            gate: 0,
            hs: 8,
            h: 0,
            out: 0,
        };
        let (pgi, pgh) = (bgi.as_mut_ptr(), bgh.as_ptr());
        gates_rz(pgi, pgh, v);
        gates_n(pgi, pgh, v);
        let bstash_ptr = stash
            .is_some()
            .then(|| bstash.each_mut().map(|b| b.as_mut_ptr()));
        gates_h(
            pgi,
            pgh,
            (bh.as_mut_ptr(), bout.as_mut_ptr(), bstash_ptr),
            v,
        );
        let o = row * out_stride + full;
        out[o..o + t].copy_from_slice(&bout[..t]);
        h[lanes.clone()].copy_from_slice(&bout[..t]);
        if let Some(s) = &mut stash {
            for (g, b) in s.iter_mut().zip(&bstash) {
                g[lanes.clone()].copy_from_slice(&b[..t]);
            }
        }
    }
}

/// Where one 8-lane vector of [`gru_gates_rows`] sits: its `r` slot at
/// `gate` in `gi` and `gh` (the `z` and `n` slots `hs` and `2·hs` on), and
/// its lanes at `h` in the hidden state and the stash and at `out` in the
/// output.
#[derive(Clone, Copy)]
struct GateLanes {
    gate: usize,
    hs: usize,
    h: usize,
    out: usize,
}

/// `r = σ(gi_r + gh_r)` and `z = σ(gi_z + gh_z)`, written over `gi_r` and
/// `gi_z`.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and `gi` and `gh` must hold the
/// vector's three slots.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gates_rz(gi: *mut f32, gh: *const f32, v: GateLanes) {
    for slot in [v.gate, v.gate + v.hs] {
        let pre = _mm256_add_ps(_mm256_loadu_ps(gi.add(slot)), _mm256_loadu_ps(gh.add(slot)));
        _mm256_storeu_ps(gi.add(slot), sigmoid8(pre));
    }
}

/// `n = tanh(gi_n + r ⊙ gh_n)`, written over `gi_n`.
///
/// # Safety
/// As [`gates_rz`], after it.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gates_n(gi: *mut f32, gh: *const f32, v: GateLanes) {
    let n = gi.add(v.gate + 2 * v.hs);
    let r = _mm256_loadu_ps(gi.add(v.gate));
    let ghn = _mm256_loadu_ps(gh.add(v.gate + 2 * v.hs));
    _mm256_storeu_ps(n, tanh8(_mm256_fmadd_ps(r, ghn, _mm256_loadu_ps(n))));
}

/// `h' = n + z·(h − n)` to `h` and `out`, and `(r, z, n, gh_n)` to the
/// stash when there is one.
///
/// # Safety
/// As [`gates_n`], after it; `h`, `out` and the stash must hold the
/// vector's lanes.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gates_h(
    gi: *const f32,
    gh: *const f32,
    (h, out, stash): (*mut f32, *mut f32, Option<[*mut f32; 4]>),
    v: GateLanes,
) {
    let z = _mm256_loadu_ps(gi.add(v.gate + v.hs));
    let n = _mm256_loadu_ps(gi.add(v.gate + 2 * v.hs));
    let hp = _mm256_fmadd_ps(z, _mm256_sub_ps(_mm256_loadu_ps(h.add(v.h)), n), n);
    _mm256_storeu_ps(out.add(v.out), hp);
    _mm256_storeu_ps(h.add(v.h), hp);
    if let Some([sr, sz, sn, sghn]) = stash {
        _mm256_storeu_ps(sr.add(v.h), _mm256_loadu_ps(gi.add(v.gate)));
        _mm256_storeu_ps(sz.add(v.h), z);
        _mm256_storeu_ps(sn.add(v.h), n);
        _mm256_storeu_ps(sghn.add(v.h), _mm256_loadu_ps(gh.add(v.gate + 2 * v.hs)));
    }
}

/// See [`super::gru_gates_rows_backward`]: one call for every row of a
/// step.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and the operands must hold `rows`
/// rows as [`super::gru_gates_rows_backward`] checks.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gru_gates_rows_backward(
    hs: usize,
    (go, go_stride): Strided<'_>,
    (h_prev, h_stride): Strided<'_>,
    gates: [&[f32]; 4],
    dh: &mut [f32],
    (dgi, dgi_stride): (&mut [f32], usize),
    dgh: &mut [f32],
) {
    let rows = dh.chunks_exact_mut(hs).zip(dgi.chunks_mut(dgi_stride));
    for (i, ((dh, dgi), dgh)) in rows.zip(dgh.chunks_exact_mut(3 * hs)).enumerate() {
        gru_gates_row_backward(
            &go[i * go_stride..i * go_stride + hs],
            &h_prev[i * h_stride..i * h_stride + hs],
            gates.map(|g| &g[i * hs..(i + 1) * hs]),
            dh,
            &mut dgi[..3 * hs],
            dgh,
        );
    }
}

/// One row of [`gru_gates_rows_backward`]. Mul/add/sub only — no FMA
/// contraction — so every lane matches the scalar backend; the tail runs
/// the same formulas one lane at a time.
///
/// # Safety
/// The CPU must support AVX2 and FMA, `go`, `h_prev`, the gate rows and
/// `dh` must have one length `h`, and `dgi`/`dgh` length `3h`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gru_gates_row_backward(
    go: &[f32],
    h_prev: &[f32],
    [r, z, n, ghn]: [&[f32]; 4],
    dh: &mut [f32],
    dgi: &mut [f32],
    dgh: &mut [f32],
) {
    let hs = dh.len();
    let one = _mm256_set1_ps(1.0);
    let (pdi, pdh) = (dgi.as_mut_ptr(), dgh.as_mut_ptr());
    let mut j = 0;
    while j + 8 <= hs {
        let rv = _mm256_loadu_ps(r.as_ptr().add(j));
        let zv = _mm256_loadu_ps(z.as_ptr().add(j));
        let nv = _mm256_loadu_ps(n.as_ptr().add(j));
        let d = _mm256_add_ps(
            _mm256_loadu_ps(go.as_ptr().add(j)),
            _mm256_loadu_ps(dh.as_ptr().add(j)),
        );
        let dz = _mm256_mul_ps(
            _mm256_sub_ps(_mm256_loadu_ps(h_prev.as_ptr().add(j)), nv),
            d,
        );
        let dn_pre = _mm256_mul_ps(
            _mm256_mul_ps(
                _mm256_sub_ps(one, _mm256_mul_ps(nv, nv)),
                _mm256_sub_ps(one, zv),
            ),
            d,
        );
        let dr_pre = _mm256_mul_ps(
            _mm256_mul_ps(rv, _mm256_sub_ps(one, rv)),
            _mm256_mul_ps(dn_pre, _mm256_loadu_ps(ghn.as_ptr().add(j))),
        );
        let dz_pre = _mm256_mul_ps(_mm256_mul_ps(zv, _mm256_sub_ps(one, zv)), dz);
        _mm256_storeu_ps(pdi.add(j), dr_pre);
        _mm256_storeu_ps(pdi.add(hs + j), dz_pre);
        _mm256_storeu_ps(pdi.add(2 * hs + j), dn_pre);
        _mm256_storeu_ps(pdh.add(j), dr_pre);
        _mm256_storeu_ps(pdh.add(hs + j), dz_pre);
        _mm256_storeu_ps(pdh.add(2 * hs + j), _mm256_mul_ps(dn_pre, rv));
        _mm256_storeu_ps(dh.as_mut_ptr().add(j), _mm256_mul_ps(zv, d));
        j += 8;
    }
    while j < hs {
        let (r, z, n) = (r[j], z[j], n[j]);
        let d = go[j] + dh[j];
        let dz = (h_prev[j] - n) * d;
        let dn_pre = (1.0 - n * n) * (1.0 - z) * d;
        let dr_pre = r * (1.0 - r) * (dn_pre * ghn[j]);
        let dz_pre = z * (1.0 - z) * dz;
        dgi[j] = dr_pre;
        dgi[hs + j] = dz_pre;
        dgi[2 * hs + j] = dn_pre;
        dgh[j] = dr_pre;
        dgh[hs + j] = dz_pre;
        dgh[2 * hs + j] = dn_pre * r;
        dh[j] = z * d;
        j += 1;
    }
}

// ---------------------------------------------------------------------------
// Banded softmax attention in lanes
// ---------------------------------------------------------------------------

/// A [`Band`] head staged channel-major in a work buffer: channel `c` of a
/// staged operand is one row of `stride` floats, position `x ∈ [−half,
/// len8 + half)` at `x + half`, zero outside `[0, len)`. Lane `l` of a
/// block of queries `[i0, i0 + 8)` then finds its key at slot `o`, `j = i
/// − half + o`, at `i0 + o + l`: one unaligned load per slot and channel.
///
/// Each operand stages `D` channels, its own followed by zero rows. A zero
/// channel adds `fma(0, 0, acc) = acc` to every chain, which starts at
/// `+0` and so is never `−0`, and its outputs are not stored; with `D` a
/// constant the channel loops unroll into registers. The padding and the
/// zero rows are the same for every head, so a call zeroes its work once
/// and each head rewrites only the positions it reads back.
struct Staged {
    stride: usize,
    slots: usize,
    len8: usize,
}

impl Staged {
    fn new(b: &Band) -> Self {
        Staged {
            stride: b.stride(),
            slots: 2 * b.half + 1,
            len8: b.len.next_multiple_of(8),
        }
    }
}

/// Copy columns `[col, col + d)` of `len` rows of `src` at row stride
/// `ld` into the first `d` staged channel rows at `dst`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn stage<const D: usize>(
    b: &Band,
    st: &Staged,
    src: &[f32],
    ld: usize,
    col: usize,
    d: usize,
    dst: *mut f32,
) {
    let (p, h, len) = (st.stride, b.half, b.len);
    let src = src.as_ptr().add(col);
    let mut x = 0;
    if D == 4 && d == 4 {
        while x + 8 <= len {
            let rows = |r: usize| _mm_loadu_ps(src.add((x + r) * ld));
            let ch = transpose_4x4x2([
                _mm256_set_m128(rows(4), rows(0)),
                _mm256_set_m128(rows(5), rows(1)),
                _mm256_set_m128(rows(6), rows(2)),
                _mm256_set_m128(rows(7), rows(3)),
            ]);
            for (c, v) in ch.into_iter().enumerate() {
                _mm256_storeu_ps(dst.add(c * p + h + x), v);
            }
            x += 8;
        }
    }
    for c in 0..d {
        for x in x..len {
            *dst.add(c * p + h + x) = *src.add(x * ld + c);
        }
    }
}

/// Transpose the 4×4 block in each 128-bit half of four registers: half
/// `k` of output `c` holds element `c` of half `k` of every input. Eight
/// rows of four channels (rows `r` and `r + 4` in input `r`) become four
/// channel registers over the eight rows, and back.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn transpose_4x4x2(a: [__m256; 4]) -> [__m256; 4] {
    let t0 = _mm256_unpacklo_ps(a[0], a[1]);
    let t1 = _mm256_unpackhi_ps(a[0], a[1]);
    let t2 = _mm256_unpacklo_ps(a[2], a[3]);
    let t3 = _mm256_unpackhi_ps(a[2], a[3]);
    [
        _mm256_shuffle_ps::<0x44>(t0, t2),
        _mm256_shuffle_ps::<0xEE>(t0, t2),
        _mm256_shuffle_ps::<0x44>(t1, t3),
        _mm256_shuffle_ps::<0xEE>(t1, t3),
    ]
}

/// All-ones in the lanes `l` where `first + l ∈ [0, len)`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn in_range(first: isize, len: usize) -> __m256 {
    let idx = _mm256_add_epi32(
        _mm256_set1_epi32(first as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let ge0 = _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(-1));
    let below = _mm256_cmpgt_epi32(_mm256_set1_epi32(len as i32), idx);
    _mm256_castsi256_ps(_mm256_and_si256(ge0, below))
}

/// Write lanes `[0, n)` of the first `d` accumulators to `out[(i0 + l)·ld
/// + c]`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn store_rows<const D: usize>(
    acc: &[__m256; D],
    d: usize,
    out: *mut f32,
    ld: usize,
    i0: usize,
    n: usize,
) {
    let out = out.add(i0 * ld);
    if D == 4 && d == 4 && n == 8 {
        let rows = transpose_4x4x2([acc[0], acc[1], acc[2], acc[3]]);
        for (r, v) in rows.into_iter().enumerate() {
            _mm_storeu_ps(out.add(r * ld), _mm256_castps256_ps128(v));
            _mm_storeu_ps(out.add((r + 4) * ld), _mm256_extractf128_ps(v, 1));
        }
        return;
    }
    let mut t = [[0.0f32; 8]; D];
    for (row, &a) in t.iter_mut().zip(acc) {
        _mm256_storeu_ps(row.as_mut_ptr(), a);
    }
    for l in 0..n {
        for (c, row) in t[..d].iter().enumerate() {
            *out.add(l * ld + c) = row[l];
        }
    }
}

/// `D` staged channel rows at `at`, one register each.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn load_channels<const D: usize>(rows: *const f32, stride: usize, at: usize) -> [__m256; D] {
    let mut r = [_mm256_setzero_ps(); D];
    for (c, v) in r.iter_mut().enumerate() {
        *v = _mm256_loadu_ps(rows.add(c * stride + at));
    }
    r
}

/// `acc[c] = fma(a, rows[c][at..], acc[c])` for every channel.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_channels<const D: usize>(
    acc: &mut [__m256; D],
    a: __m256,
    rows: *const f32,
    stride: usize,
    at: usize,
) {
    for (c, r) in acc.iter_mut().enumerate() {
        *r = _mm256_fmadd_ps(a, _mm256_loadu_ps(rows.add(c * stride + at)), *r);
    }
}

/// As [`fma_channels`], but a lane whose `a` is `±0` keeps its
/// accumulators: the pair is skipped, not added as `0·x`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_channels_live<const D: usize>(
    acc: &mut [__m256; D],
    a: __m256,
    rows: *const f32,
    stride: usize,
    at: usize,
) {
    let live = _mm256_cmp_ps::<_CMP_NEQ_UQ>(a, _mm256_setzero_ps());
    for (c, r) in acc.iter_mut().enumerate() {
        let f = _mm256_fmadd_ps(a, _mm256_loadu_ps(rows.add(c * stride + at)), *r);
        *r = _mm256_blendv_ps(*r, f, live);
    }
}

/// The dot of each lane's channels with the staged rows at `at`: an FMA
/// chain from `+0` in channel order.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_channels<const D: usize>(
    x: &[__m256; D],
    rows: *const f32,
    stride: usize,
    at: usize,
) -> __m256 {
    let mut s = _mm256_setzero_ps();
    for (c, &xv) in x.iter().enumerate() {
        s = _mm256_fmadd_ps(xv, _mm256_loadu_ps(rows.add(c * stride + at)), s);
    }
    s
}

/// Softmax numerators of queries `[i0, i0 + 8)` into `e` (8 floats per
/// slot); returns their sums `z`. Each lane runs the per-query sequence:
/// the dot as an FMA chain from `+0` then `· scale`, the running max, and
/// `e = exp(s − max)` summed in key order. A key outside `[0, len)`
/// scores `−∞`, so it adds `exp(−∞) = +0` to `z`.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn band_softmax<const D: usize>(
    b: &Band,
    st: &Staged,
    q: *const f32,
    k: *const f32,
    i0: usize,
    e: *mut f32,
) -> __m256 {
    let qc = load_channels::<D>(q, st.stride, i0 + b.half);
    let scale = _mm256_set1_ps(b.scale);
    let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut max = neg_inf;
    for o in 0..st.slots {
        let s = _mm256_mul_ps(dot_channels(&qc, k, st.stride, i0 + o), scale);
        let valid = in_range(i0 as isize - b.half as isize + o as isize, b.len);
        let s = _mm256_blendv_ps(neg_inf, s, valid);
        // `f32::max` ignores a NaN score; `max_ps` returns its second operand.
        max = _mm256_max_ps(s, max);
        _mm256_storeu_ps(e.add(8 * o), s);
    }
    let mut z = _mm256_setzero_ps();
    for o in 0..st.slots {
        let x = expf8(_mm256_sub_ps(_mm256_loadu_ps(e.add(8 * o)), max));
        _mm256_storeu_ps(e.add(8 * o), x);
        z = _mm256_add_ps(z, x);
    }
    z
}

/// See [`super::band_attention_forward`].
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn band_attention_forward(
    b: &Band,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    work: &mut [f32],
    out: &mut [f32],
) {
    if b.width() == 4 {
        band_forward::<4>(b, q, k, v, work, out)
    } else {
        band_forward::<8>(b, q, k, v, work, out)
    }
}

#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn band_forward<const D: usize>(
    b: &Band,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    work: &mut [f32],
    out: &mut [f32],
) {
    let st = Staged::new(b);
    let p = st.stride;
    let (ldk, ldv) = (b.heads * b.dh, b.heads * b.dv);
    let w = work.as_mut_ptr();
    let (qs, ks, vs, e) = (w, w.add(D * p), w.add(2 * D * p), w.add(3 * D * p));
    std::ptr::write_bytes(w, 0, 3 * D * p);
    let one = _mm256_set1_ps(1.0);
    for h in 0..b.heads {
        stage::<D>(b, &st, q, ldk, h * b.dh, b.dh, qs);
        stage::<D>(b, &st, k, ldk, h * b.dh, b.dh, ks);
        stage::<D>(b, &st, v, ldv, h * b.dv, b.dv, vs);
        let o = out.as_mut_ptr().add(h * b.dv);
        for i0 in (0..st.len8).step_by(8) {
            let inv = _mm256_div_ps(one, band_softmax::<D>(b, &st, qs, ks, i0, e));
            let mut acc = [_mm256_setzero_ps(); D];
            for o in 0..st.slots {
                let a = _mm256_mul_ps(_mm256_loadu_ps(e.add(8 * o)), inv);
                fma_channels(&mut acc, a, vs, p, i0 + o);
            }
            store_rows(&acc, b.dv, o, ldv, i0, (b.len - i0).min(8));
        }
    }
}

/// See [`super::band_attention_backward`].
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn band_attention_backward(
    b: &Band,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    g: &[f32],
    work: &mut [f32],
    gq: &mut [f32],
    gk: &mut [f32],
    gv: &mut [f32],
) {
    if b.width() == 4 {
        band_backward::<4>(b, q, k, v, g, work, gq, gk, gv)
    } else {
        band_backward::<8>(b, q, k, v, g, work, gq, gk, gv)
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn band_backward<const D: usize>(
    b: &Band,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    g: &[f32],
    work: &mut [f32],
    gq: &mut [f32],
    gk: &mut [f32],
    gv: &mut [f32],
) {
    let st = Staged::new(b);
    let (p, slots) = (st.stride, st.slots);
    let (ldk, ldv) = (b.heads * b.dh, b.heads * b.dv);
    let w = work.as_mut_ptr();
    let (qs, ks, vs, gs) = (w, w.add(D * p), w.add(2 * D * p), w.add(3 * D * p));
    // Per (slot, query) weights `a` and score gradients `ds`, staged like
    // the queries so the key pass reads them with the same loads. A head
    // rewrites every column of them that holds a query, `[half, half +
    // len8)`, so their padding stays zero from head to head too.
    let at = w.add(4 * D * p);
    let dst = at.add(slots * p);
    let e = dst.add(slots * p);
    let da = e.add(8 * slots);
    std::ptr::write_bytes(w, 0, (4 * D + 2 * slots) * p);
    let scale = _mm256_set1_ps(b.scale);
    let zero = _mm256_setzero_ps();
    for h in 0..b.heads {
        let (ch, cv) = (h * b.dh, h * b.dv);
        stage::<D>(b, &st, q, ldk, ch, b.dh, qs);
        stage::<D>(b, &st, k, ldk, ch, b.dh, ks);
        stage::<D>(b, &st, v, ldv, cv, b.dv, vs);
        stage::<D>(b, &st, g, ldv, cv, b.dv, gs);

        // Query pass, lanes over queries: the softmax and its gradient,
        // and dQ.
        for i0 in (0..st.len8).step_by(8) {
            let z = band_softmax::<D>(b, &st, qs, ks, i0, e);
            let gc = load_channels::<D>(gs, p, i0 + b.half);
            let mut dot_sum = zero;
            for o in 0..slots {
                let a = _mm256_div_ps(_mm256_loadu_ps(e.add(8 * o)), z);
                let d = dot_channels(&gc, vs, p, i0 + o);
                dot_sum = _mm256_add_ps(dot_sum, _mm256_mul_ps(a, d));
                _mm256_storeu_ps(e.add(8 * o), a);
                _mm256_storeu_ps(da.add(8 * o), d);
            }
            let query = in_range(i0 as isize, b.len);
            let mut acc = [zero; D];
            for o in 0..slots {
                let a = _mm256_loadu_ps(e.add(8 * o));
                let d = _mm256_loadu_ps(da.add(8 * o));
                let ds = _mm256_mul_ps(_mm256_mul_ps(a, _mm256_sub_ps(d, dot_sum)), scale);
                fma_channels_live(&mut acc, ds, ks, p, i0 + o);
                let col = o * p + i0 + b.half;
                _mm256_storeu_ps(at.add(col), _mm256_and_ps(a, query));
                _mm256_storeu_ps(dst.add(col), _mm256_and_ps(ds, query));
            }
            let n = (b.len - i0).min(8);
            store_rows(&acc, b.dh, gq.as_mut_ptr().add(ch), ldk, i0, n);
        }

        // Key pass, lanes over keys: key `j`'s queries `i = j − half + o`
        // in ascending order, reading query `i`'s slot `j − i + half`.
        // Queries outside `[0, len)` staged `a = ds = 0` and zero rows.
        for j0 in (0..st.len8).step_by(8) {
            let mut acc_v = [zero; D];
            let mut acc_k = [zero; D];
            for o in 0..slots {
                let col = (slots - 1 - o) * p + j0 + o;
                fma_channels(&mut acc_v, _mm256_loadu_ps(at.add(col)), gs, p, j0 + o);
                fma_channels_live(&mut acc_k, _mm256_loadu_ps(dst.add(col)), qs, p, j0 + o);
            }
            let n = (b.len - j0).min(8);
            store_rows(&acc_k, b.dh, gk.as_mut_ptr().add(ch), ldk, j0, n);
            store_rows(&acc_v, b.dv, gv.as_mut_ptr().add(cv), ldv, j0, n);
        }
    }
}

/// See [`super::libm_exp`]: [`expf8`] over a slice, the tail through a
/// zero-padded block.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn libm_exp(x: &[f32], out: &mut [f32]) {
    for (xs, ys) in x.chunks(8).zip(out.chunks_mut(8)) {
        let mut buf = [0.0f32; 8];
        buf[..xs.len()].copy_from_slice(xs);
        _mm256_storeu_ps(buf.as_mut_ptr(), expf8(_mm256_loadu_ps(buf.as_ptr())));
        ys.copy_from_slice(&buf[..ys.len()]);
    }
}
