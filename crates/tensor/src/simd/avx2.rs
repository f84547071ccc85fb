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

use super::{BinOp, UnOp};
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

/// Lane-wise binary arithmetic; same IEEE ops as the scalar backend, so
/// the results are bit-identical — only the stride differs.
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

/// See [`super::gru_gates_row`]. Lanes shorter than one vector are staged
/// through zero-padded buffers so every gate goes through the same
/// pipeline.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gru_gates_row(
    gi: &[f32],
    gh: &[f32],
    h: &[f32],
    out: &mut [f32],
    mut stash: Option<(&mut [f32], &mut [f32], &mut [f32], &mut [f32])>,
) {
    let hs = h.len();
    let (pgi, pgh, ph) = (gi.as_ptr(), gh.as_ptr(), h.as_ptr());
    let po = out.as_mut_ptr();
    let mut j = 0;
    while j + 8 <= hs {
        let r = sigmoid8(_mm256_add_ps(
            _mm256_loadu_ps(pgi.add(j)),
            _mm256_loadu_ps(pgh.add(j)),
        ));
        let z = sigmoid8(_mm256_add_ps(
            _mm256_loadu_ps(pgi.add(hs + j)),
            _mm256_loadu_ps(pgh.add(hs + j)),
        ));
        let ghn = _mm256_loadu_ps(pgh.add(2 * hs + j));
        let n = tanh8(_mm256_fmadd_ps(r, ghn, _mm256_loadu_ps(pgi.add(2 * hs + j))));
        let hv = _mm256_loadu_ps(ph.add(j));
        // h' = n + z*(h - n)
        let hp = _mm256_fmadd_ps(z, _mm256_sub_ps(hv, n), n);
        _mm256_storeu_ps(po.add(j), hp);
        if let Some((sr, sz, sn, sghn)) = &mut stash {
            _mm256_storeu_ps(sr.as_mut_ptr().add(j), r);
            _mm256_storeu_ps(sz.as_mut_ptr().add(j), z);
            _mm256_storeu_ps(sn.as_mut_ptr().add(j), n);
            _mm256_storeu_ps(sghn.as_mut_ptr().add(j), ghn);
        }
        j += 8;
    }
    if j < hs {
        let t = hs - j;
        let mut bgi = [[0.0f32; 8]; 3];
        let mut bgh = [[0.0f32; 8]; 3];
        let mut bh = [0.0f32; 8];
        for g in 0..3 {
            bgi[g][..t].copy_from_slice(&gi[g * hs + j..g * hs + hs]);
            bgh[g][..t].copy_from_slice(&gh[g * hs + j..g * hs + hs]);
        }
        bh[..t].copy_from_slice(&h[j..]);
        let r = sigmoid8(_mm256_add_ps(
            _mm256_loadu_ps(bgi[0].as_ptr()),
            _mm256_loadu_ps(bgh[0].as_ptr()),
        ));
        let z = sigmoid8(_mm256_add_ps(
            _mm256_loadu_ps(bgi[1].as_ptr()),
            _mm256_loadu_ps(bgh[1].as_ptr()),
        ));
        let ghn = _mm256_loadu_ps(bgh[2].as_ptr());
        let n = tanh8(_mm256_fmadd_ps(r, ghn, _mm256_loadu_ps(bgi[2].as_ptr())));
        let hv = _mm256_loadu_ps(bh.as_ptr());
        let hp = _mm256_fmadd_ps(z, _mm256_sub_ps(hv, n), n);
        let mut bout = [0.0f32; 8];
        _mm256_storeu_ps(bout.as_mut_ptr(), hp);
        out[j..].copy_from_slice(&bout[..t]);
        if let Some((sr, sz, sn, sghn)) = &mut stash {
            let mut tmp = [0.0f32; 8];
            _mm256_storeu_ps(tmp.as_mut_ptr(), r);
            sr[j..].copy_from_slice(&tmp[..t]);
            _mm256_storeu_ps(tmp.as_mut_ptr(), z);
            sz[j..].copy_from_slice(&tmp[..t]);
            _mm256_storeu_ps(tmp.as_mut_ptr(), n);
            sn[j..].copy_from_slice(&tmp[..t]);
            _mm256_storeu_ps(tmp.as_mut_ptr(), ghn);
            sghn[j..].copy_from_slice(&tmp[..t]);
        }
    }
}

/// See [`super::gru_gates_row_backward`]. Mul/add/sub only — no FMA
/// contraction — so every lane matches the scalar backend; the tail runs
/// the same formulas one lane at a time.
///
/// # Safety
/// The CPU must support AVX2 and FMA, `go`, `h_prev`, the gate rows and
/// `dh` must have one length `h`, and `dgi`/`dgh` length `3h`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gru_gates_row_backward(
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
