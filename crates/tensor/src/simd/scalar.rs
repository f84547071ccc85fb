//! Portable scalar twins of the AVX2 kernels.
//!
//! These are the loops the crate ran before explicit SIMD existed; they
//! remain the fallback backend (and the reference the property tests
//! compare against). Keep the math here boring: plain `*`/`+` (no
//! `mul_add` — the scalar backend must not depend on whether the target
//! fuses), `f32::exp`/`f32::tanh` from `libm`.

use super::{BinOp, UnOp};

/// Pairwise sum (recursive halving, 32-element sequential base) — the
/// exact tree `crate::reduce::pairwise_sum` always used.
pub(super) fn sum(x: &[f32]) -> f32 {
    crate::reduce::pairwise_sum(x)
}

/// Pairwise dot, same tree as [`sum`].
pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::reduce::pairwise_dot(a, b)
}

/// `y[i] += a * x[i]`, plain multiply-then-add.
pub(super) fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
    for (o, &xv) in y.iter_mut().zip(x) {
        *o += a * xv;
    }
}

/// Strided `out += a @ b` with the i-k-j order of the historical scalar
/// gemm: for each `p`, every output row accumulates `a[i,p] * b[p,j]`.
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_block(
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
    for i in 0..m {
        let out_row = &mut out[i * ldo..i * ldo + n];
        for p in 0..k {
            let a_ip = a[i * lda + p * acs];
            let b_row = &b[p * ldb..p * ldb + n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * bv;
            }
        }
    }
}

pub(super) fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    let f = match op {
        BinOp::Add => |x: f32, y: f32| x + y,
        BinOp::Sub => |x: f32, y: f32| x - y,
        BinOp::Mul => |x: f32, y: f32| x * y,
        BinOp::Div => |x: f32, y: f32| x / y,
    };
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// The formulas must match the historical `Tensor` map closures exactly —
/// `LTTF_SIMD=0` reproduces the old bits.
pub(super) fn unary(op: UnOp, x: &[f32], out: &mut [f32]) {
    match op {
        UnOp::Exp => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = v.exp();
            }
        }
        UnOp::Sigmoid => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = 1.0 / (1.0 + (-v).exp());
            }
        }
        UnOp::Tanh => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = v.tanh();
            }
        }
        UnOp::Gelu => {
            let c = (2.0 / std::f32::consts::PI).sqrt();
            for (o, &v) in out.iter_mut().zip(x) {
                *o = 0.5 * v * (1.0 + (c * (v + 0.044_715 * v * v * v)).tanh());
            }
        }
    }
}

pub(super) fn gru_gates_row(
    gi: &[f32],
    gh: &[f32],
    h: &[f32],
    out: &mut [f32],
    mut stash: Option<(&mut [f32], &mut [f32], &mut [f32], &mut [f32])>,
) {
    let hs = h.len();
    let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
    for j in 0..hs {
        let r = sig(gi[j] + gh[j]);
        let z = sig(gi[hs + j] + gh[hs + j]);
        let ghn = gh[2 * hs + j];
        let n = (gi[2 * hs + j] + r * ghn).tanh();
        out[j] = (1.0 - z) * n + z * h[j];
        if let Some((sr, sz, sn, sghn)) = &mut stash {
            sr[j] = r;
            sz[j] = z;
            sn[j] = n;
            sghn[j] = ghn;
        }
    }
}

pub(super) fn gru_gates_row_backward(
    go: &[f32],
    h_prev: &[f32],
    [r, z, n, ghn]: [&[f32]; 4],
    dh: &mut [f32],
    dgi: &mut [f32],
    dgh: &mut [f32],
) {
    let hs = dh.len();
    for j in 0..hs {
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
    }
}
