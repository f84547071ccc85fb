//! Fused GRU layer kernels.
//!
//! A GRU layer unrolled op-by-op on the autograd tape costs ~20 tape nodes
//! per timestep; at the paper's sequence lengths the tape bookkeeping
//! dominates the arithmetic. These kernels run the whole layer as **one**
//! node: the forward issues a single `[b·len, in] @ [in, 3h]` gemm for the
//! input-side gates, then walks the sequence with one small hidden-side
//! gemm plus the fused gate row kernel ([`crate::simd::gru_gates_row`])
//! per step. The backward is hand-written backprop-through-time whose
//! weight/input gradients are again whole-sequence gemms.
//!
//! Layout follows the PyTorch convention used by `lttf-nn`'s `GruCell`:
//! weights are `[in, 3h]` / `[h, 3h]`, gate order `[r | z | n]`, and the
//! initial hidden state is zero.

use crate::matmul::{gemm, gemm_par, gemm_par_mat, Mat};
use crate::tensor::Tensor;

/// Gate activations recorded by [`gru_layer_forward`] for the backward
/// pass. All fields are `[batch, len, hidden]`.
pub struct GruStash {
    /// Reset gate `r = σ(gi_r + gh_r)`.
    pub r: Tensor,
    /// Update gate `z = σ(gi_z + gh_z)`.
    pub z: Tensor,
    /// Candidate state `n = tanh(gi_n + r ⊙ gh_n)`.
    pub n: Tensor,
    /// Hidden-side candidate pre-activation `gh_n` (needed for `dr`).
    pub ghn: Tensor,
}

/// Gradients of [`gru_layer_forward`] with respect to each input.
pub struct GruGrads {
    /// Gradient of the layer input, `[batch, len, in]`.
    pub dx: Tensor,
    /// Gradient of the input-hidden weight, `[in, 3h]`.
    pub dw_ih: Tensor,
    /// Gradient of the hidden-hidden weight, `[h, 3h]`.
    pub dw_hh: Tensor,
    /// Gradient of the input-hidden bias, `[3h]`.
    pub db_ih: Tensor,
    /// Gradient of the hidden-hidden bias, `[3h]`.
    pub db_hh: Tensor,
}

/// Row-major transpose of a `rows × cols` matrix.
fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
    out
}

/// Run one GRU layer over a sequence from a zero initial hidden state.
///
/// * `x`: input `[batch, len, in]`
/// * `w_ih`: `[in, 3h]`, `w_hh`: `[h, 3h]`, biases `[3h]` (gate order
///   `[r | z | n]`)
/// * `want_stash`: record gate activations for
///   [`gru_layer_backward`] (skip during inference)
///
/// Returns the per-step hidden states `[batch, len, hidden]` and, when
/// requested, the stash.
///
/// # Panics
/// Panics on rank or dimension mismatches between `x` and the weights.
pub fn gru_layer_forward(
    x: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b_ih: &Tensor,
    b_hh: &Tensor,
    want_stash: bool,
) -> (Tensor, Option<GruStash>) {
    assert_eq!(
        x.ndim(),
        3,
        "gru_layer input must be [batch, len, in], got {}",
        x.shape
    );
    let (b, len, input) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let hs = w_hh.shape()[0];
    let h3 = 3 * hs;
    assert_eq!(
        w_ih.shape(),
        &[input, h3],
        "gru_layer w_ih must be [in={input}, 3h={h3}], got {}",
        w_ih.shape
    );
    assert_eq!(
        w_hh.shape(),
        &[hs, h3],
        "gru_layer w_hh must be [h={hs}, 3h={h3}], got {}",
        w_hh.shape
    );
    assert_eq!(b_ih.shape(), &[h3], "gru_layer b_ih must be [3h={h3}]");
    assert_eq!(b_hh.shape(), &[h3], "gru_layer b_hh must be [3h={h3}]");
    let span = lttf_obs::span!(
        "gru_layer",
        b * len * (input + hs) * h3 >= crate::obs_min_work()
    );
    span.bytes((x.numel() + w_ih.numel() + w_hh.numel() + b * len * hs) * 4);

    // Input-side gates for every step at once: gi = x W_ih + b_ih.
    let mut gi_all = vec![0.0f32; b * len * h3];
    for row in gi_all.chunks_mut(h3) {
        row.copy_from_slice(b_ih.data());
    }
    gemm_par(x.data(), w_ih.data(), &mut gi_all, b * len, input, h3);

    let mut outputs = vec![0.0f32; b * len * hs];
    let mut stash = if want_stash {
        Some((
            vec![0.0f32; b * len * hs],
            vec![0.0f32; b * len * hs],
            vec![0.0f32; b * len * hs],
            vec![0.0f32; b * len * hs],
        ))
    } else {
        None
    };

    // Sequential scan: gh_t = h_{t-1} W_hh + b_hh, then the fused gate row.
    let mut h = vec![0.0f32; b * hs];
    let mut gh = vec![0.0f32; b * h3];
    for t in 0..len {
        for row in gh.chunks_mut(h3) {
            row.copy_from_slice(b_hh.data());
        }
        gemm(&h, w_hh.data(), &mut gh, b, hs, h3);
        for bi in 0..b {
            let o = (bi * len + t) * hs;
            let (out_row, h_row) = (o..o + hs, bi * hs..(bi + 1) * hs);
            let stash_rows = stash.as_mut().map(|(r, z, n, ghn)| {
                (
                    &mut r[o..o + hs],
                    &mut z[o..o + hs],
                    &mut n[o..o + hs],
                    &mut ghn[o..o + hs],
                )
            });
            crate::simd::gru_gates_row(
                &gi_all[(bi * len + t) * h3..(bi * len + t + 1) * h3],
                &gh[bi * h3..(bi + 1) * h3],
                &h[h_row.clone()],
                &mut outputs[out_row.clone()],
                stash_rows,
            );
            h[h_row].copy_from_slice(&outputs[out_row]);
        }
    }

    let out = Tensor::from_vec(outputs, &[b, len, hs]);
    let stash = stash.map(|(r, z, n, ghn)| GruStash {
        r: Tensor::from_vec(r, &[b, len, hs]),
        z: Tensor::from_vec(z, &[b, len, hs]),
        n: Tensor::from_vec(n, &[b, len, hs]),
        ghn: Tensor::from_vec(ghn, &[b, len, hs]),
    });
    (out, stash)
}

/// Backprop-through-time for [`gru_layer_forward`].
///
/// * `go`: gradient of the forward output, `[batch, len, hidden]`
/// * `x`, `w_ih`, `w_hh`: the forward operands
/// * `outputs`: the forward result (the per-step hidden states)
/// * `stash`: gate activations from the forward pass
///
/// The per-step gate backward is the lane-parallel row kernel
/// [`crate::simd::gru_gates_row_backward`]; everything matrix-shaped runs
/// as gemms on the same dispatched kernels as the forward. Each step's
/// hidden-side gate rows are staged time-major, so the step's recurrent
/// product is one `b`-row gemm, and `dx`, `dW_ih`, `dW_hh` read `W_ihᵀ`,
/// `xᵀ` and `h_prevᵀ` as transposed operands rather than transposed
/// copies. Every gradient keeps the bits of the row-at-a-time formulation:
/// a gemm gives each output element the same operations whatever its row
/// count, operand strides and neighbouring columns.
pub fn gru_layer_backward(
    go: &Tensor,
    x: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    outputs: &Tensor,
    stash: &GruStash,
) -> GruGrads {
    let (b, len, input) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let hs = w_hh.shape()[0];
    let h3 = 3 * hs;
    let span = lttf_obs::span!(
        "gru_layer_bwd",
        2 * b * len * (input + hs) * h3 >= crate::obs_min_work()
    );
    span.bytes((x.numel() + 2 * outputs.numel()) * 4);

    let (rs, zs, ns, ghns) = (stash.r.data(), stash.z.data(), stash.n.data(), stash.ghn.data());
    let (gd, out) = (go.data(), outputs.data());
    // Packed once: the recurrence reads it at every step.
    let whh_t = transpose(w_hh.data(), hs, h3);

    // Pre-activation gate gradients for every step, `[b, len, 3h]`. The
    // hidden-side row `dgh` differs from `dgi` only in its candidate slot
    // (`dn` reaches `gh_n` through the reset gate), so only that slot is
    // kept for `dW_hh`; the whole row is staged time-major, one step's `b`
    // rows at a time, for the step's recurrent product.
    let mut dgi_all = vec![0.0f32; b * len * h3];
    let mut dghn_all = vec![0.0f32; b * len * hs];
    let mut dgh_t = vec![0.0f32; b * h3];
    let mut dh = vec![0.0f32; b * hs]; // carry: ∂L/∂h_t flowing backwards
    let h0 = vec![0.0f32; hs];
    for t in (0..len).rev() {
        for (bi, dgh) in dgh_t.chunks_mut(h3).enumerate() {
            let o = (bi * len + t) * hs;
            let gbase = (bi * len + t) * h3;
            let h_prev = if t == 0 { &h0[..] } else { &out[o - hs..o] };
            crate::simd::gru_gates_row_backward(
                &gd[o..o + hs],
                h_prev,
                [
                    &rs[o..o + hs],
                    &zs[o..o + hs],
                    &ns[o..o + hs],
                    &ghns[o..o + hs],
                ],
                &mut dh[bi * hs..(bi + 1) * hs],
                &mut dgi_all[gbase..gbase + h3],
                dgh,
            );
            dghn_all[o..o + hs].copy_from_slice(&dgh[2 * hs..]);
        }
        // dh_{t-1} = z ⊙ dh_t + dgh_t W_hhᵀ over all b rows at once.
        gemm(&dgh_t, &whh_t, &mut dh, b, h3, hs);
    }

    // Whole-sequence weight/input gradients.
    let mut dx = vec![0.0f32; b * len * input];
    gemm_par_mat(
        Mat::rows(&dgi_all, h3),
        Mat::transposed(w_ih.data(), h3),
        &mut dx,
        b * len,
        h3,
        input,
    );

    let mut dw_ih = vec![0.0f32; input * h3];
    gemm_par_mat(
        Mat::transposed(x.data(), input),
        Mat::rows(&dgi_all, h3),
        &mut dw_ih,
        input,
        b * len,
        h3,
    );

    // h_prev rows: outputs shifted right one step within each sequence.
    let mut h_prev_all = vec![0.0f32; b * len * hs];
    for bi in 0..b {
        for t in 1..len {
            let src = (bi * len + t - 1) * hs;
            let dst = (bi * len + t) * hs;
            h_prev_all[dst..dst + hs].copy_from_slice(&out[src..src + hs]);
        }
    }
    // dW_hh in two column blocks, `[r | z]` from `dgi` and `[n]` from the
    // kept candidate slot: each output column sees the same operations it
    // would in one `3h`-wide product.
    let h_prev_t = Mat::transposed(&h_prev_all, hs);
    let mut dw_rz = vec![0.0f32; hs * 2 * hs];
    gemm_par_mat(
        h_prev_t,
        Mat::new(&dgi_all, h3, 1),
        &mut dw_rz,
        hs,
        b * len,
        2 * hs,
    );
    let mut dw_n = vec![0.0f32; hs * hs];
    gemm_par_mat(
        h_prev_t,
        Mat::rows(&dghn_all, hs),
        &mut dw_n,
        hs,
        b * len,
        hs,
    );
    let mut dw_hh = Vec::with_capacity(hs * h3);
    for (rz, n) in dw_rz.chunks(2 * hs).zip(dw_n.chunks(hs)) {
        dw_hh.extend_from_slice(rz);
        dw_hh.extend_from_slice(n);
    }

    // Column sums; the `[r | z]` slots of `db_hh` sum the same rows as
    // `db_ih`'s.
    let mut db_ih = vec![0.0f32; h3];
    for row in dgi_all.chunks(h3) {
        crate::simd::axpy(&mut db_ih, 1.0, row);
    }
    let mut db_hh = db_ih.clone();
    db_hh[2 * hs..].fill(0.0);
    for row in dghn_all.chunks(hs) {
        crate::simd::axpy(&mut db_hh[2 * hs..], 1.0, row);
    }

    GruGrads {
        dx: Tensor::from_vec(dx, &[b, len, input]),
        dw_ih: Tensor::from_vec(dw_ih, &[input, h3]),
        dw_hh: Tensor::from_vec(dw_hh, &[hs, h3]),
        db_ih: Tensor::from_vec(db_ih, &[h3]),
        db_hh: Tensor::from_vec(db_hh, &[h3]),
    }
}

/// [`gru_layer_backward`] as it was before the row kernel and the strided
/// gemms: a scalar gate loop, `b` one-row recurrent gemms per step, and
/// transposed copies. Kept so the property tests can pin the kernel to it
/// bit for bit on both backends.
#[cfg(test)]
pub(crate) fn reference_layer_backward(
    go: &Tensor,
    x: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    outputs: &Tensor,
    stash: &GruStash,
) -> GruGrads {
    let (b, len, input) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let hs = w_hh.shape()[0];
    let h3 = 3 * hs;
    let (rs, zs, ns, ghns) = (
        stash.r.data(),
        stash.z.data(),
        stash.n.data(),
        stash.ghn.data(),
    );
    let out = outputs.data();
    let whh_t = transpose(w_hh.data(), hs, h3);
    let mut dgi_all = vec![0.0f32; b * len * h3];
    let mut dgh_all = vec![0.0f32; b * len * h3];
    let mut dh = vec![0.0f32; b * hs];
    let mut dh_gate = vec![0.0f32; b * hs];
    for t in (0..len).rev() {
        for bi in 0..b {
            let o = (bi * len + t) * hs;
            let gbase = (bi * len + t) * h3;
            for j in 0..hs {
                let (r, z, n, ghn) = (rs[o + j], zs[o + j], ns[o + j], ghns[o + j]);
                let h_prev = if t == 0 { 0.0 } else { out[o - hs + j] };
                let dht = go.data()[o + j] + dh[bi * hs + j];
                let dz = (h_prev - n) * dht;
                let dn_pre = (1.0 - n * n) * (1.0 - z) * dht;
                let dr_pre = r * (1.0 - r) * (dn_pre * ghn);
                let dz_pre = z * (1.0 - z) * dz;
                dgi_all[gbase + j] = dr_pre;
                dgi_all[gbase + hs + j] = dz_pre;
                dgi_all[gbase + 2 * hs + j] = dn_pre;
                dgh_all[gbase + j] = dr_pre;
                dgh_all[gbase + hs + j] = dz_pre;
                dgh_all[gbase + 2 * hs + j] = dn_pre * r;
                dh_gate[bi * hs + j] = z * dht;
            }
        }
        dh.copy_from_slice(&dh_gate);
        for bi in 0..b {
            let gbase = (bi * len + t) * h3;
            gemm(
                &dgh_all[gbase..gbase + h3],
                &whh_t,
                &mut dh[bi * hs..(bi + 1) * hs],
                1,
                h3,
                hs,
            );
        }
    }
    let wih_t = transpose(w_ih.data(), input, h3);
    let mut dx = vec![0.0f32; b * len * input];
    gemm_par(&dgi_all, &wih_t, &mut dx, b * len, h3, input);
    let x_t = transpose(x.data(), b * len, input);
    let mut dw_ih = vec![0.0f32; input * h3];
    gemm_par(&x_t, &dgi_all, &mut dw_ih, input, b * len, h3);
    let mut h_prev_all = vec![0.0f32; b * len * hs];
    for bi in 0..b {
        for t in 1..len {
            let src = (bi * len + t - 1) * hs;
            let dst = (bi * len + t) * hs;
            h_prev_all[dst..dst + hs].copy_from_slice(&out[src..src + hs]);
        }
    }
    let h_prev_t = transpose(&h_prev_all, b * len, hs);
    let mut dw_hh = vec![0.0f32; hs * h3];
    gemm_par(&h_prev_t, &dgh_all, &mut dw_hh, hs, b * len, h3);
    let mut db_ih = vec![0.0f32; h3];
    for row in dgi_all.chunks(h3) {
        crate::simd::axpy(&mut db_ih, 1.0, row);
    }
    let mut db_hh = vec![0.0f32; h3];
    for row in dgh_all.chunks(h3) {
        crate::simd::axpy(&mut db_hh, 1.0, row);
    }
    GruGrads {
        dx: Tensor::from_vec(dx, &[b, len, input]),
        dw_ih: Tensor::from_vec(dw_ih, &[input, h3]),
        dw_hh: Tensor::from_vec(dw_hh, &[hs, h3]),
        db_ih: Tensor::from_vec(db_ih, &[h3]),
        db_hh: Tensor::from_vec(db_hh, &[h3]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, mul: usize, modu: usize, off: f32, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * mul % modu) as f32 - off) * scale)
            .collect()
    }

    struct Case {
        x: Tensor,
        w_ih: Tensor,
        w_hh: Tensor,
        b_ih: Tensor,
        b_hh: Tensor,
    }

    fn case(b: usize, len: usize, input: usize, hs: usize) -> Case {
        let h3 = 3 * hs;
        Case {
            x: Tensor::from_vec(fill(b * len * input, 37, 101, 50.0, 0.02), &[b, len, input]),
            w_ih: Tensor::from_vec(fill(input * h3, 53, 67, 33.0, 0.03), &[input, h3]),
            w_hh: Tensor::from_vec(fill(hs * h3, 41, 89, 44.0, 0.025), &[hs, h3]),
            b_ih: Tensor::from_vec(fill(h3, 29, 31, 15.0, 0.01), &[h3]),
            b_hh: Tensor::from_vec(fill(h3, 23, 37, 18.0, 0.01), &[h3]),
        }
    }

    /// Textbook per-step GRU in f32, mirroring `GruCell::step`'s formulas.
    fn reference_forward(c: &Case) -> Vec<f32> {
        let (b, len, input) = (c.x.shape()[0], c.x.shape()[1], c.x.shape()[2]);
        let hs = c.w_hh.shape()[0];
        let mut out = vec![0.0f32; b * len * hs];
        for bi in 0..b {
            let mut h = vec![0.0f32; hs];
            for t in 0..len {
                let xt = &c.x.data()[(bi * len + t) * input..(bi * len + t + 1) * input];
                let mut gi = c.b_ih.data().to_vec();
                let mut gh = c.b_hh.data().to_vec();
                for (p, &xv) in xt.iter().enumerate() {
                    for j in 0..3 * hs {
                        gi[j] += xv * c.w_ih.data()[p * 3 * hs + j];
                    }
                }
                for (p, &hv) in h.iter().enumerate() {
                    for j in 0..3 * hs {
                        gh[j] += hv * c.w_hh.data()[p * 3 * hs + j];
                    }
                }
                for j in 0..hs {
                    let r = 1.0 / (1.0 + (-(gi[j] + gh[j])).exp());
                    let z = 1.0 / (1.0 + (-(gi[hs + j] + gh[hs + j])).exp());
                    let n = (gi[2 * hs + j] + r * gh[2 * hs + j]).tanh();
                    let hn = (1.0 - z) * n + z * h[j];
                    out[(bi * len + t) * hs + j] = hn;
                    h[j] = hn;
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference() {
        let c = case(2, 5, 3, 4);
        let (got, stash) = gru_layer_forward(&c.x, &c.w_ih, &c.w_hh, &c.b_ih, &c.b_hh, false);
        assert!(stash.is_none());
        assert_eq!(got.shape(), &[2, 5, 4]);
        let want = reference_forward(&c);
        for (i, (&g, &w)) in got.data().iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() < 1e-5,
                "forward mismatch at {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn stash_bounds_are_sane() {
        let c = case(1, 4, 2, 3);
        let (_, stash) = gru_layer_forward(&c.x, &c.w_ih, &c.w_hh, &c.b_ih, &c.b_hh, true);
        let s = stash.expect("stash requested");
        for v in s.r.data().iter().chain(s.z.data()) {
            assert!((0.0..=1.0).contains(v), "gate out of range: {v}");
        }
        for v in s.n.data() {
            assert!((-1.0..=1.0).contains(v), "candidate out of range: {v}");
        }
    }

    /// Finite-difference check of every gradient the backward produces.
    #[test]
    fn backward_matches_finite_difference() {
        let c = case(2, 3, 3, 4);
        let (out, stash) = gru_layer_forward(&c.x, &c.w_ih, &c.w_hh, &c.b_ih, &c.b_hh, true);
        let go = out.ones_like();
        let g = gru_layer_backward(&go, &c.x, &c.w_ih, &c.w_hh, &out, &stash.unwrap());

        let loss = |c: &Case| -> f32 {
            gru_layer_forward(&c.x, &c.w_ih, &c.w_hh, &c.b_ih, &c.b_hh, false)
                .0
                .sum()
        };
        let eps = 1e-3;
        let check = |name: &str,
                     analytic: &Tensor,
                     read: &dyn Fn(&Case) -> &Tensor,
                     write: &dyn Fn(&mut Case) -> &mut Tensor| {
            for i in 0..analytic.numel() {
                let mut cp = case(2, 3, 3, 4);
                write(&mut cp).data_mut()[i] = read(&c).data()[i] + eps;
                let up = loss(&cp);
                write(&mut cp).data_mut()[i] = read(&c).data()[i] - eps;
                let dn = loss(&cp);
                let num = (up - dn) / (2.0 * eps);
                let ana = analytic.data()[i];
                assert!(
                    (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                    "{name} grad mismatch at {i}: numeric {num} vs analytic {ana}"
                );
            }
        };
        check("x", &g.dx, &|c| &c.x, &|c| &mut c.x);
        check("w_ih", &g.dw_ih, &|c| &c.w_ih, &|c| &mut c.w_ih);
        check("w_hh", &g.dw_hh, &|c| &c.w_hh, &|c| &mut c.w_hh);
        check("b_ih", &g.db_ih, &|c| &c.b_ih, &|c| &mut c.b_ih);
        check("b_hh", &g.db_hh, &|c| &c.b_hh, &|c| &mut c.b_hh);
    }

    #[test]
    fn zero_length_sequence() {
        let c = case(2, 1, 3, 4);
        let x0 = Tensor::zeros(&[2, 0, 3]);
        let (out, _) = gru_layer_forward(&x0, &c.w_ih, &c.w_hh, &c.b_ih, &c.b_hh, false);
        assert_eq!(out.shape(), &[2, 0, 4]);
    }
}
