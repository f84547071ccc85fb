//! Fused GRU layer kernels.
//!
//! A GRU layer unrolled op-by-op on the autograd tape costs ~20 tape nodes
//! per timestep; at the paper's sequence lengths the tape bookkeeping
//! dominates the arithmetic. These kernels run the whole layer as **one**
//! node: the forward walks the sequence time-major, each step one small
//! gemm per gate side for all `b` rows plus one call of the fused gate
//! kernel ([`crate::simd::gru_gates_rows`]). The backward is hand-written
//! backprop-through-time with the same per-step shape, and whole-sequence
//! gemms for the weight gradients.
//!
//! Layout follows the PyTorch convention used by `lttf-nn`'s `GruCell`:
//! weights are `[in, 3h]` / `[h, 3h]`, gate order `[r | z | n]`, and the
//! initial hidden state is zero.

#[cfg(test)]
use crate::matmul::gemm_par;
use crate::matmul::{gemm, gemm_mat, gemm_par_mat, Mat};
use crate::simd::prefetch_rows;
use crate::tensor::Tensor;

/// Gate activations recorded by [`gru_layer_forward`] for the backward
/// pass. All fields are time-major, `[len, batch, hidden]`: one step's
/// `batch` rows are contiguous, so each step of the scan writes, and each
/// step of the backward reads, one block.
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

/// `acc[j] += row[j]`.
fn add_into(acc: &mut [f32], row: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += v;
    }
}

/// `b` rows of `bias` repeated, `[b, bias.len()]`, into `buf`.
fn fill_bias(buf: &mut [f32], bias: &[f32]) {
    for row in buf.chunks_exact_mut(bias.len()) {
        row.copy_from_slice(bias);
    }
}

/// Steps the scan walks: none for an empty batch, whose operands have
/// no step's rows to slice.
fn steps(b: usize, len: usize) -> usize {
    if b == 0 {
        0
    } else {
        len
    }
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
/// requested, the time-major stash.
///
/// Each step computes `gi_t = b_ih + x_t W_ih` over the step's `b` rows,
/// read from `x` at a row stride of `len·in`, then `gh = b_hh + h W_hh`,
/// then the gate rows. A gemm gives each output element the same
/// operations whatever its row count and strides, so this has the bits of
/// one `[b·len, in] @ [in, 3h]` product for every step at once.
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

    let mut outputs = vec![0.0f32; b * len * hs];
    let mut stash: Option<[Vec<f32>; 4]> =
        want_stash.then(|| std::array::from_fn(|_| vec![0.0f32; len * b * hs]));
    let mut h = vec![0.0f32; b * hs];
    let mut gi = vec![0.0f32; b * h3];
    let mut gh = vec![0.0f32; b * h3];
    for t in 0..steps(b, len) {
        fill_bias(&mut gi, b_ih.data());
        let x_t = Mat::new(&x.data()[t * input..], len * input, 1);
        gemm_mat(x_t, Mat::rows(w_ih.data(), h3), (&mut gi, h3), b, input, h3);
        fill_bias(&mut gh, b_hh.data());
        gemm(&h, w_hh.data(), &mut gh, b, hs, h3);
        let step = t * b * hs..(t + 1) * b * hs;
        crate::simd::gru_gates_rows(
            hs,
            &mut gi,
            &gh,
            &mut h,
            (&mut outputs[t * hs..], len * hs),
            stash
                .as_mut()
                .map(|s| s.each_mut().map(|g| &mut g[step.clone()])),
        );
    }

    let out = Tensor::from_vec(outputs, &[b, len, hs]);
    let stash = stash.map(|[r, z, n, ghn]| GruStash {
        r: Tensor::from_vec(r, &[len, b, hs]),
        z: Tensor::from_vec(z, &[len, b, hs]),
        n: Tensor::from_vec(n, &[len, b, hs]),
        ghn: Tensor::from_vec(ghn, &[len, b, hs]),
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
/// Each step, `t` descending, runs the gate backward for all `b` rows in
/// one [`crate::simd::gru_gates_rows_backward`] call, writing the step's
/// rows of the batch-major `dgi` and `dgh_n` at their row strides; then
/// the recurrent product `dgh_t W_hhᵀ` and the step's `dx` rows,
/// `dgi_t W_ihᵀ`, each one `b`-row gemm reading and writing strided rows.
/// The weight gradients and bias sums then run over all `b·len` rows as
/// whole-sequence products. Every gradient keeps the bits of the
/// row-at-a-time formulation: a gemm gives each output element the same
/// operations whatever its row count, operand strides and neighbouring
/// columns.
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

    let gates = [&stash.r, &stash.z, &stash.n, &stash.ghn].map(Tensor::data);
    let (gd, out) = (go.data(), outputs.data());
    // Packed once: every step reads them.
    let whh_t = transpose(w_hh.data(), hs, h3);
    let wih_t = transpose(w_ih.data(), input, h3);

    // Pre-activation gate gradients for every step, batch-major `[b, len,
    // 3h]`: each step writes its `b` rows at a row stride of `len·3h`. The
    // hidden-side row `dgh` differs from `dgi` only in its candidate slot
    // (`dn` reaches `gh_n` through the reset gate), so only that slot is
    // kept for `dW_hh`; the step's whole rows are staged for its
    // recurrent product.
    let mut dgi_all = vec![0.0f32; b * len * h3];
    let mut dghn_all = vec![0.0f32; b * len * hs];
    let mut dgh_t = vec![0.0f32; b * h3];
    let mut dh = vec![0.0f32; b * hs]; // carry: ∂L/∂h_t flowing backwards
    let mut dx = vec![0.0f32; b * len * input];
    let h0 = vec![0.0f32; hs];
    for t in (0..steps(b, len)).rev() {
        // The next step's operands, cold since the forward wrote them.
        if t > 0 {
            let prev = (t - 1) * b * hs..t * b * hs;
            for g in gates {
                prefetch_rows(&g[prev.clone()], 0, 1, b * hs);
            }
            prefetch_rows(&gd[(t - 1) * hs..], len * hs, b, hs);
            if t > 1 {
                prefetch_rows(&out[(t - 2) * hs..], len * hs, b, hs);
            }
        }
        let step = t * b * hs..(t + 1) * b * hs;
        let h_prev = if t == 0 {
            (&h0[..], 0)
        } else {
            (&out[(t - 1) * hs..], len * hs)
        };
        crate::simd::gru_gates_rows_backward(
            hs,
            (&gd[t * hs..], len * hs),
            h_prev,
            gates.map(|g| &g[step.clone()]),
            &mut dh,
            (&mut dgi_all[t * h3..], len * h3),
            &mut dgh_t,
        );
        for (n, dgh) in dghn_all[t * hs..]
            .chunks_mut(len * hs)
            .zip(dgh_t.chunks_exact(h3))
        {
            n[..hs].copy_from_slice(&dgh[2 * hs..]);
        }
        // dh_{t-1} = z ⊙ dh_t + dgh_t W_hhᵀ over all b rows at once.
        gemm(&dgh_t, &whh_t, &mut dh, b, h3, hs);
        gemm_mat(
            Mat::new(&dgi_all[t * h3..], len * h3, 1),
            Mat::rows(&wih_t, input),
            (&mut dx[t * input..], len * input),
            b,
            h3,
            input,
        );
    }

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

    // Column sums, one plain add per element and row (what `axpy` with
    // `a = 1` computes on either backend); the `[r | z]` slots of `db_hh`
    // sum the same rows as `db_ih`'s.
    let mut db_ih = vec![0.0f32; h3];
    let mut db_hh = vec![0.0f32; h3];
    for (gi, n) in dgi_all.chunks_exact(h3).zip(dghn_all.chunks_exact(hs)) {
        add_into(&mut db_ih, gi);
        add_into(&mut db_hh[2 * hs..], n);
    }
    db_hh[..2 * hs].copy_from_slice(&db_ih[..2 * hs]);

    GruGrads {
        dx: Tensor::from_vec(dx, &[b, len, input]),
        dw_ih: Tensor::from_vec(dw_ih, &[input, h3]),
        dw_hh: Tensor::from_vec(dw_hh, &[hs, h3]),
        db_ih: Tensor::from_vec(db_ih, &[h3]),
        db_hh: Tensor::from_vec(db_hh, &[h3]),
    }
}

/// [`gru_layer_forward`] as it was before the time-major scan: one
/// `[b·len, in] @ [in, 3h]` gemm for every input-side gate row, then per
/// step and batch row a one-row gate call, with the stash batch-major,
/// `[batch, len, hidden]`. Kept so the property tests can pin the scan to
/// it bit for bit on both backends.
#[cfg(test)]
pub(crate) fn reference_layer_forward(
    x: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b_ih: &Tensor,
    b_hh: &Tensor,
) -> (Tensor, GruStash) {
    let (b, len, input) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let hs = w_hh.shape()[0];
    let h3 = 3 * hs;
    let mut gi_all = vec![0.0f32; b * len * h3];
    fill_bias(&mut gi_all, b_ih.data());
    gemm_par(x.data(), w_ih.data(), &mut gi_all, b * len, input, h3);
    let mut outputs = vec![0.0f32; b * len * hs];
    let mut stash: [Vec<f32>; 4] = std::array::from_fn(|_| vec![0.0f32; b * len * hs]);
    let mut h = vec![0.0f32; b * hs];
    let mut gh = vec![0.0f32; b * h3];
    for t in 0..len {
        fill_bias(&mut gh, b_hh.data());
        gemm(&h, w_hh.data(), &mut gh, b, hs, h3);
        for bi in 0..b {
            let o = (bi * len + t) * hs;
            crate::simd::gru_gates_rows(
                hs,
                &mut gi_all[(bi * len + t) * h3..(bi * len + t + 1) * h3],
                &gh[bi * h3..(bi + 1) * h3],
                &mut h[bi * hs..(bi + 1) * hs],
                (&mut outputs[o..o + hs], 0),
                Some(stash.each_mut().map(|g| &mut g[o..o + hs])),
            );
        }
    }
    let [r, z, n, ghn] = stash.map(|g| Tensor::from_vec(g, &[b, len, hs]));
    (
        Tensor::from_vec(outputs, &[b, len, hs]),
        GruStash { r, z, n, ghn },
    )
}

/// [`gru_layer_backward`] as it was before the row kernel and the strided
/// gemms: a scalar gate loop, `b` one-row recurrent gemms per step, and
/// transposed copies, reading a batch-major stash (as
/// [`reference_layer_forward`] records it). Kept so the property tests
/// can pin the kernel to it bit for bit on both backends.
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
