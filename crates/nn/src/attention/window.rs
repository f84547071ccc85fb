//! The paper's sliding-window attention (Section IV-B), implemented as a
//! fused banded kernel with a hand-written backward pass.
//!
//! Each query position attends only to the keys inside a window of width
//! `w` around its (length-aligned) centre, so both time and memory are
//! O(L·w) — this is the op that Fig. 5 benchmarks against the O(L²) and
//! O(L log L) alternatives.
//!
//! Two kernels compute it, with the same bits. Self-attention without
//! global tokens, on the AVX2 backend with heads narrower than 8 floats
//! (every Conformer call), runs eight queries to a register
//! (`simd::band_attention_forward`/`_backward`). Everything else runs the
//! per-query planes here, one query's keys at a time through the
//! dispatched `simd::dot` and `simd::axpy`.

use lttf_autograd::Var;
use lttf_parallel::{par_chunks_mut, par_chunks_mut_zip3};
use lttf_tensor::simd::{self, Band};
use lttf_tensor::Tensor;
use std::ops::Range;

/// Minimum per-call score-evaluation count before the batched-head loops
/// are dispatched to the worker pool.
const PAR_MIN_WORK: usize = 32 * 1024;

/// Minimum score-matrix work (`bh·lq·(w+n_global+1)·dh`) before the
/// telemetry span is opened; lower than `lttf_tensor::OBS_MIN_WORK`
/// because the attention kernel is called once per layer per batch, never
/// in a tight loop.
const OBS_MIN_ATTN: usize = 2048;

/// Window bounds for query `i`: `[lo, hi)` over key positions.
///
/// For self-attention (`lq == lk`) the centre is `i`; for cross-attention
/// the centre is rescaled to `i·lk/lq`. The window covers `w/2` keys on
/// each side of the centre, inclusive of the centre itself.
fn window_bounds(i: usize, lq: usize, lk: usize, w: usize) -> (usize, usize) {
    let center = if lq == lk { i } else { i * lk / lq };
    let half = w / 2;
    let lo = center.saturating_sub(half);
    let hi = (center + half + 1).min(lk);
    (lo, hi)
}

/// The keys query `i` attends to, as two ranges walked in order: the
/// Longformer-style global prefix `[0, n_global)` (when `n_global > 0`),
/// then the `[lo, hi)` band past it. Global queries (`i < n_global`)
/// attend to every key.
fn key_ranges(
    i: usize,
    lq: usize,
    lk: usize,
    w: usize,
    n_global: usize,
) -> (Range<usize>, Range<usize>) {
    let g = n_global.min(lk);
    if i < g {
        return (0..lk, 0..0);
    }
    let (lo, hi) = window_bounds(i, lq, lk, w);
    (0..g, lo.max(g)..hi)
}

/// Work floats a call takes from the stack (the canonical lane backward
/// needs about 1300); larger calls allocate.
const STACK_WORK: usize = 2048;

/// Run `f` on `n` zeroed work floats.
fn with_work<R>(n: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut stack = [0.0f32; STACK_WORK];
    if n <= STACK_WORK {
        f(&mut stack[..n])
    } else {
        f(&mut vec![0.0; n])
    }
}

/// Operands and geometry shared by every batch-head plane of one call.
///
/// `q` is `[b, lq, heads·dh]`, `k` is `[b, lk, heads·dh]` and `v` is `[b,
/// lk, heads·dv]`: head `h` of a row is the `dh` (or `dv`) contiguous
/// floats from `h·dh`, read in place at row stride `heads·dh`. One head
/// over head-folded `[b·heads, l, dh]` tensors is the same layout with
/// `heads = 1`.
struct Planes<'a> {
    q: &'a [f32],
    k: &'a [f32],
    v: &'a [f32],
    lq: usize,
    lk: usize,
    dh: usize,
    dv: usize,
    /// Row widths over all heads: `heads·dh` for q/k, `heads·dv` for v.
    dqt: usize,
    dvt: usize,
    heads: usize,
    w: usize,
    n_global: usize,
    scale: f32,
    /// The lane kernels' geometry, when this call runs them: self-attention
    /// without global tokens, on the AVX2 backend, with heads narrower
    /// than one vector (every Conformer call). Anything else takes the
    /// per-query planes.
    band: Option<Band>,
}

impl<'a> Planes<'a> {
    fn new(
        q: &'a Tensor,
        k: &'a Tensor,
        v: &'a Tensor,
        heads: usize,
        w: usize,
        n_global: usize,
    ) -> Self {
        let (lq, dqt) = (q.shape()[1], q.shape()[2]);
        let (lk, dvt) = (k.shape()[1], v.shape()[2]);
        assert!(
            heads >= 1 && dqt.is_multiple_of(heads) && dvt.is_multiple_of(heads),
            "{heads} heads must divide the q/k width {dqt} and the v width {dvt}"
        );
        let (dh, dv) = (dqt / heads, dvt / heads);
        let scale = 1.0 / (dh as f32).sqrt();
        // A reach past the sequence only adds masked keys.
        let band = Band {
            len: lq,
            half: (w / 2).min(lq),
            heads,
            dh,
            dv,
            scale,
        };
        Planes {
            q: q.data(),
            k: k.data(),
            v: v.data(),
            lq,
            lk,
            dh,
            dv,
            dqt,
            dvt,
            heads,
            w,
            n_global,
            scale,
            band: (lq == lk && n_global == 0 && band.lanes()).then_some(band),
        }
    }

    fn q_row(&self, b: usize, h: usize, i: usize) -> &[f32] {
        let at = (b * self.lq + i) * self.dqt + h * self.dh;
        &self.q[at..at + self.dh]
    }

    fn k_row(&self, b: usize, h: usize, j: usize) -> &[f32] {
        let at = (b * self.lk + j) * self.dqt + h * self.dh;
        &self.k[at..at + self.dh]
    }

    fn v_row(&self, b: usize, h: usize, j: usize) -> &[f32] {
        let at = (b * self.lk + j) * self.dvt + h * self.dv;
        &self.v[at..at + self.dv]
    }

    /// Work floats [`Planes::forward`] needs: the lane kernel's, or one
    /// score per key (a query has at most `lk`).
    fn forward_work(&self) -> usize {
        self.band.map_or(self.lk, |band| band.forward_work())
    }

    /// Work floats [`Planes::backward`] needs: the lane kernel's, or a
    /// weight and its gradient per key.
    fn backward_work(&self) -> usize {
        self.band.map_or(2 * self.lk, |band| band.backward_work())
    }

    /// Forward of batch `b`, every head, into its output plane `[lq,
    /// heads·dv]`; `work` holds [`Planes::forward_work`] floats.
    fn forward(&self, b: usize, oplane: &mut [f32], work: &mut [f32]) {
        if let Some(band) = &self.band {
            let (q, k) = (b * self.lq * self.dqt, b * self.lk * self.dqt);
            let v = b * self.lk * self.dvt;
            simd::band_attention_forward(
                band,
                &self.q[q..],
                &self.k[k..],
                &self.v[v..],
                work,
                oplane,
            );
            return;
        }
        for h in 0..self.heads {
            for i in 0..self.lq {
                let (global, band) = key_ranges(i, self.lq, self.lk, self.w, self.n_global);
                let keys = || global.clone().chain(band.clone());
                let qrow = self.q_row(b, h, i);
                let scores = &mut work[..global.len() + band.len()];
                let mut max = f32::NEG_INFINITY;
                for (s, j) in scores.iter_mut().zip(keys()) {
                    *s = simd::dot(qrow, self.k_row(b, h, j)) * self.scale;
                    max = max.max(*s);
                }
                let mut z = 0.0;
                for s in scores.iter_mut() {
                    *s = (*s - max).exp();
                    z += *s;
                }
                let inv_z = 1.0 / z;
                let at = i * self.dvt + h * self.dv;
                let orow = &mut oplane[at..at + self.dv];
                for (&s, j) in scores.iter().zip(keys()) {
                    simd::axpy(orow, s * inv_z, self.v_row(b, h, j));
                }
            }
        }
    }

    /// Backward of batch `b`, every head, into its gradient planes (`gq`
    /// `[lq, heads·dh]`, `gk` `[lk, heads·dh]`, `gv` `[lk, heads·dv]`);
    /// `gout` is the whole output gradient, and `work` holds
    /// [`Planes::backward_work`] floats.
    fn backward(
        &self,
        b: usize,
        gout: &[f32],
        (gq, gk, gv): (&mut [f32], &mut [f32], &mut [f32]),
        work: &mut [f32],
    ) {
        let (dh, dv, dqt, dvt) = (self.dh, self.dv, self.dqt, self.dvt);
        if let Some(band) = &self.band {
            let (q, k) = (b * self.lq * dqt, b * self.lk * dqt);
            let (v, g) = (b * self.lk * dvt, b * self.lq * dvt);
            simd::band_attention_backward(
                band,
                &self.q[q..],
                &self.k[k..],
                &self.v[v..],
                &gout[g..],
                work,
                gq,
                gk,
                gv,
            );
            return;
        }
        let (attn, dattn) = work.split_at_mut(self.lk);
        for h in 0..self.heads {
            let (qh, vh) = (h * dh, h * dv);
            for i in 0..self.lq {
                let (global, band) = key_ranges(i, self.lq, self.lk, self.w, self.n_global);
                let keys = || global.clone().chain(band.clone());
                let n = global.len() + band.len();
                let (attn, dattn) = (&mut attn[..n], &mut dattn[..n]);
                let qrow = self.q_row(b, h, i);
                let at = (b * self.lq + i) * dvt + vh;
                let grow = &gout[at..at + dv];
                // recompute softmax weights
                let mut max = f32::NEG_INFINITY;
                for (a, j) in attn.iter_mut().zip(keys()) {
                    *a = simd::dot(qrow, self.k_row(b, h, j)) * self.scale;
                    max = max.max(*a);
                }
                let mut z = 0.0;
                for a in attn.iter_mut() {
                    *a = (*a - max).exp();
                    z += *a;
                }
                for a in attn.iter_mut() {
                    *a /= z;
                }
                // dV and dA
                let mut dot_sum = 0.0;
                for ((&a, da), j) in attn.iter().zip(dattn.iter_mut()).zip(keys()) {
                    *da = simd::dot(grow, self.v_row(b, h, j));
                    dot_sum += a * *da;
                    simd::axpy(&mut gv[j * dvt + vh..j * dvt + vh + dv], a, grow);
                }
                // softmax backward → dscores, then dQ/dK
                let gqrow = &mut gq[i * dqt + qh..i * dqt + qh + dh];
                for ((&a, &da), j) in attn.iter().zip(dattn.iter()).zip(keys()) {
                    let ds = a * (da - dot_sum) * self.scale;
                    if ds == 0.0 {
                        continue;
                    }
                    simd::axpy(gqrow, ds, self.k_row(b, h, j));
                    simd::axpy(&mut gk[j * dqt + qh..j * dqt + qh + dh], ds, qrow);
                }
            }
        }
    }
}

/// Compute softmax attention restricted to a width-`w` band, one head
/// over head-folded tensors.
///
/// * `q`: `[bh, lq, dh]`, `k`/`v`: `[bh, lk, dh]` → output `[bh, lq, dh]`.
///
/// # Panics
/// Panics on rank/shape mismatches or `w == 0`.
pub fn sliding_window_attention<'g>(q: Var<'g>, k: Var<'g>, v: Var<'g>, w: usize) -> Var<'g> {
    sliding_window_global_attention(q, k, v, 1, w, 0)
}

/// Multi-head sliding-window attention with `n_global` Longformer-style
/// global tokens: the first `n_global` positions attend to (and are
/// attended by) every position, on top of the local band. Complexity
/// O(L·(w + n_global)).
///
/// `q` is `[b, lq, heads·dh]`, `k` `[b, lk, heads·dh]` and `v` `[b, lk,
/// heads·dv]`, the projections' own layout: each head reads its `dh`
/// columns in place, and the output `[b, lq, heads·dv]` and the q/k/v
/// gradients are written the same way, so no head split or merge copies
/// anything. `heads = 1` is plain attention over head-folded tensors.
///
/// # Panics
/// Panics on rank/shape mismatches, `w == 0`, or `heads` not dividing the
/// widths.
pub fn sliding_window_global_attention<'g>(
    q: Var<'g>,
    k: Var<'g>,
    v: Var<'g>,
    heads: usize,
    w: usize,
    n_global: usize,
) -> Var<'g> {
    assert!(w >= 1, "window size must be >= 1");
    let g = q.graph();
    let out = g.with_values([q, k, v], |[q, k, v]| {
        window_global_forward(q, k, v, heads, w, n_global)
    });
    g.custom_named("window_attn", out, &[q, k, v], move |ctx| {
        let (qv, kv, vv) = (ctx.inputs[0], ctx.inputs[1], ctx.inputs[2]);
        window_global_backward(qv, kv, vv, &ctx.grad, heads, w, n_global)
    })
}

/// Non-autograd forward, one head over head-folded tensors (exposed for
/// the Fig. 5 efficiency benchmark).
pub fn window_forward(q: &Tensor, k: &Tensor, v: &Tensor, w: usize) -> Tensor {
    window_global_forward(q, k, v, 1, w, 0)
}

/// Non-autograd forward with `heads` heads read in place and global
/// tokens; shapes as in [`sliding_window_global_attention`].
pub fn window_global_forward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    w: usize,
    n_global: usize,
) -> Tensor {
    let (b, lq, dqt) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let lk = k.shape()[1];
    assert_eq!(k.shape()[0], b, "batch mismatch between q and k");
    assert_eq!(v.shape()[1], lk, "k/v length mismatch");
    assert_eq!(k.shape()[2], dqt, "q/k feature mismatch");
    let dvt = v.shape()[2];
    // One score per (query, key) per head, each a dh-wide dot.
    let work = b * lq * (w + n_global + 1) * dqt;
    let span = lttf_obs::span!("window_attn_fwd", work >= OBS_MIN_ATTN);
    span.bytes((q.numel() + k.numel() + v.numel() + b * lq * dvt) * 4);
    let planes = Planes::new(q, k, v, heads, w, n_global);
    let work_len = planes.forward_work();
    let mut out = vec![0.0f32; b * lq * dvt];
    // Each batch writes its own output plane, so the batches distribute
    // over the worker pool with bit-identical results at any thread count.
    if b >= 2 && work >= PAR_MIN_WORK && lttf_parallel::num_threads() > 1 && lq * dvt > 0 {
        par_chunks_mut(&mut out, lq * dvt, |bi, oplane| {
            with_work(work_len, |wk| planes.forward(bi, oplane, wk))
        });
    } else {
        with_work(work_len, |wk| {
            for (bi, oplane) in out.chunks_mut((lq * dvt).max(1)).enumerate() {
                planes.forward(bi, oplane, wk);
            }
        });
    }
    Tensor::from_vec(out, &[b, lq, dvt])
}

/// Hand-written backward: recomputes the banded softmax and applies the
/// standard attention gradients within each query's key set. Returns
/// `[dQ, dK, dV]`, shaped like `q`, `k` and `v`. Exposed (like
/// [`window_global_forward`]) for benches and the determinism suite.
pub fn window_global_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    gout: &Tensor,
    heads: usize,
    w: usize,
    n_global: usize,
) -> Vec<Tensor> {
    let (b, lq, dqt) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let lk = k.shape()[1];
    let dvt = v.shape()[2];
    let work = b * lq * (w + n_global + 1) * dqt;
    let span = lttf_obs::span!("window_attn_bwd", work >= OBS_MIN_ATTN);
    // Reads q, k, v and the output gradient, writes a gradient per input.
    span.bytes((2 * (q.numel() + k.numel() + v.numel()) + gout.numel()) * 4);
    let planes = Planes::new(q, k, v, heads, w, n_global);
    let work_len = planes.backward_work();
    let gd = gout.data();
    let mut gq = vec![0.0f32; b * lq * dqt];
    let mut gk = vec![0.0f32; b * lk * dqt];
    let mut gv = vec![0.0f32; b * lk * dvt];
    // Each batch scatters only into its own gq/gk/gv planes, so the three
    // gradient buffers are sliced in lockstep across the pool.
    if b >= 2
        && work >= PAR_MIN_WORK
        && lttf_parallel::num_threads() > 1
        && lq * dqt > 0
        && lk * dqt > 0
        && lk * dvt > 0
    {
        par_chunks_mut_zip3(
            &mut gq,
            lq * dqt,
            &mut gk,
            lk * dqt,
            &mut gv,
            lk * dvt,
            |bi, gq_p, gk_p, gv_p| {
                with_work(work_len, |wk| planes.backward(bi, gd, (gq_p, gk_p, gv_p), wk))
            },
        );
    } else {
        with_work(work_len, |wk| {
            for bi in 0..b {
                let grads = (
                    &mut gq[bi * lq * dqt..(bi + 1) * lq * dqt],
                    &mut gk[bi * lk * dqt..(bi + 1) * lk * dqt],
                    &mut gv[bi * lk * dvt..(bi + 1) * lk * dvt],
                );
                planes.backward(bi, gd, grads, wk);
            }
        });
    }
    vec![
        Tensor::from_vec(gq, &[b, lq, dqt]),
        Tensor::from_vec(gk, &[b, lk, dqt]),
        Tensor::from_vec(gv, &[b, lk, dvt]),
    ]
}

/// The planes as they were before the lane kernels and [`key_ranges`]: a
/// `positions` list per query and the dispatched `dot`/`axpy` at every
/// width. Kept so the property tests can pin today's kernels to them bit
/// for bit on both backends.
#[cfg(test)]
pub(crate) mod reference {
    use super::window_bounds;
    use lttf_tensor::Tensor;

    fn key_positions(
        i: usize,
        lq: usize,
        lk: usize,
        w: usize,
        n_global: usize,
        buf: &mut Vec<usize>,
    ) {
        buf.clear();
        if i < n_global.min(lk) {
            buf.extend(0..lk);
            return;
        }
        let g = n_global.min(lk);
        buf.extend(0..g);
        let (lo, hi) = window_bounds(i, lq, lk, w);
        for j in lo.max(g)..hi {
            buf.push(j);
        }
        if buf.is_empty() {
            let (lo, hi) = window_bounds(i, lq, lk, w);
            buf.extend(lo..hi);
        }
    }

    pub(crate) fn forward(q: &Tensor, k: &Tensor, v: &Tensor, w: usize, n_global: usize) -> Tensor {
        let (bh, lq, dh) = (q.shape()[0], q.shape()[1], q.shape()[2]);
        let lk = k.shape()[1];
        let dv = v.shape()[2];
        let scale = 1.0 / (dh as f32).sqrt();
        let (qd, kd, vd) = (q.data(), k.data(), v.data());
        let mut out = vec![0.0f32; bh * lq * dv];
        let mut scores: Vec<f32> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        for b in 0..bh {
            let oplane = &mut out[b * lq * dv..(b + 1) * lq * dv];
            for i in 0..lq {
                key_positions(i, lq, lk, w, n_global, &mut positions);
                let n = positions.len();
                scores.resize(n, 0.0);
                let qrow = &qd[(b * lq + i) * dh..(b * lq + i + 1) * dh];
                let mut max = f32::NEG_INFINITY;
                for (s, &j) in positions.iter().enumerate() {
                    let krow = &kd[(b * lk + j) * dh..(b * lk + j + 1) * dh];
                    scores[s] = lttf_tensor::simd::dot(qrow, krow) * scale;
                    max = max.max(scores[s]);
                }
                let mut z = 0.0;
                for s in scores.iter_mut().take(n) {
                    *s = (*s - max).exp();
                    z += *s;
                }
                let inv_z = 1.0 / z;
                let orow = &mut oplane[i * dv..(i + 1) * dv];
                for (s, &j) in positions.iter().enumerate() {
                    let a = scores[s] * inv_z;
                    let vrow = &vd[(b * lk + j) * dv..(b * lk + j + 1) * dv];
                    lttf_tensor::simd::axpy(orow, a, vrow);
                }
            }
        }
        Tensor::from_vec(out, &[bh, lq, dv])
    }

    pub(crate) fn backward(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        gout: &Tensor,
        w: usize,
        n_global: usize,
    ) -> Vec<Tensor> {
        let (bh, lq, dh) = (q.shape()[0], q.shape()[1], q.shape()[2]);
        let lk = k.shape()[1];
        let dv = v.shape()[2];
        let scale = 1.0 / (dh as f32).sqrt();
        let (qd, kd, vd, gd) = (q.data(), k.data(), v.data(), gout.data());
        let mut gq = vec![0.0f32; bh * lq * dh];
        let mut gk = vec![0.0f32; bh * lk * dh];
        let mut gv = vec![0.0f32; bh * lk * dv];
        let mut attn: Vec<f32> = Vec::new();
        let mut dattn: Vec<f32> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        for b in 0..bh {
            let gq_p = &mut gq[b * lq * dh..(b + 1) * lq * dh];
            let gk_p = &mut gk[b * lk * dh..(b + 1) * lk * dh];
            let gv_p = &mut gv[b * lk * dv..(b + 1) * lk * dv];
            for i in 0..lq {
                key_positions(i, lq, lk, w, n_global, &mut positions);
                let n = positions.len();
                attn.resize(n, 0.0);
                dattn.resize(n, 0.0);
                let qrow = &qd[(b * lq + i) * dh..(b * lq + i + 1) * dh];
                let grow = &gd[(b * lq + i) * dv..(b * lq + i + 1) * dv];
                let mut max = f32::NEG_INFINITY;
                for (s, &j) in positions.iter().enumerate() {
                    let krow = &kd[(b * lk + j) * dh..(b * lk + j + 1) * dh];
                    attn[s] = lttf_tensor::simd::dot(qrow, krow) * scale;
                    max = max.max(attn[s]);
                }
                let mut z = 0.0;
                for a in attn.iter_mut().take(n) {
                    *a = (*a - max).exp();
                    z += *a;
                }
                for a in attn.iter_mut().take(n) {
                    *a /= z;
                }
                let mut dot_sum = 0.0;
                for (s, &j) in positions.iter().enumerate() {
                    let vrow = &vd[(b * lk + j) * dv..(b * lk + j + 1) * dv];
                    let da = lttf_tensor::simd::dot(grow, vrow);
                    dattn[s] = da;
                    dot_sum += attn[s] * da;
                    let gvrow = &mut gv_p[j * dv..(j + 1) * dv];
                    lttf_tensor::simd::axpy(gvrow, attn[s], grow);
                }
                let gqrow = &mut gq_p[i * dh..(i + 1) * dh];
                for (s, &j) in positions.iter().enumerate() {
                    let ds = attn[s] * (dattn[s] - dot_sum) * scale;
                    if ds == 0.0 {
                        continue;
                    }
                    let krow = &kd[(b * lk + j) * dh..(b * lk + j + 1) * dh];
                    let gkrow = &mut gk_p[j * dh..(j + 1) * dh];
                    lttf_tensor::simd::axpy(gqrow, ds, krow);
                    lttf_tensor::simd::axpy(gkrow, ds, qrow);
                }
            }
        }
        vec![
            Tensor::from_vec(gq, &[bh, lq, dh]),
            Tensor::from_vec(gk, &[bh, lk, dh]),
            Tensor::from_vec(gv, &[bh, lk, dv]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::full::full_attention;
    use lttf_autograd::{check::grad_check, Graph};
    use lttf_tensor::{Rng, Tensor};

    #[test]
    fn window_bounds_self_attention() {
        assert_eq!(window_bounds(0, 8, 8, 2), (0, 2));
        assert_eq!(window_bounds(4, 8, 8, 2), (3, 6));
        assert_eq!(window_bounds(7, 8, 8, 2), (6, 8));
    }

    #[test]
    fn window_bounds_cross_attention_rescales() {
        // 16 queries over 8 keys: query 15 centres at key 7.
        assert_eq!(window_bounds(15, 16, 8, 2), (6, 8));
        assert_eq!(window_bounds(0, 16, 8, 2), (0, 2));
    }

    #[test]
    fn wide_window_matches_full_attention() {
        // With w >= 2L the band covers everything, so the result must equal
        // dense attention exactly.
        let mut rng = Rng::seed(1);
        let q = Tensor::randn(&[2, 6, 4], &mut rng);
        let k = Tensor::randn(&[2, 6, 4], &mut rng);
        let v = Tensor::randn(&[2, 6, 4], &mut rng);
        let g = Graph::new();
        let win =
            sliding_window_attention(g.leaf(q.clone()), g.leaf(k.clone()), g.leaf(v.clone()), 16);
        let full = full_attention(g.leaf(q), g.leaf(k), g.leaf(v), None);
        win.value().assert_close(&full.value(), 1e-4);
    }

    #[test]
    fn narrow_window_is_local() {
        // With w=0 semantics disallowed; w=1 → each query sees only its own
        // centre key (half = 0), so output = v at the centre.
        let mut rng = Rng::seed(2);
        let q = Tensor::randn(&[1, 5, 3], &mut rng);
        let k = Tensor::randn(&[1, 5, 3], &mut rng);
        let v = Tensor::randn(&[1, 5, 3], &mut rng);
        let g = Graph::new();
        let out = sliding_window_attention(g.leaf(q), g.leaf(k), g.leaf(v.clone()), 1);
        out.value().assert_close(&v, 1e-5);
    }

    #[test]
    fn rows_are_convex_combinations_of_window() {
        let mut rng = Rng::seed(3);
        let q = Tensor::randn(&[1, 8, 4], &mut rng);
        let k = Tensor::randn(&[1, 8, 4], &mut rng);
        let v = Tensor::randn(&[1, 8, 4], &mut rng);
        let out = window_forward(&q, &k, &v, 2);
        for i in 0..8 {
            let (lo, hi) = window_bounds(i, 8, 8, 2);
            for f in 0..4 {
                let vals: Vec<f32> = (lo..hi).map(|j| v.at(&[0, j, f])).collect();
                let (mn, mx) = (
                    vals.iter().cloned().fold(f32::INFINITY, f32::min),
                    vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max),
                );
                let o = out.at(&[0, i, f]);
                assert!(o >= mn - 1e-4 && o <= mx + 1e-4, "i={i} f={f}");
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Rng::seed(4);
        let q = Tensor::randn(&[1, 5, 3], &mut rng).mul_scalar(0.5);
        let k = Tensor::randn(&[1, 5, 3], &mut rng).mul_scalar(0.5);
        let v = Tensor::randn(&[1, 5, 3], &mut rng).mul_scalar(0.5);
        grad_check(
            &[q, k, v],
            |_, xs| {
                sliding_window_attention(xs[0], xs[1], xs[2], 2)
                    .square()
                    .sum_all()
            },
            3e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn cross_attention_gradients_match_finite_differences() {
        let mut rng = Rng::seed(5);
        let q = Tensor::randn(&[1, 6, 3], &mut rng).mul_scalar(0.5);
        let k = Tensor::randn(&[1, 3, 3], &mut rng).mul_scalar(0.5);
        let v = Tensor::randn(&[1, 3, 3], &mut rng).mul_scalar(0.5);
        grad_check(
            &[q, k, v],
            |_, xs| {
                sliding_window_attention(xs[0], xs[1], xs[2], 2)
                    .square()
                    .sum_all()
            },
            3e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn global_tokens_see_everything() {
        // With n_global = L every query attends everywhere: equals full
        // attention exactly.
        let mut rng = Rng::seed(11);
        let q = Tensor::randn(&[1, 6, 3], &mut rng);
        let k = Tensor::randn(&[1, 6, 3], &mut rng);
        let v = Tensor::randn(&[1, 6, 3], &mut rng);
        let g = Graph::new();
        let win = sliding_window_global_attention(
            g.leaf(q.clone()),
            g.leaf(k.clone()),
            g.leaf(v.clone()),
            1,
            1,
            6,
        );
        let full = full_attention(g.leaf(q), g.leaf(k), g.leaf(v), None);
        win.value().assert_close(&full.value(), 1e-4);
    }

    #[test]
    fn global_prefix_changes_distant_rows() {
        // Without global tokens, a far-away key cannot influence row L−1;
        // with key 0 global it can.
        let mut rng = Rng::seed(12);
        let q = Tensor::randn(&[1, 16, 3], &mut rng);
        let k = Tensor::randn(&[1, 16, 3], &mut rng);
        let v0 = Tensor::randn(&[1, 16, 3], &mut rng);
        let mut v1 = v0.clone();
        // perturb only value row 0
        for f in 0..3 {
            let old = v1.at(&[0, 0, f]);
            v1.set(&[0, 0, f], old + 10.0);
        }
        let local0 = window_global_forward(&q, &k, &v0, 1, 2, 0);
        let local1 = window_global_forward(&q, &k, &v1, 1, 2, 0);
        // last row unaffected without global tokens
        for f in 0..3 {
            assert_eq!(local0.at(&[0, 15, f]), local1.at(&[0, 15, f]));
        }
        let glob0 = window_global_forward(&q, &k, &v0, 1, 2, 1);
        let glob1 = window_global_forward(&q, &k, &v1, 1, 2, 1);
        let mut moved = false;
        for f in 0..3 {
            moved |= (glob0.at(&[0, 15, f]) - glob1.at(&[0, 15, f])).abs() > 1e-6;
        }
        assert!(moved, "global token did not reach the last row");
    }

    #[test]
    fn global_attention_gradients_match_finite_differences() {
        let mut rng = Rng::seed(13);
        let q = Tensor::randn(&[1, 6, 3], &mut rng).mul_scalar(0.5);
        let k = Tensor::randn(&[1, 6, 3], &mut rng).mul_scalar(0.5);
        let v = Tensor::randn(&[1, 6, 3], &mut rng).mul_scalar(0.5);
        grad_check(
            &[q, k, v],
            |_, xs| {
                sliding_window_global_attention(xs[0], xs[1], xs[2], 1, 2, 2)
                    .square()
                    .sum_all()
            },
            3e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn gradient_against_full_attention_when_window_covers_all() {
        // Same loss, same gradients when the band is the whole matrix.
        let mut rng = Rng::seed(6);
        let q = Tensor::randn(&[1, 4, 3], &mut rng);
        let k = Tensor::randn(&[1, 4, 3], &mut rng);
        let v = Tensor::randn(&[1, 4, 3], &mut rng);

        let g1 = Graph::new();
        let (q1, k1, v1) = (g1.leaf(q.clone()), g1.leaf(k.clone()), g1.leaf(v.clone()));
        let l1 = sliding_window_attention(q1, k1, v1, 10).square().sum_all();
        let gr1 = g1.backward(l1);

        let g2 = Graph::new();
        let (q2, k2, v2) = (g2.leaf(q), g2.leaf(k), g2.leaf(v));
        let l2 = full_attention(q2, k2, v2, None).square().sum_all();
        let gr2 = g2.backward(l2);

        gr1.get(q1)
            .unwrap()
            .assert_close(gr2.get(q2).unwrap(), 1e-4);
        gr1.get(k1)
            .unwrap()
            .assert_close(gr2.get(k2).unwrap(), 1e-4);
        gr1.get(v1)
            .unwrap()
            .assert_close(gr2.get(v2).unwrap(), 1e-4);
    }
}
