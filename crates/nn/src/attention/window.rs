//! The paper's sliding-window attention (Section IV-B), implemented as a
//! fused banded kernel with a hand-written backward pass.
//!
//! Each query position attends only to the keys inside a window of width
//! `w` around its (length-aligned) centre, so both time and memory are
//! O(L·w) — this is the op that Fig. 5 benchmarks against the O(L²) and
//! O(L log L) alternatives.

use lttf_autograd::Var;
use lttf_parallel::{par_chunks_mut, par_chunks_mut_zip3};
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

/// Head widths below one AVX2 vector take the inlined [`SmallFma`] planes.
#[cfg(target_arch = "x86_64")]
const SMALL_HEAD: usize = 8;

/// The per-(query, key) row primitives of an attention plane.
trait RowOps {
    fn dot(a: &[f32], b: &[f32]) -> f32;
    fn axpy(y: &mut [f32], a: f32, x: &[f32]);
}

/// The dispatched `lttf_tensor::simd` kernels: any head width, either
/// backend.
struct Dispatched;

impl RowOps for Dispatched {
    #[inline(always)]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        lttf_tensor::simd::dot(a, b)
    }
    #[inline(always)]
    fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        lttf_tensor::simd::axpy(y, a, x)
    }
}

/// Inline FMA chains with the AVX2 backend's bits. Below 8 lanes its `dot`
/// is a sequential FMA chain from zero, and its `axpy` is one FMA per
/// element at any length, so these loops reproduce both exactly for heads
/// narrower than [`SMALL_HEAD`]. At 4 lanes a dispatched call costs more
/// than its arithmetic; inlined into a plane compiled with the `fma`
/// feature, each `mul_add` is one instruction.
#[cfg(target_arch = "x86_64")]
struct SmallFma;

#[cfg(target_arch = "x86_64")]
impl RowOps for SmallFma {
    #[inline(always)]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).fold(0.0, |s, (&x, &y)| x.mul_add(y, s))
    }
    #[inline(always)]
    fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        for (o, &v) in y.iter_mut().zip(x) {
            *o = a.mul_add(v, *o);
        }
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
        let dvt = v.shape()[2];
        assert!(
            heads >= 1 && dqt.is_multiple_of(heads) && dvt.is_multiple_of(heads),
            "{heads} heads must divide the q/k width {dqt} and the v width {dvt}"
        );
        let dh = dqt / heads;
        Planes {
            q: q.data(),
            k: k.data(),
            v: v.data(),
            lq,
            lk: k.shape()[1],
            dh,
            dv: dvt / heads,
            dqt,
            dvt,
            heads,
            w,
            n_global,
            scale: 1.0 / (dh as f32).sqrt(),
        }
    }

    /// True when this call runs the inlined [`SmallFma`] planes: the AVX2
    /// backend and heads narrower than one vector. Wider heads and the
    /// scalar backend keep the dispatched calls.
    #[cfg(target_arch = "x86_64")]
    fn small(&self) -> bool {
        lttf_tensor::simd::enabled() && self.dh < SMALL_HEAD && self.dv < SMALL_HEAD
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

    /// Forward of batch `b`, every head, into its output plane `[lq,
    /// heads·dv]`; `scores` is scratch.
    fn forward(&self, b: usize, oplane: &mut [f32], scores: &mut Vec<f32>) {
        #[cfg(target_arch = "x86_64")]
        if self.small() {
            // SAFETY: `small()` implies `simd::enabled()`, which implies
            // AVX2+FMA were detected at runtime.
            unsafe { self.forward_fma(b, oplane, scores) };
            return;
        }
        self.forward_with::<Dispatched>(b, oplane, scores);
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn forward_fma(&self, b: usize, oplane: &mut [f32], scores: &mut Vec<f32>) {
        self.forward_with::<SmallFma>(b, oplane, scores);
    }

    #[inline(always)]
    fn forward_with<K: RowOps>(&self, b: usize, oplane: &mut [f32], scores: &mut Vec<f32>) {
        let (dv, dvt) = (self.dv, self.dvt);
        for h in 0..self.heads {
            for i in 0..self.lq {
                let (global, band) = key_ranges(i, self.lq, self.lk, self.w, self.n_global);
                let keys = || global.clone().chain(band.clone());
                let qrow = self.q_row(b, h, i);
                scores.clear();
                let mut max = f32::NEG_INFINITY;
                for j in keys() {
                    let s = K::dot(qrow, self.k_row(b, h, j)) * self.scale;
                    max = max.max(s);
                    scores.push(s);
                }
                let mut z = 0.0;
                for s in scores.iter_mut() {
                    *s = (*s - max).exp();
                    z += *s;
                }
                let inv_z = 1.0 / z;
                let at = i * dvt + h * dv;
                let orow = &mut oplane[at..at + dv];
                for (&s, j) in scores.iter().zip(keys()) {
                    K::axpy(orow, s * inv_z, self.v_row(b, h, j));
                }
            }
        }
    }

    /// Backward of batch `b`, every head, into its gradient planes (`gq`
    /// `[lq, heads·dh]`, `gk` `[lk, heads·dh]`, `gv` `[lk, heads·dv]`);
    /// `gout` is the whole output gradient, `attn`/`dattn` are scratch.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        b: usize,
        gout: &[f32],
        gq: &mut [f32],
        gk: &mut [f32],
        gv: &mut [f32],
        attn: &mut Vec<f32>,
        dattn: &mut Vec<f32>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.small() {
            // SAFETY: as in `forward`.
            unsafe { self.backward_fma(b, gout, gq, gk, gv, attn, dattn) };
            return;
        }
        self.backward_with::<Dispatched>(b, gout, gq, gk, gv, attn, dattn);
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn backward_fma(
        &self,
        b: usize,
        gout: &[f32],
        gq: &mut [f32],
        gk: &mut [f32],
        gv: &mut [f32],
        attn: &mut Vec<f32>,
        dattn: &mut Vec<f32>,
    ) {
        self.backward_with::<SmallFma>(b, gout, gq, gk, gv, attn, dattn);
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn backward_with<K: RowOps>(
        &self,
        b: usize,
        gout: &[f32],
        gq: &mut [f32],
        gk: &mut [f32],
        gv: &mut [f32],
        attn: &mut Vec<f32>,
        dattn: &mut Vec<f32>,
    ) {
        let (dh, dv, dqt, dvt) = (self.dh, self.dv, self.dqt, self.dvt);
        for h in 0..self.heads {
            let (qh, vh) = (h * dh, h * dv);
            for i in 0..self.lq {
                let (global, band) = key_ranges(i, self.lq, self.lk, self.w, self.n_global);
                let keys = || global.clone().chain(band.clone());
                let qrow = self.q_row(b, h, i);
                let at = (b * self.lq + i) * dvt + vh;
                let grow = &gout[at..at + dv];
                // recompute softmax weights
                attn.clear();
                let mut max = f32::NEG_INFINITY;
                for j in keys() {
                    let a = K::dot(qrow, self.k_row(b, h, j)) * self.scale;
                    max = max.max(a);
                    attn.push(a);
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
                dattn.clear();
                let mut dot_sum = 0.0;
                for (&a, j) in attn.iter().zip(keys()) {
                    let da = K::dot(grow, self.v_row(b, h, j));
                    dattn.push(da);
                    dot_sum += a * da;
                    K::axpy(&mut gv[j * dvt + vh..j * dvt + vh + dv], a, grow);
                }
                // softmax backward → dscores, then dQ/dK
                let gqrow = &mut gq[i * dqt + qh..i * dqt + qh + dh];
                for ((&a, &da), j) in attn.iter().zip(dattn.iter()).zip(keys()) {
                    let ds = a * (da - dot_sum) * self.scale;
                    if ds == 0.0 {
                        continue;
                    }
                    K::axpy(gqrow, ds, self.k_row(b, h, j));
                    K::axpy(&mut gk[j * dqt + qh..j * dqt + qh + dh], ds, qrow);
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
    let mut out = vec![0.0f32; b * lq * dvt];
    // Each batch writes its own output plane, so the batches distribute
    // over the worker pool with bit-identical results at any thread count.
    if b >= 2 && work >= PAR_MIN_WORK && lttf_parallel::num_threads() > 1 && lq * dvt > 0 {
        par_chunks_mut(&mut out, lq * dvt, |bi, oplane| {
            planes.forward(bi, oplane, &mut Vec::new())
        });
    } else {
        let mut scores = Vec::new();
        for (bi, oplane) in out.chunks_mut((lq * dvt).max(1)).enumerate() {
            planes.forward(bi, oplane, &mut scores);
        }
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
    let _span = lttf_obs::span!("window_attn_bwd", work >= OBS_MIN_ATTN);
    let planes = Planes::new(q, k, v, heads, w, n_global);
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
                planes.backward(bi, gd, gq_p, gk_p, gv_p, &mut Vec::new(), &mut Vec::new())
            },
        );
    } else {
        let (mut attn, mut dattn) = (Vec::new(), Vec::new());
        for bi in 0..b {
            planes.backward(
                bi,
                gd,
                &mut gq[bi * lq * dqt..(bi + 1) * lq * dqt],
                &mut gk[bi * lk * dqt..(bi + 1) * lk * dqt],
                &mut gv[bi * lk * dvt..(bi + 1) * lk * dvt],
                &mut attn,
                &mut dattn,
            );
        }
    }
    vec![
        Tensor::from_vec(gq, &[b, lq, dqt]),
        Tensor::from_vec(gk, &[b, lk, dqt]),
        Tensor::from_vec(gv, &[b, lk, dvt]),
    ]
}

/// The planes as they were before [`SmallFma`] and [`key_ranges`]: a
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
