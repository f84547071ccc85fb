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

/// The key positions query `i` attends to: the `[lo, hi)` band plus, when
/// `n_global > 0`, the Longformer-style global prefix `[0, n_global)`.
/// Global queries (`i < n_global`) attend to every key.
fn key_positions(i: usize, lq: usize, lk: usize, w: usize, n_global: usize, buf: &mut Vec<usize>) {
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
        // degenerate: window entirely inside the (empty) global prefix
        let (lo, hi) = window_bounds(i, lq, lk, w);
        buf.extend(lo..hi);
    }
}

/// Compute softmax attention restricted to a width-`w` band.
///
/// * `q`: `[bh, lq, dh]`, `k`/`v`: `[bh, lk, dh]` → output `[bh, lq, dh]`.
///
/// # Panics
/// Panics on rank/shape mismatches or `w == 0`.
pub fn sliding_window_attention<'g>(q: Var<'g>, k: Var<'g>, v: Var<'g>, w: usize) -> Var<'g> {
    sliding_window_global_attention(q, k, v, w, 0)
}

/// Sliding-window attention with `n_global` Longformer-style global
/// tokens: the first `n_global` positions attend to (and are attended by)
/// every position, on top of the local band. Complexity
/// O(L·(w + n_global)).
///
/// # Panics
/// Panics on rank/shape mismatches or `w == 0`.
pub fn sliding_window_global_attention<'g>(
    q: Var<'g>,
    k: Var<'g>,
    v: Var<'g>,
    w: usize,
    n_global: usize,
) -> Var<'g> {
    assert!(w >= 1, "window size must be >= 1");
    let g = q.graph();
    let out = g.with_values([q, k, v], |[q, k, v]| {
        window_global_forward(q, k, v, w, n_global)
    });
    g.custom_named("window_attn", out, &[q, k, v], move |ctx| {
        let (qv, kv, vv) = (ctx.inputs[0], ctx.inputs[1], ctx.inputs[2]);
        window_global_backward(qv, kv, vv, ctx.grad, w, n_global)
    })
}

/// Non-autograd forward (exposed for the Fig. 5 efficiency benchmark).
pub fn window_forward(q: &Tensor, k: &Tensor, v: &Tensor, w: usize) -> Tensor {
    window_global_forward(q, k, v, w, 0)
}

/// Non-autograd forward with global tokens.
pub fn window_global_forward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    w: usize,
    n_global: usize,
) -> Tensor {
    let (bh, lq, dh) = (q.shape()[0], q.shape()[1], q.shape()[2]);
    let lk = k.shape()[1];
    assert_eq!(k.shape()[0], bh, "batch mismatch between q and k");
    assert_eq!(v.shape()[1], lk, "k/v length mismatch");
    assert_eq!(k.shape()[2], dh, "q/k feature mismatch");
    let dv = v.shape()[2];
    let span = lttf_obs::span!(
        "window_attn_fwd",
        bh * lq * (w + n_global + 1) * dh >= OBS_MIN_ATTN
    );
    span.bytes((q.numel() + k.numel() + v.numel() + bh * lq * dv) * 4);
    let scale = 1.0 / (dh as f32).sqrt();
    let (qd, kd, vd) = (q.data(), k.data(), v.data());
    let mut out = vec![0.0f32; bh * lq * dv];
    // Each batch-head writes its own output plane, so the heads distribute
    // over the worker pool with bit-identical results at any thread count.
    let plane = |b: usize, oplane: &mut [f32]| {
        let mut scores: Vec<f32> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        for i in 0..lq {
            key_positions(i, lq, lk, w, n_global, &mut positions);
            let n = positions.len();
            scores.resize(n, 0.0);
            let qrow = &qd[(b * lq + i) * dh..(b * lq + i + 1) * dh];
            // scores
            let mut max = f32::NEG_INFINITY;
            for (s, &j) in positions.iter().enumerate() {
                let krow = &kd[(b * lk + j) * dh..(b * lk + j + 1) * dh];
                scores[s] = lttf_tensor::simd::dot(qrow, krow) * scale;
                max = max.max(scores[s]);
            }
            // softmax
            let mut z = 0.0;
            for s in scores.iter_mut().take(n) {
                *s = (*s - max).exp();
                z += *s;
            }
            let inv_z = 1.0 / z;
            // weighted sum of values
            let orow = &mut oplane[i * dv..(i + 1) * dv];
            for (s, &j) in positions.iter().enumerate() {
                let a = scores[s] * inv_z;
                let vrow = &vd[(b * lk + j) * dv..(b * lk + j + 1) * dv];
                lttf_tensor::simd::axpy(orow, a, vrow);
            }
        }
    };
    let work = bh * lq * (w + n_global + 1) * dh;
    if bh >= 2 && work >= PAR_MIN_WORK && lttf_parallel::num_threads() > 1 && lq * dv > 0 {
        par_chunks_mut(&mut out, lq * dv, &plane);
    } else {
        for (b, oplane) in out.chunks_mut((lq * dv).max(1)).enumerate() {
            plane(b, oplane);
        }
    }
    Tensor::from_vec(out, &[bh, lq, dv])
}

/// Hand-written backward: recomputes the banded softmax and applies the
/// standard attention gradients within each query's key set. Returns
/// `[dQ, dK, dV]`. Exposed (like [`window_global_forward`]) for benches
/// and the determinism suite.
pub fn window_global_backward(
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
    let _span = lttf_obs::span!(
        "window_attn_bwd",
        bh * lq * (w + n_global + 1) * dh >= OBS_MIN_ATTN
    );
    let scale = 1.0 / (dh as f32).sqrt();
    let (qd, kd, vd, gd) = (q.data(), k.data(), v.data(), gout.data());
    let mut gq = vec![0.0f32; bh * lq * dh];
    let mut gk = vec![0.0f32; bh * lk * dh];
    let mut gv = vec![0.0f32; bh * lk * dv];
    // Each batch-head scatters only into its own gq/gk/gv planes, so the
    // three gradient buffers are sliced in lockstep across the pool.
    let plane = |b: usize, gq_p: &mut [f32], gk_p: &mut [f32], gv_p: &mut [f32]| {
        let mut attn: Vec<f32> = Vec::new();
        let mut dattn: Vec<f32> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        for i in 0..lq {
            key_positions(i, lq, lk, w, n_global, &mut positions);
            let n = positions.len();
            attn.resize(n, 0.0);
            dattn.resize(n, 0.0);
            let qrow = &qd[(b * lq + i) * dh..(b * lq + i + 1) * dh];
            let grow = &gd[(b * lq + i) * dv..(b * lq + i + 1) * dv];
            // recompute softmax weights
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
            // dV and dA
            let mut dot_sum = 0.0;
            for (s, &j) in positions.iter().enumerate() {
                let vrow = &vd[(b * lk + j) * dv..(b * lk + j + 1) * dv];
                let da = lttf_tensor::simd::dot(grow, vrow);
                dattn[s] = da;
                dot_sum += attn[s] * da;
                let gvrow = &mut gv_p[j * dv..(j + 1) * dv];
                lttf_tensor::simd::axpy(gvrow, attn[s], grow);
            }
            // softmax backward → dscores, then dQ/dK
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
    };
    let work = bh * lq * (w + n_global + 1) * dh;
    if bh >= 2
        && work >= PAR_MIN_WORK
        && lttf_parallel::num_threads() > 1
        && lq * dh > 0
        && lk * dh > 0
        && lk * dv > 0
    {
        par_chunks_mut_zip3(
            &mut gq,
            lq * dh,
            &mut gk,
            lk * dh,
            &mut gv,
            lk * dv,
            &plane,
        );
    } else {
        for b in 0..bh {
            plane(
                b,
                &mut gq[b * lq * dh..(b + 1) * lq * dh],
                &mut gk[b * lk * dh..(b + 1) * lk * dh],
                &mut gv[b * lk * dv..(b + 1) * lk * dv],
            );
        }
    }
    vec![
        Tensor::from_vec(gq, &[bh, lq, dh]),
        Tensor::from_vec(gk, &[bh, lk, dh]),
        Tensor::from_vec(gv, &[bh, lk, dv]),
    ]
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
        let local0 = window_global_forward(&q, &k, &v0, 2, 0);
        let local1 = window_global_forward(&q, &k, &v1, 2, 0);
        // last row unaffected without global tokens
        for f in 0..3 {
            assert_eq!(local0.at(&[0, 15, f]), local1.at(&[0, 15, f]));
        }
        let glob0 = window_global_forward(&q, &k, &v0, 2, 1);
        let glob1 = window_global_forward(&q, &k, &v1, 2, 1);
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
                sliding_window_global_attention(xs[0], xs[1], xs[2], 2, 2)
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
