//! Property-based tests for the attention mechanisms: the fused banded
//! kernel agrees with a dense masked reference for arbitrary window and
//! global-token configurations, matches its kept reference planes bit for
//! bit on both kernel backends — heads read in place against the head
//! split, reference planes and merge they replaced, over lengths that fill
//! several 8-query lane blocks — and every mechanism preserves the
//! convex-combination property of softmax attention.

use crate::attention::full::full_attention;
use crate::attention::window::reference;
use crate::attention::{
    sliding_window_global_attention, window_global_backward, window_global_forward,
};
use lttf_autograd::Graph;
use lttf_tensor::simd::on_both_backends;
use lttf_tensor::{Rng, Tensor};
use lttf_testkit::{prop_assert, properties};

/// `Err` naming the first element whose bits differ from the reference.
fn same_bits(what: &str, got: &Tensor, want: &Tensor) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!(
            "{what}: shape {:?} vs {:?}",
            got.shape(),
            want.shape()
        ));
    }
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{what}: element {i} is {x:e}, reference {y:e}"));
        }
    }
    Ok(())
}

/// `[b, l, heads·d] → [b·heads, l, d]`, the head split the windowed
/// kernel no longer needs.
fn split_heads(x: &Tensor, heads: usize) -> Tensor {
    let (b, l, d) = (x.shape()[0], x.shape()[1], x.shape()[2] / heads);
    x.reshape(&[b, l, heads, d])
        .permute(&[0, 2, 1, 3])
        .reshape(&[b * heads, l, d])
}

/// `[b·heads, l, d] → [b, l, heads·d]`, the matching merge.
fn merge_heads(x: &Tensor, heads: usize) -> Tensor {
    let (bh, l, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    x.reshape(&[bh / heads, heads, l, d])
        .permute(&[0, 2, 1, 3])
        .reshape(&[bh / heads, l, heads * d])
}

/// Dense reference for the banded+global pattern: full scores with a
/// −1e9 mask wherever the fused kernel would not look.
fn masked_reference(q: &Tensor, k: &Tensor, v: &Tensor, w: usize, n_global: usize) -> Tensor {
    let l = q.shape()[1];
    let half = w / 2;
    let mut mask = Tensor::full(&[l, l], -1e9);
    for i in 0..l {
        if i < n_global {
            for j in 0..l {
                mask.set(&[i, j], 0.0);
            }
            continue;
        }
        for j in 0..n_global.min(l) {
            mask.set(&[i, j], 0.0);
        }
        for j in i.saturating_sub(half)..(i + half + 1).min(l) {
            mask.set(&[i, j], 0.0);
        }
    }
    let g = Graph::new();
    full_attention(
        g.leaf(q.clone()),
        g.leaf(k.clone()),
        g.leaf(v.clone()),
        Some(&mask),
    )
    .value()
}

properties! {
    cases = 24;

    fn fused_kernel_matches_masked_reference(
        l in 3usize..12,
        w_half in 0usize..4,
        n_global in 0usize..4,
        seed in 0u64..200,
    ) {
        let w = (2 * w_half).max(1);
        let n_global = n_global.min(l);
        let mut rng = Rng::seed(seed);
        let q = Tensor::randn(&[2, l, 3], &mut rng);
        let k = Tensor::randn(&[2, l, 3], &mut rng);
        let v = Tensor::randn(&[2, l, 3], &mut rng);
        let fused = window_global_forward(&q, &k, &v, 1, w, n_global);
        let reference = masked_reference(&q, &k, &v, w, n_global);
        fused.assert_close(&reference, 1e-3);
    }

    fn window_output_bounded_by_value_range(
        l in 2usize..16,
        w in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut rng = Rng::seed(seed);
        let q = Tensor::randn(&[1, l, 4], &mut rng);
        let k = Tensor::randn(&[1, l, 4], &mut rng);
        let v = Tensor::randn(&[1, l, 4], &mut rng);
        let out = window_global_forward(&q, &k, &v, 1, w, 0);
        // softmax attention is a convex combination: global bounds hold
        prop_assert!(out.max() <= v.max() + 1e-4);
        prop_assert!(out.min() >= v.min() - 1e-4);
    }

    fn window_gradients_are_finite(
        l in 3usize..10,
        w in 1usize..4,
        n_global in 0usize..3,
        seed in 0u64..100,
    ) {
        let mut rng = Rng::seed(seed);
        let g = Graph::new();
        let q = g.leaf(Tensor::randn(&[1, l, 3], &mut rng));
        let k = g.leaf(Tensor::randn(&[1, l, 3], &mut rng));
        let v = g.leaf(Tensor::randn(&[1, l, 3], &mut rng));
        let loss = sliding_window_global_attention(q, k, v, 1, w, n_global.min(l))
            .square()
            .sum_all();
        let grads = g.backward(loss);
        for var in [q, k, v] {
            let gt = grads.get(var).expect("gradient present");
            prop_assert!(!gt.has_non_finite());
        }
    }
}

/// The operands of one bit-exactness case, `[b, l, heads·d]` each.
struct Case {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    gout: Tensor,
    w: usize,
    n_global: usize,
}

/// Geometry knobs of a [`Case`], drawn by the properties below.
struct Shape {
    b: usize,
    heads: usize,
    lq: usize,
    dh: usize,
    dv: usize,
    /// 0–1: self-attention without global tokens, the AVX2 lane kernel's
    /// geometry at head widths below 8; 2: global tokens; 3:
    /// cross-attention with a key length of its own, with or without
    /// global tokens.
    geometry: usize,
    seed: u64,
}

impl Shape {
    /// Build the case: lengths from `lq` (raw values past 50 mean 48, the
    /// canonical length), windows up to twice the length, and — from
    /// `seed` — `±0.0` entries and all-zero output-gradient rows, which
    /// give score gradients of `±0`.
    fn case(&self) -> Case {
        let mut rng = Rng::seed(self.seed);
        let lq = if self.lq > 50 { 48 } else { self.lq };
        let lk = if self.geometry == 3 {
            1 + (rng.uniform(0.0, 50.0) as usize)
        } else {
            lq
        };
        let w = 1 + (rng.uniform(0.0, 2.0 * lq.max(lk) as f32) as usize);
        let n_global = match self.geometry {
            0 | 1 => 0,
            2 => 1 + (rng.uniform(0.0, 3.0) as usize),
            _ => rng.uniform(0.0, 4.0) as usize,
        };
        let zeros = |t: Tensor, rng: &mut Rng| {
            let shape = t.shape().to_vec();
            let mut data = t.into_vec();
            for x in data.iter_mut() {
                let u = rng.uniform(0.0, 1.0);
                if u < 0.05 {
                    *x = 0.0;
                } else if u < 0.1 {
                    *x = -0.0;
                }
            }
            Tensor::from_vec(data, &shape)
        };
        let (b, hq, hv) = (self.b, self.heads * self.dh, self.heads * self.dv);
        let q = zeros(Tensor::randn(&[b, lq, hq], &mut rng), &mut rng);
        let k = zeros(Tensor::randn(&[b, lk, hq], &mut rng), &mut rng);
        let v = zeros(Tensor::randn(&[b, lk, hv], &mut rng), &mut rng);
        let mut gout = zeros(Tensor::randn(&[b, lq, hv], &mut rng), &mut rng);
        for row in gout.data_mut().chunks_mut(hv.max(1)) {
            let u = rng.uniform(0.0, 1.0);
            if u < 0.15 {
                row.fill(if u < 0.075 { 0.0 } else { -0.0 });
            }
        }
        Case {
            q,
            k,
            v,
            gout,
            w,
            n_global,
        }
    }
}

/// The window kernels with `heads` heads read in place against the head
/// split, the head-folded reference planes and the merge, bit for bit on
/// both backends.
fn check_against_reference(c: &Case, heads: usize) -> Result<(), String> {
    let split = |t: &Tensor| split_heads(t, heads);
    let merge = |t: &Tensor| merge_heads(t, heads);
    let (w, n_global) = (c.w, c.n_global);
    let (scalar, simd) = on_both_backends(|| -> Result<(), String> {
        same_bits(
            "forward",
            &window_global_forward(&c.q, &c.k, &c.v, heads, w, n_global),
            &merge(&reference::forward(&split(&c.q), &split(&c.k), &split(&c.v), w, n_global)),
        )?;
        let got = window_global_backward(&c.q, &c.k, &c.v, &c.gout, heads, w, n_global);
        let want = reference::backward(
            &split(&c.q),
            &split(&c.k),
            &split(&c.v),
            &split(&c.gout),
            w,
            n_global,
        );
        for (name, (g, r)) in ["dq", "dk", "dv"].into_iter().zip(got.iter().zip(&want)) {
            same_bits(name, g, &merge(r))?;
        }
        Ok(())
    });
    scalar.map_err(|e| format!("scalar backend: {e}"))?;
    simd.map_err(|e| format!("simd backend: {e}"))
}

properties! {
    cases = 48;

    // One head over head-folded tensors against the reference planes.
    // Head widths span both sides of 8 lanes, so on the AVX2 backend the
    // lane kernel and the per-query planes both run; thread counts are
    // left to the environment, since the planes never depend on them.
    fn window_planes_match_reference_bits(
        bh in 1usize..4,
        lq in 1usize..61,
        dh in 1usize..12,
        dv in 1usize..12,
        geometry in 0usize..4,
        seed in 0u64..1000,
    ) {
        let shape = Shape { b: bh, heads: 1, lq, dh, dv, geometry, seed };
        check_against_reference(&shape.case(), 1)?;
    }

    // The multi-head kernel reads each head's columns of `[b, l, heads·d]`
    // in place; the path it replaced split the heads out, ran the planes
    // one head-folded batch at a time and merged them back.
    fn window_heads_match_the_split_merge_reference(
        b in 1usize..4,
        heads in 1usize..5,
        lq in 1usize..61,
        dh in 1usize..12,
        dv in 1usize..12,
        geometry in 0usize..4,
        seed in 0u64..1000,
    ) {
        let shape = Shape { b, heads, lq, dh, dv, geometry, seed };
        check_against_reference(&shape.case(), heads)?;
    }

    // A key with `+∞` in a channel where every query is negative scores
    // `−∞`: its weight and score gradient are 0 for every query, and the
    // pair must be skipped, since `0·∞` would turn dQ into NaN. Each query
    // keeps a finite key (`w ≥ 2`, `l ≥ 2`), so nothing else is NaN.
    fn window_gradients_skip_zero_weight_pairs(
        b in 1usize..3,
        heads in 1usize..5,
        lq in 2usize..61,
        dh in 1usize..8,
        dv in 1usize..8,
        seed in 0u64..1000,
    ) {
        let shape = Shape { b, heads, lq, dh, dv, geometry: 0, seed };
        let mut c = shape.case();
        c.w = c.w.max(2);
        let (l, hq) = (c.q.shape()[1], heads * dh);
        let mut rng = Rng::seed(seed ^ 0x5eed);
        for row in c.q.data_mut().chunks_mut(hq) {
            for h in 0..heads {
                row[h * dh] = -(row[h * dh].abs() + 0.5);
            }
        }
        for bi in 0..b {
            let j = (rng.uniform(0.0, l as f32) as usize).min(l - 1);
            let h = (rng.uniform(0.0, heads as f32) as usize).min(heads - 1);
            c.k.data_mut()[(bi * l + j) * hq + h * dh] = f32::INFINITY;
        }
        check_against_reference(&c, heads)?;
    }
}
