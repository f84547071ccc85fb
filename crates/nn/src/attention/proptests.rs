//! Property-based tests for the attention mechanisms: the fused banded
//! kernel agrees with a dense masked reference for arbitrary window and
//! global-token configurations, matches its kept reference planes bit for
//! bit on both kernel backends, and every mechanism preserves the
//! convex-combination property of softmax attention.

use crate::attention::window::reference;
use crate::attention::{
    full_attention, sliding_window_global_attention, window_global_backward, window_global_forward,
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
        let fused = window_global_forward(&q, &k, &v, w, n_global);
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
        let out = window_global_forward(&q, &k, &v, w, 0);
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
        let loss = sliding_window_global_attention(q, k, v, w, n_global.min(l))
            .square()
            .sum_all();
        let grads = g.backward(loss);
        for var in [q, k, v] {
            let gt = grads.get(var).expect("gradient present");
            prop_assert!(!gt.has_non_finite());
        }
    }

    // Head widths below and at/above 8 lanes take the inlined and the
    // dispatched planes on the AVX2 backend; cross-attention (`lq != lk`)
    // and global tokens reshape the key ranges. Thread counts are left to
    // the environment: the planes never depend on them.
    fn window_planes_match_reference_bits(
        bh in 1usize..4,
        lq in 1usize..14,
        lk in 1usize..14,
        dh in 1usize..12,
        dv in 1usize..12,
        w in 1usize..6,
        n_global in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut rng = Rng::seed(seed);
        let q = Tensor::randn(&[bh, lq, dh], &mut rng);
        let k = Tensor::randn(&[bh, lk, dh], &mut rng);
        let v = Tensor::randn(&[bh, lk, dv], &mut rng);
        let gout = Tensor::randn(&[bh, lq, dv], &mut rng);
        let (scalar, simd) = on_both_backends(|| -> Result<(), String> {
            same_bits(
                "forward",
                &window_global_forward(&q, &k, &v, w, n_global),
                &reference::forward(&q, &k, &v, w, n_global),
            )?;
            let got = window_global_backward(&q, &k, &v, &gout, w, n_global);
            let want = reference::backward(&q, &k, &v, &gout, w, n_global);
            for (name, (g, r)) in ["dq", "dk", "dv"].into_iter().zip(got.iter().zip(&want)) {
                same_bits(name, g, r)?;
            }
            Ok(())
        });
        scalar.map_err(|e| format!("scalar backend: {e}"))?;
        simd.map_err(|e| format!("simd backend: {e}"))?;
    }
}
