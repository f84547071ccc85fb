//! Property-based tests of algebraic tensor identities.

use crate::{broadcast_shapes, Rng, Tensor};
use lttf_testkit::prop::{self, Gen};
use lttf_testkit::{prop_assert, prop_assert_eq, properties};

pub(crate) use crate::simd::on_both_backends;

/// Generator: a small random shape with 1–3 dims of extent 1–5.
fn small_shape() -> Gen<Vec<usize>> {
    prop::vecs(prop::usizes(1..6), 1..4)
}

/// Generator: a tensor with a random small shape and tame values.
fn arb_tensor() -> Gen<Tensor> {
    small_shape().flat_map(|shape| {
        let n: usize = shape.iter().product();
        let shape = shape.clone();
        prop::vec_exact(prop::f32s(-10.0..10.0), n)
            .map(move |data| Tensor::from_vec(data, &shape))
    })
}

/// Generator: a flat buffer of `n` tame values.
fn vec_f32(lo: f32, hi: f32, n: usize) -> Gen<Vec<f32>> {
    prop::vec_exact(prop::f32s(lo..hi), n)
}

properties! {
    fn add_commutes(t in arb_tensor()) {
        let shape = t.shape().to_vec();
        let mut rng = Rng::seed(1);
        let u = Tensor::randn(&shape, &mut rng);
        t.add(&u).assert_close(&u.add(&t), 1e-5);
    }

    fn add_zero_is_identity(t in arb_tensor()) {
        t.add(&t.zeros_like()).assert_close(&t, 0.0);
    }

    fn mul_one_is_identity(t in arb_tensor()) {
        t.mul(&t.ones_like()).assert_close(&t, 0.0);
    }

    fn sub_self_is_zero(t in arb_tensor()) {
        t.sub(&t).assert_close(&t.zeros_like(), 0.0);
    }

    fn double_neg_is_identity(t in arb_tensor()) {
        t.neg().neg().assert_close(&t, 0.0);
    }

    fn exp_ln_round_trip(t in arb_tensor()) {
        // exp then ln recovers the input (values are in a safe range).
        t.exp().ln().assert_close(&t, 1e-3);
    }

    fn sum_matches_sum_axis_chain(t in arb_tensor()) {
        let mut r = t.clone();
        while r.ndim() > 0 {
            r = r.sum_axis(0);
        }
        prop_assert!((r.item() - t.sum()).abs() < 1e-2 * (1.0 + t.sum().abs()));
    }

    fn softmax_rows_are_distributions(t in arb_tensor()) {
        let s = t.softmax(-1);
        prop_assert!(s.data().iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        let sums = s.sum_axis_keepdim(-1);
        sums.assert_close(&sums.ones_like(), 1e-4);
    }

    fn broadcast_is_idempotent_on_same_shape(t in arb_tensor()) {
        let b = t.broadcast_to(t.shape());
        prop_assert_eq!(b.data(), t.data());
    }

    fn broadcast_shapes_commutative(a in small_shape(), b in small_shape()) {
        // Filter to compatible shape pairs by construction: make b a prefix-1 version.
        let b2: Vec<usize> = b.iter().map(|_| 1).collect();
        prop_assert_eq!(broadcast_shapes(&a, &b2), broadcast_shapes(&b2, &a));
    }

    fn transpose_involution(data in vec_f32(-5.0, 5.0, 12)) {
        let t = Tensor::from_vec(data, &[3, 4]);
        t.t().t().assert_close(&t, 0.0);
    }

    fn matmul_identity_right(data in vec_f32(-5.0, 5.0, 12)) {
        let t = Tensor::from_vec(data, &[3, 4]);
        t.matmul(&Tensor::eye(4)).assert_close(&t, 1e-5);
    }

    fn matmul_transpose_identity(a in vec_f32(-3.0, 3.0, 6), b in vec_f32(-3.0, 3.0, 6)) {
        // (A B)^T = B^T A^T
        let a = Tensor::from_vec(a, &[2, 3]);
        let b = Tensor::from_vec(b, &[3, 2]);
        let left = a.matmul(&b).t();
        let right = b.t().matmul(&a.t());
        left.assert_close(&right, 1e-4);
    }

    fn concat_narrow_round_trip(t in arb_tensor()) {
        let parts = t.split(0, 1);
        let refs: Vec<&Tensor> = parts.iter().collect();
        let back = Tensor::concat(&refs, 0);
        back.assert_close(&t, 0.0);
    }

    fn flip_involution(t in arb_tensor()) {
        t.flip(0).flip(0).assert_close(&t, 0.0);
    }

    fn moving_avg_bounded_by_extrema(data in vec_f32(-5.0, 5.0, 10)) {
        let t = Tensor::from_vec(data, &[10]);
        let m = t.moving_avg(0, 3);
        prop_assert!(m.max() <= t.max() + 1e-5);
        prop_assert!(m.min() >= t.min() - 1e-5);
    }

    fn cumsum_last_equals_sum(data in vec_f32(-5.0, 5.0, 8)) {
        let t = Tensor::from_vec(data, &[8]);
        let c = t.cumsum(0);
        prop_assert!((c.data()[7] - t.sum()).abs() < 1e-3);
    }
}

// SIMD/scalar equivalence over randomized shapes (DESIGN.md §8): the two
// backends may differ in the last ulp on fused/reassociated kernels, so
// these compare within a tolerance scaled by the reduction depth rather
// than bit-for-bit. On hosts without AVX2 both runs take the scalar path
// and the checks are trivially true. Case counts are modest — each case
// runs every kernel twice.
properties! {
    cases = 32;

    // m straddles the MR=4 microkernel tile, n stays below one NC=128
    // column panel, k crosses the KC=256 tile boundary (packed-B path).
    fn simd_gemm_matches_scalar(
        m in prop::usizes(1..10),
        k in prop::usizes(1..320),
        n in prop::usizes(1..140),
        seed in prop::usizes(0..10_000)
    ) {
        let mut rng = Rng::seed(seed as u64 + 1);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let (s, v) = on_both_backends(|| a.matmul(&b));
        let tol = 1e-5 * (k as f32) + 1e-5;
        prop_assert!(
            s.max_abs_diff(&v) <= tol,
            "gemm [{m},{k}]x[{k},{n}]: backends differ by {} (> {tol})",
            s.max_abs_diff(&v)
        );
    }

    fn simd_conv1d_and_backwards_match_scalar(
        b in prop::usizes(1..4),
        cin in prop::usizes(1..6),
        cout in prop::usizes(1..6),
        len in prop::usizes(1..40),
        ksize in prop::usizes(1..6),
        padding in prop::usizes(0..3),
        seed in prop::usizes(0..10_000)
    ) {
        let mut rng = Rng::seed(seed as u64 + 2);
        let x = Tensor::randn(&[b, len, cin], &mut rng);
        let w = Tensor::randn(&[cout, cin, ksize], &mut rng);
        let out_len = (len + 2 * padding).saturating_sub(ksize - 1);
        if out_len == 0 {
            return Ok(());
        }
        let go = Tensor::randn(&[b, out_len, cout], &mut rng);
        let (s, v) = on_both_backends(|| {
            (
                x.conv1d(&w, None, padding, 1),
                Tensor::conv1d_backward_input(&go, &w, &[b, len, cin], padding, 1),
                Tensor::conv1d_backward_weight(&go, &x, &[cout, cin, ksize], padding, 1),
            )
        });
        let tol = 1e-5 * (cin * ksize * out_len) as f32 + 1e-5;
        prop_assert!(s.0.max_abs_diff(&v.0) <= tol, "conv1d forward diverged");
        prop_assert!(s.1.max_abs_diff(&v.1) <= tol, "conv1d bwd_input diverged");
        prop_assert!(s.2.max_abs_diff(&v.2) <= tol, "conv1d bwd_weight diverged");
    }

    // Lengths cover the 8-lane remainder and both sides of the pairwise
    // block size; tolerance is relative, matching the tree-reduction bound.
    fn simd_sum_and_dot_match_scalar(
        n in prop::usizes(1..3000),
        seed in prop::usizes(0..10_000)
    ) {
        let mut rng = Rng::seed(seed as u64 + 3);
        let a = Tensor::randn(&[n], &mut rng);
        let b = Tensor::randn(&[n], &mut rng);
        let (s, v) = on_both_backends(|| (a.sum(), a.dot(&b)));
        prop_assert!(
            (s.0 - v.0).abs() <= 1e-4 * s.0.abs().max(1.0),
            "sum len {n}: {} vs {}", s.0, v.0
        );
        prop_assert!(
            (s.1 - v.1).abs() <= 1e-4 * s.1.abs().max(1.0),
            "dot len {n}: {} vs {}", s.1, v.1
        );
    }

    fn simd_transcendental_maps_match_scalar(data in vec_f32(-12.0, 12.0, 37)) {
        let t = Tensor::from_vec(data, &[37]);
        let (s, v) = on_both_backends(|| (t.exp(), t.sigmoid(), t.tanh(), t.gelu()));
        for (name, (sc, vc)) in [("exp", (&s.0, &v.0)), ("sigmoid", (&s.1, &v.1)),
                                 ("tanh", (&s.2, &v.2)), ("gelu", (&s.3, &v.3))] {
            for (x, y) in sc.data().iter().zip(vc.data()) {
                prop_assert!(
                    (x - y).abs() <= 4e-6 * x.abs().max(1.0),
                    "{name}: {x} vs {y}"
                );
            }
        }
    }

    fn simd_gru_layer_matches_scalar(
        b in prop::usizes(1..3),
        len in prop::usizes(0..8),
        input in prop::usizes(1..6),
        hs in prop::usizes(1..8),
        seed in prop::usizes(0..10_000)
    ) {
        let mut rng = Rng::seed(seed as u64 + 4);
        let x = Tensor::randn(&[b, len, input], &mut rng);
        let w_ih = Tensor::randn(&[input, 3 * hs], &mut rng);
        let w_hh = Tensor::randn(&[hs, 3 * hs], &mut rng);
        let b_ih = Tensor::randn(&[3 * hs], &mut rng);
        let b_hh = Tensor::randn(&[3 * hs], &mut rng);
        let go = Tensor::randn(&[b, len, hs], &mut rng);
        let (s, v) = on_both_backends(|| {
            let (out, stash) =
                crate::gru_layer_forward(&x, &w_ih, &w_hh, &b_ih, &b_hh, true);
            let g = crate::gru_layer_backward(
                &go, &x, &w_ih, &w_hh, &out, stash.as_ref().unwrap(),
            );
            (out, g.dx, g.dw_ih, g.dw_hh)
        });
        // Gates saturate, so absolute error stays small; BPTT compounds
        // per step, hence the len-scaled bound.
        let tol = 1e-4 * (len as f32 + 1.0);
        prop_assert!(s.0.max_abs_diff(&v.0) <= tol, "gru forward diverged");
        prop_assert!(s.1.max_abs_diff(&v.1) <= tol, "gru dx diverged");
        prop_assert!(s.2.max_abs_diff(&v.2) <= tol, "gru dw_ih diverged");
        prop_assert!(s.3.max_abs_diff(&v.3) <= tol, "gru dw_hh diverged");
    }
}
