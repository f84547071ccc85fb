//! Thread-count determinism suite: every parallel kernel must produce
//! bit-identical bytes whether it runs on 1, 4, 8, or the default number
//! of threads.
//!
//! This is the load-bearing guarantee of `lttf-parallel`'s static-chunking
//! design — reproducibility of training runs cannot depend on the machine's
//! core count. Each case sweeps `set_threads_override` and compares raw
//! f32 bit patterns, not approximate values.
//!
//! Since the SIMD microkernels landed, the contract is per kernel *backend*
//! (DESIGN.md §8): scalar and AVX2+FMA may differ in the last ulp, but each
//! backend alone must stay bit-identical across every thread count. The
//! `*_on_both_simd_backends` cases pin each backend in turn via
//! `set_simd_override` and re-run the thread sweep, and the lane-parallel
//! binary ops (`add`/`sub`/`mul`/`div`) are additionally asserted
//! bit-identical *across* backends.

use lttf::nn::attention::{window_global_backward, window_global_forward};
use lttf::tensor::simd::set_simd_override;
use lttf::tensor::{Rng, Tensor};
use lttf_parallel::set_threads_override;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The override is process-global, so cases that sweep it must not
/// interleave with each other.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Thread counts swept by every case: serial, oversubscribed, and default.
const SWEEP: [Option<usize>; 3] = [Some(4), Some(8), None];

/// Run `f` at 1 thread, then at each sweep point, asserting the output
/// bytes never change.
fn assert_bit_identical(label: &str, f: impl Fn() -> Vec<Tensor>) {
    set_threads_override(Some(1));
    let reference = f();
    for &threads in &SWEEP {
        set_threads_override(threads);
        let got = f();
        set_threads_override(None);
        assert_eq!(reference.len(), got.len());
        for (ti, (a, b)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(a.shape(), b.shape(), "{label}: shape drift at output {ti}");
            for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: bit mismatch at output {ti}, element {i} \
                     ({x} vs {y}) with threads={threads:?}"
                );
            }
        }
    }
}

#[test]
fn matmul_2d_is_thread_count_invariant() {
    let _g = exclusive();
    let mut rng = Rng::seed(101);
    let a = Tensor::randn(&[128, 128], &mut rng);
    let b = Tensor::randn(&[128, 128], &mut rng);
    assert_bit_identical("matmul_2d", || vec![a.matmul(&b)]);
}

#[test]
fn batched_matmul_is_thread_count_invariant() {
    let _g = exclusive();
    let mut rng = Rng::seed(102);
    let a = Tensor::randn(&[16, 48, 32], &mut rng);
    let b = Tensor::randn(&[16, 32, 48], &mut rng);
    let shared = Tensor::randn(&[32, 48], &mut rng);
    assert_bit_identical("matmul_3d", || vec![a.matmul(&b), a.matmul(&shared)]);
}

#[test]
fn conv1d_is_thread_count_invariant() {
    let _g = exclusive();
    let mut rng = Rng::seed(103);
    let x = Tensor::randn(&[8, 96, 16], &mut rng);
    let w = Tensor::randn(&[16, 16, 3], &mut rng);
    let bias = Tensor::randn(&[16], &mut rng);
    assert_bit_identical("conv1d", || vec![x.conv1d(&w, Some(&bias), 1, 1)]);
    let go = Tensor::randn(&[8, 96, 16], &mut rng);
    assert_bit_identical("conv1d_backward_input", || {
        vec![Tensor::conv1d_backward_input(&go, &w, &[8, 96, 16], 1, 1)]
    });
}

#[test]
fn window_attention_is_thread_count_invariant() {
    let _g = exclusive();
    let mut rng = Rng::seed(104);
    let q = Tensor::randn(&[8, 64, 16], &mut rng);
    let k = Tensor::randn(&[8, 64, 16], &mut rng);
    let v = Tensor::randn(&[8, 64, 16], &mut rng);
    assert_bit_identical("window_forward", || {
        vec![window_global_forward(&q, &k, &v, 4, 8, 2)]
    });
    let gout = Tensor::randn(&[8, 64, 16], &mut rng);
    assert_bit_identical("window_backward", || {
        window_global_backward(&q, &k, &v, &gout, 4, 8, 2)
    });
}

#[test]
fn reductions_and_maps_are_thread_count_invariant() {
    let _g = exclusive();
    let mut rng = Rng::seed(105);
    let big = Tensor::randn(&[300_000], &mut rng);
    let other = Tensor::randn(&[300_000], &mut rng);
    assert_bit_identical("sum_dot_map_zip", || {
        vec![
            Tensor::from_vec(vec![big.sum()], &[1]),
            Tensor::from_vec(vec![big.dot(&other)], &[1]),
            big.exp(),
            big.mul(&other),
        ]
    });
    let wide = Tensor::randn(&[64, 128, 32], &mut rng);
    assert_bit_identical("axis_reductions_moving_avg", || {
        vec![
            wide.sum_axis(1),
            wide.mean_axis_keepdim(2),
            wide.moving_avg(1, 13),
        ]
    });
}

/// Every dispatched kernel, swept across thread counts with each SIMD
/// backend pinned in turn. Shapes deliberately hit the gemm edge cases
/// (m % MR != 0, k > KC forces the packed-panel path).
#[test]
fn kernels_are_thread_count_invariant_on_both_simd_backends() {
    let _g = exclusive();
    let mut rng = Rng::seed(106);
    let a = Tensor::randn(&[66, 300], &mut rng);
    let b = Tensor::randn(&[300, 48], &mut rng);
    let x = Tensor::randn(&[4, 96, 8], &mut rng);
    let w = Tensor::randn(&[8, 8, 3], &mut rng);
    let go = Tensor::randn(&[4, 96, 8], &mut rng);
    let big = Tensor::randn(&[200_000], &mut rng);
    let other = Tensor::randn(&[200_000], &mut rng);
    let gx = Tensor::randn(&[2, 12, 6], &mut rng);
    let w_ih = Tensor::randn(&[6, 24], &mut rng);
    let w_hh = Tensor::randn(&[8, 24], &mut rng);
    let b_ih = Tensor::randn(&[24], &mut rng);
    let b_hh = Tensor::randn(&[24], &mut rng);
    for backend in [Some(false), Some(true)] {
        set_simd_override(backend);
        assert_bit_identical(&format!("all_kernels simd={backend:?}"), || {
            let (gru_out, stash) =
                lttf::tensor::gru_layer_forward(&gx, &w_ih, &w_hh, &b_ih, &b_hh, true);
            let gg = lttf::tensor::gru_layer_backward(
                &gru_out,
                &gx,
                &w_ih,
                &w_hh,
                &gru_out,
                stash.as_ref().unwrap(),
            );
            vec![
                a.matmul(&b),
                x.conv1d(&w, None, 1, 1),
                Tensor::conv1d_backward_input(&go, &w, &[4, 96, 8], 1, 1),
                Tensor::conv1d_backward_weight(&go, &x, &[8, 8, 3], 1, 1),
                Tensor::from_vec(vec![big.sum()], &[1]),
                Tensor::from_vec(vec![big.dot(&other)], &[1]),
                big.exp(),
                big.mul(&other),
                gru_out,
                gg.dx,
                gg.dw_hh,
            ]
        });
    }
    set_simd_override(None);
}

/// The lane-parallel binary ops are the one family whose bytes must agree
/// *across* backends too — the SIMD path only widens the stride and never
/// reassociates (DESIGN.md §8).
#[test]
fn lane_parallel_binary_ops_agree_across_simd_backends() {
    let _g = exclusive();
    let mut rng = Rng::seed(107);
    let a = Tensor::randn(&[150_003], &mut rng);
    let b = Tensor::randn(&[150_003], &mut rng).add_scalar(3.0);
    let run = || vec![a.add(&b), a.sub(&b), a.mul(&b), a.div(&b)];
    set_simd_override(Some(false));
    let scalar = run();
    set_simd_override(Some(true));
    let simd = run();
    set_simd_override(None);
    for (ti, (s, v)) in scalar.iter().zip(&simd).enumerate() {
        for (i, (&x, &y)) in s.data().iter().zip(v.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "binary op {ti}: backend divergence at element {i} ({x} vs {y})"
            );
        }
    }
}
