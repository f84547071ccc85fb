//! SIMD-vs-scalar microkernel benches: every dispatched kernel family at
//! serving-relevant shapes, run once with the backend forced to scalar and
//! once with SIMD preferred, so the committed results show exactly what
//! the AVX2+FMA path buys per kernel.
//!
//! Run with `cargo bench --bench simd_kernels`; emits JSON-lines records
//! to stdout and `results/BENCH_simd_kernels.json`. Row names end in
//! `/simd=off` / `/simd=on`; on hosts without AVX2+FMA the two are the
//! same scalar code and the header makes that visible.

use lttf_tensor::simd::{backend_name, set_simd_override};
use lttf_tensor::{gru_layer_forward, Rng, Tensor};
use lttf_testkit::bench::Suite;
use std::hint::black_box;

struct Workloads {
    // gemm: attention-projection shape, a k > KC shape that exercises the
    // packed B-panel, and a skinny m % MR != 0 shape from the decoder.
    mm_sq_a: Tensor,
    mm_sq_b: Tensor,
    mm_deep_a: Tensor,
    mm_deep_b: Tensor,
    mm_skinny_a: Tensor,
    mm_skinny_b: Tensor,
    conv_x: Tensor,
    conv_w: Tensor,
    conv_go: Tensor,
    red_a: Tensor,
    red_b: Tensor,
    gru_x: Tensor,
    gru_w_ih: Tensor,
    gru_w_hh: Tensor,
    gru_b_ih: Tensor,
    gru_b_hh: Tensor,
}

fn workloads() -> Workloads {
    let mut rng = Rng::seed(11);
    Workloads {
        mm_sq_a: Tensor::randn(&[96, 64], &mut rng),
        mm_sq_b: Tensor::randn(&[64, 96], &mut rng),
        mm_deep_a: Tensor::randn(&[48, 384], &mut rng),
        mm_deep_b: Tensor::randn(&[384, 64], &mut rng),
        mm_skinny_a: Tensor::randn(&[3, 96], &mut rng),
        mm_skinny_b: Tensor::randn(&[96, 48], &mut rng),
        conv_x: Tensor::randn(&[1, 96, 32], &mut rng),
        conv_w: Tensor::randn(&[32, 32, 3], &mut rng),
        conv_go: Tensor::randn(&[1, 96, 32], &mut rng),
        red_a: Tensor::randn(&[65_536], &mut rng),
        red_b: Tensor::randn(&[65_536], &mut rng),
        gru_x: Tensor::randn(&[1, 96, 32], &mut rng),
        gru_w_ih: Tensor::randn(&[32, 96], &mut rng),
        gru_w_hh: Tensor::randn(&[32, 96], &mut rng),
        gru_b_ih: Tensor::randn(&[96], &mut rng),
        gru_b_hh: Tensor::randn(&[96], &mut rng),
    }
}

fn bench_backend(suite: &mut Suite, w: &Workloads, tag: &str) {
    suite.bench(&format!("gemm_96x64x96/{tag}"), || {
        black_box(w.mm_sq_a.matmul(&w.mm_sq_b))
    });
    suite.bench(&format!("gemm_48x384x64_packedB/{tag}"), || {
        black_box(w.mm_deep_a.matmul(&w.mm_deep_b))
    });
    suite.bench(&format!("gemm_3x96x48_edge/{tag}"), || {
        black_box(w.mm_skinny_a.matmul(&w.mm_skinny_b))
    });
    suite.bench(&format!("conv1d_1x32x96_k3/{tag}"), || {
        black_box(w.conv_x.conv1d(&w.conv_w, None, 1, 1))
    });
    suite.bench(&format!("conv1d_bwd_input_1x32x96_k3/{tag}"), || {
        black_box(Tensor::conv1d_backward_input(
            &w.conv_go,
            &w.conv_w,
            &[1, 96, 32],
            1,
            1,
        ))
    });
    suite.bench(&format!("sum_65536/{tag}"), || black_box(w.red_a.sum()));
    suite.bench(&format!("dot_65536/{tag}"), || {
        black_box(w.red_a.dot(&w.red_b))
    });
    suite.bench(&format!("exp_65536/{tag}"), || black_box(w.red_a.exp()));
    suite.bench(&format!("mul_65536/{tag}"), || {
        black_box(w.red_a.mul(&w.red_b))
    });
    suite.bench(&format!("gru_layer_1x96x32/{tag}"), || {
        black_box(gru_layer_forward(
            &w.gru_x,
            &w.gru_w_ih,
            &w.gru_w_hh,
            &w.gru_b_ih,
            &w.gru_b_hh,
            false,
        ))
    });
}

fn main() {
    let mut suite = Suite::new("simd_kernels").warmup(3);
    let w = workloads();

    set_simd_override(Some(false));
    eprintln!("simd=off backend: {}", backend_name());
    bench_backend(&mut suite, &w, "simd=off");

    set_simd_override(Some(true));
    eprintln!("simd=on  backend: {}", backend_name());
    bench_backend(&mut suite, &w, "simd=on");

    set_simd_override(None);
    suite.finish();
}
