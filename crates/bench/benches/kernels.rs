//! Benches for the substrate kernels: matmul, conv1d, moving average,
//! FFT autocorrelation, GRU step, and dataset generation.
//!
//! Run with `cargo bench --bench kernels`; emits JSON-lines records to
//! stdout and `results/BENCH_kernels.json` (see `lttf_testkit::bench`).
//! `LTTF_SIMD=0` times the scalar side of the same kernels.

use lttf_autograd::Graph;
use lttf_data::synth::{Dataset, SynthSpec};
use lttf_fft::autocorrelation;
use lttf_nn::{Fwd, Gru, ParamSet};
use lttf_tensor::{Rng, Tensor};
use lttf_testkit::bench::Suite;
use std::hint::black_box;

// The program's allocator, in both builds: `scripts/bench_check.sh`
// compares this suite with telemetry on and off, and only with it
// installed does that comparison include the allocation hook and its
// per-span charge.
#[global_allocator]
static GLOBAL: lttf_obs::alloc::CountingAlloc = lttf_obs::alloc::CountingAlloc;

fn bench_matmul(s: &mut Suite) {
    for n in [32usize, 64, 128] {
        let mut rng = Rng::seed(1);
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        s.bench(&format!("matmul/{n}"), || black_box(a.matmul(&b)));
    }
}

fn bench_conv1d(s: &mut Suite) {
    let mut rng = Rng::seed(2);
    let x = Tensor::randn(&[8, 96, 16], &mut rng);
    let w = Tensor::randn(&[16, 16, 3], &mut rng);
    s.bench("conv1d_8x16x96_k3", || black_box(x.conv1d(&w, None, 1, 1)));
}

fn bench_moving_avg(s: &mut Suite) {
    let mut rng = Rng::seed(3);
    let x = Tensor::randn(&[8, 96, 16], &mut rng);
    s.bench("moving_avg_96_k13", || black_box(x.moving_avg(1, 13)));
}

fn bench_autocorrelation(s: &mut Suite) {
    for n in [96usize, 768] {
        let sig: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
        s.bench(&format!("fft_autocorrelation/{n}"), || {
            black_box(autocorrelation(&sig))
        });
    }
}

fn bench_gru_forward(s: &mut Suite) {
    let mut ps = ParamSet::new();
    let mut rng = Rng::seed(4);
    let gru = Gru::new(&mut ps, "g", 16, 16, 1, 0.0, &mut rng);
    let x = Tensor::randn(&[8, 96, 16], &mut rng);
    s.bench("gru_forward_8x96x16", || {
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        black_box(gru.forward(&cx, g.leaf(x.clone())).outputs.value())
    });
}

fn bench_dataset_generation(s: &mut Suite) {
    for ds in [Dataset::Ecl, Dataset::Wind, Dataset::AirDelay] {
        s.bench(&format!("dataset_generation/{}", ds.name()), || {
            black_box(ds.generate(SynthSpec {
                len: 2_000,
                dims: Some(8.min(ds.default_dims())),
                seed: 5,
            }))
        });
    }
}

fn main() {
    let mut suite = Suite::new("kernels");
    bench_matmul(&mut suite);
    bench_conv1d(&mut suite);
    bench_moving_avg(&mut suite);
    bench_autocorrelation(&mut suite);
    bench_gru_forward(&mut suite);
    bench_dataset_generation(&mut suite);
    suite.finish();
}
