//! Thread-scaling benches for the fork-join runtime: the same workloads at
//! 1, 2, 4, and default (`available_parallelism`) threads, swept in-process
//! via `lttf_parallel::set_threads_override`.
//!
//! Run with `cargo bench --bench parallel_scaling`; emits JSON-lines
//! records to stdout and `results/BENCH_parallel_scaling.json`. Because
//! chunking is static, every thread count produces bit-identical tensors —
//! only the wall clock changes.

use lttf_bench::{series_for, splits};
use lttf_data::synth::Dataset;
use lttf_eval::{ModelKind, Scale, TrainedModel};
use lttf_parallel::set_threads_override;
use lttf_tensor::{Rng, Tensor};
use lttf_testkit::bench::Suite;
use std::hint::black_box;

fn main() {
    // Multi-millisecond benches calibrate to iters=1; the floor plus the
    // warmup keeps one cold call out of the gated medians
    // (scripts/bench_check.sh gates on this suite).
    let mut suite = Suite::new("parallel_scaling").samples(10).warmup(3).min_iters(3);

    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&default_threads) {
        counts.push(default_threads);
    }

    // End-to-end model workload: one Conformer forward over a batch, plus
    // the batch=1 single-request shape the serving tier sees — the row the
    // intra-request parallelism work is gated on (threads must no longer
    // be flat at batch=1).
    let series = series_for(Dataset::Etth1, Scale::Small, 1);
    let (train_set, _, _) = splits(&series, 96, 48, 48);
    let model = TrainedModel::build(ModelKind::Conformer, series.dims(), 96, 48, 32, 4, 1);
    let batch = train_set.batch(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let single = train_set.batch(&[0]);

    // Kernel workloads sized like the attention/embedding hot path.
    let mut rng = Rng::seed(7);
    let mm_a = Tensor::randn(&[32, 96, 64], &mut rng);
    let mm_b = Tensor::randn(&[32, 64, 96], &mut rng);
    let conv_x = Tensor::randn(&[16, 256, 32], &mut rng);
    let conv_w = Tensor::randn(&[32, 32, 3], &mut rng);

    for &t in &counts {
        set_threads_override(Some(t));
        suite.bench(&format!("model_forward/threads={t}"), || {
            black_box(model.predict_batch(&batch))
        });
        suite.bench(&format!("model_forward_b1/threads={t}"), || {
            black_box(model.predict_batch(&single))
        });
        suite.bench(&format!("matmul_32x96x64/threads={t}"), || {
            black_box(mm_a.matmul(&mm_b))
        });
        suite.bench(&format!("conv1d_16x32x256/threads={t}"), || {
            black_box(conv_x.conv1d(&conv_w, None, 1, 1))
        });
    }
    set_threads_override(None);

    suite.finish();
}
