//! Telemetry integration suite: span counts for a known kernel workload,
//! run-log round trips through the JSONL validator, per-op backward spans,
//! and the pool's serial-fallback counters.
//!
//! The span registry is process-global, so every case takes the same
//! exclusive lock and starts from `obs::reset()`.

use lttf::data::synth::{Dataset, SynthSpec};
use lttf::data::{Split, WindowDataset};
use lttf::eval::{train_logged, HealthConfig, ModelKind, StopReason, TrainOptions, TrainedModel};
use lttf::nn::attention::{window_global_backward, window_global_forward};
use lttf::obs;
use lttf::tensor::{Rng, Tensor};
use lttf_parallel::set_threads_override;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The registry and the thread override are process-global, so cases must
/// not interleave.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn span_calls(snap: &[obs::SpanSnapshot], name: &str) -> u64 {
    snap.iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.calls)
}

#[test]
fn span_counts_match_known_workload() {
    let _g = exclusive();
    obs::reset();
    let mut rng = Rng::seed(11);

    // All shapes exceed the instrumentation work thresholds
    // (`OBS_MIN_WORK`, `OBS_MIN_REDUCE`), so every call records exactly one span.
    let a = Tensor::randn(&[64, 64], &mut rng);
    let b = Tensor::randn(&[64, 64], &mut rng);
    for _ in 0..5 {
        std::hint::black_box(a.matmul(&b));
    }
    let x = Tensor::randn(&[4, 96, 8], &mut rng);
    let w = Tensor::randn(&[8, 8, 3], &mut rng);
    for _ in 0..3 {
        std::hint::black_box(x.conv1d(&w, None, 1, 1));
    }
    let wide = Tensor::randn(&[8, 128, 32], &mut rng);
    for _ in 0..2 {
        std::hint::black_box(wide.moving_avg(1, 7));
    }
    let q = Tensor::randn(&[8, 64, 16], &mut rng);
    std::hint::black_box(window_global_forward(&q, &q, &q, 1, 4, 2));
    let gout = Tensor::randn(&[8, 64, 16], &mut rng);
    std::hint::black_box(window_global_backward(&q, &q, &q, &gout, 1, 4, 2));
    // W^R's batched autocorrelation: 32 windows of 48 steps, 3 variables.
    let windows = Tensor::randn(&[32, 48, 3], &mut rng);
    for _ in 0..2 {
        std::hint::black_box(lttf::fft::autocorrelations(windows.data(), 48, 3));
    }

    let snap = obs::snapshot();
    assert_eq!(span_calls(&snap, "matmul"), 5, "snapshot: {snap:?}");
    assert_eq!(span_calls(&snap, "conv1d"), 3);
    assert_eq!(span_calls(&snap, "moving_avg"), 2);
    assert_eq!(span_calls(&snap, "window_attn_fwd"), 1);
    assert_eq!(span_calls(&snap, "window_attn_bwd"), 1);
    assert_eq!(span_calls(&snap, "autocorr"), 2);
    // Timing and byte totals are live for all of them.
    for name in [
        "matmul",
        "conv1d",
        "moving_avg",
        "window_attn_fwd",
        "window_attn_bwd",
        "autocorr",
    ] {
        let s = snap.iter().find(|s| s.name == name).unwrap();
        assert!(s.total_ns > 0, "{name} recorded no time");
        assert!(s.bytes > 0, "{name} recorded no bytes");
        assert!(s.min_ns <= s.max_ns);
    }
    // The backward reads q, k, v and the output gradient and writes a
    // gradient per input: seven tensors of the same size here.
    let bwd = snap.iter().find(|s| s.name == "window_attn_bwd").unwrap();
    assert_eq!(bwd.bytes, 7 * q.numel() as u64 * 4);
    // Each call reads the windows and writes one autocorrelation per
    // series, as many values again.
    let acorr = snap.iter().find(|s| s.name == "autocorr").unwrap();
    assert_eq!(acorr.bytes, 2 * 2 * windows.numel() as u64 * 4);
}

#[test]
fn forward_layout_copies_record_spans() {
    let _g = exclusive();
    obs::reset();
    let mut rng = Rng::seed(13);
    // 8192 elements, over the work threshold; the small tensor is under it.
    let big = Tensor::randn(&[8, 64, 16], &mut rng);
    let small = Tensor::randn(&[2, 3, 4], &mut rng);
    for t in [&big, &small] {
        std::hint::black_box(t.permute(&[2, 0, 1]));
        std::hint::black_box(t.swap_axes(1, 2));
        std::hint::black_box(t.swap_axes(0, 2));
        std::hint::black_box(t.reshape(&[t.numel()]));
    }

    let snap = obs::snapshot();
    // `swap_axes` is its own span, not a nested `permute`.
    assert_eq!(span_calls(&snap, "permute"), 1, "snapshot: {snap:?}");
    assert_eq!(span_calls(&snap, "swap_axes"), 2);
    assert_eq!(span_calls(&snap, "reshape"), 1);
    for name in ["permute", "swap_axes", "reshape"] {
        let s = snap.iter().find(|s| s.name == name).unwrap();
        assert!(s.bytes > 0, "{name} recorded no bytes");
    }
}

#[test]
fn backward_pass_records_per_op_spans() {
    let _g = exclusive();
    obs::reset();
    let mut rng = Rng::seed(12);
    let a = Tensor::randn(&[64, 64], &mut rng);
    let b = Tensor::randn(&[64, 64], &mut rng);

    let g = lttf::autograd::Graph::new();
    let va = g.leaf(a);
    let vb = g.leaf(b);
    let loss = va.matmul(vb).sum_all();
    let _grads = g.backward(loss);

    let snap = obs::snapshot();
    assert_eq!(span_calls(&snap, "backward"), 1);
    assert_eq!(obs::calls("bwd", "matmul"), 1);
    assert_eq!(obs::calls("bwd", "sum_all"), 1);
    // The per-op spans nest inside "backward", so its self time is less
    // than its total time.
    let bwd = snap.iter().find(|s| s.name == "backward").unwrap();
    assert!(bwd.self_ns <= bwd.total_ns);
}

#[test]
fn run_log_round_trips_through_validator() {
    let _g = exclusive();
    obs::reset();
    let series = Dataset::Ettm1.generate(SynthSpec {
        len: 600,
        dims: Some(2),
        seed: 5,
    });
    let mk = |split| WindowDataset::new(&series, split, (0.7, 0.15), 24, 8, 12);
    let (train_set, val_set) = (mk(Split::Train), mk(Split::Val));
    let mut model = TrainedModel::build(ModelKind::Gru, 2, 24, 8, 8, 2, 1);

    let dir = std::env::temp_dir().join("lttf_obs_test");
    let path = dir.join("tiny_gru.jsonl");
    let mut log = obs::RunLog::create(&path).expect("create run log");
    let opts = TrainOptions {
        epochs: 2,
        batch_size: 16,
        lr: 1e-3,
        patience: 0,
        lr_decay: 0.8,
        max_batches: 4,
        clip: 5.0,
        seed: 2,
        val_max_windows: usize::MAX,
        ..Default::default()
    };
    let report = train_logged(&mut model, &train_set, Some(&val_set), &opts, Some(&mut log));
    drop(log);

    let summary = obs::runlog::validate_file(&path).expect("run log must validate");
    assert_eq!(summary.name, "tiny_gru");
    assert_eq!(summary.epochs, report.train_losses.len());
    assert_eq!(summary.stop_reason, report.stop_reason.label());
    assert!(summary.spans > 0, "final span snapshot missing");

    // Epoch indices are 0-based and monotone; re-check directly so the
    // test does not rely only on the validator's own logic.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut next_epoch = 0i64;
    for line in text.lines() {
        let fields = obs::jsonl::parse_object(line).expect("every line parses");
        let event = obs::jsonl::field(&fields, "event").unwrap().as_str().unwrap();
        if event == "epoch" {
            let e = obs::jsonl::field(&fields, "epoch").unwrap().as_num().unwrap();
            assert_eq!(e as i64, next_epoch, "epoch indices must be monotone");
            next_epoch += 1;
        }
    }
    assert_eq!(next_epoch as usize, report.train_losses.len());
    assert_eq!(report.stop_reason, StopReason::MaxEpochs);
    std::fs::remove_file(&path).ok();
}

#[test]
fn watchdog_catches_injected_nan_and_names_a_layer() {
    let _g = exclusive();
    obs::reset();
    lttf::obs::health::set_global(None);
    let mut series = Dataset::Ettm1.generate(SynthSpec {
        len: 400,
        dims: Some(2),
        seed: 9,
    });
    // Inject a NaN into the raw series: the scaler, forward pass, loss,
    // and every gradient all get poisoned — the watchdog must still name
    // a concrete layer, not just "loss".
    series.values.data_mut()[37] = f32::NAN;
    let mk = |split| WindowDataset::new(&series, split, (0.7, 0.15), 24, 8, 12);
    let (train_set, val_set) = (mk(Split::Train), mk(Split::Val));
    let mut model = TrainedModel::build(ModelKind::Gru, 2, 24, 8, 8, 2, 1);

    let dir = std::env::temp_dir().join("lttf_obs_test");
    let path = dir.join("nan_watchdog.jsonl");
    let mut log = obs::RunLog::create(&path).expect("create run log");
    let opts = TrainOptions {
        epochs: 3,
        batch_size: 16,
        lr: 1e-3,
        patience: 0,
        lr_decay: 0.8,
        max_batches: 4,
        clip: 5.0,
        seed: 2,
        val_max_windows: usize::MAX,
        health: HealthConfig::every(1),
    };
    let report = train_logged(&mut model, &train_set, Some(&val_set), &opts, Some(&mut log));
    drop(log);

    assert_eq!(report.stop_reason, StopReason::Diverged);
    assert_eq!(report.stop_reason.label(), "diverged");
    assert_eq!(report.stopped_at, 1, "watchdog must halt in the first epoch");
    let d = report.divergence.expect("divergence detail");
    assert!(d.contains("NaN"), "{d}");
    assert!(!d.starts_with("loss"), "must name a parameter, not the loss: {d}");
    assert!(lttf::obs::health::is_diverged());
    let detail = lttf::obs::health::global().expect("global watchdog state");
    assert!(!detail.layer.is_empty());

    // The per-layer health records and the diverged stop reason both
    // survive the strict run-log validator.
    let summary = obs::runlog::validate_file(&path).expect("run log validates");
    assert_eq!(summary.stop_reason, "diverged");
    assert!(summary.health > 0, "expected health records, got none");
    lttf::obs::health::set_global(None);
    std::fs::remove_file(&path).ok();
}

#[test]
fn warn_only_watchdog_keeps_training() {
    let _g = exclusive();
    obs::reset();
    lttf::obs::health::set_global(None);
    let mut series = Dataset::Ettm1.generate(SynthSpec {
        len: 400,
        dims: Some(2),
        seed: 9,
    });
    series.values.data_mut()[37] = f32::NAN;
    let mk = |split| WindowDataset::new(&series, split, (0.7, 0.15), 24, 8, 12);
    let train_set = mk(Split::Train);
    let mut model = TrainedModel::build(ModelKind::Gru, 2, 24, 8, 8, 2, 1);
    let opts = TrainOptions {
        epochs: 2,
        batch_size: 16,
        lr: 1e-3,
        patience: 0,
        lr_decay: 0.8,
        max_batches: 3,
        clip: 5.0,
        seed: 2,
        val_max_windows: usize::MAX,
        health: HealthConfig {
            halt: false,
            ..HealthConfig::every(1)
        },
    };
    let report = train_logged(&mut model, &train_set, None, &opts, None);
    // Divergence is reported but training runs the full budget.
    assert!(report.divergence.is_some());
    assert_eq!(report.stop_reason, StopReason::MaxEpochs);
    assert_eq!(report.stopped_at, 2);
    lttf::obs::health::set_global(None);
}

#[test]
fn trace_records_kernel_spans_as_chrome_json() {
    let _g = exclusive();
    obs::reset();
    lttf::obs::trace::clear();
    lttf::obs::trace::set_enabled(true);
    let mut rng = Rng::seed(14);
    let a = Tensor::randn(&[64, 64], &mut rng);
    let b = Tensor::randn(&[64, 64], &mut rng);
    for _ in 0..3 {
        std::hint::black_box(a.matmul(&b));
    }
    lttf::obs::trace::set_enabled(false);

    let export = lttf::obs::trace::export_chrome();
    let summary = lttf::obs::trace::validate_chrome(&export.json).expect("trace validates");
    assert!(summary.slices >= 3, "expected matmul slices: {}", export.json);
    assert!(export.json.contains("\"name\":\"matmul\""), "{}", export.json);
    assert!(export.json.contains("\"thread_name\""), "{}", export.json);
    lttf::obs::trace::clear();
}

#[test]
fn pool_counts_serial_fallbacks() {
    let _g = exclusive();
    obs::reset();
    set_threads_override(Some(4));

    // A parallel region inside a parallel region: the inner regions run
    // on pool workers and must fall back to serial (counted as nested).
    let mut outer = vec![0.0f32; 4 * 256];
    lttf_parallel::par_chunks_mut(&mut outer, 256, |_, chunk| {
        let mut inner = vec![0.0f32; 4 * 64];
        lttf_parallel::par_chunks_mut(&mut inner, 64, |_, c2| {
            for v in c2.iter_mut() {
                *v = 1.0;
            }
        });
        chunk[0] = inner.iter().sum();
    });
    set_threads_override(None);

    let nested = obs::calls("", "pool.serial_nested");
    let contended = obs::calls("", "pool.serial_contended");
    // At least one inner region ran on a worker (nested) or hit the
    // dispatch lock while the outer region held it (contended); either
    // way the fallback is counted, never silent.
    assert!(
        nested + contended > 0,
        "nested parallel regions were not counted (nested={nested}, contended={contended})"
    );
    // The outer region itself went parallel.
    assert!(obs::calls("", "pool.regions") >= 1);
    assert!(obs::calls("", "pool.tasks") >= 4);
}

#[test]
fn telemetry_preserves_thread_count_determinism() {
    let _g = exclusive();
    obs::reset();
    let mut rng = Rng::seed(13);
    let a = Tensor::randn(&[96, 96], &mut rng);
    let b = Tensor::randn(&[96, 96], &mut rng);
    set_threads_override(Some(1));
    let reference = a.matmul(&b);
    for threads in [2, 4, 8] {
        set_threads_override(Some(threads));
        let got = a.matmul(&b);
        for (x, y) in reference.data().iter().zip(got.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
        }
    }
    set_threads_override(None);
    // Spans recorded while sweeping: 1 reference + 3 sweep calls.
    assert_eq!(obs::calls("", "matmul"), 4);
}

#[test]
fn flame_paths_add_up_to_each_sites_self_time() {
    let _g = exclusive();
    obs::reset();
    let mut rng = Rng::seed(17);
    // 32 Mi multiply-adds split across the pool; with SIMD kernels k > KC
    // takes the packed gemm, whose `gemm.pack` span opens on every thread
    // that runs a block. The 16 sleeping tasks put spans on the workers
    // on either backend.
    let a = Tensor::randn(&[256, 512], &mut rng);
    let b = Tensor::randn(&[512, 256], &mut rng);
    set_threads_override(Some(4));
    std::hint::black_box(a.matmul(&b));
    let mut rows = vec![0.0f32; 16];
    lttf_parallel::par_chunks_mut(&mut rows, 1, |_, row| {
        let _s = obs::scoped("", "obs_test_pool_task");
        std::thread::sleep(std::time::Duration::from_millis(1));
        row[0] = 1.0;
    });
    set_threads_override(None);

    let flame = obs::flame::render();
    obs::flame::validate_collapsed(&flame).expect("rendered flame validates");
    let snap = obs::snapshot();
    let me = std::thread::current();
    let root = me.name().unwrap_or("unnamed");
    let mut by_site = std::collections::BTreeMap::<&str, u64>::new();
    let mut under_matmul = 0;
    for line in flame.lines() {
        let (stack, ns) = line.rsplit_once(' ').unwrap();
        let ns: u64 = ns.parse().unwrap();
        *by_site.entry(stack.rsplit(';').next().unwrap()).or_default() += ns;
        if stack.starts_with(&format!("{root};matmul")) {
            under_matmul += ns;
        }
    }
    assert!(
        flame.lines().any(|l| l.starts_with("lttf-par-")),
        "no span on a pool worker:\n{flame}"
    );
    for s in snap.iter().filter(|s| s.kind == obs::Kind::Span) {
        assert_eq!(by_site.get(s.name.as_str()).copied().unwrap_or(0), s.self_ns, "{}", s.name);
    }
    assert_eq!(by_site.len(), snap.iter().filter(|s| s.self_ns > 0).count());
    // The matmul and the spans nested under it on this thread: their
    // self-times add back up to the matmul's wall time.
    let matmul = snap.iter().find(|s| s.name == "matmul").unwrap();
    assert_eq!(under_matmul, matmul.total_ns);
}
