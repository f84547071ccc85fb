//! `lttf` — command-line forecasting with the Conformer reproduction.
//!
//! Subcommands:
//!
//! * `generate` — write one of the seven synthetic datasets to CSV,
//! * `train` — train Conformer on a CSV, report test metrics, and save a
//!   checkpoint (+ sidecar config),
//! * `forecast` — load a checkpoint and forecast the steps after the end
//!   of a CSV, with normalizing-flow uncertainty bands.
//!
//! ```sh
//! lttf generate --dataset wind --len 2000 --out wind.csv
//! lttf train --data wind.csv --target Wind_Power --lx 96 --ly 48 \
//!            --epochs 3 --out wind_model
//! lttf forecast --data wind.csv --model wind_model --samples 50
//! lttf trace profile --smoke   # Chrome trace of the inner command
//! ```

use lttf::conformer::{Conformer, ConformerConfig};
use lttf::data::synth::{Dataset, SynthSpec};
use lttf::data::{read_csv, write_csv, Freq, Split, TimeSeries, WindowDataset, MARK_DIM};
use lttf::eval::{evaluate, train_logged, HealthConfig, TrainOptions, TrainedModel};
use lttf::nn::{load_params, save_params_with_meta, Fwd, ParamSet};
use lttf::obs::RunLog;
use lttf::tensor::{Rng, Tensor};
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  lttf generate --dataset <ecl|weather|exchange|etth1|ettm1|wind|airdelay> \
         [--len N] [--dims N] [--seed N] --out FILE.csv\n  \
         lttf train --data FILE.csv --target COL [--lx N] [--ly N] [--d-model N] \
         [--epochs N] [--seed N] [--log NAME] [--health-every N] [--health-acts] \
         [--health-warn-only] [--health-max-grad-norm X] --out MODEL\n  \
         lttf forecast --data FILE.csv --model MODEL [--samples N] [--coverage P]\n  \
         lttf profile [--smoke] [--mode train|fwd] [--epochs N] [--lx N] [--ly N] \
         [--d-model N] [--batch N] [--len N] [--dims N] [--seed N] [--threads N] \
         [--name NAME] [--out-dir DIR] [--health-every N] [--health-acts] \
         [--health-warn-only] [--health-max-grad-norm X]\n  \
         lttf serve --model MODEL [--port N] [--max-batch N] [--max-wait-ms N] \
         [--queue-cap N] [--replicas N] [--policy rr|lqd] [--threads-per-replica N] \
         [--seed N] [--rate RPS] [--burst N] [--shed-depth N] \
         [--drift-threshold X] [--drift-min-count N] \
         [--sessions N] [--session-ttl-ms N] [--adapt] [--adapt-lr X] [--adapt-steps N] \
         [--adapt-batch N] [--adapt-buffer N] [--adapt-min-examples N] \
         [--adapt-interval-ms N]\n  \
         lttf watch [--port N] [--host H] [--interval-ms N] [--iters N] [--model NAME] \
         [--scrape-out FILE.prom] [--no-clear]\n  \
         lttf bench-serve [--mode scaling|stream|memory|all] [--threads N] [--requests N] \
         [--out-dir DIR]   (--threads/--requests size the memory burst)\n  \
         lttf trace [--trace-out FILE.json] <subcommand …>   \
         (record a Chrome trace of any subcommand; open in chrome://tracing)\n  \
         lttf flame [--flame-out FILE.txt] <subcommand …>   \
         (write each span path's self-time in ns as collapsed stacks \
         for flamegraph.pl/inferno)"
    );
    exit(2);
}

/// `--key value` pairs, plus valueless boolean flags (`--smoke`): a flag
/// followed by another `--flag` or by nothing parses as `"true"`. A key
/// outside `keys`, the flags `lttf <cmd>` reads, exits 2: a mistyped or
/// retired flag must not be silently ignored.
fn parse_flags(cmd: &str, keys: &[&str], args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            eprintln!("unexpected argument '{}'", args[i]);
            usage();
        };
        if !keys.contains(&key) {
            eprintln!("unknown flag --{key} for lttf {cmd}");
            exit(2);
        }
        if i + 1 >= args.len() || args[i + 1].starts_with("--") {
            map.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            map.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        }
    }
    map
}

fn flag_set(flags: &HashMap<String, String>, key: &str) -> bool {
    flags.get(key).is_some_and(|v| v != "false" && v != "0")
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    flags
        .get(key)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{key}: '{v}'");
                exit(2);
            })
        })
        .unwrap_or(default)
}

fn require<'a>(flags: &'a HashMap<String, String>, key: &str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing required flag --{key}");
        usage();
    })
}

/// Training health-monitor flags shared by `train` and `profile`:
/// `--health-every N` turns the monitor on (scan cadence in batches),
/// `--health-acts` adds activation scans, `--health-warn-only` keeps
/// training through a divergence, `--health-max-grad-norm X` sets the
/// exploding-gradient threshold.
fn health_flags(flags: &HashMap<String, String>) -> HealthConfig {
    HealthConfig {
        cadence: get(flags, "health-every", 0usize),
        activations: flag_set(flags, "health-acts"),
        max_grad_norm: get(flags, "health-max-grad-norm", 1e4f64),
        halt: !flag_set(flags, "health-warn-only"),
    }
}

/// Byte counts with a binary-unit suffix for the watch dashboard
/// (mirrors the profile report's formatting; `-` when nothing measured,
/// e.g. the instrumented allocator is compiled out).
fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    if b == 0 {
        return "-".to_string();
    }
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b}B")
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

fn dataset_by_name(name: &str) -> Dataset {
    match name.to_ascii_lowercase().as_str() {
        "ecl" => Dataset::Ecl,
        "weather" => Dataset::Weather,
        "exchange" => Dataset::Exchange,
        "etth1" => Dataset::Etth1,
        "ettm1" => Dataset::Ettm1,
        "wind" => Dataset::Wind,
        "airdelay" => Dataset::AirDelay,
        other => {
            eprintln!("unknown dataset '{other}'");
            exit(2);
        }
    }
}

fn cmd_generate(flags: HashMap<String, String>) {
    let ds = dataset_by_name(require(&flags, "dataset"));
    let len = get(&flags, "len", 2_000usize);
    let dims = flags.get("dims").map(|v| get(&flags, "dims", v.len()));
    let seed = get(&flags, "seed", 42u64);
    let out = require(&flags, "out");
    let series = ds.generate(SynthSpec { len, dims, seed });
    write_csv(&series, out).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!(
        "wrote {} ({} steps x {} vars, target '{}')",
        out,
        series.len(),
        series.dims(),
        series.names[series.target]
    );
}

fn cmd_train(flags: HashMap<String, String>) {
    let data = require(&flags, "data");
    let target = require(&flags, "target");
    let lx = get(&flags, "lx", 96usize);
    let ly = get(&flags, "ly", 48usize);
    let d_model = get(&flags, "d-model", 16usize);
    let epochs = get(&flags, "epochs", 3usize);
    let seed = get(&flags, "seed", 1u64);
    let out = require(&flags, "out");

    let series = read_csv(data, target, Freq::Irregular).unwrap_or_else(|e| {
        eprintln!("cannot read {data}: {e}");
        exit(1);
    });
    println!(
        "loaded {}: {} steps x {} vars",
        data,
        series.len(),
        series.dims()
    );
    let mk = |split| WindowDataset::new(&series, split, (0.7, 0.1), lx, ly, lx / 2);
    let (train_set, val_set, test_set) = (mk(Split::Train), mk(Split::Val), mk(Split::Test));

    let mut cfg = ConformerConfig::new(series.dims(), lx, ly);
    cfg.d_model = d_model;
    cfg.n_heads = if d_model.is_multiple_of(4) { 4 } else { 2 };
    cfg.multiscale_strides = vec![1, (lx / 4).max(2)];
    let mut model = TrainedModel::from_conformer(&cfg, seed);
    println!(
        "training Conformer ({} params, {epochs} epochs)…",
        model.num_parameters()
    );
    // Optional structured run log: `--log NAME` writes
    // results/runs/NAME.jsonl (see lttf_obs::runlog for the schema).
    let mut run_log = flags.get("log").map(|name| {
        RunLog::create(format!("results/runs/{name}.jsonl")).unwrap_or_else(|e| {
            eprintln!("cannot create run log: {e}");
            exit(1);
        })
    });
    let report = train_logged(
        &mut model,
        &train_set,
        Some(&val_set),
        &TrainOptions {
            epochs,
            batch_size: 16,
            lr: 1e-3,
            patience: 2,
            lr_decay: 0.7,
            max_batches: 60,
            clip: 5.0,
            seed,
            val_max_windows: usize::MAX,
            health: health_flags(&flags),
        },
        run_log.as_mut(),
    );
    if let Some(d) = &report.divergence {
        eprintln!("health watchdog: {d}");
    }
    for (e, l) in report.train_losses.iter().enumerate() {
        println!("  epoch {e}: train loss {l:.4}");
    }
    println!(
        "stopped after {} epoch(s): {}",
        report.stopped_at, report.stop_reason
    );
    if let Some(log) = &run_log {
        println!("run log: {}", log.path().display());
    }
    println!("test: {}", evaluate(&model, &test_set, 16));

    // Checkpoint metadata carries the train-split scaler statistics so
    // `lttf serve` can round-trip raw inputs without the training CSV,
    // plus a per-feature reference profile of the same raw train rows so
    // the server's drift monitor has a baseline to compare traffic to.
    let mut meta = lttf::serve::scaler_meta(train_set.scaler(), target, train_set.target());
    let n_train = (series.len() as f32 * 0.7) as usize;
    let train_view = series.values.narrow(0, 0, n_train.max(2));
    let profile = lttf::eval::fit_reference_profile(&train_view);
    println!(
        "drift reference: {} features over {} train steps",
        profile.features.len(),
        profile.count
    );
    meta.extend(profile.to_meta());
    save_params_with_meta(model.params(), &meta, format!("{out}.params")).unwrap_or_else(|e| {
        eprintln!("cannot save checkpoint: {e}");
        exit(1);
    });
    cfg.save_sidecar(target, &format!("{out}.config"))
        .unwrap_or_else(|e| {
            eprintln!("cannot save config: {e}");
            exit(1);
        });
    println!("saved {out}.params / {out}.config");
}

/// Assemble the single forecast window at the end of the series.
fn final_window(
    series: &TimeSeries,
    cfg: &ConformerConfig,
) -> (Tensor, Tensor, Tensor, Tensor, lttf::data::StandardScaler) {
    let scaler = lttf::data::StandardScaler::fit(&series.values);
    let scaled = scaler.transform(&series.values);
    let n = series.len();
    let (lx, ly, label) = (cfg.lx, cfg.ly, cfg.label_len);
    assert!(n >= lx, "series shorter than the input window");
    let x = scaled.narrow(0, n - lx, lx).reshape(&[1, lx, cfg.c_in]);
    let marks = series.marks();
    let xm = marks.narrow(0, n - lx, lx).reshape(&[1, lx, MARK_DIM]);
    let dec_known = scaled.narrow(0, n - label, label);
    let dec = Tensor::concat(&[&dec_known, &Tensor::zeros(&[ly, cfg.c_in])], 0).reshape(&[
        1,
        label + ly,
        cfg.c_in,
    ]);
    // future marks: extrapolate timestamps at the median recent gap
    let gap = if n >= 2 {
        (series.timestamps[n - 1] - series.timestamps[n - 1 - (n - 1).min(20)])
            / (n - 1).min(20) as i64
    } else {
        3600
    };
    let mut mark_rows = Vec::new();
    for t in n - label..n {
        mark_rows.extend_from_slice(&lttf::data::time_features(series.timestamps[t]));
    }
    for i in 1..=ly {
        let ts = series.timestamps[n - 1] + gap.max(1) * i as i64;
        mark_rows.extend_from_slice(&lttf::data::time_features(ts));
    }
    let dm = Tensor::from_vec(mark_rows, &[1, label + ly, MARK_DIM]);
    (x, xm, dec, dm, scaler)
}

fn cmd_forecast(flags: HashMap<String, String>) {
    let data = require(&flags, "data");
    let model_base = require(&flags, "model");
    let samples = get(&flags, "samples", 50usize);
    let cov = get(&flags, "coverage", 0.9f32);

    let (cfg, target) =
        ConformerConfig::load_sidecar(&format!("{model_base}.config")).unwrap_or_else(|e| {
            eprintln!("cannot read {model_base}.config: {e}");
            exit(1);
        });
    let series = read_csv(data, &target, Freq::Irregular).unwrap_or_else(|e| {
        eprintln!("cannot read {data}: {e}");
        exit(1);
    });
    assert_eq!(
        series.dims(),
        cfg.c_in,
        "CSV has {} vars but the model expects {}",
        series.dims(),
        cfg.c_in
    );
    let mut ps = ParamSet::new();
    let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
    load_params(&mut ps, format!("{model_base}.params")).unwrap_or_else(|e| {
        eprintln!("cannot load checkpoint: {e}");
        exit(1);
    });

    let (x, xm, dec, dm, scaler) = final_window(&series, &cfg);
    let (point, lo, hi) = model.predict_with_uncertainty(&ps, &x, &xm, &dec, &dm, samples, cov, 7);
    let t_col = series.target;
    let inv = |t: &Tensor| scaler.inverse_transform(t);
    let (p, l, h) = (inv(&point), inv(&lo), inv(&hi));
    println!(
        "forecast of '{}' for the next {} steps ({}% interval, {} samples):",
        target,
        cfg.ly,
        (cov * 100.0) as u32,
        samples
    );
    println!("step,point,lo,hi");
    for t in 0..cfg.ly {
        println!(
            "{t},{:.4},{:.4},{:.4}",
            p.at(&[0, t, t_col]),
            l.at(&[0, t, t_col]),
            h.at(&[0, t, t_col])
        );
    }
}

/// `lttf profile`: run a short synthetic Conformer workload with the span
/// registry reset at the start, then print the self-time table, pool
/// utilization, and a loss summary, and write a JSONL run log under
/// `results/runs/`. `--smoke` selects a seconds-scale configuration used
/// by CI; `--mode fwd` profiles forward+backward passes without training.
/// The model defaults to the benchmark's canonical one (c_in 3, lx 48,
/// ly 24, d_model 16), so the table ranks the spans the ledger's
/// `train_step` pays for.
fn cmd_profile(flags: HashMap<String, String>) {
    let smoke = flag_set(&flags, "smoke");
    let mode = flags.get("mode").map(String::as_str).unwrap_or("train");
    let lx = get(&flags, "lx", 48usize);
    let ly = get(&flags, "ly", 24usize);
    let d_model = get(&flags, "d-model", 16usize);
    let batch = get(&flags, "batch", 32usize);
    let epochs = get(&flags, "epochs", if smoke { 2 } else { 3 });
    let len = get(&flags, "len", if smoke { 1_200 } else { 2_400 });
    let dims = get(&flags, "dims", 3usize);
    let seed = get(&flags, "seed", 7u64);
    // Default to at least two workers so the pool's parallel path (and
    // its utilization gauges) are exercised even on one-core machines —
    // results are bit-identical at any thread count.
    let threads = get(&flags, "threads", lttf::parallel::num_threads().max(2));
    let default_name = if smoke { "profile_smoke" } else { "profile" };
    let name = flags
        .get("name")
        .map(String::as_str)
        .unwrap_or(default_name)
        .to_string();
    let out_dir = flags
        .get("out-dir")
        .map(String::as_str)
        .unwrap_or("results/runs");
    lttf::parallel::set_threads_override(Some(threads.max(1)));

    let series = Dataset::Ettm1.generate(SynthSpec {
        len,
        dims: Some(dims),
        seed,
    });
    let mk = |split| WindowDataset::new(&series, split, (0.7, 0.15), lx, ly, lx / 2);
    let (train_set, val_set) = (mk(Split::Train), mk(Split::Val));
    let mut cfg = ConformerConfig::new(dims, lx, ly);
    cfg.d_model = d_model;
    cfg.n_heads = if d_model.is_multiple_of(4) { 4 } else { 2 };
    cfg.multiscale_strides = vec![1, (lx / 4).max(2)];
    let mut model = TrainedModel::from_conformer(&cfg, seed);
    println!(
        "profiling Conformer ({} params) on synthetic ettm1: mode {mode}, \
         lx {lx}, ly {ly}, d_model {d_model}, batch {batch}, {} threads, \
         kernels {}",
        model.num_parameters(),
        lttf::parallel::num_threads(),
        lttf::tensor::simd::backend_name(),
    );

    // Profile only what runs below, not process warm-up.
    lttf::obs::reset();
    let mut log = RunLog::create(format!("{out_dir}/{name}.jsonl")).unwrap_or_else(|e| {
        eprintln!("cannot create run log: {e}");
        exit(1);
    });
    let opts = TrainOptions {
        epochs,
        batch_size: batch,
        lr: 1e-3,
        patience: 2,
        lr_decay: 0.7,
        max_batches: if smoke { 12 } else { 0 },
        clip: 5.0,
        seed,
        val_max_windows: if smoke { 64 } else { usize::MAX },
        health: health_flags(&flags),
    };
    match mode {
        "train" => {
            let report = train_logged(&mut model, &train_set, Some(&val_set), &opts, Some(&mut log));
            println!();
            println!(
                "loss curve: {} epoch(s), train {:.4} -> {:.4}, best val {}, stop: {}",
                report.stopped_at,
                report.train_losses.first().copied().unwrap_or(f32::NAN),
                report.train_losses.last().copied().unwrap_or(f32::NAN),
                report
                    .val_losses
                    .iter()
                    .copied()
                    .fold(f32::INFINITY, f32::min),
                report.stop_reason,
            );
        }
        "fwd" => {
            // Forward+backward passes over fixed batches, no optimizer.
            let reps = epochs.max(1) * if smoke { 4 } else { 8 };
            let idx: Vec<usize> = (0..train_set.len().min(batch)).collect();
            let fwd_batch = train_set.batch(&idx);
            log.start(&name, "Conformer", lttf::parallel::num_threads(), 0, batch, 0.0)
                .unwrap_or_else(|e| eprintln!("warning: run log write failed: {e}"));
            let t0 = std::time::Instant::now();
            let mut last_loss = f32::NAN;
            for rep in 0..reps {
                let g = lttf::autograd::Graph::new();
                let cx = Fwd::new(&g, model.params(), true, seed.wrapping_add(rep as u64));
                let loss = model.batch_loss(&cx, &fwd_batch);
                last_loss = loss.value().item();
                let _ = g.backward(loss);
            }
            log.end("max_epochs", 0, None, t0.elapsed().as_secs_f64())
                .and_then(|_| log.spans())
                .unwrap_or_else(|e| eprintln!("warning: run log write failed: {e}"));
            println!();
            println!("{reps} forward+backward passes, final loss {last_loss:.4}");
        }
        other => {
            eprintln!("unknown profile mode '{other}' (expected train|fwd)");
            exit(2);
        }
    }

    println!();
    print!("{}", lttf::obs::report::render(&lttf::obs::snapshot()));
    println!();
    println!("run log: {}", log.path().display());
}

/// Render the span path table as collapsed stacks, validate them
/// against the strict in-repo parser, and write them to `path` (the
/// `lttf flame` wrapper).
fn write_flame(path: &str) {
    let collapsed = lttf::obs::flame::render();
    let summary = lttf::obs::flame::validate_collapsed(&collapsed).unwrap_or_else(|e| {
        eprintln!("internal error: collapsed stacks failed validation: {e}");
        exit(1);
    });
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).ok();
        }
    }
    if let Err(e) = std::fs::write(path, &collapsed) {
        eprintln!("cannot write flame output to {path}: {e}");
        exit(1);
    }
    println!(
        "flame: {} ns self-time over {} stacks ({} roots) -> {path} \
         (collapsed format; feed to inferno/flamegraph.pl)",
        summary.weight, summary.stacks, summary.roots
    );
}

/// `lttf serve`: load a checkpoint and answer forecast requests over TCP
/// (newline-delimited JSON, see `lttf_serve::protocol`). Runs until stdin
/// reaches EOF or a line saying `quit`, then drains in-flight work and
/// prints the latency summary.
fn cmd_serve(flags: HashMap<String, String>) {
    let model_base = require(&flags, "model");
    let port = get(&flags, "port", 7878u16);
    let policy: lttf::serve::Policy = flags
        .get("policy")
        .map(String::as_str)
        .unwrap_or("rr")
        .parse()
        .unwrap_or_else(|e: String| {
            eprintln!("{e}");
            exit(2);
        });
    let threads_per_replica = get(&flags, "threads-per-replica", 0usize);
    let rate = get(&flags, "rate", 0.0f64);
    let shed_depth = get(&flags, "shed-depth", 0usize);
    // Unset batching flags ship the library's policy.
    let batch = lttf::serve::BatchConfig::default();
    let serve_cfg = lttf::serve::ServeConfig {
        batch: lttf::serve::BatchConfig {
            max_batch: get(&flags, "max-batch", batch.max_batch),
            max_wait_ms: get(&flags, "max-wait-ms", batch.max_wait_ms),
            queue_cap: get(&flags, "queue-cap", batch.queue_cap),
        },
        replicas: get(&flags, "replicas", 1usize),
        policy,
        threads_per_replica: (threads_per_replica > 0).then_some(threads_per_replica),
        seed: get(&flags, "seed", 0u64),
        admission: lttf::serve::AdmissionConfig {
            rate: (rate > 0.0).then_some(rate),
            burst: get(&flags, "burst", 16.0f64),
            shed_depth: (shed_depth > 0).then_some(shed_depth),
            ..lttf::serve::AdmissionConfig::default()
        },
        drift: lttf::serve::DriftConfig {
            threshold: get(&flags, "drift-threshold", 1.0f64),
            min_count: get(&flags, "drift-min-count", 64u64),
            ..lttf::serve::DriftConfig::default()
        },
        session: lttf::serve::SessionConfig {
            max_sessions: get(&flags, "sessions", 256usize),
            ttl_ms: get(&flags, "session-ttl-ms", 600_000u64),
        },
        adapt: lttf::serve::AdaptConfig {
            enabled: flag_set(&flags, "adapt"),
            lr: get(&flags, "adapt-lr", 1e-3f32),
            steps: get(&flags, "adapt-steps", 4usize),
            batch: get(&flags, "adapt-batch", 8usize),
            buffer: get(&flags, "adapt-buffer", 64usize),
            min_examples: get(&flags, "adapt-min-examples", 8usize),
            interval_ms: get(&flags, "adapt-interval-ms", 500u64),
            ..lttf::serve::AdaptConfig::default()
        },
    };
    let model = lttf::serve::LoadedModel::load(model_base).unwrap_or_else(|e| {
        eprintln!("cannot load {model_base}: {e}");
        exit(1);
    });
    let name = std::path::Path::new(model_base)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("default")
        .to_string();
    println!(
        "serving '{}' (target '{}', lx {}, ly {}) as model '{name}'; drift monitor {}",
        model_base,
        model.target(),
        model.cfg().lx,
        model.cfg().ly,
        if model.profile().is_some() {
            "armed (checkpoint carries a reference profile)"
        } else {
            "unavailable (no reference profile in checkpoint — retrain to enable)"
        },
    );
    let registry = lttf::serve::Registry::single(&name, model);
    let handle = lttf::serve::serve(registry, &format!("127.0.0.1:{port}"), serve_cfg)
        .unwrap_or_else(|e| {
            eprintln!("cannot bind port {port}: {e}");
            exit(1);
        });
    println!(
        "listening on {} ({} replica(s), {:?} dispatch, max_batch {}, max_wait {} ms, \
         queue {}/replica); hot reload with {{\"cmd\":\"reload\",\"path\":…}}; \
         send requests with e.g. `nc 127.0.0.1 {port}`; \
         type 'quit' or close stdin to stop",
        handle.addr(),
        serve_cfg.replicas,
        serve_cfg.policy,
        serve_cfg.batch.max_batch,
        serve_cfg.batch.max_wait_ms,
        serve_cfg.batch.queue_cap,
    );
    println!(
        "sessions: up to {} (ttl {} s) via {{\"cmd\":\"open\"}}/{{\"cmd\":\"push\"}}/{{\"cmd\":\"close\"}}; \
         online adaptation {}",
        serve_cfg.session.max_sessions,
        serve_cfg.session.ttl_ms / 1000,
        if serve_cfg.adapt.enabled {
            format!(
                "ON (lr {:.0e}, {} steps, drift-triggered every {} ms)",
                serve_cfg.adapt.lr, serve_cfg.adapt.steps, serve_cfg.adapt.interval_ms
            )
        } else {
            "off (enable with --adapt)".to_string()
        },
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    println!("shutting down (draining in-flight requests)…");
    for (name, summary) in handle.shutdown() {
        println!("{name}: {}", summary.render());
    }
}

/// One request/response round trip on the watch connection. Exits the
/// process on IO failure — a dashboard with a dead server has nothing
/// left to do.
fn watch_roundtrip(
    writer: &mut std::net::TcpStream,
    reader: &mut std::io::BufReader<std::net::TcpStream>,
    line: &str,
) -> String {
    use std::io::{BufRead, Write};
    writeln!(writer, "{line}").and_then(|_| writer.flush()).unwrap_or_else(|e| {
        eprintln!("send failed: {e}");
        exit(1);
    });
    let mut resp = String::new();
    match reader.read_line(&mut resp) {
        Ok(0) => {
            eprintln!("server closed the connection");
            exit(1);
        }
        Ok(_) => resp.trim_end().to_string(),
        Err(e) => {
            eprintln!("recv failed: {e}");
            exit(1);
        }
    }
}

/// `lttf watch`: a live terminal dashboard over a running `lttf serve`.
/// Each `--interval-ms` it makes one `metrics` round trip, validates the
/// exposition, and renders trailing-window latency, per-request cost,
/// memory, flow rates, the drift verdict, sessions and the adapter from
/// its series. `--model` picks the model; without it the exposition must
/// carry exactly one. With `--scrape-out FILE` the same exposition is
/// **appended** as one period-stamped JSONL snapshot line
/// (`{"t_ms":…,"iter":…,"metrics":…}`), so a watch run preserves its
/// whole scrape history instead of keeping only the last tick (CI
/// validates the file with `metrics_check`, which checks every
/// snapshot). `--iters N` stops after N ticks (0 = forever).
fn cmd_watch(flags: HashMap<String, String>) {
    use lttf::serve::protocol::{format_metrics_request, parse_metrics_response};
    let host = flags.get("host").map(String::as_str).unwrap_or("127.0.0.1");
    let port = get(&flags, "port", 7878u16);
    let interval_ms = get(&flags, "interval-ms", 1000u64);
    let iters = get(&flags, "iters", 0u64);
    let model = flags.get("model").cloned();
    let scrape_out = flags.get("scrape-out").cloned();
    let clear = !flag_set(&flags, "no-clear");

    let addr = format!("{host}:{port}");
    let stream = std::net::TcpStream::connect(&addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        exit(1);
    });
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("cannot clone stream: {e}");
        exit(1);
    });
    let mut reader = std::io::BufReader::new(stream);

    // A fresh watch run starts a fresh scrape history; each tick appends
    // one snapshot line below.
    if let Some(path) = &scrape_out {
        std::fs::write(path, b"").unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            exit(1);
        });
    }
    let epoch = std::time::Instant::now();
    let mut tick = 0u64;
    loop {
        tick += 1;
        let resp = watch_roundtrip(&mut writer, &mut reader, &format_metrics_request(tick));
        let text = match parse_metrics_response(&resp) {
            Ok((_, Ok(text))) => text,
            Ok((_, Err(e))) | Err(e) => {
                eprintln!("metrics error: {e}");
                exit(1);
            }
        };
        let doc = lttf::obs::metrics::validate(&text).unwrap_or_else(|e| {
            eprintln!("invalid exposition: {e}");
            exit(1);
        });
        let models = doc.label_values("lttf_serve_generation", "model");
        let name = match (&model, models.as_slice()) {
            (Some(m), _) if models.contains(&m.as_str()) => m.as_str(),
            (Some(m), _) => {
                eprintln!("unknown model '{m}'");
                exit(1);
            }
            (None, [only]) => only,
            (None, _) => {
                let (n, names) = (models.len(), models.join(", "));
                eprintln!("the server fronts {n} models ({names}); pick one with --model");
                exit(1);
            }
        };
        // Absent series read 0: an empty window emits no quantiles.
        let v = |metric: &str, labels: &[(&str, &str)]| doc.get(metric, labels).unwrap_or(0.0);
        let m = [("model", name)];
        let gen = v("lttf_serve_generation", &m).to_string();
        // A windowed quantile of the serving generation.
        let q = |metric: &str, quantile: &str| {
            v(metric, &[("model", name), ("gen", gen.as_str()), ("quantile", quantile)])
        };
        let ms = |metric: &str, quantile: &str| q(metric, quantile) * 1e3;
        let bytes = |b: f64| fmt_bytes(b as u64);
        if clear {
            // ANSI clear + home; suppressible for logs and dumb terminals.
            print!("\x1b[2J\x1b[H");
        }
        println!("lttf watch — '{name}' @ {addr} (tick {tick})");
        println!(
            "  gen {gen} | {} replica(s) | queue {} | served {} lifetime, {} in last {:.0}s",
            v("lttf_serve_replicas", &m),
            v("lttf_serve_queue_depth", &m),
            v("lttf_serve_requests_served_total", &m),
            v("lttf_serve_window_requests", &[("model", name), ("gen", &gen)]),
            v("lttf_serve_window_seconds", &m),
        );
        let latency = "lttf_serve_latency_seconds";
        println!(
            "  latency   p50 {:.2} ms   p95 {:.2} ms   p99 {:.2} ms (window)",
            ms(latency, "0.5"),
            ms(latency, "0.95"),
            ms(latency, "0.99")
        );
        println!(
            "  phases    queue-wait p50 {:.2} ms | service p50 {:.2} ms",
            ms("lttf_serve_queue_wait_seconds", "0.5"),
            ms("lttf_serve_service_time_seconds", "0.5")
        );
        println!(
            "  cost      cpu p50 {:.2} ms p95 {:.2} ms | alloc p50 {} p95 {} per request",
            q("lttf_request_cpu_ns", "0.5") / 1e6,
            q("lttf_request_cpu_ns", "0.95") / 1e6,
            bytes(q("lttf_request_alloc_bytes", "0.5")),
            bytes(q("lttf_request_alloc_bytes", "0.95")),
        );
        println!(
            "  memory    {} live | {} peak",
            bytes(v("lttf_mem_live_bytes", &[])),
            bytes(v("lttf_mem_peak_bytes", &[])),
        );
        println!(
            "  flows     shed {:.2}/s   rejected {:.2}/s   resubmitted {:.2}/s",
            v("lttf_serve_shed_per_second", &[]),
            v("lttf_serve_rejected_per_second", &[]),
            v("lttf_serve_resubmitted_per_second", &[])
        );
        if v("lttf_drift_available", &m) == 1.0 {
            let scores = (0..)
                .map_while(|i: usize| {
                    let feature = i.to_string();
                    doc.get("lttf_drift_score", &[("model", name), ("feature", &feature)])
                })
                .map(|s| format!("{s:.2}"))
                .collect::<Vec<_>>()
                .join(" ");
            println!(
                "  drift     {} | scores [{scores}] pred {:.2} thr {:.1} (n={})",
                if v("lttf_drift_alert", &m) == 1.0 { "ALERT" } else { "ok" },
                v("lttf_drift_prediction_score", &m),
                v("lttf_drift_threshold", &m),
                v("lttf_drift_window_count", &m),
            );
        } else {
            println!("  drift     unavailable (checkpoint has no reference profile)");
        }
        println!(
            "  sessions  {} open | {} opened | {} evicted",
            v("lttf_sessions_open", &[]),
            v("lttf_sessions_opened_total", &[]),
            v("lttf_session_evictions_total", &[])
        );
        if v("lttf_adapt_enabled", &[]) == 1.0 {
            let state = doc.label_values("lttf_adapt_state", "state");
            println!(
                "  adapt     {} | steps {} | published {} | rolled back {} | \
                 overhead {:.0} ms cpu, {} alloc",
                state.first().copied().unwrap_or("off"),
                v("lttf_adapt_steps_total", &[]),
                v("lttf_adapt_publishes_total", &[]),
                v("lttf_adapt_rollbacks_total", &[]),
                v("lttf_adapt_cpu_seconds_total", &[]) * 1e3,
                bytes(v("lttf_adapt_alloc_bytes_total", &[])),
            );
        } else {
            println!("  adapt     off (serve with --adapt to enable)");
        }
        if let Some(path) = &scrape_out {
            let line = lttf::obs::JsonObj::new()
                .int("t_ms", epoch.elapsed().as_millis() as u64)
                .int("iter", tick)
                .str("metrics", &text)
                .finish();
            use std::io::Write as _;
            std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"))
                .unwrap_or_else(|e| {
                    eprintln!("cannot append to {path}: {e}");
                    exit(1);
                });
            println!(
                "  scrape    appended snapshot {tick} to {path} ({} bytes)",
                text.len()
            );
        }
        if iters > 0 && tick >= iters {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// One closed-loop client run against a freshly started server: `threads`
/// clients each send `per_thread` requests back-to-back over their own
/// connection. Returns (elapsed, client-observed latencies).
fn bench_serve_run(
    addr: std::net::SocketAddr,
    threads: usize,
    per_thread: usize,
    window: &[f32],
) -> (std::time::Duration, lttf::serve::LatencySummary) {
    use std::io::{BufRead, BufReader, Write};
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mut req = bench_request(window);
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut lat = lttf::obs::hist::Histogram::new();
                let mut resp = String::new();
                for i in 0..per_thread {
                    req.id = (t * per_thread + i) as u64;
                    let line = lttf::serve::protocol::format_request(&req);
                    let sent = std::time::Instant::now();
                    writeln!(writer, "{line}").expect("send");
                    resp.clear();
                    reader.read_line(&mut resp).expect("recv");
                    lat.record(sent.elapsed().as_nanos() as u64);
                    let meta =
                        lttf::serve::protocol::parse_response_meta(resp.trim_end()).expect("parse");
                    meta.result.expect("request failed");
                }
                lat
            })
        })
        .collect();
    let mut lat = lttf::obs::hist::Histogram::new();
    for h in handles {
        lat.merge(&h.join().expect("client thread"));
    }
    (t0.elapsed(), (&lat).into())
}

/// The one-shot forecast request both load generators send, re-stamped
/// with a fresh id before each send.
fn bench_request(window: &[f32]) -> lttf::serve::protocol::Request {
    lttf::serve::protocol::Request {
        id: 0,
        values: window.to_vec(),
        t0: 1_700_000_000,
        dt: 3600,
        deadline_ms: None,
        model: None,
    }
}

/// Peak of [`bursty_envelope`], the thinning bound of [`arrival_schedule`].
const BURSTY_PEAK: f64 = 1.75;

/// Arrival-rate multiplier `t` seconds into an open-loop run: a 400 ms
/// square wave, 1.75x for 200 ms, then 0.25x — a burst train.
fn bursty_envelope(t: f64) -> f64 {
    if (t / 0.4).fract() < 0.5 {
        BURSTY_PEAK
    } else {
        0.25
    }
}

/// One client's deterministic arrival schedule (seconds from run start):
/// a Poisson process at `rate` req/s shaped by [`bursty_envelope`] via
/// thinning. The same seed always yields the same offered traffic.
fn arrival_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = Rng::seed(seed);
    let lam_max = (rate * BURSTY_PEAK).max(1e-9);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += rng.exponential(lam_max as f32) as f64;
        if t >= duration {
            return out;
        }
        let keep = bursty_envelope(t) * rate / lam_max;
        if (rng.uniform(0.0, 1.0) as f64) < keep {
            out.push(t);
        }
    }
}

/// Aggregated outcome of one open-loop run.
struct OpenLoopOutcome {
    sent: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    stats: lttf::obs::hist::Histogram,
    elapsed: std::time::Duration,
    first_error: Option<String>,
}

/// Open-loop load generation: `clients` independent connections, each
/// firing requests on a precomputed seeded schedule totalling `rate`
/// req/s across the fleet, in bursts. Arrivals are paced by the
/// schedule, not by responses (a lagging client sends its overdue
/// requests back-to-back), so offered load keeps pressing a saturated
/// server — exactly what distinguishes open- from closed-loop load.
///
/// Refusals carrying a `retry_after_ms` hint (admission control, full
/// queues) count as `shed`, separately from hard failures.
fn open_loop_run(
    addr: std::net::SocketAddr,
    clients: usize,
    rate: f64,
    duration: f64,
    seed: u64,
    window: &[f32],
) -> OpenLoopOutcome {
    use std::io::{BufRead, BufReader, Write};
    let per_client = rate / clients.max(1) as f64;
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let sched = arrival_schedule(
                seed.wrapping_mul(0x9e37_79b9).wrapping_add(c as u64),
                per_client,
                duration,
            );
            let mut req = bench_request(window);
            std::thread::spawn(move || {
                let mut out = OpenLoopOutcome {
                    sent: 0,
                    completed: 0,
                    shed: 0,
                    failed: 0,
                    stats: lttf::obs::hist::Histogram::new(),
                    elapsed: std::time::Duration::ZERO,
                    first_error: None,
                };
                let Ok(stream) = std::net::TcpStream::connect(addr) else {
                    out.failed = sched.len() as u64;
                    out.first_error = Some("connect failed".to_string());
                    return out;
                };
                let _ = stream.set_nodelay(true);
                // Replies always come (the server answers every request,
                // shed or served); the timeout only guards a dead server.
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let start = std::time::Instant::now();
                let mut resp = String::new();
                for (k, &at) in sched.iter().enumerate() {
                    // Pace by the schedule; if the previous reply arrived
                    // late, fire immediately (the backlog is part of the
                    // offered load, not forgiven).
                    let due = std::time::Duration::from_secs_f64(at);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    req.id = ((c as u64) << 32) | k as u64;
                    let line = lttf::serve::protocol::format_request(&req);
                    let sent_at = std::time::Instant::now();
                    if writeln!(writer, "{line}").is_err() {
                        out.failed += 1;
                        continue;
                    }
                    out.sent += 1;
                    resp.clear();
                    if reader.read_line(&mut resp).is_err() || resp.is_empty() {
                        out.failed += 1;
                        if out.first_error.is_none() {
                            out.first_error = Some("no reply".to_string());
                        }
                        continue;
                    }
                    match lttf::serve::protocol::parse_response_meta(resp.trim_end()) {
                        Ok(meta) => match meta.result {
                            Ok(_) => {
                                out.completed += 1;
                                out.stats.record(sent_at.elapsed().as_nanos() as u64);
                            }
                            Err(_) if meta.retry_after_ms.is_some() => out.shed += 1,
                            Err(e) => {
                                out.failed += 1;
                                if out.first_error.is_none() {
                                    out.first_error = Some(e);
                                }
                            }
                        },
                        Err(e) => {
                            out.failed += 1;
                            if out.first_error.is_none() {
                                out.first_error = Some(e);
                            }
                        }
                    }
                }
                out.elapsed = start.elapsed();
                out
            })
        })
        .collect();
    let mut total = OpenLoopOutcome {
        sent: 0,
        completed: 0,
        shed: 0,
        failed: 0,
        stats: lttf::obs::hist::Histogram::new(),
        elapsed: std::time::Duration::ZERO,
        first_error: None,
    };
    for h in handles {
        let c = h.join().expect("client thread");
        total.sent += c.sent;
        total.completed += c.completed;
        total.shed += c.shed;
        total.failed += c.failed;
        total.stats.merge(&c.stats);
        if total.first_error.is_none() {
            total.first_error = c.first_error;
        }
    }
    total.elapsed = t0.elapsed();
    total
}

/// The host's physical parallelism, recorded alongside scaling numbers so
/// a reader can judge them in context.
fn host_cores() -> u64 {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64
}

/// Outcome of streaming one regime-shift series through a session.
struct StreamOutcome {
    pushes: u64,
    forecasts: u64,
    failed: u64,
    adapted_forecasts: u64,
    publishes: u64,
    rollbacks: u64,
    pre: lttf::eval::ErrorAccum,
    post: lttf::eval::ErrorAccum,
    first_error: Option<String>,
}

/// Stream `series` row-by-row through a session on the server at `addr`
/// and score every returned forecast against the known future.
///
/// Forecasts whose horizon lies entirely before `shift_at` score into
/// `pre`; forecasts starting at or after `shift_at` score into `post`
/// (straddling horizons are skipped so the two numbers are clean).
/// `pace` is slept after every post-shift push so a background adapter
/// has wall-clock time to observe drift and publish while the tail of
/// the stream is still arriving.
#[allow(clippy::too_many_arguments)]
fn stream_series(
    addr: std::net::SocketAddr,
    series: &Tensor,
    ly: usize,
    shift_at: usize,
    target_col: usize,
    t0: i64,
    dt: i64,
    pace: std::time::Duration,
) -> StreamOutcome {
    use lttf::serve::protocol as proto;
    use std::io::{BufRead, BufReader, Write};
    let (len, dims) = (series.shape()[0], series.shape()[1]);
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    let mut ask = |writer: &mut std::net::TcpStream, line: String| -> String {
        writeln!(writer, "{line}").expect("send");
        resp.clear();
        reader.read_line(&mut resp).expect("recv");
        resp.trim_end().to_string()
    };

    let mut out = StreamOutcome {
        pushes: 0,
        forecasts: 0,
        failed: 0,
        adapted_forecasts: 0,
        publishes: 0,
        rollbacks: 0,
        pre: lttf::eval::ErrorAccum::new(),
        post: lttf::eval::ErrorAccum::new(),
        first_error: None,
    };

    let open = ask(&mut writer, proto::format_open(0, None, t0, dt));
    let (_, opened) = proto::parse_open_response(&open).expect("open parse");
    let (session, _window_rows) = opened.expect("open refused");

    let fail = |out: &mut StreamOutcome, e: String| {
        out.failed += 1;
        if out.first_error.is_none() {
            out.first_error = Some(e);
        }
    };
    for t in 0..len {
        let row: Vec<f32> = (0..dims).map(|d| series.at(&[t, d])).collect();
        let reply = ask(&mut writer, proto::format_push(1 + t as u64, session, &row));
        out.pushes += 1;
        match proto::parse_push_response(&reply) {
            Ok((_, Ok(proto::PushReply::Pending(_)))) => {}
            Ok((_, Ok(proto::PushReply::Forecast {
                adapted, forecast, ..
            }))) => {
                out.forecasts += 1;
                if adapted {
                    out.adapted_forecasts += 1;
                }
                // The window ends at row t, so the forecast covers rows
                // t+1 .. t+1+ly. Score it if the future is in the series.
                let start = t + 1;
                if start + ly <= len {
                    let truth = lttf::eval::horizon_truth(series, start, ly, target_col);
                    if start >= shift_at {
                        out.post.observe(&forecast, &truth);
                    } else if start + ly <= shift_at {
                        out.pre.observe(&forecast, &truth);
                    }
                }
            }
            Ok((_, Err(e))) => fail(&mut out, e),
            Err(e) => fail(&mut out, e),
        }
        if t >= shift_at && !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }

    // Ids past the pushes' 1..=len, inside the protocol's 0..2^53.
    let (metrics_id, close_id) = (len as u64 + 1, len as u64 + 2);
    let metrics = ask(&mut writer, proto::format_metrics_request(metrics_id));
    if let Ok((_, Ok(text))) = proto::parse_metrics_response(&metrics) {
        if let Ok(doc) = lttf::obs::metrics::validate(&text) {
            let total = |name| doc.get(name, &[]).unwrap_or(0.0) as u64;
            out.publishes = total("lttf_adapt_publishes_total");
            out.rollbacks = total("lttf_adapt_rollbacks_total");
        }
    }
    let closed = ask(&mut writer, proto::format_close(close_id, session));
    let _ = proto::parse_close_response(&closed).expect("close parse");
    out
}

/// Start a bench server for `model` on an ephemeral loopback port.
fn bench_server(
    model: lttf::serve::LoadedModel,
    cfg: lttf::serve::ServeConfig,
) -> lttf::serve::ServerHandle {
    let registry = lttf::serve::Registry::single("bench", model);
    lttf::serve::serve(registry, "127.0.0.1:0", cfg).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        exit(1);
    })
}

/// `lttf bench-serve`: the serving-tier runs that `scripts/bench_check.sh`
/// and `scripts/ci.sh` gate on.
///
/// * `--mode scaling` — the replica-scaling curve: seeded bursty
///   open-loop traffic against 1, 2, and 4 replicas
///   (`open_loop_bursty/replicas_N` and `replica_speedup` rows).
/// * `--mode stream` — the regime-shift streaming comparison: train a
///   small Conformer on the pre-shift half of a synthetic series with an
///   abrupt 5σ level shift, stream the whole series through a session
///   (`open`/`push`/`close`) against a frozen server and against one
///   with drift-triggered online adaptation, and record pre/post-shift
///   MSE for both (`stream_frozen` / `stream_adapted` rows).
/// * `--mode memory` — peak bytes and allocations per request over a
///   closed-loop burst of `--threads` clients x `--requests` each
///   (`BENCH_memory.json`).
/// * `--mode all` (default) — all three: scaling and stream rows go to
///   `BENCH_serve.json`, the memory row to `BENCH_memory.json`.
///
/// The workloads are the constants below, the values every committed
/// row was recorded at. Scaling runs give the model a **service-time
/// floor**: each batch forward takes at least that long, sleeping out the
/// remainder. This calibrates the bench to a realistic model service time
/// and — crucially on small CI hosts — isolates the serving tier being
/// measured (dispatch, queues, batching) from raw model compute, which
/// would otherwise serialize every replica onto however few cores the
/// host has. The floor and the host's core count are recorded in every
/// affected entry.
fn cmd_bench_serve(flags: HashMap<String, String>) {
    use lttf::obs::JsonObj;
    use lttf::serve::{AdaptConfig, BatchConfig, DriftConfig, LoadedModel, ServeConfig};
    const SEED: u64 = 42;
    // Scaling: open-loop clients, aggregate offered req/s, run length.
    const CLIENTS: usize = 160;
    const RATE: f64 = 900.0;
    const DURATION_S: f64 = 4.0;
    const SERVICE_FLOOR_MS: f64 = 40.0;
    // Stream: series rows, level shift in train stds, model window.
    const STREAM_LEN: usize = 640;
    const STREAM_SHIFT: f32 = 5.0;
    const STREAM_LX: usize = 24;
    const STREAM_LY: usize = 8;
    // Memory: the model and batching the burst runs against.
    const LX: usize = 48;
    const D_MODEL: usize = 16;
    const MAX_BATCH: usize = 8;
    const MAX_WAIT_MS: u64 = 2;

    let mode = flags.get("mode").map(String::as_str).unwrap_or("all");
    if !matches!(mode, "scaling" | "stream" | "memory" | "all") {
        eprintln!("unknown mode '{mode}' (expected scaling|stream|memory|all)");
        exit(2);
    }
    let runs = |m: &str| mode == m || mode == "all";
    let threads = get(&flags, "threads", 8usize);
    let requests = get(&flags, "requests", 40usize); // per thread
    let out_dir = flags
        .get("out-dir")
        .map(String::as_str)
        .unwrap_or("results");

    let mut lines = Vec::new();

    if runs("scaling") {
        println!(
            "bench-serve replica scaling: {CLIENTS} clients, {RATE:.0} rps offered, bursty \
             arrivals, floor {SERVICE_FLOOR_MS} ms, replicas 1/2/4"
        );
        // The smallest architecture in the repo plus the service-time
        // floor, so the serving tier — not the forward pass — is what the
        // replica curve measures.
        let cfg = ConformerConfig::tiny(2, 8, 4);
        let window = Tensor::randn(&[cfg.lx * cfg.c_in], &mut Rng::seed(8))
            .data()
            .to_vec();
        let mut by_replicas = Vec::new();
        for replicas in [1usize, 2, 4] {
            let fit_on = Tensor::randn(&[64, cfg.c_in], &mut Rng::seed(9))
                .mul_scalar(3.0)
                .add_scalar(5.0);
            let scaler = lttf::data::StandardScaler::fit(&fit_on);
            let model = TrainedModel::from_conformer(&cfg, 3);
            let mut model = LoadedModel::from_parts(model, cfg.clone(), scaler, "OT".into(), 1);
            model.set_service_floor_ms(SERVICE_FLOOR_MS);
            let handle = bench_server(
                model,
                ServeConfig {
                    batch: BatchConfig {
                        max_batch: 8,
                        max_wait_ms: 5,
                        queue_cap: 16,
                    },
                    replicas,
                    policy: lttf::serve::Policy::RoundRobin,
                    threads_per_replica: Some(1),
                    seed: SEED,
                    ..ServeConfig::default()
                },
            );
            let out = open_loop_run(handle.addr(), CLIENTS, RATE, DURATION_S, SEED, &window);
            handle.shutdown();
            let summary = lttf::serve::LatencySummary::from(&out.stats);
            let offered = out.sent as f64 / out.elapsed.as_secs_f64();
            let rps = out.completed as f64 / out.elapsed.as_secs_f64();
            println!(
                "open/bursty replicas {replicas}: offered {offered:.0} rps, completed {rps:.0} \
                 rps, shed {}, failed {}, {}",
                out.shed,
                out.failed,
                summary.render()
            );
            if out.failed > 0 {
                if let Some(e) = &out.first_error {
                    eprintln!("warning: {} hard failures (first: {e})", out.failed);
                }
            }
            lines.push(
                JsonObj::new()
                    .str("suite", "serve")
                    .str("bench", &format!("open_loop_bursty/replicas_{replicas}"))
                    .int("clients", CLIENTS as u64)
                    .int("replicas", replicas as u64)
                    .str("pattern", "bursty")
                    .num("service_floor_ms", SERVICE_FLOOR_MS)
                    .int("host_cores", host_cores())
                    .num("offered_rps", offered)
                    .num("rps", rps)
                    .int("sent", out.sent)
                    .int("completed", out.completed)
                    .int("shed", out.shed)
                    .int("failed", out.failed)
                    .int("min_ns", summary.min_ns)
                    .int("mean_ns", summary.mean_ns)
                    .int("median_ns", summary.p50_ns)
                    .int("p95_ns", summary.p95_ns)
                    .int("p99_ns", summary.p99_ns)
                    .int("max_ns", summary.max_ns)
                    .finish(),
            );
            by_replicas.push(rps);
        }
        let speedup = by_replicas[2] / by_replicas[0].max(1e-9);
        println!("replica speedup: {speedup:.2}x at 4 replicas over 1");
        lines.push(
            JsonObj::new()
                .str("suite", "serve")
                .str("bench", "replica_speedup")
                .int("clients", CLIENTS as u64)
                .str("pattern", "bursty")
                .num("service_floor_ms", SERVICE_FLOOR_MS)
                .int("host_cores", host_cores())
                .num("speedup", speedup)
                .int("min_ns", 0)
                .int("mean_ns", 0)
                .int("median_ns", 0)
                .finish(),
        );
    }

    if runs("stream") {
        let shift_at = STREAM_LEN / 2;
        let spec = lttf::eval::RegimeSpec {
            len: STREAM_LEN,
            dims: 2,
            shift_at,
            shift: STREAM_SHIFT,
            seed: SEED,
        };
        let series = lttf::eval::generate_regime(&spec);
        let (t0, dt) = (1_700_000_000i64, 3600i64);

        // Train a small Conformer on the pre-shift half only, so the
        // post-shift regime is genuinely out of distribution for it.
        let pre = series.narrow(0, 0, shift_at);
        let ts = lttf::data::TimeSeries::new(
            pre.clone(),
            (0..shift_at).map(|i| t0 + dt * i as i64).collect(),
            vec!["x".to_string(), "y".to_string()],
            1,
            lttf::data::Freq::Irregular,
        );
        let mut scfg = ConformerConfig::new(2, STREAM_LX, STREAM_LY);
        scfg.d_model = 8;
        scfg.n_heads = 2;
        scfg.multiscale_strides = vec![1, STREAM_LX / 4];
        let train_set = WindowDataset::new(
            &ts,
            Split::Train,
            (0.9, 0.05),
            STREAM_LX,
            STREAM_LY,
            STREAM_LX / 2,
        );
        let mut trained = TrainedModel::from_conformer(&scfg, SEED);
        println!(
            "bench-serve stream: training on {} pre-shift rows ({} params)…",
            shift_at,
            trained.num_parameters()
        );
        lttf::eval::train(
            &mut trained,
            &train_set,
            None,
            &TrainOptions {
                epochs: 3,
                batch_size: 8,
                lr: 1e-3,
                patience: 2,
                lr_decay: 0.7,
                max_batches: 60,
                clip: 5.0,
                seed: SEED,
                val_max_windows: usize::MAX,
                health: HealthConfig::default(),
            },
        );
        let snapshot = trained.params().snapshot();
        let scaler = train_set.scaler().clone();
        let profile = lttf::eval::fit_reference_profile(&pre);

        // Frozen vs adapting: same checkpoint, same traffic, same seed —
        // the only difference is the background adapter.
        let make_stream_model = || {
            let mut m = TrainedModel::from_conformer(&scfg, SEED);
            m.params_mut().restore(&snapshot);
            LoadedModel::from_parts(m, scfg.clone(), scaler.clone(), "y".into(), 1)
                .with_profile(profile.clone())
        };
        let stream_serve_cfg = |adapt_on: bool| ServeConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait_ms: 2,
                queue_cap: 64,
            },
            replicas: 1,
            seed: SEED,
            drift: DriftConfig {
                window_ms: 60_000,
                threshold: 1.0,
                min_count: 32,
            },
            adapt: AdaptConfig {
                enabled: adapt_on,
                lr: 2e-2,
                steps: 10,
                batch: 8,
                buffer: 64,
                min_examples: 8,
                interval_ms: 50,
                ..AdaptConfig::default()
            },
            ..ServeConfig::default()
        };
        let run_stream = |label: &str, adapt_on: bool, lines: &mut Vec<String>| -> f64 {
            let handle = bench_server(make_stream_model(), stream_serve_cfg(adapt_on));
            let out = stream_series(
                handle.addr(),
                &series,
                STREAM_LY,
                shift_at,
                1,
                t0,
                dt,
                std::time::Duration::from_millis(4),
            );
            handle.shutdown();
            println!(
                "{label}: {} pushes, {} forecasts ({} adapted), {} published, \
                 {} rolled back, failed {}, pre-shift mse {:.4}, post-shift mse {:.4}",
                out.pushes,
                out.forecasts,
                out.adapted_forecasts,
                out.publishes,
                out.rollbacks,
                out.failed,
                out.pre.mse(),
                out.post.mse()
            );
            if out.failed > 0 {
                if let Some(e) = &out.first_error {
                    eprintln!("warning: {} stream failures (first: {e})", out.failed);
                }
            }
            lines.push(
                JsonObj::new()
                    .str("suite", "serve")
                    .str("bench", label)
                    .int("rows", STREAM_LEN as u64)
                    .int("shift_at", shift_at as u64)
                    .num("shift", STREAM_SHIFT as f64)
                    .int("lx", STREAM_LX as u64)
                    .int("ly", STREAM_LY as u64)
                    .int("pushes", out.pushes)
                    .int("forecasts", out.forecasts)
                    .int("adapted_forecasts", out.adapted_forecasts)
                    .int("publishes", out.publishes)
                    .int("rollbacks", out.rollbacks)
                    .int("failed", out.failed)
                    .num("pre_shift_mse", out.pre.mse())
                    .num("post_shift_mse", out.post.mse())
                    .int("min_ns", 0)
                    .int("mean_ns", 0)
                    .int("median_ns", 0)
                    .finish(),
            );
            out.post.mse()
        };
        let frozen = run_stream("stream_frozen", false, &mut lines);
        let adapted = run_stream("stream_adapted", true, &mut lines);
        println!(
            "post-shift mse: frozen {frozen:.4} vs adapted {adapted:.4} \
             ({:.2}x)",
            frozen / adapted.max(1e-9)
        );
    }

    let mut mem_lines = Vec::new();
    if runs("memory") {
        // Peak-memory and allocation-rate bench: one closed-loop burst
        // against a batching server, bracketed by allocator snapshots so
        // the per-request allocation rate and process peak are attributed
        // to serving work. The committed results/BENCH_memory.json row is
        // the baseline bench_check.sh compares fresh runs against (fails
        // on >1.25x growth in peak bytes or allocs per request).
        let n = threads * requests;
        println!(
            "bench-serve memory: {threads} client threads x {requests} requests, \
             lx {LX}, d_model {D_MODEL}, max_batch {MAX_BATCH}"
        );
        // dims 3, lx 48: the canonical model, heavy enough that batching shows.
        let mut cfg = ConformerConfig::new(3, LX, LX / 2);
        cfg.d_model = D_MODEL;
        cfg.n_heads = 4;
        cfg.multiscale_strides = vec![1, LX / 4];
        let window = Tensor::randn(&[cfg.lx * cfg.c_in], &mut Rng::seed(6))
            .data()
            .to_vec();
        let fit_on = Tensor::randn(&[256, cfg.c_in], &mut Rng::seed(5))
            .mul_scalar(2.0)
            .add_scalar(1.0);
        let scaler = lttf::data::StandardScaler::fit(&fit_on);
        let model = TrainedModel::from_conformer(&cfg, 7);
        let handle = bench_server(
            LoadedModel::from_parts(model, cfg, scaler, "y".to_string(), 0),
            ServeConfig {
                batch: BatchConfig {
                    max_batch: MAX_BATCH,
                    max_wait_ms: MAX_WAIT_MS,
                    queue_cap: (threads * 4).max(32),
                },
                ..ServeConfig::default()
            },
        );
        // Warm-up burst: one-time lazy allocations (pool threads, pack
        // buffers, connection scratch) must not count against the
        // steady-state per-request rate.
        let _ = bench_serve_run(handle.addr(), 1, 8.min(n), &window);
        lttf::obs::alloc::reset_peak();
        let allocs_before = lttf::obs::alloc::allocs_total();
        let bytes_before = lttf::obs::alloc::alloc_bytes_total();
        let (elapsed, summary) = bench_serve_run(handle.addr(), threads, requests, &window);
        let peak_bytes = lttf::obs::alloc::peak_bytes();
        let live_bytes = lttf::obs::alloc::live_bytes();
        let allocs = lttf::obs::alloc::allocs_total().saturating_sub(allocs_before);
        let alloc_bytes = lttf::obs::alloc::alloc_bytes_total().saturating_sub(bytes_before);
        handle.shutdown();
        let allocs_per_request = allocs / n as u64;
        let alloc_bytes_per_request = alloc_bytes / n as u64;
        let throughput = n as f64 / elapsed.as_secs_f64();
        println!(
            "memory: peak {} | live {} | {allocs_per_request} allocs/req, {} per request",
            fmt_bytes(peak_bytes),
            fmt_bytes(live_bytes),
            fmt_bytes(alloc_bytes_per_request)
        );
        if peak_bytes == 0 {
            println!("  (allocator accounting compiled out — build with the telemetry feature)");
        }
        mem_lines.push(
            JsonObj::new()
                .str("suite", "serve")
                .str("bench", "memory/closed_loop")
                .int("threads", threads as u64)
                .int("requests", n as u64)
                .int("max_batch", MAX_BATCH as u64)
                .int("peak_bytes", peak_bytes)
                .int("live_bytes", live_bytes)
                .int("allocs_per_request", allocs_per_request)
                .int("alloc_bytes_per_request", alloc_bytes_per_request)
                .num("rps", throughput)
                .int("min_ns", summary.min_ns)
                .int("mean_ns", summary.mean_ns)
                .int("median_ns", summary.p50_ns)
                .finish(),
        );
    }

    let write = |path: &str, lines: &[String]| {
        let io = || -> std::io::Result<()> {
            std::fs::create_dir_all(out_dir)?;
            let mut sink = lttf::obs::JsonlSink::create(path)?;
            for line in lines {
                sink.write_line(line)?;
            }
            sink.flush()
        };
        io().unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("wrote {path}");
    };
    if !lines.is_empty() {
        write(&format!("{out_dir}/BENCH_serve.json"), &lines);
    }
    if !mem_lines.is_empty() {
        write(&format!("{out_dir}/BENCH_memory.json"), &mem_lines);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // `lttf trace [--trace-out FILE] <cmd> …` wraps any subcommand with
    // event recording and writes a Chrome trace_event JSON document when
    // the inner command returns (open it in chrome://tracing or
    // https://ui.perfetto.dev). The export is validated before writing.
    let mut trace_out: Option<String> = None;
    if args.first().map(String::as_str) == Some("trace") {
        args.remove(0);
        let mut out = "results/trace.json".to_string();
        if args.first().map(String::as_str) == Some("--trace-out") {
            args.remove(0);
            if args.is_empty() || args[0].starts_with("--") {
                eprintln!("--trace-out needs a file path");
                usage();
            }
            out = args.remove(0);
        }
        if args.is_empty() {
            eprintln!("lttf trace needs a subcommand to run");
            usage();
        }
        lttf::obs::trace::set_enabled(true);
        trace_out = Some(out);
    }

    // `lttf flame [--flame-out FILE] <cmd> …` runs any subcommand and
    // writes the self-time of every span path as collapsed stacks when it
    // returns — the input format of inferno / flamegraph.pl. Validated
    // before writing.
    let mut flame_out: Option<String> = None;
    if args.first().map(String::as_str) == Some("flame") {
        args.remove(0);
        let mut out = "results/flame.txt".to_string();
        if args.first().map(String::as_str) == Some("--flame-out") {
            args.remove(0);
            if args.is_empty() || args[0].starts_with("--") {
                eprintln!("--flame-out needs a file path");
                usage();
            }
            out = args.remove(0);
        }
        if args.is_empty() {
            eprintln!("lttf flame needs a subcommand to run");
            usage();
        }
        if !cfg!(feature = "telemetry") {
            eprintln!("warning: flame unavailable: built without the 'telemetry' feature");
        }
        flame_out = Some(out);
    }

    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    // Each subcommand with the flags it reads.
    type Run = fn(HashMap<String, String>);
    let (run, keys): (Run, &[&str]) = match cmd.as_str() {
        "generate" => (cmd_generate, &["dataset", "len", "dims", "seed", "out"]),
        "train" => (
            cmd_train,
            &[
                "data", "target", "lx", "ly", "d-model", "epochs", "seed", "log", "out",
                "health-every", "health-acts", "health-warn-only", "health-max-grad-norm",
            ],
        ),
        "forecast" => (cmd_forecast, &["data", "model", "samples", "coverage"]),
        "profile" => (
            cmd_profile,
            &[
                "smoke", "mode", "lx", "ly", "d-model", "batch", "epochs", "len", "dims", "seed",
                "threads", "name", "out-dir", "health-every", "health-acts", "health-warn-only",
                "health-max-grad-norm",
            ],
        ),
        "serve" => (
            cmd_serve,
            &[
                "model", "port", "policy", "threads-per-replica", "rate", "shed-depth",
                "max-batch", "max-wait-ms", "queue-cap", "replicas", "seed", "burst",
                "drift-threshold", "drift-min-count", "sessions", "session-ttl-ms", "adapt",
                "adapt-lr", "adapt-steps", "adapt-batch", "adapt-buffer", "adapt-min-examples",
                "adapt-interval-ms",
            ],
        ),
        "watch" => (
            cmd_watch,
            &["host", "port", "interval-ms", "iters", "model", "scrape-out", "no-clear"],
        ),
        "bench-serve" => (cmd_bench_serve, &["mode", "threads", "requests", "out-dir"]),
        _ => usage(),
    };
    run(parse_flags(cmd, keys, rest));

    if let Some(path) = flame_out {
        write_flame(&path);
    }

    if let Some(path) = trace_out {
        lttf::obs::trace::set_enabled(false);
        let export = lttf::obs::trace::export_chrome();
        if let Err(e) = lttf::obs::trace::validate_chrome(&export.json) {
            eprintln!("internal error: trace failed validation: {e}");
            exit(1);
        }
        if let Some(dir) = std::path::Path::new(&path).parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        if let Err(e) = std::fs::write(&path, &export.json) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
        print!(
            "trace: {path} ({} events on {} threads",
            export.events, export.threads
        );
        if export.dropped > 0 {
            print!(", {} dropped to ring wrap — raise LTTF_TRACE_BUF", export.dropped);
        }
        println!("); open in chrome://tracing");
    }
}
