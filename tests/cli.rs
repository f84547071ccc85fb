//! End-to-end tests of the `lttf` CLI: generate → train → forecast.

use std::process::Command;

fn workdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lttf_cli_test");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[test]
fn generate_train_forecast_pipeline() {
    let dir = workdir();
    let csv = dir.join("ett.csv");
    let model = dir.join("model");

    // generate
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .args([
            "generate",
            "--dataset",
            "etth1",
            "--len",
            "600",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&csv)
        .output()
        .expect("generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(csv.exists());

    // train (1 epoch to stay fast)
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .args(["train", "--data"])
        .arg(&csv)
        .args([
            "--target",
            "OT",
            "--lx",
            "32",
            "--ly",
            "8",
            "--epochs",
            "1",
            "--d-model",
            "8",
            "--out",
        ])
        .arg(&model)
        .output()
        .expect("train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("test: MSE"), "{stdout}");
    assert!(model.with_extension("params").exists());
    assert!(model.with_extension("config").exists());

    // forecast
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .args(["forecast", "--data"])
        .arg(&csv)
        .args(["--model"])
        .arg(&model)
        .args(["--samples", "10"])
        .output()
        .expect("forecast");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("step,point,lo,hi"), "{stdout}");
    // 8 forecast rows follow the header
    let rows = stdout
        .lines()
        .filter(|l| l.starts_with(char::is_numeric))
        .count();
    assert_eq!(rows, 8, "{stdout}");
    // bands are ordered on every row
    for line in stdout
        .lines()
        .skip_while(|l| !l.starts_with("step"))
        .skip(1)
    {
        let f: Vec<f32> = line
            .split(',')
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        if f.len() == 3 {
            assert!(f[1] <= f[2], "lo > hi in {line}");
        }
    }

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn profile_smoke_prints_span_table_and_run_log() {
    let dir = workdir().join("profile");
    // Tiny dimensions keep this seconds-scale in debug builds; the kernels
    // still clear the instrumentation work thresholds, so the table rows
    // required of `lttf profile` are all present.
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .args([
            "profile", "--smoke", "--lx", "24", "--ly", "8", "--d-model", "8", "--epochs", "1",
            "--batch", "8", "--len", "400", "--name", "cli_test", "--out-dir",
        ])
        .arg(&dir)
        .env("LTTF_QUIET", "1")
        .output()
        .expect("profile");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for row in [
        "matmul",
        "conv1d",
        "window_attn_fwd",
        "window_attn_bwd",
        "autocorr",
        "backward",
        "pool utilization",
        "loss curve",
    ] {
        assert!(stdout.contains(row), "missing '{row}' in:\n{stdout}");
    }
    let log = dir.join("cli_test.jsonl");
    assert!(log.exists(), "run log not written");
    // Every line of the run log is a flat JSON object with an "event" key.
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(text.lines().count() >= 3, "{text}");
    for line in text.lines() {
        assert!(
            line.starts_with("{\"event\":\""),
            "unexpected run-log line: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_wrapper_writes_valid_chrome_json() {
    let dir = workdir().join("trace");
    let trace_path = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .arg("trace")
        .arg("--trace-out")
        .arg(&trace_path)
        .args([
            "profile", "--smoke", "--lx", "24", "--ly", "8", "--d-model", "8", "--epochs", "1",
            "--batch", "8", "--len", "400", "--name", "cli_trace", "--out-dir",
        ])
        .arg(&dir)
        .env("LTTF_QUIET", "1")
        .output()
        .expect("trace profile");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace: "), "no trace summary line in:\n{stdout}");
    let json = std::fs::read_to_string(&trace_path).expect("trace file written");
    let summary = lttf::obs::trace::validate_chrome(&json).expect("valid Chrome trace");
    assert!(summary.events > 0, "empty trace");
    assert!(summary.slices > 0, "no completed B/E slices");
    assert!(json.contains("\"thread_name\""), "missing thread metadata");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn flame_weights_equal_the_run_logs_self_time() {
    let dir = workdir().join("flame");
    let flame_path = dir.join("flame.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .arg("flame")
        .arg("--flame-out")
        .arg(&flame_path)
        .args([
            "profile", "--smoke", "--mode", "fwd", "--lx", "24", "--ly", "8", "--d-model", "8",
            "--epochs", "1", "--batch", "8", "--len", "400", "--name", "cli_flame", "--out-dir",
        ])
        .arg(&dir)
        .env("LTTF_QUIET", "1")
        .output()
        .expect("flame profile");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let flame = std::fs::read_to_string(&flame_path).expect("flame file written");
    let summary = lttf::obs::flame::validate_collapsed(&flame).expect("valid collapsed stacks");
    assert!(summary.weight > 0, "empty flame");
    // Per span, the lines ending in it add up to its self-time exactly.
    let mut weights = std::collections::BTreeMap::<&str, u64>::new();
    for line in flame.lines() {
        let (stack, ns) = line.rsplit_once(' ').unwrap();
        let span = stack.rsplit(';').next().unwrap();
        *weights.entry(span).or_default() += ns.parse::<u64>().unwrap();
    }
    let log = std::fs::read_to_string(dir.join("cli_flame.jsonl")).expect("run log written");
    let mut self_ns = std::collections::BTreeMap::<&str, u64>::new();
    let records: Vec<_> = log
        .lines()
        .map(|l| lttf::obs::jsonl::parse_object(l).unwrap())
        .collect();
    for fields in &records {
        let get = |k| lttf::obs::jsonl::field(fields, k).unwrap();
        if get("event").as_str() == Some("span") && get("kind").as_str() == Some("span") {
            let ns = get("self_ns").as_num().unwrap() as u64;
            if ns > 0 {
                self_ns.insert(get("name").as_str().unwrap(), ns);
            }
        }
    }
    assert!(self_ns.contains_key("matmul"), "{log}");
    assert_eq!(weights, self_ns, "flame:\n{flame}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unknown_subcommand_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .arg("frobnicate")
        .output()
        .expect("run");
    assert!(!out.status.success());
}

/// `lttf <args>` must fail before doing any work, naming `needle` on
/// stderr.
fn refused(args: &[&str], needle: &str) {
    let dir = workdir().join("refused");
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .args(args)
        .args(["--out-dir"])
        .arg(&dir)
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert!(stderr.contains(needle), "{args:?}: stderr lacks '{needle}':\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "{args:?} ran work first:\n{stdout}");
    assert!(!dir.exists(), "{args:?} wrote {}", dir.display());
}

#[test]
fn unknown_flags_and_modes_fail_before_any_work() {
    refused(&["profile", "--flame", "x"], "unknown flag --flame for lttf profile");
    refused(&["bench-serve", "--rate", "5"], "unknown flag --rate for lttf bench-serve");
    refused(&["bench-serve", "--mode", "closed"], "unknown mode 'closed'");
}

#[test]
fn missing_required_flag_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_lttf"))
        .args(["generate", "--dataset", "wind"]) // no --out
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

/// `lttf watch` reads one `metrics` exposition per tick. Without
/// `--model` it needs the server to front exactly one model: against
/// two it exits 1 and names both, and `--model` picks one of them.
#[test]
fn watch_names_every_model_when_it_cannot_pick_one() {
    use lttf::conformer::ConformerConfig;
    use lttf::data::StandardScaler;
    use lttf::eval::TrainedModel;
    use lttf::serve::{serve, LoadedModel, Registry, ServeConfig};
    use lttf::tensor::{Rng, Tensor};

    let model = || {
        let cfg = ConformerConfig::tiny(2, 8, 4);
        let scaler = StandardScaler::fit(&Tensor::randn(&[32, 2], &mut Rng::seed(1)));
        let trained = TrainedModel::from_conformer(&cfg, 3);
        LoadedModel::from_parts(trained, cfg, scaler, "OT".to_string(), 1)
    };
    let mut registry = Registry::single("a", model());
    registry.insert("b", model());
    let handle = serve(registry, "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let watch = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_lttf"))
            .args(["watch", "--port", &handle.addr().port().to_string()])
            .args(["--iters", "1", "--no-clear"])
            .args(extra)
            .output()
            .expect("run watch")
    };

    let out = watch(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("2 models (a, b)"), "{stderr}");

    let out = watch(&["--model", "b"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("lttf watch — 'b' @"), "{stdout}");
    assert!(stdout.contains("  latency   p50 0.00 ms"), "{stdout}");
    handle.shutdown();
}
