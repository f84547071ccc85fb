//! `lttf-obs`: zero-dependency telemetry for the lttf workspace.
//!
//! Five pillars, all std-only:
//!
//! 1. **Spans and counters** ([`registry`], re-exported at the root): a
//!    global registry of named scopes with RAII timing guards. The
//!    [`span!`], [`counter!`], and [`gauge_ns!`] macros compile out when
//!    the *calling* crate's `telemetry` cargo feature is disabled, so
//!    `cargo build --no-default-features` carries zero instrumentation.
//! 2. **JSON lines** ([`jsonl`]): a flat-object builder, buffered file
//!    sink, and strict parser shared by the training run logs and the
//!    testkit bench runner.
//! 3. **Run logs and reports** ([`runlog`], [`report`]): the
//!    `results/runs/<name>.jsonl` training-log schema with a validator
//!    (see the `jsonl_check` binary), and the self-time table printed by
//!    `lttf profile`.
//! 4. **Event-level observability** ([`trace`], [`health`], [`metrics`]):
//!    per-thread ring buffers exported as Chrome `trace_event` JSON (see
//!    `lttf trace`), per-layer training health statistics with a
//!    divergence watchdog, and Prometheus-style text exposition for the
//!    serve front end. [`env`] centralizes the `LTTF_*`/`OBS_*`
//!    environment knobs all of this reads.
//! 5. **Resource observability** ([`alloc`], [`flame`], [`cputime`]):
//!    an instrumented global allocator that counts every allocation and
//!    charges it to the innermost open span, flame graphs of the exact
//!    self-time of every span path (`lttf flame`, exported as collapsed
//!    flamegraph stacks), and std-only process/thread CPU-time clocks
//!    used by the serve tier for per-request cost attribution. The
//!    counting and the flame compile out with the `telemetry` feature.
//!
//! Overhead discipline: an active span costs two `Instant::now()` calls
//! plus a few relaxed atomic adds (~50 ns); call sites gate on a work-size
//! threshold so tiny kernels skip even that. The kernels bench suite is
//! held within 3% of a `--no-default-features` build by
//! `scripts/bench_check.sh`.
//!
//! # Example
//!
//! Time a scope, count an event, sample a gauge, then inspect the
//! snapshot:
//!
//! ```
//! use lttf_obs::{span, counter, gauge, snapshot};
//!
//! {
//!     let _timed = span!("doc_example_work");
//!     counter!("doc_example_events", 2);
//!     gauge!("doc_example_depth", 5);
//! } // span records on drop
//!
//! let snap = snapshot();
//! # if !cfg!(feature = "telemetry") {
//! #     assert!(!snap.iter().any(|s| s.name.starts_with("doc_example")), "compiled out");
//! #     return;
//! # }
//! let work = snap.iter().find(|s| s.name == "doc_example_work").unwrap();
//! assert_eq!(work.calls, 1);
//! let depth = snap.iter().find(|s| s.name == "doc_example_depth").unwrap();
//! assert_eq!((depth.calls, depth.max_ns), (1, 5));
//! ```

#![deny(missing_docs)]

pub mod alloc;
pub mod cputime;
pub mod env;
pub mod flame;
pub mod health;
pub mod hist;
pub mod jsonl;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod runlog;
pub mod sketch;
pub mod trace;

pub use health::{Divergence, TensorHealth, Watchdog};
pub use hist::{Histogram, WindowedCounter, WindowedHistogram};
pub use jsonl::{JsonObj, JsonValue, JsonlSink};
pub use registry::{
    calls, register, reset, scoped, snapshot, Kind, SpanGuard, SpanSnapshot, SpanStats,
};
pub use runlog::RunLog;
pub use sketch::{FeatureSketch, FeatureStats, ReferenceProfile, Welford};

#[cfg(test)]
mod proptests;

/// The registry and the trace ring are process-global; tests that reset,
/// snapshot or record into either must not interleave.
#[cfg(test)]
pub(crate) fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exclusive;

    #[test]
    fn span_records_calls_and_time() {
        let _g = exclusive();
        reset();
        for _ in 0..3 {
            let span = span!("obs_test_span");
            span.bytes(128);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = snapshot();
        let s = snap.iter().find(|s| s.name == "obs_test_span");
        if !cfg!(feature = "telemetry") {
            assert!(s.is_none(), "a compiled-out span records nothing");
            return;
        }
        let s = s.expect("span registered");
        assert_eq!(s.calls, 3);
        assert_eq!(s.bytes, 384);
        assert!(s.total_ns >= 3_000_000, "slept 3ms total, got {}ns", s.total_ns);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.max_ns <= s.total_ns);
    }

    #[test]
    fn conditional_span_skips_below_threshold() {
        let _g = exclusive();
        reset();
        for work in [10usize, 5000] {
            let _s = span!("obs_test_cond", work >= 4096);
        }
        let snap = snapshot();
        let calls = snap.iter().find(|s| s.name == "obs_test_cond").map(|s| s.calls);
        assert_eq!(calls, cfg!(feature = "telemetry").then_some(1));
    }

    #[test]
    fn nested_spans_split_self_time() {
        let _g = exclusive();
        reset();
        {
            let _outer = span!("obs_test_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("obs_test_inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let snap = snapshot();
        let find = |name| snap.iter().find(|s| s.name == name);
        if !cfg!(feature = "telemetry") {
            assert!(find("obs_test_outer").is_none() && find("obs_test_inner").is_none());
            return;
        }
        let (outer, inner) = (find("obs_test_outer").unwrap(), find("obs_test_inner").unwrap());
        // Outer total covers both sleeps; its self time excludes inner.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000);
        assert!(inner.self_ns >= 3_000_000, "inner slept 4ms");
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _g = exclusive();
        reset();
        counter!("obs_test_counter", 2);
        counter!("obs_test_counter", 3);
        gauge_ns!("obs_test_gauge", 1000);
        gauge_ns!("obs_test_gauge", 500);
        let snap = snapshot();
        if !cfg!(feature = "telemetry") {
            let names = ["obs_test_counter", "obs_test_gauge"];
            assert!(
                !snap.iter().any(|s| names.contains(&s.name.as_str())),
                "compiled out"
            );
            return;
        }
        let c = snap.iter().find(|s| s.name == "obs_test_counter").unwrap();
        assert_eq!((c.kind, c.calls), (Kind::Counter, 5));
        let g = snap.iter().find(|s| s.name == "obs_test_gauge").unwrap();
        assert_eq!((g.kind, g.total_ns), (Kind::GaugeNs, 1500));
    }

    #[test]
    fn spans_merge_across_threads() {
        let _g = exclusive();
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = scoped("", "obs_test_mt");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(calls("", "obs_test_mt"), 4);
    }

    #[test]
    fn json_escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcödé";
        let line = JsonObj::new().str("k", nasty).finish();
        let fields = jsonl::parse_object(&line).unwrap();
        assert_eq!(jsonl::field(&fields, "k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn json_obj_renders_fixed_field_order() {
        let line = JsonObj::new()
            .str("a", "x")
            .int("b", 7)
            .num("c", 1.5)
            .opt_num("d", None)
            .finish();
        assert_eq!(line, r#"{"a":"x","b":7,"c":1.5,"d":null}"#);
    }

    #[test]
    fn json_non_finite_renders_null() {
        let line = JsonObj::new().num("x", f64::NAN).num("y", f64::INFINITY).finish();
        assert_eq!(line, r#"{"x":null,"y":null}"#);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(jsonl::parse_object("{\"a\":1} trailing").is_err());
        assert!(jsonl::parse_object("{\"a\":{}}").is_err());
        assert!(jsonl::parse_object("{\"a\"}").is_err());
        assert!(jsonl::parse_object("{\"a\":tru}").is_err());
        assert!(jsonl::parse_object("not json").is_err());
        // Arrays are numbers-only and flat.
        assert!(jsonl::parse_object("{\"a\":[1,[2]]}").is_err());
        assert!(jsonl::parse_object("{\"a\":[\"x\"]}").is_err());
        assert!(jsonl::parse_object("{\"a\":[1,]}").is_err());
        assert!(jsonl::parse_object("{\"a\":[1").is_err());
    }

    #[test]
    fn number_arrays_round_trip_f32_exactly() {
        let vals: Vec<f32> = vec![0.1, -3.25e-5, 1.0, f32::MIN_POSITIVE, 12345.678];
        let line = JsonObj::new()
            .nums("forecast", vals.iter().map(|&v| v as f64))
            .int("n", vals.len() as u64)
            .finish();
        let fields = jsonl::parse_object(&line).unwrap();
        let arr = jsonl::field(&fields, "forecast").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), vals.len());
        for (&parsed, &orig) in arr.iter().zip(&vals) {
            assert_eq!(parsed as f32, orig, "lossy float round trip");
        }
        // Empty arrays and null (NaN) entries parse too.
        let fields = jsonl::parse_object("{\"a\":[],\"b\":[1,null,2]}").unwrap();
        assert_eq!(jsonl::field(&fields, "a").unwrap().as_arr().unwrap().len(), 0);
        let b = jsonl::field(&fields, "b").unwrap().as_arr().unwrap();
        assert!(b[1].is_nan() && b[2] == 2.0);
    }

    #[test]
    fn value_gauges_track_mean_and_extremes() {
        let _g = exclusive();
        reset();
        for depth in [3u64, 9, 6] {
            gauge!("obs_test_value_gauge", depth);
        }
        let snap = snapshot();
        if !cfg!(feature = "telemetry") {
            assert!(!snap.iter().any(|s| s.name == "obs_test_value_gauge"), "compiled out");
            return;
        }
        let g = snap.iter().find(|s| s.name == "obs_test_value_gauge").unwrap();
        assert_eq!((g.kind, g.calls), (Kind::Gauge, 3));
        assert_eq!((g.total_ns, g.min_ns, g.max_ns), (18, 3, 9));
        let text = report::render(&snap);
        assert!(text.contains("obs_test_value_gauge"), "{text}");
        assert!(text.contains("gauge"), "{text}");
    }

    #[test]
    fn run_log_validates_round_trip() {
        let _g = exclusive();
        let dir = std::env::temp_dir().join("lttf_obs_test");
        let path = dir.join("run.jsonl");
        let mut log = RunLog::create(&path).unwrap();
        log.start("unit", "gru", 4, 10, 32, 1e-3).unwrap();
        log.epoch(0, 0.9, Some(1.1), 1e-3, 0.5, 12, 0.25).unwrap();
        log.epoch(1, 0.7, Some(0.9), 9e-4, 0.4, 12, 0.24).unwrap();
        log.end("early_stopped", 2, Some(0.9), 0.49).unwrap();
        log.spans().unwrap();
        let summary = runlog::validate_file(&path).unwrap();
        assert_eq!(summary.name, "unit");
        assert_eq!(summary.epochs, 2);
        assert_eq!(summary.stop_reason, "early_stopped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_log_validator_rejects_bad_logs() {
        let good = concat!(
            r#"{"event":"run_start","name":"r","model":"m","threads":1,"max_epochs":2,"batch_size":8,"lr":0.001}"#,
            "\n",
            r#"{"event":"epoch","epoch":0,"train_loss":1.0,"val_loss":null,"lr":0.001,"grad_norm":0.1,"batches":4,"time_s":0.1}"#,
            "\n",
            r#"{"event":"end","stop_reason":"max_epochs","epochs":1,"best_val":null,"total_time_s":0.1}"#,
            "\n",
        );
        assert!(runlog::validate(good).is_ok());
        // Epoch indices must be monotone from 0.
        let skipped = good.replace(r#""epoch":0"#, r#""epoch":1"#);
        assert!(runlog::validate(&skipped).is_err());
        // The end record must exist.
        let no_end: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(runlog::validate(&no_end).is_err());
        // Epoch counts must match the end record.
        let wrong_count = good.replace(r#""epochs":1"#, r#""epochs":3"#);
        assert!(runlog::validate(&wrong_count).is_err());
    }

    #[test]
    fn report_renders_sorted_self_time_table() {
        let snap = vec![
            SpanSnapshot {
                name: "small".into(),
                kind: Kind::Span,
                calls: 10,
                total_ns: 1_000_000,
                self_ns: 1_000_000,
                min_ns: 50_000,
                max_ns: 200_000,
                bytes: 0,
                alloc_bytes: 0,
                allocs: 0,
            },
            SpanSnapshot {
                name: "big".into(),
                kind: Kind::Span,
                calls: 2,
                total_ns: 9_000_000,
                self_ns: 9_000_000,
                min_ns: 4_000_000,
                max_ns: 5_000_000,
                bytes: 9_000_000,
                alloc_bytes: 2048,
                allocs: 4,
            },
            SpanSnapshot {
                name: "pool.busy_ns".into(),
                kind: Kind::GaugeNs,
                calls: 0,
                total_ns: 6_000_000,
                self_ns: 0,
                min_ns: 0,
                max_ns: 0,
                bytes: 0,
                alloc_bytes: 0,
                allocs: 0,
            },
            SpanSnapshot {
                name: "pool.capacity_ns".into(),
                kind: Kind::GaugeNs,
                calls: 0,
                total_ns: 8_000_000,
                self_ns: 0,
                min_ns: 0,
                max_ns: 0,
                bytes: 0,
                alloc_bytes: 0,
                allocs: 0,
            },
        ];
        let text = report::render(&snap);
        let big_pos = text.find("big").unwrap();
        let small_pos = text.find("small").unwrap();
        assert!(big_pos < small_pos, "sorted by self time desc:\n{text}");
        assert!(text.contains("pool utilization: 75.0%"), "{text}");
        assert_eq!(report::breakdown_line(&snap, 1), "big 90%, other 10%");
    }
}
