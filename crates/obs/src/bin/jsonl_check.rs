//! Std-only JSONL / trace validator used by `scripts/ci.sh`.
//!
//! Usage: `jsonl_check [--bench|--trace|--flame] <file>...`
//!
//! Files whose name starts with `BENCH_` (or given via `--bench`) are
//! checked as bench-record lines (every line a flat JSON object);
//! `--trace` files are checked as Chrome `trace_event` JSON produced by
//! `lttf trace` (framing, per-line strict parse, B/E nesting); `--flame`
//! files are checked as collapsed-stack text produced by `lttf flame`
//! (one `frame;frame count` line per stack); all
//! other files are validated against the training run-log schema in
//! `lttf_obs::runlog`. Every mode requires a trailing newline at EOF.
//! Exits non-zero on the first invalid file.

use std::process::ExitCode;

use lttf_obs::jsonl::parse_object;
use lttf_obs::{flame, runlog, trace};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mut force_bench = false;
    let mut force_trace = false;
    let mut force_flame = false;
    let mut paths = Vec::new();
    for a in &mut args {
        match a.as_str() {
            "--bench" => force_bench = true,
            "--trace" => force_trace = true,
            "--flame" => force_flame = true,
            _ => paths.push(a),
        }
    }
    let modes = force_bench as u8 + force_trace as u8 + force_flame as u8;
    if paths.is_empty() || modes > 1 {
        eprintln!("usage: jsonl_check [--bench|--trace|--flame] <file>...");
        return ExitCode::from(2);
    }

    let mut failed = false;
    for path in &paths {
        let is_bench = force_bench
            || std::path::Path::new(path)
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_"));
        let outcome = if force_trace {
            check_trace(path)
        } else if force_flame {
            check_flame(path)
        } else if is_bench {
            check_bench(path)
        } else {
            check_runlog(path)
        };
        if let Err(e) = outcome {
            eprintln!("FAIL {path}: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn read_with_newline(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    if !text.is_empty() && !text.ends_with('\n') {
        return Err("missing trailing newline at end of file".into());
    }
    Ok(text)
}

fn check_runlog(path: &str) -> Result<(), String> {
    let summary = runlog::validate(&read_with_newline(path)?)?;
    println!(
        "ok {path}: run {:?}, {} epochs, stop_reason {}, {} span records, {} health records",
        summary.name, summary.epochs, summary.stop_reason, summary.spans, summary.health
    );
    Ok(())
}

fn check_trace(path: &str) -> Result<(), String> {
    let summary = trace::validate_chrome(&read_with_newline(path)?)?;
    println!(
        "ok {path}: {} events on {} threads, {} slices, {} async",
        summary.events, summary.threads, summary.slices, summary.async_slices
    );
    Ok(())
}

fn check_flame(path: &str) -> Result<(), String> {
    let summary = flame::validate_collapsed(&read_with_newline(path)?)?;
    println!(
        "ok {path}: {} stacks, weight {}, {} roots",
        summary.stacks, summary.weight, summary.roots
    );
    Ok(())
}

fn check_bench(path: &str) -> Result<(), String> {
    let text = read_with_newline(path)?;
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields = parse_object(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        for key in ["suite", "bench"] {
            if !fields.iter().any(|(k, v)| k == key && v.as_str().is_some()) {
                return Err(format!("line {}: missing string field {key:?}", i + 1));
            }
        }
        for key in ["median_ns", "min_ns", "mean_ns"] {
            if !fields.iter().any(|(k, v)| k == key && v.as_num().is_some()) {
                return Err(format!("line {}: missing numeric field {key:?}", i + 1));
            }
        }
        records += 1;
    }
    if records == 0 {
        return Err("no records".into());
    }
    println!("ok {path}: {records} bench records");
    Ok(())
}
