//! `ledger --smoke`: every workload for half a second plus the traced
//! replay, checked against the metrics `BENCHMARK.json` declares. Makes
//! no assertion on allocator counts, which are process-global.

use std::path::Path;
use std::process::Command;

use ledger::json::Json;

#[test]
fn smoke_run_emits_every_declared_metric_and_a_valid_trace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench =
        Json::parse(&std::fs::read_to_string(root.join("../BENCHMARK.json")).unwrap()).unwrap();
    let trace_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger-smoke-trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--smoke", "--trace-out"])
        .arg(&trace_path)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).unwrap())
        .collect();
    // The four workloads, then the traced replay.
    assert_eq!(results.len(), 5, "{stdout}");
    for (i, r) in results.iter().enumerate() {
        let keys: Vec<&str> = r.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "result {i}");
        let catalog = bench
            .get(if i < 4 { "end_to_end" } else { "per_layer" })
            .unwrap()
            .items();
        let metrics = r.get("metrics").unwrap();
        assert_eq!(
            metrics.fields().len(),
            catalog.len(),
            "result {i} reports undeclared metrics"
        );
        for m in catalog {
            let name = m.get("name").and_then(Json::str).unwrap();
            let got = metrics
                .get(name)
                .unwrap_or_else(|| panic!("result {i} lacks {name}"));
            assert_eq!(
                got.get("unit").and_then(Json::str),
                m.get("unit").and_then(Json::str),
                "{name}"
            );
            assert!(
                got.get("value")
                    .and_then(Json::num)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
        }
    }

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let summary = lttf::obs::trace::validate_chrome(&trace).unwrap();
    assert!(summary.slices > 0);
}
