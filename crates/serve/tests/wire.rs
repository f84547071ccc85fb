//! Wire-format guards for the line protocol: golden bytes for every
//! writer, and a seeded check that corrupted lines never panic a reader.

use lttf_serve::protocol::*;
use lttf_testkit::prop;

const F: [f32; 3] = [1.5, -2.25, 0.1];
const METRICS: &str = "lttf_up 1\nlttf_serve_queue_depth{model=\"demo\"} 0\n";

fn request() -> Request {
    Request {
        id: 7,
        values: F.to_vec(),
        t0: 1_700_000_000,
        dt: 3600,
        deadline_ms: None,
        model: None,
    }
}

fn report() -> StatsReport {
    StatsReport {
        model: "demo".to_string(),
        generation: 2,
        replicas: 3,
        queue_depth: 1,
        served_total: 400,
        window_ms: 120_000,
        window_count: 37,
        p50_ms: 1.5,
        p95_ms: 4.25,
        p99_ms: 9.0,
        queue_p50_ms: 0.5,
        service_p50_ms: 1.0,
        cpu_p50_ms: 0.75,
        cpu_p95_ms: 2.5,
        alloc_p50_bytes: 8_192.0,
        alloc_p95_bytes: 65_536.0,
        mem_live_bytes: 1_048_576,
        mem_peak_bytes: 2_097_152,
        shed_per_sec: 0.25,
        rejected_per_sec: 0.0,
        resubmitted_per_sec: 0.125,
        drift_available: true,
        drift_alert: false,
        drift_scores: vec![0.5, 3.25],
        drift_prediction_score: 0.75,
        drift_threshold: 1.0,
        drift_window_count: 640,
        sessions_open: 3,
        sessions_opened: 11,
        session_evictions: 2,
        adapt_enabled: true,
        adapt_state: "published".to_string(),
        adapt_steps: 12,
        adapt_rollbacks: 1,
        adapt_publishes: 2,
        adapt_cpu_ms: 350.5,
        adapt_alloc_bytes: 4_194_304,
    }
}

/// Every writer's output next to the exact line it must produce. The
/// literals are the bytes the protocol has always written (the request
/// line is the shape clients built by hand before `format_request`
/// existed), so a change to the writers cannot change the wire.
fn golden() -> Vec<(String, &'static str)> {
    vec![
        (
            format_request(&request()),
            r#"{"id":7,"values":[1.5,-2.25,0.10000000149011612],"t0":1700000000,"dt":3600}"#,
        ),
        (
            format_ok(1, 2, &F),
            r#"{"id":1,"ok":true,"gen":2,"forecast":[1.5,-2.25,0.10000000149011612]}"#,
        ),
        (
            format_err(3, "queue full"),
            r#"{"id":3,"ok":false,"error":"queue full"}"#,
        ),
        (
            format_reject(4, "rate limited", 40),
            r#"{"id":4,"ok":false,"error":"rate limited","retry_after_ms":40}"#,
        ),
        (
            format_reload(5, Some("demo"), "/ckpt/m"),
            r#"{"id":5,"cmd":"reload","path":"/ckpt/m","model":"demo"}"#,
        ),
        (
            format_reload_ok(6, 2, 4, 137),
            r#"{"id":6,"ok":true,"gen":2,"replicas":4,"drained":137}"#,
        ),
        (
            format_open(7, Some("demo"), 1_700_000_000, 60),
            r#"{"id":7,"cmd":"open","model":"demo","t0":1700000000,"dt":60}"#,
        ),
        (
            format_open_ok(8, 42, 16),
            r#"{"id":8,"ok":true,"session":42,"window":16}"#,
        ),
        (
            format_push(9, 42, &F),
            r#"{"id":9,"cmd":"push","session":42,"values":[1.5,-2.25,0.10000000149011612]}"#,
        ),
        (
            format_push_pending(10, 42, 9),
            r#"{"id":10,"ok":true,"session":42,"pending":9}"#,
        ),
        (
            format_push_ok(11, 42, 3, true, &F),
            r#"{"id":11,"ok":true,"session":42,"gen":3,"adapted":true,"forecast":[1.5,-2.25,0.10000000149011612]}"#,
        ),
        (
            format_close(12, 42),
            r#"{"id":12,"cmd":"close","session":42}"#,
        ),
        (
            format_close_ok(13, 42, 20, 5),
            r#"{"id":13,"ok":true,"session":42,"pushed":20,"forecasts":5}"#,
        ),
        (
            format_metrics(14, METRICS),
            r#"{"id":14,"ok":true,"metrics":"lttf_up 1\nlttf_serve_queue_depth{model=\"demo\"} 0\n"}"#,
        ),
        (
            format_stats_request(15, Some("demo")),
            r#"{"id":15,"cmd":"stats","model":"demo"}"#,
        ),
        (
            format_stats(16, &report()),
            r#"{"id":16,"ok":true,"model":"demo","gen":2,"replicas":3,"queue_depth":1,"served_total":400,"window_ms":120000,"window_count":37,"p50_ms":1.5,"p95_ms":4.25,"p99_ms":9,"queue_p50_ms":0.5,"service_p50_ms":1,"cpu_p50_ms":0.75,"cpu_p95_ms":2.5,"alloc_p50_bytes":8192,"alloc_p95_bytes":65536,"mem_live_bytes":1048576,"mem_peak_bytes":2097152,"shed_per_sec":0.25,"rejected_per_sec":0,"resubmitted_per_sec":0.125,"drift_available":true,"drift_alert":false,"drift_scores":[0.5,3.25],"drift_prediction_score":0.75,"drift_threshold":1,"drift_window_count":640,"sessions_open":3,"sessions_opened":11,"session_evictions":2,"adapt_enabled":true,"adapt_state":"published","adapt_steps":12,"adapt_rollbacks":1,"adapt_publishes":2,"adapt_cpu_ms":350.5,"adapt_alloc_bytes":4194304}"#,
        ),
    ]
}

#[test]
fn writers_produce_the_golden_bytes() {
    for (got, want) in golden() {
        assert_eq!(got, want);
    }
}

/// Feed one line to every reader; each may return `Ok` or `Err`, and a
/// panic fails the property.
fn read_everything(line: &str) {
    let _ = parse_command(line);
    let _ = extract_id(line);
    let _ = parse_response_meta(line);
    let _ = parse_reload_response(line);
    let _ = parse_open_response(line);
    let _ = parse_push_response(line);
    let _ = parse_close_response(line);
    let _ = parse_metrics_response(line);
    let _ = parse_stats_response(line);
}

#[test]
fn truncated_and_flipped_golden_lines_never_panic_a_reader() {
    let lines: Vec<&str> = golden().iter().map(|&(_, want)| want).collect();
    for line in &lines {
        for pos in 0..line.len() {
            read_everything(&line[..pos]);
        }
    }
    // One case per flip mask, replayable with TESTKIT_SEED: every golden
    // line with each of its bytes in turn XORed by the mask. A flip can
    // leave invalid UTF-8; the lossy decode keeps that input hostile
    // (U+FFFD) instead of skipping it.
    let name = "wire::truncated_and_flipped_golden_lines_never_panic_a_reader";
    prop::check(name, prop::cases_or(8), &prop::u32s(1..256), |&mask| {
        for line in &lines {
            for pos in 0..line.len() {
                let mut bytes = line.as_bytes().to_vec();
                bytes[pos] ^= mask as u8;
                read_everything(&String::from_utf8_lossy(&bytes));
            }
        }
        Ok(())
    });
}
