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
            format_metrics_request(15),
            r#"{"id":15,"cmd":"metrics"}"#,
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
