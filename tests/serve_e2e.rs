//! End-to-end tests of the serving subsystem: a real TCP server on an
//! ephemeral port, concurrent clients, bit-for-bit agreement with the
//! direct forward pass, deadline-based rejection, replicated dispatch,
//! hot reload under live traffic, and admission-control load shedding.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use lttf::conformer::ConformerConfig;
use lttf::data::StandardScaler;
use lttf::eval::TrainedModel;
use lttf::obs::metrics::Exposition;
use lttf::serve::{
    protocol, serve, AdaptConfig, AdmissionConfig, BatchConfig, DriftConfig, LoadedModel, Policy,
    Registry, ServeConfig, SessionConfig,
};
use lttf::tensor::{Rng, Tensor};

mod common;
use common::{ask_metrics, SessionClient};

fn test_model() -> LoadedModel {
    let cfg = ConformerConfig::tiny(3, 12, 6);
    let model = TrainedModel::from_conformer(&cfg, 42);
    let fit_on = Tensor::randn(&[128, 3], &mut Rng::seed(1))
        .mul_scalar(4.0)
        .add_scalar(-2.0);
    let scaler = StandardScaler::fit(&fit_on);
    LoadedModel::from_parts(model, cfg, scaler, "OT".to_string(), 2)
}

fn raw_window(model: &LoadedModel, seed: u64) -> Vec<f32> {
    Tensor::randn(&[model.window_len()], &mut Rng::seed(seed))
        .mul_scalar(3.0)
        .data()
        .to_vec()
}

fn request(id: u64, values: &[f32], deadline_ms: Option<u64>) -> protocol::Request {
    protocol::Request {
        id,
        values: values.to_vec(),
        t0: 1_700_000_000,
        dt: 3600,
        deadline_ms,
        model: None,
    }
}

fn request_line(id: u64, values: &[f32], deadline_ms: Option<u64>) -> String {
    protocol::format_request(&request(id, values, deadline_ms))
}

/// Open a connection, send one line, read one line back.
fn ask(addr: SocketAddr, line: &str) -> (u64, Result<Vec<f32>, String>) {
    let (id, _, res) = ask_meta(addr, line);
    (id, res)
}

/// Like [`ask`], but also return the reply's generation stamp.
fn ask_meta(addr: SocketAddr, line: &str) -> (u64, Option<u64>, Result<Vec<f32>, String>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let meta = protocol::parse_response_meta(resp.trim_end()).expect("well-formed response");
    (meta.id, meta.generation, meta.result)
}

#[test]
fn concurrent_clients_match_direct_forward_bit_for_bit() {
    let reference = test_model();
    let handle = serve(
        Registry::single("m", test_model()),
        "127.0.0.1:0",
        ServeConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait_ms: 10,
                queue_cap: 64,
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr();

    // Eight clients with distinct windows, concurrently, several rounds
    // each — enough overlap that the batcher actually forms multi-row
    // batches.
    let reference = Arc::new(reference);
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                for round in 0..3u64 {
                    let seed = 100 + c * 10 + round;
                    let raw = raw_window(&reference, seed);
                    let (id, res) = ask(addr, &request_line(seed, &raw, None));
                    assert_eq!(id, seed);
                    let got = res.expect("server answered with an error");
                    let want = reference
                        .forecast_one(&raw, 1_700_000_000, 3600)
                        .expect("direct forward");
                    // Bit-for-bit: same floats regardless of how the
                    // batcher grouped this request with others.
                    assert_eq!(got, want, "client {c} round {round} diverged");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let summaries = handle.shutdown();
    assert_eq!(summaries.len(), 1);
    assert_eq!(summaries[0].1.count, 24, "all requests must be served");
    assert!(summaries[0].1.p99_ns >= summaries[0].1.p50_ns);
}

#[test]
fn replicated_dispatch_matches_single_engine_over_tcp() {
    // The same windows, forecast through 1-, 2-, and 4-replica servers
    // under both policies, must come back bit-identical to the direct
    // forward pass: replication must never change what is computed.
    let reference = test_model();
    let windows: Vec<Vec<f32>> = (0..6).map(|s| raw_window(&reference, 300 + s)).collect();
    let direct: Vec<Vec<f32>> = windows
        .iter()
        .map(|w| reference.forecast_one(w, 1_700_000_000, 3600).unwrap())
        .collect();

    for replicas in [1usize, 2, 4] {
        for policy in [Policy::RoundRobin, Policy::LeastQueueDepth] {
            let handle = serve(
                Registry::single("m", test_model()),
                "127.0.0.1:0",
                ServeConfig {
                    batch: BatchConfig {
                        max_batch: 4,
                        max_wait_ms: 2,
                        queue_cap: 64,
                    },
                    replicas,
                    policy,
                    seed: 11,
                    ..ServeConfig::default()
                },
            )
            .expect("bind");
            for (i, w) in windows.iter().enumerate() {
                let (id, res) = ask(handle.addr(), &request_line(i as u64, w, None));
                assert_eq!(id, i as u64);
                assert_eq!(
                    res.expect("served"),
                    direct[i],
                    "replicas={replicas} policy={policy:?} window {i} diverged"
                );
            }
            handle.shutdown();
        }
    }
}

#[test]
fn hot_reload_under_concurrent_traffic_drops_nothing() {
    // Live traffic across an atomic generation swap: every request must
    // be answered successfully (no drops, no errors), every reply must
    // carry exactly one generation from {1, 2}, and each connection must
    // see a non-decreasing generation sequence (the swap is atomic — no
    // going back, no mixing).
    let dir = std::env::temp_dir().join(format!(
        "lttf-reload-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("ckpt");
    let base = base.to_str().unwrap().to_string();

    let model = test_model();
    model.save(&base).expect("write checkpoint");
    let handle = serve(
        Registry::single("m", model),
        "127.0.0.1:0",
        ServeConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait_ms: 2,
                queue_cap: 128,
            },
            replicas: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 25;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let reference = test_model();
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut gens = Vec::new();
                for round in 0..ROUNDS {
                    let raw = raw_window(&reference, 500 + c * 100 + round);
                    writeln!(writer, "{}", request_line(c * 1000 + round, &raw, None)).unwrap();
                    let mut resp = String::new();
                    reader.read_line(&mut resp).unwrap();
                    let meta =
                        protocol::parse_response_meta(resp.trim_end()).expect("parseable reply");
                    assert_eq!(meta.id, c * 1000 + round);
                    // Zero failed requests across the swap — the whole
                    // point of drain-after-swap plus front-end retry.
                    meta.result
                        .unwrap_or_else(|e| panic!("client {c} round {round} failed: {e}"));
                    gens.push(meta.generation.expect("every forecast is gen-stamped"));
                }
                gens
            })
        })
        .collect();

    // Fire the reload mid-traffic.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let reload = protocol::format_reload(9000, Some("m"), &base);
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{reload}").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let (id, info) = protocol::parse_reload_response(resp.trim_end()).expect("reload reply");
    assert_eq!(id, 9000);
    let info = info.expect("reload succeeds");
    assert_eq!(info.generation, 2);
    assert_eq!(info.replicas, 2);

    let mut seen = std::collections::BTreeSet::new();
    for client in clients {
        let gens = client.join().expect("client thread");
        assert_eq!(gens.len(), ROUNDS as usize);
        // Per-connection generations never step backwards across the swap.
        for pair in gens.windows(2) {
            assert!(pair[0] <= pair[1], "generation went backwards: {gens:?}");
        }
        seen.extend(gens);
    }
    assert!(
        seen.iter().all(|g| *g == 1 || *g == 2),
        "unexpected generations: {seen:?}"
    );
    // The reload raced real traffic, so gen 2 must have served requests.
    assert!(seen.contains(&2), "post-swap traffic never reached gen 2");

    // After the dust settles the new generation owns the route.
    let reference = test_model();
    let raw = raw_window(&reference, 999);
    let (_, generation, res) = ask_meta(addr, &request_line(42, &raw, None));
    assert_eq!(generation, Some(2));
    // Same checkpoint bits on both generations ⇒ same forecast.
    assert_eq!(
        res.unwrap(),
        reference.forecast_one(&raw, 1_700_000_000, 3600).unwrap()
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_shedding_refuses_with_retry_hint_over_tcp() {
    // shed_depth 0: the watermark is always hit, so every forecast is
    // refused before touching the model — deterministic load shedding.
    let handle = serve(
        Registry::single("m", test_model()),
        "127.0.0.1:0",
        ServeConfig {
            admission: AdmissionConfig {
                shed_depth: Some(0),
                shed_retry_ms: 25,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let raw = raw_window(&test_model(), 17);

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", request_line(5, &raw, None)).unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let meta = protocol::parse_response_meta(resp.trim_end()).expect("reply parses");
    assert_eq!(meta.id, 5);
    let err = meta.result.expect_err("shed, not served");
    assert!(err.contains("overloaded"), "unexpected error: {err}");
    assert_eq!(
        meta.retry_after_ms,
        Some(25),
        "shed refusals must carry the backoff hint"
    );

    handle.shutdown();
}

#[test]
fn past_deadline_request_is_rejected_not_served() {
    let handle = serve(
        Registry::single("m", test_model()),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind");
    let raw = raw_window(&test_model(), 7);
    // deadline_ms = 0: already expired when the batcher dequeues it.
    let (id, res) = ask(handle.addr(), &request_line(9, &raw, Some(0)));
    assert_eq!(id, 9);
    let err = res.expect_err("an expired request must not be served");
    assert!(err.contains("deadline"), "unexpected error: {err}");

    // The server stays healthy for later requests on the same port.
    let (_, res) = ask(handle.addr(), &request_line(10, &raw, None));
    res.expect("follow-up request served");

    let summaries = handle.shutdown();
    // Only the served request counts toward latency.
    assert_eq!(summaries[0].1.count, 1);
}

#[test]
fn malformed_and_oversized_requests_get_error_responses() {
    let handle = serve(
        Registry::single("m", test_model()),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind");
    let addr = handle.addr();

    let (_, res) = ask(addr, "this is not json");
    assert!(res.unwrap_err().contains("bad request"));

    // Wrong window length: rejected with the expected size in the message.
    let (_, res) = ask(addr, &request_line(1, &[1.0, 2.0], None));
    assert!(res.unwrap_err().contains("expected 36 values"));

    // Unknown model name.
    let line = protocol::format_request(&protocol::Request {
        model: Some("missing".to_string()),
        ..request(2, &raw_window(&test_model(), 1), None)
    });
    let (_, res) = ask(addr, &line);
    assert!(res.unwrap_err().contains("unknown model"));

    handle.shutdown();
}

#[test]
fn metrics_endpoint_and_traced_request_over_tcp() {
    let model = test_model();
    let raw = raw_window(&model, 31);
    let handle = serve(
        Registry::single("m", model),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind");
    let addr = handle.addr();

    // Serve one forecast with event tracing on: the request must appear
    // in the export as a connected async slice.
    lttf::obs::trace::set_enabled(true);
    let (_, res) = ask(addr, &request_line(1, &raw, None));
    res.expect("forecast while traced");
    lttf::obs::trace::set_enabled(false);
    let export = lttf::obs::trace::export_chrome();
    let summary = lttf::obs::trace::validate_chrome(&export.json).expect("trace validates");
    assert!(summary.async_slices >= 1, "{}", export.json);
    assert!(export.json.contains("\"name\":\"serve.req\""), "{}", export.json);

    // The metrics command answers with a Prometheus-style exposition
    // that already counts the request above.
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{{\"id\":2,\"cmd\":\"metrics\"}}").unwrap();
    writer.flush().unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let (id, text) = protocol::parse_metrics_response(resp.trim_end()).expect("metrics response");
    assert_eq!(id, 2);
    let text = text.expect("metrics ok");
    assert!(text.contains("lttf_up 1\n"), "{text}");
    assert!(
        text.contains("lttf_serve_requests_served_total{model=\"m\"} 1\n"),
        "{text}"
    );
    assert!(
        text.contains("lttf_serve_latency_seconds{model=\"m\",gen=\"1\",quantile=\"0.99\"}"),
        "{text}"
    );
    assert!(
        text.contains("lttf_serve_latency_hist_seconds_bucket{model=\"m\",le=\"+Inf\"} 1\n"),
        "{text}"
    );
    assert!(text.contains("lttf_health_diverged"), "{text}");
    // The live exposition must satisfy the same strict validator CI runs
    // (`metrics_check`): histogram families complete and ordered, no
    // duplicate series, parseable sample lines throughout.
    lttf::obs::metrics::validate(&text).expect("exposition validates");

    handle.shutdown();
}

/// Model `m`'s per-feature drift scores, in feature order.
fn drift_scores(doc: &Exposition) -> Vec<f64> {
    (0..)
        .map_while(|i: usize| {
            let feature = i.to_string();
            doc.get("lttf_drift_score", &[("model", "m"), ("feature", &feature)])
        })
        .collect()
}

#[test]
fn drift_monitor_alerts_on_shifted_traffic_only() {
    use lttf::obs::{FeatureStats, ReferenceProfile};
    use lttf::serve::DriftConfig;

    // Reference matching raw_window's distribution: randn * 3 per
    // feature — mean 0, std 3, symmetric quantiles.
    let profile = ReferenceProfile {
        features: vec![
            FeatureStats { mean: 0.0, std: 3.0, q10: -3.84, q50: 0.0, q90: 3.84 };
            3
        ],
        count: 1000,
    };
    let model = test_model().with_profile(profile);
    let handle = serve(
        Registry::single("m", model),
        "127.0.0.1:0",
        ServeConfig {
            // Each request contributes lx = 12 time steps per feature;
            // two requests are already scoreable.
            drift: DriftConfig { min_count: 24, ..DriftConfig::default() },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();
    let reference = test_model();

    // Phase 1: in-distribution traffic must NOT trip the alert.
    for i in 0..4u64 {
        let raw = raw_window(&reference, 700 + i);
        let (_, res) = ask(addr, &request_line(i, &raw, None));
        res.expect("served");
    }
    let m = [("model", "m")];
    let doc = ask_metrics(addr, 50);
    let available = doc.get("lttf_drift_available", &m);
    assert_eq!(available, Some(1.0), "profile-armed model must report available");
    let scores = drift_scores(&doc);
    let alert = doc.get("lttf_drift_alert", &m);
    assert_eq!(alert, Some(0.0), "in-distribution traffic alerted: {scores:?}");
    assert_eq!(scores.len(), 3);
    assert!(
        scores.iter().all(|&s| s < 1.0),
        "scores must stay below threshold: {scores:?}"
    );

    // Phase 2: shift every value by +5 training stds — the alert must
    // fire within the same evaluation window.
    for i in 0..8u64 {
        let mut raw = raw_window(&reference, 800 + i);
        for v in &mut raw {
            *v += 15.0;
        }
        let (_, res) = ask(addr, &request_line(100 + i, &raw, None));
        res.expect("shifted traffic is still served");
    }
    let doc = ask_metrics(addr, 60);
    let scores = drift_scores(&doc);
    let alert = doc.get("lttf_drift_alert", &m);
    assert_eq!(alert, Some(1.0), "5-sigma shift must alert: {scores:?}");
    assert!(
        scores.iter().any(|&s| s >= 1.0),
        "at least one feature must cross the threshold: {scores:?}"
    );

    handle.shutdown();
}

#[test]
fn metrics_command_reports_windowed_latency_and_flows() {
    let handle = serve(
        Registry::single("m", test_model()),
        "127.0.0.1:0",
        ServeConfig {
            admission: AdmissionConfig {
                shed_depth: Some(0), // refuse everything: exercise the shed flow
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let raw = raw_window(&test_model(), 23);
    let (_, res) = ask(handle.addr(), &request_line(1, &raw, None));
    res.expect_err("shed_depth 0 refuses forecasts");
    let m = [("model", "m")];
    let doc = ask_metrics(handle.addr(), 2);
    assert_eq!(doc.label_values("lttf_serve_generation", "model"), ["m"]);
    let served = doc.get("lttf_serve_requests_served_total", &m);
    assert_eq!(served, Some(0.0), "shed traffic never reaches a replica");
    let shed = doc.get("lttf_serve_shed_per_second", &[]).unwrap();
    assert!(shed > 0.0, "windowed shed rate must see the refusal: {shed}");
    assert_eq!(doc.get("lttf_serve_rejected_per_second", &[]), Some(0.0));
    handle.shutdown();

    // A permissive server serves, and the windowed latency view fills in.
    let handle = serve(
        Registry::single("m", test_model()),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind");
    for i in 0..3u64 {
        let (_, res) = ask(handle.addr(), &request_line(i, &raw, None));
        res.expect("served");
    }
    let doc = ask_metrics(handle.addr(), 9);
    assert_eq!(doc.get("lttf_serve_requests_served_total", &m), Some(3.0));
    let window = doc.get("lttf_serve_window_requests", &[("model", "m"), ("gen", "1")]);
    assert_eq!(window, Some(3.0), "all three land in the trailing window");
    let q = |metric: &str, quantile: &str| {
        let labels = [("model", "m"), ("gen", "1"), ("quantile", quantile)];
        doc.get(metric, &labels).unwrap()
    };
    let p50 = q("lttf_serve_latency_seconds", "0.5");
    let p99 = q("lttf_serve_latency_seconds", "0.99");
    assert!(p50 > 0.0 && p50 <= p99, "p50 {p50} p99 {p99}");
    let queue = q("lttf_serve_queue_wait_seconds", "0.5");
    assert!(queue <= p50, "queue wait is a component of total latency: {queue} > {p50}");
    let service = q("lttf_serve_service_time_seconds", "0.5");
    assert!(service > 0.0, "service p50 {service}");
    assert_eq!(doc.get("lttf_serve_shed_per_second", &[]), Some(0.0));
    handle.shutdown();
}

#[test]
fn profileless_checkpoint_serves_with_drift_unavailable() {
    // Checkpoints from before the drift profile existed must keep
    // serving; the monitor reports unavailable instead of guessing.
    let dir = std::env::temp_dir().join(format!(
        "lttf-noprofile-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("ckpt");
    let base = base.to_str().unwrap().to_string();

    let model = test_model(); // from_parts: no profile attached
    model.save(&base).expect("write checkpoint");
    let loaded = LoadedModel::load(&base).expect("load plain checkpoint");
    assert!(loaded.profile().is_none(), "no profile must round-trip as None");

    let handle = serve(
        Registry::single("m", loaded),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind");
    let reference = test_model();
    let raw = raw_window(&reference, 19);
    let (_, res) = ask(handle.addr(), &request_line(1, &raw, None));
    assert_eq!(
        res.expect("profile-less checkpoints must keep serving"),
        reference.forecast_one(&raw, 1_700_000_000, 3600).unwrap()
    );
    let m = [("model", "m")];
    let doc = ask_metrics(handle.addr(), 2);
    assert_eq!(doc.get("lttf_drift_available", &m), Some(0.0));
    assert_eq!(doc.get("lttf_drift_alert", &m), Some(0.0));
    assert!(doc.label_values("lttf_drift_score", "feature").is_empty());

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Streaming sessions and online adaptation
// ---------------------------------------------------------------------------

/// `n` rows of 3 features drawn from the test model's raw distribution.
fn session_rows(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let t = Tensor::randn(&[n, 3], &mut Rng::seed(seed)).mul_scalar(3.0);
    (0..n)
        .map(|r| (0..3).map(|c| t.at(&[r, c])).collect())
        .collect()
}

/// A server-wide (unlabelled) series, which the exposition always carries.
fn total(doc: &Exposition, name: &str) -> f64 {
    doc.get(name, &[]).unwrap_or_else(|| panic!("no {name} series"))
}

/// Poll `cond` until it holds or `budget_ms` elapses.
fn wait_for(mut cond: impl FnMut() -> bool, budget_ms: u64, what: &str) {
    let t0 = std::time::Instant::now();
    while !cond() {
        assert!(
            t0.elapsed().as_millis() < budget_ms as u128,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// The drift reference matching `session_rows` (randn * 3 per feature).
fn matched_profile() -> lttf::obs::ReferenceProfile {
    lttf::obs::ReferenceProfile {
        features: vec![
            lttf::obs::FeatureStats {
                mean: 0.0,
                std: 3.0,
                q10: -3.84,
                q50: 0.0,
                q90: 3.84
            };
            3
        ],
        count: 1000,
    }
}

#[test]
fn session_push_forecasts_match_one_shot_bit_for_bit() {
    // With adaptation off, a session push that completes the window must
    // answer with exactly the floats a one-shot forecast of the same
    // window would produce — streaming is a protocol change, not a
    // numerics change.
    let reference = test_model();
    let handle = serve(
        Registry::single("m", test_model()),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind");
    let mut client = SessionClient::connect(handle.addr());
    let (session, window_rows) = client.open(1);
    assert_eq!(window_rows, 12, "tiny(3, 12, 6) keeps a 12-row window");

    let rows = session_rows(20, 4242);
    for (t, row) in rows.iter().enumerate() {
        let reply = client.push(10 + t as u64, session, row).expect("push served");
        let pushed = t + 1;
        if pushed < window_rows {
            match reply {
                protocol::PushReply::Pending(p) => assert_eq!(p, window_rows - pushed),
                other => panic!("expected pending at row {t}, got {other:?}"),
            }
        } else {
            let protocol::PushReply::Forecast {
                generation,
                adapted,
                forecast,
            } = reply
            else {
                panic!("expected a forecast at row {t}");
            };
            assert_eq!(generation, 1);
            assert!(!adapted, "adaptation is off");
            let window: Vec<f32> = rows[pushed - window_rows..pushed].concat();
            let slice_t0 = 1_700_000_000 + 3600 * (pushed - window_rows) as i64;
            let want = reference
                .forecast_one(&window, slice_t0, 3600)
                .expect("direct forward");
            assert_eq!(forecast, want, "row {t} diverged from the one-shot path");
        }
    }
    let (pushed, forecasts) = client.close(99, session);
    assert_eq!(pushed, 20);
    assert_eq!(forecasts, 9, "every push from row 12 on forecasts");
    handle.shutdown();
}

#[test]
fn session_ttl_evicts_idle_sessions_over_tcp() {
    let handle = serve(
        Registry::single("m", test_model()),
        "127.0.0.1:0",
        ServeConfig {
            session: SessionConfig {
                max_sessions: 4,
                ttl_ms: 60,
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = SessionClient::connect(handle.addr());
    let (session, _) = client.open(1);
    client
        .push(2, session, &[1.0, 2.0, 3.0])
        .expect("fresh session accepts pushes");
    std::thread::sleep(std::time::Duration::from_millis(150));
    let err = client
        .push(3, session, &[1.0, 2.0, 3.0])
        .expect_err("an idle session past its TTL must be gone");
    assert!(err.contains("unknown session"), "unexpected error: {err}");
    let doc = ask_metrics(handle.addr(), 4);
    assert_eq!(doc.get("lttf_sessions_open", &[]), Some(0.0));
    let evictions = doc.get("lttf_session_evictions_total", &[]).unwrap();
    assert!(evictions >= 1.0, "{evictions} evictions");
    assert_eq!(doc.label_values("lttf_adapt_state", "state"), ["off"]);
    handle.shutdown();
}

#[test]
fn sessions_survive_hot_reload() {
    // A session binds a model *name*, not a generation: reloading the
    // checkpoint mid-session must not invalidate the session, and the
    // next push is served by the new generation.
    let dir = std::env::temp_dir().join(format!(
        "lttf-session-reload-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("ckpt");
    let base = base.to_str().unwrap().to_string();
    let model = test_model();
    model.save(&base).expect("write checkpoint");

    let handle = serve(
        Registry::single("m", model),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("bind");
    let addr = handle.addr();
    let mut client = SessionClient::connect(addr);
    let (session, window_rows) = client.open(1);

    let rows = session_rows(13, 555);
    for (t, row) in rows[..12].iter().enumerate() {
        let reply = client.push(10 + t as u64, session, row).expect("push served");
        if t + 1 == window_rows {
            let protocol::PushReply::Forecast { generation, .. } = reply else {
                panic!("full window must forecast");
            };
            assert_eq!(generation, 1);
        }
    }

    // Reload the same checkpoint: generation 2, same parameter bits.
    let reload = SessionClient::connect(addr).ask(&protocol::format_reload(9000, Some("m"), &base));
    let (_, info) = protocol::parse_reload_response(&reload).expect("reload reply");
    assert_eq!(info.expect("reload succeeds").generation, 2);
    let reply = client.push(100, session, &rows[12]).expect("push after reload");
    let protocol::PushReply::Forecast {
        generation,
        adapted,
        forecast,
    } = reply
    else {
        panic!("the session must keep forecasting across the reload");
    };
    assert_eq!(generation, 2, "the push after the swap lands on the new generation");
    assert!(!adapted, "a checkpoint reload is not an adapter publish");
    let window: Vec<f32> = rows[13 - window_rows..13].concat();
    let slice_t0 = 1_700_000_000 + 3600 * (13 - window_rows) as i64;
    let reference = test_model();
    assert_eq!(
        forecast,
        reference.forecast_one(&window, slice_t0, 3600).unwrap(),
        "same checkpoint bits on both generations must agree"
    );
    let (pushed, forecasts) = client.close(200, session);
    assert_eq!((pushed, forecasts), (13, 2));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_nan_adapt_round_rolls_back_and_leaves_forecasts_bit_identical() {
    // Fault injection: every adapter round ends with a NaN written into
    // the tuned copy. The health gate must catch it, count a rollback,
    // publish nothing — and the live model must keep forecasting the
    // exact same floats as an untouched reference model.
    let handle = serve(
        Registry::single("m", test_model().with_profile(matched_profile())),
        "127.0.0.1:0",
        ServeConfig {
            drift: DriftConfig {
                min_count: 8,
                ..DriftConfig::default()
            },
            adapt: AdaptConfig {
                enabled: true,
                inject_nan: true,
                interval_ms: 10,
                min_examples: 2,
                steps: 1,
                batch: 2,
                ..AdaptConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();
    let reference = test_model();
    let mut client = SessionClient::connect(addr);
    let (session, _) = client.open(1);

    // 5σ-shifted traffic: trips the drift monitor and feeds the adapter
    // real out-of-distribution examples (keep = lx + ly = 18 rows).
    let rows: Vec<Vec<f32>> = session_rows(30, 77)
        .into_iter()
        .map(|r| r.into_iter().map(|v| v + 15.0).collect())
        .collect();
    for (t, row) in rows.iter().enumerate() {
        client.push(10 + t as u64, session, row).expect("push served");
    }
    wait_for(
        || total(&ask_metrics(addr, 500), "lttf_adapt_rollbacks_total") >= 1.0,
        10_000,
        "a watchdog rollback",
    );
    let doc = ask_metrics(addr, 501);
    assert_eq!(
        total(&doc, "lttf_adapt_publishes_total"),
        0.0,
        "a poisoned round must never publish"
    );

    let reply = client.push(900, session, &rows[0]).expect("post-rollback push");
    let protocol::PushReply::Forecast {
        generation,
        adapted,
        forecast,
    } = reply
    else {
        panic!("post-rollback push must still forecast");
    };
    assert_eq!(generation, 1, "no adapted generation may exist after rollback");
    assert!(!adapted);
    // 31 rows pushed in total; the window is the trailing 12.
    let mut all = rows.clone();
    all.push(rows[0].clone());
    let window: Vec<f32> = all[all.len() - 12..].concat();
    let slice_t0 = 1_700_000_000 + 3600 * (all.len() - 12) as i64;
    assert_eq!(
        forecast,
        reference.forecast_one(&window, slice_t0, 3600).unwrap(),
        "serving params must be bit-identical to the pre-adapt snapshot"
    );
    handle.shutdown();
}

#[test]
fn drift_triggered_adaptation_publishes_on_shift_and_stays_quiet_in_distribution() {
    let handle = serve(
        Registry::single("m", test_model().with_profile(matched_profile())),
        "127.0.0.1:0",
        ServeConfig {
            drift: DriftConfig {
                min_count: 8,
                ..DriftConfig::default()
            },
            adapt: AdaptConfig {
                enabled: true,
                interval_ms: 10,
                min_examples: 2,
                steps: 2,
                batch: 2,
                ..AdaptConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();
    let mut client = SessionClient::connect(addr);
    let (session, _) = client.open(1);

    // Phase 1: in-distribution traffic. Examples accumulate, but the
    // drift monitor never alerts, so the adapter must not fire.
    for (t, row) in session_rows(24, 88).iter().enumerate() {
        client.push(10 + t as u64, session, row).expect("push served");
    }
    std::thread::sleep(std::time::Duration::from_millis(200));
    let doc = ask_metrics(addr, 300);
    assert_eq!(total(&doc, "lttf_adapt_enabled"), 1.0);
    assert_eq!(
        total(&doc, "lttf_adapt_publishes_total"),
        0.0,
        "in-distribution traffic must not trigger adaptation"
    );
    assert_eq!(total(&doc, "lttf_adapt_rollbacks_total"), 0.0);

    // Phase 2: shift every value by +5 training stds. The monitor
    // alerts, the adapter fine-tunes and publishes, and push replies
    // start carrying the adapted generation.
    let shifted: Vec<Vec<f32>> = session_rows(16, 89)
        .into_iter()
        .map(|r| r.into_iter().map(|v| v + 15.0).collect())
        .collect();
    for (t, row) in shifted.iter().enumerate() {
        client.push(100 + t as u64, session, row).expect("push served");
    }
    wait_for(
        || total(&ask_metrics(addr, 400), "lttf_adapt_publishes_total") >= 1.0,
        15_000,
        "a drift-triggered publish",
    );

    let mut saw_adapted = false;
    for i in 0..200u64 {
        let reply = client
            .push(1000 + i, session, &shifted[i as usize % shifted.len()])
            .expect("push served");
        if let protocol::PushReply::Forecast {
            generation, adapted, ..
        } = reply
        {
            if adapted && generation >= 2 {
                saw_adapted = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(saw_adapted, "push replies never reached an adapted generation");
    handle.shutdown();
}
