//! Live serve metrics: the text behind the `"metrics"` request type.
//!
//! Renders a Prometheus-style exposition (see [`lttf_obs::metrics`])
//! covering what an operator watches on a running server:
//!
//! * per-model replica count, serving generation, aggregate and
//!   per-replica queue depth,
//! * **trailing-window** latency quantiles (total, queue wait, service
//!   time) labeled by model and generation — "what is p99 *right now*",
//!   from fixed-memory log-linear histograms, never diluted by hours-old
//!   traffic,
//! * the **lifetime** latency distribution as a Prometheus histogram
//!   family (`_bucket`/`_sum`/`_count`, cumulative and monotone — the
//!   series `rate()`/`histogram_quantile()` work on),
//! * per-replica served counters and windowed medians,
//! * batches whose forward panicked (`lttf_serve_forward_panics_total`;
//!   their requests got an error reply and are not counted as served),
//! * windowed shed / queue-full / resubmit rates from admission and
//!   dispatch,
//! * the drift monitor's verdict: per-feature divergence scores against
//!   the training reference profile and the `lttf_drift_alert` flag,
//! * session counts and the online adapter's counters and state
//!   (`lttf_adapt_state{state="off|idle|adapting|published|rolled_back"} 1`),
//! * the training-health watchdog state and the full observability
//!   registry snapshot (request/connection counters, admission refusals,
//!   dispatch spills, batch-size gauges), plus how many trace spans the
//!   bounded rings have overwritten (`lttf_trace_dropped_total`).
//!
//! No IO here: the server embeds the returned text in a one-line JSON
//! response ([`crate::protocol::format_metrics`]). The exposition is
//! kept strictly parseable — `lttf_obs::metrics::validate` (and the
//! `metrics_check` binary CI runs against a live server) accepts it.

use std::sync::Arc;

use lttf_obs::hist::LATENCY_LE_NS;
use lttf_obs::metrics::MetricsText;
use lttf_obs::{health, registry, trace};

use crate::adapt::AdaptState;
use crate::dispatch::ModelEntry;
use crate::stats::FlowRates;

/// Server-level session and adapter gauges, snapshotted by the server
/// when a `metrics` request arrives.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerGauges {
    /// Sessions currently open.
    pub sessions_open: u64,
    /// Sessions opened since startup.
    pub sessions_opened: u64,
    /// Sessions evicted by the TTL sweep since startup.
    pub session_evictions: u64,
    /// Whether online adaptation is enabled.
    pub adapt_enabled: bool,
    /// Where the adapter is in its cycle (`Off` when disabled).
    pub adapt_state: AdaptState,
    /// Lifetime adapter gradient steps.
    pub adapt_steps: u64,
    /// Lifetime rolled-back adaptation rounds.
    pub adapt_rollbacks: u64,
    /// Lifetime published adaptation rounds.
    pub adapt_publishes: u64,
    /// Lifetime process-CPU nanoseconds spent in adaptation rounds.
    pub adapt_cpu_ns: u64,
    /// Lifetime heap bytes allocated during adaptation rounds.
    pub adapt_alloc_bytes: u64,
}

/// Render the exposition for the routing table's current entries
/// (typically every model the server fronts, current generation each)
/// plus the server-level flow rates and session/adapter gauges.
pub fn render(entries: &[Arc<ModelEntry>], flow: &FlowRates, gauges: &ServerGauges) -> String {
    let mut m = MetricsText::new();
    m.line("lttf_up", &[], 1.0);
    for entry in entries {
        let name = entry.name();
        let gen = entry.generation().to_string();
        let labels = [("model", name)];
        let gen_labels = [("model", name), ("gen", gen.as_str())];
        let pool = entry.pool();
        m.line("lttf_serve_replicas", &labels, pool.replicas() as f64);
        m.line("lttf_serve_generation", &labels, entry.generation() as f64);
        m.line("lttf_serve_queue_depth", &labels, pool.queue_depth() as f64);
        for (i, depth) in pool.replica_depths().into_iter().enumerate() {
            let replica = i.to_string();
            m.line(
                "lttf_serve_replica_queue_depth",
                &[("model", name), ("replica", &replica)],
                depth as f64,
            );
        }

        let stats = pool.stats();
        let life = stats.lifetime();
        m.line("lttf_serve_requests_served_total", &labels, life.count() as f64);
        m.line("lttf_serve_forward_panics_total", &labels, stats.forward_panics() as f64);
        // The cumulative distribution: monotone across scrapes, the
        // input to rate() + histogram_quantile().
        m.histogram("lttf_serve_latency_hist_seconds", &labels, &life, &LATENCY_LE_NS);
        if !life.is_empty() {
            m.line("lttf_serve_latency_seconds_min", &labels, life.min() as f64 / 1e9);
            m.line("lttf_serve_latency_seconds_max", &labels, life.max() as f64 / 1e9);
            m.line("lttf_serve_latency_seconds_mean", &labels, life.mean() as f64 / 1e9);
        }

        // Trailing-window quantiles: what the last ~2 minutes look like,
        // labeled with the generation that served them.
        let win = stats.windowed();
        m.line("lttf_serve_window_seconds", &labels, win.window_ms as f64 / 1e3);
        m.line("lttf_serve_window_requests", &gen_labels, win.total.count() as f64);
        if !win.total.is_empty() {
            let q = |m: &mut MetricsText, metric: &str, hist: &lttf_obs::hist::Histogram,
                         quantile: &str, p: f64| {
                m.line(
                    metric,
                    &[("model", name), ("gen", gen.as_str()), ("quantile", quantile)],
                    hist.quantile(p) as f64 / 1e9,
                );
            };
            for (label, p) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                q(&mut m, "lttf_serve_latency_seconds", &win.total, label, p);
            }
            for (label, p) in [("0.5", 0.50), ("0.95", 0.95)] {
                q(&mut m, "lttf_serve_queue_wait_seconds", &win.queue, label, p);
                q(&mut m, "lttf_serve_service_time_seconds", &win.service, label, p);
            }
            // Per-request cost quantiles, in raw units (ns / bytes): the
            // cpu series is a duration-shaped cost, the alloc series a
            // byte count — neither is a wall-clock latency, so they are
            // not scaled to seconds like the series above.
            let qr = |m: &mut MetricsText, metric: &str, hist: &lttf_obs::hist::Histogram,
                          quantile: &str, p: f64| {
                m.line(
                    metric,
                    &[("model", name), ("gen", gen.as_str()), ("quantile", quantile)],
                    hist.quantile(p) as f64,
                );
            };
            for (label, p) in [("0.5", 0.50), ("0.95", 0.95)] {
                qr(&mut m, "lttf_request_cpu_ns", &win.cpu, label, p);
                qr(&mut m, "lttf_request_alloc_bytes", &win.alloc, label, p);
            }
        }
        for i in 0..stats.replicas() {
            let replica = i.to_string();
            let rl = [("model", name), ("replica", replica.as_str())];
            m.line("lttf_serve_replica_served_total", &rl, stats.replica_served(i) as f64);
            let rw = stats.replica_window(i);
            if !rw.is_empty() {
                m.line(
                    "lttf_serve_replica_latency_seconds",
                    &[("model", name), ("replica", replica.as_str()), ("quantile", "0.5")],
                    rw.quantile(0.50) as f64 / 1e9,
                );
            }
        }

        let drift = entry.drift().status();
        m.line("lttf_drift_available", &labels, drift.available as u8 as f64);
        m.line("lttf_drift_alert", &labels, drift.alert as u8 as f64);
        m.line("lttf_drift_threshold", &labels, drift.threshold);
        m.line("lttf_drift_window_count", &labels, drift.window_count as f64);
        for (i, &score) in drift.scores.iter().enumerate() {
            let feature = i.to_string();
            m.line(
                "lttf_drift_score",
                &[("model", name), ("feature", feature.as_str())],
                score,
            );
        }
        if drift.available {
            m.line("lttf_drift_prediction_score", &labels, drift.prediction_score);
        }
    }
    m.line("lttf_serve_shed_per_second", &[], flow.shed_per_sec);
    m.line("lttf_serve_rejected_per_second", &[], flow.rejected_per_sec);
    m.line("lttf_serve_resubmitted_per_second", &[], flow.resubmitted_per_sec);
    m.line("lttf_sessions_open", &[], gauges.sessions_open as f64);
    m.line("lttf_sessions_opened_total", &[], gauges.sessions_opened as f64);
    m.line("lttf_session_evictions_total", &[], gauges.session_evictions as f64);
    m.line("lttf_adapt_enabled", &[], gauges.adapt_enabled as u8 as f64);
    m.line("lttf_adapt_state", &[("state", gauges.adapt_state.label())], 1.0);
    m.line("lttf_adapt_steps_total", &[], gauges.adapt_steps as f64);
    m.line("lttf_adapt_rollbacks_total", &[], gauges.adapt_rollbacks as f64);
    m.line("lttf_adapt_publishes_total", &[], gauges.adapt_publishes as f64);
    m.line("lttf_adapt_cpu_seconds_total", &[], gauges.adapt_cpu_ns as f64 / 1e9);
    m.line("lttf_adapt_alloc_bytes_total", &[], gauges.adapt_alloc_bytes as f64);
    // Process-wide memory accounting from the instrumented allocator
    // (both 0 when the telemetry feature is compiled out).
    let mem = lttf_obs::alloc::snapshot();
    m.line("lttf_mem_live_bytes", &[], mem.live_bytes as f64);
    m.line("lttf_mem_peak_bytes", &[], mem.peak_bytes as f64);
    m.line("lttf_trace_dropped_total", &[], trace::dropped_total() as f64);
    match health::global() {
        Some(d) => m.line("lttf_health_diverged", &[("layer", &d.layer)], 1.0),
        None => m.line("lttf_health_diverged", &[], 0.0),
    };
    m.registry(&registry::snapshot());
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::PoolConfig;
    use crate::registry::tiny_model;
    use crate::stats::FlowStats;
    use lttf_tensor::{Rng, Tensor};

    #[test]
    fn renders_replicas_generation_queue_and_latency() {
        let model = Arc::new(tiny_model());
        let cfg = PoolConfig {
            replicas: 2,
            threads_per_replica: Some(1),
            ..PoolConfig::default()
        };
        let entry = Arc::new(ModelEntry::start("demo", 3, Arc::clone(&model), &cfg));
        let raw = Tensor::randn(&[model.window_len()], &mut Rng::seed(5))
            .data()
            .to_vec();
        let w = model.make_window(&raw, 0, 60).unwrap();
        let rx = entry.pool().submit(w, None).unwrap();
        rx.recv().unwrap().unwrap();

        let flow = FlowStats::new();
        flow.shed();
        let gauges = ServerGauges {
            sessions_open: 2,
            sessions_opened: 5,
            session_evictions: 1,
            adapt_enabled: true,
            adapt_state: AdaptState::Published,
            adapt_steps: 8,
            adapt_rollbacks: 1,
            adapt_publishes: 2,
            adapt_cpu_ns: 1_500_000_000,
            adapt_alloc_bytes: 3_145_728,
        };
        let text = render(&[Arc::clone(&entry)], &flow.rates(), &gauges);
        assert!(text.contains("lttf_up 1\n"), "{text}");
        assert!(text.contains("lttf_serve_replicas{model=\"demo\"} 2\n"), "{text}");
        assert!(text.contains("lttf_serve_generation{model=\"demo\"} 3\n"), "{text}");
        assert!(text.contains("lttf_serve_queue_depth{model=\"demo\"} 0\n"), "{text}");
        assert!(
            text.contains("lttf_serve_replica_queue_depth{model=\"demo\",replica=\"1\"} 0\n"),
            "{text}"
        );
        assert!(text.contains("lttf_serve_requests_served_total{model=\"demo\"} 1\n"), "{text}");
        assert!(text.contains("lttf_serve_forward_panics_total{model=\"demo\"} 0\n"), "{text}");
        // Windowed quantiles carry the generation label.
        assert!(
            text.contains("lttf_serve_latency_seconds{model=\"demo\",gen=\"3\",quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(
            text.contains("lttf_serve_queue_wait_seconds{model=\"demo\",gen=\"3\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("lttf_serve_service_time_seconds{model=\"demo\",gen=\"3\",quantile=\"0.5\"}"),
            "{text}"
        );
        // The lifetime distribution renders as a full histogram family.
        assert!(
            text.contains("lttf_serve_latency_hist_seconds_bucket{model=\"demo\",le=\"+Inf\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("lttf_serve_latency_hist_seconds_count{model=\"demo\"} 1\n"), "{text}");
        assert!(
            text.contains("lttf_serve_replica_served_total{model=\"demo\",replica=\"0\"}"),
            "{text}"
        );
        // tiny_model has no reference profile: drift is declared
        // unavailable, not omitted.
        assert!(text.contains("lttf_drift_available{model=\"demo\"} 0\n"), "{text}");
        assert!(text.contains("lttf_drift_alert{model=\"demo\"} 0\n"), "{text}");
        assert!(text.contains("lttf_serve_shed_per_second"), "{text}");
        assert!(text.contains("lttf_sessions_open 2\n"), "{text}");
        assert!(text.contains("lttf_sessions_opened_total 5\n"), "{text}");
        assert!(text.contains("lttf_session_evictions_total 1\n"), "{text}");
        assert!(text.contains("lttf_adapt_enabled 1\n"), "{text}");
        assert!(text.contains("lttf_adapt_state{state=\"published\"} 1\n"), "{text}");
        assert!(text.contains("lttf_adapt_steps_total 8\n"), "{text}");
        assert!(text.contains("lttf_adapt_rollbacks_total 1\n"), "{text}");
        assert!(text.contains("lttf_adapt_publishes_total 2\n"), "{text}");
        assert!(text.contains("lttf_adapt_cpu_seconds_total 1.5\n"), "{text}");
        assert!(text.contains("lttf_adapt_alloc_bytes_total 3145728\n"), "{text}");
        // Always present, even when the allocator is compiled out (0).
        assert!(text.contains("lttf_mem_live_bytes"), "{text}");
        assert!(text.contains("lttf_mem_peak_bytes"), "{text}");
        // Per-request cost quantiles in raw units, gen-labeled.
        assert!(
            text.contains("lttf_request_cpu_ns{model=\"demo\",gen=\"3\",quantile=\"0.95\"}"),
            "{text}"
        );
        assert!(
            text.contains("lttf_request_alloc_bytes{model=\"demo\",gen=\"3\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("lttf_trace_dropped_total"), "{text}");
        assert!(text.contains("lttf_health_diverged"), "{text}");

        // The whole exposition must satisfy the strict validator CI runs.
        let summary = lttf_obs::metrics::validate(&text).expect("exposition must validate");
        assert!(summary.histograms >= 1, "histogram family must be counted");

        entry.pool().drain();
    }
}
