//! The metric catalog, correctness bookkeeping, and the two output forms:
//! the one-line result a benchmark harness reads and the run record `compare`
//! reads.

use crate::json::quote;
use crate::meter::HostNote;
use crate::stats::Summary;

/// End-to-end metrics: every workload reports each of them, untraced.
/// The timings are per unit of work: a reply carrying a forecast on the
/// serving workloads, an optimizer step on `train_step`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_mem_mb", "MB"),
];

/// Per-layer metrics: the traced run reports each of them.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.format_us", "us"),
    ("serve.drift.observe_us", "us"),
    ("serve.registry.make_window_us", "us"),
    ("serve.tcp.residual_us", "us"),
    ("serve.session.push_us", "us"),
    ("serve.session.forecast_share", "ratio"),
    ("serve.session.write_p50_ms", "ms"),
    ("serve.session.write_p99_ms", "ms"),
    ("serve.engine.queue_wait_p50_ms", "ms"),
    ("serve.engine.service_p50_ms", "ms"),
    ("serve.engine.batch_size_mean", "count"),
    ("core.enc_repr.b1_us", "us"),
    ("core.encoder.b1_us", "us"),
    ("core.sirn.b1_us", "us"),
    ("core.dec_repr.b1_us", "us"),
    ("core.decoder.b1_us", "us"),
    ("core.flow.b1_us", "us"),
    ("core.forecast_rows.b1_us", "us"),
    ("core.unattributed.b1_us", "us"),
    ("core.enc_repr.b8_us", "us"),
    ("core.encoder.b8_us", "us"),
    ("core.sirn.b8_us", "us"),
    ("core.dec_repr.b8_us", "us"),
    ("core.decoder.b8_us", "us"),
    ("core.flow.b8_us", "us"),
    ("core.forecast_rows.b8_us", "us"),
    ("core.unattributed.b8_us", "us"),
    ("autograd.teardown.b1_us", "us"),
    ("autograd.teardown.b8_us", "us"),
    ("autograd.allocs_per_forward.b1", "count"),
    ("autograd.allocs_per_forward.b8", "count"),
    ("autograd.alloc_kb_per_forward.b1", "KB"),
    ("autograd.alloc_kb_per_forward.b8", "KB"),
    ("parallel.regions_per_forward.b8", "count"),
    ("data.batch_ms", "ms"),
    ("eval.batch_loss_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("nn.grads_ms", "ms"),
    ("nn.optim_ms", "ms"),
    ("train.unattributed_ms", "ms"),
    ("autograd.allocs_per_step", "count"),
    ("trace.overhead_pct", "%"),
];

/// Output-correctness bookkeeping: every reply or replayed result checked
/// is one attempt; a failed, refused or wrong one is one failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

impl Checks {
    /// Count one attempt that passed when `ok`, failed with `why` otherwise.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail_counted(why());
        }
    }

    /// Count one attempt that failed.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.fail_counted(why);
    }

    fn fail_counted(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }

    /// Fold another set of checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Bit-for-bit equality of two forecasts.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// Catalog unit.
    pub unit: &'static str,
    /// Value, sample count and IQR.
    pub summary: Summary,
}

/// What one run reports.
pub struct Outcome {
    /// Correctness checks over every output of the run.
    pub checks: Checks,
    /// Metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// The host's speed and the unadjusted numbers, for a workload run.
    pub host: Option<HostNote>,
}

impl Outcome {
    /// Build an outcome from `(name, summary)` pairs that must cover
    /// `catalog` exactly; units come from the catalog.
    pub fn new(
        checks: Checks,
        catalog: &[(&'static str, &'static str)],
        values: Vec<(String, Summary)>,
    ) -> Outcome {
        let metrics = catalog
            .iter()
            .map(|&(name, unit)| {
                let summary = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"))
                    .1;
                Metric {
                    name,
                    unit,
                    summary,
                }
            })
            .collect();
        assert_eq!(
            values.len(),
            catalog.len(),
            "a measured metric is not in the catalog"
        );
        Outcome {
            checks,
            metrics,
            host: None,
        }
    }

    /// The same outcome with the host's note attached.
    pub fn with_host(self, host: HostNote) -> Outcome {
        Outcome {
            host: Some(host),
            ..self
        }
    }

    /// Outputs all correct and every metric finite.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
            && self.checks.attempted > 0
            && self.metrics.iter().all(|m| m.summary.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (`{name: {value, unit}}`).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    num(m.summary.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// The run record `ledger compare` reads: the result plus the run's
    /// fingerprint, the host's note, and each metric's sample count and
    /// IQR.
    pub fn record(&self, fp: &Fingerprint) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"iqr\": {}}}",
                    quote(m.name),
                    num(m.summary.value),
                    quote(m.unit),
                    m.summary.n,
                    num(m.summary.iqr)
                )
            })
            .collect();
        format!(
            "{{\"fingerprint\": {}, \"host\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            fp.json(),
            self.host.as_ref().map_or("null".to_string(), HostNote::json),
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable table: one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        if let Some(h) = &self.host {
            out.push_str(&format!("  host: {}\n", h.json()));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<34} {:>14.4} {:<6} n={:<7} iqr={:.4}\n",
                m.name, m.summary.value, m.unit, m.summary.n, m.summary.iqr
            ));
        }
        out
    }
}

/// JSON number with all its digits; non-finite values become `null`
/// (and make the run incorrect).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Where and on what a run was measured, and what it was fed.
pub struct Fingerprint {
    /// Workload name (`trace` for the traced replay).
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
}

impl Fingerprint {
    /// The fingerprint as a JSON object, host facts included.
    pub fn json(&self) -> String {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let threads = std::env::var("LTTF_THREADS").unwrap_or_else(|_| "unset".to_string());
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"input_digest\": \"{:016x}\", \
             \"host_cores\": {}, \"simd\": {}, \"lttf_threads\": {}, \"forward_threads\": {}, \
             \"alloc_accounting\": {}}}",
            quote(&self.workload),
            self.seed,
            num(self.seconds),
            self.input_digest,
            cores,
            quote(lttf::tensor::simd::backend_name()),
            quote(&threads),
            lttf::parallel::num_threads(),
            // The counting allocator is installed by the `lttf` umbrella's
            // telemetry feature; with it compiled out every count reads 0.
            lttf::obs::alloc::allocs_total() > 0,
        )
    }
}
