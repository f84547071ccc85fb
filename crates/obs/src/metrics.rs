//! Prometheus-style text exposition, std-only.
//!
//! Renders `name{label="value"} 123` lines — the subset of the
//! [Prometheus text format] that scrapers and humans both read — from a
//! registry snapshot plus any caller-supplied series. The serve front end
//! answers its `"metrics"` request type with this output; nothing here
//! does IO or knows about HTTP.
//!
//! Conventions: every series is prefixed `lttf_`, dots in registry names
//! become underscores, counters get a `_total` suffix, and nanosecond
//! quantities are exposed in seconds (the Prometheus base unit).
//!
//! [Prometheus text format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::btree_map::{BTreeMap, Entry};

use crate::registry::{Kind, SpanSnapshot};

/// Rewrite an arbitrary registry name into a legal metric-name chunk:
/// `[a-zA-Z0-9_]`, with `.` and every other byte mapped to `_`.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Accumulates exposition lines; render with [`MetricsText::finish`].
#[derive(Default)]
pub struct MetricsText {
    buf: String,
}

impl MetricsText {
    /// Start an empty document.
    pub fn new() -> MetricsText {
        MetricsText::default()
    }

    /// Append one series sample. `name` is used verbatim (caller
    /// sanitizes); labels render as `{k="v",...}`; non-finite values are
    /// skipped (the format has no NaN).
    pub fn line(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        if !value.is_finite() {
            return self;
        }
        self.buf.push_str(name);
        if !labels.is_empty() {
            self.buf.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                self.buf.push_str(k);
                self.buf.push_str("=\"");
                // Label values escape backslash, quote, and newline.
                for c in v.chars() {
                    match c {
                        '\\' => self.buf.push_str("\\\\"),
                        '"' => self.buf.push_str("\\\""),
                        '\n' => self.buf.push_str("\\n"),
                        c => self.buf.push(c),
                    }
                }
                self.buf.push('"');
            }
            self.buf.push('}');
        }
        self.buf.push(' ');
        if value == value.trunc() && value.abs() < 9e15 {
            self.buf.push_str(&format!("{}", value as i64));
        } else {
            self.buf.push_str(&format!("{value}"));
        }
        self.buf.push('\n');
        self
    }

    /// Append every entry of a registry snapshot under the `lttf_`
    /// prefix: spans as `lttf_span_calls_total` / `lttf_span_seconds_total`
    /// (labelled by span name), counters as `lttf_<name>_total`,
    /// nanosecond gauges as `lttf_<name>_seconds_total`, and value gauges
    /// as `_count` / `_sum` / `_min` / `_max`.
    pub fn registry(&mut self, snap: &[SpanSnapshot]) -> &mut Self {
        for s in snap {
            let name = sanitize(&s.name);
            match s.kind {
                Kind::Span => {
                    self.line(
                        "lttf_span_calls_total",
                        &[("span", &s.name)],
                        s.calls as f64,
                    );
                    self.line(
                        "lttf_span_seconds_total",
                        &[("span", &s.name)],
                        s.total_ns as f64 / 1e9,
                    );
                }
                Kind::Counter => {
                    self.line(&format!("lttf_{name}_total"), &[], s.calls as f64);
                }
                Kind::GaugeNs => {
                    self.line(
                        &format!("lttf_{name}_seconds_total"),
                        &[],
                        s.total_ns as f64 / 1e9,
                    );
                }
                Kind::Gauge => {
                    self.line(&format!("lttf_{name}_count"), &[], s.calls as f64);
                    self.line(&format!("lttf_{name}_sum"), &[], s.total_ns as f64);
                    if s.calls > 0 {
                        self.line(&format!("lttf_{name}_min"), &[], s.min_ns as f64);
                        self.line(&format!("lttf_{name}_max"), &[], s.max_ns as f64);
                    }
                }
            }
        }
        self
    }

    /// Append a full Prometheus histogram (`_bucket`/`_sum`/`_count`)
    /// from a nanosecond-valued [`Histogram`](crate::hist::Histogram).
    ///
    /// `bounds_ns` are the cumulative `le` upper bounds in nanoseconds
    /// (exposed in seconds, the base unit); pass
    /// [`LATENCY_LE_NS`](crate::hist::LATENCY_LE_NS) for latencies.
    /// Power-of-two bounds align exactly with the log-linear bucket
    /// boundaries, so the cumulative counts are exact. The `+Inf`
    /// bucket, `_sum`, and `_count` are always emitted — an empty
    /// histogram still renders a complete (all-zero) family.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        hist: &crate::hist::Histogram,
        bounds_ns: &[u64],
    ) -> &mut Self {
        let bucket = format!("{name}_bucket");
        let les: Vec<String> = bounds_ns
            .iter()
            .map(|&b| format!("{}", b as f64 / 1e9))
            .collect();
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", ""));
        for (&bound, le) in bounds_ns.iter().zip(&les) {
            *with_le.last_mut().unwrap() = ("le", le);
            self.line(&bucket, &with_le, hist.count_le(bound) as f64);
        }
        *with_le.last_mut().unwrap() = ("le", "+Inf");
        self.line(&bucket, &with_le, hist.count() as f64);
        self.line(&format!("{name}_sum"), labels, hist.sum() as f64 / 1e9);
        self.line(&format!("{name}_count"), labels, hist.count() as f64);
        self
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Strict exposition validation (the `metrics_check` binary's engine)
// ---------------------------------------------------------------------------

/// A document [`validate`] accepted: its counts for the `ok` summary
/// line, and every sample for [`Exposition::get`] to look up.
pub struct Exposition {
    /// Sample lines (comments excluded).
    pub samples: usize,
    /// Distinct metric names.
    pub names: usize,
    /// Histogram families checked for `le` monotonicity.
    pub histograms: usize,
    /// Every sample, keyed by name and sorted labels.
    series: BTreeMap<Series, f64>,
}

/// A sample's identity: its metric name and its labels, sorted by name.
type Series = (String, Vec<(String, String)>);

impl Exposition {
    /// The value of the sample `name{labels}`, labels in any order;
    /// `None` when the document has no such series.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        self.series.get(&(name.to_string(), labels)).copied()
    }

    /// Every value the label `label` takes across the samples named
    /// `name`, in series order.
    pub fn label_values(&self, name: &str, label: &str) -> Vec<&str> {
        self.series
            .range((name.to_string(), Vec::new())..)
            .take_while(|((n, _), _)| n == name)
            .filter_map(|((_, labels), _)| labels.iter().find(|(k, _)| k == label))
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

/// `name{k="v",...}`, the form a series takes in error messages.
fn display(name: &str, labels: &[(String, String)]) -> String {
    let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{name}{{{}}}", labels.join(","))
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse one sample line into `((name, sorted labels), value)`.
fn parse_sample(line: &str) -> Result<(Series, f64), String> {
    let name_end = line
        .find(|c| c == '{' || c == ' ')
        .ok_or("missing value (no space)")?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut labels: Vec<(String, String)> = Vec::new();
    let bytes = line.as_bytes();
    let mut i = name_end;
    if bytes[i] == b'{' {
        i += 1;
        if bytes.get(i) == Some(&b'}') {
            return Err("empty label set {}".into());
        }
        loop {
            // Label name up to '='.
            let eq = line[i..]
                .find('=')
                .map(|o| i + o)
                .ok_or("label without '='")?;
            let lname = &line[i..eq];
            if !valid_label_name(lname) {
                return Err(format!("invalid label name {lname:?}"));
            }
            if bytes.get(eq + 1) != Some(&b'"') {
                return Err(format!("label {lname:?}: value not quoted"));
            }
            // Quoted value with \\, \", \n escapes.
            let mut value = String::new();
            let mut chars = line[eq + 2..].char_indices();
            let close;
            loop {
                match chars.next() {
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, c)) => return Err(format!("bad escape \\{c}")),
                        None => return Err("unterminated label value".into()),
                    },
                    Some((j, '"')) => {
                        close = eq + 2 + j;
                        break;
                    }
                    Some((_, c)) => value.push(c),
                    None => return Err("unterminated label value".into()),
                }
            }
            if labels.iter().any(|(k, _)| k == lname) {
                return Err(format!("duplicate label {lname:?}"));
            }
            labels.push((lname.to_string(), value));
            match bytes.get(close + 1) {
                Some(b',') => i = close + 2,
                Some(b'}') => {
                    i = close + 2;
                    break;
                }
                _ => return Err("expected ',' or '}' after label value".into()),
            }
        }
        labels.sort();
    }
    if bytes.get(i) != Some(&b' ') {
        return Err("expected space before value".into());
    }
    Ok(((name.to_string(), labels), parse_value(&line[i + 1..])?))
}

fn parse_value(tok: &str) -> Result<f64, String> {
    if tok.is_empty() || tok.contains(' ') {
        return Err(format!("malformed value {tok:?}"));
    }
    match tok {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => tok
            .parse::<f64>()
            .map_err(|e| format!("bad value {tok:?}: {e}")),
    }
}

/// Strictly validate a Prometheus text-exposition document.
///
/// Checks, line by line: trailing newline present, legal metric/label
/// names, quoting and escapes, parseable values, no duplicate series
/// (same name + label set). Then structurally: every `*_bucket` family
/// (grouped by its non-`le` labels) must have strictly ascending `le`
/// bounds ending in `+Inf`, non-decreasing cumulative counts, a
/// matching `_count` series equal to the `+Inf` bucket, and a matching
/// `_sum` series; `_total`-suffixed samples must be non-negative.
/// `#`-prefixed comment lines are skipped; empty lines are rejected.
pub fn validate(text: &str) -> Result<Exposition, String> {
    if text.is_empty() {
        return Err("empty document".into());
    }
    if !text.ends_with('\n') {
        return Err("missing trailing newline".into());
    }
    let mut series: BTreeMap<Series, f64> = BTreeMap::new();
    // base name + non-le labels -> [(le, cumulative count)]
    let mut hist_buckets: BTreeMap<Series, Vec<(f64, f64)>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let ctx = |e: String| format!("line {}: {e}", lineno + 1);
        if line.starts_with('#') {
            continue;
        }
        if line.is_empty() {
            return Err(ctx("empty line".into()));
        }
        let ((name, labels), value) = parse_sample(line).map_err(ctx)?;
        if name.ends_with("_total") && value < 0.0 {
            return Err(ctx(format!("counter {name} is negative ({value})")));
        }
        if let Some(base) = name.strip_suffix("_bucket") {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| ctx(format!("{name} sample without le label")))?;
            let bound = parse_value(&le.1).map_err(|e| ctx(format!("le label: {e}")))?;
            let others: Vec<_> = labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            hist_buckets
                .entry((base.to_string(), others))
                .or_default()
                .push((bound, value));
        }
        match series.entry((name, labels)) {
            Entry::Occupied(e) => {
                let (name, labels) = e.key();
                return Err(ctx(format!("duplicate series {}", display(name, labels))));
            }
            Entry::Vacant(e) => {
                e.insert(value);
            }
        }
    }
    let histograms = hist_buckets.len();
    for ((base, labels), buckets) in hist_buckets {
        let group = display(&base, &labels);
        let mut last_le = f64::NEG_INFINITY;
        let mut last_count = -1.0;
        for (le, count) in buckets {
            if le.is_nan() || le <= last_le {
                return Err(format!("{group}: le bounds not strictly ascending"));
            }
            if count < last_count {
                return Err(format!("{group}: cumulative bucket counts decrease"));
            }
            (last_le, last_count) = (le, count);
        }
        if last_le != f64::INFINITY {
            return Err(format!("{group}: last bucket is not le=\"+Inf\""));
        }
        match series.get(&(format!("{base}_count"), labels.clone())) {
            None => return Err(format!("{group}: missing {base}_count series")),
            Some(&c) if c != last_count => {
                return Err(format!(
                    "{group}: +Inf bucket ({last_count}) != _count ({c})"
                ))
            }
            Some(_) => {}
        }
        if !series.contains_key(&(format!("{base}_sum"), labels)) {
            return Err(format!("{group}: missing {base}_sum series"));
        }
    }
    let mut names: Vec<&str> = series.keys().map(|(name, _)| name.as_str()).collect();
    names.dedup();
    Ok(Exposition {
        samples: series.len(),
        names: names.len(),
        histograms,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_to_legal_names() {
        assert_eq!(sanitize("pool.busy_ns"), "pool_busy_ns");
        assert_eq!(sanitize("serve.queue depth"), "serve_queue_depth");
        assert_eq!(sanitize("9lives"), "_9lives");
    }

    #[test]
    fn lines_render_prometheus_shape() {
        let mut m = MetricsText::new();
        m.line("lttf_up", &[], 1.0)
            .line("lttf_latency_seconds", &[("p", "99"), ("model", "a\"b")], 0.25)
            .line("lttf_skip", &[], f64::NAN);
        let text = m.finish();
        assert!(text.contains("lttf_up 1\n"), "{text}");
        assert!(
            text.contains("lttf_latency_seconds{p=\"99\",model=\"a\\\"b\"} 0.25\n"),
            "{text}"
        );
        assert!(!text.contains("lttf_skip"), "NaN dropped: {text}");
    }

    #[test]
    fn registry_snapshot_renders_all_kinds() {
        let snap = vec![
            SpanSnapshot {
                name: "serve.batch".into(),
                kind: Kind::Span,
                calls: 3,
                total_ns: 2_000_000_000,
                self_ns: 2_000_000_000,
                min_ns: 1,
                max_ns: 2,
                bytes: 0,
                alloc_bytes: 0,
                allocs: 0,
            },
            SpanSnapshot {
                name: "pool.tasks".into(),
                kind: Kind::Counter,
                calls: 42,
                total_ns: 0,
                self_ns: 0,
                min_ns: 0,
                max_ns: 0,
                bytes: 0,
                alloc_bytes: 0,
                allocs: 0,
            },
            SpanSnapshot {
                name: "pool.busy_ns".into(),
                kind: Kind::GaugeNs,
                calls: 0,
                total_ns: 1_500_000_000,
                self_ns: 0,
                min_ns: 0,
                max_ns: 0,
                bytes: 0,
                alloc_bytes: 0,
                allocs: 0,
            },
            SpanSnapshot {
                name: "serve.batch_size".into(),
                kind: Kind::Gauge,
                calls: 2,
                total_ns: 10,
                self_ns: 0,
                min_ns: 4,
                max_ns: 6,
                bytes: 0,
                alloc_bytes: 0,
                allocs: 0,
            },
        ];
        let mut m = MetricsText::new();
        m.registry(&snap);
        let text = m.finish();
        assert!(text.contains("lttf_span_calls_total{span=\"serve.batch\"} 3\n"), "{text}");
        assert!(text.contains("lttf_span_seconds_total{span=\"serve.batch\"} 2\n"), "{text}");
        assert!(text.contains("lttf_pool_tasks_total 42\n"), "{text}");
        assert!(text.contains("lttf_pool_busy_ns_seconds_total 1.5\n"), "{text}");
        assert!(text.contains("lttf_serve_batch_size_count 2\n"), "{text}");
        assert!(text.contains("lttf_serve_batch_size_max 6\n"), "{text}");
    }

    #[test]
    fn histogram_family_renders_and_validates() {
        let mut h = crate::hist::Histogram::new();
        for v in [5_000u64, 80_000, 80_000, 2_000_000, 40_000_000_000] {
            h.record(v);
        }
        let mut m = MetricsText::new();
        m.histogram(
            "lttf_serve_latency_hist_seconds",
            &[("model", "m")],
            &h,
            &crate::hist::LATENCY_LE_NS,
        );
        let text = m.finish();
        assert!(
            text.contains("lttf_serve_latency_hist_seconds_bucket{model=\"m\",le=\"+Inf\"} 5\n"),
            "{text}"
        );
        assert!(text.contains("lttf_serve_latency_hist_seconds_count{model=\"m\"} 5\n"), "{text}");
        // 5_000 ns <= 2^14 ns (16.384 µs) — the second bound.
        assert!(
            text.contains("lttf_serve_latency_hist_seconds_bucket{model=\"m\",le=\"0.000016384\"} 1\n"),
            "{text}"
        );
        let summary = validate(&text).unwrap();
        assert_eq!(summary.histograms, 1);

        // Empty histograms still emit a complete family.
        let mut m = MetricsText::new();
        m.histogram("lttf_empty_seconds", &[], &crate::hist::Histogram::new(), &[4096]);
        let text = m.finish();
        assert!(text.contains("lttf_empty_seconds_count 0\n"), "{text}");
        validate(&text).unwrap();
    }

    #[test]
    fn validator_accepts_wellformed_documents() {
        let doc = "# comment\nlttf_up 1\nlttf_x{a=\"1\",b=\"q\\\"uo\\\\te\\n\"} 2.5\nlttf_neg -3.5\n";
        let s = validate(doc).unwrap();
        assert_eq!((s.samples, s.names, s.histograms), (3, 3, 0));
    }

    /// A histogram family beside label values that need every escape.
    const FAMILY: &str = "# HELP lttf_h seconds\n\
        lttf_up 1\n\
        lttf_x{model=\"a\\\"b\\\\c\\nd\",gen=\"2\"} 2.5\n\
        lttf_h_bucket{model=\"m\",le=\"0.1\"} 1\n\
        lttf_h_bucket{model=\"m\",le=\"+Inf\"} 3\n\
        lttf_h_sum{model=\"m\"} 0.4\n\
        lttf_h_count{model=\"m\"} 3\n";

    /// Every lookup the clients make, on a document `validate` accepted.
    fn look_up(doc: &Exposition) -> [Option<f64>; 3] {
        [
            doc.get("lttf_up", &[]),
            doc.get("lttf_x", &[("gen", "2"), ("model", "a\"b\\c\nd")]),
            doc.get("lttf_h_count", &[("model", "m")]),
        ]
    }

    #[test]
    fn lookup_reads_samples_by_name_and_labels_in_any_order() {
        let doc = validate(FAMILY).unwrap();
        assert_eq!(look_up(&doc), [Some(1.0), Some(2.5), Some(3.0)]);
        // Label order in the query does not matter; label values unescape.
        assert_eq!(doc.get("lttf_x", &[("model", "a\"b\\c\nd"), ("gen", "2")]), Some(2.5));
        assert_eq!(doc.get("lttf_h_bucket", &[("le", "+Inf"), ("model", "m")]), Some(3.0));
        // A missing label, an extra label or another value finds nothing.
        assert_eq!(doc.get("lttf_x", &[("gen", "2")]), None);
        assert_eq!(doc.get("lttf_up", &[("model", "m")]), None);
        assert_eq!(doc.get("lttf_h_count", &[("model", "n")]), None);
        assert_eq!(doc.get("lttf_h", &[]), None);
        assert_eq!(doc.label_values("lttf_h_bucket", "le"), ["+Inf", "0.1"]);
        assert_eq!(doc.label_values("lttf_x", "model"), ["a\"b\\c\nd"]);
        assert!(doc.label_values("lttf_up", "model").is_empty());
        assert!(doc.label_values("lttf_none", "model").is_empty());
    }

    /// Every truncation and every single-byte XOR flip of [`FAMILY`]
    /// goes through `validate` and, where it validates, every lookup:
    /// each returns an error or a value, never a panic. One case per flip
    /// mask, replayable with `TESTKIT_SEED`.
    #[test]
    fn truncated_and_flipped_expositions_never_panic_the_reader() {
        let read = |text: &str| {
            if let Ok(doc) = validate(text) {
                look_up(&doc);
                doc.label_values("lttf_h_bucket", "le");
            }
        };
        for pos in 0..FAMILY.len() {
            read(&FAMILY[..pos]);
        }
        let name = "metrics::truncated_and_flipped_expositions_never_panic_the_reader";
        lttf_testkit::prop::check(
            name,
            lttf_testkit::prop::cases_or(16),
            &lttf_testkit::prop::u32s(1..256),
            |&mask| {
                for pos in 0..FAMILY.len() {
                    let mut bytes = FAMILY.as_bytes().to_vec();
                    bytes[pos] ^= mask as u8;
                    // A flip can leave invalid UTF-8; the lossy decode keeps
                    // that input hostile (U+FFFD) instead of skipping it.
                    read(&String::from_utf8_lossy(&bytes));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for (doc, why) in [
            ("lttf_up 1", "missing trailing newline"),
            ("", "empty document"),
            ("lttf_up 1\n\n", "empty line"),
            ("9bad 1\n", "bad metric name"),
            ("lttf_up{9l=\"x\"} 1\n", "bad label name"),
            ("lttf_up{a=x} 1\n", "unquoted label value"),
            ("lttf_up{a=\"x} 1\n", "unterminated label value"),
            ("lttf_up{a=\"x\"\"} 1\n", "junk after label value"),
            ("lttf_up{} 1\n", "empty label set"),
            ("lttf_up{a=\"1\",a=\"2\"} 1\n", "duplicate label"),
            ("lttf_up one\n", "bad value"),
            ("lttf_up 1 2\n", "two values"),
            ("lttf_up\n", "no value"),
            ("lttf_up 1\nlttf_up 1\n", "duplicate series"),
            ("lttf_events_total -1\n", "negative counter"),
        ] {
            assert!(validate(doc).is_err(), "accepted: {why}: {doc:?}");
        }
    }

    #[test]
    fn validator_enforces_histogram_structure() {
        let ok = "lttf_h_bucket{le=\"0.1\"} 1\nlttf_h_bucket{le=\"+Inf\"} 3\nlttf_h_sum 0.4\nlttf_h_count 3\n";
        assert_eq!(validate(ok).unwrap().histograms, 1);
        for (doc, why) in [
            (
                "lttf_h_bucket{le=\"0.1\"} 1\nlttf_h_sum 0.4\nlttf_h_count 1\n",
                "no +Inf bucket",
            ),
            (
                "lttf_h_bucket{le=\"0.2\"} 1\nlttf_h_bucket{le=\"0.1\"} 2\nlttf_h_bucket{le=\"+Inf\"} 3\nlttf_h_sum 1\nlttf_h_count 3\n",
                "le not ascending",
            ),
            (
                "lttf_h_bucket{le=\"0.1\"} 5\nlttf_h_bucket{le=\"+Inf\"} 3\nlttf_h_sum 1\nlttf_h_count 3\n",
                "counts decrease",
            ),
            (
                "lttf_h_bucket{le=\"+Inf\"} 3\nlttf_h_sum 1\nlttf_h_count 2\n",
                "+Inf != _count",
            ),
            ("lttf_h_bucket{le=\"+Inf\"} 3\nlttf_h_sum 1\n", "missing _count"),
            ("lttf_h_bucket{le=\"+Inf\"} 3\nlttf_h_count 3\n", "missing _sum"),
            ("lttf_h_bucket{a=\"1\"} 3\n", "bucket without le"),
        ] {
            assert!(validate(doc).is_err(), "accepted: {why}: {doc:?}");
        }
        // Labeled family: grouping keys include the non-le labels.
        let labeled = "lttf_h_bucket{model=\"a\",le=\"+Inf\"} 2\nlttf_h_sum{model=\"a\"} 1\nlttf_h_count{model=\"a\"} 2\n";
        assert_eq!(validate(labeled).unwrap().histograms, 1);
    }
}
