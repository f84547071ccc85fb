//! Spans owned by the benchmark: recorded around the calls it makes into
//! each layer, kept in memory, exported as Chrome `trace_event` JSON at
//! the end. A span's self time is its duration minus its child spans'.
//!
//! The program's own `obs::trace` ring is left off: switching it on would
//! also record every internal kernel span and slow the layers measured.

use std::collections::HashMap;
use std::time::Instant;

/// A span recorder; [`Tracer::off`] runs the same code with no recording,
/// which is how traced and untraced replays share one code path.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// `(ts_ns, begin?, name)` in the order they happened.
    events: Vec<(u64, bool, &'static str)>,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
    /// `(duration_ns, self_ns)` of every closed span, by name.
    done: HashMap<&'static str, Vec<(u64, u64)>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            // Preallocated so recording rarely allocates inside a span.
            events: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
            done: HashMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            events: Vec::new(),
            open: Vec::new(),
            done: HashMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` are its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start = self.now_ns();
        self.events.push((start, true, name));
        self.open.push(0);
        let r = f(self);
        let end = self.now_ns();
        self.events.push((end, false, name));
        let children = self.open.pop().expect("span stack underflow");
        let dur = end - start;
        if let Some(parent) = self.open.last_mut() {
            *parent += dur;
        }
        self.done
            .entry(name)
            .or_default()
            .push((dur, dur.saturating_sub(children)));
        r
    }

    /// Durations of every closed span named `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> Vec<f64> {
        self.samples(name, |(d, _)| d)
    }

    /// Self times of every closed span named `name`, in microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.samples(name, |(_, s)| s)
    }

    fn samples(&self, name: &str, pick: impl Fn((u64, u64)) -> u64) -> Vec<f64> {
        self.done
            .get(name)
            .map(|v| v.iter().map(|&x| pick(x) as f64 / 1e3).collect())
            .unwrap_or_default()
    }

    /// Chrome JSON Array Format, one event per line, in the shape
    /// `lttf::obs::trace::validate_chrome` checks.
    pub fn chrome_json(&self) -> String {
        let mut lines = vec![
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"ledger-replay\"}}"
                .to_string(),
        ];
        for &(ts, begin, name) in &self.events {
            lines.push(format!(
                "{{\"ph\":\"{}\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"{name}\"}}",
                if begin { "B" } else { "E" },
                ts as f64 / 1e3
            ));
        }
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_export_validates() {
        let mut t = Tracer::on();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let (outer, outer_self, inner) = (
            t.total_us("outer")[0],
            t.self_us("outer")[0],
            t.total_us("inner")[0],
        );
        assert!(inner >= 2000.0);
        assert!((outer - outer_self - inner).abs() < 1e-6);
        let summary = lttf::obs::trace::validate_chrome(&t.chrome_json()).unwrap();
        assert_eq!(summary.slices, 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.total_us("x").is_empty());
    }
}
