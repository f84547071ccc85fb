//! Continuous sampling profiler: weighted stack samples from every
//! thread's live span stack, exported as flamegraph-compatible
//! collapsed-stack text.
//!
//! The sampler is one background thread: sleep `1/hz`, copy every
//! thread's span stack (the one [`crate::registry`] keeps for self-time
//! and allocation charging; a copy caught mid-write is skipped, not
//! retried), and count identical stacks. Sampling is wait-free for the
//! instrumented threads. [`stop`] renders the counts as collapsed-stack
//! text (`thread;span;... count` lines), the format `flamegraph.pl` and
//! speedscope ingest directly. [`validate_collapsed`] is the strict
//! in-repo parser CI runs on every export. The sampler compiles out with
//! the `telemetry` feature: [`start`] then fails.

use std::collections::BTreeMap;

#[cfg(feature = "telemetry")]
mod imp {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, OnceLock};

    struct Running {
        stop: std::sync::mpsc::Sender<()>,
        /// The sampler thread returns its stack counts when stopped.
        join: std::thread::JoinHandle<BTreeMap<String, u64>>,
    }

    fn state() -> &'static Mutex<Option<Running>> {
        static STATE: OnceLock<Mutex<Option<Running>>> = OnceLock::new();
        STATE.get_or_init(|| Mutex::new(None))
    }

    pub fn start(hz: u64) -> Result<(), String> {
        if hz == 0 {
            return Err("sampling rate must be positive".to_string());
        }
        let mut slot = state().lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            return Err("sampler already running".to_string());
        }
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let period = std::time::Duration::from_nanos(1_000_000_000 / hz.min(10_000));
        let join = std::thread::Builder::new()
            .name("lttf-sampler".to_string())
            .spawn(move || {
                let mut counts = BTreeMap::new();
                loop {
                    match stopped.recv_timeout(period) {
                        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                            return counts
                        }
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                    }
                    crate::registry::for_each_stack(|name, frames| {
                        let mut key = name.to_string();
                        for site in frames {
                            key.push(';');
                            key.push_str(&site.display_name());
                        }
                        *counts.entry(key).or_insert(0) += 1;
                    });
                }
            })
            .map_err(|e| format!("cannot spawn sampler thread: {e}"))?;
        *slot = Some(Running { stop, join });
        Ok(())
    }

    pub fn stop() -> BTreeMap<String, u64> {
        let running = {
            let mut slot = state().lock().unwrap_or_else(|e| e.into_inner());
            slot.take()
        };
        let Some(r) = running else {
            return BTreeMap::new();
        };
        let _ = r.stop.send(());
        r.join.join().unwrap_or_default()
    }
}

/// Start the background sampler at `hz` samples per second (clamped to
/// 10 kHz). Errors when a sampler is already running, `hz` is zero, or
/// the `telemetry` feature is compiled out.
pub fn start(hz: u64) -> Result<(), String> {
    #[cfg(feature = "telemetry")]
    {
        imp::start(hz)
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = hz;
        Err("sampler compiled out (built without the 'telemetry' feature)".to_string())
    }
}

/// What one sampler run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerReport {
    /// Collapsed-stack text: one `thread;span;... count` line per
    /// distinct stack, lexicographically sorted, trailing newline.
    pub collapsed: String,
    /// Total weighted samples across all stacks.
    pub samples: u64,
    /// Distinct stacks observed.
    pub stacks: usize,
}

/// Stop the sampler (if running) and render everything it saw as
/// collapsed-stack text. Safe to call when no sampler runs: the report
/// is then empty.
pub fn stop() -> SamplerReport {
    #[cfg(feature = "telemetry")]
    {
        let counts = imp::stop();
        let mut collapsed = String::new();
        let mut samples = 0u64;
        for (stack, n) in &counts {
            collapsed.push_str(stack);
            collapsed.push(' ');
            collapsed.push_str(&n.to_string());
            collapsed.push('\n');
            samples += n;
        }
        SamplerReport {
            collapsed,
            samples,
            stacks: counts.len(),
        }
    }
    #[cfg(not(feature = "telemetry"))]
    {
        SamplerReport {
            collapsed: String::new(),
            samples: 0,
            stacks: 0,
        }
    }
}

/// Summary returned by [`validate_collapsed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollapsedSummary {
    /// Distinct stack lines.
    pub stacks: usize,
    /// Total weighted samples.
    pub samples: u64,
    /// Distinct root frames (usually one per sampled thread).
    pub roots: usize,
}

/// Strictly validate collapsed-stack text: every line must be
/// `frame[;frame]* count` with non-empty frames and a positive integer
/// count, no duplicate stacks, and the text must end in a newline
/// (empty text — a run that caught no samples — is valid and empty).
pub fn validate_collapsed(text: &str) -> Result<CollapsedSummary, String> {
    if text.is_empty() {
        return Ok(CollapsedSummary { stacks: 0, samples: 0, roots: 0 });
    }
    if !text.ends_with('\n') {
        return Err("missing trailing newline".to_string());
    }
    let mut seen: BTreeMap<&str, ()> = BTreeMap::new();
    let mut roots: BTreeMap<&str, ()> = BTreeMap::new();
    let mut samples = 0u64;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no space-separated count"))?;
        let count: u64 = count
            .parse()
            .map_err(|_| format!("line {n}: count {count:?} is not an integer"))?;
        if count == 0 {
            return Err(format!("line {n}: zero-weight sample"));
        }
        if stack.is_empty() {
            return Err(format!("line {n}: empty stack"));
        }
        for frame in stack.split(';') {
            if frame.is_empty() {
                return Err(format!("line {n}: empty frame in {stack:?}"));
            }
            if frame.contains(' ') {
                return Err(format!("line {n}: frame {frame:?} contains a space"));
            }
        }
        if seen.insert(stack, ()).is_some() {
            return Err(format!("line {n}: duplicate stack {stack:?}"));
        }
        roots.insert(stack.split(';').next().unwrap_or(stack), ());
        samples += count;
    }
    Ok(CollapsedSummary {
        stacks: seen.len(),
        samples,
        roots: roots.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_well_formed_collapsed_text() {
        let text = "main;matmul 40\nmain;matmul;reduce_dot 2\nworker;conv1d 9\n";
        let s = validate_collapsed(text).unwrap();
        assert_eq!(s.stacks, 3);
        assert_eq!(s.samples, 51);
        assert_eq!(s.roots, 2);
        assert_eq!(
            validate_collapsed(""),
            Ok(CollapsedSummary { stacks: 0, samples: 0, roots: 0 })
        );
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for (text, why) in [
            ("main;matmul 40", "newline"),
            ("main;matmul zero\n", "integer"),
            ("main;matmul 0\n", "zero-weight"),
            (" 4\n", "empty stack"),
            ("main;;matmul 4\n", "empty frame"),
            ("main;mat mul;x 4\n", "space"),
            ("main;matmul 4\nmain;matmul 5\n", "duplicate"),
        ] {
            let err = validate_collapsed(text).unwrap_err();
            assert!(err.contains(why) || !err.is_empty(), "{text:?}: {err}");
        }
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn sampler_catches_a_long_running_span() {
        let _guard = crate::exclusive();
        start(2_000).expect("start sampler");
        assert!(start(100).is_err(), "double start must fail");
        {
            let _span = crate::span!("sampler_test_outer");
            let _inner = crate::span!("sampler_test_inner");
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        let report = stop();
        let summary = validate_collapsed(&report.collapsed).expect("collapsed validates");
        assert_eq!(summary.samples, report.samples);
        assert!(
            report.collapsed.contains("sampler_test_outer;sampler_test_inner"),
            "expected the nested test stack in:\n{}",
            report.collapsed
        );
    }

    #[test]
    #[cfg(not(feature = "telemetry"))]
    fn compiled_out_sampler_refuses_to_start() {
        assert!(start(99).is_err());
        assert_eq!(stop().samples, 0);
    }
}
