//! One place for every `LTTF_*` / `OBS_*` environment knob.
//!
//! Before this module, each binary re-parsed the variables ad hoc (and
//! inconsistently: the trainer treated `LTTF_QUIET=0` as quiet-off while
//! nothing else did). Every accessor here parses **once per process**
//! through a `OnceLock`, applies the same empty/`0`-is-unset convention,
//! and documents its default.
//!
//! | Variable          | Default                      | Meaning |
//! |-------------------|------------------------------|---------|
//! | `LTTF_QUIET`      | unset (not quiet)            | suppress per-epoch stderr progress |
//! | `LTTF_THREADS`    | all cores                    | fork-join pool width (1 = serial) |
//! | `LTTF_SIMD`       | auto (use when detected)     | `0` forces the scalar kernels |
//! | `OBS_MIN_WORK`    | 4096 madds                   | min kernel work before a span opens |
//! | `OBS_MIN_REDUCE`  | 32768 elements               | min reduction size before a span opens |
//! | `LTTF_TRACE_BUF`  | 16384 events/thread          | timeline ring-buffer capacity |
//!
//! The process-wide caching means tests must not mutate these variables
//! at runtime and expect the change to be observed; use the dedicated
//! override hooks instead (`lttf_parallel::set_threads_override`,
//! [`crate::trace::set_enabled`]).

use std::sync::OnceLock;

/// Parse a boolean-ish variable: set to anything except `""` or `"0"`.
fn flag(name: &'static str) -> bool {
    std::env::var(name)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Parse a positive integer variable; `None` when unset, empty, `0`, or
/// unparsable (a typo must never silently change behavior to "1 thread").
fn positive(name: &'static str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// `LTTF_QUIET`: suppress per-epoch progress lines on stderr. Default:
/// not quiet. `LTTF_QUIET=0` and `LTTF_QUIET=` both mean *not* quiet.
pub fn quiet() -> bool {
    static V: OnceLock<bool> = OnceLock::new();
    *V.get_or_init(|| flag("LTTF_QUIET"))
}

/// `LTTF_THREADS`: requested fork-join pool width. `None` when unset or
/// invalid (callers fall back to [`std::thread::available_parallelism`]);
/// `Some(1)` forces the fully serial path.
pub fn threads() -> Option<usize> {
    static V: OnceLock<Option<usize>> = OnceLock::new();
    *V.get_or_init(|| positive("LTTF_THREADS"))
}

/// `LTTF_SIMD`: kernel backend selection. `Some(false)` (`LTTF_SIMD=0` or
/// empty) forces the scalar kernels; `Some(true)` asks for the SIMD
/// kernels (still subject to runtime CPU feature detection); `None` when
/// unset, meaning "use SIMD when the CPU supports it".
pub fn simd() -> Option<bool> {
    static V: OnceLock<Option<bool>> = OnceLock::new();
    *V.get_or_init(|| {
        std::env::var("LTTF_SIMD")
            .ok()
            .map(|v| !v.is_empty() && v != "0")
    })
}

/// `OBS_MIN_WORK`: minimum kernel work size (multiply-adds / touched
/// elements) before a telemetry span is opened. Default 4096; raise it to
/// silence small kernels entirely, lower it (e.g. `OBS_MIN_WORK=1`) to
/// trace everything.
pub fn min_work() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| positive("OBS_MIN_WORK").unwrap_or(4096))
}

/// `OBS_MIN_REDUCE`: like [`min_work`] but for O(n) reductions, which do
/// so little work per element that a span only pays for itself on large
/// inputs. Default 32768 elements.
pub fn min_reduce() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| positive("OBS_MIN_REDUCE").unwrap_or(32 * 1024))
}

/// `LTTF_TRACE_BUF`: per-thread timeline ring-buffer capacity in events.
/// Default 16384 (≈ 0.5 MiB/thread); the ring keeps the **newest** events
/// when it wraps. Clamped to at least 64.
pub fn trace_buf() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| positive("LTTF_TRACE_BUF").unwrap_or(16 * 1024).max(64))
}

#[cfg(test)]
mod tests {
    #[test]
    fn defaults_are_documented_values() {
        // The suite never sets these variables, so the accessors must
        // return their documented defaults.
        assert_eq!(super::min_work(), 4096);
        assert_eq!(super::min_reduce(), 32 * 1024);
        assert_eq!(super::trace_buf(), 16 * 1024);
    }

    #[test]
    fn positive_rejects_garbage() {
        // Exercise the parser directly (the cached accessors read the
        // real environment exactly once).
        std::env::set_var("LTTF_TEST_POSITIVE", "banana");
        assert_eq!(super::positive("LTTF_TEST_POSITIVE"), None);
        std::env::set_var("LTTF_TEST_POSITIVE", "0");
        assert_eq!(super::positive("LTTF_TEST_POSITIVE"), None);
        std::env::set_var("LTTF_TEST_POSITIVE", " 8 ");
        assert_eq!(super::positive("LTTF_TEST_POSITIVE"), Some(8));
        std::env::remove_var("LTTF_TEST_POSITIVE");
    }
}
