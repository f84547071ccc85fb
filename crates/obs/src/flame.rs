//! Flame graphs from the span path table.
//!
//! [`render`] writes the exact self-time of every span path that
//! [`crate::registry`] keeps as collapsed-stack text: one
//! `thread;span;… self_ns` line per path, the input format of
//! `flamegraph.pl` and inferno. The lines ending in a span add up to that
//! span's `self_ns` in [`crate::snapshot`], so the flame graph and the
//! profile table agree. [`validate_collapsed`] is the strict in-repo
//! parser CI runs on every export (`jsonl_check --flame`). With the
//! `telemetry` feature compiled out the rendered flame is empty.

use std::collections::BTreeMap;

/// Every span path with self-time as collapsed stacks weighted in ns,
/// one newline-terminated line per stack, sorted. Empty when the
/// `telemetry` feature is compiled out.
pub fn render() -> String {
    let mut stacks = BTreeMap::new();
    if cfg!(feature = "telemetry") {
        crate::registry::for_each_path(|stack, ns| *stacks.entry(stack).or_insert(0) += ns);
    }
    stacks.iter().map(|(stack, ns)| format!("{stack} {ns}\n")).collect()
}

/// Summary returned by [`validate_collapsed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollapsedSummary {
    /// Distinct stack lines.
    pub stacks: usize,
    /// Sum of the line weights (ns in a [`render`]ed flame).
    pub weight: u64,
    /// Distinct root frames (one per thread name in a [`render`]ed flame).
    pub roots: usize,
}

/// Strictly validate collapsed-stack text: every line must be
/// `frame[;frame]* weight` with non-empty frames and a positive integer
/// weight, no duplicate stacks, and the text must end in a newline
/// (empty text — a run that opened no span — is valid and empty).
pub fn validate_collapsed(text: &str) -> Result<CollapsedSummary, String> {
    if text.is_empty() {
        return Ok(CollapsedSummary { stacks: 0, weight: 0, roots: 0 });
    }
    if !text.ends_with('\n') {
        return Err("missing trailing newline".to_string());
    }
    let mut seen: BTreeMap<&str, ()> = BTreeMap::new();
    let mut roots: BTreeMap<&str, ()> = BTreeMap::new();
    let mut weight = 0u64;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let (stack, w) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no space-separated weight"))?;
        let w: u64 = w
            .parse()
            .map_err(|_| format!("line {n}: weight {w:?} is not an integer"))?;
        if w == 0 {
            return Err(format!("line {n}: zero-weight stack"));
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
        weight = weight
            .checked_add(w)
            .ok_or_else(|| format!("line {n}: total weight overflows u64"))?;
    }
    Ok(CollapsedSummary {
        stacks: seen.len(),
        weight,
        roots: roots.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flame as `lttf flame profile --smoke` renders it (excerpt).
    const TABLE: &str = "lttf-par-0;gemm.pack 41200\n\
                         main;backward;bwd.add 1093311\n\
                         main;backward;bwd.conv1d;conv1d_bwd_input 612804\n\
                         main;matmul 5630118\n\
                         main;matmul;gemm.pack 18807\n";

    #[test]
    fn validator_accepts_well_formed_collapsed_text() {
        let text = "main;matmul 40\nmain;matmul;reduce_dot 2\nworker;conv1d 9\n";
        let s = validate_collapsed(text).unwrap();
        assert_eq!((s.stacks, s.weight, s.roots), (3, 51, 2));
        assert_eq!(
            validate_collapsed(""),
            Ok(CollapsedSummary { stacks: 0, weight: 0, roots: 0 })
        );
        assert_eq!(validate_collapsed(TABLE).map(|s| (s.stacks, s.roots)), Ok((5, 2)));
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
            ("a 18446744073709551615\nb 1\n", "overflows"),
        ] {
            let err = validate_collapsed(text).unwrap_err();
            assert!(err.contains(why), "{text:?}: {err}");
        }
    }

    /// `jsonl_check --flame` reads the table from disk, so it is outside
    /// input: every truncation and bit flip must come back `Ok` or `Err`.
    #[test]
    fn truncated_and_flipped_tables_never_panic_the_validator() {
        for pos in 0..=TABLE.len() {
            let _ = validate_collapsed(&TABLE[..pos]);
        }
        lttf_testkit::prop::check(
            "flame::truncated_and_flipped_tables_never_panic_the_validator",
            lttf_testkit::prop::cases_or(16),
            &lttf_testkit::prop::u32s(1..256),
            |&mask| {
                for pos in 0..TABLE.len() {
                    let mut bytes = TABLE.as_bytes().to_vec();
                    bytes[pos] ^= mask as u8;
                    let _ = validate_collapsed(&String::from_utf8_lossy(&bytes));
                }
                Ok(())
            },
        );
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn render_weighs_each_path_by_its_exact_self_time() {
        let _guard = crate::exclusive();
        crate::reset();
        {
            let _outer = crate::span!("flame_test_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = crate::span!("flame_test_inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let text = render();
        validate_collapsed(&text).expect("rendered flame validates");
        let me = std::thread::current();
        let root = me.name().unwrap_or("unnamed");
        for (stack, name) in [
            (format!("{root};flame_test_outer"), "flame_test_outer"),
            (format!("{root};flame_test_outer;flame_test_inner"), "flame_test_inner"),
        ] {
            let line = text
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{stack} ")))
                .unwrap_or_else(|| panic!("no {stack:?} in:\n{text}"));
            let snap = crate::snapshot();
            let site = snap.iter().find(|s| s.name == name).unwrap();
            assert_eq!(line.parse::<u64>().unwrap(), site.self_ns);
            assert!(site.self_ns >= 2_000_000, "{name} slept 2 ms");
        }
    }

    #[test]
    #[cfg(not(feature = "telemetry"))]
    fn compiled_out_flame_is_empty() {
        let _guard = crate::exclusive();
        {
            let site = crate::register("", "flame_test_off", crate::Kind::Span);
            let _span = crate::SpanGuard::enter(site);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(render(), "");
    }
}
