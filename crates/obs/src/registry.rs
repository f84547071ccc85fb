//! Global span/counter registry and the per-thread span stack.
//!
//! A [`SpanStats`] is a leaked, never-freed bundle of atomics keyed by a
//! `(group, name)` pair of `&'static str`s. Call sites cache the pointer in
//! a per-site `OnceLock`, so the steady-state cost of an active span is two
//! `Instant::now()` reads plus a handful of relaxed atomic adds. The
//! registry mutex is only touched on first use of each site and when
//! snapshotting.
//!
//! Every thread that opens a span owns one span stack: the open spans'
//! registry entries, innermost last, in a fixed array of [`MAX_DEPTH`]
//! frames published through a seqlock. Three readers share it:
//!
//! - **Self-time.** Each thread keeps a running total of the self-time it
//!   has credited. A guard records the total when it opens; when it
//!   closes, everything credited since then is the elapsed time of its
//!   direct children (their descendants' self-times add up to exactly
//!   that), so `self = elapsed − (total_now − total_at_entry)`, and the
//!   total grows by `self`.
//! - **The allocation hook** ([`crate::alloc`]) charges each allocation to
//!   the top frame. It finds the stack through a destructor-free
//!   const-initialised `Cell`, so it never allocates, locks or re-enters.
//! - **The sampling profiler** ([`crate::sampler`]) copies every thread's
//!   stack under the lock that registers and unregisters them.
//!
//! The stack is created by the thread's first [`SpanGuard::enter`] and
//! freed when the thread exits. Spans nested deeper than [`MAX_DEPTH`]
//! are timed and counted in the depth but not stored: their allocations
//! charge the deepest stored frame and sampled stacks stop there. Spans
//! opened on pool worker threads have no parent on that thread's stack,
//! so their time is *not* subtracted from the dispatching span —
//! utilization numbers come from the pool gauges instead.

use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::trace;

/// What a registry entry measures; controls how reports render it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A timed RAII scope: calls, total/self/min/max ns, bytes.
    Span,
    /// A monotonically increasing event count; only `calls` is meaningful.
    Counter,
    /// An accumulated nanosecond quantity (e.g. pool busy time); only
    /// `total_ns` is meaningful.
    GaugeNs,
    /// A sampled unitless value distribution (e.g. queue depth, batch
    /// size): `calls` counts samples, `total_ns` holds their sum, and
    /// `min_ns`/`max_ns` hold the observed extremes, so reports can show
    /// count / mean / min / max.
    Gauge,
}

impl Kind {
    /// Stable lowercase label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Counter => "counter",
            Kind::GaugeNs => "gauge_ns",
            Kind::Gauge => "gauge",
        }
    }
}

/// Live statistics for one named scope. All fields are relaxed atomics;
/// cross-field consistency is only guaranteed while no spans are running.
pub struct SpanStats {
    group: &'static str,
    name: &'static str,
    kind: Kind,
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    bytes: AtomicU64,
    /// Heap bytes allocated while this span was the innermost open one
    /// on the allocating thread (charged by [`crate::alloc`]).
    alloc_bytes: AtomicU64,
    /// Heap allocations charged alongside `alloc_bytes`.
    allocs: AtomicU64,
    /// Cached [`trace`] name index for this site's display name, interned
    /// lazily the first time the site fires while tracing is enabled.
    /// `u32::MAX` = not yet interned.
    trace_idx: AtomicU32,
}

impl SpanStats {
    fn new(group: &'static str, name: &'static str, kind: Kind) -> Self {
        SpanStats {
            group,
            name,
            kind,
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            trace_idx: AtomicU32::new(u32::MAX),
        }
    }

    /// `group.name` display form (just `name` when the group is empty),
    /// as rendered by snapshots and the sampling profiler.
    pub(crate) fn display_name(&self) -> String {
        if self.group.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.group, self.name)
        }
    }

    /// Interned timeline-trace name for this site (`group.name` display
    /// form), computed once and cached. Only called while tracing is on.
    fn trace_idx(&self) -> u32 {
        let cached = self.trace_idx.load(Ordering::Relaxed);
        if cached != u32::MAX {
            return cached;
        }
        let idx = if self.group.is_empty() {
            trace::intern(self.name)
        } else {
            trace::intern(&format!("{}.{}", self.group, self.name))
        };
        self.trace_idx.store(idx, Ordering::Relaxed);
        idx
    }

    fn clear(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.self_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.alloc_bytes.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
    }

    /// Add `delta` to the event count (used by counters).
    pub fn add_calls(&self, delta: u64) {
        self.calls.fetch_add(delta, Ordering::Relaxed);
    }

    /// Add `ns` to the accumulated time (used by gauges).
    pub fn add_ns(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one sample of a unitless value (used by [`Kind::Gauge`]
    /// entries): bumps the sample count, accumulates the sum, and tracks
    /// the min/max observed.
    pub fn record_value(&self, v: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(v, Ordering::Relaxed);
        self.min_ns.fetch_min(v, Ordering::Relaxed);
        self.max_ns.fetch_max(v, Ordering::Relaxed);
    }
}

type RegistryMap = HashMap<(&'static str, &'static str), &'static SpanStats>;

fn registry() -> &'static Mutex<RegistryMap> {
    static REGISTRY: OnceLock<Mutex<RegistryMap>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Look up or create the stats slot for `(group, name)`. The returned
/// reference is `'static` (the slot is leaked) and safe to cache.
pub fn register(group: &'static str, name: &'static str, kind: Kind) -> &'static SpanStats {
    let mut map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.entry((group, name))
        .or_insert_with(|| &*Box::leak(Box::new(SpanStats::new(group, name, kind))))
}

/// Deepest span nesting a span stack stores (see the module docs for
/// what happens past it).
pub const MAX_DEPTH: usize = 32;

/// One thread's open spans. Only the owning thread writes; the sampler
/// reads through the seqlock: the owner makes `seq` odd, writes, and makes
/// it even again, so a reader that sees the same even `seq` before and
/// after copying saw a consistent stack.
struct SpanStack {
    seq: AtomicU64,
    /// Open spans, counted past [`MAX_DEPTH`]; frames `0..depth` (capped
    /// at [`MAX_DEPTH`]) are valid.
    depth: AtomicUsize,
    frames: [AtomicPtr<SpanStats>; MAX_DEPTH],
    /// Self-time credited on this thread so far, ns (owner only).
    credited_ns: AtomicU64,
    /// Owner's thread name, fixed at creation.
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    name: String,
}

impl SpanStack {
    /// Set `depth` to `f(depth)` (which may also store frames) as one
    /// seqlock write. The release fence keeps the odd `seq` ahead of the
    /// stores and the release store keeps them ahead of the even `seq`;
    /// they pair with the reader's acquire load and acquire fence in
    /// [`for_each_stack`].
    fn write(&self, f: impl FnOnce(usize) -> usize) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let depth = self.depth.load(Ordering::Relaxed);
        self.depth.store(f(depth), Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    fn push(&self, site: &'static SpanStats) {
        self.write(|d| {
            if d < MAX_DEPTH {
                self.frames[d].store(std::ptr::from_ref(site).cast_mut(), Ordering::Relaxed);
            }
            d + 1
        });
    }

    /// Pop the span opened when `credited_ns` read `at_entry` and return
    /// its self-time.
    fn pop(&self, at_entry: u64, elapsed: u64) -> u64 {
        self.write(|d| d.saturating_sub(1));
        let credited = self.credited_ns.load(Ordering::Relaxed);
        let self_ns = elapsed.saturating_sub(credited.saturating_sub(at_entry));
        self.credited_ns
            .store(credited + self_ns, Ordering::Relaxed);
        self_ns
    }

    /// The innermost stored frame (owner thread only: no seqlock).
    #[cfg(feature = "telemetry")]
    fn top(&self) -> Option<&'static SpanStats> {
        let d = self.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
        let p = self.frames[d.checked_sub(1)?].load(Ordering::Relaxed);
        // SAFETY: frames hold leaked 'static registry entries.
        Some(unsafe { &*p })
    }
}

/// Every live thread's span stack. Each is boxed, so the owner's pointer
/// to it stays valid until its thread exits and removes it here.
#[allow(clippy::vec_box)]
fn stacks() -> MutexGuard<'static, Vec<Box<SpanStack>>> {
    static STACKS: Mutex<Vec<Box<SpanStack>>> = Mutex::new(Vec::new());
    STACKS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Frees the thread's span stack at thread exit.
struct Release;

impl Drop for Release {
    fn drop(&mut self) {
        let mine = STACK.with(|s| s.replace(std::ptr::null()));
        stacks().retain(|st| !std::ptr::eq(&**st, mine));
    }
}

thread_local! {
    /// This thread's span stack, null until its first span. Const and
    /// destructor-free, so the allocation hook can read it without
    /// allocating or registering anything.
    static STACK: Cell<*const SpanStack> = const { Cell::new(std::ptr::null()) };
    /// Registered by the first span, never by the allocation hook.
    static RELEASE: Release = const { Release };
}

/// Run `f` on this thread's span stack, if it has one.
fn with_stack<R>(f: impl FnOnce(&SpanStack) -> R) -> Option<R> {
    let p = STACK.with(Cell::get);
    // SAFETY: a non-null `STACK` points into `stacks()`, and only this
    // thread's `Release` removes it, after nulling the cell.
    unsafe { p.as_ref() }.map(f)
}

/// Create this thread's span stack; none once the thread's exit has
/// begun, so spans opened by later destructors are timed without nesting.
#[cold]
fn create_stack() {
    static UNNAMED: AtomicUsize = AtomicUsize::new(0);
    if RELEASE.try_with(|_| ()).is_err() {
        return;
    }
    let name = match std::thread::current().name() {
        Some(n) => n.to_string(),
        None => format!("thread-{}", UNNAMED.fetch_add(1, Ordering::Relaxed)),
    };
    let st = Box::new(SpanStack {
        seq: AtomicU64::new(0),
        depth: AtomicUsize::new(0),
        frames: [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_DEPTH],
        credited_ns: AtomicU64::new(0),
        name,
    });
    STACK.with(|s| s.set(&*st));
    stacks().push(st);
}

/// Call `f(thread name, frames outermost first)` for every thread with
/// open spans. A stack caught mid-write is skipped. Holds the lock that
/// frees exiting threads' stacks, so none is freed while read.
#[cfg(feature = "telemetry")]
pub(crate) fn for_each_stack(mut f: impl FnMut(&str, &[&'static SpanStats])) {
    let (mut raw, mut frames) = (Vec::with_capacity(MAX_DEPTH), Vec::with_capacity(MAX_DEPTH));
    for st in stacks().iter() {
        let seq = st.seq.load(Ordering::Acquire);
        let depth = st.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
        raw.clear();
        raw.extend(st.frames[..depth].iter().map(|p| p.load(Ordering::Relaxed)));
        fence(Ordering::Acquire);
        if seq % 2 == 1 || st.seq.load(Ordering::Relaxed) != seq || depth == 0 {
            continue;
        }
        frames.clear();
        // SAFETY: a consistent copy holds only leaked 'static registry entries.
        frames.extend(raw.iter().map(|&p| unsafe { &*p }));
        f(&st.name, &frames);
    }
}

/// Charge one allocation of `size` bytes to the calling thread's
/// innermost open span, if any. Called from the global-allocator hook:
/// must not allocate, lock, or panic.
#[cfg(feature = "telemetry")]
#[inline]
pub(crate) fn charge_alloc(size: usize) {
    if let Some(site) = with_stack(SpanStack::top).flatten() {
        site.alloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
        site.allocs.fetch_add(1, Ordering::Relaxed);
    }
}

struct ActiveSpan {
    site: &'static SpanStats,
    start: Instant,
    /// The thread's credited self-time when this span opened.
    credited_at_entry: u64,
    /// Not `Send`: the guard must pop the span stack it pushed.
    _not_send: PhantomData<*const ()>,
}

/// RAII timer for one span activation. Obtain via [`crate::span!`] or
/// [`scoped`]; an [`SpanGuard::inactive`] guard costs nothing to drop.
/// A guard stays on the thread that opened it:
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(lttf_obs::SpanGuard::inactive());
/// ```
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// Start timing `site` on the current thread.
    pub fn enter(site: &'static SpanStats) -> SpanGuard {
        if trace::enabled() {
            trace::begin(site.trace_idx());
        }
        if STACK.with(Cell::get).is_null() {
            create_stack();
        }
        let credited_at_entry = with_stack(|st| {
            st.push(site);
            st.credited_ns.load(Ordering::Relaxed)
        })
        .unwrap_or(0);
        SpanGuard(Some(ActiveSpan {
            site,
            start: Instant::now(),
            credited_at_entry,
            _not_send: PhantomData,
        }))
    }

    /// A guard that records nothing; used when telemetry is compiled out
    /// or a size threshold was not met.
    pub const fn inactive() -> SpanGuard {
        SpanGuard(None)
    }

    /// Attribute `n` processed bytes to this span (no-op when inactive).
    pub fn bytes(&self, n: usize) {
        if let Some(a) = &self.0 {
            a.site.bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let elapsed = a.start.elapsed().as_nanos() as u64;
        if trace::enabled() {
            trace::end(a.site.trace_idx());
        }
        // Guards are strictly scoped per thread, so the top frame is ours.
        let self_ns = with_stack(|st| st.pop(a.credited_at_entry, elapsed)).unwrap_or(elapsed);
        a.site.calls.fetch_add(1, Ordering::Relaxed);
        a.site.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        a.site.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        a.site.min_ns.fetch_min(elapsed, Ordering::Relaxed);
        a.site.max_ns.fetch_max(elapsed, Ordering::Relaxed);
    }
}

/// Start a span whose name is only known at runtime (still `&'static str`,
/// e.g. an autograd op name). Pays one registry-mutex lookup per call, so
/// reserve it for chunky scopes like per-op backward closures. An empty
/// `name` returns an inactive guard.
pub fn scoped(group: &'static str, name: &'static str) -> SpanGuard {
    if name.is_empty() {
        return SpanGuard::inactive();
    }
    SpanGuard::enter(register(group, name, Kind::Span))
}

/// Point-in-time copy of one registry entry.
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    /// Display name: `group.name`, or just `name` when the group is empty.
    pub name: String,
    /// Entry kind (span / counter / gauge).
    pub kind: Kind,
    /// Completed activations (spans) or accumulated count (counters).
    pub calls: u64,
    /// Total wall nanoseconds across activations (spans) or accumulated
    /// nanoseconds (gauges).
    pub total_ns: u64,
    /// Total minus time attributed to directly nested spans.
    pub self_ns: u64,
    /// Fastest single activation, ns (0 when never called).
    pub min_ns: u64,
    /// Slowest single activation, ns.
    pub max_ns: u64,
    /// Bytes attributed via [`SpanGuard::bytes`].
    pub bytes: u64,
    /// Heap bytes allocated while this span was innermost (0 unless the
    /// instrumented allocator is compiled in; see [`crate::alloc`]).
    pub alloc_bytes: u64,
    /// Heap allocations charged alongside `alloc_bytes`.
    pub allocs: u64,
}

/// Copy every registry entry, sorted by display name. Entries with zero
/// calls and zero time are skipped.
pub fn snapshot() -> Vec<SpanSnapshot> {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<SpanSnapshot> = map
        .values()
        .map(|s| {
            let calls = s.calls.load(Ordering::Relaxed);
            let min = s.min_ns.load(Ordering::Relaxed);
            SpanSnapshot {
                name: s.display_name(),
                kind: s.kind,
                calls,
                total_ns: s.total_ns.load(Ordering::Relaxed),
                self_ns: s.self_ns.load(Ordering::Relaxed),
                min_ns: if min == u64::MAX { 0 } else { min },
                max_ns: s.max_ns.load(Ordering::Relaxed),
                bytes: s.bytes.load(Ordering::Relaxed),
                alloc_bytes: s.alloc_bytes.load(Ordering::Relaxed),
                allocs: s.allocs.load(Ordering::Relaxed),
            }
        })
        .filter(|s| s.calls > 0 || s.total_ns > 0)
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Zero every registered entry (entries stay registered, so cached call
/// sites remain valid). Meaningful only while no spans are in flight.
pub fn reset() {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    for s in map.values() {
        s.clear();
    }
}

/// Fetch the current `calls` value of a counter/span by display key,
/// or 0 when it was never registered. Handy for tests.
pub fn calls(group: &'static str, name: &'static str) -> u64 {
    let map = registry().lock().unwrap_or_else(|e| e.into_inner());
    map.get(&(group, name))
        .map(|s| s.calls.load(Ordering::Relaxed))
        .unwrap_or(0)
}

/// Open a named span if `cond` holds; compiled out entirely when the
/// *calling* crate's `telemetry` feature is off (the `cfg!` below is
/// evaluated in the caller's feature context because this is a macro).
///
/// ```
/// let work = 128 * 128 * 128;
/// let _span = lttf_obs::span!("matmul", work >= 4096);
/// _span.bytes(3 * 128 * 128 * 4);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, true)
    };
    ($name:expr, $cond:expr) => {{
        if cfg!(feature = "telemetry") && $cond {
            static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
                ::std::sync::OnceLock::new();
            $crate::SpanGuard::enter(
                SITE.get_or_init(|| $crate::register("", $name, $crate::Kind::Span)),
            )
        } else {
            $crate::SpanGuard::inactive()
        }
    }};
}

/// Bump a named counter by `delta`; compiled out with the caller's
/// `telemetry` feature like [`span!`].
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {{
        if cfg!(feature = "telemetry") {
            static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::register("", $name, $crate::Kind::Counter))
                .add_calls($delta as u64);
        }
    }};
}

/// Accumulate `ns` nanoseconds into a named gauge; compiled out with the
/// caller's `telemetry` feature like [`span!`].
#[macro_export]
macro_rules! gauge_ns {
    ($name:expr, $ns:expr) => {{
        if cfg!(feature = "telemetry") {
            static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::register("", $name, $crate::Kind::GaugeNs))
                .add_ns($ns as u64);
        }
    }};
}

/// Record one sample of a unitless gauge (queue depth, batch size, …);
/// compiled out with the caller's `telemetry` feature like [`span!`].
/// Reports show the sample count, mean, and min/max.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {{
        if cfg!(feature = "telemetry") {
            static SITE: ::std::sync::OnceLock<&'static $crate::SpanStats> =
                ::std::sync::OnceLock::new();
            SITE.get_or_init(|| $crate::register("", $name, $crate::Kind::Gauge))
                .record_value($value as u64);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exclusive;
    use std::hint::black_box;
    use std::sync::{Arc, Barrier};

    fn load(a: &AtomicU64) -> u64 {
        a.load(Ordering::Relaxed)
    }

    #[test]
    fn allocations_charge_the_innermost_open_span() {
        let _g = exclusive();
        let outer = register("", "obs_test_alloc_outer", Kind::Span);
        let inner = register("", "obs_test_alloc_inner", Kind::Span);
        let (outer0, inner0) = (load(&outer.alloc_bytes), load(&inner.alloc_bytes));
        {
            let _outer = SpanGuard::enter(outer);
            {
                let _inner = SpanGuard::enter(inner);
                black_box(Vec::<u8>::with_capacity(1 << 16));
            }
            black_box(Vec::<u8>::with_capacity(1 << 17));
        }
        let outer_bytes = load(&outer.alloc_bytes) - outer0;
        let inner_bytes = load(&inner.alloc_bytes) - inner0;
        if cfg!(feature = "telemetry") {
            assert!(
                (1 << 16..1 << 17).contains(&inner_bytes),
                "inner charged {inner_bytes}"
            );
            assert!(
                (1 << 17..3 << 16).contains(&outer_bytes),
                "outer charged {outer_bytes}"
            );
        } else {
            assert_eq!((outer_bytes, inner_bytes), (0, 0), "the hook compiles out");
        }
    }

    #[test]
    fn self_times_sum_exactly_to_the_root_total() {
        let _g = exclusive();
        let [root, a, grandchild, b] =
            ["root", "a", "grandchild", "b"].map(|n| register("obs_test_tree", n, Kind::Span));
        let before = [root, a, grandchild, b].map(|s| load(&s.self_ns));
        let root_total0 = load(&root.total_ns);
        let nap = || std::thread::sleep(std::time::Duration::from_micros(300));
        {
            let _root = SpanGuard::enter(root);
            nap();
            {
                let _a = SpanGuard::enter(a);
                nap();
                let _grandchild = SpanGuard::enter(grandchild);
                nap();
            }
            let _b = SpanGuard::enter(b);
            nap();
        }
        let self_sum: u64 = [root, a, grandchild, b]
            .iter()
            .zip(before)
            .map(|(s, b)| load(&s.self_ns) - b)
            .sum();
        assert_eq!(self_sum, load(&root.total_ns) - root_total0);
        assert!(load(&grandchild.self_ns) - before[2] > 0);
    }

    #[test]
    fn exited_threads_release_their_stacks() {
        const THREADS: usize = 64;
        let _g = exclusive();
        let ours = || {
            stacks()
                .iter()
                .filter(|s| s.name.starts_with("obs-stack-exit-"))
                .count()
        };
        for sampling in [true, false] {
            let sampler_on = sampling && crate::sampler::start(1_000).is_ok();
            assert_eq!(sampler_on, sampling && cfg!(feature = "telemetry"));
            let open = Arc::new(Barrier::new(THREADS + 1));
            let close = Arc::new(Barrier::new(THREADS + 1));
            let threads: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (open, close) = (open.clone(), close.clone());
                    std::thread::Builder::new()
                        .name(format!("obs-stack-exit-{i}"))
                        .spawn(move || {
                            let _s = scoped("", "obs_test_thread_exit");
                            open.wait();
                            close.wait();
                        })
                        .unwrap()
                })
                .collect();
            open.wait();
            let registered = ours();
            close.wait();
            for t in threads {
                t.join().unwrap();
            }
            let left = ours();
            if sampler_on {
                crate::sampler::stop();
            }
            assert_eq!((registered, left), (THREADS, 0), "sampler on: {sampler_on}");
        }
    }
}
