//! Global span/counter registry and the span path table.
//!
//! A [`SpanStats`] is a leaked, never-freed bundle of atomics keyed by a
//! `(group, name)` pair of `&'static str`s. Call sites cache the pointer in
//! a per-site `OnceLock`, so the steady-state cost of an active span is two
//! `Instant::now()` reads plus a handful of relaxed atomic adds. The
//! registry mutex is only touched on first use of each site and when
//! snapshotting.
//!
//! Every open span also runs under a *path node*: its parent's node plus
//! its site, interned (and leaked) the first time that pair occurs. A
//! thread's outermost spans hang under a root named after the thread, and
//! every thread without a name shares one `unnamed` root, so the table
//! grows with thread names × span paths, never with the number of
//! threads. A node's children are read without a lock and added under one
//! mutex, so entering a span whose path exists takes no lock and
//! allocates nothing. Each thread keeps two const, destructor-free
//! `Cell`s:
//!
//! - **The current node**, which the allocation hook ([`crate::alloc`])
//!   reads to charge each allocation to the innermost open span. Reading
//!   it cannot allocate, lock or re-enter the hook.
//! - **The self-time credited so far.** A guard records it when it opens;
//!   when it closes, everything credited since then is the elapsed time
//!   of its direct children (their descendants' self-times add up to
//!   exactly that), so `self = elapsed − (credited_now − credited_at_entry)`.
//!   The credit grows by `self`, and so does the span's node.
//!
//! A site's self-time in [`snapshot`] is the sum of its nodes' weights,
//! and [`crate::flame`] renders the same weights as collapsed stacks, so
//! the profile table and the flame graph agree by construction. Spans
//! opened on pool worker threads have no parent on that thread, so their
//! time is *not* subtracted from the dispatching span — utilization
//! numbers come from the pool gauges instead.

use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
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
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            trace_idx: AtomicU32::new(u32::MAX),
        }
    }

    /// `group.name` display form (just `name` when the group is empty),
    /// as rendered by snapshots and flame graphs.
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
        let idx = trace::intern(&self.display_name());
        self.trace_idx.store(idx, Ordering::Relaxed);
        idx
    }

    fn clear(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
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

/// What a path node stands for.
enum Frame {
    /// A thread root, keyed by the thread's name.
    Thread(&'static str),
    /// A span site under its parent's path.
    Span(&'static SpanStats),
}

/// One interned span path. Leaked and never freed; after creation only
/// its weight and its child list change.
struct PathNode {
    /// `None` only on [`THREADS`], which every thread root hangs under.
    parent: Option<&'static PathNode>,
    frame: Frame,
    /// Self-time of every span that ran under this path, ns.
    self_ns: AtomicU64,
    /// Newest child first. A child's `next` is fixed before the release
    /// store that publishes it here, so readers walk the list lock-free.
    first_child: AtomicPtr<PathNode>,
    next: Option<&'static PathNode>,
}

static THREADS: PathNode = PathNode {
    parent: None,
    frame: Frame::Thread(""),
    self_ns: AtomicU64::new(0),
    first_child: AtomicPtr::new(ptr::null_mut()),
    next: None,
};

/// Every node but [`THREADS`]; its lock also serialises insertions.
fn paths() -> MutexGuard<'static, Vec<&'static PathNode>> {
    static PATHS: Mutex<Vec<&'static PathNode>> = Mutex::new(Vec::new());
    PATHS.lock().unwrap_or_else(|e| e.into_inner())
}

impl PathNode {
    /// The child whose frame satisfies `is`, read without a lock; made by
    /// `frame` under the table lock the first time.
    fn child(
        &'static self,
        is: impl Fn(&Frame) -> bool,
        frame: impl FnOnce() -> Frame,
    ) -> &'static PathNode {
        let find = || {
            // SAFETY: the list holds leaked nodes, each published fully built.
            let mut next = unsafe { self.first_child.load(Ordering::Acquire).as_ref() };
            while let Some(n) = next {
                if is(&n.frame) {
                    return Some(n);
                }
                next = n.next;
            }
            None
        };
        if let Some(n) = find() {
            return n;
        }
        let mut table = paths();
        // Another thread may have added it since the lock-free read.
        if let Some(n) = find() {
            return n;
        }
        let node: &'static PathNode = Box::leak(Box::new(PathNode {
            parent: Some(self),
            frame: frame(),
            self_ns: AtomicU64::new(0),
            first_child: AtomicPtr::new(ptr::null_mut()),
            // SAFETY: as in `find`; only this lock's holder stores here.
            next: unsafe { self.first_child.load(Ordering::Relaxed).as_ref() },
        }));
        self.first_child
            .store(ptr::from_ref(node).cast_mut(), Ordering::Release);
        table.push(node);
        node
    }
}

thread_local! {
    /// The innermost open span's node (the thread root once every span has
    /// closed; `None` before the first). Const and destructor-free, so the
    /// allocation hook can read it without allocating or registering anything.
    static CURRENT: Cell<Option<&'static PathNode>> = const { Cell::new(None) };
    /// Self-time credited on this thread so far, ns.
    static CREDITED_NS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's root: one per thread name, and one `unnamed` for all
/// threads without a name.
#[cold]
fn thread_root() -> &'static PathNode {
    let me = std::thread::current();
    let name = me.name().unwrap_or("unnamed");
    THREADS.child(
        |f| matches!(f, Frame::Thread(n) if *n == name),
        || Frame::Thread(name.to_string().leak()),
    )
}

/// Call `f(thread;span;…, self_ns)` for every path with self-time.
pub(crate) fn for_each_path(mut f: impl FnMut(String, u64)) {
    for node in paths().iter() {
        let weight = node.self_ns.load(Ordering::Relaxed);
        if weight == 0 {
            continue;
        }
        let mut frames = Vec::new();
        let mut n = Some(*node);
        while let Some(PathNode { frame, parent, .. }) = n {
            match frame {
                Frame::Span(site) => frames.push(site.display_name()),
                Frame::Thread(name) => frames.push(name.to_string()),
            }
            n = *parent;
        }
        frames.pop(); // THREADS
        frames.reverse();
        f(frames.join(";"), weight);
    }
}

/// Charge one allocation of `size` bytes to the calling thread's
/// innermost open span, if any. Called from the global-allocator hook:
/// must not allocate, lock, or panic.
#[cfg(feature = "telemetry")]
#[inline]
pub(crate) fn charge_alloc(size: usize) {
    if let Some(PathNode { frame: Frame::Span(site), .. }) = CURRENT.with(Cell::get) {
        site.alloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
        site.allocs.fetch_add(1, Ordering::Relaxed);
    }
}

struct ActiveSpan {
    site: &'static SpanStats,
    node: &'static PathNode,
    start: Instant,
    /// The thread's credited self-time when this span opened.
    credited_at_entry: u64,
    /// Not `Send`: the guard must close the path it opened.
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
        let parent = CURRENT.with(Cell::get).unwrap_or_else(thread_root);
        let node = parent.child(
            |f| matches!(f, Frame::Span(s) if ptr::eq(*s, site)),
            || Frame::Span(site),
        );
        CURRENT.with(|c| c.set(Some(node)));
        SpanGuard(Some(ActiveSpan {
            site,
            node,
            start: Instant::now(),
            credited_at_entry: CREDITED_NS.with(Cell::get),
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
        // Guards are strictly scoped per thread, so this span's parent is
        // the node that was current when it opened.
        CURRENT.with(|c| c.set(a.node.parent));
        let credited = CREDITED_NS.with(Cell::get);
        let self_ns = elapsed.saturating_sub(credited.saturating_sub(a.credited_at_entry));
        CREDITED_NS.with(|c| c.set(credited + self_ns));
        a.node.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        a.site.calls.fetch_add(1, Ordering::Relaxed);
        a.site.total_ns.fetch_add(elapsed, Ordering::Relaxed);
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
    /// Total minus time attributed to directly nested spans: the sum of
    /// the site's path weights (see the module docs).
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
    let mut self_ns = HashMap::<*const SpanStats, u64>::new();
    for node in paths().iter() {
        if let Frame::Span(site) = node.frame {
            let ns = node.self_ns.load(Ordering::Relaxed);
            *self_ns.entry(ptr::from_ref(site)).or_default() += ns;
        }
    }
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
                self_ns: self_ns.get(&ptr::from_ref(*s)).copied().unwrap_or(0),
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

/// Zero every registered entry and every path weight (both stay
/// registered, so cached call sites remain valid). Meaningful only while
/// no spans are in flight.
pub fn reset() {
    for node in paths().iter() {
        node.self_ns.store(0, Ordering::Relaxed);
    }
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

    /// The site's self-time in the snapshot (0 when it never ran).
    fn self_ns(name: &str) -> u64 {
        snapshot().iter().find(|s| s.name == name).map_or(0, |s| s.self_ns)
    }

    /// Nodes whose thread root is named `thread`, the root included.
    fn nodes_of(thread: &str) -> usize {
        paths()
            .iter()
            .filter(|n| {
                let mut n = **n;
                while let Some(p) = n.parent.filter(|p| p.parent.is_some()) {
                    n = p;
                }
                matches!(n.frame, Frame::Thread(name) if name == thread)
            })
            .count()
    }

    #[test]
    fn self_times_sum_exactly_to_the_root_total() {
        let _g = exclusive();
        let names = ["root", "a", "grandchild", "b"].map(|n| format!("obs_test_tree.{n}"));
        let [root, a, grandchild, b] =
            ["root", "a", "grandchild", "b"].map(|n| register("obs_test_tree", n, Kind::Span));
        let before = names.clone().map(|n| self_ns(&n));
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
        let self_sum: u64 = names.iter().zip(before).map(|(n, b)| self_ns(n) - b).sum();
        assert_eq!(self_sum, load(&root.total_ns) - root_total0);
        assert!(self_ns(&names[2]) - before[2] > 0);
    }

    #[test]
    fn threads_sharing_a_name_share_their_paths() {
        const N: usize = 64;
        let _g = exclusive();
        for name in [Some("obs-path-shared"), None] {
            let root = name.unwrap_or("unnamed");
            let before = nodes_of(root);
            let start = Arc::new(Barrier::new(N));
            let threads: Vec<_> = (0..N)
                .map(|_| {
                    let start = start.clone();
                    let mut builder = std::thread::Builder::new();
                    if let Some(n) = name {
                        builder = builder.name(n.to_string());
                    }
                    builder
                        .spawn(move || {
                            start.wait();
                            let _s = scoped("", "obs_test_shared_path");
                        })
                        .unwrap()
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let grown = nodes_of(root) - before;
            assert!((1..=2).contains(&grown), "{root}: {grown} new nodes");
        }
    }

    #[test]
    fn reset_zeroes_every_path_weight() {
        let _g = exclusive();
        {
            let _outer = scoped("obs_test_reset", "outer");
            let _inner = scoped("obs_test_reset", "inner");
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert!(self_ns("obs_test_reset.inner") > 0);
        reset();
        assert!(paths().iter().all(|n| load(&n.self_ns) == 0));
        assert_eq!(crate::flame::render(), "");
    }
}
