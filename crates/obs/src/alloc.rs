//! Allocation accounting: an instrumented [`std::alloc::System`] wrapper
//! counting allocations, frees, bytes, live bytes, and the high-water
//! mark — plus per-span attribution of allocation churn — and the heap
//! policy every build of the program runs on.
//!
//! [`CountingAlloc`] is *exported*, not installed: Rust allows exactly one
//! `#[global_allocator]` per program, so the leaf crate that owns the
//! binary installs it (the workspace root `lttf` lib does, in every
//! build, covering the CLI and the e2e tests; so does the kernels bench
//! suite behind the telemetry-overhead gate). When the `telemetry`
//! feature is off every counter here compiles out and the wrapper only
//! applies the heap policy before forwarding to [`std::alloc::System`],
//! so a `--no-default-features` build carries no accounting at all but
//! manages its heap exactly as the instrumented build does.
//! All counters are relaxed atomics: the hook adds a handful of
//! `fetch_add`s to every heap operation and never allocates itself, so
//! it is re-entrancy-free by construction.
//!
//! **Heap policy.** A training step frees most of what its forward made.
//! glibc's default thresholds keep only a small free top of the heap
//! (128 KiB, raised to twice the largest block it has had to map) and
//! hand the rest back to the kernel, so the next step faults the same
//! pages in again: hundreds of minor faults a step. Before serving its first
//! block the allocator raises both thresholds ([`TRIM_THRESHOLD`],
//! [`MMAP_THRESHOLD`]), so freed memory stays mapped and the next step
//! reuses it. The resident set stays at its high-water mark between
//! steps; the live-byte counters are unaffected.
//!
//! Per-span attribution rides on the innermost open span of the
//! allocating thread (see [`crate::registry`]): every allocation's size
//! is charged to that span's `alloc_bytes`/`allocs` counters, which
//! `lttf profile` renders as two extra columns. Only allocations are
//! charged — a span that frees more than it allocates still shows its
//! churn, which is the quantity that costs time in the allocator.
//!
//! [`AllocCounters`] is the pure (non-atomic) model of the same
//! bookkeeping, used by the property tests to pin the invariants:
//! live = allocated − freed bytes, peak is monotone within a run, and a
//! merge of per-thread counters bounds the true global peak from above.

use std::alloc::{GlobalAlloc, Layout, System};

/// The instrumented system allocator. Every heap operation updates the
/// global counters and charges the allocating thread's innermost open
/// span; none of the bookkeeping can allocate or lock. The first
/// allocation also applies the heap policy (see the module docs). Install
/// it in the crate that owns the binary, in every build:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: lttf_obs::alloc::CountingAlloc = lttf_obs::alloc::CountingAlloc;
/// ```
///
/// With the `telemetry` feature off it degenerates to the heap policy and
/// a transparent forwarder around [`std::alloc::System`].
pub struct CountingAlloc;

/// Free bytes glibc may keep at the top of the heap before it returns
/// them to the kernel (`M_TRIM_THRESHOLD`; glibc starts at 128 KiB).
/// A canonical training step at batch 32 frees the ~14 MB its tape held
/// and allocates it again in the next forward; below this bound those pages
/// stay mapped instead of being trimmed and faulted back in. 64 MiB keeps
/// every workload the program runs, and a process that frees more than
/// that still returns the excess.
pub const TRIM_THRESHOLD: usize = 64 << 20;

/// Smallest block glibc serves with its own `mmap` when the heap has no
/// free space for it (`M_MMAP_THRESHOLD`). Setting the trim threshold
/// switches off glibc's dynamic mmap threshold and pins it at its 128 KiB
/// default, so an activation of a few hundred KB that arrives while the
/// heap is full would be mapped on allocation and unmapped on free, and
/// fault its pages in again at every step; it is raised with the trim
/// threshold. 32 MiB is the largest value glibc accepts on 64-bit
/// targets.
pub const MMAP_THRESHOLD: usize = 32 << 20;

/// Applies the heap policy once, before the allocator serves its first
/// block: one relaxed load per allocation after that.
mod policy {
    use std::sync::atomic::{AtomicBool, Ordering};

    static APPLIED: AtomicBool = AtomicBool::new(false);

    #[inline(always)]
    pub fn ensure() {
        if !APPLIED.load(Ordering::Relaxed) {
            apply();
        }
    }

    #[cold]
    #[inline(never)]
    fn apply() {
        if APPLIED.swap(true, Ordering::Relaxed) {
            return;
        }
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            // glibc's `<malloc.h>` parameter numbers.
            const M_TRIM_THRESHOLD: i32 = -1;
            const M_MMAP_THRESHOLD: i32 = -3;
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            // SAFETY: `mallopt` takes plain integers and allocates
            // nothing; glibc serializes it against the arenas itself.
            unsafe {
                mallopt(M_TRIM_THRESHOLD, super::TRIM_THRESHOLD as i32);
                mallopt(M_MMAP_THRESHOLD, super::MMAP_THRESHOLD as i32);
            }
        }
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static FREES: AtomicU64 = AtomicU64::new(0);
    pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
    pub static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
    pub static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    // The hook is on the malloc fast path, so it is budgeted in single
    // atomic ops: two relaxed RMWs per direction, no live-bytes atomic
    // (live is derived as alloc − freed at read time), and the peak
    // update is a plain load + branch — the contended `fetch_max` runs
    // only while the high-water mark is actually being raised.
    #[inline]
    pub fn on_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let total = ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        let live = total.saturating_sub(FREED_BYTES.load(Ordering::Relaxed));
        if live > PEAK_BYTES.load(Ordering::Relaxed) {
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
        crate::registry::charge_alloc(size);
    }

    #[inline]
    pub fn on_free(size: usize) {
        FREES.fetch_add(1, Ordering::Relaxed);
        FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

#[cfg(not(feature = "telemetry"))]
mod imp {
    #[inline]
    pub fn on_alloc(_size: usize) {}
    #[inline]
    pub fn on_free(_size: usize) {}
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        policy::ensure();
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            imp::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        imp::on_free(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        policy::ensure();
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            imp::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A grow-in-place still retires the old block logically:
            // count it as one free + one alloc so live stays exact.
            imp::on_free(layout.size());
            imp::on_alloc(new_size);
        }
        p
    }
}

// The obs crate's own unit tests have no enclosing binary crate to
// install the allocator, so the test build installs it here. (The lib
// proper must NOT: `lttf-testkit` links this rlib back into our test
// binary, and two `#[global_allocator]`s cannot coexist.)
#[cfg(all(test, feature = "telemetry"))]
#[global_allocator]
static TEST_GLOBAL: CountingAlloc = CountingAlloc;

/// Point-in-time copy of the global allocation counters. All zeros when
/// the `telemetry` feature is compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Heap allocations since process start.
    pub allocs: u64,
    /// Heap frees since process start.
    pub frees: u64,
    /// Total bytes ever allocated.
    pub alloc_bytes: u64,
    /// Total bytes ever freed.
    pub freed_bytes: u64,
    /// Bytes currently live (`alloc_bytes - freed_bytes`).
    pub live_bytes: u64,
    /// High-water mark of live bytes (resettable via [`reset_peak`]).
    pub peak_bytes: u64,
}

/// Snapshot every global allocation counter.
pub fn snapshot() -> AllocSnapshot {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering;
        let alloc_bytes = imp::ALLOC_BYTES.load(Ordering::Relaxed);
        let freed_bytes = imp::FREED_BYTES.load(Ordering::Relaxed);
        AllocSnapshot {
            allocs: imp::ALLOCS.load(Ordering::Relaxed),
            frees: imp::FREES.load(Ordering::Relaxed),
            alloc_bytes,
            freed_bytes,
            live_bytes: alloc_bytes.saturating_sub(freed_bytes),
            peak_bytes: imp::PEAK_BYTES.load(Ordering::Relaxed),
        }
    }
    #[cfg(not(feature = "telemetry"))]
    {
        AllocSnapshot::default()
    }
}

/// Bytes currently live on the heap (0 when compiled out).
pub fn live_bytes() -> u64 {
    snapshot().live_bytes
}

/// High-water mark of live bytes since process start or the last
/// [`reset_peak`] (0 when compiled out).
pub fn peak_bytes() -> u64 {
    snapshot().peak_bytes
}

/// Total heap allocations since process start (0 when compiled out).
pub fn allocs_total() -> u64 {
    snapshot().allocs
}

/// Total bytes ever allocated since process start (0 when compiled out).
pub fn alloc_bytes_total() -> u64 {
    snapshot().alloc_bytes
}

/// Reset the peak to the current live byte count, so a benchmark can
/// measure its own high-water mark instead of the process lifetime's.
pub fn reset_peak() {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering;
        let live = imp::ALLOC_BYTES
            .load(Ordering::Relaxed)
            .saturating_sub(imp::FREED_BYTES.load(Ordering::Relaxed));
        imp::PEAK_BYTES.store(live, Ordering::Relaxed);
    }
}

/// Pure (single-threaded, non-atomic) model of the allocator bookkeeping.
///
/// This is the reference the property tests check the invariants against,
/// and the merge semantics for combining per-thread counter sets: counts
/// and byte totals add exactly; the merged peak is the *sum* of the
/// per-part peaks, an upper bound on the true interleaved peak (the parts
/// need not have peaked at the same instant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Allocations recorded.
    pub allocs: u64,
    /// Frees recorded.
    pub frees: u64,
    /// Total bytes allocated.
    pub alloc_bytes: u64,
    /// Total bytes freed.
    pub freed_bytes: u64,
    /// High-water mark of `live_bytes()`.
    pub peak_bytes: u64,
}

impl AllocCounters {
    /// Fresh zeroed counters.
    pub fn new() -> AllocCounters {
        AllocCounters::default()
    }

    /// Record one allocation of `size` bytes.
    pub fn record_alloc(&mut self, size: u64) {
        self.allocs += 1;
        self.alloc_bytes += size;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes());
    }

    /// Record one free of `size` bytes.
    pub fn record_free(&mut self, size: u64) {
        self.frees += 1;
        self.freed_bytes += size;
    }

    /// Bytes currently live: allocated minus freed (saturating, so a
    /// counter fed frees for blocks allocated elsewhere stays sane).
    pub fn live_bytes(&self) -> u64 {
        self.alloc_bytes.saturating_sub(self.freed_bytes)
    }

    /// Fold `other` into `self`: counts and byte totals add exactly;
    /// the peak becomes the sum of both peaks (an upper bound).
    pub fn merge(&mut self, other: &AllocCounters) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.alloc_bytes += other.alloc_bytes;
        self.freed_bytes += other.freed_bytes;
        self.peak_bytes = self.peak_bytes.saturating_add(other.peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "telemetry")]
    fn global_counters_observe_a_real_allocation() {
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        let during = snapshot();
        assert!(
            during.alloc_bytes >= before.alloc_bytes + (1 << 16),
            "a 64 KiB allocation must show up in alloc_bytes"
        );
        assert!(during.live_bytes > 0);
        assert!(during.peak_bytes >= during.live_bytes.saturating_sub(1 << 20));
        drop(v);
        let after = snapshot();
        assert!(
            after.freed_bytes >= before.freed_bytes + (1 << 16),
            "the free must show up in freed_bytes"
        );
    }

    #[test]
    #[cfg(not(feature = "telemetry"))]
    fn compiled_out_snapshot_is_zero() {
        assert_eq!(snapshot(), AllocSnapshot::default());
    }

    #[test]
    fn pure_counters_track_live_and_peak() {
        let mut c = AllocCounters::new();
        c.record_alloc(100);
        c.record_alloc(50);
        assert_eq!(c.live_bytes(), 150);
        assert_eq!(c.peak_bytes, 150);
        c.record_free(100);
        assert_eq!(c.live_bytes(), 50);
        assert_eq!(c.peak_bytes, 150, "peak survives frees");
        c.record_alloc(10);
        assert_eq!(c.peak_bytes, 150, "60 live never beats the old peak");
    }
}
