//! Live serving statistics: fixed-memory windowed histograms.
//!
//! One [`ServeStats`] is shared by every replica of one model. It holds:
//!
//! - a **lifetime** histogram of total request latency (exact count /
//!   sum / min / max, quantiles within 3.125%), exposed as a Prometheus
//!   `_bucket`/`_sum`/`_count` family and used for the shutdown
//!   [`LatencySummary`];
//! - **trailing-window** histograms (12 × 10 s by default) of total
//!   latency, queue wait, and service time, answering "what is p99
//!   *right now*" in O(1) memory under unbounded traffic;
//! - per-replica served counters and windowed latency;
//! - a count of batches whose forward panicked.
//!
//! The batcher records once per batch under one short lock; readers
//! merge the live window buckets on demand. All timestamps are
//! milliseconds since the stats' own epoch, so tests can drive the
//! window logic deterministically through [`ServeStats::at`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lttf_obs::hist::{Histogram, WindowedCounter, WindowedHistogram};

/// Number of rotating window buckets on the live path.
pub(crate) const WINDOW_BUCKETS: usize = 12;
/// Width of one window bucket in milliseconds (total window 2 minutes).
pub(crate) const WINDOW_BUCKET_MS: u64 = 10_000;

/// The windowed latency phases and per-request costs tracked per model.
struct Windows {
    total: WindowedHistogram,
    queue: WindowedHistogram,
    service: WindowedHistogram,
    /// Process-CPU nanoseconds attributed to one request (forward delta
    /// amortized over the batch).
    cpu: WindowedHistogram,
    /// Heap bytes allocated during the forward, amortized per request.
    alloc: WindowedHistogram,
}

/// Per-replica slice of the live stats.
struct ReplicaStats {
    served: AtomicU64,
    window: Mutex<WindowedHistogram>,
}

/// A point-in-time view of one windowed histogram set, plus rates.
pub struct WindowSnapshot {
    /// Total latency (queue wait + batching + forward) over the window.
    pub total: Histogram,
    /// Queue wait (submit → dequeue) over the window.
    pub queue: Histogram,
    /// Service time (batch forward pass, per batch) over the window.
    pub service: Histogram,
    /// Per-request process-CPU cost (ns) over the window. Zero-valued
    /// samples are recorded when cost attribution is compiled out.
    pub(crate) cpu: Histogram,
    /// Per-request allocation churn (bytes) over the window.
    pub(crate) alloc: Histogram,
    /// Trailing-window span in milliseconds.
    pub(crate) window_ms: u64,
}

/// A latency percentile summary, read off a [`Histogram`] of
/// nanosecond samples: count, min, max and mean are exact; quantiles are
/// within the histogram's 3.125% relative-error bound (and monotone:
/// p50 <= p95 <= p99). Printed on shutdown and written by
/// `lttf bench-serve`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of completed requests.
    pub count: usize,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Fastest request, nanoseconds.
    pub min_ns: u64,
    /// Slowest request, nanoseconds.
    pub max_ns: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
}

impl From<&Histogram> for LatencySummary {
    fn from(h: &Histogram) -> LatencySummary {
        LatencySummary {
            count: h.count() as usize,
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
            min_ns: h.min(),
            max_ns: h.max(),
            mean_ns: h.mean(),
        }
    }
}

impl LatencySummary {
    /// One-line human rendering with millisecond units.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        format!(
            "{} requests: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            self.count,
            ms(self.p50_ns),
            ms(self.p95_ns),
            ms(self.p99_ns),
            ms(self.max_ns),
        )
    }
}

/// Shared live statistics for one model's replica pool.
pub struct ServeStats {
    epoch: Instant,
    lifetime: Mutex<Histogram>,
    windows: Mutex<Windows>,
    replicas: Vec<ReplicaStats>,
    /// Batches whose forward panicked; their requests are not served.
    forward_panics: AtomicU64,
}

impl ServeStats {
    /// Stats for a pool of `replicas` engines, with the default
    /// 12 × 10 s trailing window.
    pub(crate) fn new(replicas: usize) -> Arc<ServeStats> {
        ServeStats::with_window(replicas, WINDOW_BUCKETS, WINDOW_BUCKET_MS)
    }

    /// [`ServeStats::new`] with an explicit window geometry (tests use
    /// short buckets so rotation is observable quickly).
    pub(crate) fn with_window(replicas: usize, buckets: usize, bucket_ms: u64) -> Arc<ServeStats> {
        let wh = || WindowedHistogram::new(buckets, bucket_ms);
        Arc::new(ServeStats {
            epoch: Instant::now(),
            lifetime: Mutex::new(Histogram::new()),
            windows: Mutex::new(Windows {
                total: wh(),
                queue: wh(),
                service: wh(),
                cpu: wh(),
                alloc: wh(),
            }),
            replicas: (0..replicas.max(1))
                .map(|_| ReplicaStats { served: AtomicU64::new(0), window: Mutex::new(wh()) })
                .collect(),
            forward_panics: AtomicU64::new(0),
        })
    }

    /// Milliseconds since this stats object was created — the time base
    /// every window operation uses.
    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Number of replica slots.
    pub(crate) fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Record one flushed batch from `replica`: per-request
    /// `(total_ns, queue_ns)` pairs, the batch's shared forward duration,
    /// and the forward's resource cost amortized per request
    /// (process-CPU ns and allocated heap bytes; both 0 when cost
    /// attribution is compiled out). One lock round per batch, not per
    /// request.
    pub(crate) fn record_batch(
        &self,
        replica: usize,
        samples: &[(u64, u64)],
        service_ns: u64,
        cpu_ns_per_req: u64,
        alloc_bytes_per_req: u64,
    ) {
        if samples.is_empty() {
            return;
        }
        let t = self.now_ms();
        {
            let mut life = self.lifetime.lock().unwrap_or_else(|e| e.into_inner());
            for &(total, _) in samples {
                life.record(total);
            }
        }
        {
            let mut w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
            for &(total, queue) in samples {
                w.total.record(t, total);
                w.queue.record(t, queue);
                w.cpu.record(t, cpu_ns_per_req);
                w.alloc.record(t, alloc_bytes_per_req);
            }
            w.service.record(t, service_ns);
        }
        if let Some(r) = self.replicas.get(replica) {
            r.served.fetch_add(samples.len() as u64, Ordering::Relaxed);
            let mut w = r.window.lock().unwrap_or_else(|e| e.into_inner());
            for &(total, _) in samples {
                w.record(t, total);
            }
        }
    }

    /// Count one batch whose forward panicked. Its requests were answered
    /// with an error, so it records no latency and no served request.
    pub(crate) fn record_forward_panic(&self) {
        self.forward_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Batches whose forward panicked, over the stats' lifetime.
    pub(crate) fn forward_panics(&self) -> u64 {
        self.forward_panics.load(Ordering::Relaxed)
    }

    /// Requests served by one replica over its lifetime.
    pub(crate) fn replica_served(&self, replica: usize) -> u64 {
        self.replicas
            .get(replica)
            .map_or(0, |r| r.served.load(Ordering::Relaxed))
    }

    /// Trailing-window latency histogram for one replica.
    pub(crate) fn replica_window(&self, replica: usize) -> Histogram {
        let t = self.now_ms();
        self.replicas.get(replica).map_or_else(Histogram::new, |r| {
            r.window.lock().unwrap_or_else(|e| e.into_inner()).snapshot(t)
        })
    }

    /// Lifetime latency histogram (cumulative since start — the
    /// Prometheus-monotone series).
    pub(crate) fn lifetime(&self) -> Histogram {
        self.lifetime.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Snapshot of the trailing-window histograms as of now.
    pub fn windowed(&self) -> WindowSnapshot {
        self.at(self.now_ms())
    }

    /// [`ServeStats::windowed`] at an explicit time (deterministic tests).
    pub(crate) fn at(&self, t_ms: u64) -> WindowSnapshot {
        let w = self.windows.lock().unwrap_or_else(|e| e.into_inner());
        WindowSnapshot {
            total: w.total.snapshot(t_ms),
            queue: w.queue.snapshot(t_ms),
            service: w.service.snapshot(t_ms),
            cpu: w.cpu.snapshot(t_ms),
            alloc: w.alloc.snapshot(t_ms),
            window_ms: w.total.window_ms(),
        }
    }

    /// The shutdown/e2e summary of the lifetime histogram.
    pub(crate) fn summary(&self) -> LatencySummary {
        LatencySummary::from(&*self.lifetime.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Trailing-window rates of the three refusal/retry flows, as of one
/// instant. All rates are events per second over the window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlowRates {
    /// Admission refusals (rate limit + load shed) per second.
    pub(crate) shed_per_sec: f64,
    /// Queue-full rejections (aggregate replica capacity) per second.
    pub(crate) rejected_per_sec: f64,
    /// Reload-race resubmissions per second.
    pub(crate) resubmitted_per_sec: f64,
}

/// Windowed counters for the server-level request flows that never reach
/// a replica: admission refusals, queue-full rejections, and reload
/// resubmissions. One per server; rates answer "is the gate biting *right
/// now*", which lifetime counters cannot.
pub(crate) struct FlowStats {
    epoch: Instant,
    shed: Mutex<WindowedCounter>,
    rejected: Mutex<WindowedCounter>,
    resubmitted: Mutex<WindowedCounter>,
}

impl Default for FlowStats {
    fn default() -> Self {
        FlowStats::new()
    }
}

impl FlowStats {
    /// Flow counters over the default 12 × 10 s trailing window.
    pub(crate) fn new() -> FlowStats {
        FlowStats::with_window(WINDOW_BUCKETS, WINDOW_BUCKET_MS)
    }

    /// [`FlowStats::new`] with explicit window geometry (tests).
    pub(crate) fn with_window(buckets: usize, bucket_ms: u64) -> FlowStats {
        let wc = || Mutex::new(WindowedCounter::new(buckets, bucket_ms));
        FlowStats {
            epoch: Instant::now(),
            shed: wc(),
            rejected: wc(),
            resubmitted: wc(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn bump(&self, counter: &Mutex<WindowedCounter>) {
        let t = self.now_ms();
        counter.lock().unwrap_or_else(|e| e.into_inner()).add(t, 1);
    }

    /// Count one admission refusal (rate limited or overloaded).
    pub(crate) fn shed(&self) {
        self.bump(&self.shed);
    }

    /// Count one queue-full rejection.
    pub(crate) fn rejected(&self) {
        self.bump(&self.rejected);
    }

    /// Count one reload-race resubmission.
    pub(crate) fn resubmitted(&self) {
        self.bump(&self.resubmitted);
    }

    /// Current trailing-window rates.
    pub(crate) fn rates(&self) -> FlowRates {
        let t = self.now_ms();
        let rate = |c: &Mutex<WindowedCounter>| {
            c.lock().unwrap_or_else(|e| e.into_inner()).rate_per_sec(t)
        };
        FlowRates {
            shed_per_sec: rate(&self.shed),
            rejected_per_sec: rate(&self.rejected),
            resubmitted_per_sec: rate(&self.resubmitted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_rates_reflect_recent_events_only() {
        let f = FlowStats::with_window(2, 50); // 100 ms window
        for _ in 0..10 {
            f.shed();
        }
        f.rejected();
        let r = f.rates();
        assert!(r.shed_per_sec > 0.0, "{}", r.shed_per_sec);
        assert!(r.rejected_per_sec > 0.0);
        assert_eq!(r.resubmitted_per_sec, 0.0);
        std::thread::sleep(std::time::Duration::from_millis(160));
        let r = f.rates();
        assert_eq!(r.shed_per_sec, 0.0, "events must age out of the window");
    }

    #[test]
    fn batch_recording_feeds_all_views() {
        let stats = ServeStats::new(2);
        stats.record_batch(
            0,
            &[(2_000_000, 500_000), (3_000_000, 700_000)],
            1_500_000,
            800_000,
            4_096,
        );
        stats.record_batch(1, &[(10_000_000, 4_000_000)], 6_000_000, 5_000_000, 16_384);
        let s = stats.summary();
        assert_eq!(s.count, 3);
        assert!(s.min_ns >= 1_900_000 && s.min_ns <= 2_100_000, "{}", s.min_ns);
        assert_eq!(s.max_ns, 10_000_000);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        let w = stats.windowed();
        assert_eq!(w.total.count(), 3);
        assert_eq!(w.queue.count(), 3);
        assert_eq!(w.service.count(), 2, "one service sample per batch");
        assert_eq!(w.cpu.count(), 3, "one cpu cost sample per request");
        assert_eq!(w.cpu.max(), 5_000_000);
        assert_eq!(w.alloc.count(), 3);
        assert_eq!(w.alloc.max(), 16_384);
        assert_eq!(stats.replica_served(0), 2);
        assert_eq!(stats.replica_served(1), 1);
        assert_eq!(stats.replica_window(0).count(), 2);
    }

    #[test]
    fn window_forgets_but_lifetime_remembers() {
        let stats = ServeStats::with_window(1, 2, 50); // 100 ms window
        stats.record_batch(0, &[(1_000, 100)], 900, 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(160));
        stats.record_batch(0, &[(5_000, 200)], 4_800, 0, 0);
        let w = stats.windowed();
        assert_eq!(w.total.count(), 1, "first batch aged out of the window");
        assert_eq!(w.total.max(), 5_000);
        assert_eq!(stats.summary().count, 2, "lifetime keeps both");
    }

    #[test]
    fn out_of_range_replica_is_ignored() {
        let stats = ServeStats::new(1);
        stats.record_batch(7, &[(1_000, 10)], 990, 0, 0);
        // Model-level views still see the batch; the replica slot doesn't.
        assert_eq!(stats.summary().count, 1);
        assert_eq!(stats.replica_served(0), 0);
        assert_eq!(stats.replica_window(9).count(), 0);
    }
}
