//! The dynamic micro-batching engine.
//!
//! Requests enter a **bounded** queue ([`std::sync::mpsc::sync_channel`]);
//! a dedicated batcher thread pulls them off and runs one forward pass per
//! batch. The batcher is **work-conserving**: it blocks for the first
//! request, takes every request already queued behind it (up to
//! `max_batch`), and runs the forward at once. It never holds a request
//! back while the replica is idle. Batches still fill under load, with no
//! timer: requests that arrive during a forward are queued when it ends.
//! Waiting for requests that have not arrived yet rarely pays on this
//! model. A canonical forecast costs ~1.2 ms alone and ~0.99 ms per row in
//! a batch of 8, only 17% less, so a flush timer of a few milliseconds
//! costs a lone request several forwards to save a fraction of one.
//! `max_wait_ms > 0` still lets an operator make a partial batch linger
//! that long for new arrivals.
//!
//! Backpressure is explicit: when the queue is full, [`Submitter::submit`]
//! returns [`Reject::QueueFull`] immediately instead of blocking, so the
//! front end can answer with an error while the system is saturated.
//! Graceful shutdown is the channel's own semantics: dropping every
//! [`Submitter`] and the [`Engine`]'s internal sender lets the batcher
//! drain whatever is still queued, reply to each request, and exit.
//!
//! A forward that panics fails its own batch, not the replica: every
//! request in it gets an error reply, the panic is counted in
//! [`ServeStats`], and the batcher goes on to the next batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use lttf_obs::trace;

use crate::registry::{LoadedModel, Window};
use crate::stats::{LatencySummary, ServeStats};

/// Interned trace-name indices for the request path, computed once. The
/// async `serve.req` slice is opened at submit on the connection thread
/// and closed at reply on the batcher thread; Chrome connects the two by
/// the id stamped on the [`Job`].
struct ReqTraceNames {
    req: u32,
    dequeue: u32,
    forward: u32,
}

fn req_names() -> &'static ReqTraceNames {
    static NAMES: OnceLock<ReqTraceNames> = OnceLock::new();
    NAMES.get_or_init(|| ReqTraceNames {
        req: trace::intern("serve.req"),
        dequeue: trace::intern("serve.req.dequeue"),
        forward: trace::intern("serve.req.forward"),
    })
}

/// Micro-batching knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Flush a batch once this many requests are waiting (1 = no batching).
    pub max_batch: usize,
    /// The longest a partial batch lingers for new arrivals, counted
    /// from its first request. Requests already queued always join the
    /// batch at once, so 0 (the default) runs every batch as soon as the
    /// replica is free, with whatever is queued; under load batches fill
    /// anyway. A nonzero value trades that much added latency per lone
    /// request for fuller batches at low load.
    pub max_wait_ms: u64,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            max_wait_ms: 0,
            queue_cap: 128,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The bounded queue is full — the client should retry later.
    QueueFull,
    /// The engine is shutting down and accepts no new work.
    Closed,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull => write!(f, "queue full"),
            Reject::Closed => write!(f, "server shutting down"),
        }
    }
}

/// The answer delivered back to a waiting request.
pub type Reply = Result<Vec<f32>, String>;

struct Job {
    window: Window,
    /// Absolute deadline; a job still queued past it is rejected, never
    /// served late.
    deadline: Option<Instant>,
    enqueued: Instant,
    /// Async trace id connecting this request's events across threads
    /// (0 = tracing was off at submit time; emit nothing downstream).
    trace_id: u64,
    reply: mpsc::Sender<Reply>,
}

/// A cheap handle for submitting work to a running [`Engine`].
///
/// The batcher thread exits once every `Submitter` clone **and** the
/// owning `Engine` are dropped; the server drops its submitters before
/// calling [`Engine::shutdown`].
#[derive(Clone)]
pub struct Submitter {
    tx: SyncSender<Job>,
    depth: Arc<AtomicUsize>,
    stats: Arc<ServeStats>,
}

impl Submitter {
    /// Enqueue one prepared window. On success, the returned receiver
    /// yields exactly one [`Reply`] — the forecast, a deadline rejection,
    /// or a model error.
    pub fn submit(
        &self,
        window: Window,
        deadline: Option<Instant>,
    ) -> Result<Receiver<Reply>, Reject> {
        self.submit_window(window, deadline).map_err(|(_, r)| r)
    }

    /// [`Submitter::submit`], but a rejection hands the window back so a
    /// replica pool can retry it against another replica without cloning
    /// the prepared tensors.
    pub(crate) fn submit_window(
        &self,
        window: Window,
        deadline: Option<Instant>,
    ) -> Result<Receiver<Reply>, (Window, Reject)> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let trace_id = if trace::enabled() { trace::next_id() } else { 0 };
        let job = Job {
            window,
            deadline,
            enqueued: Instant::now(),
            trace_id,
            reply: reply_tx,
        };
        // Increment *before* the send: the batcher may dequeue (and
        // decrement for) the job the instant it lands in the channel, and
        // a decrement racing ahead of its increment would wrap the
        // counter below zero.
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match self.tx.try_send(job) {
            Ok(()) => {
                lttf_obs::gauge!("serve.queue_depth", d as u64);
                if trace_id != 0 {
                    // Open only after the enqueue succeeds: every queued
                    // job is answered (even on shutdown drain), so the
                    // batcher's matching async end is guaranteed.
                    trace::async_begin(req_names().req, trace_id);
                }
                Ok(reply_rx)
            }
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                match e {
                    TrySendError::Full(job) => {
                        lttf_obs::counter!("serve.rejected_full", 1);
                        Err((job.window, Reject::QueueFull))
                    }
                    TrySendError::Disconnected(job) => Err((job.window, Reject::Closed)),
                }
            }
        }
    }

    /// Requests currently queued (approximate; for monitoring).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Live latency summary over every request served so far — the
    /// monitoring view behind the `"metrics"` request type. Reads the
    /// fixed-memory lifetime histogram under a short lock; quantiles are
    /// within 3.125%, count/min/max/mean exact.
    pub fn latency(&self) -> LatencySummary {
        self.stats.summary()
    }

    /// The shared live-stats handle (windowed histograms, per-replica
    /// counters) behind this submitter.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }
}

/// A model plus its batcher thread.
pub struct Engine {
    tx: SyncSender<Job>,
    depth: Arc<AtomicUsize>,
    stats: Arc<ServeStats>,
    worker: JoinHandle<()>,
}

impl Engine {
    /// Spawn the batcher thread for `model`.
    pub fn start(model: Arc<LoadedModel>, cfg: BatchConfig) -> Engine {
        // Live stats are histogram-backed (O(1) memory, locked once per
        // batch by the writer) so monitoring can read windowed
        // percentiles while the server runs, not only at shutdown.
        Engine::start_with(model, cfg, ServeStats::new(1), 0, None, "lttf-batcher")
    }

    /// [`Engine::start`] with the pieces a replica pool shares or pins:
    /// a stats accumulator common to all replicas of one model, this
    /// engine's replica index within it, an optional per-replica thread
    /// budget for the forward passes, and a thread label naming the
    /// model and replica.
    pub(crate) fn start_with(
        model: Arc<LoadedModel>,
        cfg: BatchConfig,
        stats: Arc<ServeStats>,
        replica: usize,
        threads: Option<usize>,
        label: &str,
    ) -> Engine {
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        assert!(cfg.queue_cap >= 1, "queue_cap must be >= 1");
        let (tx, rx) = mpsc::sync_channel(cfg.queue_cap);
        let depth = Arc::new(AtomicUsize::new(0));
        let depth2 = Arc::clone(&depth);
        let stats2 = Arc::clone(&stats);
        let worker = thread::Builder::new()
            .name(label.to_string())
            .spawn(move || {
                // Pin this replica's forwards to its share of the thread
                // budget; the setting is thread-local, so replicas with
                // disjoint budgets never fight over a global knob.
                lttf_parallel::set_thread_threads_override(threads);
                batcher_loop(model, cfg, rx, depth2, stats2, replica)
            })
            .expect("spawn batcher thread");
        Engine { tx, depth, stats, worker }
    }

    /// A submission handle for connection threads.
    pub fn submitter(&self) -> Submitter {
        Submitter {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Stop accepting work, drain everything already queued (each queued
    /// request still gets a reply), join the batcher, and return the
    /// latency summary of the run.
    ///
    /// All [`Submitter`] clones must be dropped first, or this blocks
    /// until they are.
    pub fn shutdown(self) -> LatencySummary {
        drop(self.tx);
        self.worker.join().expect("batcher thread panicked");
        self.stats.summary()
    }
}

/// Answer every job whose deadline is already past `now` with a reject
/// and return the ones still worth serving.
fn reject_expired(jobs: Vec<Job>, now: Instant) -> Vec<Job> {
    let (live, expired): (Vec<Job>, Vec<Job>) = jobs
        .into_iter()
        .partition(|j| j.deadline.is_none_or(|dl| now < dl));
    for job in expired {
        lttf_obs::counter!("serve.deadline_expired", 1);
        if job.trace_id != 0 {
            trace::async_end(req_names().req, job.trace_id);
        }
        let _ = job.reply.send(Err("deadline exceeded".to_string()));
    }
    live
}

fn batcher_loop(
    model: Arc<LoadedModel>,
    cfg: BatchConfig,
    rx: Receiver<Job>,
    depth: Arc<AtomicUsize>,
    stats: Arc<ServeStats>,
    replica: usize,
) {
    let wait = Duration::from_millis(cfg.max_wait_ms);
    // Outer recv blocks until work arrives or every sender is gone.
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        let flush_at = Instant::now() + wait;
        // Work-conserving: take what is already queued before looking at
        // the timer, so a backlog fills the batch with no wait and a
        // passed flush time never leaves queued jobs behind. Only an empty
        // queue waits, and only until `flush_at`.
        while jobs.len() < cfg.max_batch {
            let job = match rx.try_recv() {
                Ok(job) => job,
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    let left = flush_at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    match rx.recv_timeout(left) {
                        Ok(job) => job,
                        Err(_) => break,
                    }
                }
            };
            jobs.push(job);
        }
        let d = depth
            .fetch_sub(jobs.len(), Ordering::Relaxed)
            .saturating_sub(jobs.len());
        lttf_obs::gauge!("serve.queue_depth", d as u64);

        for job in &jobs {
            if job.trace_id != 0 {
                trace::async_instant(req_names().dequeue, job.trace_id);
            }
        }
        // Deadlines are re-checked on the fully assembled batch, with a
        // timestamp taken *after* any `max_wait_ms` accumulation window:
        // a request whose deadline passed while it sat in the queue — or
        // while its batch lingered for arrivals — is rejected rather
        // than served late, and its spot in the forward pass goes to
        // requests that can still make theirs.
        // `dequeued` splits each request's life into queue wait (submit
        // -> batch assembled) and everything after; the forward duration
        // is the batch's shared service time.
        let dequeued = Instant::now();
        let live = reject_expired(jobs, dequeued);
        if live.is_empty() {
            continue;
        }

        // Cost attribution: process-CPU and allocation deltas around the
        // forward, amortized per request. Process (not thread) CPU time,
        // because the pool workers do the compute while this batcher
        // thread mostly sleeps; under concurrent replicas both deltas
        // over-attribute — an upper bound, documented in DESIGN.md §13.
        // Both read 0 when telemetry is compiled out.
        let cpu_before = lttf_obs::cputime::process_cpu_ns();
        let alloc_before = lttf_obs::alloc::alloc_bytes_total();
        let forward = {
            let _span = lttf_obs::span!("serve.batch");
            lttf_obs::gauge!("serve.batch_size", live.len() as u64);
            let windows: Vec<&Window> = live.iter().map(|j| &j.window).collect();
            // A panicking forward (say, a window prepared by an older
            // generation with another `c_in`) fails this batch only. The
            // model is safe to reuse after the unwind: the forward takes
            // `&self` and builds a fresh `Graph` per call, so no state it
            // was writing outlives the panic.
            panic::catch_unwind(AssertUnwindSafe(|| model.forecast_rows(&windows)))
        };
        let Ok(rows) = forward else {
            stats.record_forward_panic();
            for job in live {
                if job.trace_id != 0 {
                    trace::async_end(req_names().req, job.trace_id);
                }
                let _ = job.reply.send(Err("internal error: forward panicked".to_string()));
            }
            continue;
        };
        let service_ns = dequeued.elapsed().as_nanos() as u64;
        let n = live.len() as u64;
        let cpu_ns_per_req =
            lttf_obs::cputime::process_cpu_ns().saturating_sub(cpu_before) / n;
        let alloc_bytes_per_req =
            lttf_obs::alloc::alloc_bytes_total().saturating_sub(alloc_before) / n;
        let samples: Vec<(u64, u64)> = live
            .iter()
            .map(|job| {
                let queue_ns = dequeued.duration_since(job.enqueued).as_nanos() as u64;
                (job.enqueued.elapsed().as_nanos() as u64, queue_ns)
            })
            .collect();
        stats.record_batch(replica, &samples, service_ns, cpu_ns_per_req, alloc_bytes_per_req);
        for (job, row) in live.into_iter().zip(rows) {
            if job.trace_id != 0 {
                trace::async_instant(req_names().forward, job.trace_id);
                trace::async_end(req_names().req, job.trace_id);
            }
            // A receiver that gave up (disconnected client) is fine.
            let _ = job.reply.send(Ok(row));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{tiny_model, tiny_model_with_c_in};
    use lttf_tensor::{Rng, Tensor};

    fn raw_window(model: &LoadedModel, seed: u64) -> Vec<f32> {
        Tensor::randn(&[model.window_len()], &mut Rng::seed(seed))
            .data()
            .to_vec()
    }

    #[test]
    fn serves_and_matches_direct_forward() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
        let sub = engine.submitter();
        let raw = raw_window(&model, 1);
        let w = model.make_window(&raw, 0, 60).unwrap();
        let rx = sub.submit(w, None).unwrap();
        let got = rx.recv().unwrap().unwrap();
        assert_eq!(got, model.forecast_one(&raw, 0, 60).unwrap());
        drop(sub);
        let summary = engine.shutdown();
        assert_eq!(summary.count, 1);
        assert!(summary.p50_ns > 0);
    }

    #[test]
    fn batches_accumulate_up_to_max_batch() {
        let model = Arc::new(tiny_model());
        // Long wait so concurrent submissions coalesce into one batch.
        let engine = Engine::start(
            Arc::clone(&model),
            BatchConfig {
                max_batch: 4,
                max_wait_ms: 200,
                queue_cap: 16,
            },
        );
        let sub = engine.submitter();
        let raws: Vec<Vec<f32>> = (0..4).map(|i| raw_window(&model, i)).collect();
        let rxs: Vec<_> = raws
            .iter()
            .map(|raw| {
                let w = model.make_window(raw, 0, 60).unwrap();
                sub.submit(w, None).unwrap()
            })
            .collect();
        for (raw, rx) in raws.iter().zip(rxs) {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got, model.forecast_one(raw, 0, 60).unwrap());
        }
        drop(sub);
        assert_eq!(engine.shutdown().count, 4);
    }

    #[test]
    fn queue_full_rejects_instead_of_blocking() {
        let model = Arc::new(tiny_model());
        // A capacity-1 queue whose receiver the test holds: nothing
        // drains it, so the second submit finds it full by construction.
        let (tx, rx) = mpsc::sync_channel(1);
        let depth = Arc::new(AtomicUsize::new(0));
        let stats = ServeStats::new(1);
        let sub = Submitter {
            tx,
            depth: Arc::clone(&depth),
            stats: Arc::clone(&stats),
        };
        let raw = raw_window(&model, 0);
        let window = || model.make_window(&raw, 0, 60).unwrap();
        let accepted = sub.submit(window(), None).expect("an empty queue accepts");
        assert_eq!(sub.submit(window(), None).unwrap_err(), Reject::QueueFull);
        assert_eq!(sub.queue_depth(), 1, "a refused submit is not queued");

        // Accepted work is still answered: drop the only sender and let a
        // batcher drain the queue on this thread.
        drop(sub);
        let cfg = BatchConfig::default();
        batcher_loop(Arc::clone(&model), cfg, rx, depth, stats, 0);
        let got = accepted.recv().unwrap().unwrap();
        assert_eq!(got, model.forecast_one(&raw, 0, 60).unwrap());
    }

    /// Queue `n` jobs on a channel whose receiver the test holds, drop
    /// the only sender, and drain the backlog with `batcher_loop` on this
    /// thread under `max_wait_ms: 0`. Checks every reply against the
    /// direct forward and returns the drain's stats.
    fn drain_backlog(n: usize, max_batch: usize) -> Arc<ServeStats> {
        let model = Arc::new(tiny_model());
        let (tx, rx) = mpsc::sync_channel(n);
        let depth = Arc::new(AtomicUsize::new(0));
        let stats = ServeStats::new(1);
        let sub = Submitter {
            tx,
            depth: Arc::clone(&depth),
            stats: Arc::clone(&stats),
        };
        let raws: Vec<Vec<f32>> = (0..n as u64).map(|i| raw_window(&model, 20 + i)).collect();
        let rxs: Vec<_> = raws
            .iter()
            .map(|raw| sub.submit(model.make_window(raw, 0, 60).unwrap(), None).unwrap())
            .collect();
        drop(sub);
        let cfg = BatchConfig {
            max_batch,
            max_wait_ms: 0,
            queue_cap: n,
        };
        batcher_loop(Arc::clone(&model), cfg, rx, depth, Arc::clone(&stats), 0);
        for (raw, rx) in raws.iter().zip(rxs) {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got, model.forecast_one(raw, 0, 60).unwrap());
        }
        stats
    }

    #[test]
    fn queued_jobs_join_the_batch_without_a_timer() {
        let stats = drain_backlog(5, 8);
        let w = stats.windowed();
        assert_eq!(w.service.count(), 1, "one batch");
        assert_eq!(w.total.count(), 5, "serving all five requests");
        assert_eq!(stats.replica_served(0), 5);
    }

    #[test]
    fn a_backlog_splits_into_full_batches() {
        let stats = drain_backlog(5, 2);
        let w = stats.windowed();
        assert_eq!(w.service.count(), 3, "batches of 2, 2 and 1");
        assert_eq!(w.total.count(), 5);
    }

    #[test]
    fn panicking_forward_fails_its_batch_not_the_replica() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
        let sub = engine.submitter();
        // A window prepared by a model with another `c_in`, as a reload
        // to a differently shaped checkpoint can resubmit: this model's
        // forward panics on it.
        let other = tiny_model_with_c_in(3);
        let foreign = other.make_window(&raw_window(&other, 1), 0, 60).unwrap();
        let err = sub.submit(foreign, None).unwrap().recv().unwrap().unwrap_err();
        assert_eq!(err, "internal error: forward panicked");

        // The replica survives and serves the next window bit-exact.
        let raw = raw_window(&model, 2);
        let w = model.make_window(&raw, 0, 60).unwrap();
        let got = sub.submit(w, None).unwrap().recv().unwrap().unwrap();
        assert_eq!(got, model.forecast_one(&raw, 0, 60).unwrap());

        let stats = Arc::clone(sub.stats());
        drop(sub);
        assert_eq!(engine.shutdown().count, 1, "the failed batch is not served");
        assert_eq!(stats.forward_panics(), 1);
    }

    #[test]
    fn expired_deadline_gets_reject_reply() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
        let sub = engine.submitter();
        let w = model.make_window(&raw_window(&model, 3), 0, 60).unwrap();
        // A deadline already in the past when the batcher picks it up.
        let rx = sub.submit(w, Some(Instant::now())).unwrap();
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        drop(sub);
        // Expired requests never count toward served latencies.
        assert_eq!(engine.shutdown().count, 0);
    }

    #[test]
    fn deadline_expiring_during_batch_wait_is_rejected() {
        let model = Arc::new(tiny_model());
        // A long flush window and a short deadline: the job is dequeued
        // immediately (it is the batch's first member, deadline still in
        // the future), but its deadline expires while the batch waits out
        // `max_wait_ms`. The post-assembly recheck must reject it instead
        // of serving it late.
        let engine = Engine::start(
            Arc::clone(&model),
            BatchConfig {
                max_batch: 8,
                max_wait_ms: 300,
                queue_cap: 8,
            },
        );
        let sub = engine.submitter();
        let w = model.make_window(&raw_window(&model, 4), 0, 60).unwrap();
        let rx = sub
            .submit(w, Some(Instant::now() + Duration::from_millis(30)))
            .unwrap();
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        drop(sub);
        assert_eq!(engine.shutdown().count, 0, "late requests must not be served");
    }

    #[test]
    fn traced_request_exports_connected_async_slice() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(Arc::clone(&model), BatchConfig::default());
        let sub = engine.submitter();
        trace::set_enabled(true);
        let w = model.make_window(&raw_window(&model, 9), 0, 60).unwrap();
        let rx = sub.submit(w, None).unwrap();
        rx.recv().unwrap().unwrap();
        trace::set_enabled(false);
        drop(sub);
        engine.shutdown();

        let e = trace::export_chrome();
        let summary = trace::validate_chrome(&e.json).expect("valid trace");
        assert!(summary.async_slices >= 1, "{}", e.json);
        assert!(e.json.contains("\"name\":\"serve.req\""), "{}", e.json);
        assert!(e.json.contains("\"name\":\"serve.req.dequeue\""), "{}", e.json);
        assert!(e.json.contains("\"cat\":\"req\""), "{}", e.json);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let model = Arc::new(tiny_model());
        let engine = Engine::start(
            Arc::clone(&model),
            BatchConfig {
                max_batch: 2,
                max_wait_ms: 50,
                queue_cap: 32,
            },
        );
        let sub = engine.submitter();
        let raws: Vec<Vec<f32>> = (0..6).map(|i| raw_window(&model, 10 + i)).collect();
        let rxs: Vec<_> = raws
            .iter()
            .map(|raw| {
                let w = model.make_window(raw, 0, 60).unwrap();
                sub.submit(w, None).unwrap()
            })
            .collect();
        // Drop every sender immediately: the batcher must still answer
        // all six queued requests before exiting.
        drop(sub);
        let summary = engine.shutdown();
        assert_eq!(summary.count, 6);
        for (raw, rx) in raws.iter().zip(rxs) {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got, model.forecast_one(raw, 0, 60).unwrap());
        }
    }
}
