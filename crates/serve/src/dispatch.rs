//! The replica pool and its work-distributing dispatcher.
//!
//! One served model is backed by `N` [`Engine`]s — replicas — each with
//! its own bounded queue and batcher thread, optionally pinned to a
//! disjoint share of the `LTTF_THREADS` budget. A [`ReplicaPool`] routes
//! each request to one replica by [`Policy`]:
//!
//! * [`Policy::RoundRobin`] — a shared counter, starting at a
//!   seed-derived offset, so the assignment sequence is deterministic
//!   under a seed;
//! * [`Policy::LeastQueueDepth`] — the replica with the fewest queued
//!   requests, ties broken by the lowest index (also deterministic given
//!   the observed depths).
//!
//! Routing never affects results: every replica runs the same model and
//! the forward path is row-independent, so a forecast is bit-identical
//! no matter which replica (or batch) served it — the replicated e2e
//! tests pin this down across 1/2/4 replicas.
//!
//! When the chosen replica's queue is full the dispatcher tries the
//! remaining replicas before giving up, so a pool only reports
//! [`Reject::QueueFull`] once **aggregate** capacity is exhausted.
//!
//! A pool is also the unit of hot reload: [`ReplicaPool::drain`] takes
//! the submitters away (new work gets [`Reject::Closed`] and is retried
//! by the front end against the freshly swapped-in generation), lets
//! every queued job finish, and joins the batchers. All replicas share
//! one latency accumulator, so per-model metrics aggregate for free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::drift::{DriftConfig, DriftMonitor};
use crate::engine::{BatchConfig, Engine, Reject, Reply, Submitter};
use crate::registry::{LoadedModel, Window};
use crate::stats::{LatencySummary, ServeStats};

/// How the dispatcher picks a replica for each request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Cycle through replicas from a seed-derived starting offset.
    RoundRobin,
    /// Pick the replica with the fewest queued requests (ties go to the
    /// lowest replica index).
    LeastQueueDepth,
}

impl std::str::FromStr for Policy {
    type Err = String;
    fn from_str(s: &str) -> Result<Policy, String> {
        match s {
            "rr" | "round-robin" => Ok(Policy::RoundRobin),
            "lqd" | "least-queue-depth" => Ok(Policy::LeastQueueDepth),
            other => Err(format!("unknown policy '{other}' (expected rr|lqd)")),
        }
    }
}

/// Replication knobs for one model's pool.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Per-replica micro-batching knobs (each replica gets its own
    /// bounded queue of `batch.queue_cap`, so aggregate buffering scales
    /// with the replica count).
    pub batch: BatchConfig,
    /// Number of engines serving this model.
    pub replicas: usize,
    /// How requests are distributed over the replicas.
    pub policy: Policy,
    /// Thread budget for each replica's forward passes (`None` = inherit
    /// `LTTF_THREADS`). Disjoint budgets mean replicas never oversubscribe
    /// the machine: e.g. 4 replicas x 2 threads on an 8-core host.
    pub threads_per_replica: Option<usize>,
    /// Seeds the round-robin starting offset, making the assignment
    /// sequence reproducible run to run.
    pub seed: u64,
    /// Drift-monitor knobs for this model (window, threshold, minimum
    /// sample count).
    pub drift: DriftConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            batch: BatchConfig::default(),
            replicas: 1,
            policy: Policy::RoundRobin,
            threads_per_replica: None,
            seed: 0,
            drift: DriftConfig::default(),
        }
    }
}

/// `N` engines for one model behind a work-distributing dispatcher.
pub struct ReplicaPool {
    /// Live submission handles, one per replica. Emptied by [`drain`];
    /// dispatch takes a read lock only long enough to clone one handle.
    ///
    /// [`drain`]: ReplicaPool::drain
    submitters: RwLock<Vec<Submitter>>,
    /// The engines themselves, taken (once) by [`ReplicaPool::drain`].
    engines: Mutex<Vec<Engine>>,
    /// Round-robin cursor.
    next: AtomicUsize,
    policy: Policy,
    /// Live histogram-backed stats shared by every replica of this pool.
    stats: Arc<ServeStats>,
    replicas: usize,
}

impl ReplicaPool {
    /// Spawn `cfg.replicas` engines for `model`. Batcher threads are
    /// named `lttf-batch-<name>-<i>` so traces and stack dumps read well.
    pub fn start(model: Arc<LoadedModel>, cfg: &PoolConfig, name: &str) -> ReplicaPool {
        assert!(cfg.replicas >= 1, "a pool needs at least one replica");
        let stats = ServeStats::new(cfg.replicas);
        let mut engines = Vec::with_capacity(cfg.replicas);
        let mut submitters = Vec::with_capacity(cfg.replicas);
        for i in 0..cfg.replicas {
            let engine = Engine::start_with(
                Arc::clone(&model),
                cfg.batch,
                Arc::clone(&stats),
                i,
                cfg.threads_per_replica,
                &format!("lttf-batch-{name}-{i}"),
            );
            submitters.push(engine.submitter());
            engines.push(engine);
        }
        ReplicaPool {
            submitters: RwLock::new(submitters),
            engines: Mutex::new(engines),
            next: AtomicUsize::new((cfg.seed as usize) % cfg.replicas),
            policy: cfg.policy,
            stats,
            replicas: cfg.replicas,
        }
    }

    /// Route one prepared window to a replica. Tries every replica in
    /// policy order before reporting [`Reject::QueueFull`]; reports
    /// [`Reject::Closed`] once the pool has been [drained]. Rejections
    /// hand the window back so the caller can retry it elsewhere (the
    /// front end resubmits against the new generation after a reload)
    /// without re-preparing the tensors.
    ///
    /// [drained]: ReplicaPool::drain
    pub fn submit(
        &self,
        window: Window,
        deadline: Option<Instant>,
    ) -> Result<Receiver<Reply>, (Window, Reject)> {
        // Clone the candidate handles out and release the lock before
        // submitting: a concurrent drain must never wait on a send.
        let subs: Vec<Submitter> = {
            let guard = self.submitters.read().unwrap_or_else(|e| e.into_inner());
            if guard.is_empty() {
                return Err((window, Reject::Closed));
            }
            guard.clone()
        };
        let n = subs.len();
        let start = match self.policy {
            Policy::RoundRobin => self.next.fetch_add(1, Ordering::Relaxed) % n,
            Policy::LeastQueueDepth => {
                let depths: Vec<usize> = subs.iter().map(Submitter::queue_depth).collect();
                let mut best = 0;
                for (i, &d) in depths.iter().enumerate() {
                    if d < depths[best] {
                        best = i;
                    }
                }
                best
            }
        };
        let mut window = window;
        for off in 0..n {
            let sub = &subs[(start + off) % n];
            match sub.submit_window(window, deadline) {
                Ok(rx) => return Ok(rx),
                // This replica's queue is full; spill to the next one.
                // Aggregate capacity is only exhausted when all are.
                Err((w, Reject::QueueFull)) => {
                    lttf_obs::counter!("serve.dispatch_spill", 1);
                    window = w;
                }
                Err((w, Reject::Closed)) => return Err((w, Reject::Closed)),
            }
        }
        Err((window, Reject::QueueFull))
    }

    /// Requests queued across all replicas (approximate; for admission
    /// control and monitoring).
    pub fn queue_depth(&self) -> usize {
        self.submitters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(Submitter::queue_depth)
            .sum()
    }

    /// Per-replica queue depths, by replica index (empty once drained).
    pub fn replica_depths(&self) -> Vec<usize> {
        self.submitters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(Submitter::queue_depth)
            .collect()
    }

    /// Number of replicas this pool was started with.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Live latency summary aggregated over every replica (from the
    /// lifetime histogram: count/min/max/mean exact, quantiles within
    /// 3.125%).
    pub fn latency(&self) -> LatencySummary {
        self.stats.summary()
    }

    /// The pool's shared live stats: lifetime + trailing-window
    /// histograms and per-replica served counters.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Stop accepting work, let every queued job finish (each still gets
    /// its reply), join the batchers, and return the pool's aggregate
    /// latency summary. Idempotent: a second call just returns the
    /// summary again.
    ///
    /// In-flight submissions racing this call are safe either way: a
    /// submit that lands before the drain is answered by the draining
    /// batcher; one that lands after sees [`Reject::Closed`] and the
    /// front end retries it against the current generation.
    pub fn drain(&self) -> LatencySummary {
        self.submitters
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        let engines: Vec<Engine> = std::mem::take(
            &mut *self.engines.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for engine in engines {
            engine.shutdown();
        }
        self.latency()
    }
}

/// One generation of one served model: the loaded checkpoint, its
/// replica pool, and the generation number stamped into every reply.
pub struct ModelEntry {
    name: String,
    generation: u64,
    model: Arc<LoadedModel>,
    pool: ReplicaPool,
    drift: DriftMonitor,
    /// True when this generation came from the online adapter rather
    /// than a checkpoint load; stamped as `"adapted"` in push replies.
    adapted: bool,
}

impl ModelEntry {
    /// Load `model` behind a fresh replica pool as generation `gen`.
    pub fn start(name: &str, generation: u64, model: Arc<LoadedModel>, cfg: &PoolConfig) -> ModelEntry {
        Self::start_tagged(name, generation, model, cfg, false)
    }

    /// [`ModelEntry::start`] with the adapted provenance tag set
    /// explicitly — the online adapter publishes with `adapted = true`.
    pub fn start_tagged(
        name: &str,
        generation: u64,
        model: Arc<LoadedModel>,
        cfg: &PoolConfig,
        adapted: bool,
    ) -> ModelEntry {
        let pool = ReplicaPool::start(Arc::clone(&model), cfg, name);
        let drift = DriftMonitor::new(model.profile().cloned(), model.target_col(), cfg.drift);
        ModelEntry {
            name: name.to_string(),
            generation,
            model,
            pool,
            drift,
            adapted,
        }
    }

    /// The registry name requests route on.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generation number, unique per server run and echoed as `gen`
    /// in every forecast reply this entry serves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The loaded checkpoint.
    pub fn model(&self) -> &Arc<LoadedModel> {
        &self.model
    }

    /// The replica pool serving this generation.
    pub fn pool(&self) -> &ReplicaPool {
        &self.pool
    }

    /// The drift monitor watching this model's live inputs. Unavailable
    /// (never alerting) when the checkpoint carried no reference profile.
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// Whether this generation was published by the online adapter
    /// (true) or loaded from a checkpoint (false).
    pub fn adapted(&self) -> bool {
        self.adapted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tiny_model;
    use lttf_tensor::{Rng, Tensor};

    fn pool_cfg(replicas: usize, policy: Policy) -> PoolConfig {
        PoolConfig {
            batch: BatchConfig {
                max_batch: 4,
                max_wait_ms: 2,
                // Roomy: these tests submit faster than the batcher
                // drains and must never hit QueueFull.
                queue_cap: 64,
            },
            replicas,
            policy,
            threads_per_replica: Some(1),
            seed: 42,

            drift: DriftConfig::default(),
        }
    }

    fn raw_windows(model: &LoadedModel, n: usize) -> Vec<Vec<f32>> {
        let mut rng = Rng::seed(17);
        (0..n)
            .map(|_| Tensor::randn(&[model.window_len()], &mut rng).data().to_vec())
            .collect()
    }

    #[test]
    fn replicated_results_are_bit_identical_to_single_engine() {
        let model = Arc::new(tiny_model());
        let raws = raw_windows(&model, 12);
        let expect: Vec<Vec<f32>> = raws
            .iter()
            .map(|r| model.forecast_one(r, 0, 60).unwrap())
            .collect();
        for replicas in [1usize, 2, 4] {
            for policy in [Policy::RoundRobin, Policy::LeastQueueDepth] {
                let pool =
                    ReplicaPool::start(Arc::clone(&model), &pool_cfg(replicas, policy), "t");
                let rxs: Vec<_> = raws
                    .iter()
                    .map(|raw| {
                        let w = model.make_window(raw, 0, 60).unwrap();
                        pool.submit(w, None).unwrap()
                    })
                    .collect();
                for (rx, want) in rxs.into_iter().zip(&expect) {
                    let got = rx.recv().unwrap().unwrap();
                    assert_eq!(
                        &got, want,
                        "replicas={replicas} policy={policy:?} diverged from direct forward"
                    );
                }
                assert_eq!(pool.drain().count, raws.len());
            }
        }
    }

    #[test]
    fn round_robin_spreads_work_and_is_seed_deterministic() {
        let model = Arc::new(tiny_model());
        // max_wait long enough that submissions pile up per replica
        // without being flushed, so queue depths reflect the assignment.
        let cfg = PoolConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait_ms: 500,
                queue_cap: 64,
            },
            replicas: 4,
            policy: Policy::RoundRobin,
            threads_per_replica: Some(1),
            seed: 6, // 6 % 4 = replica 2 first

            drift: DriftConfig::default(),
        };
        let pool = ReplicaPool::start(Arc::clone(&model), &cfg, "t");
        let raws = raw_windows(&model, 8);
        let rxs: Vec<_> = raws
            .iter()
            .map(|raw| {
                let w = model.make_window(raw, 0, 60).unwrap();
                pool.submit(w, None).unwrap()
            })
            .collect();
        // 8 submissions over 4 replicas: exactly 2 queued on each,
        // regardless of the seed-derived starting offset.
        assert_eq!(pool.replica_depths(), vec![2, 2, 2, 2]);
        assert_eq!(pool.queue_depth(), 8);
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        pool.drain();
    }

    #[test]
    fn least_queue_depth_prefers_idle_replicas() {
        let model = Arc::new(tiny_model());
        let cfg = PoolConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait_ms: 500,
                queue_cap: 64,
            },
            replicas: 2,
            policy: Policy::LeastQueueDepth,
            threads_per_replica: Some(1),
            seed: 0,

            drift: DriftConfig::default(),
        };
        let pool = ReplicaPool::start(Arc::clone(&model), &cfg, "t");
        let raws = raw_windows(&model, 6);
        let rxs: Vec<_> = raws
            .iter()
            .map(|raw| {
                let w = model.make_window(raw, 0, 60).unwrap();
                pool.submit(w, None).unwrap()
            })
            .collect();
        // Always picking the shallower queue keeps the two balanced.
        assert_eq!(pool.replica_depths(), vec![3, 3]);
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        pool.drain();
    }

    #[test]
    fn full_replica_spills_to_its_neighbors() {
        let model = Arc::new(tiny_model());
        // Tiny per-replica queues, long flush window: the round-robin
        // target fills up, and further submissions must spill over
        // instead of rejecting while aggregate capacity remains.
        let cfg = PoolConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait_ms: 300,
                queue_cap: 2,
            },
            replicas: 2,
            policy: Policy::RoundRobin,
            threads_per_replica: Some(1),
            seed: 0,

            drift: DriftConfig::default(),
        };
        let pool = ReplicaPool::start(Arc::clone(&model), &cfg, "t");
        let raws = raw_windows(&model, 4);
        let mut rxs = Vec::new();
        let mut accepted = 0;
        for raw in &raws {
            let w = model.make_window(raw, 0, 60).unwrap();
            match pool.submit(w, None) {
                Ok(rx) => {
                    rxs.push(rx);
                    accepted += 1;
                }
                Err((_, Reject::QueueFull)) => {}
                Err((_, other)) => panic!("unexpected reject: {other:?}"),
            }
        }
        // 2 replicas x queue_cap 2 (+ up to one job each already pulled
        // into batch assembly): at least the full aggregate queue
        // capacity must have been accepted.
        assert!(accepted >= 4, "only {accepted} accepted before QueueFull");
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        pool.drain();
    }

    #[test]
    fn drained_pool_rejects_as_closed_and_answers_queued_work() {
        let model = Arc::new(tiny_model());
        let cfg = pool_cfg(2, Policy::RoundRobin);
        let pool = ReplicaPool::start(Arc::clone(&model), &cfg, "t");
        let raws = raw_windows(&model, 6);
        let rxs: Vec<_> = raws
            .iter()
            .map(|raw| {
                let w = model.make_window(raw, 0, 60).unwrap();
                pool.submit(w, None).unwrap()
            })
            .collect();
        let summary = pool.drain();
        assert_eq!(summary.count, 6, "every queued job must be answered");
        for (raw, rx) in raws.iter().zip(rxs) {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got, model.forecast_one(raw, 0, 60).unwrap());
        }
        let w = model.make_window(&raws[0], 0, 60).unwrap();
        assert!(matches!(pool.submit(w, None), Err((_, Reject::Closed))));
        // Idempotent.
        assert_eq!(pool.drain().count, 6);
    }
}
