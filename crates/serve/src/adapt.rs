//! Online test-time adaptation: fine-tune a *copy* of the live model on
//! recent stream data, publish it only if the update stays healthy.
//!
//! The design rule is that the serving parameters are never mutated in
//! place. The adapter clones the live model
//! ([`crate::LoadedModel::clone_trained`] — rebuild from config, then
//! bit-exact [`lttf_nn::ParamSet::restore`]), runs a few small-LR Adam
//! steps on examples harvested from open sessions, and scans every
//! gradient and the resulting parameters with the
//! [`lttf_obs::Watchdog`]. A NaN loss, exploding gradient, or non-finite
//! post-step parameter makes [`fine_tune`] return `Err` and the tuned
//! copy is simply dropped — "rollback" is the absence of a publish, so
//! the live model is trivially bit-identical to its pre-adapt snapshot.
//! A healthy update is wrapped via [`crate::LoadedModel::with_model`]
//! and swapped in as a new generation through the same path `reload`
//! uses; in-flight requests drain against the old generation exactly as
//! they do across a hot reload.
//!
//! Adaptation is *triggered*, not periodic: the server's adapter thread
//! polls the [`crate::DriftMonitor`] and only fine-tunes while the
//! monitor reports an input-distribution alert (see DESIGN.md §12).
//! This module holds the pure, thread-free pieces — config, the bounded
//! example buffer, shared counters, and the tune step — so the whole
//! rollback contract is unit-testable without a TCP server.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use lttf_autograd::Graph;
use lttf_data::Batch;
use lttf_eval::TrainedModel;
use lttf_nn::{Adam, Fwd, GradClip, Optimizer};
use lttf_obs::Watchdog;
use lttf_tensor::Tensor;

use crate::registry::LoadedModel;

/// Online-adaptation knobs. Disabled by default: an adapted server is
/// deliberately opt-in because it trades bit-reproducibility for
/// accuracy under drift.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Master switch; when false no adapter thread is spawned and the
    /// serving path is bit-identical to a session-less server.
    pub enabled: bool,
    /// Adam learning rate for the fine-tune steps (small on purpose —
    /// test-time adaptation nudges, it does not retrain).
    pub lr: f32,
    /// Gradient steps per adaptation round.
    pub steps: usize,
    /// Most recent examples stacked into each step's mini-batch.
    pub batch: usize,
    /// Bounded example buffer capacity (oldest dropped first).
    pub buffer: usize,
    /// Examples required before a round may start.
    pub min_examples: usize,
    /// How often the adapter thread polls the drift monitor.
    pub interval_ms: u64,
    /// Watchdog threshold: a single parameter gradient's L2 norm above
    /// this aborts the round (NaN/Inf always abort).
    pub max_grad_norm: f64,
    /// Global-norm gradient clip applied before each optimizer step.
    pub clip: f32,
    /// Fault injection for tests: poison the tuned copy with a NaN after
    /// the final step, so the health gate and rollback path are
    /// exercised end to end. Never set outside tests.
    pub inject_nan: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            enabled: false,
            lr: 1e-3,
            steps: 4,
            batch: 8,
            buffer: 64,
            min_examples: 8,
            interval_ms: 500,
            max_grad_norm: 1e4,
            clip: 5.0,
            inject_nan: false,
        }
    }
}

/// One supervised example harvested from a session: `lx + ly` raw
/// trailing rows plus the stream timing needed to rebuild calendar
/// marks.
#[derive(Clone, Debug)]
pub struct Example {
    /// Flattened `(lx + ly) * c_in` raw values.
    pub values: Vec<f32>,
    /// Unix seconds of the example's first row.
    pub t0: i64,
    /// Seconds between rows.
    pub dt: i64,
}

/// Bounded FIFO of recent examples, shared between connection threads
/// (producers) and the adapter thread (consumer).
pub struct ExampleBuffer {
    cap: usize,
    inner: Mutex<VecDeque<Example>>,
}

impl ExampleBuffer {
    /// An empty buffer retaining at most `cap` examples.
    pub fn new(cap: usize) -> ExampleBuffer {
        ExampleBuffer {
            cap: cap.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Append an example, evicting the oldest beyond capacity.
    pub fn push(&self, ex: Example) {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(ex);
    }

    /// Examples currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone the most recent `n` examples, newest last.
    pub fn recent(&self, n: usize) -> Vec<Example> {
        let q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let skip = q.len().saturating_sub(n);
        q.iter().skip(skip).cloned().collect()
    }
}

/// Where the adapter currently is in its cycle; the `lttf_adapt_state`
/// series and the watch dashboard render the label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdaptState {
    /// Adaptation disabled (no adapter thread exists).
    #[default]
    Off,
    /// Waiting for a drift alert or for enough examples.
    Idle,
    /// A fine-tune round is running on a cloned model.
    Adapting,
    /// The last round passed its health checks and was published.
    Published,
    /// The last round tripped the watchdog and was discarded.
    RolledBack,
}

impl AdaptState {
    /// Stable snake_case label used on the wire and in dashboards.
    pub fn label(self) -> &'static str {
        match self {
            AdaptState::Off => "off",
            AdaptState::Idle => "idle",
            AdaptState::Adapting => "adapting",
            AdaptState::Published => "published",
            AdaptState::RolledBack => "rolled_back",
        }
    }

    fn from_u8(v: u8) -> AdaptState {
        match v {
            1 => AdaptState::Idle,
            2 => AdaptState::Adapting,
            3 => AdaptState::Published,
            4 => AdaptState::RolledBack,
            _ => AdaptState::Off,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            AdaptState::Off => 0,
            AdaptState::Idle => 1,
            AdaptState::Adapting => 2,
            AdaptState::Published => 3,
            AdaptState::RolledBack => 4,
        }
    }
}

/// Lock-free adapter telemetry shared between the adapter thread and
/// the metrics render path.
#[derive(Default)]
pub struct AdaptShared {
    state: AtomicU8,
    steps: AtomicU64,
    rollbacks: AtomicU64,
    publishes: AtomicU64,
    cpu_ns: AtomicU64,
    alloc_bytes: AtomicU64,
}

impl AdaptShared {
    /// Fresh telemetry in the [`AdaptState::Off`] state.
    pub fn new() -> AdaptShared {
        AdaptShared::default()
    }

    /// Record a state transition.
    pub fn set_state(&self, s: AdaptState) {
        self.state.store(s.as_u8(), Ordering::Relaxed);
    }

    /// The current state.
    pub fn state(&self) -> AdaptState {
        AdaptState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Count `n` completed gradient steps.
    pub fn add_steps(&self, n: u64) {
        self.steps.fetch_add(n, Ordering::Relaxed);
        lttf_obs::counter!("serve.adapt.steps", n);
    }

    /// Count a discarded (rolled-back) round.
    pub fn add_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        lttf_obs::counter!("serve.adapt.rollbacks", 1);
        self.set_state(AdaptState::RolledBack);
    }

    /// Count a published round.
    pub fn add_publish(&self) {
        self.publishes.fetch_add(1, Ordering::Relaxed);
        lttf_obs::counter!("serve.adapt.publishes", 1);
        self.set_state(AdaptState::Published);
    }

    /// Lifetime gradient steps.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Lifetime rolled-back rounds.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    /// Lifetime published rounds.
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Charge one adaptation round's resource cost (process-CPU delta
    /// and allocation churn around the round; see the adapter loop).
    pub fn add_cost(&self, cpu_ns: u64, alloc_bytes: u64) {
        self.cpu_ns.fetch_add(cpu_ns, Ordering::Relaxed);
        self.alloc_bytes.fetch_add(alloc_bytes, Ordering::Relaxed);
    }

    /// Lifetime process-CPU nanoseconds spent in adaptation rounds.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_ns.load(Ordering::Relaxed)
    }

    /// Lifetime heap bytes allocated during adaptation rounds.
    pub fn alloc_bytes(&self) -> u64 {
        self.alloc_bytes.load(Ordering::Relaxed)
    }
}

/// Stack per-example batches into one mini-batch along the batch axis.
fn concat_batches(parts: &[Batch]) -> Batch {
    assert!(!parts.is_empty(), "empty adaptation mini-batch");
    let cat = |f: fn(&Batch) -> &Tensor| {
        let ts: Vec<&Tensor> = parts.iter().map(|b| f(b)).collect();
        Tensor::concat(&ts, 0)
    };
    Batch {
        x: cat(|b| &b.x),
        x_mark: cat(|b| &b.x_mark),
        dec: cat(|b| &b.dec),
        dec_mark: cat(|b| &b.dec_mark),
        y: cat(|b| &b.y),
    }
}

/// Run one adaptation round: clone the live model, take
/// [`AdaptConfig::steps`] clipped Adam steps on the most recent
/// examples, and health-check every step. Returns the tuned copy and
/// the final training loss on success; returns `Err` (and the caller
/// publishes nothing — the rollback) when the watchdog trips.
///
/// `seed` varies dropout across rounds; a fixed seed makes the whole
/// round deterministic for tests.
pub fn fine_tune(
    live: &LoadedModel,
    examples: &[Example],
    cfg: &AdaptConfig,
    seed: u64,
    shared: &AdaptShared,
) -> Result<(TrainedModel, f32), String> {
    assert!(!examples.is_empty(), "fine_tune needs at least one example");
    let take = examples.len().saturating_sub(cfg.batch.max(1));
    let parts: Vec<Batch> = examples[take..]
        .iter()
        .map(|ex| live.make_train_batch(&ex.values, ex.t0, ex.dt))
        .collect::<Result<_, _>>()?;
    let batch = concat_batches(&parts);

    let mut tuned = live.clone_trained();
    let mut opt = Adam::new(cfg.lr);
    let clip = (cfg.clip > 0.0).then(|| GradClip::new(cfg.clip));
    let dog = Watchdog {
        max_grad_norm: cfg.max_grad_norm,
    };
    let mut last_loss = f32::NAN;
    for step in 0..cfg.steps.max(1) {
        let g = Graph::new();
        let cx = Fwd::new(&g, tuned.params(), true, seed.wrapping_add(step as u64));
        let loss = tuned.batch_loss(&cx, &batch);
        last_loss = loss.value().item();
        if let Some(d) = dog.check_scalar("adapt loss", last_loss as f64) {
            return Err(d.to_string());
        }
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        let ps = tuned.params_mut();
        ps.zero_grad();
        ps.apply_grads(collected);
        for (name, _value_h, grad_h) in ps.health_scan() {
            if let Some(d) = dog.check(name, &grad_h) {
                return Err(d.to_string());
            }
        }
        if let Some(c) = &clip {
            c.apply(ps);
        }
        opt.step(ps);
        shared.add_steps(1);
    }
    if cfg.inject_nan {
        let ps = tuned.params_mut();
        let id = ps.ids().next().expect("model has parameters");
        ps.value_mut(id).data_mut()[0] = f32::NAN;
    }
    // Final gate: the *parameters* we would publish must be finite. This
    // is what catches the injected fault — and any real post-step
    // overflow the per-step gradient scan missed.
    let ps = tuned.params();
    for (name, value_h, _grad_h) in ps.health_scan() {
        if value_h.non_finite() {
            return Err(format!("divergence in {name}: non-finite parameters"));
        }
    }
    Ok((tuned, last_loss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tiny_model;
    use lttf_tensor::Rng;

    fn examples(m: &LoadedModel, n: usize, seed: u64) -> Vec<Example> {
        let cfg = m.cfg();
        let rows = (cfg.lx + cfg.ly) * cfg.c_in;
        let mut rng = Rng::seed(seed);
        (0..n)
            .map(|i| Example {
                values: Tensor::randn(&[rows], &mut rng)
                    .mul_scalar(3.0)
                    .add_scalar(5.0)
                    .data()
                    .to_vec(),
                t0: 1_700_000_000 + (i as i64) * 3600,
                dt: 3600,
            })
            .collect()
    }

    #[test]
    fn buffer_is_bounded_fifo() {
        let buf = ExampleBuffer::new(3);
        assert!(buf.is_empty());
        for i in 0..5 {
            buf.push(Example { values: vec![i as f32], t0: i, dt: 1 });
        }
        assert_eq!(buf.len(), 3);
        let recent = buf.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].values, [3.0]);
        assert_eq!(recent[1].values, [4.0]);
        assert_eq!(buf.recent(10).len(), 3, "recent caps at what exists");
    }

    #[test]
    fn fine_tune_moves_params_and_stays_finite() {
        let live = tiny_model();
        let before = live.params_snapshot();
        let shared = AdaptShared::new();
        let cfg = AdaptConfig { steps: 2, ..Default::default() };
        let exs = examples(&live, 4, 7);
        let (tuned, loss) = fine_tune(&live, &exs, &cfg, 11, &shared).expect("healthy round");
        assert!(loss.is_finite());
        assert_eq!(shared.steps(), 2);
        // The tuned copy moved; the live model did not.
        let after_live = live.params_snapshot();
        let after_tuned = tuned.params().snapshot();
        for (b, a) in before.iter().zip(&after_live) {
            assert_eq!(b.data(), a.data(), "live params must never move");
        }
        let moved = before
            .iter()
            .zip(&after_tuned)
            .any(|(b, a)| b.data() != a.data());
        assert!(moved, "fine-tune left every parameter untouched");
    }

    #[test]
    fn injected_nan_is_caught_and_live_params_stay_bit_identical() {
        let live = tiny_model();
        let before = live.params_snapshot();
        let shared = AdaptShared::new();
        let cfg = AdaptConfig { steps: 1, inject_nan: true, ..Default::default() };
        let err = match fine_tune(&live, &examples(&live, 4, 7), &cfg, 11, &shared) {
            Ok(_) => panic!("injected NaN must not survive the health gate"),
            Err(e) => e,
        };
        assert!(err.contains("non-finite"), "{err}");
        // Rollback is the absence of a publish: live params untouched.
        for (b, a) in before.iter().zip(&live.params_snapshot()) {
            assert_eq!(b.data(), a.data());
        }
    }

    #[test]
    fn fixed_seed_makes_rounds_deterministic() {
        let live = tiny_model();
        let shared = AdaptShared::new();
        let cfg = AdaptConfig { steps: 2, ..Default::default() };
        let exs = examples(&live, 4, 7);
        let (a, la) = fine_tune(&live, &exs, &cfg, 5, &shared).unwrap();
        let (b, lb) = fine_tune(&live, &exs, &cfg, 5, &shared).unwrap();
        assert_eq!(la.to_bits(), lb.to_bits());
        for (x, y) in a.params().snapshot().iter().zip(&b.params().snapshot()) {
            assert_eq!(x.data(), y.data(), "same seed, same round, same params");
        }
    }
}
