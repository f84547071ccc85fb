//! The `train_step` workload: one optimizer step is `WindowDataset::batch`
//! → `batch_loss` → `backward` → `collect_grads` → `apply_grads` + Adam,
//! at batch 32 in a fixed seeded batch order.

use std::io;
use std::time::Instant;

use lttf::autograd::Graph;
use lttf::data::{Split, WindowDataset};
use lttf::eval::TrainedModel;
use lttf::nn::{Adam, Fwd, Optimizer};
use lttf::tensor::Rng;

use crate::inputs::{
    canonical_config, sub_seed, Plan, FRACTIONS, MODEL_SEED, TAG_BATCHES, TAG_DROPOUT, TRAIN_BATCH,
};
use crate::meter::{Measured, Meter, Phase};
use crate::metrics::Checks;
use crate::trace::Tracer;
use crate::{affinity, host};

/// Adam learning rate of the workload.
const LR: f32 = 1e-3;
/// The step-time percentile `train_step` reports as `latency_tail_ms`.
/// At about 20 steps a second, a 25-second run holds about 500 steps:
/// tens beyond a p90, a handful beyond a p99.
pub const TAIL: f64 = 0.9;
/// Upper bound on steps per second, sizing the sample buffers.
const MAX_STEPS_PER_S: f64 = 1_000.0;

/// A model, its training windows, and where the batch order stands.
pub struct Trainer {
    model: TrainedModel,
    ds: WindowDataset,
    opt: Adam,
    order: Rng,
    queue: Vec<Vec<usize>>,
    dropout_seed: u64,
    steps: u64,
}

impl Trainer {
    /// Build the canonical model and the training-split window view.
    pub fn new(plan: &Plan) -> Trainer {
        let cfg = canonical_config();
        Trainer {
            model: TrainedModel::from_conformer(&cfg, MODEL_SEED),
            ds: WindowDataset::new(
                &plan.series,
                Split::Train,
                FRACTIONS,
                cfg.lx,
                cfg.ly,
                cfg.label_len,
            ),
            opt: Adam::new(LR),
            order: Rng::seed(sub_seed(plan.seed, TAG_BATCHES)),
            queue: Vec::new(),
            dropout_seed: sub_seed(plan.seed, TAG_DROPOUT),
            steps: 0,
        }
    }

    fn next_indices(&mut self) -> Vec<usize> {
        if self.queue.is_empty() {
            self.queue = self.ds.shuffled_batches(TRAIN_BATCH, &mut self.order);
            self.queue.reverse();
        }
        self.queue
            .pop()
            .expect("the training split holds a full batch")
    }

    /// One optimizer step, each stage in its own span; returns the loss.
    pub fn step(&mut self, t: &mut Tracer) -> f32 {
        let seed = self.dropout_seed.wrapping_add(self.steps);
        self.steps += 1;
        t.span("train.step", |t| {
            let idx = self.next_indices();
            let batch = t.span("data.batch", |_| self.ds.batch(&idx));
            let g = Graph::new();
            let cx = Fwd::new(&g, self.model.params(), true, seed);
            let loss = t.span("eval.batch_loss", |_| self.model.batch_loss(&cx, &batch));
            let value = loss.value().item();
            let grads = t.span("autograd.backward", |_| g.backward(loss));
            let collected = t.span("nn.grads", |_| cx.collect_grads(&grads));
            t.span("nn.optim", |_| {
                let ps = self.model.params_mut();
                ps.zero_grad();
                ps.apply_grads(collected);
                self.opt.step(ps);
            });
            value
        })
    }
}

/// Losses must be finite and fall: the mean of the last (up to) 20 below
/// the mean of the first 20.
pub fn check_losses(losses: &[f32], checks: &mut Checks) {
    checks.check(losses.iter().all(|l| l.is_finite()), || {
        "non-finite training loss".to_string()
    });
    let k = (losses.len() / 2).min(20);
    let mean = |s: &[f32]| s.iter().sum::<f32>() / s.len().max(1) as f32;
    let (first, last) = (mean(&losses[..k]), mean(&losses[losses.len() - k..]));
    checks.check(k > 0 && last < first, || {
        format!("training loss did not fall: first {k} mean {first}, last {k} mean {last}")
    });
}

/// What one `train_step` run measured.
pub struct TrainRun {
    /// End-to-end numbers; the unit of work is an optimizer step. Set-up
    /// is model build, `WindowDataset::new` and the first step.
    pub measured: Measured,
    /// Loss checks.
    pub checks: Checks,
}

/// Build a trainer and take its first step; returns it with the step's
/// loss, and the seconds that took.
fn set_up(plan: &Plan) -> ((Trainer, f32), f64) {
    let t = Instant::now();
    let mut trainer = Trainer::new(plan);
    let loss = trainer.step(&mut Tracer::off());
    ((trainer, loss), t.elapsed().as_secs_f64())
}

/// `train_step`: warm up, then time steps for `phase.seconds`, on one
/// core.
pub fn train_step(plan: &Plan, phase: Phase) -> io::Result<TrainRun> {
    let cpus = host::cpus(1);
    affinity::pinned(&cpus, || train_pinned(plan, phase, cpus.first().copied()))
}

fn train_pinned(plan: &Plan, phase: Phase, cpu: Option<usize>) -> io::Result<TrainRun> {
    let mut off = Tracer::off();
    let cap = (phase.seconds * MAX_STEPS_PER_S) as usize;
    let mut m = Meter::new(cpu, 0.0, phase, cap);
    let (mut trainer, first_loss) = m.setup(|| Ok(set_up(plan)))?;
    let mut losses = Vec::with_capacity(cap + (phase.warmup * MAX_STEPS_PER_S) as usize);
    m.reserve(&losses);
    losses.push(first_loss);
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < phase.warmup {
        losses.push(trainer.step(&mut off));
    }
    while m.measuring() {
        if m.setup_due() {
            m.setup(|| Ok(((), set_up(plan).1)))?;
            // The dropped trainer handed its memory back; one untimed
            // step faults it in again, or the next timed step would.
            losses.push(trainer.step(&mut off));
        }
        m.burst(|latency, len| {
            let t = Instant::now();
            let mut steps = 0;
            while t.elapsed().as_secs_f64() < len {
                let s = Instant::now();
                losses.push(trainer.step(&mut off));
                latency.push(s.elapsed().as_secs_f64() * 1e3);
                steps += 1;
            }
            Ok(steps)
        })?;
    }
    let measured = m.finish(TAIL);
    let mut checks = Checks::default();
    check_losses(&losses, &mut checks);
    Ok(TrainRun { measured, checks })
}
