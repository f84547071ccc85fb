//! Parameter storage ([`ParamSet`]) and the forward-pass context ([`Fwd`]).

use lttf_autograd::{Grads, Graph, Var};
use lttf_tensor::{Rng, Tensor};
use std::cell::RefCell;

/// Handle to a parameter inside a [`ParamSet`]. Cheap to copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamId(pub(crate) usize);

/// One trainable tensor plus its accumulated gradient.
#[derive(Clone)]
pub(crate) struct Param {
    pub value: Tensor,
    pub grad: Tensor,
}

/// The trainable state of a model: a flat, named list of parameters.
///
/// Layers allocate parameters at construction time and keep the returned
/// [`ParamId`]s. Optimizers iterate over the whole set.
#[derive(Default)]
pub struct ParamSet {
    pub(crate) params: Vec<Param>,
    pub(crate) names: Vec<String>,
}

impl ParamSet {
    /// An empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with a diagnostic name; returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.params.len());
        let grad = value.zeros_like();
        self.params.push(Param { value, grad });
        self.names.push(name.into());
        id
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable value (used by optimizers and loaders).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered parameters (tensors, not elements).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalar elements.
    pub fn num_elements(&self) -> usize {
        self.params.iter().map(|p| p.value.numel()).sum()
    }

    /// Reset all gradients to zero. Call before each accumulation cycle.
    pub fn zero_grad(&mut self) {
        for p in self.params.iter_mut() {
            p.grad = p.value.zeros_like();
        }
    }

    /// Add `grad` into the parameter's gradient accumulator.
    ///
    /// # Panics
    /// Panics if the gradient shape does not match the parameter.
    pub fn accumulate_grad(&mut self, id: ParamId, grad: &Tensor) {
        self.params[id.0].grad.add_assign(grad);
    }

    /// Global L2 norm of all gradients (used by gradient clipping).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.square().sum())
            .sum::<f32>()
            .sqrt()
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Clone every parameter value, in registration order.
    ///
    /// A snapshot is the unit of rollback for online adaptation: take one
    /// before a risky optimizer step, and [`ParamSet::restore`] rewinds
    /// the set bit-for-bit if the step diverges. Gradients and optimizer
    /// state are *not* captured — a restore lands on clean values with
    /// whatever gradient slots the caller zeroes next.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Overwrite every parameter value from a [`ParamSet::snapshot`].
    ///
    /// # Panics
    /// Panics when the snapshot's length or any tensor shape does not
    /// match this set — restoring across different architectures is
    /// always a bug.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(
            snapshot.len(),
            self.params.len(),
            "snapshot has {} tensors but the set has {} parameters",
            snapshot.len(),
            self.params.len()
        );
        for (p, s) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(
                p.value.shape(),
                s.shape(),
                "snapshot tensor shape mismatch"
            );
            p.value = s.clone();
        }
    }

    /// One-pass health statistics per parameter, in registration order:
    /// `(name, value stats, gradient stats)`. The training health monitor
    /// feeds these to its divergence watchdog and the run log.
    pub fn health_scan(
        &self,
    ) -> Vec<(&str, lttf_obs::TensorHealth, lttf_obs::TensorHealth)> {
        self.params
            .iter()
            .zip(&self.names)
            .map(|(p, name)| {
                (
                    name.as_str(),
                    lttf_obs::TensorHealth::from_slice(p.value.data()),
                    lttf_obs::TensorHealth::from_slice(p.grad.data()),
                )
            })
            .collect()
    }
}

/// Context threading a [`Graph`], a [`ParamSet`], and per-pass state
/// (train/eval mode, dropout RNG) through a model's `forward` methods.
pub struct Fwd<'g, 'p> {
    g: &'g Graph,
    ps: &'p ParamSet,
    binds: RefCell<Vec<(ParamId, usize)>>,
    /// True during training: dropout is active.
    pub train: bool,
    rng: RefCell<Rng>,
}

impl<'g, 'p> Fwd<'g, 'p> {
    /// Begin a forward pass on `g` reading parameters from `ps`.
    ///
    /// `seed` drives dropout masks (and any other stochastic layer state),
    /// so a fixed seed makes the whole pass deterministic.
    pub fn new(g: &'g Graph, ps: &'p ParamSet, train: bool, seed: u64) -> Self {
        Fwd {
            g,
            ps,
            binds: RefCell::new(Vec::new()),
            train,
            rng: RefCell::new(Rng::seed(seed)),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Bind a parameter into the graph as a leaf and record the binding.
    ///
    /// Binding the same parameter twice (weight sharing) is fine: both
    /// bindings' gradients are summed at harvest time.
    pub fn param(&self, id: ParamId) -> Var<'g> {
        let v = self.g.leaf(self.ps.value(id).clone());
        self.binds.borrow_mut().push((id, v.id()));
        v
    }

    /// Insert a non-trainable constant.
    pub fn constant(&self, t: Tensor) -> Var<'g> {
        self.g.constant(t)
    }

    /// Inverted dropout: in train mode, zero each element with probability
    /// `p` and scale survivors by `1/(1-p)`; identity in eval mode.
    pub fn dropout(&self, x: Var<'g>, p: f32) -> Var<'g> {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0, 1), got {p}"
        );
        if !self.train || p == 0.0 {
            return x;
        }
        // The scaled mask in one pass: a kept element is `1/(1-p)`, which
        // is `1.0 · (1/(1-p))` bit for bit, a dropped one `0.0`.
        let mask = Tensor::bernoulli_mask(
            &x.shape(),
            1.0 - p,
            1.0 / (1.0 - p),
            &mut self.rng.borrow_mut(),
        );
        x.mul_mask(mask)
    }

    /// A standard-normal noise tensor from the pass's RNG (used by the
    /// normalizing-flow reparameterization, Eq. 15).
    pub fn noise(&self, shape: &[usize]) -> Tensor {
        Tensor::randn(shape, &mut self.rng.borrow_mut())
    }

    /// After `backward`, collect every bound parameter's gradient.
    ///
    /// Consumes the context — this releases its borrow of the [`ParamSet`],
    /// so the caller can then mutate the set:
    ///
    /// ```text
    /// let collected = cx.collect_grads(&grads);
    /// ps.zero_grad();
    /// ps.apply_grads(collected);
    /// opt.step(&mut ps);
    /// ```
    pub fn collect_grads(self, grads: &Grads) -> Vec<(ParamId, Tensor)> {
        let binds = self.binds.into_inner();
        let mut out = Vec::with_capacity(binds.len());
        for (pid, node) in binds {
            let v = Var::from_raw(self.g, node);
            if let Some(gt) = grads.get(v) {
                out.push((pid, gt.clone()));
            }
        }
        out
    }
}

impl ParamSet {
    /// Accumulate a batch of collected gradients (from
    /// [`Fwd::collect_grads`]) into the parameters' gradient slots.
    pub fn apply_grads(&mut self, collected: Vec<(ParamId, Tensor)>) {
        for (pid, g) in collected {
            self.accumulate_grad(pid, &g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_params() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_slice(&[1.0, 2.0]));
        assert_eq!(ps.value(id).data(), &[1.0, 2.0]);
        assert_eq!(ps.name(id), "w");
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.num_elements(), 2);
    }

    #[test]
    fn zero_grad_resets() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_slice(&[1.0]));
        ps.accumulate_grad(id, &Tensor::from_slice(&[5.0]));
        assert_eq!(ps.grad(id).data(), &[5.0]);
        ps.zero_grad();
        assert_eq!(ps.grad(id).data(), &[0.0]);
    }

    #[test]
    fn harvest_collects_gradients() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_slice(&[3.0, 4.0]));
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        let w = cx.param(id);
        let loss = w.square().sum_all();
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        ps.zero_grad();
        ps.apply_grads(collected);
        assert_eq!(ps.grad(id).data(), &[6.0, 8.0]);
    }

    #[test]
    fn shared_binding_gradients_sum() {
        let mut ps = ParamSet::new();
        let id = ps.add("w", Tensor::from_slice(&[2.0]));
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        // Bind twice: loss = w·w through two independent leaves.
        let w1 = cx.param(id);
        let w2 = cx.param(id);
        let loss = w1.mul(w2).sum_all();
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        ps.zero_grad();
        ps.apply_grads(collected);
        // d(w²)/dw = 2w = 4
        assert_eq!(ps.grad(id).data(), &[4.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let ps = ParamSet::new();
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::ones(&[100]));
        let y = cx.dropout(x, 0.5);
        assert_eq!(y.value().data(), &[1.0; 100]);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let ps = ParamSet::new();
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 7);
        let x = g.leaf(Tensor::ones(&[10_000]));
        let y = cx.dropout(x, 0.3).value();
        // survivors are scaled by 1/0.7, mean should stay near 1.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // some elements must be dropped
        assert!(y.data().iter().filter(|&&v| v == 0.0).count() > 2000);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let ps = ParamSet::new();
        let g = Graph::new();
        let a = Fwd::new(&g, &ps, true, 42).noise(&[8]);
        let b = Fwd::new(&g, &ps, true, 42).noise(&[8]);
        let c = Fwd::new(&g, &ps, true, 43).noise(&[8]);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }

    #[test]
    #[should_panic(expected = "dropout p must be in")]
    fn dropout_rejects_p_one() {
        let ps = ParamSet::new();
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        let x = g.leaf(Tensor::ones(&[4]));
        cx.dropout(x, 1.0);
    }

    #[test]
    fn health_scan_reports_per_param_stats() {
        let mut ps = ParamSet::new();
        let a = ps.add("enc.w", Tensor::from_slice(&[3.0, 4.0]));
        ps.add("enc.b", Tensor::from_slice(&[0.0]));
        ps.accumulate_grad(a, &Tensor::from_slice(&[f32::NAN, 1.0]));
        let scan = ps.health_scan();
        assert_eq!(scan.len(), 2);
        let (name, value, grad) = &scan[0];
        assert_eq!(*name, "enc.w");
        assert!((value.norm - 5.0).abs() < 1e-9);
        assert_eq!(grad.nan, 1);
        assert!(grad.non_finite());
        assert!(!scan[1].2.non_finite());
    }

    #[test]
    fn snapshot_restore_round_trips_bit_for_bit() {
        let mut ps = ParamSet::new();
        let a = ps.add("a", Tensor::from_slice(&[1.5, -2.25]));
        let b = ps.add("b", Tensor::from_slice(&[0.125]));
        let snap = ps.snapshot();
        ps.value_mut(a).data_mut().copy_from_slice(&[9.0, 9.0]);
        ps.value_mut(b).data_mut().copy_from_slice(&[f32::NAN]);
        ps.restore(&snap);
        assert_eq!(ps.value(a).data(), &[1.5, -2.25]);
        assert_eq!(ps.value(b).data(), &[0.125]);
    }

    #[test]
    #[should_panic(expected = "snapshot has")]
    fn restore_rejects_wrong_length() {
        let mut ps = ParamSet::new();
        ps.add("a", Tensor::from_slice(&[1.0]));
        ps.restore(&[]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn restore_rejects_wrong_shape() {
        let mut ps = ParamSet::new();
        ps.add("a", Tensor::from_slice(&[1.0, 2.0]));
        ps.restore(&[Tensor::from_slice(&[1.0])]);
    }

    #[test]
    fn grad_norm_computation() {
        let mut ps = ParamSet::new();
        let a = ps.add("a", Tensor::from_slice(&[0.0, 0.0]));
        ps.accumulate_grad(a, &Tensor::from_slice(&[3.0, 4.0]));
        assert!((ps.grad_norm() - 5.0).abs() < 1e-6);
    }
}
