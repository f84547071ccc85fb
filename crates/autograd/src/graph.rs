//! The tape: node storage, `Var` handles, and the backward pass.

use lttf_tensor::{Shape, Tensor};
use std::cell::RefCell;

/// Context handed to a backward closure.
pub struct Ctx<'a> {
    /// Forward value of this node.
    pub out: &'a Tensor,
    /// Gradient of the loss with respect to this node's output.
    pub grad: &'a Tensor,
    /// Forward values of this node's parents, in registration order.
    pub inputs: Vec<&'a Tensor>,
}

/// A backward closure: maps the output gradient to one gradient per parent.
type BackFn = Box<dyn Fn(&Ctx<'_>) -> Vec<Tensor>>;

/// What the backward pass needs of a computed node: its parents' ids and
/// the closure that maps its output gradient to one gradient per parent.
/// Ops hand [`Graph::push`] a constructor for it, which only recording
/// graphs call, so an inference forward allocates no closure, no
/// captured shapes and no parent list.
pub(crate) struct Backward {
    parents: Vec<usize>,
    f: BackFn,
}

impl Backward {
    pub(crate) fn new(parents: Vec<usize>, f: impl Fn(&Ctx<'_>) -> Vec<Tensor> + 'static) -> Self {
        Backward {
            parents,
            f: Box::new(f),
        }
    }
}

/// A node's forward value. [`Graph::release_since`] turns `Live` into
/// `Released`, which keeps only the shape; reading it panics.
pub(crate) enum Slot {
    Live(Tensor),
    Released(Shape),
}

/// A dynamic computation graph (tape).
///
/// Create one per forward/backward pass. See the crate docs for the model.
pub struct Graph {
    pub(crate) values: RefCell<Vec<Slot>>,
    /// One entry per node on recording graphs (`None` for leaves); empty
    /// on inference graphs.
    backs: RefCell<Vec<Option<Backward>>>,
    /// Op name per node (`"leaf"` for leaves); names the per-op backward
    /// telemetry spans (`bwd.<name>`) and a released node in the panic of
    /// a read after [`Graph::release_since`].
    names: RefCell<Vec<&'static str>>,
    /// False for inference graphs: no backward state is built and
    /// [`Graph::backward`] is unavailable.
    record: bool,
}

/// A handle to a node in a [`Graph`]. Cheap to copy.
#[derive(Clone, Copy)]
pub struct Var<'g> {
    pub(crate) g: &'g Graph,
    pub(crate) id: usize,
}

/// Gradients produced by [`Graph::backward`], indexed by [`Var`].
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// The gradient of the loss with respect to `v`, if `v` influenced it.
    pub fn get(&self, v: Var<'_>) -> Option<&Tensor> {
        self.grads.get(v.id).and_then(|g| g.as_ref())
    }

    /// Take ownership of the gradient for `v`.
    pub fn take(&mut self, v: Var<'_>) -> Option<Tensor> {
        self.grads.get_mut(v.id).and_then(|g| g.take())
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph {
            values: RefCell::new(Vec::new()),
            backs: RefCell::new(Vec::new()),
            names: RefCell::new(Vec::new()),
            record: true,
        }
    }

    /// An empty **inference** graph: forward values are tracked as usual,
    /// but no backward state (boxed closures, captured shapes, parent
    /// lists) is built, and each layer's intermediates can be dropped at
    /// the layer's exit with [`Graph::release_since`]. This is the no-grad
    /// mode used by every `predict` path and by the serving batcher, where
    /// thousands of forward passes would otherwise allocate tape machinery
    /// that is never used.
    ///
    /// Calling [`Graph::backward`] on an inference graph panics.
    pub fn inference() -> Self {
        Graph {
            record: false,
            ..Graph::new()
        }
    }

    /// True when this graph records backward closures (i.e. was created
    /// with [`Graph::new`], not [`Graph::inference`]).
    pub fn records_gradients(&self) -> bool {
        self.record
    }

    /// Number of nodes currently on the tape. Taken before a layer runs,
    /// it is the `mark` that [`Graph::release_since`] releases back to.
    pub fn len(&self) -> usize {
        self.values.borrow().len()
    }

    /// True if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of forward values the tape still holds (released nodes hold
    /// none). Computed on demand by walking the tape.
    pub fn held_bytes(&self) -> usize {
        self.values
            .borrow()
            .iter()
            .map(|slot| match slot {
                Slot::Live(t) => t.numel() * std::mem::size_of::<f32>(),
                Slot::Released(_) => 0,
            })
            .sum()
    }

    /// Insert a leaf node (an input or parameter). Gradients flow *to*
    /// leaves but not through them.
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        self.push_node("leaf", value, None)
    }

    /// Alias for [`Graph::leaf`] that reads better for non-trainable data.
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.leaf(value)
    }

    /// Push a computed node onto the tape. `name` labels the node's
    /// backward span in the telemetry registry; `backward` is called only
    /// on recording graphs.
    pub(crate) fn push(
        &self,
        name: &'static str,
        value: Tensor,
        backward: impl FnOnce() -> Backward,
    ) -> Var<'_> {
        // Built before `push_node` borrows the tape: constructors read
        // their parents' shapes through it.
        let back = self.record.then(backward);
        self.push_node(name, value, back)
    }

    fn push_node(&self, name: &'static str, value: Tensor, back: Option<Backward>) -> Var<'_> {
        let mut values = self.values.borrow_mut();
        let id = values.len();
        values.push(Slot::Live(value));
        if self.record {
            self.backs.borrow_mut().push(back);
        }
        self.names.borrow_mut().push(name);
        Var { g: self, id }
    }

    /// Register a custom differentiable operation.
    ///
    /// `value` is the precomputed forward output, `parents` the input
    /// variables, and `back` maps the output gradient to one gradient per
    /// parent (same order, same shapes as the parents' values).
    ///
    /// This is the extension point used by fused kernels (e.g. the
    /// sliding-window attention in `lttf-nn`) whose backward passes are
    /// hand-written rather than composed from primitives.
    pub fn custom(
        &self,
        value: Tensor,
        parents: &[Var<'_>],
        back: impl Fn(&Ctx<'_>) -> Vec<Tensor> + 'static,
    ) -> Var<'_> {
        self.custom_named("custom", value, parents, back)
    }

    /// [`Graph::custom`] with an explicit op name, so the fused kernel's
    /// backward time shows up as `bwd.<name>` in `lttf profile` instead of
    /// the anonymous `bwd.custom`.
    pub fn custom_named(
        &self,
        name: &'static str,
        value: Tensor,
        parents: &[Var<'_>],
        back: impl Fn(&Ctx<'_>) -> Vec<Tensor> + 'static,
    ) -> Var<'_> {
        self.push(name, value, || {
            Backward::new(parents.iter().map(|v| v.id).collect(), back)
        })
    }

    /// End a layer's scope on an inference graph: drop the value of every
    /// node pushed since `mark` (a [`Graph::len`] taken when the layer
    /// began) except those in `keep`, which must list every value the
    /// caller reads after the layer returns. Released nodes keep their
    /// shapes; reading one's value panics with its id and op name.
    ///
    /// A no-op on recording graphs, whose backward pass needs every
    /// value.
    pub fn release_since(&self, mark: usize, keep: &[Var<'_>]) {
        if self.record {
            return;
        }
        let mut values = self.values.borrow_mut();
        for (id, slot) in values.iter_mut().enumerate().skip(mark) {
            if matches!(slot, Slot::Live(_)) && !keep.iter().any(|k| k.id == id) {
                if let Slot::Live(t) = std::mem::replace(slot, Slot::Released(Shape::new(&[]))) {
                    *slot = Slot::Released(t.into_shape());
                }
            }
        }
    }

    /// The live value of node `id` in a borrowed tape.
    #[track_caller]
    pub(crate) fn live<'a>(&self, values: &'a [Slot], id: usize) -> &'a Tensor {
        match &values[id] {
            Slot::Live(t) => t,
            Slot::Released(_) => self.read_after_release(id),
        }
    }

    #[cold]
    #[inline(never)]
    #[track_caller]
    fn read_after_release(&self, id: usize) -> ! {
        panic!(
            "read of node {id} ({}) after Graph::release_since dropped its value; \
             the layer that made it must list it in `keep`",
            self.names.borrow()[id]
        )
    }

    /// Apply `f` to the forward values of several nodes at once, without
    /// cloning them — for fused kernels that read all their inputs.
    pub fn with_values<const N: usize, R>(
        &self,
        vars: [Var<'_>; N],
        f: impl FnOnce([&Tensor; N]) -> R,
    ) -> R {
        let values = self.values.borrow();
        f(vars.map(|v| {
            debug_assert!(std::ptr::eq(v.g, self), "variable from another graph");
            self.live(&values, v.id)
        }))
    }

    /// Scan every computed node's forward value and aggregate one
    /// [`lttf_obs::TensorHealth`] per op name (leaves and released nodes
    /// are skipped — the trainer inspects parameters and gradients
    /// separately). Names come back in first-appearance tape order, so the
    /// health monitor's log records follow the forward pass. One pass over
    /// the tape's values; call it at a cadence, not per batch.
    pub fn activation_health(&self) -> Vec<(&'static str, lttf_obs::TensorHealth)> {
        let values = self.values.borrow();
        let names = self.names.borrow();
        let mut order: Vec<&'static str> = Vec::new();
        let mut agg: std::collections::HashMap<&'static str, lttf_obs::TensorHealth> =
            std::collections::HashMap::new();
        for (slot, &name) in values.iter().zip(names.iter()) {
            let Slot::Live(v) = slot else { continue };
            if name == "leaf" {
                continue;
            }
            let h = lttf_obs::TensorHealth::from_slice(v.data());
            match agg.get_mut(name) {
                Some(existing) => *existing = existing.merge(&h),
                None => {
                    order.push(name);
                    agg.insert(name, h);
                }
            }
        }
        order.into_iter().map(|n| (n, agg[n])).collect()
    }

    /// Run reverse-mode accumulation from `root`.
    ///
    /// The root is seeded with a gradient of ones (so a scalar root yields
    /// plain derivatives; a tensor root yields the gradient of its sum).
    pub fn backward(&self, root: Var<'_>) -> Grads {
        let seed = root.with_value(|t| t.ones_like());
        self.backward_with_seed(root, seed)
    }

    /// Run reverse-mode accumulation from `root` with an explicit seed
    /// gradient (must have the root's shape).
    ///
    /// # Panics
    /// Panics if the seed shape does not match the root value's shape.
    pub fn backward_with_seed(&self, root: Var<'_>, seed: Tensor) -> Grads {
        assert!(
            self.record,
            "backward on an inference graph (built with Graph::inference)"
        );
        let _span = lttf_obs::span!("backward");
        let values = self.values.borrow();
        let backs = self.backs.borrow();
        let names = self.names.borrow();
        assert_eq!(
            seed.shape(),
            self.live(&values, root.id).shape(),
            "backward seed shape mismatch"
        );
        let n = values.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        grads[root.id] = Some(seed);
        for id in (0..=root.id).rev() {
            let Some(g) = grads[id].take() else { continue };
            if let Some(back) = &backs[id] {
                let inputs: Vec<&Tensor> = back
                    .parents
                    .iter()
                    .map(|&p| self.live(&values, p))
                    .collect();
                let ctx = Ctx {
                    out: self.live(&values, id),
                    grad: &g,
                    inputs,
                };
                // Per-op backward timing. `scoped` pays a registry lookup
                // per call, which is noise next to a backward closure; it
                // nests under the "backward" span for self-time purposes.
                let op_span = if cfg!(feature = "telemetry") {
                    lttf_obs::scoped("bwd", names[id])
                } else {
                    lttf_obs::SpanGuard::inactive()
                };
                let pgrads = (back.f)(&ctx);
                drop(op_span);
                debug_assert_eq!(
                    pgrads.len(),
                    back.parents.len(),
                    "backward fn returned wrong number of gradients"
                );
                for (&pid, pg) in back.parents.iter().zip(pgrads) {
                    debug_assert_eq!(
                        pg.shape(),
                        self.live(&values, pid).shape(),
                        "gradient shape mismatch for parent node {pid}"
                    );
                    match &mut grads[pid] {
                        Some(existing) => existing.add_assign(&pg),
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            grads[id] = Some(g);
        }
        Grads { grads }
    }
}

impl<'g> Var<'g> {
    /// The node's forward value (cloned out of the tape).
    ///
    /// # Panics
    /// Panics if the value was dropped by [`Graph::release_since`].
    #[track_caller]
    pub fn value(&self) -> Tensor {
        self.with_value(Tensor::clone)
    }

    /// Shape of the node's value (available after release too).
    pub fn shape(&self) -> Vec<usize> {
        match &self.g.values.borrow()[self.id] {
            Slot::Live(t) => t.shape().to_vec(),
            Slot::Released(s) => s.dims().to_vec(),
        }
    }

    /// The graph this variable belongs to.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Node id (stable within its graph).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Reconstruct a handle from a graph and a node id previously obtained
    /// via [`Var::id`]. Used by integrations (e.g. parameter binding in
    /// `lttf-nn`) that must store ids rather than borrow-carrying handles.
    ///
    /// # Panics
    /// Panics if `id` is not a node of `g`.
    pub fn from_raw(g: &'g Graph, id: usize) -> Self {
        assert!(
            id < g.len(),
            "node id {id} out of range for graph of {} nodes",
            g.len()
        );
        Var { g, id }
    }

    /// Apply `f` to the forward value without cloning it.
    ///
    /// # Panics
    /// Panics if the value was dropped by [`Graph::release_since`].
    #[track_caller]
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        let values = self.g.values.borrow();
        f(self.g.live(&values, self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let g = Graph::new();
        let t = Tensor::from_slice(&[1.0, 2.0]);
        let v = g.leaf(t.clone());
        assert_eq!(v.value().data(), t.data());
        assert_eq!(v.shape(), vec![2]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn inference_graph_stores_no_closures() {
        let g = Graph::inference();
        assert!(!g.records_gradients());
        let a = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let b = g.leaf(Tensor::from_slice(&[3.0, 4.0]));
        let c = a.add(b);
        // Forward values match a recording graph exactly.
        assert_eq!(c.value().data(), &[4.0, 6.0]);
        // No backward state was built for any node.
        assert!(g.backs.borrow().is_empty());
    }

    #[test]
    fn release_since_drops_values_but_keeps_shapes_and_kept_nodes() {
        let g = Graph::inference();
        let x = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let mark = g.len();
        let y = x.add(x); // [2, 4]
        let z = y.mul_scalar(3.0); // [6, 12]
        let before = g.held_bytes();
        g.release_since(mark, &[z]);
        assert_eq!(g.held_bytes(), before - 2 * 4, "only y's buffer is freed");
        assert_eq!(y.shape(), vec![2]);
        assert_eq!(x.value().data(), &[1.0, 2.0], "nodes before the mark stay");
        assert_eq!(z.value().data(), &[6.0, 12.0], "kept nodes stay");
    }

    #[test]
    #[should_panic(expected = "read of node 1 (add) after Graph::release_since")]
    fn reading_a_released_node_panics_with_id_and_op() {
        let g = Graph::inference();
        let x = g.leaf(Tensor::from_slice(&[1.0]));
        let y = x.add(x);
        let z = y.mul_scalar(2.0);
        g.release_since(1, &[z]);
        let _ = y.with_value(|t| t.sum());
    }

    #[test]
    fn release_since_is_a_no_op_on_recording_graphs() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let y = x.square();
        let z = y.sum_all();
        let before = g.held_bytes();
        g.release_since(0, &[]);
        assert_eq!(g.held_bytes(), before);
        assert_eq!(y.value().data(), &[1.0, 4.0]);
        let grads = g.backward(z);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "backward on an inference graph")]
    fn backward_on_inference_graph_panics() {
        let g = Graph::inference();
        let v = g.leaf(Tensor::from_slice(&[1.0]));
        let _ = g.backward(v);
    }

    #[test]
    fn backward_on_leaf_is_seed() {
        let g = Graph::new();
        let v = g.leaf(Tensor::from_slice(&[5.0, 6.0]));
        let grads = g.backward(v);
        assert_eq!(grads.get(v).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn custom_seed() {
        let g = Graph::new();
        let v = g.leaf(Tensor::from_slice(&[5.0, 6.0]));
        let grads = g.backward_with_seed(v, Tensor::from_slice(&[2.0, 3.0]));
        assert_eq!(grads.get(v).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "seed shape mismatch")]
    fn wrong_seed_shape_panics() {
        let g = Graph::new();
        let v = g.leaf(Tensor::from_slice(&[5.0, 6.0]));
        g.backward_with_seed(v, Tensor::from_slice(&[1.0]));
    }

    #[test]
    fn gradient_fan_out_accumulates() {
        // y = x + x  ⇒ dy/dx = 2
        let g = Graph::new();
        let x = g.leaf(Tensor::from_slice(&[3.0]));
        let y = x.add(x);
        let grads = g.backward(y);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn custom_op_round_trip() {
        // A user-defined op: y = 3x with backward 3·g.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let y = g.custom(x.value().mul_scalar(3.0), &[x], |ctx| {
            vec![ctx.grad.mul_scalar(3.0)]
        });
        assert_eq!(y.value().data(), &[3.0, 6.0]);
        let grads = g.backward(y);
        assert_eq!(grads.get(x).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn custom_op_sees_parent_values() {
        // backward reads its inputs from the tape rather than captures
        let g = Graph::new();
        let a = g.leaf(Tensor::from_slice(&[2.0]));
        let b = g.leaf(Tensor::from_slice(&[5.0]));
        let y = g.custom(a.value().mul(&b.value()), &[a, b], |ctx| {
            vec![ctx.grad.mul(ctx.inputs[1]), ctx.grad.mul(ctx.inputs[0])]
        });
        let grads = g.backward(y);
        assert_eq!(grads.get(a).unwrap().data(), &[5.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_raw_validates_id() {
        let g = Graph::new();
        Var::from_raw(&g, 3);
    }

    #[test]
    fn activation_health_aggregates_by_op() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let y = x.add(x); // [2, 4]
        let _z = y.add(y); // [4, 8] — same op name, merged with y's stats
        let scan = g.activation_health();
        assert_eq!(scan.len(), 1, "leaves skipped, adds merged");
        let (name, h) = &scan[0];
        assert_eq!(*name, "add");
        assert_eq!(h.count, 4);
        assert!((h.mean - 4.5).abs() < 1e-9);
        assert!(!h.non_finite());
    }

    #[test]
    fn unreached_nodes_have_no_grad() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_slice(&[1.0]));
        let unused = g.leaf(Tensor::from_slice(&[9.0]));
        let y = x.mul_scalar(2.0);
        let grads = g.backward(y);
        assert!(grads.get(unused).is_none());
        assert!(grads.get(x).is_some());
    }
}
