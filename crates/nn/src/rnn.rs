//! Recurrent networks: GRU (the paper's choice for all RNN blocks in
//! Conformer) and LSTM (used by the LSTNet baseline).

use crate::init::xavier_uniform;
use crate::param::{Fwd, ParamId, ParamSet};
use lttf_autograd::Var;
use lttf_tensor::{Rng, Tensor};

/// Output of a recurrent layer stack over a sequence.
pub struct RnnOutput<'g> {
    /// Hidden states of the top layer at every step: `[batch, len, hidden]`.
    pub outputs: Var<'g>,
    /// Final hidden state of each layer: `[batch, hidden]`, bottom first.
    pub last_hidden: Vec<Var<'g>>,
}

/// A single GRU cell (PyTorch gate layout: reset, update, new).
pub struct GruCell {
    w_ih: ParamId,
    w_hh: ParamId,
    b_ih: ParamId,
    b_hh: ParamId,
    input_size: usize,
    hidden_size: usize,
}

impl GruCell {
    /// Allocate a GRU cell.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        input_size: usize,
        hidden_size: usize,
        rng: &mut Rng,
    ) -> Self {
        let h3 = 3 * hidden_size;
        GruCell {
            w_ih: ps.add(
                format!("{name}.w_ih"),
                xavier_uniform(&[input_size, h3], input_size, h3, rng),
            ),
            w_hh: ps.add(
                format!("{name}.w_hh"),
                xavier_uniform(&[hidden_size, h3], hidden_size, h3, rng),
            ),
            b_ih: ps.add(format!("{name}.b_ih"), Tensor::zeros(&[h3])),
            b_hh: ps.add(format!("{name}.b_hh"), Tensor::zeros(&[h3])),
            input_size,
            hidden_size,
        }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// One step: `x` is `[batch, input]`, `h` is `[batch, hidden]`;
    /// returns the next hidden state.
    pub fn step<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>, h: Var<'g>) -> Var<'g> {
        let hs = self.hidden_size;
        let gi = x.matmul(cx.param(self.w_ih)).add(cx.param(self.b_ih));
        let gh = h.matmul(cx.param(self.w_hh)).add(cx.param(self.b_hh));
        let (gi_r, gi_z, gi_n) = (
            gi.narrow(1, 0, hs),
            gi.narrow(1, hs, hs),
            gi.narrow(1, 2 * hs, hs),
        );
        let (gh_r, gh_z, gh_n) = (
            gh.narrow(1, 0, hs),
            gh.narrow(1, hs, hs),
            gh.narrow(1, 2 * hs, hs),
        );
        let r = gi_r.add(gh_r).sigmoid();
        let z = gi_z.add(gh_z).sigmoid();
        let n = gi_n.add(r.mul(gh_n)).tanh();
        // h' = (1 − z) ⊙ n + z ⊙ h
        let one_minus_z = z.neg().add_scalar(1.0);
        one_minus_z.mul(n).add(z.mul(h))
    }
}

/// A stack of GRU layers unrolled over a sequence.
pub struct Gru {
    cells: Vec<GruCell>,
    dropout: f32,
}

impl Gru {
    /// Allocate `num_layers` GRU layers. Dropout (if nonzero) is applied
    /// between layers, matching PyTorch semantics.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        input_size: usize,
        hidden_size: usize,
        num_layers: usize,
        dropout: f32,
        rng: &mut Rng,
    ) -> Self {
        assert!(num_layers >= 1, "GRU needs at least one layer");
        let mut cells = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let in_size = if l == 0 { input_size } else { hidden_size };
            cells.push(GruCell::new(
                ps,
                &format!("{name}.l{l}"),
                in_size,
                hidden_size,
                rng,
            ));
        }
        Gru { cells, dropout }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.cells[0].hidden_size
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.cells.len()
    }

    /// Run over `x` of shape `[batch, len, input]` starting from zero
    /// hidden states.
    ///
    /// Each layer runs as **one** tape node through the fused kernels in
    /// `lttf-tensor` ([`lttf_tensor::gru_layer_forward`]): unrolling
    /// `GruCell::step` op-by-op costs ~20 nodes per timestep, and at the
    /// paper's sequence lengths the tape bookkeeping dominates the
    /// arithmetic. The backward is the hand-written BPTT kernel; on
    /// inference graphs no gate stash is recorded at all, and every node
    /// this call makes except the returned ones is released on return.
    pub fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> RnnOutput<'g> {
        let shape = x.shape();
        assert_eq!(
            shape.len(),
            3,
            "GRU input must be [batch, len, input], got {shape:?}"
        );
        let (b, len) = (shape[0], shape[1]);
        let hs = self.hidden_size();
        let g = cx.graph();
        let mark = g.len();
        let mut layer_input = x;
        let mut last_hidden = Vec::with_capacity(self.cells.len());
        let mut outputs = layer_input; // replaced below
        for (li, cell) in self.cells.iter().enumerate() {
            let w_ih = cx.param(cell.w_ih);
            let w_hh = cx.param(cell.w_hh);
            let b_ih = cx.param(cell.b_ih);
            let b_hh = cx.param(cell.b_hh);
            let (out, stash) = g.with_values(
                [layer_input, w_ih, w_hh, b_ih, b_hh],
                |[x, w_ih, w_hh, b_ih, b_hh]| {
                    lttf_tensor::gru_layer_forward(x, w_ih, w_hh, b_ih, b_hh, g.records_gradients())
                },
            );
            outputs = g.custom_named(
                "gru_layer",
                out,
                &[layer_input, w_ih, w_hh, b_ih, b_hh],
                move |ctx| {
                    let stash = stash
                        .as_ref()
                        .expect("gate stash is recorded on gradient-recording graphs");
                    let gr = lttf_tensor::gru_layer_backward(
                        ctx.grad,
                        ctx.inputs[0],
                        ctx.inputs[1],
                        ctx.inputs[2],
                        ctx.out,
                        stash,
                    );
                    vec![gr.dx, gr.dw_ih, gr.dw_hh, gr.db_ih, gr.db_hh]
                },
            );
            let h = if len == 0 {
                g.constant(Tensor::zeros(&[b, hs]))
            } else {
                outputs.narrow(1, len - 1, 1).reshape(&[b, hs])
            };
            last_hidden.push(h);
            if li + 1 < self.cells.len() && self.dropout > 0.0 {
                outputs = cx.dropout(outputs, self.dropout);
            }
            layer_input = outputs;
        }
        let mut keep = last_hidden.clone();
        keep.push(outputs);
        g.release_since(mark, &keep);
        RnnOutput {
            outputs,
            last_hidden,
        }
    }
}

/// A single LSTM cell (gate layout: input, forget, cell, output).
pub struct LstmCell {
    w_ih: ParamId,
    w_hh: ParamId,
    b_ih: ParamId,
    b_hh: ParamId,
    input_size: usize,
    hidden_size: usize,
}

impl LstmCell {
    /// Allocate an LSTM cell.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        input_size: usize,
        hidden_size: usize,
        rng: &mut Rng,
    ) -> Self {
        let h4 = 4 * hidden_size;
        LstmCell {
            w_ih: ps.add(
                format!("{name}.w_ih"),
                xavier_uniform(&[input_size, h4], input_size, h4, rng),
            ),
            w_hh: ps.add(
                format!("{name}.w_hh"),
                xavier_uniform(&[hidden_size, h4], hidden_size, h4, rng),
            ),
            b_ih: ps.add(format!("{name}.b_ih"), Tensor::zeros(&[h4])),
            b_hh: ps.add(format!("{name}.b_hh"), Tensor::zeros(&[h4])),
            input_size,
            hidden_size,
        }
    }

    /// One step. Returns `(h', c')`.
    pub fn step<'g>(
        &self,
        cx: &Fwd<'g, '_>,
        x: Var<'g>,
        h: Var<'g>,
        c: Var<'g>,
    ) -> (Var<'g>, Var<'g>) {
        let hs = self.hidden_size;
        let gates = x
            .matmul(cx.param(self.w_ih))
            .add(cx.param(self.b_ih))
            .add(h.matmul(cx.param(self.w_hh)).add(cx.param(self.b_hh)));
        let i = gates.narrow(1, 0, hs).sigmoid();
        let f = gates.narrow(1, hs, hs).sigmoid();
        let gc = gates.narrow(1, 2 * hs, hs).tanh();
        let o = gates.narrow(1, 3 * hs, hs).sigmoid();
        let c_next = f.mul(c).add(i.mul(gc));
        let h_next = o.mul(c_next.tanh());
        (h_next, c_next)
    }
}

/// A single-layer LSTM unrolled over a sequence (LSTNet's recurrent core).
pub struct Lstm {
    cell: LstmCell,
}

impl Lstm {
    /// Allocate a single-layer LSTM.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        input_size: usize,
        hidden_size: usize,
        rng: &mut Rng,
    ) -> Self {
        Lstm {
            cell: LstmCell::new(ps, name, input_size, hidden_size, rng),
        }
    }

    /// Run over `x` of shape `[batch, len, input]` from zero state.
    pub fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> RnnOutput<'g> {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "LSTM input must be [batch, len, input]");
        let (b, len) = (shape[0], shape[1]);
        let hs = self.cell.hidden_size;
        let g = cx.graph();
        let mut h = g.constant(Tensor::zeros(&[b, hs]));
        let mut c = g.constant(Tensor::zeros(&[b, hs]));
        let mut steps = Vec::with_capacity(len);
        for t in 0..len {
            let xt = x.narrow(1, t, 1).reshape(&[b, self.cell.input_size]);
            let (hn, cn) = self.cell.step(cx, xt, h, c);
            h = hn;
            c = cn;
            steps.push(h.reshape(&[b, 1, hs]));
        }
        RnnOutput {
            outputs: Var::concat(&steps, 1),
            last_hidden: vec![h],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use lttf_autograd::Graph;

    #[test]
    fn gru_output_shapes() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let gru = Gru::new(&mut ps, "g", 4, 8, 2, 0.0, &mut rng);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[3, 5, 4], &mut rng));
        let out = gru.forward(&cx, x);
        assert_eq!(out.outputs.shape(), vec![3, 5, 8]);
        assert_eq!(out.last_hidden.len(), 2);
        assert_eq!(out.last_hidden[1].shape(), vec![3, 8]);
    }

    #[test]
    fn gru_last_output_equals_last_hidden() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(1);
        let gru = Gru::new(&mut ps, "g", 2, 4, 1, 0.0, &mut rng);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[2, 6, 2], &mut rng));
        let out = gru.forward(&cx, x);
        let last_step = out.outputs.narrow(1, 5, 1).reshape(&[2, 4]).value();
        last_step.assert_close(&out.last_hidden[0].value(), 1e-6);
    }

    #[test]
    fn gru_hidden_bounded_by_tanh() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(2);
        let gru = Gru::new(&mut ps, "g", 3, 5, 1, 0.0, &mut rng);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[1, 20, 3], &mut rng).mul_scalar(10.0));
        let out = gru.forward(&cx, x);
        let v = out.outputs.value();
        assert!(v.max() <= 1.0 && v.min() >= -1.0);
    }

    #[test]
    fn gru_zero_input_zero_weights_gives_zero() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(3);
        let gru = Gru::new(&mut ps, "g", 2, 3, 1, 0.0, &mut rng);
        // zero all params -> gates are 0.5, n = 0, h' = 0.5 h + 0.5·0 ... stays 0 from h0=0
        for id in ps.ids().collect::<Vec<_>>() {
            let z = ps.value(id).zeros_like();
            *ps.value_mut(id) = z;
        }
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::zeros(&[1, 4, 2]));
        let out = gru.forward(&cx, x);
        assert!(out.outputs.value().abs().max() < 1e-6);
    }

    #[test]
    fn lstm_output_shapes() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(4);
        let lstm = Lstm::new(&mut ps, "l", 4, 6, &mut rng);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[2, 7, 4], &mut rng));
        let out = lstm.forward(&cx, x);
        assert_eq!(out.outputs.shape(), vec![2, 7, 6]);
        assert_eq!(out.last_hidden[0].shape(), vec![2, 6]);
    }

    /// The fused GRU layer must agree with the op-by-op `GruCell::step`
    /// composition — both the forward outputs and every parameter
    /// gradient — to float tolerance (the fused path reassociates the
    /// per-step gemms into whole-sequence ones).
    #[test]
    fn fused_layer_matches_composed_steps() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(7);
        let gru = Gru::new(&mut ps, "g", 3, 5, 2, 0.0, &mut rng);
        let x = Tensor::randn(&[2, 6, 3], &mut rng);

        // Fused path (Gru::forward).
        let g1 = Graph::new();
        let cx1 = Fwd::new(&g1, &ps, true, 0);
        let out1 = gru.forward(&cx1, g1.leaf(x.clone()));
        let loss1 = out1.outputs.square().sum_all();
        let grads1 = g1.backward(loss1);
        let collected1 = cx1.collect_grads(&grads1);

        // Composed path: the pre-fusion unroll via GruCell::step.
        let g2 = Graph::new();
        let cx2 = Fwd::new(&g2, &ps, true, 0);
        let x2 = g2.leaf(x);
        let mut layer_input = x2;
        let mut composed = layer_input;
        for cell in &gru.cells {
            let mut h = g2.constant(Tensor::zeros(&[2, 5]));
            let mut steps = Vec::new();
            for t in 0..6 {
                let xt = layer_input.narrow(1, t, 1).reshape(&[2, cell.input_size()]);
                h = cell.step(&cx2, xt, h);
                steps.push(h.reshape(&[2, 1, 5]));
            }
            composed = lttf_autograd::Var::concat(&steps, 1);
            layer_input = composed;
        }
        let loss2 = composed.square().sum_all();
        let grads2 = g2.backward(loss2);
        let collected2 = cx2.collect_grads(&grads2);

        out1.outputs.value().assert_close(&composed.value(), 1e-5);
        assert!(!collected1.is_empty(), "fused path produced no param grads");
        for (pid, gt) in collected1 {
            // The composed path binds each param once per timestep, so its
            // gradient arrives as per-binding pieces to be summed.
            let mut want: Option<Tensor> = None;
            for (p2, piece) in &collected2 {
                if *p2 == pid {
                    match want.as_mut() {
                        None => want = Some(piece.clone()),
                        Some(acc) => acc.add_assign(piece),
                    }
                }
            }
            let want =
                want.unwrap_or_else(|| panic!("composed path missing grad for {pid:?}"));
            gt.assert_close(&want, 1e-3);
        }
    }

    /// A GRU can learn to remember: predict the mean of a short sequence.
    #[test]
    fn gru_learns_sequence_mean() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(5);
        let gru = Gru::new(&mut ps, "g", 1, 8, 1, 0.0, &mut rng);
        let head = crate::Linear::new(&mut ps, "head", 8, 1, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut final_loss = f32::MAX;
        for step in 0..150 {
            let mut data_rng = Rng::seed(100 + (step % 10) as u64);
            let x = Tensor::randn(&[8, 6, 1], &mut data_rng);
            let target = x.mean_axis(1); // [8, 1]
            let g = Graph::new();
            let cx = Fwd::new(&g, &ps, true, step as u64);
            let out = gru.forward(&cx, g.leaf(x));
            let pred = head.forward(&cx, out.last_hidden[0]);
            let loss = crate::mse_loss_to(pred, &target);
            final_loss = loss.value().item();
            let grads = g.backward(loss);
            let collected = cx.collect_grads(&grads);
            ps.zero_grad();
            ps.apply_grads(collected);
            opt.step(&mut ps);
        }
        assert!(
            final_loss < 0.05,
            "GRU failed to learn mean: loss {final_loss}"
        );
    }
}
