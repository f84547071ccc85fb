//! Input embeddings: value (token) embedding via 1-D convolution, fixed
//! sinusoidal positional encoding, and linear time-feature embedding —
//! the standard Informer-style embedding stack shared by all
//! Transformer-family models in this reproduction.

use crate::init::kaiming_uniform;
use crate::linear::Linear;
use crate::param::{Fwd, ParamId, ParamSet};
use lttf_autograd::Var;
use lttf_tensor::{Rng, Tensor};

/// Sinusoidal positional encoding of shape `[len, d_model]`:
/// `PE[t, 2i] = sin(t / 10000^{2i/d})`, `PE[t, 2i+1] = cos(…)`.
pub fn positional_encoding(len: usize, d_model: usize) -> Tensor {
    let mut data = vec![0.0f32; len * d_model];
    for t in 0..len {
        for i in 0..d_model {
            let exponent = (2 * (i / 2)) as f32 / d_model as f32;
            let angle = t as f32 / 10_000f32.powf(exponent);
            data[t * d_model + i] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    Tensor::from_vec(data, &[len, d_model])
}

/// Value embedding: a kernel-3, padding-1 1-D convolution mapping
/// `[batch, len, c_in] → [batch, len, d_model]`.
pub struct TokenEmbedding {
    weight: ParamId,
    c_in: usize,
}

impl TokenEmbedding {
    /// Allocate the embedding convolution.
    pub fn new(ps: &mut ParamSet, name: &str, c_in: usize, d_model: usize, rng: &mut Rng) -> Self {
        let weight = ps.add(
            format!("{name}.conv"),
            kaiming_uniform(&[d_model, c_in, 3], c_in * 3, rng),
        );
        TokenEmbedding { weight, c_in }
    }

    /// Apply: `[batch, len, c_in] → [batch, len, d_model]`.
    pub fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> Var<'g> {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "token embedding input must be [b, len, c]");
        assert_eq!(
            shape[2], self.c_in,
            "token embedding expects {} channels, got {:?}",
            self.c_in, shape
        );
        x.conv1d(cx.param(self.weight), 1, 1)
    }
}

/// The combined input embedding
/// `DataEmbedding(x, marks) = TokenEmb(x) + PosEnc + Linear(marks)`,
/// with dropout — the embedding used by Informer/Longformer/Reformer/
/// LogTrans and by Conformer's encoder/decoder inputs.
pub struct DataEmbedding {
    value: TokenEmbedding,
    time: Linear,
    d_model: usize,
    dropout: f32,
    use_position: bool,
}

impl DataEmbedding {
    /// Allocate the embedding stack. `mark_dim` is the number of time
    /// features per step. `use_position=false` matches the paper's
    /// Autoformer configuration ("omit the position embedding").
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        c_in: usize,
        mark_dim: usize,
        d_model: usize,
        dropout: f32,
        use_position: bool,
        rng: &mut Rng,
    ) -> Self {
        DataEmbedding {
            value: TokenEmbedding::new(ps, &format!("{name}.value"), c_in, d_model, rng),
            time: Linear::with_bias(ps, &format!("{name}.time"), mark_dim, d_model, false, rng),
            d_model,
            dropout,
            use_position,
        }
    }

    /// Embed values `x: [b, len, c_in]` with time features
    /// `marks: [b, len, mark_dim]`.
    pub fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>, marks: Var<'g>) -> Var<'g> {
        let len = x.shape()[1];
        let mut e = self.value.forward(cx, x).add(self.time.forward(cx, marks));
        if self.use_position {
            let pe = positional_encoding(len, self.d_model).reshape(&[1, len, self.d_model]);
            e = e.add(cx.constant(pe));
        }
        cx.dropout(e, self.dropout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_autograd::Graph;

    #[test]
    fn positional_encoding_shape_and_range() {
        let pe = positional_encoding(10, 8);
        assert_eq!(pe.shape(), &[10, 8]);
        assert!(pe.max() <= 1.0 && pe.min() >= -1.0);
        // first row: sin(0)=0, cos(0)=1 alternating
        assert_eq!(pe.at(&[0, 0]), 0.0);
        assert_eq!(pe.at(&[0, 1]), 1.0);
    }

    #[test]
    fn positional_encoding_rows_distinct() {
        let pe = positional_encoding(50, 16);
        let a = pe.narrow(0, 3, 1);
        let b = pe.narrow(0, 17, 1);
        assert!(a.max_abs_diff(&b) > 0.1);
    }

    #[test]
    fn token_embedding_shape() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let emb = TokenEmbedding::new(&mut ps, "e", 7, 16, &mut rng);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[2, 12, 7], &mut rng));
        let y = emb.forward(&cx, x);
        assert_eq!(y.shape(), vec![2, 12, 16]);
    }

    #[test]
    fn data_embedding_shape_and_determinism() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(1);
        let emb = DataEmbedding::new(&mut ps, "e", 7, 4, 16, 0.0, true, &mut rng);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[2, 12, 7], &mut rng));
        let m = g.leaf(Tensor::randn(&[2, 12, 4], &mut rng));
        let y1 = emb.forward(&cx, x, m).value();
        assert_eq!(y1.shape(), &[2, 12, 16]);
        let y2 = emb.forward(&cx, x, m).value();
        y1.assert_close(&y2, 0.0);
    }

    #[test]
    fn data_embedding_position_toggle_changes_output() {
        let mut rng = Rng::seed(2);
        let mut ps1 = ParamSet::new();
        let with_pos = DataEmbedding::new(&mut ps1, "e", 3, 2, 8, 0.0, true, &mut rng);
        let mut rng2 = Rng::seed(2);
        let mut ps2 = ParamSet::new();
        let without = DataEmbedding::new(&mut ps2, "e", 3, 2, 8, 0.0, false, &mut rng2);

        let x = Tensor::randn(&[1, 6, 3], &mut Rng::seed(3));
        let m = Tensor::randn(&[1, 6, 2], &mut Rng::seed(4));

        let g1 = Graph::new();
        let c1 = Fwd::new(&g1, &ps1, false, 0);
        let y1 = with_pos
            .forward(&c1, g1.leaf(x.clone()), g1.leaf(m.clone()))
            .value();
        let g2 = Graph::new();
        let c2 = Fwd::new(&g2, &ps2, false, 0);
        let y2 = without.forward(&c2, g2.leaf(x), g2.leaf(m)).value();
        assert!(y1.max_abs_diff(&y2) > 1e-3);
    }
}
