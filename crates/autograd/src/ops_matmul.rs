//! Differentiable matrix multiplication.

use crate::graph::{Backward, Var};
use lttf_tensor::Tensor;

/// Transpose the last two axes of a 2-D or 3-D tensor.
fn t_last2(x: &Tensor) -> Tensor {
    match x.ndim() {
        2 => x.t(),
        3 => x.swap_axes(1, 2),
        r => panic!("t_last2 expects rank 2 or 3, got {r}"),
    }
}

impl<'g> Var<'g> {
    /// Matrix product; supports the same rank combinations as
    /// [`Tensor::matmul`] (2×2, 3×2, 3×3, 2×3).
    ///
    /// Gradients:
    /// `dA = dC · Bᵀ`, `dB = Aᵀ · dC`, with batch axes summed away where an
    /// operand was shared across the batch.
    pub fn matmul(self, other: Var<'g>) -> Var<'g> {
        let v = self.with_value(|a| other.with_value(|b| a.matmul(b)));
        self.g.push("matmul", v, || {
            let (ra, rb) = (self.shape().len(), other.shape().len());
            Backward::new(vec![self.id, other.id], move |ctx| {
                let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
                let gc = ctx.grad;
                // grad A = gC @ B^T
                let mut ga = gc.matmul(&t_last2(b));
                // grad B = A^T @ gC
                let mut gb = t_last2(a).matmul(gc);
                // If an operand was rank-2 but the product was batched,
                // its gradient carries a batch axis that must be summed.
                if ra == 2 && ga.ndim() == 3 {
                    ga = ga.sum_axis(0);
                }
                if rb == 2 && gb.ndim() == 3 {
                    gb = gb.sum_axis(0);
                }
                vec![ga, gb]
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::check::grad_check;
    use lttf_tensor::{Rng, Tensor};

    fn sample(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, &mut Rng::seed(seed))
    }

    #[test]
    fn matmul_2x2_grads() {
        let a = sample(&[3, 4], 1);
        let b = sample(&[4, 2], 2);
        grad_check(&[a, b], |_, xs| xs[0].matmul(xs[1]).sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn matmul_batched_grads() {
        let a = sample(&[2, 3, 4], 3);
        let b = sample(&[2, 4, 2], 4);
        grad_check(
            &[a, b],
            |_, xs| xs[0].matmul(xs[1]).square().sum_all(),
            2e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn matmul_shared_right_grads() {
        let a = sample(&[2, 3, 4], 5);
        let b = sample(&[4, 2], 6);
        grad_check(&[a, b], |_, xs| xs[0].matmul(xs[1]).sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn matmul_shared_left_grads() {
        let a = sample(&[3, 4], 7);
        let b = sample(&[2, 4, 2], 8);
        grad_check(&[a, b], |_, xs| xs[0].matmul(xs[1]).sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn matmul_chain_grads() {
        // f(A, B, C) = sum(A @ B @ C)
        let a = sample(&[2, 3], 9);
        let b = sample(&[3, 3], 10);
        let c = sample(&[3, 2], 11);
        grad_check(
            &[a, b, c],
            |_, xs| xs[0].matmul(xs[1]).matmul(xs[2]).sum_all(),
            2e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }
}
