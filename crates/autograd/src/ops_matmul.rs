//! Differentiable matrix multiplication.

use crate::graph::{Backward, Var};
use lttf_tensor::Tensor;

impl<'g> Var<'g> {
    /// Matrix product; supports the same rank combinations as
    /// [`Tensor::matmul`] (2×2, 3×2, 3×3, 2×3).
    ///
    /// Gradients:
    /// `dA = dC · Bᵀ`, `dB = Aᵀ · dC`, with batch axes summed away where an
    /// operand was shared across the batch. The transposed operand is read
    /// through a strided view ([`lttf_tensor::Tensor::matmul_nt`] /
    /// [`lttf_tensor::Tensor::matmul_tn`]), never materialized as a
    /// transposed tensor.
    pub fn matmul(self, other: Var<'g>) -> Var<'g> {
        let v = self.with_value(|a| other.with_value(|b| a.matmul(b)));
        self.g.push("matmul", v, || {
            Backward::new(vec![self.id, other.id], move |ctx, pg| {
                let (ga, gb) = matmul_grads(ctx.inputs[0], ctx.inputs[1], &ctx.grad);
                pg.add(0, ga);
                pg.add(1, gb);
            })
        })
    }
}

/// `(dA, dB)` of `C = A·B` for the upstream gradient `dC`.
fn matmul_grads(a: &Tensor, b: &Tensor, gc: &Tensor) -> (Tensor, Tensor) {
    // grad A = gC @ B^T
    let mut ga = gc.matmul_nt(b);
    // If an operand was rank-2 but the product was batched, its gradient
    // carries a batch axis that must be summed.
    if a.ndim() == 2 && ga.ndim() == 3 {
        ga = ga.sum_axis(0);
    }
    // grad B = A^T @ gC
    let mut gb = a.matmul_tn(gc);
    if b.ndim() == 2 && gb.ndim() == 3 {
        gb = gb.sum_axis(0);
    }
    (ga, gb)
}

/// [`matmul_grads`] as it was: the transposed operand materialized by
/// `t()`/`swap_axes` before an ordinary product. Kept so a property test
/// can pin the in-place reads to it bit for bit.
#[cfg(test)]
fn reference_matmul_grads(a: &Tensor, b: &Tensor, gc: &Tensor) -> (Tensor, Tensor) {
    fn t_last2(x: &Tensor) -> Tensor {
        match x.ndim() {
            2 => x.t(),
            3 => x.swap_axes(1, 2),
            r => panic!("t_last2 expects rank 2 or 3, got {r}"),
        }
    }
    let mut ga = gc.matmul(&t_last2(b));
    if a.ndim() == 2 && ga.ndim() == 3 {
        ga = ga.sum_axis(0);
    }
    let mut gb = t_last2(a).matmul(gc);
    if b.ndim() == 2 && gb.ndim() == 3 {
        gb = gb.sum_axis(0);
    }
    (ga, gb)
}

#[cfg(test)]
mod tests {
    use super::{matmul_grads, reference_matmul_grads};
    use crate::check::grad_check;
    use lttf_tensor::simd::on_both_backends;
    use lttf_tensor::{Rng, Tensor};
    use lttf_testkit::prop::Gen;
    use lttf_testkit::properties;

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

    /// A product of one of the four rank pairings — batched, shared right,
    /// shared left, plain — with extents that cross the gemm's 4-row and
    /// 8/16-column tiles and, now and then, its 256-deep k-tile.
    fn arb_product() -> Gen<(usize, usize, usize, usize, usize, u64)> {
        Gen::new(|rng| {
            let mut dim = || {
                if rng.usize_in(0, 8) == 0 {
                    rng.usize_in(250, 300)
                } else {
                    rng.usize_in(1, 40)
                }
            };
            let (m, k, n) = (dim(), dim(), dim());
            let pairing = rng.usize_in(0, 4);
            (pairing, rng.usize_in(1, 5), m, k, n, rng.next_u64())
        })
    }

    properties! {
        cases = 48;

        fn matmul_grads_match_the_materialized_transposes(case in arb_product()) {
            let (pairing, bt, m, k, n, seed) = case;
            let (sa, sb, sc): (Vec<usize>, Vec<usize>, Vec<usize>) = match pairing {
                0 => (vec![bt, m, k], vec![bt, k, n], vec![bt, m, n]),
                1 => (vec![bt, m, k], vec![k, n], vec![bt, m, n]),
                2 => (vec![m, k], vec![bt, k, n], vec![bt, m, n]),
                _ => (vec![m, k], vec![k, n], vec![m, n]),
            };
            let rng = &mut Rng::seed(seed);
            let (a, b, gc) = (Tensor::randn(&sa, rng), Tensor::randn(&sb, rng), Tensor::randn(&sc, rng));
            let (scalar, simd) = on_both_backends(|| -> Result<(), String> {
                let (ga, gb) = matmul_grads(&a, &b, &gc);
                let (ra, rb) = reference_matmul_grads(&a, &b, &gc);
                for (what, got, want) in [("dA", &ga, &ra), ("dB", &gb, &rb)] {
                    if got.shape() != want.shape() {
                        return Err(format!("{what}: shape {:?} vs {:?}", got.shape(), want.shape()));
                    }
                    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                        if x.to_bits() != y.to_bits() {
                            return Err(format!("{what} element {i}: {x:e} vs reference {y:e}"));
                        }
                    }
                }
                Ok(())
            });
            scalar.map_err(|e| format!("scalar backend: {e}"))?;
            simd.map_err(|e| format!("simd backend: {e}"))?;
        }
    }
}
