//! Differentiable matrix multiplication and the dense layer's product.

use crate::graph::{Backward, Var};
use crate::ops_basic::reduce_to_shape_ref;
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
    /// transposed tensor, and a shared operand's gradient is summed over
    /// the batch as it is computed ([`lttf_tensor::Tensor::matmul_tn_sum`]).
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

    /// The dense layer `x·W + b` as one node, for `x` of rank 2 or 3, `W`
    /// `[in, out]` and `b` `[out]`.
    ///
    /// The bias rows are added in place into the product's buffer: no
    /// backward reads the bare product, so the tape does not keep it. Each
    /// element is `product + bias` and each gradient is the one
    /// `x.matmul(w).add(b)` gives, bit for bit: `db` is the bias reduction
    /// of `add`'s backward, `dx` and `dW` are [`Var::matmul`]'s.
    ///
    /// # Panics
    /// As [`Tensor::matmul`], and if `b` is not `[out]`.
    pub fn linear(self, w: Var<'g>, b: Var<'g>) -> Var<'g> {
        let mut v = self.with_value(|x| w.with_value(|w| x.matmul(w)));
        b.with_value(|b| v.add_row_assign(b));
        self.g.push("linear", v, || {
            let sb = b.shape();
            Backward::new(vec![self.id, w.id, b.id], move |ctx, pg| {
                let db = reduce_to_shape_ref(&ctx.grad, &sb);
                let (gx, gw) = matmul_grads(ctx.inputs[0], ctx.inputs[1], &ctx.grad);
                pg.add(0, gx);
                pg.add(1, gw);
                pg.add(2, db);
            })
        })
    }
}

/// `(dA, dB)` of `C = A·B` for the upstream gradient `dC`. An operand that
/// was rank 2 while the product was batched gets the batch sum of its
/// gradient, bit for bit the `sum_axis(0)` of the batched stack.
fn matmul_grads(a: &Tensor, b: &Tensor, gc: &Tensor) -> (Tensor, Tensor) {
    let batched = gc.ndim() == 3;
    // grad A = gC @ B^T
    let ga = if a.ndim() == 2 && batched {
        gc.matmul_nt_sum(b)
    } else {
        gc.matmul_nt(b)
    };
    // grad B = A^T @ gC
    let gb = if b.ndim() == 2 && batched {
        a.matmul_tn_sum(gc)
    } else {
        a.matmul_tn(gc)
    };
    (ga, gb)
}

/// [`matmul_grads`] as it was: the transposed operand materialized by
/// `t()`/`swap_axes` before an ordinary product, and a shared operand's
/// gradient summed by `sum_axis(0)` over the batched stack. Kept so a
/// property test can pin the in-place reads and the batch sums to it bit
/// for bit.
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
    use crate::Graph;
    use lttf_parallel::set_thread_threads_override;
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
            // At 4 threads the batch sums split their output rows over the pool.
            on_both_backends_and_threads(|| {
                let (ga, gb) = matmul_grads(&a, &b, &gc);
                let (ra, rb) = reference_matmul_grads(&a, &b, &gc);
                same_bits(&[("dA", &ga, &ra), ("dB", &gb, &rb)])
            })?;
        }

        fn linear_node_matches_matmul_then_add(case in arb_linear()) {
            let (x_shape, n, seed) = case;
            let rng = &mut Rng::seed(seed);
            let k = *x_shape.last().unwrap();
            let x = Tensor::randn(&x_shape, rng);
            let w = Tensor::randn(&[k, n], rng);
            let b = Tensor::randn(&[n], rng);
            let mut out_shape = x_shape.clone();
            *out_shape.last_mut().unwrap() = n;
            let seed_grad = Tensor::randn(&out_shape, rng);
            // Value and the three gradients, through one `linear` node or
            // the `matmul` and `add` nodes it replaced.
            let run = |fused: bool| {
                let g = Graph::new();
                let (vx, vw, vb) = (g.leaf(x.clone()), g.leaf(w.clone()), g.leaf(b.clone()));
                let y = if fused { vx.linear(vw, vb) } else { vx.matmul(vw).add(vb) };
                let grads = g.backward_with_seed(y, seed_grad.clone());
                let got = |v| grads.get(v).expect("leaf gradient").clone();
                [y.value(), got(vx), got(vw), got(vb)]
            };
            on_both_backends_and_threads(|| {
                let (fused, composed) = (run(true), run(false));
                let names = ["y", "dx", "dW", "db"];
                let pairs: Vec<_> = (0..4).map(|i| (names[i], &fused[i], &composed[i])).collect();
                same_bits(&pairs)
            })?;
        }
    }

    /// A Linear input, 2-D `[rows, in]` or 3-D `[b, len, in]`, and an
    /// output width; widths cross the gemm's 8/16-column tiles.
    fn arb_linear() -> Gen<(Vec<usize>, usize, u64)> {
        Gen::new(|rng| {
            let k = rng.usize_in(1, 40);
            let n = rng.usize_in(1, 40);
            let x_shape = if rng.usize_in(0, 2) == 0 {
                vec![rng.usize_in(1, 60), k]
            } else {
                vec![rng.usize_in(1, 9), rng.usize_in(1, 50), k]
            };
            (x_shape, n, rng.next_u64())
        })
    }

    /// `f` on both kernel backends at 1 and 4 pool threads (this thread's
    /// override, so no other test's pool count moves).
    fn on_both_backends_and_threads(f: impl Fn() -> Result<(), String>) -> Result<(), String> {
        for threads in [1, 4] {
            set_thread_threads_override(Some(threads));
            let (scalar, simd) = on_both_backends(&f);
            set_thread_threads_override(None);
            scalar.map_err(|e| format!("scalar backend, {threads} threads: {e}"))?;
            simd.map_err(|e| format!("simd backend, {threads} threads: {e}"))?;
        }
        Ok(())
    }

    /// `Ok` when every `(name, got, want)` pair agrees in shape and bits.
    fn same_bits(pairs: &[(&str, &Tensor, &Tensor)]) -> Result<(), String> {
        for &(what, got, want) in pairs {
            if got.shape() != want.shape() {
                return Err(format!(
                    "{what}: shape {:?} vs {:?}",
                    got.shape(),
                    want.shape()
                ));
            }
            for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!("{what} element {i}: {x:e} vs reference {y:e}"));
                }
            }
        }
        Ok(())
    }
}
