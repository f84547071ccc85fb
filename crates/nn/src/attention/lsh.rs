//! Reformer's LSH attention: hash queries/keys into buckets with random
//! hyperplane projections and attend only within buckets.
//!
//! Deviation from the original (documented in the module docs of
//! `attention`): bucket assignments are computed from batch-aggregated
//! projections, and Q/K are hashed with the same random rotation (Reformer
//! shares QK weights, so this matches its spirit).

use crate::attention::full::full_attention;
use crate::param::Fwd;
use lttf_autograd::Var;

/// LSH attention on head-folded tensors. Requires `Lq == Lk` (self-
/// attention); for cross-attention callers should fall back to full
/// attention.
pub fn lsh_attention<'g>(
    cx: &Fwd<'g, '_>,
    q: Var<'g>,
    k: Var<'g>,
    v: Var<'g>,
    n_buckets: usize,
) -> Var<'g> {
    let (lq, dh) = {
        let s = q.shape();
        (s[1], s[2])
    };
    let lk = k.shape()[1];
    if lq != lk || n_buckets <= 1 {
        return full_attention(q, k, v, None);
    }

    // Random rotation hashing from detached values. Positions with the
    // same argmax bucket attend to each other.
    let buckets = {
        let proj = cx.noise(&[dh, n_buckets]);
        let qv = q.value().mean_axis(0); // [lq, dh] aggregated over bh
        let kv = k.value().mean_axis(0);
        let shared = qv.add(&kv).mul_scalar(0.5);
        let rot = shared.matmul(&proj); // [lq, n_buckets]
        (0..lq)
            .map(|i| {
                let row = rot.narrow(0, i, 1);
                row.argmax() % n_buckets
            })
            .collect::<Vec<usize>>()
    };

    // Group positions by bucket and attend within each group.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_buckets];
    for (i, &b) in buckets.iter().enumerate() {
        groups[b].push(i);
    }
    let mut pieces: Vec<Var<'g>> = Vec::new();
    let mut member_order: Vec<usize> = Vec::new();
    for group in groups.iter().filter(|g| !g.is_empty()) {
        let qs = q.select(1, group);
        let ks = k.select(1, group);
        let vs = v.select(1, group);
        pieces.push(full_attention(qs, ks, vs, None));
        member_order.extend_from_slice(group);
    }
    let stacked = Var::concat(&pieces, 1); // [bh, lq, dv] in bucket order
                                           // Invert the permutation to restore time order.
    let mut inverse = vec![0usize; lq];
    for (pos, &orig) in member_order.iter().enumerate() {
        inverse[orig] = pos;
    }
    stacked.select(1, &inverse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSet;
    use lttf_autograd::Graph;
    use lttf_tensor::{Rng, Tensor};

    #[test]
    fn shape_preserved() {
        let ps = ParamSet::new();
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 1);
        let mut rng = Rng::seed(2);
        let q = g.leaf(Tensor::randn(&[2, 16, 4], &mut rng));
        let k = g.leaf(Tensor::randn(&[2, 16, 4], &mut rng));
        let v = g.leaf(Tensor::randn(&[2, 16, 4], &mut rng));
        assert_eq!(lsh_attention(&cx, q, k, v, 4).shape(), vec![2, 16, 4]);
    }

    #[test]
    fn single_bucket_equals_full() {
        let ps = ParamSet::new();
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 1);
        let mut rng = Rng::seed(3);
        let q = g.leaf(Tensor::randn(&[1, 8, 4], &mut rng));
        let k = g.leaf(Tensor::randn(&[1, 8, 4], &mut rng));
        let v = g.leaf(Tensor::randn(&[1, 8, 4], &mut rng));
        let a = lsh_attention(&cx, q, k, v, 1).value();
        let b = full_attention(q, k, v, None).value();
        a.assert_close(&b, 1e-5);
    }

    #[test]
    fn bucket_locality_blocks_cross_talk() {
        // Two well-separated clusters of q/k vectors land in different
        // buckets with overwhelming probability, so values do not mix
        // between clusters: every output row must be a convex combination
        // of same-bucket values only. We verify rows equal in-bucket means
        // when q·k ≈ 0 inside the bucket.
        let ps = ParamSet::new();
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 7);
        let l = 8;
        // cluster A: +e0 direction, cluster B: −e0.
        let mut qd = Tensor::zeros(&[1, l, 2]);
        for i in 0..l {
            qd.set(&[0, i, 0], if i < l / 2 { 5.0 } else { -5.0 });
        }
        let kd = qd.clone();
        let mut vd = Tensor::zeros(&[1, l, 1]);
        for i in 0..l {
            vd.set(&[0, i, 0], if i < l / 2 { 1.0 } else { -1.0 });
        }
        let out = lsh_attention(&cx, g.leaf(qd), g.leaf(kd), g.leaf(vd), 2).value();
        // Outputs keep the sign of their own cluster (no cross-mixing).
        for i in 0..l {
            let expect = if i < l / 2 { 1.0 } else { -1.0 };
            assert!(
                (out.at(&[0, i, 0]) - expect).abs() < 0.2,
                "row {i}: {}",
                out.at(&[0, i, 0])
            );
        }
    }

    #[test]
    fn gradients_flow() {
        let ps = ParamSet::new();
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 5);
        let mut rng = Rng::seed(6);
        let q = g.leaf(Tensor::randn(&[1, 12, 4], &mut rng));
        let v = g.leaf(Tensor::randn(&[1, 12, 4], &mut rng));
        let loss = lsh_attention(&cx, q, q, v, 3).square().sum_all();
        let grads = g.backward(loss);
        assert!(grads.get(q).unwrap().abs().sum() > 0.0);
        assert!(grads.get(v).unwrap().abs().sum() > 0.0);
    }
}
