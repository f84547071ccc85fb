//! The loss: MSE, the paper's training objective (Eq. 18).

use lttf_autograd::Var;
use lttf_tensor::Tensor;

/// Mean squared error between two variables of the same shape.
pub fn mse_loss<'g>(pred: Var<'g>, target: Var<'g>) -> Var<'g> {
    pred.sub(target).square().mean_all()
}

/// Mean squared error against a constant target tensor.
pub fn mse_loss_to<'g>(pred: Var<'g>, target: &Tensor) -> Var<'g> {
    let t = pred.graph().constant(target.clone());
    mse_loss(pred, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_autograd::Graph;

    #[test]
    fn mse_zero_for_equal() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
        let b = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
        assert_eq!(mse_loss(a, b).value().item(), 0.0);
    }

    #[test]
    fn mse_hand_computed() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_slice(&[0.0, 0.0]));
        let b = g.leaf(Tensor::from_slice(&[3.0, 4.0]));
        // (9 + 16) / 2 = 12.5
        assert_eq!(mse_loss(a, b).value().item(), 12.5);
    }

    #[test]
    fn mse_gradient_points_toward_target() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_slice(&[0.0]));
        let loss = mse_loss_to(a, &Tensor::from_slice(&[2.0]));
        let grads = g.backward(loss);
        // d/da (a−2)² = 2(a−2) = −4
        assert!((grads.get(a).unwrap().data()[0] + 4.0).abs() < 1e-6);
    }
}
