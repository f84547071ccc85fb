//! Optimizers: Adam (the paper's choice) and SGD with momentum, plus
//! gradient clipping.

use crate::param::ParamSet;
use lttf_tensor::Tensor;

/// A first-order optimizer over a [`ParamSet`].
pub trait Optimizer {
    /// Apply one update step using the accumulated gradients.
    fn step(&mut self, ps: &mut ParamSet);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Override the learning rate (the trainer decays it once per epoch).
    fn set_lr(&mut self, lr: f32);
}

/// Adam (Kingma & Ba 2015) with the paper's defaults:
/// `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`. Construct with
/// [`Adam::with_weight_decay`] for the decoupled-decay (AdamW) variant.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with default betas and the given learning rate. The paper uses
    /// `1e-4` for Conformer training.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// AdamW (Loshchilov & Hutter 2019): weight decay applied directly to
    /// the parameters, decoupled from the adaptive gradient statistics.
    pub fn with_weight_decay(lr: f32, weight_decay: f32) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        let mut a = Self::new(lr);
        a.weight_decay = weight_decay;
        a
    }

    fn ensure_state(&mut self, ps: &ParamSet) {
        while self.m.len() < ps.len() {
            let i = self.m.len();
            let shape = ps.params[i].value.shape().to_vec();
            self.m.push(Tensor::zeros(&shape));
            self.v.push(Tensor::zeros(&shape));
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, ps: &mut ParamSet) {
        self.ensure_state(ps);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in ps.params.iter_mut().enumerate() {
            let g = &p.grad;
            // m ← β₁ m + (1−β₁) g ; v ← β₂ v + (1−β₂) g²
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mv, vv), &gv) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(g.data())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            }
            for ((pv, &mv), &vv) in p.value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let mhat = mv / bc1;
                let vhat = vv / bc2;
                *pv -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * *pv);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// SGD with classical momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD (`momentum = 0`).
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum `μ`: `v ← μv − lr·g ; θ ← θ + v`.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, ps: &mut ParamSet) {
        while self.velocity.len() < ps.len() {
            let i = self.velocity.len();
            self.velocity.push(ps.params[i].value.zeros_like());
        }
        for (i, p) in ps.params.iter_mut().enumerate() {
            let vel = &mut self.velocity[i];
            for ((vv, pv), &gv) in vel
                .data_mut()
                .iter_mut()
                .zip(p.value.data_mut().iter_mut())
                .zip(p.grad.data())
            {
                *vv = self.momentum * *vv - self.lr * gv;
                *pv += *vv;
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Global-norm gradient clipping.
pub struct GradClip {
    max_norm: f32,
}

impl GradClip {
    /// Clip gradients so their global L2 norm is at most `max_norm`.
    pub fn new(max_norm: f32) -> Self {
        GradClip { max_norm }
    }

    /// Rescale all gradients in place if the global norm exceeds the bound.
    /// Returns the pre-clip norm.
    pub fn apply(&self, ps: &mut ParamSet) -> f32 {
        let norm = ps.grad_norm();
        if norm > self.max_norm && norm > 0.0 {
            let scale = self.max_norm / norm;
            for p in ps.params.iter_mut() {
                p.grad.scale_assign(scale);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_tensor::Tensor;

    /// Minimize f(x) = Σ (x − c)² with each optimizer.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let target = Tensor::from_slice(&[3.0, -2.0, 0.5]);
        let mut ps = ParamSet::new();
        let x = ps.add("x", Tensor::zeros(&[3]));
        for _ in 0..steps {
            // grad = 2(x − c)
            let g = ps.value(x).sub(&target).mul_scalar(2.0);
            ps.zero_grad();
            ps.accumulate_grad(x, &g);
            opt.step(&mut ps);
        }
        ps.value(x).sub(&target).square().sum()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let loss = quadratic_descent(&mut opt, 200);
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let loss = quadratic_descent(&mut opt, 200);
        assert!(loss < 1e-6, "loss {loss}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let loss = quadratic_descent(&mut opt, 200);
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    fn weight_decay_shrinks_unused_parameters() {
        // With zero gradients, AdamW still pulls weights toward zero while
        // plain Adam leaves them alone.
        let mut ps = ParamSet::new();
        let x = ps.add("x", Tensor::from_slice(&[1.0, -2.0]));
        ps.zero_grad();
        let mut adamw = Adam::with_weight_decay(0.1, 0.1);
        for _ in 0..10 {
            adamw.step(&mut ps);
        }
        let decayed = ps.value(x).abs().sum();
        assert!(decayed < 3.0, "no decay applied: {decayed}");

        let mut ps2 = ParamSet::new();
        let y = ps2.add("y", Tensor::from_slice(&[1.0, -2.0]));
        ps2.zero_grad();
        let mut adam = Adam::new(0.1);
        for _ in 0..10 {
            adam.step(&mut ps2);
        }
        assert_eq!(ps2.value(y).data(), &[1.0, -2.0]);
    }

    #[test]
    fn adamw_still_converges() {
        let mut opt = Adam::with_weight_decay(0.1, 0.01);
        let loss = quadratic_descent(&mut opt, 200);
        assert!(loss < 1e-2, "loss {loss}");
    }

    #[test]
    fn lr_get_set() {
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.lr(), 0.1);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }

    #[test]
    fn grad_clip_rescales() {
        let mut ps = ParamSet::new();
        let x = ps.add("x", Tensor::zeros(&[2]));
        ps.accumulate_grad(x, &Tensor::from_slice(&[3.0, 4.0])); // norm 5
        let clip = GradClip::new(1.0);
        let pre = clip.apply(&mut ps);
        assert_eq!(pre, 5.0);
        assert!((ps.grad_norm() - 1.0).abs() < 1e-5);
        // direction preserved
        let g = ps.grad(x);
        assert!((g.data()[0] / g.data()[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn grad_clip_noop_below_bound() {
        let mut ps = ParamSet::new();
        let x = ps.add("x", Tensor::zeros(&[2]));
        ps.accumulate_grad(x, &Tensor::from_slice(&[0.3, 0.4]));
        GradClip::new(1.0).apply(&mut ps);
        assert_eq!(ps.grad(x).data(), &[0.3, 0.4]);
    }

    #[test]
    fn adam_handles_params_added_later() {
        let mut ps = ParamSet::new();
        let a = ps.add("a", Tensor::zeros(&[1]));
        let mut opt = Adam::new(0.1);
        ps.zero_grad();
        ps.accumulate_grad(a, &Tensor::from_slice(&[1.0]));
        opt.step(&mut ps);
        let b = ps.add("b", Tensor::zeros(&[1]));
        ps.zero_grad();
        ps.accumulate_grad(b, &Tensor::from_slice(&[1.0]));
        opt.step(&mut ps); // must not panic
        assert!(ps.value(b).data()[0] < 0.0);
    }
}
