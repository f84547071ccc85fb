//! Golden training digest: a few seeded Adam steps on the canonical
//! Conformer must keep every parameter bit.
//!
//! The model is the one behind `tests/forward_digest.rs` and the benchmark
//! ledger's `train_step` workload (c_in 3, lx 48, ly 24, d_model 16, 4
//! heads, strides [1, 12], parameter seed 7). It takes `STEPS` Adam steps
//! at batch 32 on seeded inputs (zero targets) with dropout on, and the
//! FNV-1a hash of every parameter's shape and bits is compared with a
//! digest pinned per kernel backend. The step runs the whole tape: forward, every backward
//! closure (the window-attention and GRU kernels included), gradient
//! collection and the optimizer. Any change that moves one bit of one
//! gradient fails here; a change that means to move bits must say so and
//! re-pin the digests.
//!
//! The thread count never changes the bits, so the test passes under every
//! `LTTF_THREADS`; `scripts/ci.sh` runs it across the SIMD × threads matrix.

use lttf::autograd::Graph;
use lttf::eval::TrainedModel;
use lttf::nn::{Adam, Fwd, Optimizer};
use lttf::tensor::simd::{backend_name, enabled, set_simd_override};

mod canonical;
mod digest;
use canonical::{batch, canonical_config};
use digest::fnv1a;

/// Digest of the parameters after `STEPS` steps on the scalar backend.
const SCALAR: u64 = 0xe3b2_50d0_4d93_9caa;
/// Digest of the parameters after `STEPS` steps on the AVX2+FMA backend.
const AVX2: u64 = 0x558e_0621_314d_4833;

/// Optimizer steps per digest.
const STEPS: u64 = 3;
/// Windows per step, as in the ledger's `train_step`.
const BATCH: usize = 32;

/// Parameter digest after `STEPS` steps on the backend selected right now.
fn params_digest() -> u64 {
    let cfg = canonical_config();
    let mut model = TrainedModel::from_conformer(&cfg, 7);
    let mut opt = Adam::new(1e-3);
    for step in 0..STEPS {
        let data = batch(&cfg, BATCH, 100 + step);
        let g = Graph::new();
        let cx = Fwd::new(&g, model.params(), true, 1000 + step);
        let loss = model.batch_loss(&cx, &data);
        assert!(
            loss.value().item().is_finite(),
            "step {step} loss is not finite"
        );
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        let ps = model.params_mut();
        ps.zero_grad();
        ps.apply_grads(collected);
        opt.step(ps);
    }
    let ps = model.params();
    fnv1a(ps.ids().map(|id| ps.value(id)))
}

#[test]
fn canonical_training_steps_match_the_pinned_digests() {
    // The backend the environment selects (`LTTF_SIMD`), then both
    // backends pinned in turn. One test function, so nothing else in this
    // binary races the process-global override.
    for pin in [None, Some(false), Some(true)] {
        set_simd_override(pin);
        let expect = if enabled() { AVX2 } else { SCALAR };
        let got = params_digest();
        let backend = backend_name();
        println!("{backend}: {got:#018x}");
        assert_eq!(
            got, expect,
            "parameter digest moved on the {backend} backend: {got:#018x}, pinned {expect:#018x}"
        );
    }
    set_simd_override(None);
}
