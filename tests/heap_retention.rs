//! The heap keeps its pages across training steps, in a test binary of
//! its own: the fault counter is process-wide, and any other test in the
//! same process would fault pages in concurrently with the measurement.
//!
//! A training step frees most of what its forward allocated, and the next
//! step allocates it again. With glibc's default thresholds the freed top
//! of the heap (and every block of 128 KiB or more, served by `mmap`) went
//! back to the kernel at each step, and each step faulted thousands of
//! pages in again. The program's allocator raises both thresholds before
//! its first allocation (`lttf::obs::alloc`), so once the step has run a
//! few times its pages stay mapped and further steps fault almost nothing.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use lttf::autograd::Graph;
use lttf::eval::TrainedModel;
use lttf::nn::{Adam, Fwd, Optimizer};

mod digest;
use digest::{batch, canonical_config};

/// Steps that bring the heap to its working size before counting.
const WARM_STEPS: u64 = 3;
/// Steps whose faults are counted.
const STEPS: u64 = 20;
/// Minor faults allowed over [`STEPS`] steps. Trimmed after every step,
/// the canonical model faults in ~7,000 pages over 20 steps at batch 32;
/// kept, it faults ~100–300 (thread stacks, the odd new high-water mark).
const MAX_FAULTS: u64 = 800;

/// Minor page faults of this process so far (`minflt`, field 10 of
/// `/proc/self/stat`).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) is parenthesized and may hold spaces;
    // fields 3 onwards follow its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    rest.split_whitespace()
        .nth(10 - 3)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

#[test]
fn training_steps_reuse_their_pages() {
    let cfg = canonical_config();
    let mut model = TrainedModel::from_conformer(&cfg, 7);
    let mut opt = Adam::new(1e-3);
    let mut step = |i: u64| {
        let data = batch(&cfg, 32, 100 + i);
        let g = Graph::new();
        let cx = Fwd::new(&g, model.params(), true, 1000 + i);
        let loss = model.batch_loss(&cx, &data);
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        let ps = model.params_mut();
        ps.zero_grad();
        ps.apply_grads(collected);
        opt.step(ps);
    };
    for i in 0..WARM_STEPS {
        step(i);
    }
    let before = minor_faults();
    for i in WARM_STEPS..WARM_STEPS + STEPS {
        step(i);
    }
    let faults = minor_faults() - before;
    println!("{faults} minor faults over {STEPS} warm training steps");
    assert!(
        faults < MAX_FAULTS,
        "{faults} minor faults over {STEPS} warm training steps (bound {MAX_FAULTS}): \
         freed heap pages went back to the kernel between steps"
    );
}
