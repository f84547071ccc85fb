//! Host speed, measured apart from the program under test.
//!
//! A shared host can run the same instructions at very different speeds
//! from one moment to the next. On the two-vCPU guest this benchmark was
//! built on, a fixed loop ran anywhere from its fastest time to twice
//! that, switching within a fraction of a second and drifting over
//! minutes, each vCPU on its own. Thread CPU time slowed just as much, so
//! no clock sees past it, and every CPU-bound timing inherits it: ten runs
//! of identical code spread by up to 60%.
//!
//! So the workloads run in short bursts, and before and after each burst a
//! yardstick owned by the benchmark is timed on the CPU the measured work
//! runs on: a probe. The yardstick mixes three small kernels (integer and
//! float register work, a sort, a small matrix product) whose data stays
//! in the L1 cache, so a probe leaves the program's cached data in place.
//! A burst's slowdown is the geometric mean of the probes on either side
//! of it over [`NOMINAL_S`]; `meter` divides CPU-bound timings by it.

use std::hint::black_box;
use std::time::Instant;

use crate::affinity;

/// The yardstick's time on an idle vCPU of the host this benchmark was
/// built on (its fastest tenth of probes), seconds. Host-adjusted timings
/// read as they would at that speed.
pub const NOMINAL_S: f64 = 0.23e-3;
/// Timings of each kernel per probe. The fastest counts, so an interrupt
/// during one does not read as a slow host.
const REPS: usize = 3;
/// Most CPUs a workload runs on: the load limit.
pub const MAX_CPUS: usize = 2;
/// Keys the sort kernel sorts.
const SORT_LEN: usize = 2000;
/// Side of the matrix product's square operands.
const MAT: usize = 64;

/// Integer mixing and a short float recurrence, kept in registers.
fn register_work() -> f32 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = [0f32; 32];
    for _ in 0..black_box(40_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = (x >> 40) as f32 * 1e-7;
        for a in acc.iter_mut() {
            *a = *a * 0.999 + v;
        }
        black_box(&mut acc);
    }
    acc.iter().sum()
}

/// `c += a * b` for square `MAT`-sided row-major matrices.
fn matmul(a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..MAT {
        for k in 0..MAT {
            let x = a[i * MAT + k];
            for (cij, bkj) in c[i * MAT..(i + 1) * MAT]
                .iter_mut()
                .zip(&b[k * MAT..(k + 1) * MAT])
            {
                *cij += x * bkj;
            }
        }
    }
}

/// Seconds of the fastest of `REPS` runs of `f`.
fn fastest(mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One timing of the yardstick on the calling thread, seconds.
pub fn yardstick() -> f64 {
    let keys: Vec<u32> = (0..SORT_LEN as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mut scratch = keys.clone();
    let (a, b) = (vec![0.25f32; MAT * MAT], vec![0.5f32; MAT * MAT]);
    let mut c = vec![0f32; MAT * MAT];
    fastest(|| {
        black_box(register_work());
    }) + fastest(|| {
        scratch.copy_from_slice(black_box(&keys));
        scratch.sort_unstable();
        black_box(&mut scratch);
    }) + fastest(|| {
        matmul(black_box(&a), black_box(&b), &mut c);
        black_box(&mut c);
    })
}

/// The CPUs a workload of `n` threads' worth of work runs on: the first
/// `n` (at most `MAX_CPUS`) the process may use. Empty when the host does
/// not say, and the workload and its probes then run unpinned.
pub fn cpus(n: usize) -> Vec<usize> {
    affinity::allowed()
        .into_iter()
        .take(n.min(MAX_CPUS))
        .collect()
}

/// The probes of one run, all on one CPU.
pub struct Probes {
    cpu: Vec<usize>,
    /// The yardstick's seconds, per probe.
    times: Vec<f64>,
}

impl Probes {
    /// Probes of `cpu` (unpinned if `None`), with room for `capacity`.
    pub fn new(cpu: Option<usize>, capacity: usize) -> Probes {
        Probes {
            cpu: cpu.into_iter().collect(),
            times: Vec::with_capacity(capacity),
        }
    }

    /// Bytes of the probe buffer, which stays live through the run.
    pub fn buffer_bytes(&self) -> u64 {
        (self.times.capacity() * std::mem::size_of::<f64>()) as u64
    }

    /// Time the yardstick on the probed CPU; returns the probe's index.
    pub fn probe(&mut self) -> usize {
        self.times.push(affinity::pinned(&self.cpu, yardstick));
        self.times.len() - 1
    }

    /// Slowdown of the stretch between probe `before` and the one after
    /// it, against `NOMINAL_S`: the geometric mean of the two.
    pub fn slowdown(&self, before: usize) -> f64 {
        (self.times[before] * self.times[before + 1]).sqrt() / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_geometric_mean_of_both_sides() {
        let mut p = Probes::new(None, 3);
        p.times = vec![NOMINAL_S, 4.0 * NOMINAL_S, NOMINAL_S];
        assert!((p.slowdown(0) - 2.0).abs() < 1e-12);
        assert!((p.slowdown(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_probe_times_the_yardstick() {
        let mut p = Probes::new(cpus(1).first().copied(), 2);
        assert_eq!(p.probe(), 0);
        assert_eq!(p.probe(), 1);
        let s = p.slowdown(0);
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
