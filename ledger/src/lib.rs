//! `ledger`: one benchmark for serving and training. Four seeded
//! workloads measure end-to-end metrics untraced; a traced run replays
//! the same inputs through each layer's public functions for per-layer
//! metrics. See `README.md` for the workloads, metrics and bounds.

pub mod affinity;
pub mod compare;
pub mod host;
pub mod inputs;
pub mod json;
pub mod meter;
pub mod metrics;
pub mod replay;
pub mod serving;
pub mod stats;
pub mod trace;
pub mod train;

use std::io;

use inputs::Prepared;
use meter::{Measured, Phase};
use metrics::{Checks, Outcome, END_TO_END};

/// Threads each forward and training step may use. The load generator
/// needs the host's second core: on the two-vCPU host this benchmark was
/// built on, letting the model fan out over both cores made
/// `engine_heavy` slower (p50 8.6 vs 7.5 ms) and twice as spread run to
/// run, because every parallel region then waits on a core the
/// generator or a neighbour holds.
pub const FORWARD_THREADS: usize = 1;

/// Apply [`FORWARD_THREADS`] process-wide; call before any workload.
pub fn limit_forward_threads() {
    lttf::parallel::set_threads_override(Some(FORWARD_THREADS));
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["tcp_mixed", "engine_light", "engine_heavy", "train_step"];

/// Run one workload untraced and report its end-to-end metrics, in
/// `END_TO_END` order.
pub fn run_workload(name: &str, p: &Prepared, phase: Phase) -> io::Result<Outcome> {
    let (checks, m): (Checks, Measured) = match name {
        "tcp_mixed" => {
            let r = serving::tcp_mixed(p, phase)?;
            (r.checks, r.measured)
        }
        "engine_light" => {
            let r = serving::engine_light(p, phase)?;
            (r.checks, r.measured)
        }
        "engine_heavy" => {
            let r = serving::engine_heavy(p, phase)?;
            (r.checks, r.measured)
        }
        "train_step" => {
            let r = train::train_step(&p.plan, phase)?;
            (r.checks, r.measured)
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload '{other}' (expected one of {WORKLOADS:?})"),
            ))
        }
    };
    let values = [m.setup, m.p50, m.tail, m.rate, m.peak_mb];
    let values = END_TO_END
        .iter()
        .map(|&(n, _)| n.to_string())
        .zip(values)
        .collect();
    Ok(Outcome::new(checks, &END_TO_END, values).with_host(m.host))
}
