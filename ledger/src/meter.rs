//! A workload's measured phase: bursts of work between host probes (see
//! `host`), set-ups spread between the bursts, and the end-to-end numbers
//! over all of them, host-adjusted.

use std::io;
use std::ops::Range;
use std::time::Instant;

use lttf::obs::alloc;

use crate::host::Probes;
use crate::stats::{quantile, quartiles, sorted, Summary};

/// Seconds of work per burst: short next to how long the host keeps one
/// speed, long next to a probe (about a millisecond).
pub const BURST_S: f64 = 0.25;
/// Set-ups per run, spread evenly over the measured phase.
pub const SETUP_REPS: usize = 12;

/// How long a workload warms up and then measures.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Seconds of identical load before timing starts.
    pub warmup: f64,
    /// Seconds measured: the bursts' total.
    pub seconds: f64,
}

/// Heap bytes a vector's buffer holds (what the counting allocator saw).
pub fn buffer_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

struct Burst {
    /// The probe taken just before; the next probe closes the burst.
    probe: usize,
    /// Its samples in `Meter::latency`.
    latency: Range<usize>,
    /// Units of work completed.
    units: usize,
    seconds: f64,
}

struct Setup {
    probe: usize,
    seconds: f64,
}

/// The host's speed over a run and the timings as measured, for the log
/// and the run record.
#[derive(Clone, Debug)]
pub struct HostNote {
    /// Slowdown against `host::NOMINAL_S`: median and highest over bursts.
    pub slowdown_p50: f64,
    /// See `slowdown_p50`.
    pub slowdown_max: f64,
    /// `setup_s`, `latency_p50_ms`, `latency_tail_ms` and
    /// `throughput_per_s` as measured, before any adjustment.
    pub raw: [f64; 4],
}

impl HostNote {
    /// The note as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"slowdown_p50\": {:.4}, \"slowdown_max\": {:.4}, \
             \"raw_setup_s\": {:.6}, \"raw_latency_p50_ms\": {:.4}, \
             \"raw_latency_tail_ms\": {:.4}, \"raw_throughput_per_s\": {:.2}}}",
            self.slowdown_p50,
            self.slowdown_max,
            self.raw[0],
            self.raw[1],
            self.raw[2],
            self.raw[3],
        )
    }
}

/// A workload's end-to-end numbers.
pub struct Measured {
    /// Median set-up time, seconds.
    pub setup: Summary,
    /// Median latency per unit of work, ms.
    pub p50: Summary,
    /// Tail latency per unit of work, ms.
    pub tail: Summary,
    /// Units of work completed per second.
    pub rate: Summary,
    /// Allocator high-water mark over the bursts, less the benchmark's own
    /// buffers, MB.
    pub peak_mb: Summary,
    /// The host's speed and the unadjusted numbers.
    pub host: HostNote,
}

/// Bursts, set-ups and probes of one measured phase.
pub struct Meter {
    probes: Probes,
    timer_ms: f64,
    seconds: f64,
    measured: f64,
    /// Latency of each unit of work, ms, in burst order.
    latency: Vec<f64>,
    bursts: Vec<Burst>,
    setups: Vec<Setup>,
    peak: u64,
    reserved: u64,
}

impl Meter {
    /// A meter for `phase` whose work runs on `cpu` (see `host::cpus`),
    /// with room for `latency_capacity` samples. Of each unit of work,
    /// `timer_ms` is a wait on a timer, which the host's speed does not
    /// scale, and the rest is work on `cpu`. Every buffer is sized here:
    /// one that grew mid-run would show in the allocator peak.
    pub fn new(cpu: Option<usize>, timer_ms: f64, phase: Phase, latency_capacity: usize) -> Meter {
        let max_bursts = (phase.seconds / BURST_S).ceil() as usize + 1;
        let probes = Probes::new(cpu, 2 * (max_bursts + SETUP_REPS));
        let latency = Vec::with_capacity(latency_capacity);
        let bursts = Vec::with_capacity(max_bursts);
        let setups = Vec::with_capacity(SETUP_REPS);
        let reserved = probes.buffer_bytes()
            + buffer_bytes(&latency)
            + buffer_bytes(&bursts)
            + buffer_bytes(&setups);
        Meter {
            probes,
            timer_ms,
            seconds: phase.seconds,
            measured: 0.0,
            latency,
            bursts,
            setups,
            peak: 0,
            reserved,
        }
    }

    /// Leave `v`'s buffer, which the benchmark keeps live through the
    /// bursts, out of the peak.
    pub fn reserve<T>(&mut self, v: &Vec<T>) {
        self.reserved += buffer_bytes(v);
    }

    /// Run set-up `f` between two probes. `f` returns what it built and
    /// the seconds its set-up took, work on the probed CPU only.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> io::Result<(T, f64)>) -> io::Result<T> {
        let probe = self.probes.probe();
        let (built, seconds) = f()?;
        self.probes.probe();
        self.setups.push(Setup { probe, seconds });
        Ok(built)
    }

    /// Whether the bursts so far fall short of the phase.
    pub fn measuring(&self) -> bool {
        self.measured < self.seconds
    }

    /// Whether the next set-up is due: they follow the first evenly over
    /// the measured phase.
    pub fn setup_due(&self) -> bool {
        let done = self.setups.len();
        done < SETUP_REPS && self.measured >= self.seconds * done as f64 / SETUP_REPS as f64
    }

    /// Run one burst between two probes. `f` gets the latency buffer and
    /// the burst's length (`BURST_S`, or what is left of the phase), runs
    /// the load for at least that long, and returns the units of work it
    /// completed.
    pub fn burst(
        &mut self,
        f: impl FnOnce(&mut Vec<f64>, f64) -> io::Result<usize>,
    ) -> io::Result<()> {
        let probe = self.probes.probe();
        let len = BURST_S.min(self.seconds - self.measured);
        let from = self.latency.len();
        alloc::reset_peak();
        let t = Instant::now();
        let units = f(&mut self.latency, len)?;
        let seconds = t.elapsed().as_secs_f64();
        self.peak = self.peak.max(alloc::peak_bytes());
        self.probes.probe();
        self.measured += seconds;
        self.bursts.push(Burst {
            probe,
            latency: from..self.latency.len(),
            units,
            seconds,
        });
        Ok(())
    }

    /// Take the end-to-end numbers, `tail` being the latency percentile
    /// the workload reports. Every burst and set-up counts, each divided
    /// by its slowdown, less the timer waits (see `adjust`).
    pub fn finish(self, tail: f64) -> Measured {
        let slowdowns: Vec<f64> = self
            .bursts
            .iter()
            .map(|b| self.probes.slowdown(b.probe))
            .collect();
        let timings = |adjusted: bool| -> (Vec<f64>, Summary) {
            let mut samples = Vec::with_capacity(self.latency.len());
            let (mut units, mut seconds) = (0, 0.0);
            let mut per_burst = Vec::with_capacity(self.bursts.len());
            for (b, &s) in self.bursts.iter().zip(&slowdowns) {
                let s = if adjusted { s } else { 1.0 };
                let timer_ms = self.timer_ms;
                samples.extend(
                    self.latency[b.latency.clone()]
                        .iter()
                        .map(|&x| adjust(x, timer_ms, s)),
                );
                let secs = adjust(b.seconds, b.units as f64 * timer_ms / 1e3, s);
                units += b.units;
                seconds += secs;
                per_burst.push(b.units as f64 / secs);
            }
            (samples, rate(units, seconds, &per_burst))
        };
        let setups = |adjusted: bool| -> Vec<f64> {
            self.setups
                .iter()
                .map(|s| {
                    let k = if adjusted {
                        self.probes.slowdown(s.probe)
                    } else {
                        1.0
                    };
                    s.seconds / k
                })
                .collect()
        };
        let (samples, rate_summary) = timings(true);
        let (raw_samples, raw_rate) = timings(false);
        let raw_samples = sorted(&raw_samples);
        let by_speed = sorted(&slowdowns);
        Measured {
            setup: Summary::percentile(&setups(true), 0.5),
            p50: Summary::percentile(&samples, 0.5),
            tail: Summary::percentile(&samples, tail),
            rate: rate_summary,
            peak_mb: Summary::single(self.peak.saturating_sub(self.reserved) as f64 / 1e6),
            host: HostNote {
                slowdown_p50: quantile(&by_speed, 0.5),
                slowdown_max: quantile(&by_speed, 1.0),
                raw: [
                    Summary::percentile(&setups(false), 0.5).value,
                    quantile(&raw_samples, 0.5),
                    quantile(&raw_samples, tail),
                    raw_rate.value,
                ],
            },
        }
    }
}

/// A time `x` taken at slowdown `s`, of which up to `timer` waited on a
/// timer: the timer part as it was, the rest divided by `s`.
fn adjust(x: f64, timer: f64, s: f64) -> f64 {
    x.min(timer) + (x - timer).max(0.0) / s
}

/// `units` over `seconds`, with the IQR of the bursts' own rates.
fn rate(units: usize, seconds: f64, per_burst: &[f64]) -> Summary {
    let (q1, _, q3) = if per_burst.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        quartiles(per_burst)
    };
    Summary {
        value: units as f64 / seconds,
        n: units,
        iqr: q3 - q1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host;

    #[test]
    fn a_phase_runs_its_bursts_and_set_ups() {
        let phase = Phase {
            warmup: 0.0,
            seconds: 0.3,
        };
        let mut m = Meter::new(host::cpus(1).first().copied(), 0.0, phase, 1024);
        let built = m.setup(|| Ok((7, 0.25))).unwrap();
        assert_eq!(built, 7);
        while m.measuring() {
            if m.setup_due() {
                m.setup(|| Ok(((), 0.5))).unwrap();
            }
            m.burst(|lat, len| {
                let t = Instant::now();
                let mut n = 0;
                while t.elapsed().as_secs_f64() < len {
                    lat.push(1.0 + n as f64);
                    n += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Ok(n)
            })
            .unwrap();
        }
        assert_eq!(m.bursts.len(), 2);
        assert_eq!(m.setups.len(), 2);
        let got = m.finish(0.99);
        let k = got.p50.value / got.host.raw[1];
        assert!(k > 0.0 && k.is_finite());
        assert!(got.tail.value >= got.p50.value);
        assert!(got.rate.value > 0.0);
        assert!(got.setup.value > 0.0);
    }

    #[test]
    fn adjusting_leaves_the_timer_and_divides_the_rest() {
        assert_eq!(adjust(9.0, 0.0, 1.5), 6.0);
        assert_eq!(adjust(8.0, 5.0, 1.5), 7.0);
        // Shorter than the timer: nothing to divide.
        assert_eq!(adjust(3.0, 5.0, 1.5), 3.0);
        assert_eq!(adjust(8.0, 5.0, 1.0), 8.0);
    }
}
