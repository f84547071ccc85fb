//! Seeded synthetic generators standing in for the paper's seven datasets.
//!
//! The real datasets (UCI ECL, BGC-Jena Weather, Exchange, ETT, the
//! authors' Wind Power collection, BTS AirDelay) are not available in this
//! offline environment, so each generator reproduces the statistical
//! regime the paper's experiments rely on:
//!
//! | dataset | dims | interval | regime |
//! |---------|------|----------|--------|
//! | ECL | 321 | 1 h | strong daily + weekly periodicity, heterogeneous client scales, non-negative |
//! | Weather | 21 | 10 min | smooth, daily + annual cycles, strongly cross-correlated |
//! | Exchange | 8 | 1 day | correlated random walks, **no periodicity** |
//! | ETTh1 | 7 | 1 h | target driven by lagged covariates + daily cycle + slow trend |
//! | ETTm1 | 7 | 15 min | same process at 4× resolution |
//! | Wind | 7 | 15 min | bursty, saturating power curve, weak periodicity, high entropy |
//! | AirDelay | 6 | irregular | exponential inter-arrival gaps, heavy-tailed target |
//!
//! Every generator takes a [`SynthSpec`] so experiments can run at reduced
//! length while Table I can print the paper-matching defaults.

mod airdelay;
mod ecl;
mod ett;
mod exchange;
mod weather;
mod wind;

pub use airdelay::airdelay;
pub use ecl::ecl;
pub use ett::{etth1, ettm1};
pub use exchange::exchange;
pub use weather::weather;
pub use wind::wind;

use crate::series::TimeSeries;

/// Length/dimension overrides for a synthetic dataset.
#[derive(Clone, Copy, Debug)]
pub struct SynthSpec {
    /// Number of time steps to generate.
    pub len: usize,
    /// Number of variables (`None` = dataset default).
    pub dims: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

/// The seven datasets, as an enum the harnesses iterate over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Electricity consumption (321 clients, hourly).
    Ecl,
    /// Meteorological indicators (21 variables, 10-minute).
    Weather,
    /// Daily exchange rates of eight countries.
    Exchange,
    /// Electricity transformer temperature, hourly.
    Etth1,
    /// Electricity transformer temperature, 15-minute.
    Ettm1,
    /// Wind farm power, 15-minute.
    Wind,
    /// Flight arrival delays, irregular intervals.
    AirDelay,
}

impl Dataset {
    /// All seven datasets in the paper's table order.
    pub const ALL: [Dataset; 7] = [
        Dataset::Ecl,
        Dataset::Weather,
        Dataset::Exchange,
        Dataset::Etth1,
        Dataset::Ettm1,
        Dataset::Wind,
        Dataset::AirDelay,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Ecl => "ECL",
            Dataset::Weather => "Weather",
            Dataset::Exchange => "Exchange",
            Dataset::Etth1 => "ETTh1",
            Dataset::Ettm1 => "ETTm1",
            Dataset::Wind => "Wind",
            Dataset::AirDelay => "AirDelay",
        }
    }

    /// Default variable count (paper Table I).
    pub fn default_dims(&self) -> usize {
        match self {
            Dataset::Ecl => 321,
            Dataset::Weather => 21,
            Dataset::Exchange => 8,
            Dataset::Etth1 | Dataset::Ettm1 | Dataset::Wind => 7,
            Dataset::AirDelay => 6,
        }
    }

    /// Default length (paper Table I's "# Points").
    pub fn default_len(&self) -> usize {
        match self {
            Dataset::Ecl => 26_304,
            Dataset::Weather => 36_761,
            Dataset::Exchange => 7_588,
            Dataset::Etth1 => 17_420,
            Dataset::Ettm1 => 69_680,
            Dataset::Wind => 45_550,
            Dataset::AirDelay => 54_451,
        }
    }

    /// Generate the synthetic stand-in.
    pub fn generate(&self, spec: SynthSpec) -> TimeSeries {
        match self {
            Dataset::Ecl => ecl(spec),
            Dataset::Weather => weather(spec),
            Dataset::Exchange => exchange(spec),
            Dataset::Etth1 => etth1(spec),
            Dataset::Ettm1 => ettm1(spec),
            Dataset::Wind => wind(spec),
            Dataset::AirDelay => airdelay(spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_fft::autocorrelation;

    fn spec(len: usize) -> SynthSpec {
        SynthSpec {
            len,
            dims: None,
            seed: 42,
        }
    }

    #[test]
    fn all_generators_produce_valid_series() {
        for ds in Dataset::ALL {
            let s = ds.generate(SynthSpec {
                len: 256,
                dims: Some(4.min(ds.default_dims())),
                seed: 1,
            });
            assert_eq!(s.len(), 256, "{ds:?}");
            assert!(!s.values.has_non_finite(), "{ds:?} has NaN/inf");
            assert!(s.dims() >= 1);
            assert!(s.target < s.dims());
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for ds in Dataset::ALL {
            let a = ds.generate(spec(128));
            let b = ds.generate(spec(128));
            assert_eq!(a.values.data(), b.values.data(), "{ds:?} not deterministic");
            assert_eq!(a.timestamps, b.timestamps);
        }
    }

    #[test]
    fn different_seeds_differ() {
        for ds in Dataset::ALL {
            let a = ds.generate(SynthSpec {
                len: 128,
                dims: None,
                seed: 1,
            });
            let b = ds.generate(SynthSpec {
                len: 128,
                dims: None,
                seed: 2,
            });
            assert_ne!(a.values.data(), b.values.data(), "{ds:?} ignores seed");
        }
    }

    #[test]
    fn ecl_has_daily_periodicity() {
        let s = ecl(SynthSpec {
            len: 24 * 40,
            dims: Some(4),
            seed: 3,
        });
        let target: Vec<f32> = s.target_series().into_vec();
        let r = autocorrelation(&target);
        // daily cycle at lag 24 (hourly sampling)
        assert!(
            r[24] > 0.3 * r[0],
            "ECL lacks daily cycle: r24={} r0={}",
            r[24],
            r[0]
        );
    }

    #[test]
    fn weather_has_daily_periodicity() {
        // 10-minute sampling → 144 steps per day
        let s = weather(SynthSpec {
            len: 144 * 12,
            dims: Some(5),
            seed: 4,
        });
        let target: Vec<f32> = s.target_series().into_vec();
        let r = autocorrelation(&target);
        assert!(r[144] > 0.2 * r[0], "Weather lacks daily cycle");
    }

    #[test]
    fn exchange_is_aperiodic_random_walk() {
        let s = exchange(spec(2048));
        let target: Vec<f32> = s.target_series().into_vec();
        // A random walk's first difference is white noise: autocorrelation
        // of diffs at any positive lag should be small.
        let diffs: Vec<f32> = target.windows(2).map(|w| w[1] - w[0]).collect();
        let r = autocorrelation(&diffs);
        for lag in [7usize, 30, 365] {
            assert!(
                r[lag].abs() < 0.15 * r[0],
                "Exchange diffs correlated at lag {lag}: {} vs {}",
                r[lag],
                r[0]
            );
        }
    }

    #[test]
    fn ett_target_correlates_with_loads() {
        let s = etth1(spec(2000));
        let t = s.target_series();
        // correlation between OT and the first load feature should be
        // clearly nonzero (the target is driven by the loads).
        let load: Vec<f32> = (0..s.len()).map(|i| s.values.at(&[i, 0])).collect();
        let tv = t.data();
        let (mt, ml) = (t.mean(), load.iter().sum::<f32>() / load.len() as f32);
        let mut num = 0.0;
        let mut dt = 0.0;
        let mut dl = 0.0;
        for i in 0..s.len() {
            num += (tv[i] - mt) * (load[i] - ml);
            dt += (tv[i] - mt).powi(2);
            dl += (load[i] - ml).powi(2);
        }
        let corr = num / (dt.sqrt() * dl.sqrt());
        assert!(corr.abs() > 0.2, "OT decoupled from loads: corr {corr}");
    }

    #[test]
    fn ettm1_is_finer_than_etth1() {
        let h = etth1(spec(64));
        let m = ettm1(spec(64));
        let dh = h.timestamps[1] - h.timestamps[0];
        let dm = m.timestamps[1] - m.timestamps[0];
        assert_eq!(dh, 3600);
        assert_eq!(dm, 900);
    }

    #[test]
    fn wind_power_is_nonnegative_and_bounded() {
        let s = wind(spec(4000));
        let p = s.target_series();
        assert!(p.min() >= 0.0, "negative wind power");
        // capacity saturation: spends time near the cap
        let cap = p.max();
        let near_cap = p.data().iter().filter(|&&v| v > 0.9 * cap).count();
        assert!(near_cap > 20, "no saturation regime ({near_cap} near cap)");
        // and time near zero (calm periods)
        let near_zero = p.data().iter().filter(|&&v| v < 0.05 * cap).count();
        assert!(near_zero > 20, "no calm regime");
    }

    #[test]
    fn airdelay_has_irregular_gaps_and_heavy_tail() {
        let s = airdelay(spec(4000));
        let gaps: Vec<i64> = s.timestamps.windows(2).map(|w| w[1] - w[0]).collect();
        let distinct: std::collections::HashSet<i64> = gaps.iter().cloned().collect();
        assert!(
            distinct.len() > 50,
            "gaps look regular: {} distinct",
            distinct.len()
        );
        // heavy tail: kurtosis of delays well above Gaussian's 3
        let d = s.target_series();
        let (m, sd) = (d.mean(), d.std());
        let kurt = d.data().iter().map(|v| ((v - m) / sd).powi(4)).sum::<f32>() / d.numel() as f32;
        assert!(kurt > 4.0, "delay kurtosis {kurt} not heavy-tailed");
    }

    #[test]
    fn dims_override_respected() {
        for ds in Dataset::ALL {
            let s = ds.generate(SynthSpec {
                len: 64,
                dims: Some(3),
                seed: 9,
            });
            assert_eq!(s.dims(), 3, "{ds:?}");
        }
    }

    #[test]
    fn table1_defaults_match_paper() {
        assert_eq!(Dataset::Ecl.default_dims(), 321);
        assert_eq!(Dataset::Ettm1.default_len(), 69_680);
        assert_eq!(Dataset::AirDelay.default_dims(), 6);
    }
}
