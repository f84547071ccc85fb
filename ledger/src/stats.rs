//! Order statistics for samples within a run and for values across runs.

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank quantile of ascending `sorted` samples: the smallest
/// sample with at least `q` of all samples at or below it. Exact for
/// latency percentiles, no interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)`, the rule the run-to-run
/// spread is judged by. With a single value all three equal it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let d = sorted(values);
    let ld = d.len();
    assert!(ld > 0, "quartiles of no values");
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// One metric's sample summary: the value reported plus how many samples
/// it rests on and their interquartile range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported statistic (a percentile, median or rate).
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// Distance between the samples' first and third quartiles.
    pub iqr: f64,
}

impl Summary {
    /// Percentile `q` of `samples`, with their count and IQR.
    pub fn percentile(samples: &[f64], q: f64) -> Summary {
        let s = sorted(samples);
        let (q1, _, q3) = quartiles(&s);
        Summary {
            value: quantile(&s, q),
            n: s.len(),
            iqr: q3 - q1,
        }
    }

    /// A single derived number (a ratio or count) with no sample spread.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            n: 1,
            iqr: 0.0,
        }
    }

    /// The same summary in another unit (`k` units per old unit).
    pub fn scale(self, k: f64) -> Summary {
        Summary {
            value: self.value * k,
            iqr: self.iqr * k,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
