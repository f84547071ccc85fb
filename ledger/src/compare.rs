//! `ledger compare PARENT_RUNS... -- CHANGE_RUNS...`: the paired-runs rule
//! for claiming a gain and the bounds for ruling out a regression.
//!
//! Runs pair up per workload in the order given (parent *i* with change
//! *i*; run them alternating). For each end-to-end metric and workload:
//!
//! * **failed** — the change's runs failed, were refused or answered
//!   wrong on more operations than the parent's (a run whose record says
//!   `"correct": false` counts at least one); the timings of such runs
//!   prove nothing, so this comes before every other verdict;
//! * **gain** — at least 10 pairs, the change wins at least 9 in 10 of
//!   them (ties count for neither), and the medians differ, in the
//!   metric's better direction, by more than the parent runs' IQR;
//! * **unresolved** — the run-to-run spread (IQR over median, the wider
//!   side) exceeds the metric's bound, or is unknown with fewer than
//!   [`MIN_SPREAD_RUNS`] runs a side, unless every change run reads
//!   better than every parent run;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the bound in `BENCHMARK.json`;
//! * **no regression** — otherwise.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::quartiles;

/// Fewest pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;
/// Fewest runs a side whose quartiles estimate the run-to-run spread.
pub const MIN_SPREAD_RUNS: usize = 3;

/// An end-to-end metric's direction and regression bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` bounds declared in `BENCHMARK.json`.
pub fn bounds(benchmark: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = Json::parse(benchmark)?;
    let e2e = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    e2e.items()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::str)
                .ok_or("metric without 'better'")?;
            let bound = m
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without 'bound'")?;
            Ok((
                name.to_string(),
                Bound {
                    lower_is_better: better == "lower",
                    bound,
                },
            ))
        })
        .collect()
}

/// One run record: its workload, failures and metric values.
#[derive(Clone, Debug)]
pub struct Run {
    /// Workload name from the fingerprint.
    pub workload: String,
    /// Operations that failed, were refused or answered wrong; at least 1
    /// when the record says the run was not correct.
    pub failed: u64,
    /// `(metric, value)` in record order.
    pub values: Vec<(String, f64)>,
}

impl Run {
    /// Parse a record written by `ledger --out`.
    pub fn parse(text: &str) -> Result<Run, String> {
        let doc = Json::parse(text.trim())?;
        let workload = doc
            .get("fingerprint")
            .and_then(|f| f.get("workload"))
            .and_then(Json::str)
            .ok_or("run record without fingerprint.workload")?
            .to_string();
        let failed = doc
            .get("failed")
            .and_then(Json::num)
            .ok_or("run record without failed")? as u64;
        let correct = doc.get("correct") == Some(&Json::Bool(true));
        let failed = if correct { failed } else { failed.max(1) };
        let values = doc
            .get("metrics")
            .ok_or("run record without metrics")?
            .fields()
            .iter()
            .filter_map(|(k, v)| v.get("value").and_then(Json::num).map(|x| (k.clone(), x)))
            .collect();
        Ok(Run {
            workload,
            failed,
            values,
        })
    }

    fn value(&self, metric: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _)| k == metric)
            .map(|&(_, v)| v)
    }
}

/// The judgement for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's runs failed more operations than the parent's.
    Failed,
    /// The change is better by the paired-runs rule.
    Gain,
    /// The change is worse by more than the bound.
    Regression,
    /// Run-to-run spread is wider than the bound.
    Unresolved,
    /// Not worse by more than the bound.
    NoRegression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Failed => "FAILED",
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NoRegression => "no regression",
        }
    }
}

/// One compared metric on one workload.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Pairs compared.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
    /// Failed operations over the parent's runs.
    pub parent_failed: u64,
    /// Failed operations over the change's runs.
    pub change_failed: u64,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Parent runs' IQR.
    pub parent_iqr: f64,
    /// Wider side's IQR over its median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judge one metric from paired parent and change values.
pub fn judge(parent: &[f64], change: &[f64], b: Bound) -> (Verdict, usize, f64, f64, f64, f64) {
    assert_eq!(parent.len(), change.len(), "runs must pair up");
    assert!(!parent.is_empty(), "no runs to compare");
    let better = |c: f64, p: f64| if b.lower_is_better { c < p } else { c > p };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (pq1, pm, pq3) = quartiles(parent);
    let (cq1, cm, cq3) = quartiles(change);
    let rel = |iqr: f64, m: f64| {
        if m != 0.0 {
            iqr / m.abs()
        } else {
            f64::INFINITY
        }
    };
    let n = parent.len();
    let spread = if n < MIN_SPREAD_RUNS {
        f64::INFINITY
    } else {
        rel(pq3 - pq1, pm).max(rel(cq3 - cq1, cm))
    };
    let verdict =
        if n >= MIN_PAIRS && wins * 10 >= 9 * n && better(cm, pm) && (cm - pm).abs() > pq3 - pq1 {
            Verdict::Gain
        } else if spread > b.bound {
            let every_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
            if every_better {
                Verdict::NoRegression
            } else {
                Verdict::Unresolved
            }
        } else {
            let worse = if b.lower_is_better { cm - pm } else { pm - cm };
            if worse > b.bound * pm.abs() {
                Verdict::Regression
            } else {
                Verdict::NoRegression
            }
        };
    (verdict, wins, pm, cm, pq3 - pq1, spread)
}

/// Compare every end-to-end metric on every workload the runs cover.
pub fn compare(
    parents: &[Run],
    changes: &[Run],
    bounds: &BTreeMap<String, Bound>,
) -> Result<Vec<Row>, String> {
    let mut workloads: Vec<&str> = parents.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        let ps: Vec<&Run> = parents.iter().filter(|r| r.workload == w).collect();
        let cs: Vec<&Run> = changes.iter().filter(|r| r.workload == w).collect();
        if ps.len() != cs.len() {
            return Err(format!(
                "{w}: {} parent runs but {} change runs; runs must pair up",
                ps.len(),
                cs.len()
            ));
        }
        let failed = |runs: &[&Run]| runs.iter().map(|r| r.failed).sum::<u64>();
        let (parent_failed, change_failed) = (failed(&ps), failed(&cs));
        for (metric, &b) in bounds {
            let get = |runs: &[&Run]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| r.value(metric).ok_or(format!("{w}: a run lacks {metric}")))
                    .collect()
            };
            let (p, c) = (get(&ps)?, get(&cs)?);
            let (mut verdict, wins, parent, change, parent_iqr, spread) = judge(&p, &c, b);
            if change_failed > parent_failed {
                verdict = Verdict::Failed;
            }
            rows.push(Row {
                workload: w.to_string(),
                metric: metric.clone(),
                pairs: p.len(),
                wins,
                parent_failed,
                change_failed,
                parent,
                change,
                parent_iqr,
                spread,
                bound: b.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table, one row per workload and metric.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<18} {:>5} {:>5} {:>9} {:>12} {:>12} {:>7} {:>10} {:>7} {:>6}  verdict\n",
        "workload",
        "metric",
        "pairs",
        "wins",
        "failed",
        "parent",
        "change",
        "delta",
        "parent_iqr",
        "spread",
        "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:<18} {:>5} {:>5} {:>9} {:>12.4} {:>12.4} {:>+6.1}% {:>10.4} {:>6.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.pairs,
            r.wins,
            format!("{}/{}", r.parent_failed, r.change_failed),
            r.parent,
            r.change,
            (r.change / r.parent - 1.0) * 100.0,
            r.parent_iqr,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        lower_is_better: true,
        bound: 0.10,
    };

    fn record(workload: &str, latency: f64, correct: bool, failed: u64) -> String {
        format!(
            r#"{{"fingerprint": {{"workload": "{workload}", "seed": 1}}, "correct": {correct}, "attempted": 3, "failed": {failed},
               "metrics": {{"latency_p50_ms": {{"value": {latency}, "unit": "ms", "n": 100, "iqr": 0.1}}}}}}"#
        )
    }

    fn runs(workload: &str, values: &[f64]) -> Vec<Run> {
        values
            .iter()
            .map(|&v| Run::parse(&record(workload, v, true, 0)).unwrap())
            .collect()
    }

    fn latency_bound() -> BTreeMap<String, Bound> {
        bounds(r#"{"end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#)
            .unwrap()
    }

    #[test]
    fn ten_winning_pairs_beyond_the_parent_iqr_are_a_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let rows = compare(&runs("w", &parent), &runs("w", &change), &latency_bound()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Gain);
        assert_eq!(rows[0].wins, 10);
    }

    #[test]
    fn too_few_pairs_or_wins_are_not_a_gain() {
        let parent = [10.0, 10.1, 10.2];
        let change = [9.0, 9.1, 9.2];
        assert_eq!(judge(&parent, &change, LOWER).0, Verdict::NoRegression);
        // 8 wins of 10 falls short of 9 in 10.
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
        let mut change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        change[0] = 12.0;
        change[1] = 12.0;
        assert_eq!(judge(&parent, &change, LOWER).0, Verdict::NoRegression);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_is_a_regression() {
        let parent = [10.0, 10.1, 10.2, 10.1];
        let change = [11.5, 11.6, 11.4, 11.5];
        assert_eq!(judge(&parent, &change, LOWER).0, Verdict::Regression);
        // Within the bound: no regression.
        let change = [10.5, 10.6, 10.4, 10.5];
        assert_eq!(judge(&parent, &change, LOWER).0, Verdict::NoRegression);
        // Higher-is-better metrics regress downward.
        let higher = Bound {
            lower_is_better: false,
            bound: 0.10,
        };
        assert_eq!(
            judge(&parent, &[8.0, 8.1, 8.2, 8.1], higher).0,
            Verdict::Regression
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [10.0, 14.0, 8.0, 12.0];
        let change = [11.0, 9.0, 13.0, 10.0];
        assert_eq!(judge(&parent, &change, LOWER).0, Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        let change = [5.0, 6.0, 7.0, 7.5];
        assert_eq!(judge(&parent, &change, LOWER).0, Verdict::NoRegression);
    }

    #[test]
    fn too_few_runs_to_know_the_spread_are_unresolved_unless_all_better() {
        assert_eq!(judge(&[10.0], &[13.0], LOWER).0, Verdict::Unresolved);
        assert_eq!(
            judge(&[10.0, 10.1], &[13.0, 13.1], LOWER).0,
            Verdict::Unresolved
        );
        assert_eq!(judge(&[10.0], &[9.0], LOWER).0, Verdict::NoRegression);
    }

    #[test]
    fn change_runs_with_failures_fail_and_never_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
        let mut change = runs("w", &parent.iter().map(|p| p - 1.0).collect::<Vec<_>>());
        // Faster on every pair, but one run answered wrong.
        change[3] = Run::parse(&record("w", 9.0, false, 0)).unwrap();
        assert_eq!(change[3].failed, 1);
        let rows = compare(&runs("w", &parent), &change, &latency_bound()).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Failed);
        assert_eq!((rows[0].parent_failed, rows[0].change_failed), (0, 1));
        // As many failures on both sides: judged on the timings.
        let mut parents = runs("w", &parent);
        parents[0] = Run::parse(&record("w", 10.0, false, 1)).unwrap();
        let rows = compare(&parents, &change, &latency_bound()).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Gain);
        assert!(render(&rows).contains("1/1"));
    }

    #[test]
    fn unpaired_runs_are_refused() {
        let err = compare(
            &runs("w", &[1.0, 2.0]),
            &runs("w", &[1.0]),
            &latency_bound(),
        )
        .unwrap_err();
        assert!(err.contains("pair up"), "{err}");
    }
}
