//! `dvs-perf compare`: judges a change against its parent from alternating
//! runs of both, one row per workload.
//!
//! A gain needs the change to win at least nine tenths of the pairs (ties
//! count for neither) and the medians to differ by more than the parent's
//! interquartile range. A metric whose parent runs spread wider than its
//! bound is unresolved, unless every change run beats every parent run.
//! Otherwise a change median worse than the parent's by more than the
//! bound is a regression.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dvs_obs::json::Value;

use crate::report::{BenchmarkSpec, Better};
use crate::stats;

/// Pairs required before any verdict.
pub const MIN_PAIRS: usize = 10;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the pairwise rule.
    Gain,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The parent's own runs spread wider than the bound.
    Unresolved,
    /// Every change run better than every parent run, despite the spread.
    AllBetter,
    /// No gain, and no worse than the bound allows.
    Within,
    /// A per-layer metric (no bound) without a gain.
    NoGain,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::AllBetter => "all-better",
            Verdict::Within => "within",
            Verdict::NoGain => "no-gain",
        }
    }
}

/// Judges paired samples of one metric.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let sign = match better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let n = parent.len().min(change.len());
    let wins = (0..n)
        .filter(|&i| sign * (change[i] - parent[i]) > 0.0)
        .count();
    let [q1, pmed, q3] = stats::quartiles(parent).expect("enough pairs");
    let cmed = stats::median(change).expect("enough pairs");
    let gain = sign * (cmed - pmed);
    if wins * 10 >= n * 9 && gain > q3 - q1 {
        return Verdict::Gain;
    }
    let Some(bound) = bound else {
        return Verdict::NoGain;
    };
    let scale = pmed.abs().max(f64::MIN_POSITIVE);
    if stats::relative_spread(parent).unwrap_or(f64::INFINITY) > bound {
        let worst_change = change
            .iter()
            .map(|v| sign * v)
            .fold(f64::INFINITY, f64::min);
        let best_parent = parent
            .iter()
            .map(|v| sign * v)
            .fold(f64::NEG_INFINITY, f64::max);
        return if worst_change > best_parent {
            Verdict::AllBetter
        } else {
            Verdict::Unresolved
        };
    }
    if -gain / scale > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

/// The rendered comparison.
#[derive(Debug)]
pub struct Report {
    /// The table and the details.
    pub text: String,
    /// Whether any metric regressed.
    pub regressed: bool,
}

/// Workload → metric → values, in file order, from `dvs-perf run` lines.
fn load(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = v
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no result metrics", i + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: {name} has no value", i + 1))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Compares `parent` against `change` (both `dvs-perf run` output).
pub fn compare(spec: &BenchmarkSpec, parent: &str, change: &str) -> Result<Report, String> {
    let (parent, change) = (load(parent)?, load(change)?);
    let mut table = String::new();
    let mut details = String::new();
    let mut regressed = false;
    for w in &spec.workloads {
        let (Some(p), Some(c)) = (parent.get(&w.name), change.get(&w.name)) else {
            continue;
        };
        let _ = write!(table, "{:<18}", w.name);
        for (name, pv) in p {
            let (Some(cv), Some(m)) = (c.get(name), spec.metric(name)) else {
                continue;
            };
            let n = pv.len().min(cv.len());
            if n < MIN_PAIRS {
                return Err(format!(
                    "{}: {n} pairs of {name}; the rule needs at least {MIN_PAIRS}",
                    w.name
                ));
            }
            let (pv, cv) = (&pv[..n], &cv[..n]);
            let verdict = judge(pv, cv, m.better, m.bound);
            regressed |= verdict == Verdict::Regression;
            let [pq1, pmed, pq3] = stats::quartiles(pv).expect("enough pairs");
            let [cq1, cmed, cq3] = stats::quartiles(cv).expect("enough pairs");
            let delta = (cmed - pmed) / pmed.abs().max(f64::MIN_POSITIVE) * 100.0;
            let _ = write!(table, "  {name}={}({delta:+.1}%)", verdict.word());
            let _ = writeln!(
                details,
                "{:<18} {name:<34} parent {pmed:.6} [{pq1:.6}, {pq3:.6}]  change {cmed:.6} \
                 [{cq1:.6}, {cq3:.6}] {}  {}",
                w.name,
                m.unit,
                verdict.word()
            );
        }
        table.push('\n');
    }
    Ok(Report {
        text: format!("{table}\n{details}"),
        regressed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let parent = ten(100.0, 0.1);
        // Lower is better: 10 % faster in every pair is a gain.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        assert_eq!(
            judge(&parent, &faster, Better::Lower, Some(0.1)),
            Verdict::Gain
        );
        // The same numbers are a regression when higher is better.
        assert_eq!(
            judge(&parent, &faster, Better::Higher, Some(0.05)),
            Verdict::Regression
        );
        // A 1 % slowdown sits within a 10 % bound.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.01).collect();
        assert_eq!(
            judge(&parent, &slower, Better::Lower, Some(0.1)),
            Verdict::Within
        );
        // Eight wins of ten is not a gain.
        let mut mostly = faster.clone();
        mostly[0] = 200.0;
        mostly[1] = 200.0;
        assert_eq!(
            judge(&parent, &mostly, Better::Lower, Some(0.1)),
            Verdict::Within
        );
        // A parent spread wider than the bound leaves the metric unresolved.
        let noisy = ten(50.0, 10.0);
        assert_eq!(
            judge(&noisy, &noisy, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        let far: Vec<f64> = noisy.iter().map(|v| v + 1000.0).collect();
        assert_eq!(judge(&far, &noisy, Better::Lower, Some(0.1)), Verdict::Gain);
        // Per-layer metrics have no bound.
        assert_eq!(
            judge(&parent, &slower, Better::Lower, None),
            Verdict::NoGain
        );
    }

    #[test]
    fn compare_needs_ten_pairs_and_prints_one_row_per_workload() {
        let spec = BenchmarkSpec::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let line = |w: &str, v: f64| {
            format!(
                "{{\"workload\":\"{w}\",\"result\":{{\"metrics\":{{\"campaign_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}}}\n"
            )
        };
        let runs = |v: f64, n: usize| -> String {
            (0..n)
                .flat_map(|i| {
                    let v = v + i as f64 * 0.001;
                    [line("sweep_fig10", v), line("ladder_yield", v)]
                })
                .collect()
        };
        let report = compare(&spec, &runs(1.0, 10), &runs(0.8, 10)).unwrap();
        let rows: Vec<&str> = report.text.lines().take_while(|l| !l.is_empty()).collect();
        assert_eq!(rows.len(), 2, "{}", report.text);
        assert!(rows[0].starts_with("sweep_fig10") && rows[0].contains("campaign_s=gain"));
        assert!(!report.regressed);
        let report = compare(&spec, &runs(1.0, 10), &runs(1.5, 10)).unwrap();
        assert!(report.regressed);
        assert!(compare(&spec, &runs(1.0, 9), &runs(1.0, 9))
            .unwrap_err()
            .contains("at least 10"));
    }
}
