//! The `compare` subcommand: the noise-calibrated gate. For every workload
//! × end-to-end metric of two results files it prints both medians and
//! quartiles, the change with its base, the bound, and a verdict.

use crate::json::Json;
use crate::manifest::{Manifest, MetricSpec};
use crate::stats::sig6;

/// `setup_s` is milliseconds of mostly thread spawning; below this
/// absolute change a relative bound only measures the scheduler.
const SETUP_FLOOR_S: f64 = 0.005;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's numbers for one workload × metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The per-round values behind them.
    pub samples: Vec<f64>,
}

impl Side {
    fn from_json(metric: &Json) -> Option<Side> {
        let num = |k: &str| metric.get(k).and_then(Json::as_f64);
        Some(Side {
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            samples: metric
                .get("samples")
                .and_then(Json::as_arr)?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
        })
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// The rule of choosing-metrics §6/§8, `a` the baseline and `b` the change:
///
/// * a spread (inter-quartile distance over median, either side) wider than
///   the bound cannot resolve a change of the bound's size: `unresolved`,
///   unless every round of one side beats every round of the other;
/// * `worse` only if the median moved the wrong way by more than the bound
///   **and** by more than the baseline's own inter-quartile distance (and,
///   for `floor > 0`, by more than that absolute amount);
/// * `better` if it moved the right way by more than the baseline's
///   inter-quartile distance;
/// * otherwise `within`.
pub fn verdict(spec: &MetricSpec, a: &Side, b: &Side, floor: f64) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    // Positive = b is worse than a, in the metric's own unit.
    let worse_by = if spec.higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    };
    let base = a.median.abs();
    let beats = |x: f64, y: f64| if spec.higher_is_better { x > y } else { x < y };
    let all_beat = |xs: &[f64], ys: &[f64]| {
        !xs.is_empty() && !ys.is_empty() && xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)))
    };
    if a.iqr() > bound * base || b.iqr() > bound * b.median.abs() {
        return if all_beat(&b.samples, &a.samples) {
            Verdict::Better
        } else if all_beat(&a.samples, &b.samples) && worse_by > bound * base {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound * base && worse_by > a.iqr() && worse_by > floor {
        Verdict::Worse
    } else if -worse_by > a.iqr() && -worse_by > floor {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    Side::from_json(
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?,
    )
}

/// Print the comparison; `Ok(true)` when nothing is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let manifest = Manifest::load();
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<13} {:<11} {:>14} {:>29} {:>14} {:>29} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B vs A", "bound"
    );
    let mut compared = 0;
    let mut clean = true;
    for workload in &manifest.workloads {
        for spec in &manifest.end_to_end {
            let (Some(sa), Some(sb)) = (
                side(&a, workload, &spec.name),
                side(&b, workload, &spec.name),
            ) else {
                continue;
            };
            let floor = if spec.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let v = verdict(spec, &sa, &sb, floor);
            clean &= v != Verdict::Worse;
            compared += 1;
            println!(
                "{workload:<13} {:<11} {:>14} {:>29} {:>14} {:>29} {:>+8.2}% {:>5.0}%  {}",
                spec.name,
                sig6(sa.median),
                format!("[{}, {}]", sig6(sa.q1), sig6(sa.q3)),
                sig6(sb.median),
                format!("[{}, {}]", sig6(sb.q1), sig6(sb.q3)),
                100.0 * (sb.median - sa.median) / sa.median,
                100.0 * spec.bound.unwrap_or(0.0),
                v.label(),
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload × end-to-end metric".into());
    }
    println!("(B vs A: change of the median, as a share of A's median)");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    fn side_of(samples: &[f64]) -> Side {
        let (q1, median, q3) = crate::stats::quartiles(samples);
        Side {
            median,
            q1,
            q3,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdict_table() {
        let tight = [100.0, 101.0, 100.5, 99.5, 100.2];
        let shifted = |by: f64| tight.iter().map(|v| v + by).collect::<Vec<_>>();
        let scattered = [100.0, 130.0, 80.0, 115.0, 90.0];
        // (higher is better, A, B, floor, expected)
        type Case = (bool, Vec<f64>, Vec<f64>, f64, Verdict);
        let cases: Vec<Case> = vec![
            // Same numbers: within.
            (true, tight.to_vec(), tight.to_vec(), 0.0, Verdict::Within),
            // Throughput down 20% against a 10% bound, tight spread: worse.
            (true, tight.to_vec(), shifted(-20.0), 0.0, Verdict::Worse),
            // Latency up 20%: worse; down 20%: better.
            (false, tight.to_vec(), shifted(20.0), 0.0, Verdict::Worse),
            (false, tight.to_vec(), shifted(-20.0), 0.0, Verdict::Better),
            // Throughput up 5%: inside the bound but past A's quartiles: better.
            (true, tight.to_vec(), shifted(5.0), 0.0, Verdict::Better),
            // Down 5%: past the quartiles but inside the bound: within.
            (true, tight.to_vec(), shifted(-5.0), 0.0, Verdict::Within),
            // A tiny move inside A's own quartile distance: within.
            (true, tight.to_vec(), shifted(0.3), 0.0, Verdict::Within),
            // Spread wider than the bound: unresolved, whichever way the
            // median went ...
            (
                true,
                scattered.to_vec(),
                tight.to_vec(),
                0.0,
                Verdict::Unresolved,
            ),
            (
                true,
                tight.to_vec(),
                scattered.to_vec(),
                0.0,
                Verdict::Unresolved,
            ),
            // ... unless every B round beats every A round,
            (
                true,
                scattered.to_vec(),
                scattered.iter().map(|v| v + 100.0).collect(),
                0.0,
                Verdict::Better,
            ),
            // ... or every A round beats every B round by more than the bound.
            (
                true,
                scattered.to_vec(),
                scattered.iter().map(|v| v - 60.0).collect(),
                0.0,
                Verdict::Worse,
            ),
            // A relative regression below the absolute floor is not one.
            (false, tight.to_vec(), shifted(20.0), 50.0, Verdict::Within),
        ];
        for (i, (higher, a, b, floor, want)) in cases.into_iter().enumerate() {
            let got = verdict(&spec(higher, 0.10), &side_of(&a), &side_of(&b), floor);
            assert_eq!(got, want, "case {i}");
        }
    }

    #[test]
    fn sides_come_out_of_a_results_document() {
        let doc = Json::parse(
            r#"{"workloads": {"w": {"end_to_end": {"m":
                {"unit": "u", "median": 2, "q1": 1, "q3": 3, "samples": [1, 2, 3]}}}}}"#,
        )
        .unwrap();
        let s = side(&doc, "w", "m").unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.samples.len()), (2.0, 1.0, 3.0, 3));
        assert_eq!(side(&doc, "w", "absent"), None);
        assert_eq!(side(&doc, "absent", "m"), None);
    }
}
