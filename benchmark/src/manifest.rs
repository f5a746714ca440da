//! `BENCHMARK.json` is the single list of workloads and metrics: the
//! harness embeds it at build time and reports exactly the names it lists,
//! so the file the driver reads and the numbers the harness prints cannot
//! drift apart.

use crate::json::Json;

const TEXT: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by before it
    /// counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let text = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without {k}"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} list"))
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Manifest {
    /// Parse the embedded file. It is part of the build, so a malformed
    /// one is a bug in this package, not an input error: panic.
    pub fn load() -> Manifest {
        let doc = Json::parse(TEXT).expect("BENCHMARK.json parses");
        Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("BENCHMARK.json: workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("BENCHMARK.json: workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let m = Manifest::load();
        assert!((1.0..=60.0).contains(&m.run_seconds) && m.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&m.workloads.len()));
        assert!((1..=16).contains(&m.end_to_end.len()));
        assert!((1..=128).contains(&m.per_layer.len()));
        let mut names: Vec<&String> = m
            .workloads
            .iter()
            .chain(m.end_to_end.iter().map(|s| &s.name))
            .chain(m.per_layer.iter().map(|s| &s.name))
            .collect();
        assert!(
            names.iter().all(|n| valid_name(n)),
            "a name breaks the rules"
        );
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for spec in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(valid_unit(&spec.unit), "unit of {}", spec.name);
        }
        for spec in &m.end_to_end {
            let bound = spec.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", spec.name);
        }
        assert!(m.per_layer.iter().all(|s| s.bound.is_none()));
        let setup = m.end_to_end.iter().find(|s| s.name == "setup_s");
        let setup = setup.expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(TEXT.len() <= 64 * 1024);
    }

    #[test]
    fn workloads_are_the_ones_the_harness_runs() {
        let m = Manifest::load();
        let run: Vec<&str> = crate::run::WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(m.workloads, run);
    }
}
