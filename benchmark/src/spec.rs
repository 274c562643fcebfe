//! What `BENCHMARK.json` says, read from the file itself.
//!
//! The file at the repository root is the contract: workload and metric
//! names, units, directions and regression bounds. It is compiled in, so
//! the program and the contract cannot drift apart unnoticed — the tests
//! below hold every name table in the code equal to the file.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The gated end-to-end metrics and their units.
///
/// The tables print nine numbers per workload; seven are gated. The
/// issue's `fail_share` is gated as its complement `ok_share`: a gated
/// metric must never read 0, and `fail_share` reads 0 on every healthy
/// run. `unit_p95_ms` and the median over all units are printed but not
/// gated: they read the host's slow stretches too, and on the sandbox the
/// tail's run-to-run spread reaches 27% of its median (`sim_n13`), wider
/// than any bound a metric may carry.
pub const END_TO_END: [(&str, &str); 7] = [
    ("runs_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("cpu_ms_per_run", "ms"),
    ("msgs_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

fn document() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

/// The measured seconds of one run.
pub fn run_seconds() -> f64 {
    document()
        .num("run_seconds")
        .expect("BENCHMARK.json has run_seconds")
}

/// One end-to-end metric's regression bound.
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the reference median the metric may worsen by.
    pub bound: f64,
}

pub fn bounds() -> Vec<Bound> {
    document()
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_owned(),
                    m.get("unit").unwrap().as_str().unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn the_file_and_the_code_name_the_same_metrics_and_workloads() {
        let doc = document();
        assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(
            names_and_units(&doc, "per_layer"),
            owned(&crate::probes::PER_LAYER)
        );
        // The file gates the workloads the driver's time cap has room
        // for; the program may know more (a full run measures them all).
        for w in doc.get("workloads").unwrap().as_arr() {
            let name = w.get("name").unwrap().as_str().unwrap();
            assert!(crate::workloads::NAMES.contains(&name), "{name}");
        }
        for name in crate::probes::EXACT_COUNTS {
            assert!(crate::probes::PER_LAYER.iter().any(|(n, _)| *n == name));
        }
    }

    #[test]
    fn the_file_stays_inside_the_driver_s_limits() {
        let doc = document();
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let Json::Obj(members) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let seconds = run_seconds();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for key in ["end_to_end", "per_layer"] {
            for (name, unit) in names_and_units(&doc, key) {
                assert!(ok_name(&name), "{name}");
                assert!(ok_unit(&unit), "{unit}");
                assert!(seen.insert(name.clone()), "{name} used twice");
            }
        }
        for w in doc.get("workloads").unwrap().as_arr() {
            let name = w.get("name").unwrap().as_str().unwrap();
            assert!(ok_name(name) && seen.insert(name.to_owned()), "{name}");
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        let bounds = bounds();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better);
        assert!(bounds.iter().all(|b| b.bound <= setup.bound));
    }
}
