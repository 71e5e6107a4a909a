//! Smoke-scale self-tests of the benchmark: every workload runs and prints
//! exactly the metrics `BENCHMARK.json` declares, with their units, and a
//! single-client count repeats exactly for a fixed seed.

use perfbench::json::{self, Json};
use perfbench::{Budget, WORKLOADS};
use std::process::Command;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn declared_workloads() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn workloads_match_the_declaration() {
    assert_eq!(declared_workloads(), WORKLOADS);
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("run the benchmark");
            assert!(out.status.success(), "{workload} trace {trace}: {out:?}");
            let stdout = String::from_utf8(out.stdout).unwrap();
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            let keys: Vec<&String> = result.as_obj().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {last}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let mut want = declared(section);
            printed.sort();
            want.sort();
            assert_eq!(printed, want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let (report, _) = perfbench::run(workload, 3, Budget::Ops(20_000), false, true).unwrap();
        for (name, _) in declared("end_to_end") {
            let v = report.get(&name).unwrap();
            assert!(v > 0.0, "{workload} {name} = {v}");
        }
    }
}

#[test]
fn single_client_rebuild_count_repeats() {
    let rebuilds = || {
        let (report, _) = perfbench::run("mixed_rw", 11, Budget::Ops(300_000), true, true).unwrap();
        assert_eq!(report.failed, 0);
        report.get("sharded.rebuilds").unwrap()
    };
    let first = rebuilds();
    assert!(first > 0.0, "the smoke trace must rebuild some shard");
    assert_eq!(first, rebuilds());
}
