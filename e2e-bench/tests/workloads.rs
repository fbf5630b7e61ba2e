//! Tiny-scale runs of every workload, plain and traced: each must emit
//! exactly the metrics `BENCHMARK.json` lists, each with its unit and a
//! finite value, and fail no operation.

use convoy_e2e_bench::workload::Workload;
use convoy_e2e_bench::{run, Options, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` pairs of one metric section of `BENCHMARK.json`, which
/// writes each metric as one `{"name": …, "unit": …, …}` object.
fn listed(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section closed")];
    let field = |object: &str, key: &str| -> String {
        let from = object
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        object[from..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: 3,
        seconds: 1e-3,
        trace,
        scale: 0.02,
        trace_path: trace.then(|| dir.join("trace.json")),
        data_dir: dir,
    };
    run(&opts).expect("the tiny run completes")
}

fn assert_emits(report: &Report, expected: &[(&str, &str)], section: &str) {
    let emitted: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let expected: Vec<(String, String)> = expected
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(emitted, expected);
    assert_eq!(
        listed(section),
        expected,
        "BENCHMARK.json lists the same metrics"
    );
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "failures: {:?}", report.failures);
    assert_eq!(report.error_rate(), 0.0);
    assert!(report.json().starts_with("{\"correct\": true, "));
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let report = tiny(workload, false);
        assert_emits(&report, &END_TO_END, "end_to_end");
        for m in &report.metrics {
            assert!(m.value > 0.0, "{} must not be 0", m.name);
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for workload in Workload::ALL {
        let report = tiny(workload, true);
        assert_emits(&report, &PER_LAYER, "per_layer");
    }
}

#[test]
fn benchmark_json_names_every_workload() {
    let names: Vec<String> = BENCHMARK_JSON
        .split("\"workloads\": [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("workloads listed")
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap_or_default().to_string())
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, expected);
}
