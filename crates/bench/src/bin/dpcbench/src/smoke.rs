//! The `--quick` run as a test: every workload runs, every output checks
//! out against the oracle, and what is printed is what `BENCHMARK.json`
//! promises the driver.

use std::path::Path;
use std::time::Instant;

use crate::json::{self, Value};
use crate::run::run_workload;
use crate::spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {}", v.render()))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `BENCHMARK.json` lists `table`, entry for entry.
fn assert_same_table(listed: &[Value], table: &[Metric], bounded: bool) {
    assert_eq!(listed.len(), table.len());
    for (entry, metric) in listed.iter().zip(table) {
        assert_eq!(field(entry, "name"), metric.name);
        assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(
            field(entry, "better"),
            metric.better.as_str(),
            "{}",
            metric.name
        );
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            metric.bound,
            "{}",
            metric.name
        );
        assert_eq!(
            entry.as_obj().len(),
            if bounded { 4 } else { 3 },
            "{}",
            metric.name
        );
        assert!(is_name(metric.name), "{}", metric.name);
        assert!(metric.unit.len() <= 16, "{}", metric.unit);
    }
}

#[test]
fn benchmark_json_states_the_tables_of_spec() {
    let bench = benchmark_json();
    let workloads = bench.get("workloads").expect("workloads").as_arr();
    assert_eq!(workloads.len(), 4);
    for (entry, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(field(entry, "name"), w.name);
        assert_eq!(field(entry, "why"), w.why);
        assert!(is_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    let end_to_end = bench.get("end_to_end").expect("end_to_end").as_arr();
    let per_layer = bench.get("per_layer").expect("per_layer").as_arr();
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    assert_same_table(end_to_end, &END_TO_END, true);
    assert_same_table(per_layer, &PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    let distinct: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(distinct.len(), names.len(), "a name is used once");
}

#[test]
fn quick_run_prints_every_metric_once_and_no_output_is_wrong() {
    let started = Instant::now();
    for w in &WORKLOADS {
        let args = Args {
            workload: Some(w.name.to_owned()),
            seed: 7,
            seconds: crate::spec::NOMINAL_SECONDS,
            trace: true,
            quick: true,
            aa: false,
            out: None,
        };
        let record = run_workload(w, &args);
        assert_eq!(record.failed, 0, "{}: wrong outputs", w.name);
        assert!(record.attempted > 0);

        let lines = record.metric_lines();
        for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = json::parse(&record.result_line(traced).render()).expect("result parses");
            let keys: Vec<&str> = result.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            let metrics = result.get("metrics").expect("metrics").as_obj();
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let promised: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(printed, promised, "{}", w.name);
            for ((name, value), metric) in metrics.iter().zip(table) {
                assert_eq!(field(value, "unit"), metric.unit, "{name}");
                let v = value.get("value").and_then(Value::as_f64).expect("value");
                assert!(v.is_finite(), "{name} = {v}");
                let line = format!("metric {name} ");
                assert_eq!(
                    lines.iter().filter(|l| l.starts_with(&line)).count(),
                    1,
                    "{name}"
                );
            }
        }
        let layer = |name: &str| {
            record
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} not reported"))
                .1
        };
        assert_eq!(layer("driver.failed_share"), 0.0);
        assert_eq!(layer("driver.pipeline_mismatches"), 0.0);
        for (name, value) in &record.end_to_end {
            assert!(*value > 0.0, "{}: {name} must never read 0", w.name);
        }
    }
    assert!(
        started.elapsed().as_secs() < 15,
        "quick run took {:?}",
        started.elapsed()
    );
}
