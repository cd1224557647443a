//! What a run prints: the environment header, one line per metric, the
//! one-line result the driver reads, and the A/A comparison.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::cpu::Placement;
use crate::json::Value;
use crate::spec::{Metric, Scale, END_TO_END, PER_LAYER};
use crate::trace::Trace;

/// One workload's run.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub scale: Scale,
    pub placement: Placement,
    /// Requests per repetition in `lat` and in `sat`.
    pub samples_per_rep: (usize, usize),
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Empty unless the traced pass ran.
    pub per_layer: Vec<(&'static str, f64)>,
    /// The per-repetition values behind the timing medians.
    pub per_rep: Vec<(&'static str, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    /// From process start to the end of the last repetition.
    pub measured_s: f64,
    pub wall_s: f64,
    pub trace: Option<Trace>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn env(&self) -> Vec<(&'static str, Value)> {
        let backend = std::env::var("DPC_POLL_BACKEND").unwrap_or_else(|_| "default".to_owned());
        vec![
            ("workload", Value::str(self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            (
                "mode",
                Value::str(if self.scale.quick { "quick" } else { "full" }),
            ),
            ("seconds", Value::Num(self.scale.seconds as f64)),
            ("reps", Value::Num(self.scale.reps() as f64)),
            (
                "lat_samples_per_rep",
                Value::Num(self.samples_per_rep.0 as f64),
            ),
            (
                "sat_requests_per_rep",
                Value::Num(self.samples_per_rep.1 as f64),
            ),
            ("nproc", Value::Num(self.placement.allowed as f64)),
            ("placement", Value::Str(self.placement.describe())),
            ("DPC_POLL_BACKEND", Value::Str(backend)),
            ("commit", Value::Str(git_commit())),
            ("rustc", Value::Str(rustc_version())),
            ("measured_s", Value::Num(self.measured_s)),
            ("wall_s", Value::Num(self.wall_s)),
        ]
    }

    pub fn env_header(&self) -> String {
        let fields: Vec<String> = self
            .env()
            .into_iter()
            .map(|(k, v)| match v {
                Value::Str(s) => format!("{k}={s:?}"),
                other => format!("{k}={}", other.render()),
            })
            .collect();
        format!("# dpcbench {}", fields.join(" "))
    }

    /// `metric <name> <value> <unit>`, every metric the run computed.
    pub fn metric_lines(&self) -> Vec<String> {
        let group = |table: &'static [Metric], values: &[(&'static str, f64)]| {
            values
                .iter()
                .map(|(name, value)| format!("metric {name} {value} {}", unit_of(table, name)))
                .collect::<Vec<_>>()
        };
        let mut lines = group(&END_TO_END, &self.end_to_end);
        lines.extend(group(&PER_LAYER, &self.per_layer));
        lines.push(format!(
            "# attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        ));
        lines
    }

    fn metrics_json(table: &'static [Metric], values: &[(&'static str, f64)]) -> Value {
        Value::obj(values.iter().map(|(name, value)| {
            (
                *name,
                Value::obj([
                    ("value", Value::Num(*value)),
                    ("unit", Value::str(unit_of(table, name))),
                ]),
            )
        }))
    }

    /// The last line of standard output: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    pub fn result_line(&self, traced: bool) -> Value {
        let metrics = if traced {
            Record::metrics_json(&PER_LAYER, &self.per_layer)
        } else {
            Record::metrics_json(&END_TO_END, &self.end_to_end)
        };
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }

    /// Everything the run computed.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("env", Value::obj(self.env())),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "end_to_end",
                Record::metrics_json(&END_TO_END, &self.end_to_end),
            ),
            (
                "per_layer",
                Record::metrics_json(&PER_LAYER, &self.per_layer),
            ),
            (
                "per_rep",
                Value::obj(self.per_rep.iter().map(|(name, values)| {
                    (
                        *name,
                        Value::Arr(values.iter().map(|v| Value::Num(*v)).collect()),
                    )
                })),
            ),
        ])
    }
}

fn unit_of(table: &'static [Metric], name: &str) -> &'static str {
    table.iter().find(|m| m.name == name).map_or("", |m| m.unit)
}

/// The checked-out commit, read from `.git` in the working directory; a
/// checkout that is not a git repository has none.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_owned(),
        None => head.to_owned(),
    };
    if commit.is_empty() {
        "unknown".to_owned()
    } else {
        commit
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// A file beside the running executable: inside the build directory, so
/// inside the checkout and out of git's sight.
pub fn beside_exe(name: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default()
        .join(name)
}

/// Where a workload's spans go: `<out>.trace-<workload>.json`, or beside
/// the executable when no `--out` was given.
pub fn trace_path(out: Option<&Path>, workload: &str) -> PathBuf {
    match out {
        Some(out) => PathBuf::from(format!("{}.trace-{workload}.json", out.display())),
        None => beside_exe(&format!("dpcbench.trace-{workload}.json")),
    }
}

/// Print, per workload and end-to-end metric, both sets' values, their
/// relative difference and the bound. Returns whether every difference is
/// within its bound.
pub fn print_aa(a: &[Value], b: &[Value]) -> bool {
    let mut within = true;
    println!("# A/A: two sets of runs of the same code");
    println!(
        "# {:<10} {:<28} {:<7} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "better", "set A", "set B", "diff", "bound"
    );
    for (ra, rb) in a.iter().zip(b) {
        let workload = ra
            .get("env")
            .and_then(|e| e.get("workload"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        for metric in &END_TO_END {
            let value = |r: &Value| {
                r.get("end_to_end")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            };
            let (va, vb) = (value(ra), value(rb));
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            // Same code both times, so a difference either way is noise.
            let diff = if va == 0.0 { 0.0 } else { (vb - va).abs() / va };
            within &= diff <= bound;
            println!(
                "aa {workload:<10} {:<28} {:<7} {va:>14.4} {vb:>14.4} {:>7.2}% {:>6.0}% {}",
                metric.name,
                metric.better.as_str(),
                diff * 100.0,
                bound * 100.0,
                if diff > bound { "EXCEEDS" } else { "" }
            );
        }
    }
    within
}
