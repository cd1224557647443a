//! `dpcbench`: the repository's end-to-end benchmark. See `README.md` in
//! this directory for the workloads, the metrics and how they interact.
//!
//! With `--workload` the process runs that workload itself and ends its
//! standard output with the one-line result the driver reads. Without it
//! the process runs all four, each in a child process of its own, so that
//! one world and its thread pools are alive at a time and `peak_rss_mb`
//! belongs to one workload.

mod cpu;
mod drive;
mod json;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod world;

#[cfg(test)]
mod smoke;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Value;
use spec::{Scale, NOMINAL_SECONDS, WORKLOADS};

const USAGE: &str = "usage: dpcbench --seed <u64> [--workload <name>] [--seconds <n>] \
[--trace <0|1>] [--quick] [--aa] [--out <file.json>]";

/// Wall time one workload may take per second of `--seconds` before the
/// output carries a warning: the driver's 92 runs and two builds must end
/// within 3 420 s, which leaves 37 s for a run that measures for 20.
const WALL_CAP_PER_SECOND: f64 = 37.0 / NOMINAL_SECONDS as f64;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub aa: bool,
    pub out: Option<PathBuf>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 1,
            seconds: NOMINAL_SECONDS,
            trace: true,
            quick: false,
            aa: false,
            out: None,
        };
        let mut args = args.skip(1);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => parsed.workload = Some(value()?),
                "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--quick" => parsed.quick = true,
                "--aa" => parsed.aa = true,
                "--out" => parsed.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !(1..=60).contains(&parsed.seconds) {
            return Err("--seconds takes 1 to 60".to_owned());
        }
        Ok(parsed)
    }

    pub fn scale(&self) -> Scale {
        Scale {
            quick: self.quick,
            seconds: self.seconds,
        }
    }

    fn wall_cap_s(&self) -> f64 {
        self.seconds as f64 * WALL_CAP_PER_SECOND
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dpcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => {
            let Some(workload) = spec::workload(name) else {
                eprintln!("dpcbench: no workload {name}\n{USAGE}");
                return ExitCode::from(2);
            };
            single(workload, &args)
        }
        None => suite(&args),
    }
}

/// Run one workload in this process and print its result.
fn single(workload: &'static spec::Workload, args: &Args) -> ExitCode {
    let record = run::run_workload(workload, args);
    println!("{}", record.env_header());
    for line in record.metric_lines() {
        println!("{line}");
    }
    if record.wall_s > args.wall_cap_s() && !args.quick {
        println!(
            "# warning: wall time {:.1} s exceeds the cap of {:.1} s",
            record.wall_s,
            args.wall_cap_s()
        );
    }
    if let Some(trace) = &record.trace {
        println!(
            "# pipeline self time p50 {} ns: the harness's own glue between the layer calls, not a layer",
            trace.self_p50_ns("pipeline")
        );
        let path = report::trace_path(args.out.as_deref(), workload.name);
        match std::fs::write(&path, trace.to_json().render()) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
    let full = record.to_json();
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, full.render()) {
            eprintln!("dpcbench: cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    println!("record {}", full.render());
    println!("{}", record.result_line(args.trace).render());
    if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process each; with `--aa`, twice, and
/// compare the two sets.
fn suite(args: &Args) -> ExitCode {
    let t0 = Instant::now();
    let mut sets = Vec::new();
    let mut all_correct = true;
    for set in 0..if args.aa { 2 } else { 1 } {
        let mut records = Vec::new();
        for workload in &WORKLOADS {
            match run_child(workload.name, args) {
                Ok(record) => {
                    all_correct &= record.get("correct") == Some(&Value::Bool(true));
                    records.push(record);
                }
                Err(e) => {
                    eprintln!("dpcbench: set {set} workload {}: {e}", workload.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(records);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cap_s = args.wall_cap_s() * (WORKLOADS.len() * sets.len()) as f64;
    println!("# suite wall_s={wall_s:.1}");
    if wall_s > cap_s && !args.quick {
        println!("# warning: wall time {wall_s:.1} s exceeds the cap of {cap_s:.1} s");
    }
    let within_bounds = !args.aa || report::print_aa(&sets[0], &sets[1]);
    let out = Value::obj([
        ("wall_s", Value::Num(wall_s)),
        (
            "sets",
            Value::Arr(sets.into_iter().map(Value::Arr).collect()),
        ),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| report::beside_exe("dpcbench.json"));
    if let Err(e) = std::fs::write(&path, out.render()) {
        eprintln!("dpcbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# results written to {}", path.display());
    if all_correct && within_bounds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-execute this binary for one workload, pass its output through, and
/// return the full record it printed.
fn run_child(workload: &str, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "1"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(out) = &args.out {
        // So the child's spans land at `<out>.trace-<workload>.json`. It
        // also leaves its own record at `<out>`, which the suite's results
        // replace at the end.
        cmd.arg("--out").arg(out);
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut record = None;
    for line in stdout.lines() {
        match line.strip_prefix("record ") {
            Some(json) => record = Some(json::parse(json)?),
            None => println!("{line}"),
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    // A child that saw a wrong output exits non-zero after printing; its
    // record says so and the suite goes on.
    record.ok_or_else(|| format!("child exited with {} and no record", output.status))
}
