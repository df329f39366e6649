//! The `bench` binary: one command runs one named workload, prints every
//! metric by name with its unit, checks the outputs, and exits non-zero
//! on a failed check. See `README.md` beside this package.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wormhole_perfbench::compare;
use wormhole_perfbench::host::Host;
use wormhole_perfbench::json::Json;
use wormhole_perfbench::runner::{
    result_set, run_timed, run_traced, RunOptions, RunReport, MIN_SAMPLE_S,
};
use wormhole_perfbench::workloads::{self, Size, WorkloadDef, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--write-golden]
  bench all [--seed N] [--seconds S] [--out DIR] [--write-golden]
  bench compare A.json B.json
  bench list";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    write_golden: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 24.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        write_golden: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--write-golden" => parsed.write_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn print_report(r: &RunReport) {
    println!(
        "# {} seed={} trace={} digest={:016x} ops={} failed_ops={}{}",
        r.def.name,
        r.opts.seed,
        r.traced as u8,
        r.digest,
        r.ops,
        r.failed_ops,
        if r.degraded { " DEGRADED" } else { "" }
    );
    if let Some((event, parallel)) = r.sample_s {
        println!("# one throughput sample lasts {event:.3} s (event), {parallel:.3} s (parallel)");
    }
    println!(
        "{:<34} {:>16} {:<10} {:>4} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "metric", "value", "unit", "reps", "median", "q1", "q3", "min", "max"
    );
    for (def, s) in &r.metrics {
        println!(
            "{:<34} {:>16.6} {:<10} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6}",
            def.name,
            def.reported(s),
            def.unit,
            s.reps,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max
        );
    }
    for f in &r.failures {
        println!("FAILED: {f}");
    }
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(def: &'static WorkloadDef, args: &Args, traced: bool, host: &Host) -> RunReport {
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        size: Size::Reference,
        min_sample_s: MIN_SAMPLE_S,
        write_golden: args.write_golden,
    };
    let report = if traced {
        run_traced(def, opts, host)
    } else {
        run_timed(def, opts, host)
    };
    print_report(&report);
    if let Some(trace) = &report.trace {
        let path = args
            .out
            .join(format!("{}.seed{}.trace.json", def.name, args.seed));
        match write(&path, trace) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("bench: {e}"),
        }
    }
    report
}

/// `bench all`: every workload in both modes, each in a process of its
/// own (so that `peak_rss_mib` is that workload's and nobody else's),
/// their result files merged into one set.
fn run_all(flags: &[String], host: &Host) -> Result<bool, String> {
    let args = parse(flags)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for def in &WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", def.name, "--trace", trace])
                .args(flags)
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let path = args
                .out
                .join(result_file(def.name, args.seed, trace == "1"));
            let set = load(&path.to_string_lossy())?;
            runs.extend(
                set.get("runs")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec(),
            );
        }
    }
    let path = args.out.join(format!("all.seed{}.json", args.seed));
    write(&path, &result_set(host, runs))?;
    println!("results: {}", path.display());
    Ok(all_correct)
}

fn result_file(workload: &str, seed: u64, traced: bool) -> String {
    format!("{workload}.seed{seed}.trace{}.json", traced as u8)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => {
            for w in &WORKLOADS {
                println!("{:<26} {}", w.name, w.why);
            }
            return Ok(true);
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return Err(USAGE.into());
            };
            let rows = compare::compare(&load(a)?, &load(b)?)?;
            print!("{}", compare::render(&rows));
            return Ok(!rows.iter().any(|r| r.verdict.disagrees()));
        }
        _ => {}
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    let host = Host::probe();
    if argv.first().map(String::as_str) == Some("all") {
        return run_all(&argv[1..], &host);
    }
    let args = parse(&argv)?;
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let def = workloads::find(name).ok_or(format!("unknown workload {name}; try `bench list`"))?;
    let report = run_one(def, &args, args.trace, &host);
    let path = args.out.join(result_file(def.name, args.seed, args.trace));
    write(&path, &result_set(&host, vec![report.to_json()]))?;
    println!("results: {}", path.display());
    // The contract: the last line of stdout is the result object.
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
