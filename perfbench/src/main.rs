//! The repository benchmark: multilevel solves at two scales plus
//! open-loop and saturated daemon traffic.
//!
//! ```text
//! perfbench --workload <ml_16k|ml_65k|serve_mix|serve_hits> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) print every end-to-end metric; traced
//! runs (`--trace 1`) print every per-layer metric, a layer table, and
//! write their spans to `perfbench/out/`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Any failed output check makes the exit code 1.
//! `perfbench/README.md` describes the workloads and metrics.
//!
//! Linux only: the open loop waits with `ppoll` and `peak_rss_mb` reads
//! `/proc/self/status`.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench needs Linux (ppoll and /proc/self/status)");

mod load;
mod ml;
mod report;
mod schedule;
mod serve;
mod spans;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};
use spans::SpanLog;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["ml_16k", "ml_65k", "serve_mix", "serve_hits"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// First line of a command's output, or `unknown`.
fn first_line(command: &mut std::process::Command) -> String {
    command
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The host's CPU ticks so far: (all, stolen by the hypervisor), from
/// the `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

fn run(args: &Args, log: &mut SpanLog, report: &mut Report) -> Result<(), String> {
    let (seed, seconds) = (args.seed, args.seconds);
    match args.workload.as_str() {
        "ml_16k" | "ml_65k" => {
            let w = if args.workload == "ml_16k" {
                ml::MlWorkload {
                    n: 16384,
                    problems: 6,
                }
            } else {
                ml::MlWorkload {
                    n: 65536,
                    problems: 7,
                }
            };
            let mut probe = serve::MlProbe::new(seed, args.trace, report);
            ml::run(w, seed, seconds, log, report, |log, report| {
                probe.rep(log, report)
            })?;
            probe.finish(report);
            Ok(())
        }
        "serve_mix" => serve::serve_mix(seed, seconds, args.trace, log, report),
        "serve_hits" => serve::serve_hits(seed, seconds, args.trace, log, report),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" git={} profile={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        first_line(std::process::Command::new("rustc").arg("--version")),
        // Git must not look above the working directory: outside a git
        // checkout the sha is `unknown`, and nothing outside is read.
        first_line(
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling)
        ),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );

    let mut log = SpanLog::new(Instant::now(), args.trace);
    let mut report = Report::default();
    let ticks = cpu_ticks();
    if let Err(e) = run(&args, &mut log, &mut report) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.fail("cannot read peak RSS from /proc/self/status".into()),
    }
    let attempted = report.attempted.max(1);
    report.set(
        "ok_share",
        attempted.saturating_sub(report.failed()) as f64 / attempted as f64,
    );
    // A shared host that slows a run shows here, not in the metrics.
    if let (Some((all0, steal0)), Some((all1, steal1))) = (ticks, cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64;
        report.notes.push(format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run",
            100.0 * share
        ));
    }
    for note in &report.notes {
        println!("  {note}");
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        ));
        match log.write_jsonl(&path) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                log.spans().len(),
                path.display()
            ),
            Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
        }
        println!("  layer table ({}):", args.workload);
    }
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match report.values.get(*name) {
            Some(v) => *v,
            // Per-layer: a layer this workload does not exercise.
            None if args.trace => 0.0,
            None => {
                report.fail(format!("end-to-end metric {name} was not measured"));
                f64::NAN
            }
        };
        if args.trace {
            println!("    {name:<30} {value:>16.6} {unit}");
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for f in report.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
