//! `perfbench`: the repository's benchmark.
//!
//! One command runs one workload and prints the effective configuration,
//! every metric by name with its unit and sample count, the failed
//! operations, and, as the last line, a JSON result. With `--trace 0`
//! the result holds the end-to-end metrics, measured untraced; with
//! `--trace 1` the window is split into an untraced and a traced half
//! and the result holds the per-layer metrics.
//!
//! ```text
//! perfbench --workload explore|validate|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs are hermetic: the program refuses to start when any `DHDL_*`
//! variable is set, calibrates in-process from a fixed seed, and keeps
//! caches and checkpoints in a per-run directory under
//! `.perfbench-tmp/` that it removes before exiting.

mod common;
mod explore;
mod models;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod validate;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{command_line, cpu_model, cpu_ticks, peak_rss_mb, Ctx};
use report::{Report, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: perfbench --workload explore|validate|serve --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The per-run scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = std::env::current_dir()?
            .join(".perfbench-tmp")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("DHDL_"))
    {
        eprintln!(
            "perfbench: refusing to run with {name} set: the program's environment knobs \
             would change what is measured; unset it"
        );
        return ExitCode::from(2);
    }
    let run: fn(&Ctx, &mut Report) -> Result<(), String> = match args.workload.as_str() {
        "explore" => explore::run,
        "validate" => validate::run,
        "serve" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: creating the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp: scratch.0.clone(),
    };
    let mut report = Report::default();
    report.config("workload", &args.workload);
    report.config("seed", args.seed);
    report.config("seconds", args.seconds);
    report.config("trace", u8::from(args.trace));
    report.config(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.config("cpu", cpu_model());
    report.config("rustc", command_line("rustc", &["-V"]));
    report.config(
        "commit",
        command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
    );
    let ticks_before = cpu_ticks();
    let outcome = run(&ctx, &mut report);
    drop(scratch);
    // CPU time the host withheld from this machine during the run: a
    // busy neighbour on a shared host shows up here, not in the program.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.config("host_steal_pct", format!("{share:.2}"));
    }
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB", 1),
        None => {
            eprintln!("perfbench: cannot read the peak resident set size");
            return ExitCode::FAILURE;
        }
    }
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in listed {
        if report.metrics.contains_key(*name) {
            continue;
        }
        if args.trace {
            // A layer the workload never calls.
            report.metric(name, 0.0, unit, 0);
        } else {
            eprintln!("perfbench: {name} could not be measured (too few samples?)");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report.render(listed));
    ExitCode::SUCCESS
}
