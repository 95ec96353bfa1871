//! The repository benchmark. See `README.md` for the workloads and the
//! metrics; one invocation runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload square_pow2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result. The exit code is
//! non-zero when any output check failed or the arguments are invalid.

mod layers;
mod library;
mod report;
mod serving;
mod speed;
mod workload;

use std::process::{Command, ExitCode};

use report::{median, Report, SpanLog, END_TO_END, PER_LAYER};

/// Pool workers, set explicitly before the pool's first use so every run
/// — parent commit and change alike — uses the same count.
pub const POOL_WORKERS: usize = 2;

/// Fresh processes whose set-up time `setup_s` takes the median of.
const SETUP_RUNS: usize = 7;

/// Span log capacity of a traced run (spans beyond it are counted as
/// dropped; about 10 MB of JSON lines at the cap).
const SPAN_CAP: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, setup_child: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--setup-child" => args.setup_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workload::WORKLOADS));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Set-up time of one fresh process — pool, probes, buffers and the
/// first checked result of the workload — and the host-speed probe rate.
fn setup_child(args: &Args) -> Result<(f64, f64), String> {
    match workload::library_calls(&args.workload, args.seed) {
        Some(calls) => library::setup_child(calls[0]),
        None => serving::setup_child(args.seed),
    }
}

/// Median set-up time over [`SETUP_RUNS`] child processes, each checked
/// and scaled to the reference host speed by its own probe.
fn measure_setup(args: &Args, report: &mut Report) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(SETUP_RUNS);
    for _ in 0..SETUP_RUNS {
        let out = Command::new(&exe)
            .args(["--setup-child", "--workload", &args.workload, "--seed", &args.seed.to_string()])
            .output()
            .map_err(|e| format!("spawning set-up process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().and_then(|l| l.strip_prefix("setup_s ")).and_then(|v| {
            let (t, g) = v.split_once(' ')?;
            Some(t.parse::<f64>().ok()? * g.parse::<f64>().ok()? / speed::REFERENCE_GOPS)
        });
        report.check(out.status.success() && parsed.is_some());
        match parsed {
            Some(t) if out.status.success() => times.push(t),
            _ => eprintln!("set-up process failed: {}", String::from_utf8_lossy(&out.stderr).trim()),
        }
    }
    if times.is_empty() {
        return Err("every set-up process failed".into());
    }
    Ok(median(&mut times))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_child {
        return match setup_child(&args) {
            Ok((t, gops)) => {
                println!("setup_s {t} {gops}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench set-up: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Err(e) = pool::set_num_threads(POOL_WORKERS) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    report.notes.push(report::host_line());
    report.notes.push(format!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    ));
    if !args.trace {
        match measure_setup(&args, &mut report) {
            Ok(t) => report.set("setup_s", t),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut spans = args.trace.then(|| SpanLog::new(SPAN_CAP));
    match workload::library_calls(&args.workload, args.seed) {
        Some(calls) => library::run(&calls, args.seconds, spans.as_mut(), &mut report),
        None => serving::run(args.seed, args.seconds, spans.as_mut(), &mut report),
    }
    report.set("ok_frac", 1.0 - report.failed as f64 / report.attempted.max(1) as f64);
    if let Some(log) = &spans {
        match log.write(&args.workload, args.seed) {
            Ok(path) => {
                report.notes.push(format!("{} spans written to {path} ({} dropped)", log.len(), log.dropped))
            }
            Err(e) => report.notes.push(format!("writing spans failed: {e}")),
        }
    }
    print!("{}", report.render(if args.trace { PER_LAYER } else { END_TO_END }));
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
