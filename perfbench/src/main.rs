//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload train|serve_shard|serve_burst|all] [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Each workload runs in a process of its own with the kernel thread
//! budget pinned to 1, does a fixed number of operations (never a
//! wall-clock deadline), and checks the program's outputs. `--seconds` is
//! accepted so that the command fits a harness that passes it, and is
//! otherwise ignored: a run's length is the benchmark's, so runs at any
//! setting measure the same work. `--workload all` (the default) runs
//! every workload and prefixes each key of the JSON line with the
//! workload's name; one named workload keeps the bare metric names. The
//! command prints every metric with its unit and sample count, writes the
//! result under `perfbench/out/`, and ends with one JSON line. With
//! `--trace 1` each workload runs twice — untraced, then traced — and the
//! command prints the per-layer metrics of the traced run and the tracing
//! overhead (traced minus untraced).

mod inputs;
mod record;
mod serve_burst;
mod serve_shard;
mod spans;
mod stats;
mod train;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use record::{Metric, Report, END_TO_END, PER_LAYER};
use spans::Tracer;
use stats::Samples;

pub const WORKLOADS: [&str; 3] = ["train", "serve_shard", "serve_burst"];

/// Bytes in the MB every size metric uses.
pub const MB: f64 = (1u64 << 20) as f64;

/// The program's GEMM tier counters, and the metrics they feed.
const GEMM_COUNTERS: [&str; 3] = [
    "gemm.tier.blocked",
    "gemm.tier.packed",
    "gemm.tier.prepacked",
];
pub const GEMM_METRICS: [&str; 3] = [
    "tensor.gemm.blocked_calls",
    "tensor.gemm.packed_calls",
    "tensor.gemm.prepacked_calls",
];

/// `ServeConfig::default()` with the service's span trees off. A traced
/// run turns telemetry on to read the program's counters; with span trees
/// on, the service would then also build a trace per request and feed its
/// tail sampler, work the untraced run never does.
pub fn serve_config() -> cem_serve::ServeConfig {
    cem_serve::ServeConfig {
        trace: cem_serve::TraceConfig {
            enabled: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Current GEMM tier counts; zero unless telemetry is on (traced runs).
pub fn gemm_counts() -> [u64; 3] {
    let snapshot = cem_obs::global().snapshot();
    GEMM_COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0))
}

/// Median and 95th percentile of a timing. Every workload runs enough
/// operations for the 95th percentile to have enough samples beyond it.
pub fn p50_p95(samples: &Samples) -> (f64, f64) {
    let p95 = samples
        .percentile(0.95)
        .unwrap_or_else(|refused| panic!("run too short for a p95: {refused:?}"));
    (samples.median(), p95)
}

/// What a workload process is asked to do.
pub struct Plan {
    pub seed: u64,
    /// The benchmark's own output directory.
    pub out_dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench [--workload train|serve_shard|serve_burst|all] [--seed N] [--seconds N] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    /// Run one workload in this process (how the command runs each one).
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        trace: false,
        child: false,
    };
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|e| format!("{what} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                args.workload = value.clone()
            }
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => args.seed = number("seed")?,
            "--seconds" => {
                number("seconds")?;
            }
            "--trace" if value == "0" || value == "1" => args.trace = value == "1",
            "--trace" => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.child && args.workload == "all" {
        return Err("a workload process runs one workload".to_string());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        run_workload(&args);
        return ExitCode::SUCCESS;
    }
    match run_command(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process, at one kernel thread; prints its report
/// as tab-separated lines on stdout.
fn run_workload(args: &Args) {
    let _threads = cem_tensor::par::ThreadsGuard::new(1);
    let _telemetry = args.trace.then(cem_obs::force_enable);
    let plan = Plan {
        seed: args.seed,
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&plan.out_dir).expect("create the output directory");
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    report.info("threads", cem_tensor::par::max_threads());
    match args.workload.as_str() {
        "train" => train::run(&mut tracer, &mut report),
        "serve_shard" => serve_shard::run(&plan, &mut tracer, &mut report),
        "serve_burst" => serve_burst::run(&plan, &mut tracer, &mut report),
        other => unreachable!("parse_args admits no workload {other:?}"),
    }
    report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB", 1);
    if tracer.traced() {
        let path = plan
            .out_dir
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).expect("write the span file");
        report.info("spans", path.display());
    }
    print!("{}", report.to_lines());
}

fn spawn(workload: &str, args: &Args, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let seed = args.seed.to_string();
    let trace_flag = if trace { "1" } else { "0" };
    let output = Command::new(exe)
        .args([
            "--child",
            "--workload",
            workload,
            "--seed",
            &seed,
            "--trace",
            trace_flag,
        ])
        .env("CEM_THREADS", "1")
        // Telemetry is on only where the traced run turns it on.
        .env_remove("CEM_OBS")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start the {workload} process: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} process failed ({})", output.status));
    }
    Report::parse_lines(&String::from_utf8_lossy(&output.stdout))
}

fn git_describe() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench/ sits in the repository");
    let output = Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    match output {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn value(report: &Report, name: &str) -> Result<f64, String> {
    report
        .get(name)
        .map(|m| m.value)
        .ok_or_else(|| format!("no {name} in the report"))
}

/// Run a workload untraced and traced; the traced report gains the
/// per-layer metrics it bypassed (as 0) and the tracing overhead.
fn traced(workload: &str, args: &Args) -> Result<Report, String> {
    let untraced = spawn(workload, args, false)?;
    let mut traced = spawn(workload, args, true)?;
    let overhead = value(&traced, "measured_s")? - value(&untraced, "measured_s")?;
    traced.metric("trace.overhead_s", overhead, "s", 1);
    println!("tracing overhead on {workload} (traced − untraced):");
    for def in END_TO_END {
        let (with, without) = (value(&traced, def.name)?, value(&untraced, def.name)?);
        println!(
            "  {:<34} {:>+14.6} {:<8} ({with:.6} vs {without:.6})",
            def.name,
            with - without,
            def.unit
        );
    }
    for def in PER_LAYER {
        if traced.get(def.name).is_none() {
            traced.metric(def.name, 0.0, def.unit, 0);
        }
    }
    Ok(traced)
}

fn print_report(workload: &str, args: &Args, report: &Report, path: &Path) {
    let mode = if args.trace { "traced" } else { "untraced" };
    println!("== perfbench {workload}: seed {}, {mode} ==", args.seed);
    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("provenance: {}", info.join(" "));
    let shown: Vec<&Metric> = if args.trace {
        PER_LAYER
            .iter()
            .filter_map(|d| report.get(d.name))
            .collect()
    } else {
        report.metrics.iter().collect()
    };
    for m in shown {
        println!(
            "  {:<40} {:>16.6} {:<8} samples {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if report.correct() {
        println!("checks: all passed");
    } else {
        println!("checks: {} FAILED", report.failures.len());
        for failure in report.failures.iter().take(20) {
            println!("  {failure}");
        }
    }
    println!("result: {}", path.display());
}

fn run_command(args: &Args) -> Result<(), String> {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let git = git_describe();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut line: Vec<(String, Metric)> = Vec::new();
    for workload in workloads {
        let mut report = if args.trace {
            traced(workload, args)?
        } else {
            spawn(workload, args, false)?
        };
        report.info("machine_threads", cem_tensor::par::machine_threads());
        report.info("simd_active", cem_tensor::microkernel::simd_active());
        report.info("git", &git);
        report.info("seed", args.seed);
        report.info("trace", u8::from(args.trace));

        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = record::result_path(&dir, workload, args.seed, args.trace);
        std::fs::write(&path, record::result_json(workload, &report))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        print_report(workload, args, &report, &path);

        let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
        for def in catalogue {
            let metric = report
                .get(def.name)
                .ok_or_else(|| format!("{workload} did not report {}", def.name))?;
            let name = if args.workload == "all" {
                format!("{workload}.{}", def.name)
            } else {
                def.name.to_string()
            };
            line.push((name, metric.clone()));
        }
        correct &= report.correct();
        attempted += report.attempted;
        failed += report.failed;
    }
    println!(
        "{}",
        record::contract_line(correct, attempted, failed, &line)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, String> {
        parse_args(
            &args
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn arguments_are_checked() {
        let args = parse("--workload serve_burst --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve_burst".to_string(),
                seed: 9,
                trace: true,
                child: false
            }
        );
        assert_eq!(parse("").unwrap().workload, "all");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert_eq!(
            parse("--seconds 60").unwrap(),
            parse("").unwrap(),
            "--seconds changes nothing"
        );
        assert!(parse("--seconds ten").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--quick 1").is_err());
        assert!(
            parse("--child").is_err(),
            "a workload process needs one workload"
        );
        assert!(parse("--child --workload train").unwrap().child);
    }
}
