//! `dew-perfbench`: the repository's outside-in benchmark.
//!
//! ```text
//! dew-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation prepares one workload's inputs from the seed, times its
//! operation for the given number of seconds, checks every output outside
//! the timed region, and prints one line per metric followed by one JSON
//! result line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the traced twin of the workload and reports the per-layer metrics,
//! writing its spans to `.bench_work/spans/`. The exit code is 0 only when
//! every output was correct. `perfbench/run.py` builds and runs this
//! binary; `perfbench/README.md` describes the workloads and metrics.

mod check;
mod cpu;
mod metrics;
mod serve_load;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{json_string, result_line};
use workloads::{Outcome, Setup, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run as the memory probe of a run whose inputs are in
    /// this directory (see `workloads::memory_probe`).
    memory_probe: Option<PathBuf>,
}

const USAGE: &str =
    "usage: dew-perfbench --workload <table1_fifo|explore_all|stream_din_ckpt|serve_open> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut memory_probe = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--memory-probe" => memory_probe = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = match (seconds, &memory_probe) {
        (Some(s), _) => s,
        (None, Some(_)) => 0.0,
        (None, None) => return Err("missing --seconds".to_owned()),
    };
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
        memory_probe,
    })
}

/// The run's scratch directory under `.bench_work/`, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The commit of the checkout, when it is a git working tree.
fn commit() -> String {
    let head = Path::new(".git/HEAD");
    let Ok(text) = std::fs::read_to_string(head) else {
        return "unknown".to_owned();
    };
    let text = text.trim();
    let Some(reference) = text.strip_prefix("ref: ") else {
        return text.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host's L2 size as the kernel reports it (e.g. `1024K`).
fn l2_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The environment stamp printed with every result: results with
/// different backends must not be compared.
fn env_json(setup: &Setup, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {trace}, \"backend\": {}, \
         \"selftest_downgraded\": {}, \"nproc\": {nproc}, \"l2\": {}, \"commit\": {}, \
         \"sim_threads\": 1}}",
        json_string(setup.workload.name()),
        setup.seed,
        json_string(setup.backend.name()),
        setup.downgraded,
        json_string(&l2_size()),
        json_string(&commit()),
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = Path::new(".bench_work");
    let dir = WorkDir(root.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("creating {}: {e}", dir.0.display()))?;
    let mut setup = workloads::setup(args.workload, args.seed, &dir.0)?;
    let env = env_json(&setup, args.trace);
    println!("env: {env}");
    let outcome = if args.trace {
        let mut tracer = traced::Tracer::new();
        let outcome = workloads::run_traced(&setup, args.seconds, &mut tracer)?;
        let spans_dir = root.join("spans");
        std::fs::create_dir_all(&spans_dir).map_err(|e| format!("creating spans dir: {e}"))?;
        let path = spans_dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
        let body = format!(
            "{{\"env\": {env},\n\"spans\": {}}}\n",
            tracer.to_json(args.workload.name())
        );
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        outcome
    } else {
        workloads::run_untraced(&setup, args.seconds)?
    };
    if let Some(server) = setup.server.take() {
        let drain = server.stop();
        if drain.in_flight != 0 {
            return Err(format!("server stopped with jobs in flight: {drain}"));
        }
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dew-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.memory_probe {
        return match workloads::memory_probe(args.workload, args.seed, dir) {
            Ok(mib) => {
                println!("peak_rss_mib {mib}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dew-perfbench: memory probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dew-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} ({}): {} operations, {} failed (fail_frac {})",
        args.workload.name(),
        if args.trace { "traced" } else { "end to end" },
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in &outcome.metrics {
        println!("{}", m.describe());
    }
    for m in &outcome.shown {
        println!("{}  [printed only]", m.describe());
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &outcome.problems {
        println!("MISMATCH {problem}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
