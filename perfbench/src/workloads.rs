//! The four workloads: their inputs, the operation each one times, the
//! checks on its outputs, and its traced twin.
//!
//! Every workload starts from empty modelled caches and runs its sweeps on
//! one simulation thread: on a small shared machine two threads would
//! measure the scheduler.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dew_core::kernel::selftest;
use dew_core::{
    ConfigSpace, FileCheckpointStore, FusedKernel, KernelBackend, MemoryCheckpointStore,
    Resilience, SweepCheckpoint, SweepOutcome, SweepRequest, TreePolicy,
};
use dew_explore::{
    best_edp_under, evaluate_sweep, explore_trace, pareto_front, score_sweeps, EnergyModel,
    ExplorationReport, ExplorationSpace, ParetoMode,
};
use dew_serve::json::Json;
use dew_serve::{ServeConfig, Server};
use dew_trace::din::{DinReader, DinWriter};
use dew_trace::{decode_blocks, AccessKind, Record, Trace, TraceError, TraceSource};
use dew_workloads::mediabench::App;
use dew_workloads::traffic::{MixKind, TrafficSpec};

use crate::check::{self, add_outcome, Key, Misses};
use crate::cpu::{Stopwatch, Timing};
use crate::metrics::{median, quantile, Metric};
use crate::serve_load::{self, stat, JobRecord};
use crate::traced::{self, fan_out, jobs, ReplayCounts, TimedStore, Tracer};

/// Requests in the `table1_fifo` CJPEG trace.
const TABLE1_REQUESTS: u64 = 1_000_000;
/// Requests in the `explore_all` MPEG2-decode trace.
const EXPLORE_REQUESTS: u64 = 100_000;
/// Records in the `stream_din_ckpt` `.din` file, written in chunks of
/// [`STREAM_CHUNK`] so set-up memory does not grow with the trace.
const STREAM_RECORDS: u64 = 2_000_000;
const STREAM_CHUNK: u64 = 50_000;
/// Checkpoint cadence of `stream_din_ckpt`, in records per job.
const STREAM_CHECKPOINT_EVERY: u64 = 500_000;
/// The open-loop rate of `serve_open`, in jobs per second: about half the
/// closed-loop capacity of a 2-worker server on a 2-core host (47-51
/// jobs/s measured with `dew gen --concurrency 2|4 --mix mix`), kept fixed
/// so that a faster kernel shows as shorter queues rather than more load.
const SERVE_RATE: f64 = 25.0;
/// Requests per `serve_open` job (the protocol default).
const SERVE_REQUESTS: u64 = 20_000;
/// Every this many `serve_open` jobs, one is re-run in process and its
/// result compared with the server's.
const SERVE_CHECK_EVERY: usize = 16;
/// In-process replays of a `serve_open` job in the traced run.
const SERVE_REPLAYS: usize = 6;
/// Set-up is repeated at least [`SETUP_MIN_REPEATS`] times and until
/// [`SETUP_SECONDS`] have passed; `setup_s` is the median repetition.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 1.5;
/// Memory probes per run; `peak_rss_mib` is their median.
const MEMORY_PROBES: usize = 3;
/// How long a memory probe of `serve_open` drives the open loop.
const SERVE_PROBE_SECONDS: f64 = 2.0;
/// Operations timed per run even when `--seconds` is shorter.
const MIN_OPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Fifo,
    ExploreAll,
    StreamDinCkpt,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Fifo,
        Workload::ExploreAll,
        Workload::StreamDinCkpt,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Fifo => "table1_fifo",
            Workload::ExploreAll => "explore_all",
            Workload::StreamDinCkpt => "stream_din_ckpt",
            Workload::ServeOpen => "serve_open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The configuration space the workload sweeps.
    fn space(self) -> ConfigSpace {
        match self {
            Workload::Table1Fifo | Workload::ExploreAll => ConfigSpace::paper(),
            // 2^6..2^10 sets, 16..64-byte blocks, 1..4 ways: a 127 KiB
            // FIFO arena that stays in a core's L2.
            Workload::StreamDinCkpt => {
                ConfigSpace::new((6, 10), (4, 6), (0, 2)).expect("valid space")
            }
            // The `dew serve` protocol's default space.
            Workload::ServeOpen => ConfigSpace::new((4, 8), (5, 7), (0, 2)).expect("valid space"),
        }
    }

    fn policies(self) -> &'static [TreePolicy] {
        match self {
            Workload::ExploreAll => &TreePolicy::ALL,
            _ => &[TreePolicy::Fifo],
        }
    }

    fn input_name(self) -> &'static str {
        match self {
            Workload::Table1Fifo => "cjpeg.dewt",
            Workload::ExploreAll => "mpeg2_dec.dewt",
            Workload::StreamDinCkpt => "g721_enc.din",
            Workload::ServeOpen => "none",
        }
    }
}

/// What a run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches, replay divergences and benchmark bugs.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Metrics printed but not part of the result.
    pub shown: Vec<Metric>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

/// The prepared inputs of a run.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub dir: PathBuf,
    pub input: PathBuf,
    /// Each set-up repetition's time.
    pub setup_s: Vec<Timing>,
    pub backend: KernelBackend,
    /// Whether the kernel selftest pinned the scalar backend.
    pub downgraded: bool,
    pub server: Option<Server>,
}

/// Prepares the workload's inputs repeatedly, timing each repetition:
/// trace generation and file write, the kernel selftest every `dew`
/// process pays, and (for `serve_open`) server start.
pub fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let input = dir.join(workload.input_name());
    let detected = KernelBackend::active();
    let mut backend = detected;
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    let begin = Instant::now();
    for rep in 0.. {
        if rep >= SETUP_MIN_REPEATS && begin.elapsed().as_secs_f64() >= SETUP_SECONDS {
            break;
        }
        if let Some(old) = server.take() {
            old.stop();
        }
        let watch = Stopwatch::start();
        write_input(workload, seed, &input).map_err(|e| format!("writing the input: {e}"))?;
        if rep == 0 {
            backend = selftest::ensure();
        } else if backend != KernelBackend::Scalar {
            selftest::verify()?;
        }
        if workload == Workload::ServeOpen {
            server = Some(start_server()?);
        }
        setup_s.push(watch.read());
    }
    Ok(Setup {
        workload,
        seed,
        dir: dir.to_owned(),
        input,
        setup_s,
        backend,
        downgraded: backend != detected,
        server,
    })
}

fn write_input(workload: Workload, seed: u64, path: &Path) -> Result<(), TraceError> {
    match workload {
        Workload::Table1Fifo => {
            // The CJPEG surrogate is a deterministic pipeline, so the seed
            // places its data segment relative to its code (as a different
            // link layout would): every seed gives a distinct trace.
            let shift = (seed % 4096) * 64;
            let trace: Trace = App::JpegEncode
                .generate(TABLE1_REQUESTS, seed)
                .into_iter()
                .map(|r| match r.kind {
                    AccessKind::InstrFetch => r,
                    kind => Record::new(r.addr + shift, kind),
                })
                .collect();
            trace.write_bin_file(path)
        }
        Workload::ExploreAll => App::Mpeg2Decode
            .generate(EXPLORE_REQUESTS, seed)
            .write_bin_file(path),
        Workload::StreamDinCkpt => {
            let file = std::io::BufWriter::new(File::create(path)?);
            let mut writer = DinWriter::new(file);
            for chunk in 0..STREAM_RECORDS / STREAM_CHUNK {
                let chunk_seed = seed.wrapping_mul(1 << 20).wrapping_add(chunk);
                writer.write_all(App::G721Encode.generate(STREAM_CHUNK, chunk_seed))?;
            }
            writer.finish()?;
            Ok(())
        }
        Workload::ServeOpen => Ok(()),
    }
}

fn start_server() -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: 2,
        sim_threads: 1,
        // Admission never sheds at the fixed rate; a shed job would be a
        // failure, not a latency sample.
        queue_capacity: 1024,
        default_deadline: Duration::from_secs(60),
        max_deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))
}

/// The re-openable `.din` source of `stream_din_ckpt`.
fn din_source(path: &Path) -> impl TraceSource + '_ {
    move || -> Result<DinReader<BufReader<File>>, TraceError> {
        Ok(DinReader::new(BufReader::new(File::open(path)?)))
    }
}

/// The generated source of one `serve_open` job, as the server builds it.
fn traffic_source(spec: TrafficSpec) -> impl TraceSource {
    move || -> Result<_, TraceError> { Ok(spec.records().map(Ok::<Record, TraceError>)) }
}

fn traffic(seed: u64) -> TrafficSpec {
    TrafficSpec {
        kind: MixKind::Mix,
        requests: SERVE_REQUESTS,
        seed,
    }
}

/// The file `stream_din_ckpt` checkpoints to, in the run's directory.
const CHECKPOINT_FILE: &str = "sweep.dewc";

fn read_checkpoint(setup: &Setup) -> Result<Vec<u8>, String> {
    std::fs::read(setup.dir.join(CHECKPOINT_FILE))
        .map_err(|e| format!("reading the checkpoint: {e}"))
}

fn read_bin(path: &Path) -> Result<Trace, String> {
    Trace::read_bin_file(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn exploration() -> ExplorationSpace {
    ExplorationSpace::new(ConfigSpace::paper()).with_policies(&TreePolicy::ALL)
}

fn sweep(
    space: &ConfigSpace,
    policy: TreePolicy,
    records: &[Record],
) -> Result<SweepOutcome, String> {
    SweepRequest::new(space)
        .policy(policy)
        .threads(1)
        .run(records)
        .map_err(|e| format!("{policy} sweep: {e}"))
}

fn streamed_sweep<S: TraceSource>(
    space: &ConfigSpace,
    source: &S,
    every: u64,
    store: &dyn dew_core::CheckpointStore,
) -> Result<SweepOutcome, String> {
    let res = Resilience::new().with_checkpoint(every, store);
    let outcome = SweepRequest::new(space)
        .policy(TreePolicy::Fifo)
        .threads(1)
        .resilient(&res)
        .run_streamed(source)
        .map_err(|e| format!("streamed sweep: {e}"))?;
    if outcome.is_partial() || outcome.retries() > 0 {
        return Err(format!(
            "streamed sweep degraded: {} failed jobs, {} retries",
            outcome.failed_jobs().len(),
            outcome.retries()
        ));
    }
    Ok(outcome)
}

/// Misses of the points an exploration kept, plus its frontier.
fn report_misses(report: &ExplorationReport) -> (Misses, Vec<Key>) {
    let key = |p: &dew_explore::ExplorationPoint| {
        let g = p.evaluation.geometry;
        (p.policy, g.sets, g.assoc, g.block_bytes)
    };
    let misses = report
        .points()
        .iter()
        .map(|p| (key(p), p.evaluation.misses))
        .collect();
    let frontier = report.frontier().iter().map(key).collect();
    (misses, frontier)
}

/// One timed operation of a sweep workload: the time from opening the
/// trace file to the finished result, the result's misses, and (for
/// `explore_all`) its frontier.
type OpResult = (Timing, Misses, Vec<Key>);

fn sweep_op(setup: &Setup) -> Result<OpResult, String> {
    let space = setup.workload.space();
    let watch = Stopwatch::start();
    match setup.workload {
        Workload::Table1Fifo => {
            let trace = read_bin(&setup.input)?;
            let outcome = sweep(&space, TreePolicy::Fifo, trace.records())?;
            let secs = watch.read();
            let mut misses = Misses::new();
            add_outcome(&outcome, &mut misses);
            Ok((secs, misses, Vec::new()))
        }
        Workload::ExploreAll => {
            let trace = read_bin(&setup.input)?;
            let report = explore_trace(
                &exploration(),
                trace.records(),
                &EnergyModel::default(),
                ParetoMode::Pruned,
                1,
            )
            .map_err(|e| format!("exploration: {e}"))?;
            // `dew explore` prints the frontier, so extracting it is timed.
            std::hint::black_box(report.frontier());
            let secs = watch.read();
            let (misses, frontier) = report_misses(&report);
            Ok((secs, misses, frontier))
        }
        Workload::StreamDinCkpt => {
            let store = FileCheckpointStore::new(setup.dir.join(CHECKPOINT_FILE));
            let source = din_source(&setup.input);
            let outcome = streamed_sweep(&space, &source, STREAM_CHECKPOINT_EVERY, &store)?;
            let secs = watch.read();
            let mut misses = Misses::new();
            add_outcome(&outcome, &mut misses);
            Ok((secs, misses, Vec::new()))
        }
        Workload::ServeOpen => unreachable!("serve_open has no sweep operation"),
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics of a run: `cpu` is the operation CPU time it
/// reports, `wall_s` the wall-clock operation times it prints beside.
fn end_to_end(
    setup: &Setup,
    cpu: Metric,
    wall_s: &[f64],
    outcome: &mut Outcome,
) -> Result<(), String> {
    let rss = (0..MEMORY_PROBES)
        .map(|_| probe_memory(setup))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_cpu: Vec<f64> = setup.setup_s.iter().map(|t| t.cpu).collect();
    let setup_wall: Vec<f64> = setup.setup_s.iter().map(|t| t.wall).collect();
    outcome.metrics = vec![
        cpu,
        Metric::median_of("peak_rss_mib", "MiB", &rss),
        Metric::median_of("setup_s", "s", &setup_cpu),
    ];
    outcome.shown = vec![
        Metric::median_of("wall_s", "s", wall_s),
        Metric::median_of("setup_wall_s", "s", &setup_wall),
    ];
    Ok(())
}

/// One `peak_rss_mib` sample: the `VmHWM` of a fresh process that ran one operation
/// of the workload (for `serve_open`, the open loop for
/// [`SERVE_PROBE_SECONDS`]) on this run's inputs. It runs with glibc's
/// arena count pinned to 1, so that which per-thread arena a repeated
/// operation lands in does not add run-to-run jitter.
fn probe_memory(setup: &Setup) -> Result<f64, String> {
    let fail = |e: String| format!("memory probe: {e}");
    let exe = std::env::current_exe().map_err(|e| fail(e.to_string()))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", setup.workload.name()])
        .args(["--seed", &setup.seed.to_string()])
        .arg("--memory-probe")
        .arg(&setup.dir)
        .env("MALLOC_ARENA_MAX", "1")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| fail(e.to_string()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("peak_rss_mib "));
    match (out.status.success(), value.map(str::parse)) {
        (true, Some(Ok(mib))) => Ok(mib),
        _ => Err(fail(format!("exited with {}", out.status))),
    }
}

/// The memory probe's side: one operation on the inputs already in `dir`.
pub fn memory_probe(workload: Workload, seed: u64, dir: &Path) -> Result<f64, String> {
    let backend = selftest::ensure();
    let server = match workload {
        Workload::ServeOpen => Some(start_server()?),
        _ => None,
    };
    let setup = Setup {
        workload,
        seed,
        dir: dir.to_owned(),
        input: dir.join(workload.input_name()),
        setup_s: Vec::new(),
        backend,
        downgraded: false,
        server,
    };
    if workload == Workload::ServeOpen {
        serve_load(&setup, SERVE_PROBE_SECONDS)?;
    } else {
        sweep_op(&setup)?;
    }
    let rss = peak_rss_mib().ok_or("cannot read VmHWM")?;
    if let Some(server) = setup.server {
        server.stop();
    }
    Ok(rss)
}

/// Repeats `op` for `seconds` (at least [`MIN_OPS`] times).
fn repeat<T>(
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        out.push(op(out.len())?);
    }
    Ok(out)
}

/// The untraced run: end-to-end metrics and output checks.
pub fn run_untraced(setup: &Setup, seconds: f64) -> Result<Outcome, String> {
    if setup.workload == Workload::ServeOpen {
        return serve_untraced(setup, seconds);
    }
    let ops = repeat(seconds, |_| sweep_op(setup))?;
    let mut outcome = Outcome {
        attempted: ops.len() as u64,
        ..Outcome::default()
    };
    let (_, first, first_frontier) = &ops[0];
    for (i, (_, misses, frontier)) in ops.iter().enumerate().skip(1) {
        if misses != first || frontier != first_frontier {
            outcome.failed += 1;
            outcome
                .problems
                .push(format!("operation {i} disagrees with operation 0"));
        }
    }
    let oracle_problems = check_outputs(setup, first, first_frontier)?;
    if !oracle_problems.is_empty() {
        outcome.failed = outcome.attempted;
        outcome.problems.extend(oracle_problems);
    }
    let walls: Vec<f64> = ops.iter().map(|o| o.0.wall).collect();
    let cpus: Vec<f64> = ops.iter().map(|o| o.0.cpu).collect();
    end_to_end(
        setup,
        Metric::median_of("cpu_s", "s", &cpus),
        &walls,
        &mut outcome,
    )?;
    Ok(outcome)
}

/// The oracle checks of a sweep workload's output (outside the timed
/// region).
fn check_outputs(setup: &Setup, misses: &Misses, frontier: &[Key]) -> Result<Vec<String>, String> {
    let space = setup.workload.space();
    let configs = check::sample(&space);
    let label = setup.workload.name();
    let mut problems = Vec::new();
    match setup.workload {
        Workload::Table1Fifo => {
            let trace = read_bin(&setup.input)?;
            let want = check::oracle(&configs, TreePolicy::Fifo, trace.records().iter().copied());
            problems.extend(check::compare(
                label,
                TreePolicy::Fifo,
                &configs,
                &want,
                misses,
            ));
        }
        Workload::ExploreAll => {
            // The exploration keeps only undominated points, so the oracle
            // is checked against full sweeps, the sweeps against every
            // kept point, and the scoring against a second scoring.
            let trace = read_bin(&setup.input)?;
            let mut full = Misses::new();
            let mut sweeps = Vec::new();
            for &policy in TreePolicy::ALL.iter() {
                let outcome = sweep(&space, policy, trace.records())?;
                add_outcome(&outcome, &mut full);
                sweeps.push(outcome);
                let want = check::oracle(&configs, policy, trace.records().iter().copied());
                problems.extend(check::compare(label, policy, &configs, &want, &full));
            }
            for (key, m) in misses {
                if full.get(key) != Some(m) {
                    problems.push(format!(
                        "{label}: point {key:?} scored {m} misses, sweep says {:?}",
                        full.get(key)
                    ));
                }
            }
            let rescored = score_sweeps(
                &exploration(),
                &sweeps,
                &EnergyModel::default(),
                ParetoMode::Exhaustive,
                0.0,
            );
            if report_misses(&rescored).1 != frontier {
                problems.push(format!("{label}: pruned and exhaustive frontiers differ"));
            }
        }
        Workload::StreamDinCkpt => {
            let mut bad: Option<TraceError> = None;
            let records = DinReader::new(BufReader::new(
                File::open(&setup.input).map_err(|e| format!("reopening the trace: {e}"))?,
            ))
            .map_while(|r| r.map_err(|e| bad = Some(e)).ok());
            let want = check::oracle(&configs, TreePolicy::Fifo, records);
            if let Some(e) = bad {
                return Err(format!("reading the trace for the oracle: {e}"));
            }
            problems.extend(check::compare(
                label,
                TreePolicy::Fifo,
                &configs,
                &want,
                misses,
            ));
            problems.extend(restore(&read_checkpoint(setup)?, &space, misses)?.2);
        }
        Workload::ServeOpen => unreachable!("serve_open checks its jobs itself"),
    }
    Ok(problems)
}

/// Restores every job of a final checkpoint image and checks that each
/// restored kernel fans out to the sweep's own results. Returns the start
/// and end of the timed part (`SweepCheckpoint::from_bytes` and
/// `FusedKernel::from_snapshot`) and any mismatch.
fn restore(
    image: &[u8],
    space: &ConfigSpace,
    want: &Misses,
) -> Result<(Instant, Instant, Vec<String>), String> {
    let start = Instant::now();
    let ckpt = SweepCheckpoint::from_bytes(image).map_err(|e| format!("checkpoint: {e}"))?;
    let kernels: Vec<(u32, bool, FusedKernel)> = ckpt
        .jobs()
        .iter()
        .map(|j| {
            FusedKernel::from_snapshot(ckpt.policy(), &j.kernel)
                .map(|k| (j.block_bits, j.complete, k))
                .map_err(|e| format!("snapshot of block {}: {e}", 1u64 << j.block_bits))
        })
        .collect::<Result<_, _>>()?;
    let end = Instant::now();
    let mut restored = Misses::new();
    let mut problems = Vec::new();
    for job in jobs(space) {
        match kernels.iter().find(|k| k.0 == job.block_bits) {
            Some((_, true, kernel)) => fan_out(kernel, space, &job, &mut restored),
            _ => problems.push(format!(
                "checkpoint: block {} is missing or incomplete",
                1u64 << job.block_bits
            )),
        }
    }
    if &restored != want {
        problems.push("checkpoint: restored kernels disagree with the sweep".to_owned());
    }
    Ok((start, end, problems))
}

/// What the server reported for `record`, against an in-process sweep of
/// the same traffic.
fn check_job(record: &JobRecord) -> Result<Option<String>, String> {
    let space = Workload::ServeOpen.space();
    let records: Vec<Record> = traffic(record.seed).records().collect();
    let outcome = sweep(&space, TreePolicy::Fifo, &records)?;
    let evals = evaluate_sweep(&outcome, &EnergyModel::default());
    let front = pareto_front(&evals).len() as u64;
    let best = best_edp_under(&evals, 64 * 1024).map(|e| e.geometry);
    let result = record.result.as_ref();
    let field = |k: &str| result.and_then(|r| r.get(k)).and_then(Json::as_u64);
    let best_field = |k: &str| {
        result
            .and_then(|r| r.get("best_edp"))
            .and_then(|b| b.get(k))
            .and_then(Json::as_u64)
    };
    let served = (
        field("configs"),
        field("accesses"),
        field("traversals"),
        field("pareto_front"),
        best_field("sets"),
        best_field("assoc"),
        best_field("block_bytes"),
    );
    let expected = (
        Some(outcome.config_count() as u64),
        Some(outcome.accesses()),
        Some(outcome.trace_traversals()),
        Some(front),
        best.map(|g| u64::from(g.sets)),
        best.map(|g| u64::from(g.assoc)),
        best.map(|g| u64::from(g.block_bytes)),
    );
    Ok((served != expected).then(|| {
        format!(
            "serve_open: job seed {} served {served:?}, in-process sweep gives {expected:?}",
            record.seed
        )
    }))
}

/// Runs the open loop for `seconds`: every job's record, and the server's
/// `stats` before and after.
fn serve_load(setup: &Setup, seconds: f64) -> Result<(Vec<JobRecord>, Json, Json), String> {
    let server = setup.server.as_ref().ok_or("serve_open needs a server")?;
    let jobs = ((SERVE_RATE * seconds).ceil() as u64).max(1);
    serve_load::run(
        &server.addr().to_string(),
        SERVE_RATE,
        jobs,
        SERVE_REQUESTS,
        setup.seed.wrapping_mul(1_000_003),
    )
}

/// Counts every job that did not complete as failed, and re-runs every
/// [`SERVE_CHECK_EVERY`]th in process to check the server's result.
fn check_jobs(records: &[JobRecord], outcome: &mut Outcome) -> Result<(), String> {
    outcome.attempted += records.len() as u64;
    for (i, record) in records.iter().enumerate() {
        if !record.completed() {
            outcome.failed += 1;
            outcome
                .problems
                .push(format!("serve_open: job {i} ended as `{}`", record.status));
        } else if i % SERVE_CHECK_EVERY == 0 {
            if let Some(problem) = check_job(record)? {
                outcome.failed += 1;
                outcome.problems.push(problem);
            }
        }
    }
    Ok(())
}

fn serve_untraced(setup: &Setup, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let watch = Stopwatch::start();
    let (records, _, _) = serve_load(setup, seconds)?;
    let cpu = watch.read().cpu;
    check_jobs(&records, &mut outcome)?;
    let latency_s: Vec<f64> = records.iter().map(|r| r.latency_ms / 1e3).collect();
    // Every thread of this process serves or drives the jobs, so its CPU
    // time over the loop, per job, is the CPU cost of one job end to end.
    let cpu_per_job = Metric {
        samples: records.len(),
        statistic: "mean per job",
        ..Metric::single("cpu_s", "s", cpu / records.len() as f64)
    };
    end_to_end(setup, cpu_per_job, &latency_s, &mut outcome)?;
    Ok(outcome)
}

/// The per-layer metrics in reporting order, with units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("trace.read_s", "s"),
    ("trace.records", "count"),
    ("trace.bytes", "bytes"),
    ("blocks.decode_s", "s"),
    ("blocks.decoded", "count"),
    ("kernel.build_s", "s"),
    ("kernel.run_s.fifo", "s"),
    ("kernel.run_s.lru", "s"),
    ("kernel.run_s.plru", "s"),
    ("kernel.run_s.slru", "s"),
    ("kernel.ns_per_block.fifo", "ns"),
    ("kernel.ns_per_block.lru", "ns"),
    ("kernel.ns_per_block.plru", "ns"),
    ("kernel.ns_per_block.slru", "ns"),
    ("kernel.footprint_bytes", "bytes"),
    ("kernel.instrumented_s", "s"),
    ("kernel.tag_compares", "count"),
    ("sweep.fanout_s", "s"),
    ("sweep.driver_s", "s"),
    ("sweep.trace_traversals", "count"),
    ("sweep.configs", "count"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.restore_s", "s"),
    ("explore.score_s", "s"),
    ("explore.frontier_s", "s"),
    ("explore.candidates", "count"),
    ("explore.pruned", "count"),
    ("explore.frontier_points", "count"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p95", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.run_ms_p95", "ms"),
    ("serve.client_ms_p50", "ms"),
    ("serve.job_p95_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("gen.late_ms_p95", "ms"),
    ("tracing.overhead_s", "s"),
    ("tracing.unaccounted_s", "s"),
    ("tracing.ops", "count"),
];

/// The per-op findings of a traced operation.
#[derive(Debug, Default)]
struct TracedOp {
    /// Untraced wall time: the as-shipped path alone.
    wall: f64,
    /// Time the replay spent outside its spans.
    overhead: f64,
    /// Counts that must repeat exactly between operations.
    counts: BTreeMap<&'static str, u64>,
    /// Blocks each policy's kernel consumed.
    blocks: HashMap<TreePolicy, u64>,
    problems: Vec<String>,
}

impl TracedOp {
    fn absorb(&mut self, policy: TreePolicy, c: ReplayCounts) {
        *self.counts.entry("blocks.decoded").or_default() += c.decoded;
        *self.blocks.entry(policy).or_default() += c.decoded;
        let fp = self.counts.entry("kernel.footprint_bytes").or_default();
        *fp = (*fp).max(c.max_footprint);
    }

    fn add_sweep(&mut self, outcome: &SweepOutcome) {
        *self.counts.entry("sweep.trace_traversals").or_default() += outcome.trace_traversals();
        *self.counts.entry("sweep.configs").or_default() += outcome.config_count() as u64;
    }

    fn diverged(&mut self, label: &str, want: &Misses, got: &Misses) {
        if want != got {
            let bad = want.iter().filter(|(k, m)| got.get(k) != Some(m)).count();
            self.problems.push(format!(
                "{label}: traced replay diverges from the untraced sweep on {bad} of {} configurations",
                want.len()
            ));
        }
    }
}

/// One traced operation of `table1_fifo` or `explore_all`.
fn traced_in_memory(tr: &mut Tracer, setup: &Setup) -> Result<TracedOp, String> {
    let space = setup.workload.space();
    let mut op = TracedOp::default();
    let start = Instant::now();
    let trace = tr.span("trace.read_s", None, || read_bin(&setup.input))?;
    let mut ids = Vec::new();
    let mut sweeps = Vec::new();
    for &policy in setup.workload.policies() {
        let id = tr.begin("sweep.driver_s", None);
        let outcome = sweep(&space, policy, trace.records());
        tr.end(id);
        ids.push(id);
        sweeps.push(outcome?);
    }
    if setup.workload == Workload::ExploreAll {
        let secs = start.elapsed().as_secs_f64();
        let report = tr.span("explore.score_s", None, || {
            score_sweeps(
                &exploration(),
                &sweeps,
                &EnergyModel::default(),
                ParetoMode::Pruned,
                secs,
            )
        });
        let frontier = tr.span("explore.frontier_s", None, || report.frontier());
        op.counts.insert("explore.candidates", report.candidates());
        op.counts
            .insert("explore.pruned", report.pruned_dominated());
        op.counts
            .insert("explore.frontier_points", frontier.len() as u64);
    }
    op.wall = start.elapsed().as_secs_f64();
    op.counts.insert("trace.records", trace.len() as u64);
    op.counts.insert("trace.bytes", file_len(&setup.input));

    let replay_start = Instant::now();
    let first_span = tr.len();
    let mut want = Misses::new();
    let mut got = Misses::new();
    for (&id, outcome) in ids.iter().zip(&sweeps) {
        add_outcome(outcome, &mut want);
        op.add_sweep(outcome);
        let policy = outcome.policy();
        let counts = on_worker(|| {
            traced::replay_in_memory(tr, id, &space, policy, trace.records(), &mut got)
        })?;
        op.absorb(policy, counts);
    }
    op.overhead = replay_start.elapsed().as_secs_f64() - tr.covered_since(first_span);
    op.diverged(setup.workload.name(), &want, &got);
    Ok(op)
}

/// One traced streamed, checkpointing sweep of `source` into `store`
/// (whose last image `last_image` reads back): the `stream_din_ckpt`
/// operation, and the in-process twin of a `serve_open` job (which also
/// scores its results, as an `explore` job does).
fn traced_streamed<S: TraceSource>(
    tr: &mut Tracer,
    space: &ConfigSpace,
    source: &S,
    every: u64,
    store: &dyn dew_core::CheckpointStore,
    last_image: &dyn Fn() -> Result<Vec<u8>, String>,
    score: bool,
) -> Result<TracedOp, String> {
    let mut op = TracedOp::default();
    let timed = TimedStore::new(store);
    let start = Instant::now();
    let id = tr.begin("sweep.driver_s", None);
    let outcome = streamed_sweep(space, source, every, &timed);
    tr.end(id);
    let outcome = outcome?;
    if score {
        let evals = tr.span("explore.score_s", None, || {
            evaluate_sweep(&outcome, &EnergyModel::default())
        });
        let front = tr.span("explore.frontier_s", None, || pareto_front(&evals));
        op.counts.insert("explore.candidates", evals.len() as u64);
        op.counts.insert("explore.pruned", 0);
        op.counts
            .insert("explore.frontier_points", front.len() as u64);
    }
    op.wall = start.elapsed().as_secs_f64();
    let saves = timed.saves();
    for &(s, e, _) in &saves {
        tr.record("checkpoint.write_s", s, e, Some(id));
    }
    op.counts.insert("checkpoint.writes", saves.len() as u64);
    op.counts
        .insert("checkpoint.bytes", saves.iter().map(|s| s.2 as u64).sum());
    op.counts.insert("trace.records", outcome.accesses());
    op.add_sweep(&outcome);

    let mut want = Misses::new();
    add_outcome(&outcome, &mut want);
    let (s, e, problems) = restore(&last_image()?, space, &want)?;
    tr.record("checkpoint.restore_s", s, e, None);
    op.problems.extend(problems);

    let replay_start = Instant::now();
    let first_span = tr.len();
    let mut got = Misses::new();
    let counts =
        on_worker(|| traced::replay_streamed(tr, id, space, TreePolicy::Fifo, source, &mut got))?;
    op.absorb(TreePolicy::Fifo, counts);
    op.overhead = replay_start.elapsed().as_secs_f64() - tr.covered_since(first_span);
    op.diverged("streamed sweep", &want, &got);
    Ok(op)
}

/// Runs `f` on a fresh scoped thread, as `SweepRequest` runs its jobs on a
/// worker: kernel arenas then come from the same kind of allocator arena
/// in the replay as in the shipped run.
fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("the replay does not panic"))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The traced run: per-layer metrics, replay divergence and the count
/// repeat check.
pub fn run_traced(setup: &Setup, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let space = setup.workload.space();
    let ops: Vec<TracedOp> = match setup.workload {
        Workload::Table1Fifo | Workload::ExploreAll => repeat(seconds, |i| {
            tr.set_op(i);
            traced_in_memory(tr, setup)
        })?,
        Workload::StreamDinCkpt => {
            let source = din_source(&setup.input);
            let store = FileCheckpointStore::new(setup.dir.join(CHECKPOINT_FILE));
            let image = || read_checkpoint(setup);
            repeat(seconds, |i| {
                tr.set_op(i);
                let every = STREAM_CHECKPOINT_EVERY;
                let mut op = traced_streamed(tr, &space, &source, every, &store, &image, false)?;
                op.counts.insert("trace.bytes", file_len(&setup.input));
                Ok(op)
            })?
        }
        Workload::ServeOpen => {
            let (records, before, after) = serve_load(setup, seconds * 0.8)?;
            check_jobs(&records, &mut outcome)?;
            serve_layer_metrics(&records, &before, &after, &mut values);
            // Replays of the first job attribute the server's run time.
            let spec = traffic(records[0].seed);
            let source = traffic_source(spec);
            let every = (SERVE_REQUESTS / 4).max(1_000);
            (0..SERVE_REPLAYS)
                .map(|i| {
                    tr.set_op(i);
                    let store = MemoryCheckpointStore::new();
                    let image = || {
                        store
                            .latest()
                            .ok_or_else(|| "no checkpoint saved".to_owned())
                    };
                    let mut op = traced_streamed(tr, &space, &source, every, &store, &image, true)?;
                    let bytes = SERVE_REQUESTS * std::mem::size_of::<Record>() as u64;
                    op.counts.insert("trace.bytes", bytes);
                    Ok(op)
                })
                .collect::<Result<_, String>>()?
        }
    };
    outcome.attempted += ops.len() as u64;

    // Count metrics must repeat exactly: every operation redoes the same
    // seed's work.
    for (i, op) in ops.iter().enumerate() {
        if !op.problems.is_empty() {
            outcome.failed += 1;
            outcome.problems.extend(op.problems.iter().cloned());
        }
        if op.counts != ops[0].counts {
            outcome.problems.push(format!(
                "benchmark bug: counts of operation {i} differ from operation 0: {:?} vs {:?}",
                op.counts, ops[0].counts
            ));
        }
    }
    for (name, count) in &ops[0].counts {
        values.insert((*name).to_owned(), *count as f64);
    }

    let mut per_op: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        let (times, inside) = tr.self_times(i);
        for (policy, blocks) in &op.blocks {
            let run = times
                .get(&traced::kernel_span(*policy))
                .copied()
                .unwrap_or(0.0);
            per_op
                .entry(format!("kernel.ns_per_block.{policy}"))
                .or_default()
                .push(run / (*blocks).max(1) as f64 * 1e9);
        }
        for (name, t) in times {
            per_op.entry(name).or_default().push(t);
        }
        for (name, t) in [
            ("tracing.overhead_s", op.overhead),
            ("tracing.unaccounted_s", op.wall - inside),
        ] {
            per_op.entry(name.to_owned()).or_default().push(t);
        }
    }
    for (name, samples) in &per_op {
        values.insert(name.clone(), median(samples));
    }
    values.insert("tracing.ops".to_owned(), ops.len() as f64);

    let blocks = instrumented_blocks(setup, &space)?;
    let (t1, c1) = traced::instrumented_fifo(&space, &blocks)?;
    let (t2, c2) = traced::instrumented_fifo(&space, &blocks)?;
    if c1 != c2 {
        outcome.problems.push(format!(
            "benchmark bug: instrumented tag comparisons differ between repeats ({c1} vs {c2})"
        ));
    }
    values.insert("kernel.instrumented_s".to_owned(), (t1 + t2) / 2.0);
    values.insert("kernel.tag_compares".to_owned(), c1 as f64);

    let walls: Vec<f64> = ops.iter().map(|o| o.wall).collect();
    let overhead = values["tracing.overhead_s"];
    let residual = values["tracing.unaccounted_s"];
    outcome.notes.push(format!(
        "traced {} operations: untraced path {:.6} s (median), layer self times leave {:.6} s \
         unaccounted, tracing overhead {:.6} s ({})",
        ops.len(),
        median(&walls),
        residual,
        overhead,
        if residual.abs() <= overhead.abs() {
            "within the overhead"
        } else {
            "NOT within the overhead"
        }
    ));
    outcome.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let samples = per_op.get(name).map_or(1, Vec::len);
            Metric {
                samples,
                statistic: if samples > 1 { "median" } else { "value" },
                ..Metric::single(name, unit, values.get(name).copied().unwrap_or(0.0))
            }
        })
        .collect();
    Ok(outcome)
}

/// The block numbers the instrumented FIFO pass consumes: the workload's
/// trace at the space's first block size.
fn instrumented_blocks(setup: &Setup, space: &ConfigSpace) -> Result<Vec<u64>, String> {
    let bits = space.block_bits().0;
    let records: Vec<Record> = match setup.workload {
        Workload::Table1Fifo | Workload::ExploreAll => read_bin(&setup.input)?.into_records(),
        Workload::StreamDinCkpt => Trace::read_din_file(&setup.input)
            .map_err(|e| format!("reading the trace: {e}"))?
            .into_records(),
        Workload::ServeOpen => traffic(setup.seed.wrapping_mul(1_000_003))
            .records()
            .collect(),
    };
    Ok(decode_blocks(&records, bits))
}

/// The serve layer's metrics, from the `wait` replies and the `stats`
/// counters.
fn serve_layer_metrics(
    records: &[JobRecord],
    before: &Json,
    after: &Json,
    values: &mut BTreeMap<String, f64>,
) {
    let done: Vec<&JobRecord> = records.iter().filter(|r| r.completed()).collect();
    let queue: Vec<f64> = done.iter().filter_map(|r| r.queued_ms).collect();
    let run: Vec<f64> = done.iter().filter_map(|r| r.run_ms).collect();
    let client: Vec<f64> = done
        .iter()
        .map(|r| r.latency_ms - r.queued_ms.unwrap_or(0.0) - r.run_ms.unwrap_or(0.0))
        .collect();
    let late: Vec<f64> = records.iter().map(|r| r.late_ms).collect();
    let latency: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let delta = |keys: &[&str]| {
        keys.iter()
            .map(|k| stat(after, k) - stat(before, k))
            .sum::<u64>() as f64
    };
    for (name, v) in [
        ("serve.queue_ms_p50", median(&queue)),
        ("serve.queue_ms_p95", quantile(&queue, 0.95)),
        ("serve.run_ms_p50", median(&run)),
        ("serve.run_ms_p95", quantile(&run, 0.95)),
        ("serve.client_ms_p50", median(&client)),
        ("serve.job_p95_ms", quantile(&latency, 0.95)),
        ("gen.late_ms_p95", quantile(&late, 0.95)),
        (
            "serve.rejected",
            delta(&["rejected_overloaded", "rejected_draining", "malformed"]),
        ),
        ("serve.shed", delta(&["shed"])),
        ("serve.deadline_exceeded", delta(&["deadline_exceeded"])),
    ] {
        values.insert(name.to_owned(), v);
    }
}
