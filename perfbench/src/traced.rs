//! The traced run: spans recorded from outside, around calls into each
//! layer's public functions.
//!
//! A traced operation does the workload's work twice:
//!
//! 1. **as shipped** — the same public entry points the untraced run
//!    calls (`Trace::read_bin_file`, `SweepRequest::run`, `score_sweeps`,
//!    ...), each wrapped in one span; checkpoint saves are timed by a
//!    [`TimedStore`] wrapped around the real store;
//! 2. **as a replay** — one fused job per block size rebuilt from the
//!    layers' own calls (`FusedKernel::build`, `decode_blocks_into`,
//!    `PolicyKernel::run_blocks`, `PolicyKernel::pass_results`), every call
//!    in its own span. The replay's spans are children of the
//!    `sweep.driver_s` span of the `SweepRequest::run` call they decompose,
//!    so that span's self time is the driver's own share: the run minus
//!    its children.
//!
//! The replay's miss counts must be bit-identical to the shipped run's.
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dew_core::{CheckpointStore, ConfigSpace, DewOptions, FusedKernel, PolicyKernel, TreePolicy};
use dew_trace::{decode_blocks_into, BlockChunks, Record, TraceError, TraceSource};

use crate::check::Misses;
use crate::metrics::{json_f64, json_string};

/// One recorded span. `parent` indexes the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub op: usize,
}

/// Span names that are measured beside an operation rather than inside
/// it, so they stay out of the operation's wall-time accounting.
const BESIDE_THE_OPERATION: [&str; 1] = ["checkpoint.restore_s"];

/// The in-memory span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
        }
    }

    /// Starts attributing spans to operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (a [`TimedStore`] save).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, parent: Option<usize>) {
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            op: self.op,
        });
    }

    /// Summed duration of the spans recorded since index `from`.
    pub fn covered_since(&self, from: usize) -> f64 {
        self.spans[from..].iter().map(dur).sum()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name for operation `op`: each span's duration
    /// minus its children's. Also returns the summed self time of the
    /// spans inside the operation (everything but
    /// [`BESIDE_THE_OPERATION`]).
    pub fn self_times(&self, op: usize) -> (BTreeMap<String, f64>, f64) {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.op == op) {
            if let Some(p) = s.parent {
                child_time[p] += dur(s);
            }
        }
        let mut times: BTreeMap<String, f64> = BTreeMap::new();
        let mut inside = 0.0;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            let own = dur(s) - child_time[i];
            *times.entry(s.name.clone()).or_default() += own;
            if !BESIDE_THE_OPERATION.contains(&s.name.as_str()) {
                inside += own;
            }
        }
        (times, inside)
    }

    /// The spans as a JSON array (times in seconds since the run began).
    pub fn to_json(&self, workload: &str) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \
                     \"op\": {}, \"workload\": {}}}",
                    json_string(&s.name),
                    json_f64(s.start.duration_since(self.epoch).as_secs_f64()),
                    json_f64(s.end.duration_since(self.epoch).as_secs_f64()),
                    s.parent
                        .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                    s.op,
                    json_string(workload),
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

fn dur(s: &Span) -> f64 {
    s.end.duration_since(s.start).as_secs_f64()
}

/// A [`CheckpointStore`] wrapper that times every `save` of the store it
/// wraps.
pub struct TimedStore<'a> {
    inner: &'a dyn CheckpointStore,
    saves: Mutex<Vec<(Instant, Instant, usize)>>,
}

impl<'a> TimedStore<'a> {
    pub fn new(inner: &'a dyn CheckpointStore) -> TimedStore<'a> {
        TimedStore {
            inner,
            saves: Mutex::new(Vec::new()),
        }
    }

    /// `(start, end, bytes)` of every save, in order.
    pub fn saves(&self) -> Vec<(Instant, Instant, usize)> {
        self.saves.lock().expect("no save panics").clone()
    }
}

impl CheckpointStore for TimedStore<'_> {
    fn save(&self, bytes: &[u8]) -> Result<(), String> {
        let start = Instant::now();
        let result = self.inner.save(bytes);
        let end = Instant::now();
        self.saves
            .lock()
            .expect("no save panics")
            .push((start, end, bytes.len()));
        result
    }
}

/// One fused job of a sweep: every pass of one block size.
#[derive(Debug, Clone)]
pub struct Job {
    pub block_bits: u32,
    pub assoc_bits: (u32, u32),
    pub assocs: Vec<u32>,
}

/// The sweep's fused jobs, grouped by block size as the drivers do.
#[must_use]
pub fn jobs(space: &ConfigSpace) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for pass in space.passes() {
        let ab = pass.assoc().trailing_zeros();
        match jobs.iter_mut().find(|j| j.block_bits == pass.block_bits()) {
            Some(job) => {
                job.assoc_bits = (job.assoc_bits.0.min(ab), job.assoc_bits.1.max(ab));
                job.assocs.push(pass.assoc());
            }
            None => jobs.push(Job {
                block_bits: pass.block_bits(),
                assoc_bits: (ab, ab),
                assocs: vec![pass.assoc()],
            }),
        }
    }
    jobs
}

/// Builds the uninstrumented or instrumented kernel of one job.
pub fn build_kernel(
    space: &ConfigSpace,
    job: &Job,
    policy: TreePolicy,
    instrument: bool,
) -> Result<FusedKernel, String> {
    FusedKernel::build(
        job.block_bits,
        space.set_bits(),
        job.assoc_bits,
        DewOptions::for_policy(policy),
        instrument,
    )
    .map_err(|e| format!("building the {policy} kernel: {e}"))
}

/// Fans a finished job's kernel out into per-configuration misses, as the
/// drivers assemble them (direct-mapped results ride on every pass).
pub fn fan_out(kernel: &FusedKernel, space: &ConfigSpace, job: &Job, into: &mut Misses) {
    let policy = kernel.policy();
    let block = 1u32 << job.block_bits;
    let with_dm = space.assoc_bits().0 == 0;
    for &assoc in &job.assocs {
        let results = kernel
            .pass_results(assoc)
            .expect("a job's kernel covers its passes");
        for level in results.levels() {
            into.insert((policy, level.sets(), assoc, block), level.misses());
            if with_dm {
                into.insert((policy, level.sets(), 1, block), level.dm_misses());
            }
        }
    }
}

/// Work counts of one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub decoded: u64,
    pub max_footprint: u64,
}

/// Kernel-run span name of `policy`.
pub fn kernel_span(policy: TreePolicy) -> String {
    format!("kernel.run_s.{policy}")
}

/// Replays an in-memory sweep of `records` under `policy`, with every
/// layer call in a span under `parent`.
pub fn replay_in_memory(
    tr: &mut Tracer,
    parent: usize,
    space: &ConfigSpace,
    policy: TreePolicy,
    records: &[Record],
    misses: &mut Misses,
) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    let mut blocks: Vec<u64> = Vec::with_capacity(BlockChunks::DEFAULT_CHUNK);
    let run = kernel_span(policy);
    for job in jobs(space) {
        let mut kernel = tr.span("kernel.build_s", Some(parent), || {
            build_kernel(space, &job, policy, false)
        })?;
        for chunk in records.chunks(BlockChunks::DEFAULT_CHUNK) {
            tr.span("blocks.decode_s", Some(parent), || {
                decode_blocks_into(chunk, job.block_bits, &mut blocks);
            });
            tr.span(run.as_str(), Some(parent), || kernel.run_blocks(&blocks));
            counts.decoded += chunk.len() as u64;
        }
        counts.max_footprint = counts.max_footprint.max(kernel.footprint_bytes() as u64);
        tr.span("sweep.fanout_s", Some(parent), || {
            fan_out(&kernel, space, &job, misses);
        });
    }
    Ok(counts)
}

/// Replays a streamed sweep of a re-openable `source` under `policy`:
/// opening and draining the source is the trace layer, the shift to block
/// numbers the blocks layer.
pub fn replay_streamed<S: TraceSource>(
    tr: &mut Tracer,
    parent: usize,
    space: &ConfigSpace,
    policy: TreePolicy,
    source: &S,
    misses: &mut Misses,
) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    let mut records: Vec<Record> = Vec::with_capacity(BlockChunks::DEFAULT_CHUNK);
    let mut blocks: Vec<u64> = Vec::with_capacity(BlockChunks::DEFAULT_CHUNK);
    let run = kernel_span(policy);
    let read_err = |e: TraceError| format!("replaying the trace source: {e}");
    for job in jobs(space) {
        let mut iter = tr
            .span("trace.read_s", Some(parent), || source.open())
            .map_err(read_err)?;
        let mut kernel = tr.span("kernel.build_s", Some(parent), || {
            build_kernel(space, &job, policy, false)
        })?;
        loop {
            tr.span("trace.read_s", Some(parent), || {
                records.clear();
                while records.len() < BlockChunks::DEFAULT_CHUNK {
                    match iter.next() {
                        Some(record) => records.push(record?),
                        None => break,
                    }
                }
                Ok(())
            })
            .map_err(read_err)?;
            if records.is_empty() {
                break;
            }
            tr.span("blocks.decode_s", Some(parent), || {
                decode_blocks_into(&records, job.block_bits, &mut blocks);
            });
            tr.span(run.as_str(), Some(parent), || kernel.run_blocks(&blocks));
            counts.decoded += records.len() as u64;
        }
        counts.max_footprint = counts.max_footprint.max(kernel.footprint_bytes() as u64);
        tr.span("sweep.fanout_s", Some(parent), || {
            fan_out(&kernel, space, &job, misses);
        });
    }
    Ok(counts)
}

/// Tag comparisons and kernel time of one instrumented FIFO pass: the
/// first block size of `space` over `blocks`, summed over its passes (the
/// unit of the paper's Table 4).
pub fn instrumented_fifo(space: &ConfigSpace, blocks: &[u64]) -> Result<(f64, u64), String> {
    let job = jobs(space).into_iter().next().ok_or("empty space")?;
    let mut kernel = build_kernel(space, &job, TreePolicy::Fifo, true)?;
    let start = Instant::now();
    for chunk in blocks.chunks(BlockChunks::DEFAULT_CHUNK) {
        kernel.run_blocks(chunk);
    }
    let secs = start.elapsed().as_secs_f64();
    let compares = job
        .assocs
        .iter()
        .map(|&a| {
            kernel
                .pass_counters(a)
                .expect("a job's kernel covers its passes")
                .tag_comparisons
        })
        .sum();
    Ok((secs, compares))
}
