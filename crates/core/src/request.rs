//! The unified sweep entry point: a [`SweepRequest`] names *what* to sweep
//! (a [`ConfigSpace`]), *how* ([`DewOptions`] — policy included — thread
//! count, instrumentation) and *under which execution plan* (sharding,
//! sampling, resilience), then [`SweepRequest::run`] or
//! [`SweepRequest::run_streamed`] dispatches it to the sweep driver.
//!
//! Every axis is orthogonal where soundness allows; the unsound
//! combinations are rejected up front with
//! [`DewError::UnsoundOptions`] instead of silently picking a driver:
//!
//! | plan              | sharded | sampled | instrumented | resilient |
//! |-------------------|---------|---------|--------------|-----------|
//! | sharded           |    —    |   no    |      no      | handoff¹  |
//! | sampled           |   no    |    —    |      no      |    no     |
//! | instrumented      |   no    |   no    |      —       |    no     |
//! | resilient         |handoff¹ |   no    |      no      |     —     |
//!
//! ¹ a resilient sharded sweep must use [`ShardMode::SnapshotHandoff`] —
//! the warmup-overlap estimator has no exact per-record position for a
//! checkpoint to name.
//!
//! [`SweepRequest::run_streamed`] additionally rejects sharding, sampling
//! and instrumentation: a streamed trace has no slice to shard or sample,
//! and no instrumented streaming driver exists.

use dew_trace::{Record, SliceSource, TraceSource};

use crate::options::{DewOptions, TreePolicy};
use crate::resilience::Resilience;
use crate::results::SweepOutcome;
use crate::space::{ConfigSpace, DewError};
use crate::sweep::{
    handoff_boundaries, run_resilient, sampled, warmup_overlap, ShardMode, ShardSpec,
};

/// A fully described sweep: configuration space × policy options × threads
/// × instrumentation × execution plan, built fluently and executed with
/// [`SweepRequest::run`] (in-memory trace) or [`SweepRequest::run_streamed`]
/// (re-openable [`TraceSource`]).
///
/// ```
/// use dew_core::{ConfigSpace, SweepRequest, TreePolicy};
/// use dew_trace::Record;
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// let space = ConfigSpace::new((0, 4), (2, 4), (0, 2))?;
/// let trace: Vec<Record> = (0..500u64).map(|i| Record::read((i % 97) * 4)).collect();
/// let outcome = SweepRequest::new(&space)
///     .policy(TreePolicy::Plru)
///     .threads(1)
///     .run(&trace)?;
/// assert_eq!(outcome.config_count() as u64, space.config_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepRequest<'a> {
    space: &'a ConfigSpace,
    options: DewOptions,
    threads: usize,
    instrumented: bool,
    shards: Option<ShardSpec>,
    sample: Option<(usize, usize)>,
    resilience: Option<&'a Resilience<'a>>,
}

impl<'a> SweepRequest<'a> {
    /// Starts a request over `space` with default options (FIFO policy, all
    /// optimisations on), automatic thread count, no instrumentation and
    /// the plain execution plan.
    pub fn new(space: &'a ConfigSpace) -> Self {
        SweepRequest {
            space,
            options: DewOptions::default(),
            threads: 0,
            instrumented: false,
            shards: None,
            sample: None,
            resilience: None,
        }
    }

    /// Replaces the policy options wholesale. Use this for fine-grained
    /// flag control; for the common case of "this policy with its sound
    /// defaults", [`SweepRequest::policy`] is shorter.
    #[must_use]
    pub fn options(mut self, options: DewOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects a replacement policy with its preset sound options
    /// ([`DewOptions::for_policy`]). Overwrites any earlier
    /// [`SweepRequest::options`] call.
    #[must_use]
    pub fn policy(mut self, policy: TreePolicy) -> Self {
        self.options = DewOptions::for_policy(policy);
        self
    }

    /// Worker thread count; `0` (the default) means one per available core,
    /// capped at the job count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Maintains the full [`crate::DewCounters`] breakdown per pass.
    /// Composes with neither sharding, sampling nor resilience.
    #[must_use]
    pub fn instrumented(mut self, on: bool) -> Self {
        self.instrumented = on;
        self
    }

    /// Splits the trace into contiguous intervals per `spec` (exact
    /// snapshot handoff, or the warmup-overlap estimator).
    #[must_use]
    pub fn sharded(mut self, spec: ShardSpec) -> Self {
        self.shards = Some(spec);
        self
    }

    /// Sweeps a periodic cluster sample: the leading `sample_len` records
    /// of every `period`-record window (see `dew_trace::sample::periodic`),
    /// spliced into one continuous stream per fused kernel. Excludes every
    /// other plan axis.
    ///
    /// The outcome describes the *sampled* stream: `accesses()` is the
    /// retained record count and miss counts are raw counts over it;
    /// extrapolate by `period / sample_len` for full-trace estimates (that
    /// extrapolation error is statistical and not bounded here). What *is*
    /// bounded is the splice error inside the measured stream: each cluster
    /// is a contiguous original-trace window, so the
    /// [`ShardMode::WarmupOverlap`] argument applies per cluster, and
    /// [`SweepOutcome::bounds`] carries
    /// `Σ_{clusters after the first} min(first_touches, sets × assoc)` per
    /// configuration (guaranteed for LRU, heuristic for FIFO).
    /// `sample_len == period` keeps everything and runs the exact sweep.
    #[must_use]
    pub fn sampled(mut self, period: usize, sample_len: usize) -> Self {
        self.sample = Some((period, sample_len));
        self
    }

    /// Runs under the fault-tolerance contract of `res`: the same fused
    /// kernels and bit-identical results on the happy path, plus periodic
    /// [`crate::SweepCheckpoint`]s, resume, retry with bounded backoff for
    /// transient source failures, per-job panic isolation, and graceful
    /// degradation (a partial [`SweepOutcome`] whose
    /// [`SweepOutcome::failed_jobs`] / [`SweepOutcome::retries`] /
    /// [`SweepOutcome::records_lost`] tell the truth about what was lost).
    ///
    /// Resuming from a checkpoint is **bit-identical** to the uninterrupted
    /// sweep: a checkpoint stores each job's exact kernel snapshot at an
    /// exact record position, restoring a snapshot is an identity
    /// (property-tested), and the kernels are insensitive to how the
    /// replayed stream is chunked. Checkpoints compose with
    /// [`ShardMode::SnapshotHandoff`] sharding, and a checkpoint taken under
    /// one shard count resumes soundly under another. Over
    /// [`SweepRequest::run_streamed`], a crash costs at most the checkpoint
    /// interval of replay.
    ///
    /// ```
    /// use dew_core::{ConfigSpace, Resilience, SweepRequest};
    /// use dew_trace::Record;
    ///
    /// # fn main() -> Result<(), dew_core::DewError> {
    /// let space = ConfigSpace::new((0, 4), (2, 4), (0, 2))?;
    /// let trace: Vec<Record> = (0..500u64).map(|i| Record::read((i % 97) * 4)).collect();
    /// let plain = SweepRequest::new(&space).threads(1).run(&trace)?;
    /// let res = Resilience::new();
    /// let resilient = SweepRequest::new(&space).threads(1).resilient(&res).run(&trace)?;
    /// assert!(!resilient.is_partial());
    /// assert_eq!(resilient.sorted(), plain.sorted());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn resilient(mut self, res: &'a Resilience<'a>) -> Self {
        self.resilience = Some(res);
        self
    }

    /// Rejects plan-axis combinations no driver implements soundly.
    fn check_combos(&self) -> Result<(), DewError> {
        if self.sample.is_some()
            && (self.shards.is_some() || self.instrumented || self.resilience.is_some())
        {
            return Err(DewError::UnsoundOptions(
                "sampled sweeps compose with neither sharding, instrumentation nor resilience",
            ));
        }
        if self.instrumented && (self.shards.is_some() || self.resilience.is_some()) {
            return Err(DewError::UnsoundOptions(
                "instrumented sweeps run in-memory and unsharded; drop sharding/resilience",
            ));
        }
        if self.resilience.is_some() {
            if let Some(spec) = self.shards {
                if spec.mode != ShardMode::SnapshotHandoff {
                    return Err(DewError::UnsoundOptions(
                        "resilient sharded sweeps require ShardMode::SnapshotHandoff",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Executes the request over an in-memory trace.
    ///
    /// # Errors
    ///
    /// [`DewError::UnsoundOptions`] when the option flags are unsound for
    /// the policy, the sampling plan is malformed, or the plan axes
    /// conflict (see the module table); [`DewError::BadAssoc`] when the
    /// space exceeds a policy's lane capacity (tree-PLRU caps at
    /// [`crate::plru_tree::MAX_PLRU_ASSOC`] ways); resilient plans may
    /// also return [`DewError::Checkpoint`], [`DewError::TraceRead`] or
    /// [`DewError::WorkerPanic`] per the [`Resilience`] contract. A kernel
    /// panic in any plan but warmup overlap returns
    /// [`DewError::WorkerPanic`] instead of unwinding into the caller.
    pub fn run(&self, records: &[Record]) -> Result<SweepOutcome, DewError> {
        self.check_combos()?;
        if let Some((period, sample_len)) = self.sample {
            return sampled(
                self.space,
                records,
                self.options,
                self.threads,
                period,
                sample_len,
            );
        }
        let boundaries = match self.shards {
            Some(ShardSpec {
                shards,
                mode: ShardMode::WarmupOverlap { overlap },
            }) => {
                return warmup_overlap(
                    self.space,
                    records,
                    self.options,
                    self.threads,
                    shards,
                    overlap,
                )
            }
            Some(spec) => handoff_boundaries(records.len(), spec.shards),
            None => Vec::new(),
        };
        self.run_core(&SliceSource(records), &boundaries)
    }

    /// Executes the request over a re-openable [`TraceSource`] in bounded
    /// memory (the trace is never resident). The source is opened once per
    /// block size and must replay identically on every open.
    ///
    /// Streamed execution supports the plain and resilient plans only.
    ///
    /// # Errors
    ///
    /// As [`SweepRequest::run`], plus [`DewError::UnsoundOptions`] when the
    /// request carries sharding, sampling or instrumentation, and
    /// [`DewError::TraceRead`] when the source fails.
    pub fn run_streamed<S: TraceSource>(&self, source: &S) -> Result<SweepOutcome, DewError> {
        self.check_combos()?;
        if self.shards.is_some() || self.sample.is_some() || self.instrumented {
            return Err(DewError::UnsoundOptions(
                "streamed sweeps support the plain and resilient plans only \
                 (no sharding, sampling or instrumentation)",
            ));
        }
        self.run_core(source, &[])
    }

    /// Runs the request on the sweep core, under its [`Resilience`] or the
    /// exact preset.
    fn run_core<S: TraceSource>(
        &self,
        source: &S,
        boundaries: &[u64],
    ) -> Result<SweepOutcome, DewError> {
        let exact = Resilience::exact();
        run_resilient(
            self.space,
            source,
            boundaries,
            self.options,
            self.threads,
            self.instrumented,
            self.resilience.unwrap_or(&exact),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dew_trace::SliceSource;

    fn trace(n: usize) -> Vec<Record> {
        let mut x = 0xA5A5_5A5Au64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = if i % 7 == 0 {
                    x % (1 << 12)
                } else {
                    (x % 88) * 4
                };
                Record::read(addr)
            })
            .collect()
    }

    #[test]
    fn outcome_records_the_active_scan_backend() {
        let space = ConfigSpace::new((0, 2), (2, 2), (0, 1)).expect("valid");
        let outcome = SweepRequest::new(&space).run(&trace(200)).expect("sweep");
        assert_eq!(outcome.kernel_backend(), crate::KernelBackend::active());
        assert!(["scalar", "sse2", "avx2"].contains(&outcome.kernel_backend().name()));
    }

    #[test]
    fn builder_plans_agree_for_every_policy() {
        let space = ConfigSpace::new((0, 3), (1, 3), (0, 2)).expect("valid");
        let records = trace(900);
        for policy in TreePolicy::ALL {
            let options = DewOptions::for_policy(policy);
            let base = SweepRequest::new(&space).options(options).threads(2);

            let plain = base.run(&records).expect("plain");

            let inst = base.instrumented(true).run(&records).expect("instrumented");
            assert_eq!(inst.sorted(), plain.sorted(), "{policy}: instrumented");

            let spec = ShardSpec {
                shards: 3,
                mode: ShardMode::SnapshotHandoff,
            };
            let sharded = base.sharded(spec).run(&records).expect("sharded");
            assert_eq!(sharded.sorted(), plain.sorted(), "{policy}: handoff exact");

            let res = Resilience::new();
            let resilient = base.resilient(&res).run(&records).expect("resilient");
            assert_eq!(
                resilient.sorted(),
                plain.sorted(),
                "{policy}: resilient exact"
            );

            let both = base
                .sharded(spec)
                .resilient(&res)
                .run(&records)
                .expect("both");
            assert_eq!(both.sorted(), plain.sorted(), "{policy}: sharded resilient");

            let streamed = base.run_streamed(&SliceSource(&records)).expect("streamed");
            assert_eq!(
                streamed.sorted(),
                plain.sorted(),
                "{policy}: streamed exact"
            );
        }
    }

    #[test]
    fn unsound_plan_combinations_are_rejected_up_front() {
        let space = ConfigSpace::new((0, 2), (1, 2), (0, 1)).expect("valid");
        let records = trace(64);
        let res = Resilience::new();
        let handoff = ShardSpec {
            shards: 2,
            mode: ShardMode::SnapshotHandoff,
        };
        let overlap = ShardSpec {
            shards: 2,
            mode: ShardMode::WarmupOverlap { overlap: 8 },
        };
        let bad = [
            SweepRequest::new(&space).sampled(8, 4).sharded(handoff),
            SweepRequest::new(&space).sampled(8, 4).instrumented(true),
            SweepRequest::new(&space).sampled(8, 4).resilient(&res),
            SweepRequest::new(&space)
                .instrumented(true)
                .sharded(handoff),
            SweepRequest::new(&space).instrumented(true).resilient(&res),
            SweepRequest::new(&space).resilient(&res).sharded(overlap),
        ];
        for req in bad {
            assert!(
                matches!(req.run(&records), Err(DewError::UnsoundOptions(_))),
                "expected UnsoundOptions"
            );
        }
        for req in [
            SweepRequest::new(&space).sharded(handoff),
            SweepRequest::new(&space).sampled(8, 4),
            SweepRequest::new(&space).instrumented(true),
        ] {
            assert!(
                matches!(
                    req.run_streamed(&SliceSource(&records)),
                    Err(DewError::UnsoundOptions(_))
                ),
                "streamed must reject sharding/sampling/instrumentation"
            );
        }
    }

    #[test]
    fn plru_rejects_spaces_wider_than_its_lane_capacity() {
        let space = ConfigSpace::new((0, 2), (1, 2), (0, 7)).expect("valid");
        let records = trace(16);
        let err = SweepRequest::new(&space)
            .policy(TreePolicy::Plru)
            .run(&records)
            .expect_err("128-way PLRU must be rejected");
        assert!(matches!(err, DewError::BadAssoc(128)));
    }

    #[test]
    fn policy_builder_is_the_preset() {
        let space = ConfigSpace::new((0, 2), (1, 2), (0, 1)).expect("valid");
        for policy in TreePolicy::ALL {
            let req = SweepRequest::new(&space).policy(policy);
            assert_eq!(req.options, DewOptions::for_policy(policy));
        }
    }
}
