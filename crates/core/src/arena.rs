//! The arena skeleton every kernel runs on: the four fused policy kernels
//! and the paper's per-pass [`crate::DewTree`].
//!
//! DEW's walk over the binomial forest is policy-independent: per level,
//! one MRA comparison settles the direct-mapped result, and every simulated
//! associativity's state sits beside it in one contiguous region of the
//! tag lane (PAPER.md §3; CIPARSim carries every associativity of a block
//! size along the same walk). [`Arena`] owns that walk's storage and
//! everything around it:
//!
//! * the geometry — level offsets and set masks, the reported
//!   associativities and the lane widths — plus the shared lanes: the MRA
//!   lane, the way-tag lane and the per-`(level, lane)` miss tallies;
//! * the constructors, accessors and `step*`/`run*` entry points;
//! * the scan-backend dispatch with the crate's one AVX2 compilation root,
//!   and the prefetching batch loop (`Arena::drive`);
//! * the fan-out ([`Arena::results`], [`Arena::pass_results`],
//!   [`Arena::pass_counters`]) and [`Arena::footprint_bytes`];
//! * the snapshot framing — magic, version, geometry, the lane-size check,
//!   the flags check and the trailing-bytes check — and the policy
//!   [`REGISTRY`] that tells a sibling kernel's buffer
//!   ([`SnapshotError::PolicyMismatch`]) from junk
//!   ([`SnapshotError::BadMagic`]).
//!
//! A replacement policy is a [`LanePolicy`]: its own lanes, its per-block
//! update, its counters and their per-pass mapping, and the flags byte and
//! state of its snapshot. Its [`LanePolicy::run`] picks one monomorphic
//! kernel per batch (FIFO by list shape, LRU by lane width, the per-pass
//! tree by options and list width) and hands it to `Arena::drive`, so the
//! hot loop has no `dyn`, no function pointers and no per-block branch on
//! the policy.
//!
//! Every snapshot uses the framing [`crate::snapshot`] lays out; its
//! `head` and `tail` sections are [`LanePolicy::write_head`] and
//! [`LanePolicy::write_tail`].

use std::fmt;

use dew_trace::Record;

use crate::counters::DewCounters;
use crate::lru_tree::LruLanes;
use crate::multi_assoc::FifoLanes;
use crate::node::INVALID_TAG;
use crate::options::{DewOptions, TreePolicy};
use crate::plru_tree::PlruLanes;
use crate::results::{AllAssocResults, LevelResult, PassResults};
use crate::simd::{prefetch_read, KernelBackend, ScalarScan, TagLane, TagScan, PF_DIST};
use crate::slru_tree::SlruLanes;
use crate::snapshot::{pow2_span, put_u32, put_u64, Cursor, SnapshotError};
use crate::space::{DewError, PassConfig};

/// The snapshot magic of every registered policy kernel. Registering a
/// policy adds its row; a buffer carrying another row's magic is a
/// [`SnapshotError::PolicyMismatch`], anything else a
/// [`SnapshotError::BadMagic`]. The per-pass [`crate::DewTree`] lanes are
/// not a fused policy kernel and have no row, so a fused kernel handed a
/// `DewTree` buffer reports `BadMagic`.
pub(crate) const REGISTRY: [(TreePolicy, [u8; 4]); 4] = [
    (TreePolicy::Fifo, FifoLanes::MAGIC),
    (TreePolicy::Lru, LruLanes::MAGIC),
    (TreePolicy::Plru, PlruLanes::MAGIC),
    (TreePolicy::Slru, SlruLanes::MAGIC),
];

/// Snapshot format version shared by every arena kernel.
const SNAP_VERSION: u8 = 1;

/// The fused policy whose [`REGISTRY`] row is `magic`, if any.
fn registered(magic: [u8; 4]) -> Option<TreePolicy> {
    REGISTRY.iter().find(|&&(_, m)| m == magic).map(|&(p, _)| p)
}

/// The snapshot magic of `policy` ([`REGISTRY`]).
#[cfg(test)]
pub(crate) fn magic(policy: TreePolicy) -> [u8; 4] {
    REGISTRY
        .iter()
        .find(|&&(p, _)| p == policy)
        .map(|&(_, m)| m)
        .expect("every policy has a registry row")
}

/// A replacement policy as a lane layout plus an update rule: what one
/// policy adds to the shared [`Arena`]. See the module docs.
///
/// The trait is sealed in practice — its hooks name crate-internal types —
/// so the registered policies are the ones this crate implements.
pub trait LanePolicy: Clone + fmt::Debug {
    /// The snapshot magic of these lanes (the fused kernels' [`REGISTRY`]
    /// rows name theirs).
    const MAGIC: [u8; 4];
    /// The policy's behaviour toggles.
    type Options: Copy + fmt::Debug;
    /// The policy's work counters.
    type Counters: fmt::Debug;

    /// The toggles a sweep's [`DewOptions`] map onto.
    fn options(options: DewOptions) -> Self::Options;

    /// The replacement policy these lanes simulate; by default the one
    /// [`REGISTRY`] files under [`LanePolicy::MAGIC`].
    fn policy(&self) -> TreePolicy {
        registered(Self::MAGIC).expect("fused lanes have a registry row")
    }

    /// Tag-lane entries per node for the associativity range `assoc_bits`
    /// (`log2`, inclusive), as serialised: by default one way per way of
    /// every lane above associativity 1, and one idle entry in a
    /// direct-mapped-only forest.
    fn stride(assoc_bits: (u32, u32)) -> u128 {
        pow2_span((assoc_bits.0.max(1), assoc_bits.1)).max(1)
    }

    /// Tag-lane entries per node as allocated (at least `stride`; the
    /// entries past `stride` hold the sentinel forever).
    fn padded(stride: usize) -> usize {
        stride
    }

    /// Policy-specific checks of the options and associativity range.
    ///
    /// # Errors
    ///
    /// The [`DewError`] the policy rejects the combination with.
    fn check(_opts: Self::Options, _assoc_bits: (u32, u32)) -> Result<(), DewError> {
        Ok(())
    }

    /// Fresh lanes for `nodes` forest nodes whose lanes have the widths
    /// `widths`, `pstride` tag entries a node.
    fn new(
        opts: Self::Options,
        instrument: bool,
        nodes: usize,
        widths: &[usize],
        pstride: usize,
    ) -> Self;

    /// Simulates `blocks`: selects the monomorphic kernel once for the
    /// batch and runs it through the skeleton's prefetching batch loop.
    fn run<S: TagScan>(arena: &mut Arena<Self>, scan: S, blocks: &[u64]);

    /// The work counters.
    fn counters(&self) -> &Self::Counters;

    /// Requests simulated.
    fn accesses(&self) -> u64;

    /// Requests elided as consecutive duplicates.
    fn duplicate_skips(&self) -> u64 {
        0
    }

    /// The instrumented [`DewCounters`] view of lane `lane` (`None`: the
    /// direct-mapped pass the MRA lane simulates).
    fn pass_counters(&self, lane: Option<usize>) -> DewCounters;

    /// Heap bytes of the policy's own lanes.
    fn lane_bytes(&self) -> usize;

    /// The snapshot flags byte.
    fn flags(&self, instrument: bool) -> u8;

    /// Options and instrumentation from a snapshot flags byte.
    fn from_flags(flags: u8) -> (Self::Options, bool);

    /// Writes the counters and scalars that precede the shared lanes.
    fn write_head(&self, out: &mut Vec<u8>);

    /// Reads what [`LanePolicy::write_head`] wrote.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation.
    fn read_head(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError>;

    /// Writes the policy's lanes, which follow the shared ones.
    fn write_tail(arena: &Arena<Self>, out: &mut Vec<u8>);

    /// Reads what [`LanePolicy::write_tail`] wrote, validating every
    /// pointer against the geometry.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on truncation or an out-of-range value.
    fn read_tail(arena: &mut Arena<Self>, cur: &mut Cursor<'_>) -> Result<(), SnapshotError>;
}

/// An exact single-pass simulator of one policy for every power-of-two set
/// count and associativity in a range, at one block size. See the module
/// docs; the per-policy names are [`crate::MultiAssocTree`] (FIFO),
/// [`crate::lru_tree::LruTreeSimulator`],
/// [`crate::plru_tree::PlruTreeSimulator`] and
/// [`crate::slru_tree::SlruTreeSimulator`]; [`crate::DewTree`] wraps the
/// per-pass lanes (one associativity).
#[derive(Debug, Clone)]
pub struct Arena<P: LanePolicy> {
    /// Geometry; `assoc()` reports the widest simulated associativity.
    pub(crate) pass: PassConfig,
    /// Every reported associativity, ascending (includes 1 when the range
    /// starts there; associativity-1 results come from the MRA lane).
    pub(crate) assoc_list: Vec<u32>,
    /// Lane widths: the reported associativities above 1, ascending. Lane
    /// `k` owns miss column `k`.
    pub(crate) widths: Vec<usize>,
    /// Offset of lane `k` inside a node's tag region (prefix sums of
    /// `widths`).
    pub(crate) lane_off: Vec<usize>,
    /// Tag-lane entries per node, as serialised.
    pub(crate) stride: usize,
    /// Tag-lane entries per node, as allocated ([`LanePolicy::padded`]).
    pub(crate) pstride: usize,
    /// Dense per-node MRA tags: the direct-mapped contents and the shared
    /// hit short-circuit.
    pub(crate) mra: Vec<u64>,
    /// The way-tag lane, cache-line aligned ([`TagLane`]): node `i`'s
    /// region is `tags[i * pstride..][..pstride]`, invalid ways holding the
    /// sentinel.
    pub(crate) tags: TagLane,
    /// Node-index base per level plus a final total.
    pub(crate) node_off: Vec<usize>,
    /// `(1 << set_bits) - 1` per level.
    pub(crate) set_mask: Vec<u64>,
    /// Misses per `(level, lane)`, level-major, `widths.len().max(1)`
    /// columns a level (a direct-mapped-only forest keeps one idle column).
    pub(crate) misses: Vec<u64>,
    /// Direct-mapped misses per level (from the shared MRA comparisons).
    pub(crate) dm_misses: Vec<u64>,
    /// Whether the kernel maintains the work counters.
    pub(crate) instrument: bool,
    /// The tag-scan backend batched scans run on.
    pub(crate) backend: KernelBackend,
    /// The policy's own lanes and counters.
    pub(crate) lanes: P,
}

/// Each node's first `stride` entries of a lane laid out `pstride` entries
/// a node: the serialised view (padding entries are construction-time
/// sentinels and never serialised).
pub(crate) fn unpadded<T>(lane: &[T], stride: usize, pstride: usize) -> impl Iterator<Item = &T> {
    lane.chunks(pstride.max(1))
        .flat_map(move |node| &node[..stride])
}

/// [`unpadded`], mutably.
pub(crate) fn unpadded_mut<T>(
    lane: &mut [T],
    stride: usize,
    pstride: usize,
) -> impl Iterator<Item = &mut T> {
    lane.chunks_mut(pstride.max(1))
        .flat_map(move |node| &mut node[..stride])
}

/// Fails with [`SnapshotError::Corrupt`]`(what)` unless `ok(index, value)`
/// holds for every value of a freshly read lane.
pub(crate) fn within(
    lane: &[u32],
    what: &'static str,
    ok: impl Fn(usize, u32) -> bool,
) -> Result<(), SnapshotError> {
    if lane.iter().enumerate().all(|(i, &v)| ok(i, v)) {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(what))
    }
}

/// Appends every value as little-endian `u32`.
pub(crate) fn put_u32s<'a>(out: &mut Vec<u8>, values: impl IntoIterator<Item = &'a u32>) {
    for &v in values {
        put_u32(out, v);
    }
}

/// Appends every value as little-endian `u64`.
pub(crate) fn put_u64s<'a>(out: &mut Vec<u8>, values: impl IntoIterator<Item = &'a u64>) {
    for &v in values {
        put_u64(out, v);
    }
}

/// Reads one little-endian `u32` into every slot.
pub(crate) fn read_u32s<'a>(
    cur: &mut Cursor<'_>,
    slots: impl IntoIterator<Item = &'a mut u32>,
) -> Result<(), SnapshotError> {
    for v in slots {
        *v = cur.u32()?;
    }
    Ok(())
}

/// Reads one little-endian `u64` into every slot.
pub(crate) fn read_u64s<'a>(
    cur: &mut Cursor<'_>,
    slots: impl IntoIterator<Item = &'a mut u64>,
) -> Result<(), SnapshotError> {
    for v in slots {
        *v = cur.u64()?;
    }
    Ok(())
}

impl<P: LanePolicy> Arena<P> {
    /// Builds a simulator for set counts `2^min_set_bits..=2^max_set_bits`,
    /// block size `2^block_bits` bytes and associativities
    /// `1, 2, 4, …, max_assoc`, using the fast (uninstrumented) kernel.
    ///
    /// # Errors
    ///
    /// [`DewError::BadAssoc`] for a `max_assoc` that is not a power of two,
    /// plus the errors of [`Arena::with_instrumentation`].
    pub fn new(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
        opts: P::Options,
    ) -> Result<Self, DewError> {
        Self::up_to(
            block_bits,
            (min_set_bits, max_set_bits),
            max_assoc,
            opts,
            false,
        )
    }

    /// As [`Arena::new`], but with the instrumented kernel: every work
    /// counter live. Miss counts are bit-identical to the fast kernel's — a
    /// property-tested invariant.
    ///
    /// # Errors
    ///
    /// As [`Arena::new`].
    pub fn instrumented(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
        opts: P::Options,
    ) -> Result<Self, DewError> {
        Self::up_to(
            block_bits,
            (min_set_bits, max_set_bits),
            max_assoc,
            opts,
            true,
        )
    }

    fn up_to(
        block_bits: u32,
        set_bits: (u32, u32),
        max_assoc: u32,
        opts: P::Options,
        instrument: bool,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        Self::with_instrumentation(
            block_bits,
            set_bits,
            (0, max_assoc.trailing_zeros()),
            opts,
            instrument,
        )
    }

    /// Full-control constructor: inclusive `log2` ranges for the set counts
    /// and the reported associativities (so a sweep whose space starts above
    /// associativity 1 does not report lanes it was not asked for), and a
    /// runtime kernel selection. This is the entry point
    /// [`crate::FusedKernel::build`] uses for its per-block-size passes.
    ///
    /// # Errors
    ///
    /// [`DewError::EmptySetRange`] when the associativity range is inverted,
    /// the policy's own rejections (`LanePolicy::check`), and the geometry
    /// errors of [`PassConfig::new`].
    pub fn with_instrumentation(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
        opts: P::Options,
        instrument: bool,
    ) -> Result<Self, DewError> {
        if assoc_bits.0 > assoc_bits.1 {
            return Err(DewError::EmptySetRange {
                min_set_bits: assoc_bits.0,
                max_set_bits: assoc_bits.1,
            });
        }
        P::check(opts, assoc_bits)?;
        // A snapshot header can name any exponent; one that overflows `u32`
        // is no associativity (`PassConfig::new` rejects 0).
        let max_assoc = 1u32.checked_shl(assoc_bits.1).unwrap_or(0);
        let pass = PassConfig::new(block_bits, set_bits.0, set_bits.1, max_assoc)?;
        let assoc_list: Vec<u32> = (assoc_bits.0..=assoc_bits.1).map(|b| 1 << b).collect();
        let widths: Vec<usize> = (assoc_bits.0.max(1)..=assoc_bits.1)
            .map(|b| 1usize << b)
            .collect();
        let lane_off = widths
            .iter()
            .scan(0, |off, &w| {
                *off += w;
                Some(*off - w)
            })
            .collect();
        let stride = usize::try_from(P::stride(assoc_bits)).expect("validated associativity");
        let pstride = P::padded(stride);
        let mut node_off = Vec::with_capacity(pass.num_levels() as usize + 1);
        let mut set_mask = Vec::with_capacity(pass.num_levels() as usize);
        let mut nodes = 0usize;
        for bits in pass.min_set_bits()..=pass.max_set_bits() {
            node_off.push(nodes);
            set_mask.push((1u64 << bits) - 1);
            nodes += 1usize << bits;
        }
        node_off.push(nodes);
        let num_levels = pass.num_levels() as usize;
        Ok(Arena {
            lanes: P::new(opts, instrument, nodes, &widths, pstride),
            pass,
            assoc_list,
            misses: vec![0; num_levels * widths.len().max(1)],
            widths,
            lane_off,
            stride,
            pstride,
            mra: vec![INVALID_TAG; nodes],
            tags: TagLane::filled(nodes * pstride, INVALID_TAG),
            node_off,
            set_mask,
            dm_misses: vec![0; num_levels],
            instrument,
            backend: KernelBackend::active(),
        })
    }

    /// [`Arena::with_instrumentation`] with the policy's toggles taken from
    /// a sweep's [`DewOptions`] ([`LanePolicy::options`]).
    pub(crate) fn build(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
        options: DewOptions,
        instrument: bool,
    ) -> Result<Self, DewError> {
        Self::with_instrumentation(
            block_bits,
            set_bits,
            assoc_bits,
            P::options(options),
            instrument,
        )
    }

    /// The simulated associativities, ascending.
    #[must_use]
    pub fn assoc_list(&self) -> &[u32] {
        &self.assoc_list
    }

    /// The geometry of the forest (`assoc()` reports the widest lane).
    #[must_use]
    pub fn pass(&self) -> &PassConfig {
        &self.pass
    }

    /// `true` when this simulator maintains the work counters.
    #[must_use]
    pub fn is_instrumented(&self) -> bool {
        self.instrument
    }

    /// The policy's work counters.
    #[must_use]
    pub fn counters(&self) -> &P::Counters {
        self.lanes.counters()
    }

    /// The tag-scan backend batched scans run on (fixed at construction
    /// from [`KernelBackend::active`] unless
    /// [`Arena::force_scan_backend`] pins another).
    #[must_use]
    pub fn scan_backend(&self) -> KernelBackend {
        self.backend
    }

    /// Pins the batch loop to `backend`. This is the differential-testing
    /// hook: results, counters and snapshots are bit-identical under every
    /// backend (property-tested), so forcing [`KernelBackend::Scalar`] on
    /// one of two twin kernels turns any trace into an oracle check.
    ///
    /// # Errors
    ///
    /// [`DewError::UnsoundOptions`] when `backend` is not available on this
    /// build and machine (see [`KernelBackend::is_available`]).
    pub fn force_scan_backend(&mut self, backend: KernelBackend) -> Result<(), DewError> {
        if !backend.is_available() {
            return Err(DewError::UnsoundOptions(
                "requested scan backend is not available on this build/machine",
            ));
        }
        self.backend = backend;
        Ok(())
    }

    /// Simulates one record (only the address matters).
    pub fn step_record(&mut self, record: Record) {
        self.step(record.addr);
    }

    /// Simulates every record of an iterator.
    pub fn run<I>(&mut self, records: I)
    where
        I: IntoIterator<Item = Record>,
    {
        for r in records {
            self.step(r.addr);
        }
    }

    /// Simulates one request by byte address.
    ///
    /// # Panics
    ///
    /// As [`crate::DewTree::step`]: the block number must not collide with
    /// the internal sentinel.
    pub fn step(&mut self, addr: u64) {
        self.step_block(addr >> self.pass.block_bits());
    }

    /// Simulates one request given as a pre-decoded block number
    /// (`addr >> block_bits` for this pass's block size).
    ///
    /// # Panics
    ///
    /// As [`Arena::step`], if `block` equals the internal sentinel.
    pub fn step_block(&mut self, block: u64) {
        // Single steps always use the scalar scan: the batch dispatch below
        // is where the SIMD instantiations live, and the backends are
        // bit-identical anyway.
        P::run(self, ScalarScan, std::slice::from_ref(&block));
    }

    /// Simulates a batch of pre-decoded block numbers (see
    /// `dew_trace::decode_blocks` / `dew_trace::BlockChunks`) — the sweep's
    /// fused drive path. One backend selection per call keeps each scan a
    /// straight inlined sequence; the AVX2 arm routes through a
    /// `#[target_feature]` root, because rustc refuses to inline
    /// feature-gated code into plain callers, so the root is where the
    /// whole batch loop gets compiled *as* AVX2 code.
    ///
    /// # Panics
    ///
    /// As [`Arena::step`], if any block equals the internal sentinel.
    pub fn run_blocks(&mut self, blocks: &[u64]) {
        match self.backend {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Avx2 => {
                // SAFETY: `backend` is only `Avx2` after runtime detection
                // (`KernelBackend::is_available` gates the constructor and
                // `force_scan_backend`).
                #[allow(unsafe_code)]
                unsafe {
                    self.run_blocks_avx2(blocks);
                }
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Sse2 => P::run(self, crate::simd::Sse2Scan, blocks),
            _ => P::run(self, ScalarScan, blocks),
        }
    }

    /// The AVX2 compilation root of every policy's batch loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn run_blocks_avx2(&mut self, blocks: &[u64]) {
        P::run(self, crate::simd::Avx2Scan, blocks);
    }

    /// The batch loop: `kernel` on every block, plus software prefetch of
    /// the deepest (largest, least cache-resident) level's MRA word and tag
    /// region [`PF_DIST`] requests ahead. (Prefetching the policies' own
    /// lanes too was measured on the FIFO ladder and does not pay — most
    /// evaluations land on small, cached levels.)
    ///
    /// # Panics
    ///
    /// If a block equals the internal sentinel.
    #[inline(always)]
    pub(crate) fn drive(&mut self, blocks: &[u64], mut kernel: impl FnMut(&mut Self, u64)) {
        let deepest = self.set_mask.len() - 1;
        let d_off = self.node_off[deepest];
        let d_mask = self.set_mask[deepest];
        let pstride = self.pstride;
        for (i, &b) in blocks.iter().enumerate() {
            assert_ne!(b, INVALID_TAG, "block {b:#x} exceeds the supported range");
            if let Some(&ahead) = blocks.get(i + PF_DIST) {
                let node = d_off + (ahead & d_mask) as usize;
                prefetch_read(&self.mra, node);
                prefetch_read(&self.tags, node * pstride);
            }
            kernel(self, b);
        }
    }

    /// The lane simulating `assoc`: `Some(None)` for associativity 1 (the
    /// MRA lane is the simulation), `Some(Some(k))` for lane `k`, `None`
    /// when `assoc` is not simulated.
    fn lane_of(&self, assoc: u32) -> Option<Option<usize>> {
        self.assoc_list
            .contains(&assoc)
            .then(|| self.widths.iter().position(|&w| w == assoc as usize))
    }

    /// Snapshot of the per-configuration miss counts (associativity 1, when
    /// simulated, comes from the shared direct-mapped accounting).
    #[must_use]
    pub fn results(&self) -> AllAssocResults {
        let include_dm = self.assoc_list.first() == Some(&1);
        let cols = self.widths.len().max(1);
        let misses = self
            .dm_misses
            .iter()
            .zip(self.misses.chunks_exact(cols))
            .map(|(&dm, row)| {
                let mut out = Vec::with_capacity(self.assoc_list.len());
                if include_dm {
                    out.push(dm);
                }
                out.extend_from_slice(&row[..self.widths.len()]);
                out
            })
            .collect();
        AllAssocResults::new(
            self.pass,
            self.lanes.accesses(),
            self.assoc_list.clone(),
            misses,
        )
    }

    /// Fans this pass out into the [`PassResults`] a standalone
    /// `(block size, assoc)` pass would have produced, or `None` when
    /// `assoc` was not simulated. This is how [`crate::SweepRequest`] keeps
    /// its per-pass result shape while traversing the trace once per block
    /// size.
    #[must_use]
    pub fn pass_results(&self, assoc: u32) -> Option<PassResults> {
        let lane = self.lane_of(assoc)?;
        let pass = PassConfig::new(
            self.pass.block_bits(),
            self.pass.min_set_bits(),
            self.pass.max_set_bits(),
            assoc,
        )
        .ok()?;
        let cols = self.widths.len().max(1);
        let levels = self
            .dm_misses
            .iter()
            .enumerate()
            .map(|(li, &dm)| {
                let misses = lane.map_or(dm, |k| self.misses[li * cols + k]);
                LevelResult::new(self.pass.min_set_bits() + li as u32, misses, dm)
            })
            .collect();
        Some(PassResults::new(pass, self.lanes.accesses(), levels))
    }

    /// The [`DewCounters`] view a standalone pass at `assoc` is entitled to
    /// report (`LanePolicy::pass_counters`); the fast kernel reports only
    /// the request-level counters. The [`DewCounters::is_consistent`]
    /// identity holds for every fanned-out view. Returns `None` when
    /// `assoc` was not simulated.
    #[must_use]
    pub fn pass_counters(&self, assoc: u32) -> Option<DewCounters> {
        let lane = self.lane_of(assoc)?;
        Some(if self.instrument {
            self.lanes.pass_counters(lane)
        } else {
            DewCounters {
                accesses: self.lanes.accesses(),
                duplicate_skips: self.lanes.duplicate_skips(),
                ..DewCounters::new()
            }
        })
    }

    /// Actual heap footprint of the arena's lanes in bytes (excludes
    /// counters and scratch).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.mra.len() * 8 + self.tags.len() * 8 + self.lanes.lane_bytes()
    }

    /// Serialises the complete kernel state under the policy's own magic
    /// (see the module docs for the layout). The sharded sweep's
    /// snapshot-handoff mode and the checkpoint sidecars round-trip these
    /// buffers.
    #[must_use]
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.footprint_bytes() * 2);
        out.extend_from_slice(&P::MAGIC);
        out.push(SNAP_VERSION);
        for v in [
            self.pass.block_bits(),
            self.pass.min_set_bits(),
            self.pass.max_set_bits(),
            self.assoc_list[0].trailing_zeros(),
            self.pass.assoc().trailing_zeros(),
        ] {
            put_u32(&mut out, v);
        }
        out.push(self.lanes.flags(self.instrument));
        self.lanes.write_head(&mut out);
        put_u64s(
            &mut out,
            self.misses.iter().chain(&self.dm_misses).chain(&self.mra),
        );
        put_u64s(&mut out, unpadded(&self.tags, self.stride, self.pstride));
        P::write_tail(self, &mut out);
        out
    }

    /// Restores a simulator from [`Arena::to_snapshot`] output; continuing
    /// it is bit-identical to the uninterrupted run (a property-tested
    /// invariant the sharded sweep relies on).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for foreign, truncated or internally inconsistent
    /// buffers; a buffer carrying another registered policy's magic reports
    /// [`SnapshotError::PolicyMismatch`].
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut cur = Cursor::new(bytes);
        let expected = P::MAGIC;
        let found: [u8; 4] = cur.bytes(4)?.try_into().expect("4 bytes");
        if found != expected {
            return Err(if registered(found).is_some() {
                SnapshotError::PolicyMismatch { expected, found }
            } else {
                SnapshotError::BadMagic
            });
        }
        let version = cur.u8()?;
        if version != SNAP_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let (block_bits, min_set_bits, max_set_bits) = (cur.u32()?, cur.u32()?, cur.u32()?);
        let assoc_bits = (cur.u32()?, cur.u32()?);
        cur.expect_lanes((min_set_bits, max_set_bits), P::stride(assoc_bits))?;
        let flags = cur.u8()?;
        let (opts, instrument) = P::from_flags(flags);
        let mut arena = Self::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            assoc_bits,
            opts,
            instrument,
        )
        .map_err(|_| SnapshotError::Corrupt("invalid arena geometry"))?;
        if arena.lanes.flags(instrument) != flags {
            return Err(SnapshotError::Corrupt("unknown flag bits"));
        }
        arena.lanes.read_head(&mut cur)?;
        read_u64s(
            &mut cur,
            arena
                .misses
                .iter_mut()
                .chain(&mut arena.dm_misses)
                .chain(&mut arena.mra),
        )?;
        read_u64s(
            &mut cur,
            unpadded_mut(&mut arena.tags, arena.stride, arena.pstride),
        )?;
        P::read_tail(&mut arena, &mut cur)?;
        if cur.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(cur.remaining()));
        }
        Ok(arena)
    }
}

/// The kernel contract every [`LanePolicy`] must keep, as generic checks.
/// Each policy's own test module runs them for its lanes; `arena::tests`
/// adds the instrumented sentinel case over every registered policy.
#[cfg(test)]
pub(crate) mod contract {
    use super::*;

    fn addrs(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 6 == 0 {
                    x % (1 << 12)
                } else {
                    (x % 80) * 4
                }
            })
            .collect()
    }

    /// The policy registered under `P`'s magic.
    fn policy<P: LanePolicy>() -> TreePolicy {
        registered(P::MAGIC).expect("a registered policy")
    }

    /// The policy's sweep preset.
    fn preset<P: LanePolicy>() -> P::Options {
        P::options(DewOptions::for_policy(policy::<P>()))
    }

    /// The preset and, where the policy allows it, the preset with
    /// duplicate elision on, each with its `dup_elision` flag.
    fn variants<P: LanePolicy>() -> Vec<(P::Options, bool)> {
        let base = DewOptions::for_policy(policy::<P>());
        let dup = DewOptions {
            dup_elision: true,
            ..base
        };
        let mut out = vec![(P::options(base), false)];
        if dup.validate().is_ok() {
            out.push((P::options(dup), true));
        }
        out
    }

    /// Every simulated pass's results and counters agree with the
    /// all-associativity view, fast and instrumented, under every option
    /// variant (so also while duplicate requests are being skipped).
    pub(crate) fn fan_out<P: LanePolicy>() {
        let a = addrs(2500, 0x5EED_FA11);
        let policy = policy::<P>();
        for ((opts, dup), instrument) in variants::<P>()
            .into_iter()
            .flat_map(|v| [(v, false), (v, true)])
        {
            let mut sim = Arena::<P>::with_instrumentation(3, (1, 6), (0, 3), opts, instrument)
                .expect("valid");
            for &x in &a {
                sim.step(x);
            }
            assert_eq!(sim.lanes.duplicate_skips() > 0, dup, "{policy} {opts:?}");
            let all = sim.results();
            for &assoc in sim.assoc_list() {
                let pr = sim.pass_results(assoc).expect("simulated");
                assert_eq!(pr.pass().assoc(), assoc);
                for set_bits in 1..=6u32 {
                    let sets = 1 << set_bits;
                    assert_eq!(
                        pr.misses(sets, assoc),
                        all.misses(sets, assoc),
                        "{policy} {opts:?} sets={sets} assoc={assoc}"
                    );
                    assert_eq!(
                        pr.misses(sets, 1),
                        all.misses(sets, 1),
                        "{policy} {opts:?} DM via assoc={assoc}"
                    );
                }
                let c = sim.pass_counters(assoc).expect("simulated");
                assert!(c.is_consistent(), "{policy} {opts:?} assoc={assoc}: {c}");
                assert_eq!(c.accesses, a.len() as u64);
            }
            assert!(sim.pass_results(16).is_none(), "{policy}");
            assert!(sim.pass_counters(16).is_none(), "{policy}");
        }
    }

    /// Non-power-of-two and zero maximum associativities and an inverted
    /// associativity range are errors.
    pub(crate) fn bad_assoc<P: LanePolicy>() {
        for max_assoc in [0, 3] {
            assert!(
                matches!(
                    Arena::<P>::new(2, 0, 4, max_assoc, preset::<P>()),
                    Err(DewError::BadAssoc(a)) if a == max_assoc
                ),
                "{}: max_assoc {max_assoc}",
                policy::<P>()
            );
        }
        assert!(
            matches!(
                Arena::<P>::with_instrumentation(2, (0, 4), (3, 1), preset::<P>(), false),
                Err(DewError::EmptySetRange { .. })
            ),
            "{}: inverted associativity range",
            policy::<P>()
        );
    }

    /// Runs a batch holding the out-of-range sentinel block; it must panic
    /// with "exceeds the supported range".
    pub(crate) fn run_sentinel<P: LanePolicy>(instrument: bool) {
        let mut sim =
            Arena::<P>::with_instrumentation(0, (0, 1), (0, 1), preset::<P>(), instrument)
                .expect("valid");
        sim.run_blocks(&[0, 1, u64::MAX]);
    }
}

#[cfg(test)]
mod tests {
    use super::contract::run_sentinel;
    use super::*;

    /// The instrumented batch path rejects the out-of-range sentinel block
    /// like the fast one, which each policy's own
    /// `sentinel_block_panics_in_batches` checks. The match is exhaustive,
    /// so a newly registered policy cannot skip it.
    #[test]
    fn instrumented_sentinel_block_panics_in_batches() {
        for policy in TreePolicy::ALL {
            let caught = std::panic::catch_unwind(|| match policy {
                TreePolicy::Fifo => run_sentinel::<FifoLanes>(true),
                TreePolicy::Lru => run_sentinel::<LruLanes>(true),
                TreePolicy::Plru => run_sentinel::<PlruLanes>(true),
                TreePolicy::Slru => run_sentinel::<SlruLanes>(true),
            });
            let message = caught
                .expect_err("the sentinel block must panic")
                .downcast::<String>()
                .expect("a formatted panic message");
            assert!(
                message.contains("exceeds the supported range"),
                "{policy}: {message}"
            );
        }
    }

    #[test]
    fn registry_names_every_policy_once() {
        for policy in TreePolicy::ALL {
            let rows = REGISTRY.iter().filter(|(p, _)| *p == policy).count();
            assert_eq!(rows, 1, "{policy}");
        }
        let mut magics: Vec<[u8; 4]> = REGISTRY.iter().map(|&(_, m)| m).collect();
        magics.sort_unstable();
        magics.dedup();
        assert_eq!(magics.len(), REGISTRY.len());
    }
}
