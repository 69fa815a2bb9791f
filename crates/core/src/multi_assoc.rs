//! **Extension**: all associativities of one block size in one FIFO pass —
//! the *fused* kernel behind [`crate::SweepRequest`]'s one-traversal-per-block-size
//! scheduling.
//!
//! The paper runs one DEW pass per `(block size, associativity)` pair
//! because FIFO has no stack property: unlike LRU, one tag list cannot
//! answer for several associativities. But nothing stops a single pass from
//! carrying **independent FIFO tag lists for every associativity** in each
//! tree node, sharing everything that *is* associativity-independent — the
//! walk, the MRA comparison (and its early termination, which is sound for
//! every associativity at once), the decoded block stream, and the
//! direct-mapped results. One [`MultiAssocTree`] pass therefore covers
//! `levels × assoc_list` configurations, turning the paper's 28-pass Table 1
//! sweep into 7 trace traversals, at the cost of wider nodes.
//!
//! # Storage
//!
//! Like [`crate::DewTree`] since the arena rebuild, the whole forest lives in
//! flat lanes: one dense MRA lane (shared by every associativity), and one
//! contiguous way-tag lane where node `i` holds the tag lists of *all*
//! associativities back to back (`tags[i*stride ..][..stride]`, list `k` at
//! its precomputed offset). A node evaluation therefore touches one
//! contiguous region regardless of how many associativities ride along.
//!
//! # The two kernels
//!
//! The step kernel is compiled twice, mirroring `DewTree`:
//!
//! * the **fast** kernel ([`MultiAssocTree::new`]) keeps no per-node
//!   counters and no wave/MRE/link state at all; each list's residency is
//!   decided by a branchless scan of its slice of the contiguous tag lane
//!   (invalid ways hold a sentinel), and FIFO hits mutate nothing;
//! * the **instrumented** kernel ([`MultiAssocTree::instrumented`])
//!   maintains the paper's full determination ladder per list — wave
//!   pointer, then the *intersection link* below, then MRE, then a
//!   stop-at-match search — with every [`DewCounters`] bucket live, both in
//!   aggregate and per associativity (so a fused pass can report the
//!   counters each per-associativity pass would have been entitled to).
//!
//! # The intersection link (CIPARSim-style pruning)
//!
//! CIPARSim (Haque et al., ICCAD 2011; see `PAPERS.md`) observed that FIFO
//! caches of the same block size and set count but different associativity
//! hold largely intersecting contents. This module exploits that
//! observation *exactly*, with a pointer that works like the paper's wave
//! pointers but across associativities instead of across set counts: each
//! way entry of list `k` carries the way its tag occupied in list `k+1` of
//! the same node when the tag was last handled there. When a request is
//! confirmed a **hit** in list `k`, one comparison at the linked way decides
//! hit *or* miss for list `k+1`, short-circuiting its search.
//!
//! Soundness is the wave-pointer argument transplanted: FIFO never moves a
//! resident block between ways, and a block's way in list `k+1` can only
//! change through an eviction followed by a re-insertion — and every
//! insertion into any list of a node happens while *handling that block at
//! that node*, which refreshes the link. So a consulted link is stale only
//! if the block left list `k+1` entirely, in which case the linked way now
//! holds a different tag and the comparison correctly reports a miss. The
//! consult is gated on list `k` *hitting*: after a fresh insert the entry's
//! link still describes the evicted victim and proves nothing about the
//! requested block (FIFO has no inclusion across associativities — Belady's
//! anomaly — which is exactly why the link carries a verifying comparison
//! instead of being trusted blindly).
//!
//! # Examples
//!
//! ```
//! use dew_core::{DewOptions, MultiAssocTree};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Set counts 1..=256, associativities 1/2/4/8, one pass.
//! let mut tree = MultiAssocTree::new(2, 0, 8, 8, DewOptions::default())?;
//! for i in 0..5_000u64 {
//!     tree.step_record(Record::read((i % 900) * 4));
//! }
//! let results = tree.results();
//! assert!(results.misses(64, 8).expect("simulated") <= results.accesses());
//! # Ok(())
//! # }
//! ```

use crate::arena::{
    put_u32s, put_u64s, read_u32s, read_u64s, unpadded, unpadded_mut, within, Arena, LanePolicy,
};
use crate::counters::DewCounters;
use crate::node::{EMPTY_WAVE, INVALID_TAG};
use crate::options::{DewOptions, TreePolicy};
use crate::simd::{first_match, TagScan};
use crate::snapshot::{pow2_span, Cursor, SnapshotError};
use crate::space::DewError;

/// Sentinel for "no matching entry" (root level, previous-list miss, …).
const NO_ENTRY: usize = usize::MAX;

/// Pads a node's way-lane stride up to a whole number of 8-tag (64-byte)
/// groups, so consecutive node regions start on cache-line boundaries when
/// the lane base is line-aligned (see `TagLane`) and the wide scans read
/// whole lines. Strides under one line stay exact — several small nodes per
/// line beats alignment there. Padding lanes hold the invalid-tag sentinel
/// forever; they are scanned (harmlessly — requests never equal the
/// sentinel) but never written, and snapshots serialise only the logical
/// stride, so the byte format is unchanged.
const fn padded_stride(stride: usize) -> usize {
    if stride >= 8 {
        stride.next_multiple_of(8)
    } else {
        stride
    }
}

/// Per-associativity ladder tallies of the instrumented kernel, kept
/// separately from the aggregate [`DewCounters`] so a fused pass can be
/// fanned out into per-associativity counter reports.
#[derive(Debug, Clone, Copy, Default)]
struct ListCounters {
    wave_hits: u64,
    wave_misses: u64,
    mre_checks: u64,
    mre_misses: u64,
    intersection_hits: u64,
    intersection_misses: u64,
    searches: u64,
    search_comparisons: u64,
}

/// A single-pass FIFO simulator for a range of power-of-two associativities
/// at every set count in a range: the [`Arena`] with FIFO lanes. Its
/// [`Arena::counters`] are the aggregate work performed, with per-node MRA
/// work counted once while ladder work is summed over the associativity
/// lists, so the [`DewCounters::is_consistent`] identity of a
/// single-associativity [`crate::DewTree`] does **not** apply to them (one
/// node evaluation feeds several lists); the fanned-out
/// [`Arena::pass_counters`] views restore it. See the module docs.
///
/// # Examples
///
/// One traversal answers every `(sets, assoc)` pair at one block size:
///
/// ```
/// use dew_core::{DewOptions, MultiAssocTree};
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// // Sets 1..=16, associativities 1, 2 and 4, 8-byte blocks.
/// let mut tree = MultiAssocTree::new(3, 0, 4, 4, DewOptions::default())?;
/// for i in 0..5_000u64 {
///     tree.step((i * 40) % 4096);
/// }
/// let results = tree.results();
/// assert_eq!(tree.assoc_list(), &[1, 2, 4]);
/// assert!(results.misses(16, 4).expect("simulated") <= 5_000);
/// assert!(results.misses(16, 1).is_some(), "DM rides along");
/// # Ok(())
/// # }
/// ```
pub type MultiAssocTree = Arena<FifoLanes>;

/// The FIFO lanes: every associativity above 1 owns a tag list in the
/// arena's way lane (list `k` at its lane offset inside the node region),
/// plus the round-robin pointers and — instrumented only — the paper's
/// ladder state kept here.
#[derive(Debug, Clone)]
pub struct FifoLanes {
    opts: DewOptions,
    /// `true` when `opts` matches the paper's default configuration.
    specialized: bool,
    /// FIFO round-robin pointer per `(node, list)`: `fifo[i*num_lists + k]`.
    fifo: Vec<u32>,
    /// Valid-way count per `(node, list)`; instrumented only (the fast
    /// kernel's sentinel scan never needs it).
    valid: Vec<u32>,
    /// MRE tag per `(node, list)`; instrumented only.
    mre: Vec<u64>,
    /// Wave pointer preserved alongside the MRE tag; instrumented only.
    mre_wave: Vec<u32>,
    /// Wave-pointer lane, parallel to the way lane (padded stride included,
    /// so the two share indices); instrumented only.
    waves: Vec<u32>,
    /// Intersection-link lane, parallel to the way lane: the way this
    /// entry's tag occupied in the *next wider* list of the same node when
    /// last handled. Instrumented only.
    xlink: Vec<u32>,
    /// Aggregate work counters (real work performed once).
    counters: DewCounters,
    /// Per-list ladder tallies, indexed like the arena's lane widths.
    list_counters: Vec<ListCounters>,
    /// Block of the previous request, for the CRCB-style elision extension.
    prev_block: u64,
    /// Instrumented-walk scratch: per list, the global way-lane index of the
    /// parent node's matching entry (`NO_ENTRY` at the root).
    parent: Vec<usize>,
}

impl FifoLanes {
    /// Shared per-request prologue of both kernels: request accounting and
    /// the CRCB-style duplicate elision. Returns `true` when the request was
    /// elided whole.
    #[inline(always)]
    fn prologue<const DEFAULT_PATH: bool>(&mut self, block: u64) -> bool {
        debug_assert!(!DEFAULT_PATH || self.specialized, "dispatch mismatch");
        self.counters.accesses += 1;
        if !DEFAULT_PATH && self.opts.dup_elision {
            if block == self.prev_block {
                self.counters.duplicate_skips += 1;
                return true;
            }
            self.prev_block = block;
        }
        false
    }
}

/// The aggregate counters in snapshot order.
fn counter_words(c: &mut DewCounters) -> [&mut u64; 12] {
    [
        &mut c.accesses,
        &mut c.node_evaluations,
        &mut c.mra_stops,
        &mut c.wave_hits,
        &mut c.wave_misses,
        &mut c.mre_misses,
        &mut c.intersection_hits,
        &mut c.intersection_misses,
        &mut c.searches,
        &mut c.duplicate_skips,
        &mut c.search_comparisons,
        &mut c.tag_comparisons,
    ]
}

impl ListCounters {
    /// The tallies in snapshot order.
    fn words(&mut self) -> [&mut u64; 8] {
        [
            &mut self.wave_hits,
            &mut self.wave_misses,
            &mut self.mre_checks,
            &mut self.mre_misses,
            &mut self.intersection_hits,
            &mut self.intersection_misses,
            &mut self.searches,
            &mut self.search_comparisons,
        ]
    }
}

impl LanePolicy for FifoLanes {
    const MAGIC: [u8; 4] = *b"DEWM";
    type Options = DewOptions;
    type Counters = DewCounters;

    fn options(options: DewOptions) -> DewOptions {
        options
    }

    /// One way per way of every list; a direct-mapped-only forest has no
    /// tag lane at all.
    fn stride(assoc_bits: (u32, u32)) -> u128 {
        pow2_span((assoc_bits.0.max(1), assoc_bits.1))
    }

    fn padded(stride: usize) -> usize {
        padded_stride(stride)
    }

    /// [`DewError::UnsoundOptions`] for unsound or non-FIFO options (this
    /// extension is FIFO-only: LRU already gets all associativities from
    /// one list via the stack property — use
    /// [`crate::lru_tree::LruTreeSimulator`]).
    fn check(opts: DewOptions, _: (u32, u32)) -> Result<(), DewError> {
        opts.validate()?;
        if opts.policy != TreePolicy::Fifo {
            return Err(DewError::UnsoundOptions(
                "multi-assoc lists are FIFO-only; every other policy runs its own \
                 fused arena kernel (lru_tree, plru_tree, slru_tree)",
            ));
        }
        Ok(())
    }

    fn new(
        opts: DewOptions,
        instrument: bool,
        nodes: usize,
        widths: &[usize],
        pstride: usize,
    ) -> Self {
        /// A ladder lane: allocated by the instrumented kernel only.
        fn ladder<T: Clone>(instrument: bool, len: usize, fill: T) -> Vec<T> {
            if instrument {
                vec![fill; len]
            } else {
                Vec::new()
            }
        }
        let lists = nodes * widths.len();
        FifoLanes {
            opts,
            specialized: opts.mra_stop && opts.wave && opts.mre && !opts.dup_elision,
            fifo: vec![0; lists],
            valid: ladder(instrument, lists, 0),
            mre: ladder(instrument, lists, INVALID_TAG),
            mre_wave: ladder(instrument, lists, EMPTY_WAVE),
            waves: ladder(instrument, nodes * pstride, EMPTY_WAVE),
            xlink: ladder(instrument, nodes * pstride, EMPTY_WAVE),
            counters: DewCounters::new(),
            list_counters: vec![ListCounters::default(); widths.len()],
            prev_block: INVALID_TAG,
            parent: vec![NO_ENTRY; widths.len()],
        }
    }

    /// Kernel dispatch: fast or instrumented, default path or not, then the
    /// list shape (see `run_shaped`).
    #[inline(always)]
    fn run<S: TagScan>(arena: &mut Arena<Self>, scan: S, blocks: &[u64]) {
        match (arena.instrument, arena.lanes.specialized) {
            (false, true) => run_shaped::<false, true, S>(arena, scan, blocks),
            (false, false) => run_shaped::<false, false, S>(arena, scan, blocks),
            (true, true) => run_shaped::<true, true, S>(arena, scan, blocks),
            (true, false) => run_shaped::<true, false, S>(arena, scan, blocks),
        }
    }

    fn counters(&self) -> &DewCounters {
        &self.counters
    }

    fn accesses(&self) -> u64 {
        self.counters.accesses
    }

    fn duplicate_skips(&self) -> u64 {
        self.counters.duplicate_skips
    }

    /// Walk-level quantities (evaluations, MRA stops, the per-evaluation
    /// MRA comparison) are shared verbatim, ladder quantities come from
    /// that associativity's list.
    fn pass_counters(&self, lane: Option<usize>) -> DewCounters {
        let c = &self.counters;
        let shared = DewCounters {
            accesses: c.accesses,
            duplicate_skips: c.duplicate_skips,
            node_evaluations: c.node_evaluations,
            mra_stops: c.mra_stops,
            ..DewCounters::new()
        };
        match lane {
            Some(k) => {
                let lc = &self.list_counters[k];
                DewCounters {
                    wave_hits: lc.wave_hits,
                    wave_misses: lc.wave_misses,
                    mre_misses: lc.mre_misses,
                    intersection_hits: lc.intersection_hits,
                    intersection_misses: lc.intersection_misses,
                    searches: lc.searches,
                    search_comparisons: lc.search_comparisons,
                    tag_comparisons: c.node_evaluations
                        + lc.wave_hits
                        + lc.wave_misses
                        + lc.mre_checks
                        + lc.intersection_hits
                        + lc.intersection_misses
                        + lc.search_comparisons,
                    ..shared
                }
            }
            None => {
                // Associativity 1: the shared MRA comparison *is* the
                // simulation; report each non-stopped evaluation as a
                // one-comparison search of the single way.
                let searches = c.node_evaluations - c.mra_stops;
                DewCounters {
                    searches,
                    search_comparisons: searches,
                    tag_comparisons: c.node_evaluations + searches,
                    ..shared
                }
            }
        }
    }

    fn lane_bytes(&self) -> usize {
        self.fifo.len() * 4
            + self.valid.len() * 4
            + self.mre.len() * 8
            + self.mre_wave.len() * 4
            + self.waves.len() * 4
            + self.xlink.len() * 4
    }

    fn flags(&self, instrument: bool) -> u8 {
        u8::from(self.opts.mra_stop)
            | u8::from(self.opts.wave) << 1
            | u8::from(self.opts.mre) << 2
            | u8::from(self.opts.dup_elision) << 3
            | u8::from(instrument) << 4
    }

    fn from_flags(flags: u8) -> (DewOptions, bool) {
        let opts = DewOptions {
            mra_stop: flags & 1 != 0,
            wave: flags & 2 != 0,
            mre: flags & 4 != 0,
            dup_elision: flags & 8 != 0,
            policy: TreePolicy::Fifo,
        };
        (opts, flags & 16 != 0)
    }

    fn write_head(&self, out: &mut Vec<u8>) {
        let mut c = self.counters;
        put_u64s(out, counter_words(&mut c).map(|v| &*v));
        for lc in &self.list_counters {
            let mut lc = *lc;
            put_u64s(out, lc.words().map(|v| &*v));
        }
        put_u64s(out, [&self.prev_block]);
    }

    fn read_head(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        read_u64s(cur, counter_words(&mut self.counters))?;
        for lc in &mut self.list_counters {
            read_u64s(cur, lc.words())?;
        }
        read_u64s(cur, [&mut self.prev_block])
    }

    /// The round-robin pointers, then — instrumented only — the ladder
    /// lanes, the way-parallel ones at the logical stride like the tags.
    fn write_tail(arena: &Arena<Self>, out: &mut Vec<u8>) {
        let (l, stride, pstride) = (&arena.lanes, arena.stride, arena.pstride);
        put_u32s(out, &l.fifo);
        if arena.instrument {
            put_u32s(out, &l.valid);
            put_u64s(out, &l.mre);
            put_u32s(out, &l.mre_wave);
            put_u32s(out, unpadded(&l.waves, stride, pstride));
            put_u32s(out, unpadded(&l.xlink, stride, pstride));
        }
    }

    fn read_tail(arena: &mut Arena<Self>, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let (l, widths) = (&mut arena.lanes, &arena.widths);
        let (stride, pstride) = (arena.stride, arena.pstride);
        read_u32s(cur, &mut l.fifo)?;
        within(&l.fifo, "fifo pointer out of range", |i, v| {
            (v as usize) < widths[i % widths.len()]
        })?;
        if arena.instrument {
            read_u32s(cur, &mut l.valid)?;
            within(&l.valid, "valid count out of range", |i, v| {
                v as usize <= widths[i % widths.len()]
            })?;
            read_u64s(cur, &mut l.mre)?;
            read_u32s(cur, &mut l.mre_wave)?;
            read_u32s(cur, unpadded_mut(&mut l.waves, stride, pstride))?;
            read_u32s(cur, unpadded_mut(&mut l.xlink, stride, pstride))?;
        }
        Ok(())
    }
}

/// Shape dispatch, once per batch. Consecutive power-of-two widths mean the
/// whole shape is `(first width, list count)`; the common fused shapes
/// (first width 2 with up to four lists — the paper's sweep ranges — plus
/// the single-list jobs) get their own instantiation so every scan width is
/// a compile-time constant and the per-list loop unrolls into straight-line
/// vectorisable compares. Anything else falls back to the runtime-shape
/// loop (`FIRST = 0`).
#[inline(always)]
fn run_shaped<const INSTRUMENT: bool, const DEFAULT_PATH: bool, S: TagScan>(
    a: &mut Arena<FifoLanes>,
    scan: S,
    blocks: &[u64],
) {
    macro_rules! shapes {
        ($($first:literal x $n:literal),+) => {
            match (a.widths.first().copied().unwrap_or(0), a.widths.len()) {
                $(($first, $n) => a.drive(blocks, |a, b| {
                    if INSTRUMENT {
                        kernel_instrumented::<DEFAULT_PATH, $first, $n, S>(a, scan, b);
                    } else {
                        kernel_fast::<DEFAULT_PATH, $first, $n, S>(a, scan, b);
                    }
                }),)+
                _ => a.drive(blocks, |a, b| {
                    if INSTRUMENT {
                        kernel_instrumented::<DEFAULT_PATH, 0, 0, S>(a, scan, b);
                    } else {
                        kernel_fast::<DEFAULT_PATH, 0, 0, S>(a, scan, b);
                    }
                }),
            }
        };
    }
    shapes!(2 x 1, 2 x 2, 2 x 3, 2 x 4, 4 x 1, 8 x 1, 16 x 1)
}

/// The fast fused kernel: no counters, no wave/MRE/link lanes. Each
/// list's residency is a branchless scan of its slice of the node's
/// contiguous tag region; FIFO hits mutate nothing, so an MRA match
/// (hit in every list) skips the lists entirely even when the early
/// stop is disabled.
///
/// `FIRST`/`NLISTS` encode the list shape when positive (consecutive
/// power-of-two widths starting at `FIRST`, so every width, offset and
/// the stride are compile-time constants) and are both `0` for the
/// runtime fallback. `S` is the tag-scan backend the whole-region
/// compare runs on ([`TagScan`]).
fn kernel_fast<const DEFAULT_PATH: bool, const FIRST: usize, const NLISTS: usize, S: TagScan>(
    a: &mut Arena<FifoLanes>,
    scan: S,
    block: u64,
) {
    if a.lanes.prologue::<DEFAULT_PATH>(block) {
        return;
    }
    debug_assert!(NLISTS == 0 || NLISTS == a.widths.len());
    debug_assert!(FIRST == 0 || Some(&FIRST) == a.widths.first());
    let num_lists = if NLISTS == 0 { a.widths.len() } else { NLISTS };
    // Consecutive power-of-two widths: list `k` is `FIRST << k` wide at
    // offset `FIRST·(2^k − 1)`, and the stride is `FIRST·(2^NLISTS − 1)`.
    let pstride = if FIRST == 0 {
        a.pstride
    } else {
        padded_stride(FIRST * ((1 << NLISTS) - 1))
    };
    debug_assert_eq!(pstride, a.pstride);
    let mra_stop = DEFAULT_PATH || a.lanes.opts.mra_stop;
    let l = &mut a.lanes;
    let levels = a.set_mask.iter().zip(a.node_off.iter()).zip(
        a.misses
            .chunks_exact_mut(num_lists.max(1))
            .zip(a.dm_misses.iter_mut()),
    );
    for ((&mask, &off), (level_misses, level_dm_misses)) in levels {
        let node = off + (block & mask) as usize;
        if a.mra[node] == block {
            if mra_stop {
                // Property 2, sound for every associativity at once.
                return;
            }
            // Hit in every list; FIFO hits change nothing.
            continue;
        }
        *level_dm_misses += 1;
        a.mra[node] = block;
        let region = &mut a.tags[node * pstride..(node + 1) * pstride];
        if FIRST == 0 {
            // Runtime shape: independent wide scans per list (widths may
            // exceed one 64-lane mask window).
            #[allow(clippy::needless_range_loop)] // k indexes parallel lanes
            for k in 0..num_lists {
                let (w, o) = (a.widths[k], a.lane_off[k]);
                let lane = &mut region[o..o + w];
                if first_match(scan, lane, block).is_none() {
                    level_misses[k] += 1;
                    let fp = &mut l.fifo[node * num_lists + k];
                    lane[*fp as usize] = block;
                    *fp = crate::node::fifo_advance(*fp, w);
                }
            }
        } else {
            // Const shape (pstride ≤ 32): one wide compare/movemask of
            // the node's whole contiguous region — every list at once —
            // into a position bitmask; invalid ways (including the
            // padding tail) hold the sentinel and a resident block
            // occupies exactly one way per list, so a list hits iff its
            // window of the mask is nonzero.
            let hit_mask = scan.match_mask(region, block);
            #[allow(clippy::needless_range_loop)] // k indexes parallel lanes
            for k in 0..num_lists {
                let (w, o) = (FIRST << k, FIRST * ((1 << k) - 1));
                if hit_mask & (((1u64 << w) - 1) << o) == 0 {
                    level_misses[k] += 1;
                    let fp = &mut l.fifo[node * num_lists + k];
                    region[o + *fp as usize] = block;
                    *fp = crate::node::fifo_advance(*fp, w);
                }
            }
        }
    }
}

/// The instrumented fused kernel: the full determination ladder per
/// list — wave pointer, then intersection link, then MRE, then a
/// stop-at-match search — with the aggregate *and* per-list counters
/// maintained. Miss counts are bit-identical to the fast kernel's.
///
/// The ladder rides the same wide compare as the fast kernel: under a
/// const shape (`FIRST`/`NLISTS` as in [`kernel_fast`])
/// one position-exact scan of the node's whole region answers residency
/// for every list up front — a block occupies at most one way per list,
/// so "the wave's way holds the block" is "the scan's bit for that way
/// is set" — and the ladder stages then only decide which stage gets
/// the credit and what the sequential ladder would have spent. Every
/// counter stays bit-identical to the stage-by-stage compare sequence
/// it replaces. The runtime shape (`FIRST = 0`, widths that may exceed
/// one mask window) scans per list instead.
fn kernel_instrumented<
    const DEFAULT_PATH: bool,
    const FIRST: usize,
    const NLISTS: usize,
    S: TagScan,
>(
    a: &mut Arena<FifoLanes>,
    scan: S,
    block: u64,
) {
    if a.lanes.prologue::<DEFAULT_PATH>(block) {
        return;
    }
    debug_assert!(NLISTS == 0 || NLISTS == a.widths.len());
    debug_assert!(FIRST == 0 || Some(&FIRST) == a.widths.first());
    let num_lists = if NLISTS == 0 { a.widths.len() } else { NLISTS };
    let pstride = if FIRST == 0 {
        a.pstride
    } else {
        padded_stride(FIRST * ((1 << NLISTS) - 1))
    };
    debug_assert_eq!(pstride, a.pstride);
    let mra_stop = DEFAULT_PATH || a.lanes.opts.mra_stop;
    let use_wave = DEFAULT_PATH || a.lanes.opts.wave;
    let use_mre = DEFAULT_PATH || a.lanes.opts.mre;
    for p in &mut a.lanes.parent {
        *p = NO_ENTRY;
    }
    // Aggregate counters accumulate in locals and flush once at the
    // single exit below. Bumping `l.counters` fields inline instead
    // hits the same per-field address on every handled list, and the
    // resulting store-to-load-forwarding RMW chains were measured to
    // cost ~10% of the instrumented kernel's runtime. (A fully
    // branchless ladder of masked adds was also tried and measured
    // *slower*: it must load every ladder lane unconditionally, while
    // the staged ladder below loads only what the settled stage needs
    // -- the wave pointer settles ~90% of list handles on real traces.)
    let mut a_node_evals = 0u64;
    let mut a_tag_cmp = 0u64;
    let mut a_mra_stops = 0u64;
    let mut a_wave_hits = 0u64;
    let mut a_wave_misses = 0u64;
    let mut a_x_hits = 0u64;
    let mut a_x_misses = 0u64;
    let mut a_mre_misses = 0u64;
    let mut a_searches = 0u64;
    let mut a_search_cmp = 0u64;
    let l = &mut a.lanes;
    'walk: for li in 0..a.set_mask.len() {
        let node = a.node_off[li] + (block & a.set_mask[li]) as usize;
        a_node_evals += 1;
        a_tag_cmp += 1; // the one shared MRA comparison
        let mra_match = a.mra[node] == block;
        if mra_match {
            if mra_stop {
                // Property 2: hit here and at every larger set count,
                // in every list at once.
                a_mra_stops += 1;
                break 'walk;
            }
        } else {
            a.dm_misses[li] += 1;
        }
        a.mra[node] = block;
        let base = node * pstride;
        // Const shape: one wide compare of the node's whole region
        // answers residency for every list of this node at once -- the
        // ladder stages below then only decide which stage gets the
        // credit, each with its paper-exact comparison count.
        let node_mask = if FIRST == 0 {
            0
        } else {
            scan.match_mask(&a.tags[base..base + pstride], block)
        };
        // The block's way entry in the previous (narrower) list of this
        // node, and whether that list *hit* (the consult gate of the
        // intersection link; see the module docs).
        let mut prev_entry = NO_ENTRY;
        let mut prev_hit = false;
        for k in 0..num_lists {
            let (w, o) = if FIRST == 0 {
                (a.widths[k], a.lane_off[k])
            } else {
                (FIRST << k, FIRST * ((1 << k) - 1))
            };
            let start = base + o;
            let ml = node * num_lists + k;

            // Residency, settled once by the wide compare (lanes past
            // the valid prefix hold the sentinel and never match).
            let resident = if FIRST == 0 {
                first_match(scan, &a.tags[start..start + w], block)
            } else {
                let window = (node_mask >> o) & ((1u64 << w) - 1);
                if window == 0 {
                    None
                } else {
                    Some(window.trailing_zeros() as usize)
                }
            };

            // Determination ladder -- counter accounting only from
            // here. Every stage's *outcome* is implied by residency
            // (Properties 3/4 and the link argument: a consulted
            // pointer that misses, or a matching MRE, proves absence),
            // so the stages test `resident` instead of re-comparing
            // tags; the debug asserts pin the implication.
            let mut determined = false;
            if use_wave && l.parent[k] != NO_ENTRY {
                let wave = l.waves[l.parent[k]];
                if wave != EMPTY_WAVE {
                    // Property 3: one comparison decides.
                    a_tag_cmp += 1;
                    debug_assert!((wave as usize) < w, "wave pointer within tag list");
                    if resident.is_some() {
                        debug_assert_eq!(
                            resident,
                            Some(wave as usize),
                            "a resident block is where its wave pointer says"
                        );
                        a_wave_hits += 1;
                        l.list_counters[k].wave_hits += 1;
                    } else {
                        a_wave_misses += 1;
                        l.list_counters[k].wave_misses += 1;
                    }
                    determined = true;
                }
            }
            if !determined && prev_hit {
                let x = l.xlink[prev_entry];
                if x != EMPTY_WAVE {
                    // Intersection link: the narrower list hit, so the
                    // link was refreshed at this block's last handling
                    // and one comparison decides (module docs).
                    a_tag_cmp += 1;
                    debug_assert!((x as usize) < w, "intersection link within tag list");
                    if resident.is_some() {
                        debug_assert_eq!(
                            resident,
                            Some(x as usize),
                            "a resident block is where its link says"
                        );
                        a_x_hits += 1;
                        l.list_counters[k].intersection_hits += 1;
                    } else {
                        a_x_misses += 1;
                        l.list_counters[k].intersection_misses += 1;
                    }
                    determined = true;
                }
            }
            if !determined && use_mre {
                // Property 4: the most recently evicted block is
                // certainly absent.
                a_tag_cmp += 1;
                l.list_counters[k].mre_checks += 1;
                if l.mre[ml] == block {
                    debug_assert!(resident.is_none(), "an MRE match implies absence");
                    a_mre_misses += 1;
                    l.list_counters[k].mre_misses += 1;
                    determined = true;
                }
            }
            if !determined {
                a_searches += 1;
                // The sequential search stops at the match, because the
                // paper's comparison counts do: a hit at depth `i`
                // costs `i + 1` comparisons, a miss costs `valid`.
                let spent = match resident {
                    Some(i) => (i + 1) as u64,
                    None => l.valid[ml] as u64,
                };
                a_search_cmp += spent;
                a_tag_cmp += spent;
                let lc = &mut l.list_counters[k];
                lc.searches += 1;
                lc.search_comparisons += spent;
            }
            debug_assert!(
                !(mra_match && resident.is_none()),
                "an MRA match implies residency; miss determination is wrong"
            );

            let n = match resident {
                Some(n) => n, // Algorithm 1: FIFO hits change nothing.
                None => {
                    // Algorithm 2: Handle_miss.
                    a.misses[li * num_lists + k] += 1;
                    let n = l.fifo[ml] as usize;
                    if use_mre && l.mre[ml] == block {
                        // Exchange the victim way with the MRE entry,
                        // restoring the block's preserved wave pointer.
                        debug_assert_eq!(
                            l.valid[ml] as usize, w,
                            "MRE only holds a tag after an eviction (full list)"
                        );
                        std::mem::swap(&mut a.tags[start + n], &mut l.mre[ml]);
                        std::mem::swap(&mut l.waves[start + n], &mut l.mre_wave[ml]);
                    } else {
                        let evicted_tag = std::mem::replace(&mut a.tags[start + n], block);
                        let evicted_wave = std::mem::replace(&mut l.waves[start + n], EMPTY_WAVE);
                        if evicted_tag == INVALID_TAG {
                            l.valid[ml] += 1;
                        } else if use_mre {
                            l.mre[ml] = evicted_tag;
                            l.mre_wave[ml] = evicted_wave;
                        }
                    }
                    l.fifo[ml] = crate::node::fifo_advance(l.fifo[ml], w);
                    n
                }
            };
            // Refresh the parent's matching entry's wave pointer
            // (Algorithm 1 line 3 / Algorithm 2 line 10) ...
            if use_wave && l.parent[k] != NO_ENTRY {
                l.waves[l.parent[k]] = n as u32;
            }
            l.parent[k] = start + n;
            // ... and the previous list's intersection link. The refresh
            // is unconditional (hit or insert): the block is resident in
            // both lists after handling, which is what keeps a later
            // consult exact.
            if prev_entry != NO_ENTRY {
                l.xlink[prev_entry] = n as u32;
            }
            prev_entry = start + n;
            prev_hit = resident.is_some();
        }
    }
    let c = &mut l.counters;
    c.node_evaluations += a_node_evals;
    c.tag_comparisons += a_tag_cmp;
    c.mra_stops += a_mra_stops;
    c.wave_hits += a_wave_hits;
    c.wave_misses += a_wave_misses;
    c.intersection_hits += a_x_hits;
    c.intersection_misses += a_x_misses;
    c.mre_misses += a_mre_misses;
    c.searches += a_searches;
    c.search_comparisons += a_search_cmp;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PassConfig;
    use crate::tree::DewTree;
    use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
    use dew_trace::Record;

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
                    (x % 90) * 4
                }
            })
            .collect()
    }

    #[test]
    fn matches_reference_for_every_assoc_and_set_count() {
        let a = addrs(3000, 0xA5A5);
        for instrument in [false, true] {
            let mut tree = MultiAssocTree::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                DewOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a {
                tree.step(x);
            }
            let r = tree.results();
            let records: Vec<Record> = a.iter().map(|&x| Record::read(x)).collect();
            for set_bits in 0..=5u32 {
                for assoc in [1u32, 2, 4, 8] {
                    let sets = 1 << set_bits;
                    let config =
                        CacheConfig::new(sets, assoc, 4, Replacement::Fifo).expect("valid");
                    let expected = simulate_trace(config, &records).misses();
                    assert_eq!(
                        r.misses(sets, assoc),
                        Some(expected),
                        "sets={sets} assoc={assoc} instrument={instrument}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_and_instrumented_kernels_are_bit_identical() {
        let a = addrs(5000, 0xF00D);
        for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
            let mut fast = MultiAssocTree::new(2, 0, 6, 8, opts).expect("valid");
            let mut slow = MultiAssocTree::instrumented(2, 0, 6, 8, opts).expect("valid");
            for &x in &a {
                fast.step(x);
                slow.step(x);
            }
            assert_eq!(fast.results(), slow.results(), "{opts}");
            assert_eq!(fast.counters().accesses, slow.counters().accesses, "{opts}");
        }
    }

    #[test]
    fn run_blocks_matches_per_record_stepping() {
        let a = addrs(3000, 0xB10C);
        let blocks: Vec<u64> = a.iter().map(|&x| x >> 2).collect();
        for instrument in [false, true] {
            let mut stepped = MultiAssocTree::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                DewOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a {
                stepped.step(x);
            }
            let mut batched = MultiAssocTree::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                DewOptions::default(),
                instrument,
            )
            .expect("valid");
            batched.run_blocks(&blocks);
            assert_eq!(stepped.results(), batched.results());
            assert_eq!(stepped.counters(), batched.counters());
        }
    }

    #[test]
    fn agrees_with_separate_dew_trees_and_saves_comparisons() {
        let a = addrs(4000, 0x77);
        let mut multi =
            MultiAssocTree::instrumented(2, 0, 8, 16, DewOptions::default()).expect("valid");
        for &x in &a {
            multi.step(x);
        }
        let mr = multi.results();

        let mut separate_comparisons = 0;
        for assoc in [2u32, 4, 8, 16] {
            let pass = PassConfig::new(2, 0, 8, assoc).expect("valid");
            let mut tree = DewTree::instrumented(pass, DewOptions::default()).expect("sound");
            for &x in &a {
                tree.step(x);
            }
            separate_comparisons += tree.counters().tag_comparisons;
            let r = tree.results();
            for set_bits in 0..=8u32 {
                let sets = 1 << set_bits;
                assert_eq!(
                    mr.misses(sets, assoc),
                    r.misses(sets, assoc),
                    "assoc={assoc}"
                );
                assert_eq!(
                    mr.misses(sets, 1),
                    r.misses(sets, 1),
                    "DM via assoc={assoc}"
                );
            }
        }
        assert!(
            multi.counters().tag_comparisons < separate_comparisons,
            "sharing the walk, MRA and intersection links must cut total comparisons: {} vs {}",
            multi.counters().tag_comparisons,
            separate_comparisons
        );
    }

    #[test]
    fn intersection_links_fire_and_fanned_counters_are_consistent() {
        // The link sits *after* the paper's wave pointer in the ladder, so
        // with waves disabled it becomes the primary short-circuit: a loopy
        // working set gives the narrower lists plenty of hits to feed the
        // links of the wider ones.
        let a: Vec<u64> = (0..6000u64).map(|i| ((i * 13) % 200) * 4).collect();
        let opts = DewOptions {
            wave: false,
            ..DewOptions::default()
        };
        let mut tree = MultiAssocTree::instrumented(2, 0, 6, 8, opts).expect("valid");
        for &x in &a {
            tree.step(x);
        }
        assert!(
            tree.counters().intersection_total() > 0,
            "intersection links must settle some evaluations: {}",
            tree.counters()
        );
        for &assoc in tree.assoc_list() {
            let c = tree.pass_counters(assoc).expect("simulated");
            assert!(c.is_consistent(), "assoc={assoc}: {c}");
            assert_eq!(c.accesses, a.len() as u64);
            assert_eq!(c.node_evaluations, tree.counters().node_evaluations);
        }
        assert!(tree.pass_counters(32).is_none());
    }

    #[test]
    fn intersection_links_fire_at_the_root_under_default_options() {
        // With waves on, the link's exclusive territory is the root level
        // (which has no parent entry to hold a wave pointer): loop over a
        // working set that fits the wider root lists but not the narrowest.
        let a: Vec<u64> = (0..4000u64).map(|i| (i % 3) * 4).collect();
        let mut tree =
            MultiAssocTree::instrumented(2, 0, 4, 8, DewOptions::default()).expect("valid");
        for &x in &a {
            tree.step(x);
        }
        assert!(
            tree.counters().intersection_hits > 0,
            "the 4-way root hits must short-circuit the 8-way search: {}",
            tree.counters()
        );
        for &assoc in tree.assoc_list() {
            let c = tree.pass_counters(assoc).expect("simulated");
            assert!(c.is_consistent(), "assoc={assoc}: {c}");
        }
    }

    #[test]
    fn assoc_range_above_one_skips_narrow_lists() {
        let a = addrs(2000, 0x404);
        let mut ranged =
            MultiAssocTree::with_instrumentation(2, (0, 4), (2, 3), DewOptions::default(), false)
                .expect("valid");
        let mut full = MultiAssocTree::new(2, 0, 4, 8, DewOptions::default()).expect("valid");
        for &x in &a {
            ranged.step(x);
            full.step(x);
        }
        assert_eq!(ranged.assoc_list(), &[4, 8]);
        let (rr, fr) = (ranged.results(), full.results());
        for set_bits in 0..=4u32 {
            let sets = 1 << set_bits;
            for assoc in [4u32, 8] {
                assert_eq!(rr.misses(sets, assoc), fr.misses(sets, assoc));
            }
            assert_eq!(rr.misses(sets, 1), None, "assoc 1 not in the range");
            assert_eq!(rr.misses(sets, 2), None, "assoc 2 not in the range");
        }
    }

    #[test]
    fn wide_runtime_shapes_use_the_fallback_scan() {
        // Widths 2..=32 (stride 62) exceed the position bitmask of the
        // const-shape kernel, exercising the runtime fallback.
        let a = addrs(2500, 0x3C3C);
        let mut tree = MultiAssocTree::new(2, 0, 3, 32, DewOptions::default()).expect("valid");
        for &x in &a {
            tree.step(x);
        }
        let r = tree.results();
        let records: Vec<Record> = a.iter().map(|&x| Record::read(x)).collect();
        for set_bits in 0..=3u32 {
            for assoc in [2u32, 16, 32] {
                let sets = 1 << set_bits;
                let config = CacheConfig::new(sets, assoc, 4, Replacement::Fifo).expect("valid");
                let expected = simulate_trace(config, &records).misses();
                assert_eq!(
                    r.misses(sets, assoc),
                    Some(expected),
                    "sets={sets} assoc={assoc}"
                );
            }
        }
    }

    #[test]
    fn options_do_not_change_results() {
        let a = addrs(2000, 0x99);
        let mut reference = None;
        for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
            let mut tree = MultiAssocTree::instrumented(2, 0, 4, 4, opts).expect("valid");
            for &x in &a {
                tree.step(x);
            }
            let r = tree.results();
            match &reference {
                None => reference = Some(r),
                Some(expected) => assert_eq!(&r, expected, "{opts}"),
            }
        }
    }

    #[test]
    fn duplicate_elision_preserves_results() {
        let a: Vec<u64> = (0..3000u64).map(|i| i % 700).collect();
        let plain = {
            let mut t = MultiAssocTree::new(4, 0, 5, 8, DewOptions::default()).expect("valid");
            for &x in &a {
                t.step(x);
            }
            t.results()
        };
        let opts = DewOptions {
            dup_elision: true,
            ..DewOptions::default()
        };
        let mut t = MultiAssocTree::instrumented(4, 0, 5, 8, opts).expect("valid");
        for &x in &a {
            t.step(x);
        }
        assert_eq!(t.results(), plain, "elision must not change results");
        assert!(t.counters().duplicate_skips > 1000);
    }

    #[test]
    fn lru_options_are_rejected() {
        assert!(matches!(
            MultiAssocTree::new(2, 0, 4, 4, DewOptions::lru()),
            Err(DewError::UnsoundOptions(_))
        ));
    }

    #[test]
    fn assoc_one_only_still_works() {
        let a = addrs(1000, 0x11);
        for instrument in [false, true] {
            let mut tree = MultiAssocTree::with_instrumentation(
                2,
                (0, 4),
                (0, 0),
                DewOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a {
                tree.step(x);
            }
            let r = tree.results();
            let records: Vec<Record> = a.iter().map(|&x| Record::read(x)).collect();
            for set_bits in 0..=4u32 {
                let sets = 1 << set_bits;
                let config = CacheConfig::new(sets, 1, 4, Replacement::Fifo).expect("valid");
                let expected = simulate_trace(config, &records).misses();
                assert_eq!(r.misses(sets, 1), Some(expected));
            }
            let c = tree.pass_counters(1).expect("simulated");
            assert!(c.is_consistent());
        }
    }

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        crate::arena::contract::fan_out::<FifoLanes>();
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        crate::arena::contract::bad_assoc::<FifoLanes>();
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        crate::arena::contract::run_sentinel::<FifoLanes>(false);
    }
}
