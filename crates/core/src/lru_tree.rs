//! Single-pass multi-configuration **LRU** simulation over the same binomial
//! forest — the comparator family DEW is positioned against — on the same
//! flat-arena storage and two-kernel compilation scheme as [`crate::DewTree`]
//! and [`crate::MultiAssocTree`].
//!
//! The paper's related work (Section 2) builds on two classic LRU facts that
//! FIFO lacks:
//!
//! 1. **Stack property** (Mattson/Gecsei): keeping each set as a
//!    recency-ordered list, a request that hits at depth `d` hits every
//!    associativity `a > d` — one list yields exact results for *all*
//!    associativities simultaneously.
//! 2. **Set-refinement inclusion** (Hill & Smith; the basis of Janapsatya's
//!    method): a hit in the cache with `S` sets is guaranteed to be a hit
//!    with `2S` sets, because the competitors of a block in the finer cache
//!    are a subset of its competitors in the coarser one. Consequently a
//!    block's hit depth is non-increasing down the tree, and once it hits at
//!    depth 0 (it is the set's MRU block) it is at depth 0 everywhere below:
//!    the walk can stop with *no* state updates — the LRU analogue of DEW's
//!    Property 2.
//!
//! [`LruTreeSimulator`] implements this family in the spirit of Janapsatya's
//! method with the CRCB-style consecutive-duplicate elision of Tojo et al.
//! (both toggleable via [`LruTreeOptions`]): MRU-first searches exploit
//! temporal locality, and per-node move-to-front lists produce exact miss
//! counts for every power-of-two associativity up to the list depth, at every
//! set count, in one pass.
//!
//! # Storage
//!
//! The whole forest lives in flat lanes: one dense **MRA lane** holding every
//! node's depth-0 (MRU) tag — which is simultaneously the direct-mapped cache
//! contents and the operand of the stack-property early exit — and one
//! contiguous **recency lane** where node `i`'s move-to-front list occupies
//! `tags[i*width ..][..width]` in MRU-first order, sized to the widest
//! requested associativity. Cold ways hold a sentinel at the tail of the
//! list, so a miss update is one `rotate_right(1)` of the whole region
//! followed by a front store — no valid-count bookkeeping on the hot path.
//!
//! # The two kernels
//!
//! Mirroring [`crate::DewTree`], the step kernel is compiled twice:
//!
//! * the **fast** kernel ([`LruTreeSimulator::new`]) keeps no work counters;
//!   residency depth is a branchless scan of the node's whole recency region
//!   into a position bitmask, const-specialized over the common widths
//!   (1/2/4/8/16), and the per-associativity miss tallies are computed
//!   without branches from the depth;
//! * the **instrumented** kernel ([`LruTreeSimulator::instrumented`])
//!   performs the classic MRU-first stop-at-match search over the valid
//!   prefix with every [`LruTreeCounters`] bucket live, plus a per-depth hit
//!   histogram ([`LruTreeSimulator::depth_hits`]).
//!
//! Both kernels produce bit-identical miss counts — a property-tested
//! invariant, exactly like the FIFO kernels'.
//!
//! [`crate::SweepRequest`] drives this type for LRU spaces: all passes of one
//! block size fuse into a single streamed traversal, fanned back out through
//! [`LruTreeSimulator::pass_results`] / [`LruTreeSimulator::pass_counters`].
//!
//! # Examples
//!
//! ```
//! use dew_core::lru_tree::{LruTreeOptions, LruTreeSimulator};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Set counts 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let mut sim = LruTreeSimulator::new(2, 0, 3, 4, LruTreeOptions::default())?;
//! for i in 0..100u64 {
//!     sim.step_record(Record::read((i % 10) * 4));
//! }
//! let misses_dm = sim.results().misses(8, 1).expect("simulated");
//! let misses_4w = sim.results().misses(8, 4).expect("simulated");
//! assert!(misses_4w <= misses_dm, "the LRU stack property");
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::arena::{put_u32s, put_u64s, read_u32s, read_u64s, within, Arena, LanePolicy};
use crate::counters::DewCounters;
use crate::node::INVALID_TAG;
use crate::options::DewOptions;
use crate::simd::{first_match, TagScan};
use crate::snapshot::{pow2_span, Cursor, SnapshotError};

/// Exact single-pass LRU simulator for all set counts in a range and all
/// power-of-two associativities in a range: the [`Arena`] with one
/// move-to-front recency lane. See the module docs.
///
/// # Examples
///
/// The stack property makes one move-to-front lane exact for every
/// associativity at once:
///
/// ```
/// use dew_core::lru_tree::{LruTreeOptions, LruTreeSimulator};
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// // Sets 1..=16, associativities 1, 2 and 4, 8-byte blocks.
/// let mut sim = LruTreeSimulator::new(3, 0, 4, 4, LruTreeOptions::default())?;
/// for i in 0..5_000u64 {
///     sim.step((i * 40) % 4096);
/// }
/// let results = sim.results();
/// assert_eq!(sim.assoc_list(), &[1, 2, 4]);
/// // LRU inclusion: more ways never miss more at the same set count.
/// let (m1, m2) = (results.misses(16, 1).unwrap(), results.misses(16, 2).unwrap());
/// assert!(m2 <= m1);
/// # Ok(())
/// # }
/// ```
pub type LruTreeSimulator = Arena<LruLanes>;

/// Behaviour toggles of the LRU comparator (both default to on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LruTreeOptions {
    /// Stop the walk when the request hits at depth 0 (it is the MRU block
    /// of the set): by set-refinement inclusion it is MRU at every larger
    /// set count, so no accounting or list update is needed below.
    pub depth_zero_stop: bool,
    /// CRCB-style elision: a request to the same block as the immediately
    /// preceding request hits at depth 0 everywhere and is skipped outright.
    pub duplicate_elision: bool,
}

impl Default for LruTreeOptions {
    fn default() -> Self {
        LruTreeOptions {
            depth_zero_stop: true,
            duplicate_elision: true,
        }
    }
}

/// Work counters of the LRU comparator (instrumented kernel only; the fast
/// kernel maintains just the request-level `accesses`/`duplicate_skips`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruTreeCounters {
    /// Requests simulated (skipped duplicates included).
    pub accesses: u64,
    /// Tree nodes visited.
    pub node_evaluations: u64,
    /// Walks ended early by a depth-0 hit.
    pub depth_zero_stops: u64,
    /// Requests elided as consecutive duplicates.
    pub duplicate_skips: u64,
    /// Tag comparisons performed (the depth-0 MRA comparison of each node
    /// evaluation plus the MRU-first sequential search below it).
    pub tag_comparisons: u64,
}

impl fmt::Display for LruTreeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} evaluations, {} depth-0 stops, {} duplicate skips, {} comparisons",
            self.accesses,
            self.node_evaluations,
            self.depth_zero_stops,
            self.duplicate_skips,
            self.tag_comparisons
        )
    }
}

/// The LRU lanes: node `i`'s move-to-front list occupies the arena's whole
/// tag region `tags[i * width..][..width]`, MRU-first and sentinel-padded
/// at the tail, sized to the widest associativity; every associativity
/// above 1 is a miss threshold on the hit depth (the stack property).
#[derive(Debug, Clone)]
pub struct LruLanes {
    opts: LruTreeOptions,
    /// Valid prefix length per node; instrumented only (the fast kernel's
    /// sentinel scan never needs it).
    valid: Vec<u32>,
    counters: LruTreeCounters,
    /// Hits per recency depth (`0..width`); instrumented only.
    depth_hits: Vec<u64>,
    /// Block of the previous request, for the CRCB-style elision.
    prev_block: u64,
}

impl LruLanes {
    /// Shared per-request prologue of both kernels: request accounting and
    /// the CRCB-style duplicate elision. Returns `true` when the request
    /// was elided whole.
    #[inline(always)]
    fn prologue(&mut self, block: u64) -> bool {
        self.counters.accesses += 1;
        if self.opts.duplicate_elision {
            if block == self.prev_block {
                // The block is the MRU entry of every set on its path: a hit
                // at depth 0 for every configuration, and move-to-front is a
                // no-op.
                self.counters.duplicate_skips += 1;
                return true;
            }
            self.prev_block = block;
        }
        false
    }
}

impl Arena<LruLanes> {
    /// Hits per recency depth (`depth_hits()[d]` counts hits whose stack
    /// distance was exactly `d`), maintained by the instrumented kernel;
    /// empty for fast simulators. Depth-0 hits elided as consecutive
    /// duplicates are tallied in
    /// [`LruTreeCounters::duplicate_skips`] instead, and a fired depth-0
    /// stop ends the walk, so deeper levels' depth-0 hits are — like every
    /// other saved evaluation — not re-counted.
    #[must_use]
    pub fn depth_hits(&self) -> &[u64] {
        &self.lanes.depth_hits
    }
}

impl LanePolicy for LruLanes {
    const MAGIC: [u8; 4] = *b"DEWL";
    type Options = LruTreeOptions;
    type Counters = LruTreeCounters;

    fn options(options: DewOptions) -> LruTreeOptions {
        LruTreeOptions {
            depth_zero_stop: true,
            duplicate_elision: options.dup_elision,
        }
    }

    /// One recency list a node, as wide as the widest associativity.
    fn stride(assoc_bits: (u32, u32)) -> u128 {
        pow2_span((assoc_bits.1, assoc_bits.1))
    }

    fn new(
        opts: LruTreeOptions,
        instrument: bool,
        nodes: usize,
        _: &[usize],
        width: usize,
    ) -> Self {
        LruLanes {
            opts,
            valid: if instrument {
                vec![0; nodes]
            } else {
                Vec::new()
            },
            counters: LruTreeCounters::default(),
            depth_hits: if instrument {
                vec![0; width]
            } else {
                Vec::new()
            },
            prev_block: INVALID_TAG,
        }
    }

    /// Kernel dispatch: the instrumented kernel, or the fast kernel on the
    /// recency-lane width — the common widths (the paper's sweep ranges)
    /// get their own instantiation so the scan width is a compile-time
    /// constant and the position-bitmask loop unrolls into straight-line
    /// vectorisable compares. Anything wider falls back to the
    /// runtime-width scan (`W = 0`).
    #[inline(always)]
    fn run<S: TagScan>(arena: &mut Arena<Self>, scan: S, blocks: &[u64]) {
        if arena.instrument {
            arena.drive(blocks, kernel_instrumented);
            return;
        }
        match arena.stride {
            1 => arena.drive(blocks, |a, b| kernel_fast::<1, S>(a, scan, b)),
            2 => arena.drive(blocks, |a, b| kernel_fast::<2, S>(a, scan, b)),
            4 => arena.drive(blocks, |a, b| kernel_fast::<4, S>(a, scan, b)),
            8 => arena.drive(blocks, |a, b| kernel_fast::<8, S>(a, scan, b)),
            16 => arena.drive(blocks, |a, b| kernel_fast::<16, S>(a, scan, b)),
            _ => arena.drive(blocks, |a, b| kernel_fast::<0, S>(a, scan, b)),
        }
    }

    fn counters(&self) -> &LruTreeCounters {
        &self.counters
    }

    fn accesses(&self) -> u64 {
        self.counters.accesses
    }

    fn duplicate_skips(&self) -> u64 {
        self.counters.duplicate_skips
    }

    /// One recency list serves every associativity, so — unlike the FIFO
    /// fan-out — *all* quantities are shared verbatim. The depth-0 stop
    /// maps onto the `mra_stops` bucket (it is the LRU analogue of
    /// Property 2) and every other evaluation is a search.
    fn pass_counters(&self, _: Option<usize>) -> DewCounters {
        let c = &self.counters;
        DewCounters {
            accesses: c.accesses,
            duplicate_skips: c.duplicate_skips,
            node_evaluations: c.node_evaluations,
            mra_stops: c.depth_zero_stops,
            searches: c.node_evaluations - c.depth_zero_stops,
            search_comparisons: c.tag_comparisons - c.node_evaluations,
            tag_comparisons: c.tag_comparisons,
            ..DewCounters::new()
        }
    }

    fn lane_bytes(&self) -> usize {
        self.valid.len() * 4
    }

    fn flags(&self, instrument: bool) -> u8 {
        u8::from(self.opts.depth_zero_stop)
            | u8::from(self.opts.duplicate_elision) << 1
            | u8::from(instrument) << 2
    }

    fn from_flags(flags: u8) -> (LruTreeOptions, bool) {
        let opts = LruTreeOptions {
            depth_zero_stop: flags & 1 != 0,
            duplicate_elision: flags & 2 != 0,
        };
        (opts, flags & 4 != 0)
    }

    fn write_head(&self, out: &mut Vec<u8>) {
        let c = &self.counters;
        put_u64s(
            out,
            &[
                c.accesses,
                c.node_evaluations,
                c.depth_zero_stops,
                c.duplicate_skips,
                c.tag_comparisons,
            ],
        );
        put_u64s(out, self.depth_hits.iter().chain([&self.prev_block]));
    }

    fn read_head(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let c = &mut self.counters;
        read_u64s(
            cur,
            [
                &mut c.accesses,
                &mut c.node_evaluations,
                &mut c.depth_zero_stops,
                &mut c.duplicate_skips,
                &mut c.tag_comparisons,
            ],
        )?;
        read_u64s(
            cur,
            self.depth_hits.iter_mut().chain([&mut self.prev_block]),
        )
    }

    fn write_tail(arena: &Arena<Self>, out: &mut Vec<u8>) {
        put_u32s(out, &arena.lanes.valid);
    }

    fn read_tail(arena: &mut Arena<Self>, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let width = arena.stride;
        read_u32s(cur, &mut arena.lanes.valid)?;
        within(&arena.lanes.valid, "valid prefix out of range", |_, v| {
            v as usize <= width
        })
    }
}

/// The fast kernel: no counter traffic. Per level, one dense MRA
/// comparison settles depth 0 (and the direct-mapped result); otherwise a
/// branchless scan of the node's whole recency region yields the hit depth
/// as a position bitmask, the per-threshold miss tallies fall out of the
/// depth without branches, and the move-to-front update is a single prefix
/// rotation (a whole-region rotation plus front store on a miss — the
/// sentinel or true LRU victim wraps around and is overwritten).
///
/// `W` is the compile-time lane width, or `0` for the runtime fallback;
/// `S` is the tag-scan backend the wide compare runs on ([`TagScan`]).
fn kernel_fast<const W: usize, S: TagScan>(a: &mut Arena<LruLanes>, scan: S, block: u64) {
    if a.lanes.prologue(block) {
        return;
    }
    let width = if W == 0 { a.stride } else { W };
    debug_assert_eq!(width, a.stride);
    let stop = a.lanes.opts.depth_zero_stop;
    let nk = a.widths.len();
    let levels = a.set_mask.iter().zip(a.node_off.iter()).zip(
        a.misses
            .chunks_exact_mut(nk.max(1))
            .zip(a.dm_misses.iter_mut()),
    );
    for ((&mask, &off), (level_misses, level_dm_misses)) in levels {
        let node = off + (block & mask) as usize;
        if a.mra[node] == block {
            if stop {
                // Set-refinement inclusion: MRU here means MRU at every
                // larger set count — no accounting or update below.
                return;
            }
            continue;
        }
        *level_dm_misses += 1;
        a.mra[node] = block;
        let region = &mut a.tags[node * width..(node + 1) * width];
        // A resident block occupies exactly one way, so the bitmask has at
        // most one bit; depth `width` encodes a miss.
        let depth = if W == 0 {
            first_match(scan, region, block).unwrap_or(width)
        } else {
            let hit_mask = scan.match_mask(region, block);
            if hit_mask == 0 {
                width
            } else {
                hit_mask.trailing_zeros() as usize
            }
        };
        // Stack property: a hit at depth d misses every associativity <= d;
        // a miss (depth == width) misses them all.
        for (k, &thr) in a.widths.iter().enumerate() {
            level_misses[k] += u64::from(depth >= thr);
        }
        // Move to front. On a hit the rotation carries the matching way to
        // the front (the store is then a no-op); on a miss the whole-region
        // rotation wraps the tail entry — a sentinel while cold, the true
        // LRU victim when full — to the front, where the store replaces it.
        region[..=depth.min(width - 1)].rotate_right(1);
        region[0] = block;
    }
}

/// The instrumented kernel: the classic MRU-first stop-at-match search over
/// the valid prefix, with every counter and the per-depth hit histogram
/// live. Miss counts are bit-identical to the fast kernel's.
fn kernel_instrumented(a: &mut Arena<LruLanes>, block: u64) {
    let l = &mut a.lanes;
    if l.prologue(block) {
        return;
    }
    let width = a.stride;
    let stop = l.opts.depth_zero_stop;
    let nk = a.widths.len();
    let cols = nk.max(1);
    for li in 0..a.set_mask.len() {
        let node = a.node_off[li] + (block & a.set_mask[li]) as usize;
        l.counters.node_evaluations += 1;
        // Depth 0 is the dense MRA lane: one comparison, shared with the
        // direct-mapped simulation.
        l.counters.tag_comparisons += 1;
        if a.mra[node] == block {
            l.depth_hits[0] += 1;
            if stop {
                l.counters.depth_zero_stops += 1;
                return;
            }
            continue;
        }
        a.dm_misses[li] += 1;
        a.mra[node] = block;
        let valid = l.valid[node] as usize;
        let region = &mut a.tags[node * width..(node + 1) * width];
        // MRU-first search below depth 0 (Janapsatya's temporal-locality
        // order), stopping at the match; depth 0 was settled above.
        let mut found = None;
        for (d, &tag) in region.iter().enumerate().take(valid).skip(1) {
            l.counters.tag_comparisons += 1;
            if tag == block {
                found = Some(d);
                break;
            }
        }
        match found {
            Some(d) => {
                l.depth_hits[d] += 1;
                for (k, &thr) in a.widths.iter().enumerate() {
                    a.misses[li * cols + k] += u64::from(d >= thr);
                }
                region[..=d].rotate_right(1);
            }
            None => {
                for k in 0..nk {
                    a.misses[li * cols + k] += 1;
                }
                region[..=valid.min(width - 1)].rotate_right(1);
                region[0] = block;
                l.valid[node] = (valid + 1).min(width) as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::AllAssocResults;
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
                    (x % 80) * 4
                }
            })
            .collect()
    }

    fn oracle(sets: u32, assoc: u32, block: u32, addrs: &[u64]) -> u64 {
        let records: Vec<Record> = addrs.iter().map(|&a| Record::read(a)).collect();
        simulate_trace(
            CacheConfig::new(sets, assoc, block, Replacement::Lru).expect("valid"),
            &records,
        )
        .misses()
    }

    #[test]
    fn matches_reference_lru_for_all_configs() {
        let a = addrs(3000, 0x5EED_1111);
        for instrument in [false, true] {
            let mut sim = LruTreeSimulator::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                LruTreeOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a {
                sim.step(x);
            }
            let r = sim.results();
            for set_bits in 0..=5u32 {
                for assoc in [1u32, 2, 4, 8] {
                    let sets = 1 << set_bits;
                    assert_eq!(
                        r.misses(sets, assoc),
                        Some(oracle(sets, assoc, 4, &a)),
                        "sets={sets} assoc={assoc} instrument={instrument}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_and_instrumented_kernels_are_bit_identical() {
        let a = addrs(4000, 0x5EED_F00D);
        let variants = [
            LruTreeOptions {
                depth_zero_stop: false,
                duplicate_elision: false,
            },
            LruTreeOptions {
                depth_zero_stop: true,
                duplicate_elision: false,
            },
            LruTreeOptions {
                depth_zero_stop: false,
                duplicate_elision: true,
            },
            LruTreeOptions::default(),
        ];
        for o in variants {
            let mut fast = LruTreeSimulator::new(2, 0, 6, 8, o).expect("valid");
            let mut slow = LruTreeSimulator::instrumented(2, 0, 6, 8, o).expect("valid");
            for &x in &a {
                fast.step(x);
                slow.step(x);
            }
            assert_eq!(fast.results(), slow.results(), "{o:?}");
            assert_eq!(fast.counters().accesses, slow.counters().accesses);
            assert!(fast.depth_hits().is_empty());
            assert_eq!(slow.depth_hits().len(), 8);
        }
    }

    #[test]
    fn run_blocks_matches_per_record_stepping() {
        let a = addrs(3000, 0x5EED_B10C);
        let blocks: Vec<u64> = a.iter().map(|&x| x >> 2).collect();
        for instrument in [false, true] {
            let mut stepped = LruTreeSimulator::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                LruTreeOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a {
                stepped.step(x);
            }
            let mut batched = LruTreeSimulator::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                LruTreeOptions::default(),
                instrument,
            )
            .expect("valid");
            batched.run_blocks(&blocks);
            assert_eq!(stepped.results(), batched.results());
            assert_eq!(stepped.counters(), batched.counters());
        }
    }

    #[test]
    fn options_do_not_change_results() {
        let a = addrs(2000, 0x5EED_2222);
        let variants = [
            LruTreeOptions {
                depth_zero_stop: false,
                duplicate_elision: false,
            },
            LruTreeOptions {
                depth_zero_stop: true,
                duplicate_elision: false,
            },
            LruTreeOptions {
                depth_zero_stop: false,
                duplicate_elision: true,
            },
            LruTreeOptions::default(),
        ];
        let runs: Vec<AllAssocResults> = variants
            .iter()
            .map(|&o| {
                let mut sim = LruTreeSimulator::new(2, 0, 4, 4, o).expect("valid");
                for &x in &a {
                    sim.step(x);
                }
                sim.results()
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r, &runs[0]);
        }
    }

    #[test]
    fn optimisations_cut_work() {
        // A loopy trace with many consecutive duplicates.
        let mut a = Vec::new();
        for i in 0..400u64 {
            let x = (i % 5) * 4;
            a.push(x);
            a.push(x); // immediate duplicate
        }
        let run = |o: LruTreeOptions| {
            let mut sim = LruTreeSimulator::instrumented(2, 0, 6, 4, o).expect("valid");
            for &x in &a {
                sim.step(x);
            }
            *sim.counters()
        };
        let off = run(LruTreeOptions {
            depth_zero_stop: false,
            duplicate_elision: false,
        });
        let on = run(LruTreeOptions::default());
        assert!(on.node_evaluations < off.node_evaluations);
        assert!(on.tag_comparisons < off.tag_comparisons);
        assert!(on.duplicate_skips > 0);
    }

    #[test]
    fn depth_hits_histogram_tracks_stack_distances() {
        // A cyclic 3-block loop in one set: after warmup every hit has
        // stack distance 2 (the loop distance).
        let a: Vec<u64> = (0..300u64).map(|i| (i % 3) * 4).collect();
        let opts = LruTreeOptions {
            depth_zero_stop: false,
            duplicate_elision: false,
        };
        let mut sim = LruTreeSimulator::instrumented(2, 0, 0, 4, opts).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let h = sim.depth_hits();
        assert_eq!(h.len(), 4);
        assert_eq!(h[0], 0, "the loop never re-touches its MRU block");
        assert_eq!(h[1], 0);
        assert_eq!(h[2], 297, "every post-warmup access hits at depth 2");
        assert_eq!(h[3], 0);
        let total_hits: u64 = h.iter().sum();
        let misses = sim.results().misses(1, 4).expect("simulated");
        assert_eq!(total_hits + misses, a.len() as u64);
    }

    #[test]
    fn stack_property_holds_in_results() {
        let a = addrs(2500, 0x5EED_3333);
        let mut sim = LruTreeSimulator::new(2, 0, 5, 16, LruTreeOptions::default()).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let r = sim.results();
        for set_bits in 0..=5u32 {
            let sets = 1 << set_bits;
            let mut prev = u64::MAX;
            for assoc in [1u32, 2, 4, 8, 16] {
                let m = r.misses(sets, assoc).expect("simulated");
                assert!(m <= prev, "LRU misses non-increasing in associativity");
                prev = m;
            }
        }
    }

    #[test]
    fn inclusion_property_holds_in_results() {
        let a = addrs(2500, 0x5EED_4444);
        let mut sim = LruTreeSimulator::new(2, 0, 6, 4, LruTreeOptions::default()).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let r = sim.results();
        for assoc in [1u32, 2, 4] {
            let mut prev = u64::MAX;
            for set_bits in 0..=6u32 {
                let m = r.misses(1 << set_bits, assoc).expect("simulated");
                assert!(
                    m <= prev,
                    "LRU misses non-increasing in set count (inclusion)"
                );
                prev = m;
            }
        }
    }

    #[test]
    fn wide_runtime_lanes_use_the_fallback_scan() {
        // Width 32 exceeds the const-dispatch table, exercising the
        // runtime-width kernel.
        let a = addrs(2000, 0x5EED_3C3C);
        let mut sim = LruTreeSimulator::new(2, 0, 3, 32, LruTreeOptions::default()).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let r = sim.results();
        for set_bits in 0..=3u32 {
            for assoc in [1u32, 4, 32] {
                let sets = 1 << set_bits;
                assert_eq!(
                    r.misses(sets, assoc),
                    Some(oracle(sets, assoc, 4, &a)),
                    "sets={sets} assoc={assoc}"
                );
            }
        }
    }

    #[test]
    fn assoc_range_above_one_skips_narrow_reports() {
        let a = addrs(2000, 0x5EED_0404);
        let mut ranged = LruTreeSimulator::with_instrumentation(
            2,
            (0, 4),
            (2, 3),
            LruTreeOptions::default(),
            false,
        )
        .expect("valid");
        let mut full = LruTreeSimulator::new(2, 0, 4, 8, LruTreeOptions::default()).expect("valid");
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
    fn unknown_configs_return_none() {
        let sim = LruTreeSimulator::new(2, 1, 3, 4, LruTreeOptions::default()).expect("valid");
        let r = sim.results();
        assert_eq!(r.misses(1, 4), None, "below min set count");
        assert_eq!(r.misses(8, 3), None, "unsimulated associativity");
        assert_eq!(r.misses(6, 2), None, "non power-of-two sets");
    }

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        crate::arena::contract::fan_out::<LruLanes>();
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        crate::arena::contract::bad_assoc::<LruLanes>();
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        crate::arena::contract::run_sentinel::<LruLanes>(false);
    }
}
