//! Single-pass multi-configuration **tree-PLRU** simulation on the fused
//! arena: the policy real embedded L1s ship, running under the same
//! one-traversal-per-block-size contract as [`crate::MultiAssocTree`] (FIFO)
//! and [`crate::lru_tree::LruTreeSimulator`] (LRU).
//!
//! # A policy is a lane layout plus an update rule
//!
//! Tree-PLRU has neither FIFO's "blocks never move" invariant in a form that
//! admits intersection links, nor LRU's stack property — a PLRU hit *mutates*
//! per-set state (the direction bits), and a hit at associativity `A` says
//! nothing exact about associativity `2A`. So the PLRU lane layout is the
//! honest one: per `(node, associativity)` lane, a way-tag region plus one
//! word of direction bits, all updated in the same shared walk. What *does*
//! carry over from the paper's machinery:
//!
//! * the **MRA lane** is policy-agnostic (Property 2's precondition — the
//!   most recently accessed block of a set is resident at every
//!   associativity — holds under any policy), so the direct-mapped results
//!   and the per-level hit short-circuit are shared. The early *termination*
//!   is not: stopping the walk would leave direction bits stale below, so
//!   like LRU the walk always visits every level ([`crate::DewOptions::validate`]);
//! * a per-lane **MRA way pointer** (the wave-pointer idea, Property 3,
//!   re-aimed): PLRU never moves a resident block between ways, so the way
//!   the MRA block occupied last time is where it still is — an MRA match
//!   re-touches the direction bits without any tag search;
//! * **duplicate elision** stays sound: touching the same way twice is
//!   idempotent on the direction bits.
//!
//! Within one lane the update rule is exactly the reference semantics of
//! `dew_cachesim`'s set (`crates/cachesim/src/set.rs`): victims follow the
//! direction bits root-to-leaf, touches point every bit on the way's path
//! away from it, and invalid ways fill in physical order first.
//!
//! # Examples
//!
//! ```
//! use dew_core::plru_tree::{PlruTreeOptions, PlruTreeSimulator};
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Sets 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let mut sim = PlruTreeSimulator::new(2, 0, 3, 4, PlruTreeOptions::default())?;
//! for i in 0..100u64 {
//!     sim.step((i % 40) * 4);
//! }
//! assert_eq!(sim.assoc_list(), &[1, 2, 4]);
//! assert!(sim.results().misses(8, 4).is_some());
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::arena::{put_u32s, put_u64s, read_u32s, read_u64s, within, Arena, LanePolicy};
use crate::counters::DewCounters;
use crate::node::INVALID_TAG;
use crate::options::DewOptions;
use crate::simd::{lane_scan, LaneScan, TagScan};
use crate::snapshot::{Cursor, SnapshotError};
use crate::space::DewError;

/// Exact single-pass tree-PLRU simulator for all set counts in a range and
/// all power-of-two associativities in a range: the [`Arena`] with
/// tree-PLRU lanes. See the module docs.
pub type PlruTreeSimulator = Arena<PlruLanes>;

/// Widest PLRU lane supported: the direction bits of one lane live in a
/// single `u64` heap (matching `dew_cachesim`'s `MAX_PLRU_ASSOC`).
pub const MAX_PLRU_ASSOC: u32 = 64;

/// Behaviour toggles of the tree-PLRU simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlruTreeOptions {
    /// CRCB-style elision: a request to the same block as the immediately
    /// preceding request hits at depth 0 everywhere, and re-touching the same
    /// way is idempotent on the direction bits, so the request can be skipped
    /// whole. Defaults to on.
    pub duplicate_elision: bool,
}

impl Default for PlruTreeOptions {
    fn default() -> Self {
        PlruTreeOptions {
            duplicate_elision: true,
        }
    }
}

/// Work counters of the tree-PLRU simulator (instrumented kernel only; the
/// fast kernel maintains just the request-level tallies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlruTreeCounters {
    /// Requests simulated (skipped duplicates included).
    pub accesses: u64,
    /// Tree nodes visited.
    pub node_evaluations: u64,
    /// Evaluations settled by the MRA comparison (a hit in every lane; the
    /// walk continues — unlike FIFO there is no early termination — but no
    /// lane needs a tag search, only a way-pointer re-touch).
    pub mra_hits: u64,
    /// Requests elided as consecutive duplicates.
    pub duplicate_skips: u64,
    /// Tag comparisons performed (the MRA comparison of each node evaluation
    /// plus the per-lane searches below it).
    pub tag_comparisons: u64,
}

impl fmt::Display for PlruTreeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} evaluations, {} MRA hits, {} duplicate skips, {} comparisons",
            self.accesses,
            self.node_evaluations,
            self.mra_hits,
            self.duplicate_skips,
            self.tag_comparisons
        )
    }
}

/// The tree-PLRU lanes: every associativity above 1 owns a way-tag region
/// of the arena's tag lane (valid tags always a prefix: ways fill in
/// physical order), plus the per-`(node, lane)` direction bits and MRA way
/// pointer kept here.
#[derive(Debug, Clone)]
pub struct PlruLanes {
    opts: PlruTreeOptions,
    /// Direction bits per `(node, lane)`, heap-indexed with the root at
    /// bit 1 (the reference layout of `dew_cachesim`'s set).
    bits: Vec<u64>,
    /// Way index of the MRA block per `(node, lane)`: resident blocks never
    /// move between ways, so an MRA match re-touches this way directly.
    mra_way: Vec<u32>,
    counters: PlruTreeCounters,
    /// Search comparisons per lane; instrumented only.
    lane_comparisons: Vec<u64>,
    /// Block of the previous request, for the CRCB-style elision.
    prev_block: u64,
}

/// Follows the direction bits of one lane from the root to the pseudo-LRU
/// way (`dew_cachesim`'s `plru_victim`, on an external bit word).
#[inline]
fn plru_victim(bits: u64, assoc: usize) -> usize {
    let levels = assoc.trailing_zeros();
    let mut idx = 1usize;
    for _ in 0..levels {
        let bit = (bits >> idx) & 1;
        idx = 2 * idx + bit as usize;
    }
    idx - assoc
}

/// Points every direction bit on the path to `way` *away* from it
/// (`dew_cachesim`'s `plru_touch`, on an external bit word).
#[inline]
fn plru_touch(bits: &mut u64, way: usize, assoc: usize) {
    let levels = assoc.trailing_zeros();
    let mut idx = 1usize;
    for level in (0..levels).rev() {
        let dir = (way >> level) & 1;
        if dir == 0 {
            *bits |= 1 << idx;
        } else {
            *bits &= !(1 << idx);
        }
        idx = 2 * idx + dir;
    }
}

impl LanePolicy for PlruLanes {
    const MAGIC: [u8; 4] = *b"DEWP";
    type Options = PlruTreeOptions;
    type Counters = PlruTreeCounters;

    fn options(options: DewOptions) -> PlruTreeOptions {
        PlruTreeOptions {
            duplicate_elision: options.dup_elision,
        }
    }

    /// The direction bits of one lane live in one `u64`: lanes wider than
    /// [`MAX_PLRU_ASSOC`] are [`DewError::BadAssoc`].
    fn check(_: PlruTreeOptions, assoc_bits: (u32, u32)) -> Result<(), DewError> {
        if assoc_bits.1 > MAX_PLRU_ASSOC.trailing_zeros() {
            return Err(DewError::BadAssoc(
                1u32.checked_shl(assoc_bits.1).unwrap_or(u32::MAX),
            ));
        }
        Ok(())
    }

    fn new(
        opts: PlruTreeOptions,
        instrument: bool,
        nodes: usize,
        widths: &[usize],
        _: usize,
    ) -> Self {
        PlruLanes {
            opts,
            bits: vec![0; nodes * widths.len()],
            mra_way: vec![0; nodes * widths.len()],
            counters: PlruTreeCounters::default(),
            lane_comparisons: if instrument {
                vec![0; widths.len()]
            } else {
                Vec::new()
            },
            prev_block: INVALID_TAG,
        }
    }

    #[inline(always)]
    fn run<S: TagScan>(arena: &mut Arena<Self>, scan: S, blocks: &[u64]) {
        arena.drive(blocks, |a, b| kernel(a, scan, b));
    }

    fn counters(&self) -> &PlruTreeCounters {
        &self.counters
    }

    fn accesses(&self) -> u64 {
        self.counters.accesses
    }

    fn duplicate_skips(&self) -> u64 {
        self.counters.duplicate_skips
    }

    /// The walk is shared, so the evaluation-level quantities are shared
    /// verbatim; an MRA hit settles the node without a search (the way
    /// pointer re-touch is free of tag comparisons) and maps onto the
    /// `mra_stops` bucket, every other evaluation is a search in this lane.
    /// Per-lane search comparisons are tracked separately so each view
    /// reports its own lane's work.
    fn pass_counters(&self, lane: Option<usize>) -> DewCounters {
        let c = &self.counters;
        let searches = c.node_evaluations - c.mra_hits;
        // Associativity 1: the MRA mismatch *is* the decision, mirroring
        // the FIFO fan-out's direct-mapped accounting.
        let search_comparisons = lane.map_or(searches, |k| self.lane_comparisons[k]);
        DewCounters {
            accesses: c.accesses,
            duplicate_skips: c.duplicate_skips,
            node_evaluations: c.node_evaluations,
            mra_stops: c.mra_hits,
            searches,
            search_comparisons,
            tag_comparisons: c.node_evaluations + search_comparisons,
            ..DewCounters::new()
        }
    }

    fn lane_bytes(&self) -> usize {
        self.bits.len() * 8 + self.mra_way.len() * 4
    }

    fn flags(&self, instrument: bool) -> u8 {
        u8::from(self.opts.duplicate_elision) | u8::from(instrument) << 1
    }

    fn from_flags(flags: u8) -> (PlruTreeOptions, bool) {
        let opts = PlruTreeOptions {
            duplicate_elision: flags & 1 != 0,
        };
        (opts, flags & 2 != 0)
    }

    fn write_head(&self, out: &mut Vec<u8>) {
        let c = &self.counters;
        put_u64s(
            out,
            &[
                c.accesses,
                c.node_evaluations,
                c.mra_hits,
                c.duplicate_skips,
                c.tag_comparisons,
            ],
        );
        put_u64s(out, self.lane_comparisons.iter().chain([&self.prev_block]));
    }

    fn read_head(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let c = &mut self.counters;
        read_u64s(
            cur,
            [
                &mut c.accesses,
                &mut c.node_evaluations,
                &mut c.mra_hits,
                &mut c.duplicate_skips,
                &mut c.tag_comparisons,
            ],
        )?;
        read_u64s(
            cur,
            self.lane_comparisons
                .iter_mut()
                .chain([&mut self.prev_block]),
        )
    }

    fn write_tail(arena: &Arena<Self>, out: &mut Vec<u8>) {
        put_u64s(out, &arena.lanes.bits);
        put_u32s(out, &arena.lanes.mra_way);
    }

    fn read_tail(arena: &mut Arena<Self>, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let widths = &arena.widths;
        read_u64s(cur, &mut arena.lanes.bits)?;
        read_u32s(cur, &mut arena.lanes.mra_way)?;
        within(&arena.lanes.mra_way, "way pointer out of range", |i, v| {
            (v as usize) < widths[i % widths.len()]
        })
    }
}

/// The kernel. Per level: one MRA comparison settles the direct-mapped
/// result; on a match every lane re-touches its MRA way pointer (no
/// searches, no misses anywhere — but no early termination either, the
/// direction bits of deeper levels still need the touch). On a mismatch
/// each lane searches its valid prefix, touching the hit way or inserting
/// at the first invalid way / the direction-bit victim.
///
/// `S` is the tag-scan backend the wide compares run on ([`TagScan`]).
fn kernel<S: TagScan>(a: &mut Arena<PlruLanes>, scan: S, block: u64) {
    let l = &mut a.lanes;
    l.counters.accesses += 1;
    if l.opts.duplicate_elision {
        if block == l.prev_block {
            // The block is the MRA entry of every set on its path, and
            // re-touching the same way is idempotent on the bits.
            l.counters.duplicate_skips += 1;
            return;
        }
        l.prev_block = block;
    }
    let nk = a.widths.len();
    let stride = a.pstride;
    for li in 0..a.set_mask.len() {
        let node = a.node_off[li] + (block & a.set_mask[li]) as usize;
        if a.instrument {
            l.counters.node_evaluations += 1;
            l.counters.tag_comparisons += 1;
        }
        if a.mra[node] == block {
            if a.instrument {
                l.counters.mra_hits += 1;
            }
            // Hit in every lane; the way pointer spares the search, the
            // touch is mandatory.
            for (k, &w) in a.widths.iter().enumerate() {
                plru_touch(
                    &mut l.bits[node * nk + k],
                    l.mra_way[node * nk + k] as usize,
                    w,
                );
            }
            continue;
        }
        a.dm_misses[li] += 1;
        a.mra[node] = block;
        let region = &mut a.tags[node * stride..(node + 1) * stride];
        for (k, (&w, &off)) in a.widths.iter().zip(&a.lane_off).enumerate() {
            let lane = &mut region[off..off + w];
            // One wide scan finds the block or, failing that, the first
            // invalid way (valid tags are a prefix: ways fill in physical
            // order and evictions overwrite in place). The comparison
            // tallies are derived arithmetically — a hit at depth `i` would
            // have inspected `i + 1` valid tags, a miss the whole valid
            // prefix — so the instrumented counters stay bit-identical to
            // the sequential scalar scan's.
            let (hit, first_invalid) = match lane_scan(scan, lane, block, INVALID_TAG) {
                LaneScan::Hit(i) => (Some(i), w),
                LaneScan::Miss { valid_len } => (None, valid_len),
            };
            if a.instrument {
                let spent = match hit {
                    Some(i) => i as u64 + 1,
                    None => first_invalid as u64,
                };
                l.lane_comparisons[k] += spent;
                l.counters.tag_comparisons += spent;
            }
            let bits = &mut l.bits[node * nk + k];
            let way = match hit {
                Some(i) => i,
                None => {
                    a.misses[li * nk.max(1) + k] += 1;
                    let victim = if first_invalid < w {
                        first_invalid
                    } else {
                        plru_victim(*bits, w)
                    };
                    lane[victim] = block;
                    victim
                }
            };
            plru_touch(bits, way, w);
            l.mra_way[node * nk + k] = way as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TreePolicy;
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
            CacheConfig::new(sets, assoc, block, Replacement::Plru).expect("valid"),
            &records,
        )
        .misses()
    }

    #[test]
    fn matches_reference_plru_for_all_configs() {
        let a = addrs(3000, 0x5EED_6001);
        for instrument in [false, true] {
            let mut sim = PlruTreeSimulator::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                PlruTreeOptions::default(),
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
    fn duplicate_elision_does_not_change_results() {
        let mut a = addrs(1500, 0x5EED_6002);
        // Salt the trace with consecutive duplicates.
        let mut salted = Vec::with_capacity(a.len() * 2);
        for (i, &x) in a.iter().enumerate() {
            salted.push(x);
            if i % 3 == 0 {
                salted.push(x);
            }
        }
        a = salted;
        let run = |elide: bool| {
            let mut sim = PlruTreeSimulator::new(
                2,
                0,
                4,
                8,
                PlruTreeOptions {
                    duplicate_elision: elide,
                },
            )
            .expect("valid");
            for &x in &a {
                sim.step(x);
            }
            sim.results()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let a = addrs(2000, 0x5EED_6004);
        for instrument in [false, true] {
            let mut sim = PlruTreeSimulator::with_instrumentation(
                2,
                (0, 4),
                (1, 3),
                PlruTreeOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a[..1000] {
                sim.step(x);
            }
            let mut restored =
                PlruTreeSimulator::from_snapshot(&sim.to_snapshot()).expect("round trip");
            for &x in &a[1000..] {
                sim.step(x);
                restored.step(x);
            }
            assert_eq!(sim.results(), restored.results());
            assert_eq!(sim.counters(), restored.counters());
            assert_eq!(sim.to_snapshot(), restored.to_snapshot());
        }
    }

    #[test]
    fn foreign_magic_is_a_policy_mismatch() {
        use crate::snapshot::SnapshotError;
        let lru = crate::lru_tree::LruTreeSimulator::new(
            2,
            0,
            2,
            2,
            crate::lru_tree::LruTreeOptions::default(),
        )
        .expect("valid");
        match PlruTreeSimulator::from_snapshot(&lru.to_snapshot()) {
            Err(SnapshotError::PolicyMismatch { expected, found }) => {
                assert_eq!(expected, crate::arena::magic(TreePolicy::Plru));
                assert_eq!(found, crate::arena::magic(TreePolicy::Lru));
            }
            other => panic!("expected PolicyMismatch, got {other:?}"),
        }
        assert!(matches!(
            PlruTreeSimulator::from_snapshot(b"JUNKrest"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wide_lanes_are_bounded() {
        assert!(matches!(
            PlruTreeSimulator::new(2, 0, 2, 128, PlruTreeOptions::default()),
            Err(DewError::BadAssoc(128))
        ));
        assert!(PlruTreeSimulator::new(2, 0, 2, 64, PlruTreeOptions::default()).is_ok());
    }

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        crate::arena::contract::fan_out::<PlruLanes>();
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        crate::arena::contract::bad_assoc::<PlruLanes>();
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        crate::arena::contract::run_sentinel::<PlruLanes>(false);
    }
}
