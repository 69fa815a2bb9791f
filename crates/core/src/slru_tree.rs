//! Single-pass multi-configuration **segmented-LRU** (SLRU) simulation on
//! the fused arena, under the same one-traversal-per-block-size contract as
//! the FIFO, LRU and tree-PLRU kernels.
//!
//! # A policy is a lane layout plus an update rule
//!
//! SLRU splits each set into a protected segment (capacity `assoc / 2`) and
//! a probationary segment. Misses insert at the probationary MRU position; a
//! probationary hit promotes the block to the protected MRU, demoting the
//! protected LRU block to probationary MRU when the protected segment is
//! full; victims are always the probationary LRU block. Like LRU (and unlike
//! FIFO) a hit mutates set state, so no early termination of the walk is
//! sound; unlike LRU there is no stack property (a promotion reorders blocks
//! non-monotonically across associativities), so each associativity gets its
//! own lane: an ordered tag region `[protected MRU→LRU | probationary
//! MRU→LRU | invalid]` plus a protected-length scalar. What carries over:
//!
//! * the shared **MRA lane** (direct-mapped results and the per-level hit
//!   short-circuit — sound under any policy);
//! * an MRA-match fast path in the spirit of the wave pointers: the MRA
//!   block sits either at the protected MRU slot (then the re-hit is a
//!   no-op) or at the probationary MRU slot (then it promotes with one
//!   bounded rotate) — no tag search either way.
//!
//! Duplicate elision is **not** sound under SLRU — a repeated access
//! promotes a probationary block — so this kernel has no elision option and
//! [`crate::DewOptions::validate`] rejects the flag for the policy.
//!
//! Within one lane the update rule matches the reference semantics of
//! `dew_cachesim`'s set (`crates/cachesim/src/set.rs`), which models the
//! segments with a per-way protected flag and access stamps; here the
//! segment order is held explicitly so hits and inserts are bounded rotates,
//! exactly like the LRU kernel's recency regions.
//!
//! # Examples
//!
//! ```
//! use dew_core::slru_tree::SlruTreeSimulator;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Sets 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let mut sim = SlruTreeSimulator::new(2, 0, 3, 4, ())?;
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

/// Exact single-pass SLRU simulator for all set counts in a range and all
/// power-of-two associativities in a range: the [`Arena`] with SLRU lanes.
/// SLRU has no toggles, so its options are `()`. See the module docs.
pub type SlruTreeSimulator = Arena<SlruLanes>;

/// Work counters of the SLRU simulator (instrumented kernel only; the fast
/// kernel maintains just the request tally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlruTreeCounters {
    /// Requests simulated.
    pub accesses: u64,
    /// Tree nodes visited.
    pub node_evaluations: u64,
    /// Evaluations settled by the MRA comparison (a hit in every lane; the
    /// walk continues, but every lane updates by position, without a
    /// search).
    pub mra_hits: u64,
    /// Tag comparisons performed (the MRA comparison of each node evaluation
    /// plus the per-lane searches below it).
    pub tag_comparisons: u64,
}

impl fmt::Display for SlruTreeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} evaluations, {} MRA hits, {} comparisons",
            self.accesses, self.node_evaluations, self.mra_hits, self.tag_comparisons
        )
    }
}

/// The SLRU lanes: every associativity above 1 owns an ordered region of
/// the arena's tag lane, `[protected MRU→LRU | probationary MRU→LRU |
/// sentinel…]`, plus the protected-segment length kept here.
#[derive(Debug, Clone)]
pub struct SlruLanes {
    /// Protected-segment length per `(node, lane)`; never exceeds half the
    /// lane width.
    prot_len: Vec<u32>,
    counters: SlruTreeCounters,
    /// Search comparisons per lane; instrumented only.
    lane_comparisons: Vec<u64>,
}

impl LanePolicy for SlruLanes {
    const MAGIC: [u8; 4] = *b"DEWU";
    type Options = ();
    type Counters = SlruTreeCounters;

    fn options(_: DewOptions) {}

    fn new((): (), instrument: bool, nodes: usize, widths: &[usize], _: usize) -> Self {
        SlruLanes {
            prot_len: vec![0; nodes * widths.len()],
            counters: SlruTreeCounters::default(),
            lane_comparisons: if instrument {
                vec![0; widths.len()]
            } else {
                Vec::new()
            },
        }
    }

    #[inline(always)]
    fn run<S: TagScan>(arena: &mut Arena<Self>, scan: S, blocks: &[u64]) {
        arena.drive(blocks, |a, b| kernel(a, scan, b));
    }

    fn counters(&self) -> &SlruTreeCounters {
        &self.counters
    }

    fn accesses(&self) -> u64 {
        self.counters.accesses
    }

    /// Mirrors the tree-PLRU fan-out: MRA hits settle a node without a
    /// search and map onto the `mra_stops` bucket, every other evaluation
    /// is a search in this lane, and per-lane search comparisons are
    /// tracked separately.
    fn pass_counters(&self, lane: Option<usize>) -> DewCounters {
        let c = &self.counters;
        let searches = c.node_evaluations - c.mra_hits;
        // Associativity 1: the MRA mismatch *is* the decision.
        let search_comparisons = lane.map_or(searches, |k| self.lane_comparisons[k]);
        DewCounters {
            accesses: c.accesses,
            node_evaluations: c.node_evaluations,
            mra_stops: c.mra_hits,
            searches,
            search_comparisons,
            tag_comparisons: c.node_evaluations + search_comparisons,
            ..DewCounters::new()
        }
    }

    fn lane_bytes(&self) -> usize {
        self.prot_len.len() * 4
    }

    fn flags(&self, instrument: bool) -> u8 {
        u8::from(instrument)
    }

    fn from_flags(flags: u8) -> ((), bool) {
        ((), flags != 0)
    }

    fn write_head(&self, out: &mut Vec<u8>) {
        let c = &self.counters;
        put_u64s(
            out,
            &[
                c.accesses,
                c.node_evaluations,
                c.mra_hits,
                c.tag_comparisons,
            ],
        );
        put_u64s(out, &self.lane_comparisons);
    }

    fn read_head(&mut self, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let c = &mut self.counters;
        read_u64s(
            cur,
            [
                &mut c.accesses,
                &mut c.node_evaluations,
                &mut c.mra_hits,
                &mut c.tag_comparisons,
            ],
        )?;
        read_u64s(cur, &mut self.lane_comparisons)
    }

    fn write_tail(arena: &Arena<Self>, out: &mut Vec<u8>) {
        put_u32s(out, &arena.lanes.prot_len);
    }

    fn read_tail(arena: &mut Arena<Self>, cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
        let widths = &arena.widths;
        read_u32s(cur, &mut arena.lanes.prot_len)?;
        within(
            &arena.lanes.prot_len,
            "protected length out of range",
            |i, v| v as usize <= widths[i % widths.len()] / 2,
        )
    }
}

/// The kernel. Per level: one MRA comparison settles the direct-mapped
/// result. On a match the block sits at a known position in every lane —
/// the protected MRU slot (re-hit is a no-op) or the probationary MRU slot
/// (one rotate promotes it) — so no lane searches. On a mismatch each lane
/// searches its valid prefix: a hit rotates the block to the protected or
/// segment front (growing the protected segment on a probationary hit,
/// demoting the protected LRU when it is full, both by the same rotate); a
/// miss inserts at the probationary MRU slot, evicting the probationary LRU
/// block when the lane is full.
///
/// `S` is the tag-scan backend the wide compares run on ([`TagScan`]).
fn kernel<S: TagScan>(a: &mut Arena<SlruLanes>, scan: S, block: u64) {
    let l = &mut a.lanes;
    l.counters.accesses += 1;
    let nk = a.widths.len();
    let stride = a.pstride;
    for li in 0..a.set_mask.len() {
        let node = a.node_off[li] + (block & a.set_mask[li]) as usize;
        if a.instrument {
            l.counters.node_evaluations += 1;
            l.counters.tag_comparisons += 1;
        }
        let region_base = node * stride;
        if a.mra[node] == block {
            if a.instrument {
                l.counters.mra_hits += 1;
            }
            for (k, (&w, &off)) in a.widths.iter().zip(&a.lane_off).enumerate() {
                let cap = w / 2;
                let lane = &mut a.tags[region_base + off..region_base + off + w];
                let prot = &mut l.prot_len[node * nk + k];
                let p = *prot as usize;
                // The MRA block is the protected MRU (previous access was a
                // hit that promoted or refreshed it) or the probationary MRU
                // at index `prot_len` (previous access inserted it);
                // `prot_len == 0` makes the two slots coincide and the
                // access is a probationary hit.
                if p == 0 || lane[0] != block {
                    debug_assert_eq!(lane[p], block);
                    lane[..=p].rotate_right(1);
                    if p < cap {
                        *prot += 1;
                    }
                }
            }
            continue;
        }
        a.dm_misses[li] += 1;
        a.mra[node] = block;
        for (k, (&w, &off)) in a.widths.iter().zip(&a.lane_off).enumerate() {
            let cap = w / 2;
            let lane = &mut a.tags[region_base + off..region_base + off + w];
            let prot = &mut l.prot_len[node * nk + k];
            let p = *prot as usize;
            // One wide scan finds the block or, failing that, the end of the
            // valid prefix (inserts keep valid tags contiguous). The
            // comparison tallies are derived arithmetically — a hit at depth
            // `i` would have inspected `i + 1` valid tags, a miss the whole
            // valid prefix — so the instrumented counters stay bit-identical
            // to the sequential scalar scan's.
            let (hit, valid_len) = match lane_scan(scan, lane, block, INVALID_TAG) {
                LaneScan::Hit(i) => (Some(i), w),
                LaneScan::Miss { valid_len } => (None, valid_len),
            };
            if a.instrument {
                let spent = match hit {
                    Some(i) => i as u64 + 1,
                    None => valid_len as u64,
                };
                l.lane_comparisons[k] += spent;
                l.counters.tag_comparisons += spent;
            }
            match hit {
                Some(d) => {
                    // Protected hit (d < prot_len): refresh within the
                    // protected segment. Probationary hit: the same rotate
                    // promotes the block to protected MRU and, when the
                    // protected segment is full, wraps its LRU block to
                    // index `prot_len` — the probationary MRU — demoting it.
                    lane[..=d].rotate_right(1);
                    if d >= p && p < cap {
                        *prot += 1;
                    }
                }
                None => {
                    a.misses[li * nk.max(1) + k] += 1;
                    // Insert at the probationary MRU slot. Not full: the
                    // invalid way at `valid_len` wraps around and is
                    // overwritten. Full: the probationary LRU block at
                    // `w - 1` wraps around and is overwritten — the victim
                    // (the probationary segment is nonempty when the lane is
                    // full, since `prot_len <= w / 2 < w`).
                    let end = valid_len.min(w - 1);
                    lane[p..=end].rotate_right(1);
                    lane[p] = block;
                }
            }
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
            CacheConfig::new(sets, assoc, block, Replacement::Slru).expect("valid"),
            &records,
        )
        .misses()
    }

    #[test]
    fn matches_reference_slru_for_all_configs() {
        let a = addrs(3000, 0x5EED_7001);
        for instrument in [false, true] {
            let mut sim =
                SlruTreeSimulator::with_instrumentation(2, (0, 5), (0, 3), (), instrument)
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
    fn repeated_accesses_promote_and_resist_scans() {
        // Two re-hit blocks survive a long one-shot scan: the protected
        // segment shields them, which plain LRU would not.
        let mut hot = vec![0u64, 64, 0, 64];
        for i in 0..64u64 {
            hot.push(4096 + i * 64); // one-shot scan, same set count rollover
        }
        hot.push(0);
        hot.push(64);
        let sets = 1u32;
        let assoc = 4u32;
        let slru = oracle(sets, assoc, 64, &hot);
        let records: Vec<Record> = hot.iter().map(|&a| Record::read(a)).collect();
        let lru = simulate_trace(
            CacheConfig::new(sets, assoc, 64, Replacement::Lru).expect("valid"),
            &records,
        )
        .misses();
        assert!(slru < lru, "slru={slru} lru={lru}");
        let mut sim = SlruTreeSimulator::new(6, 0, 0, 4, ()).expect("valid");
        for &x in &hot {
            sim.step(x);
        }
        assert_eq!(sim.results().misses(1, 4), Some(slru));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let a = addrs(2000, 0x5EED_7004);
        for instrument in [false, true] {
            let mut sim =
                SlruTreeSimulator::with_instrumentation(2, (0, 4), (1, 3), (), instrument)
                    .expect("valid");
            for &x in &a[..1000] {
                sim.step(x);
            }
            let mut restored =
                SlruTreeSimulator::from_snapshot(&sim.to_snapshot()).expect("round trip");
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
        let plru = crate::plru_tree::PlruTreeSimulator::new(
            2,
            0,
            2,
            2,
            crate::plru_tree::PlruTreeOptions::default(),
        )
        .expect("valid");
        match SlruTreeSimulator::from_snapshot(&plru.to_snapshot()) {
            Err(SnapshotError::PolicyMismatch { expected, found }) => {
                assert_eq!(expected, crate::arena::magic(TreePolicy::Slru));
                assert_eq!(found, crate::arena::magic(TreePolicy::Plru));
            }
            other => panic!("expected PolicyMismatch, got {other:?}"),
        }
        assert!(matches!(
            SlruTreeSimulator::from_snapshot(b"JUNKrest"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        crate::arena::contract::fan_out::<SlruLanes>();
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        crate::arena::contract::bad_assoc::<SlruLanes>();
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        crate::arena::contract::run_sentinel::<SlruLanes>(false);
    }
}
