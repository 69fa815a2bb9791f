//! Output checks against the `dew-cachesim` reference simulator.
//!
//! Every run compares a fixed sample of configurations with the oracle,
//! outside the timed region: each block size at the four (sets, assoc)
//! corners and the middle point, plus every associativity at the middle
//! set count and block size.

use std::collections::HashMap;

use dew_cachesim::{Cache, CacheConfig, Replacement};
use dew_core::{ConfigSpace, SweepOutcome, TreePolicy};
use dew_trace::Record;

/// One configuration: `(sets, assoc, block bytes)`.
pub type Config = (u32, u32, u32);

/// A configuration under a policy: `(policy, sets, assoc, block bytes)`.
pub type Key = (TreePolicy, u32, u32, u32);

/// Miss counts per configuration and policy.
pub type Misses = HashMap<Key, u64>;

/// Adds every configuration of `outcome` to `into`.
pub fn add_outcome(outcome: &SweepOutcome, into: &mut Misses) {
    for c in outcome.iter() {
        into.insert((outcome.policy(), c.sets, c.assoc, c.block_bytes), c.misses);
    }
}

/// The fixed oracle sample of `space` (see the module docs).
#[must_use]
pub fn sample(space: &ConfigSpace) -> Vec<Config> {
    let (s0, s1) = space.set_bits();
    let (b0, b1) = space.block_bits();
    let (a0, a1) = space.assoc_bits();
    let (sm, am, bm) = ((s0 + s1) / 2, (a0 + a1) / 2, (b0 + b1) / 2);
    let mut out: Vec<Config> = Vec::new();
    for b in b0..=b1 {
        for (s, a) in [(s0, a0), (s0, a1), (s1, a0), (s1, a1), (sm, am)] {
            out.push((1 << s, 1 << a, 1 << b));
        }
    }
    for a in a0..=a1 {
        out.push((1 << sm, 1 << a, 1 << bm));
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn replacement(policy: TreePolicy) -> Replacement {
    match policy {
        TreePolicy::Fifo => Replacement::Fifo,
        TreePolicy::Lru => Replacement::Lru,
        TreePolicy::Plru => Replacement::Plru,
        TreePolicy::Slru => Replacement::Slru,
    }
}

/// Reference miss counts of `configs` under `policy`, from one pass over
/// `records` that feeds every sampled cache.
pub fn oracle(
    configs: &[Config],
    policy: TreePolicy,
    records: impl IntoIterator<Item = Record>,
) -> Vec<u64> {
    let mut caches: Vec<Cache> = configs
        .iter()
        .map(|&(sets, assoc, block)| {
            let config = CacheConfig::new(sets, assoc, block, replacement(policy))
                .expect("sampled configurations lie in a valid space");
            Cache::new(config)
        })
        .collect();
    for record in records {
        for cache in &mut caches {
            cache.access(record);
        }
    }
    caches.iter().map(|c| c.stats().misses()).collect()
}

/// One message per sampled configuration whose miss count in `got`
/// differs from the oracle's `expected`.
#[must_use]
pub fn compare(
    label: &str,
    policy: TreePolicy,
    configs: &[Config],
    expected: &[u64],
    got: &Misses,
) -> Vec<String> {
    configs
        .iter()
        .zip(expected)
        .filter_map(|(&(sets, assoc, block), &want)| {
            let have = got.get(&(policy, sets, assoc, block)).copied();
            (have != Some(want)).then(|| {
                format!(
                    "{label}: {policy} sets={sets} assoc={assoc} block={block}: \
                     oracle {want} misses, got {have:?}"
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_covers_every_block_size_and_the_corners() {
        let space = ConfigSpace::paper();
        let s = sample(&space);
        for b in 0..=6 {
            assert!(s.iter().any(|c| c.2 == 1 << b), "block {}", 1 << b);
        }
        for corner in [(1, 1, 1), (1 << 14, 16, 64), (1, 16, 1), (1 << 14, 1, 64)] {
            assert!(s.contains(&corner), "{corner:?}");
        }
        for a in 0..=4 {
            assert!(s.contains(&(1 << 7, 1 << a, 8)));
        }
    }
}
