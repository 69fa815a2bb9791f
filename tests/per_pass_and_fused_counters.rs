//! The paper's per-pass `DewTree` and the fused FIFO arena count the same
//! work. From associativity 2 up, a `DewTree` pass's counters equal the
//! fused kernel's `pass_counters` view of its narrowest list, and every
//! list's `pass_results` equals its own `DewTree`'s results. This pins that
//! the Table 3/4 counts (per-pass trees) and `dew sweep --counters` (fused
//! kernels) mean the same thing.
//!
//! Associativity 1 is the one place the two differ, by design: a `DewTree`
//! runs a one-way ladder there (wave pointer, MRE, search), while the arena
//! simulates it with the shared MRA lane alone and reports each non-stopped
//! evaluation as a one-comparison search.

use dew_core::{DewOptions, DewTree, MultiAssocTree, PassConfig, TreePolicy};
use dew_workloads::mediabench::App;

const BLOCK_BITS: u32 = 2;
const SET_BITS: (u32, u32) = (0, 8);
/// Associativities 1..=16.
const MAX_ASSOC_BITS: u32 = 4;

/// The ablation grid of the three properties, with and without duplicate
/// elision.
fn option_grid() -> Vec<DewOptions> {
    DewOptions::ablation_grid(TreePolicy::Fifo)
        .into_iter()
        .flat_map(|o| {
            [
                o,
                DewOptions {
                    dup_elision: true,
                    ..o
                },
            ]
        })
        .collect()
}

#[test]
fn per_pass_counters_equal_the_fused_narrowest_list() {
    let trace = App::JpegEncode.generate(3_000, 3);
    let blocks: Vec<u64> = trace
        .records()
        .iter()
        .map(|r| r.addr >> BLOCK_BITS)
        .collect();
    for opts in option_grid() {
        for instrument in [false, true] {
            let trees: Vec<DewTree> = (0..=MAX_ASSOC_BITS)
                .map(|k| {
                    let pass = PassConfig::new(BLOCK_BITS, SET_BITS.0, SET_BITS.1, 1 << k)
                        .expect("valid pass");
                    let mut tree =
                        DewTree::with_instrumentation(pass, opts, instrument).expect("sound");
                    tree.run_blocks(&blocks);
                    tree
                })
                .collect();
            for lo in 0..=MAX_ASSOC_BITS {
                for hi in lo..=MAX_ASSOC_BITS {
                    let mut fused = MultiAssocTree::with_instrumentation(
                        BLOCK_BITS,
                        SET_BITS,
                        (lo, hi),
                        opts,
                        instrument,
                    )
                    .expect("valid");
                    fused.run_blocks(&blocks);
                    let case = format!("{opts} instrument={instrument} lists {lo}..={hi}");
                    for k in lo..=hi {
                        assert_eq!(
                            fused.pass_results(1 << k),
                            Some(trees[k as usize].results()),
                            "{case}: results at assoc {}",
                            1 << k
                        );
                    }
                    let narrowest = fused.pass_counters(1 << lo).expect("simulated");
                    let own = trees[lo as usize].counters();
                    if lo == 0 && instrument {
                        assert_ne!(&narrowest, own, "{case}: assoc 1 is counted differently");
                        assert!(narrowest.is_consistent() && own.is_consistent(), "{case}");
                    } else {
                        assert_eq!(&narrowest, own, "{case}");
                    }
                }
            }
        }
    }
}
