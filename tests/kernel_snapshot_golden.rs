//! Golden snapshot bytes of every fused policy kernel.
//!
//! One fixed block trace is driven through `FusedKernel::build` for all
//! four policies, fast and instrumented, over three geometries: a range
//! starting at direct-mapped, a range starting above associativity 1 (whose
//! FIFO way lane is padded in memory but not on disk), and a direct-mapped
//! only forest. The hex of each `to_snapshot()` is compared line for line
//! against `tests/golden/kernel_snapshots.txt`, so any change to a kernel's
//! byte format — or to the state it reaches — fails here.
//!
//! On a mismatch the full actual rendering is printed to stderr, so an
//! intended format change can be reviewed and copied into the golden file.

use std::fmt::Write as _;

use dew_core::{DewOptions, FusedKernel, PolicyKernel, TreePolicy};

const GOLDEN: &str = include_str!("golden/kernel_snapshots.txt");

/// `(block_bits, set_bits, assoc_bits)` of one kernel geometry.
type Geometry = (u32, (u32, u32), (u32, u32));

/// The pinned geometries.
const GEOMETRIES: [Geometry; 3] = [
    (2, (0, 2), (0, 2)),
    (3, (1, 3), (2, 3)),
    (2, (0, 2), (0, 0)),
];

/// Hex characters per wrapped line of a rendered snapshot.
const HEX_WIDTH: usize = 128;

/// A deterministic block stream: a hot set (re-hits at every depth),
/// consecutive duplicates, a medium set (evictions) and a cold scan.
fn blocks() -> Vec<u64> {
    let mut x = 0x0DDB_1A5E_5BAD_5EEDu64;
    let mut out = Vec::new();
    for i in 0..400u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = x >> 33;
        let b = match i % 5 {
            0 | 1 => r % 12,
            2 => r % 70,
            3 => 1000 + i,
            _ => r % 5,
        };
        out.push(b);
        if i % 9 == 0 {
            out.push(b);
        }
    }
    out
}

/// The option presets pinned per policy: the sweep preset, plus the
/// duplicate-elision variant where the policy admits it.
fn variants(policy: TreePolicy) -> Vec<(&'static str, DewOptions)> {
    let base = DewOptions::for_policy(policy);
    let mut out = vec![("preset", base)];
    if policy != TreePolicy::Slru {
        out.push((
            "dup",
            DewOptions {
                dup_elision: true,
                ..base
            },
        ));
    }
    out
}

fn render_all() -> String {
    let blocks = blocks();
    let mut out = String::new();
    for policy in TreePolicy::ALL {
        for (label, options) in variants(policy) {
            for (block_bits, sets, assocs) in GEOMETRIES {
                for instrument in [false, true] {
                    let mut kernel =
                        FusedKernel::build(block_bits, sets, assocs, options, instrument)
                            .expect("valid geometry");
                    for chunk in blocks.chunks(97) {
                        kernel.run_blocks(chunk);
                    }
                    let bytes = kernel.to_snapshot();
                    writeln!(
                        out,
                        "== {policy} {label} block_bits={block_bits} sets={}..={} \
                         assocs={}..={} instrument={instrument} len={}",
                        sets.0,
                        sets.1,
                        assocs.0,
                        assocs.1,
                        bytes.len()
                    )
                    .expect("write to String");
                    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
                    for line in hex.as_bytes().chunks(HEX_WIDTH) {
                        out.push_str(std::str::from_utf8(line).expect("ascii hex"));
                        out.push('\n');
                    }
                }
            }
        }
    }
    out
}

#[test]
fn every_kernel_reproduces_its_golden_snapshot_bytes() {
    let actual = render_all();
    if actual != GOLDEN {
        eprintln!("{actual}");
        let (line, (want, got)) = GOLDEN
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
            .unwrap_or((
                GOLDEN.lines().count().min(actual.lines().count()),
                ("<end>", "<end>"),
            ));
        panic!(
            "golden mismatch at line {}: expected `{want}`, got `{got}`",
            line + 1
        );
    }
}

#[test]
fn golden_snapshots_restore_and_re_serialise_identically() {
    for policy in TreePolicy::ALL {
        for (_, options) in variants(policy) {
            for (block_bits, sets, assocs) in GEOMETRIES {
                for instrument in [false, true] {
                    let mut kernel =
                        FusedKernel::build(block_bits, sets, assocs, options, instrument)
                            .expect("valid geometry");
                    kernel.run_blocks(&blocks());
                    let bytes = kernel.to_snapshot();
                    let restored = FusedKernel::from_snapshot(policy, &bytes).expect("restores");
                    assert_eq!(
                        restored.to_snapshot(),
                        bytes,
                        "{policy} {sets:?} {assocs:?}"
                    );
                }
            }
        }
    }
}
