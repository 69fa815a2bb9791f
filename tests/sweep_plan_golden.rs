//! Golden outcomes of every `SweepRequest` execution plan.
//!
//! One fixed trace is swept under each plan (plain, instrumented, snapshot
//! handoff at three shard counts, warmup overlap, periodic sampling,
//! streamed, resilient, resilient + handoff) for all four policies, and
//! the full observable outcome — every configuration's miss count, the
//! access, traversal and records-simulated tallies, the instrumented
//! per-pass counters and the exact per-configuration slack of the two
//! estimating plans — is compared line for line against
//! `tests/golden/sweep_plans.txt`. The exact plans are additionally proven
//! against the oracle elsewhere; this file pins the estimating plans'
//! slack figures and the accounting, which no oracle defines.
//!
//! On a mismatch the full actual rendering is printed to stderr, so an
//! intended change of outcome can be reviewed and copied into the golden
//! file.

use std::fmt::Write as _;

use dew_core::{
    ConfigSpace, DewOptions, Resilience, ShardMode, ShardSpec, SweepOutcome, SweepRequest,
    TreePolicy,
};
use dew_trace::{Record, SliceSource};

const GOLDEN: &str = include_str!("golden/sweep_plans.txt");

/// A deterministic mix of a hot word-aligned region, scattered far
/// references and writes.
fn trace() -> Vec<Record> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..1500u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match i % 6 {
                0 => Record::read(x % (1 << 13)),
                1 => Record::write((x % 40) * 4),
                _ => Record::read((x % 120) * 4),
            }
        })
        .collect()
}

fn render(out: &mut String, plan: &str, space: &ConfigSpace, outcome: &SweepOutcome) {
    writeln!(
        out,
        "== {plan} {} accesses={} traversals={} simulated={} partial={}",
        outcome.policy(),
        outcome.accesses(),
        outcome.trace_traversals(),
        outcome.records_simulated(),
        outcome.is_partial(),
    )
    .expect("write to String");
    if let Some(bounds) = outcome.bounds() {
        writeln!(
            out,
            "bounds guaranteed={} max={}",
            bounds.guaranteed(),
            bounds.max_slack()
        )
        .expect("write to String");
    }
    let sorted = outcome.sorted();
    assert_eq!(sorted.len() as u64, space.config_count(), "{plan}");
    for c in sorted {
        write!(out, "{} {} {} {}", c.sets, c.assoc, c.block_bytes, c.misses)
            .expect("write to String");
        if let Some(bounds) = outcome.bounds() {
            let slack = bounds
                .slack(c.sets, c.assoc, c.block_bytes)
                .expect("every swept configuration has a slack");
            write!(out, " slack={slack}").expect("write to String");
        }
        out.push('\n');
    }
}

fn render_all() -> String {
    let space = ConfigSpace::new((0, 3), (1, 3), (0, 2)).expect("valid space");
    let records = trace();
    let mut out = String::new();
    for policy in TreePolicy::ALL {
        let base = SweepRequest::new(&space)
            .options(DewOptions::for_policy(policy))
            .threads(2);
        let handoff = |shards| ShardSpec {
            shards,
            mode: ShardMode::SnapshotHandoff,
        };

        render(
            &mut out,
            "plain",
            &space,
            &base.run(&records).expect("plain"),
        );

        let inst = base.instrumented(true).run(&records).expect("instrumented");
        render(&mut out, "instrumented", &space, &inst);
        for (pass, counters) in inst.passes() {
            writeln!(out, "counters {pass} {counters:?}").expect("write to String");
        }

        for shards in [2, 3, 7] {
            let outcome = base
                .sharded(handoff(shards))
                .run(&records)
                .expect("handoff");
            render(&mut out, &format!("handoff/{shards}"), &space, &outcome);
        }

        let overlap = ShardSpec {
            shards: 4,
            mode: ShardMode::WarmupOverlap { overlap: 96 },
        };
        let outcome = base.sharded(overlap).run(&records).expect("warmup overlap");
        render(&mut out, "warmup/4/96", &space, &outcome);

        let outcome = base.sampled(64, 16).run(&records).expect("sampled");
        render(&mut out, "sampled/64/16", &space, &outcome);

        let outcome = base.run_streamed(&SliceSource(&records)).expect("streamed");
        render(&mut out, "streamed", &space, &outcome);

        let res = Resilience::new();
        let outcome = base.resilient(&res).run(&records).expect("resilient");
        render(&mut out, "resilient", &space, &outcome);

        let outcome = base
            .sharded(handoff(3))
            .resilient(&res)
            .run(&records)
            .expect("resilient handoff");
        render(&mut out, "resilient+handoff/3", &space, &outcome);
    }
    out
}

#[test]
fn every_plan_reproduces_its_golden_outcome() {
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
