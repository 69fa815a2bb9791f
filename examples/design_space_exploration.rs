//! Cache design-space exploration — the paper's motivating use case,
//! driven end-to-end by the `dew-explore` engine.
//!
//! Explores the paper's full Table 1 space (525 configurations: sets
//! 2^0..2^14, blocks 1..64 B, assoc 1..16) under **both** FIFO and LRU over
//! an MPEG2-decode-like Mediabench workload. The engine runs one fused
//! sweep per policy — one decode and one trace traversal per block size,
//! 14 traversals total instead of 1050 per-configuration passes — scores
//! every point under the analytic energy/timing model, extracts the
//! miss-rate × energy × size Pareto frontier (pruned mode; property-tested
//! identical to the exhaustive scan), and answers the usual embedded
//! questions under capacity budgets. The full per-point report lands in
//! `results/exploration_mpeg2_dec.{json,csv}`.
//!
//! Run with: `cargo run --release --example design_space_exploration`

use std::time::Instant;

use dew_core::{ConfigSpace, TreePolicy};
use dew_explore::{
    best_edp_under, explore_trace, fastest_under, EnergyModel, ExplorationSpace, ParetoMode,
};
use dew_workloads::mediabench::App;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = App::Mpeg2Decode;
    let trace = app.generate(400_000, 11);
    let exploration = ExplorationSpace::new(ConfigSpace::paper())
        .with_policies(&[TreePolicy::Fifo, TreePolicy::Lru]);
    println!("exploring {}", exploration.space());
    println!(
        "policies: fifo+lru ({} candidates)",
        exploration.candidate_count()
    );
    println!("workload: {app} ({} requests)\n", trace.len());

    let start = Instant::now();
    let report = explore_trace(
        &exploration,
        trace.records(),
        &EnergyModel::default(),
        ParetoMode::Pruned,
        0,
    )?;
    println!(
        "explored {} candidates in {:.2}s — {} fused trace traversals \
         (one per block size per policy), {:.2}s in kernels",
        report.candidates(),
        start.elapsed().as_secs_f64(),
        report.trace_traversals(),
        report.sweep_seconds(),
    );
    println!(
        "pruned mode: {} points dropped by the associativity-monotonicity \
         prefilter, {} scored",
        report.pruned_dominated(),
        report.points().len(),
    );

    let frontier = report.frontier();
    println!(
        "\nPareto frontier (miss rate x energy x size), {} points:",
        frontier.len()
    );
    for p in frontier.iter().take(15) {
        println!("  {p}");
    }
    if frontier.len() > 15 {
        println!("  ... and {} more", frontier.len() - 15);
    }

    for budget_kib in [1u64, 4, 16, 64] {
        let budget = budget_kib * 1024;
        println!("\nwithin {budget_kib:>3} KiB:");
        for &policy in exploration.policies() {
            let evals = report.evaluations(policy);
            match (
                best_edp_under(&evals, budget),
                fastest_under(&evals, budget),
            ) {
                (Some(edp), Some(fast)) => {
                    println!("  {policy}: best energy-delay {edp}");
                    println!("  {policy}: fastest           {fast}");
                }
                _ => println!("  {policy}: nothing fits"),
            }
        }
    }

    std::fs::create_dir_all("results")?;
    let json_path = "results/exploration_mpeg2_dec.json";
    let csv_path = "results/exploration_mpeg2_dec.csv";
    std::fs::write(json_path, report.to_json().emit_pretty())?;
    std::fs::write(csv_path, report.to_csv())?;
    println!("\nfull report written to {json_path} and {csv_path}");
    Ok(())
}
