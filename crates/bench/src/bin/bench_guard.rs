//! Bench regression guard: compares a freshly measured `BENCH_hot_loop.json`
//! against the committed one and **warns** (never fails) when any variant's
//! `steps_per_sec` dropped by more than the threshold (default 30%, override
//! with `DEW_BENCH_GUARD_THRESHOLD=0.2`-style fractions).
//!
//! Usage: `bench_guard [--strict] <committed.json> <fresh.json>`
//!
//! CI runs it after the hot-loop smoke so a kernel regression shows up in
//! the job log (as a GitHub `::warning::` annotation) without blocking
//! unrelated work; absolute throughput on shared runners is too noisy for a
//! hard gate. `--strict` escalates: regressions print as `::error::`
//! annotations and the process exits nonzero (the chaos CI step uses this
//! to make a resilience-layer slowdown a hard failure). A missing or
//! unparsable baseline stays tolerated even under `--strict` — only a
//! measured regression fails the run — but a missing or unparsable fresh
//! document (this run's own output) always fails. Both documents are read
//! with [`dew_bench::report::read_bench`]. When `GITHUB_STEP_SUMMARY` is
//! set (it always is on GitHub runners), the guard additionally appends a
//! markdown comparison table — variant, baseline steps/sec, fresh
//! steps/sec, delta — to the job summary, so the trajectory is readable
//! without opening the log, and the artifact upload of both JSON files
//! makes it diffable per run.
//!
//! **Ratio gates** are always hard, `--strict` or not: speedup ratios in
//! the fresh JSON compare two variants measured in the *same* run on the
//! *same* machine, so runner-class noise cancels and a violation is a real
//! kernel property, not a slow runner. They run on every fresh document
//! that parses, with or without a baseline. Gated (when the fields are
//! present; older documents without them are skipped):
//!
//! * `speedup_fused_vs_per_assoc >= 2.0` when the fresh run's
//!   `kernel_backend` is `avx2` — the wide-scan fused FIFO walk must beat
//!   the pre-fusion schedule at least twofold on full hardware;
//! * `instrumented_over_fast_fused_fifo <= 8.0` — the full counter ladder
//!   costs about 5–6× the fast fused walk on the tracked machine (the
//!   counters serialize the ladder's loads; see `EXPERIMENTS.md`), and this
//!   ceiling keeps that honest overhead from silently growing.

use std::process::ExitCode;

use dew_bench::report::{read_bench, BenchDoc};
use dew_explore::json::Json;

/// Minimum fused-vs-per-assoc FIFO speedup on an `avx2` run (same-machine
/// ratio, so gated hard).
const FUSED_SPEEDUP_FLOOR: f64 = 2.0;
/// Maximum instrumented-over-fast ratio on the fused FIFO walk (same-machine
/// ratio; the measured honest cost is ~5–6×).
const INSTR_OVERHEAD_CEILING: f64 = 8.0;

/// The hard same-run ratio gates (see the module docs): one error line per
/// violated gate in the fresh JSON. Fields absent from older formats are
/// skipped, never failed.
fn ratio_gates(fresh: &BenchDoc) -> Vec<String> {
    let mut out = Vec::new();
    let scalar = |key: &str| fresh.scalars.get(key).and_then(Json::as_f64);
    let backend = fresh.scalars.get("kernel_backend").and_then(Json::as_str);
    if let Some(speedup) = scalar("speedup_fused_vs_per_assoc") {
        if backend == Some("avx2") && speedup < FUSED_SPEEDUP_FLOOR {
            out.push(format!(
                "speedup_fused_vs_per_assoc {speedup:.3} is below the \
                 {FUSED_SPEEDUP_FLOOR:.1} floor on an avx2 run"
            ));
        }
    }
    if let Some(ratio) = scalar("instrumented_over_fast_fused_fifo") {
        if ratio > INSTR_OVERHEAD_CEILING {
            out.push(format!(
                "instrumented_over_fast_fused_fifo {ratio:.3} exceeds the \
                 {INSTR_OVERHEAD_CEILING:.1} ceiling"
            ));
        }
    }
    out
}

/// Compares the two variant sets and returns one warning line per variant
/// whose fresh rate dropped below `(1 - threshold) ×` the committed rate.
/// Variants present on only one side are skipped (new or retired variants
/// are not regressions).
fn regressions(
    committed: &[(String, f64)],
    fresh: &[(String, f64)],
    threshold: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for (name, base) in committed {
        let Some((_, now)) = fresh.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *base > 0.0 && *now < *base * (1.0 - threshold) {
            out.push(format!(
                "{name}: {now:.0} steps/s is {:.0}% below the committed {base:.0}",
                (1.0 - now / base) * 100.0
            ));
        }
    }
    out
}

/// Renders the markdown comparison table for the step summary: one row per
/// fresh variant (baseline-only variants are retired and omitted), with the
/// committed rate, the fresh rate and the signed delta. New variants show a
/// dash for the baseline columns.
fn summary_table(committed: &[(String, f64)], fresh: &[(String, f64)], threshold: f64) -> String {
    let mut out = String::from(
        "## hot_loop bench guard\n\n\
         | variant | baseline steps/sec | fresh steps/sec | delta |\n\
         |---|---:|---:|---:|\n",
    );
    for (name, now) in fresh {
        match committed.iter().find(|(n, _)| n == name) {
            Some((_, base)) if *base > 0.0 => {
                let delta = (now / base - 1.0) * 100.0;
                let marker = if *now < *base * (1.0 - threshold) {
                    " ⚠️"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "| `{name}` | {base:.0} | {now:.0} | {delta:+.1}%{marker} |\n"
                ));
            }
            _ => {
                out.push_str(&format!("| `{name}` | — | {now:.0} | new |\n"));
            }
        }
    }
    out.push_str(&format!(
        "\nAdvisory threshold: warn below −{:.0}% of the committed baseline. \
         Both `BENCH_hot_loop.json` (committed) and `BENCH_hot_loop.fresh.json` \
         (this run) are in the job artifact.\n",
        threshold * 100.0
    ));
    out
}

/// Appends the table to `$GITHUB_STEP_SUMMARY` when the variable is set
/// (appending is the documented contract for step summaries: every step
/// shares the file).
fn write_step_summary(table: &str) {
    let Some(path) = std::env::var_os("GITHUB_STEP_SUMMARY") else {
        return;
    };
    use std::io::Write as _;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(table.as_bytes()));
    if let Err(e) = appended {
        println!("::warning::bench_guard: cannot write step summary: {e}");
    }
}

/// What the guard prints (log lines, and the step-summary table when both
/// sides have variants) and whether the process fails.
#[derive(Debug, Default)]
struct Verdict {
    lines: Vec<String>,
    summary: Option<String>,
    fail: bool,
}

/// Judges the fresh document against the committed baseline. Each side is
/// the file's text or why it could not be read. The ratio gates run on
/// every fresh document that parses; the throughput comparison is advisory
/// (unless `strict`) and skipped when the baseline is missing, not JSON or
/// without variants. A fresh document that is missing or not JSON fails.
fn judge(
    committed: Result<String, String>,
    fresh: Result<String, String>,
    strict: bool,
    threshold: f64,
) -> Verdict {
    let parse = |text: Result<String, String>| {
        Json::parse(&text?)
            .map(|doc| read_bench(&doc))
            .map_err(|e| format!("not JSON: {e}"))
    };
    let mut v = Verdict::default();
    let now = match parse(fresh) {
        Ok(doc) => doc,
        Err(e) => {
            v.lines.push(format!(
                "::error::bench_guard: fresh document unusable — {e}"
            ));
            v.fail = true;
            return v;
        }
    };
    match parse(committed) {
        // A missing baseline must not fail CI (first run on a fresh
        // branch): warn and carry on to the gates.
        Err(e) => v
            .lines
            .push(format!("::warning::bench_guard: baseline unusable — {e}")),
        Ok(base) if base.variants.is_empty() || now.variants.is_empty() => {
            v.lines.push(format!(
                "::warning::bench_guard: no variants parsed (committed: {}, fresh: {})",
                base.variants.len(),
                now.variants.len()
            ));
        }
        Ok(base) => {
            v.summary = Some(summary_table(&base.variants, &now.variants, threshold));
            let warnings = regressions(&base.variants, &now.variants, threshold);
            for w in &warnings {
                // Advisory by default: the committed baseline may come from
                // a different machine class than this runner, so a drop is
                // a prompt to compare trajectories, not a verdict. --strict
                // makes it one.
                v.lines.push(if strict {
                    format!("::error::throughput regression — {w}")
                } else {
                    format!("::warning::hot_loop throughput regression — {w}")
                });
            }
            if warnings.is_empty() {
                v.lines.push(format!(
                    "bench_guard: {} variants within {:.0}% of the committed baseline",
                    now.variants.len(),
                    threshold * 100.0
                ));
            }
            v.fail = strict && !warnings.is_empty();
        }
    }
    let gate_errors = ratio_gates(&now);
    for g in &gate_errors {
        // Same-run ratios are machine-relative: a violation is a kernel
        // property, not runner noise, so these fail hard either way.
        v.lines.push(format!("::error::ratio gate violated — {g}"));
    }
    if gate_errors.is_empty() {
        v.lines
            .push("bench_guard: same-run ratio gates hold".to_owned());
    }
    v.fail |= !gate_errors.is_empty();
    v
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let strict = args.first().is_some_and(|a| a == "--strict");
    if strict {
        args.remove(0);
    }
    let [committed_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_guard [--strict] <committed.json> <fresh.json>");
        return ExitCode::FAILURE;
    };
    let threshold = std::env::var("DEW_BENCH_GUARD_THRESHOLD")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.30);
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let verdict = judge(read(committed_path), read(fresh_path), strict, threshold);
    if let Some(table) = &verdict.summary {
        write_step_summary(table);
    }
    for line in &verdict.lines {
        println!("{line}");
    }
    if verdict.fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> BenchDoc {
        read_bench(&Json::parse(text).expect("test documents are JSON"))
    }

    /// A file's text, or why it could not be read, as `main` passes it.
    fn own(file: Result<&str, &str>) -> Result<String, String> {
        file.map(str::to_owned).map_err(str::to_owned)
    }

    const SAMPLE: &str = r#"{
  "bench": "hot_loop",
  "variants": [
    {"name": "step", "ns_per_step": 50.460, "steps_per_sec": 19817516},
    {"name": "run_blocks", "ns_per_step": 51.129, "steps_per_sec": 19558401}
  ],
  "sweep_shapes": [
    {"name": "fused_a1_8", "trace_traversals": 1}
  ]
}"#;

    #[test]
    fn parses_variant_rates_and_skips_shapes_without_rates() {
        let v = doc(SAMPLE).variants;
        assert_eq!(
            v,
            vec![
                ("step".to_owned(), 19817516.0),
                ("run_blocks".to_owned(), 19558401.0)
            ]
        );
    }

    #[test]
    fn flags_only_drops_beyond_threshold() {
        let base = vec![("a".to_owned(), 1000.0), ("b".to_owned(), 1000.0)];
        let fresh = vec![
            ("a".to_owned(), 650.0), // 35% drop: flagged
            ("b".to_owned(), 750.0), // 25% drop: within threshold
            ("c".to_owned(), 1.0),   // new variant: ignored
        ];
        let w = regressions(&base, &fresh, 0.30);
        assert_eq!(w.len(), 1);
        assert!(w[0].starts_with("a:"), "{w:?}");
    }

    #[test]
    fn missing_and_faster_variants_do_not_warn() {
        let base = vec![("gone".to_owned(), 500.0), ("fast".to_owned(), 100.0)];
        let fresh = vec![("fast".to_owned(), 400.0)];
        assert!(regressions(&base, &fresh, 0.30).is_empty());
    }

    const RATIOS: &str = r#"{
  "kernel_backend": "avx2",
  "speedup_fused_vs_per_assoc": 2.39,
  "speedup_fused_plru_vs_per_assoc": 1.22,
  "instrumented_over_fast_fused_fifo": 5.95
}"#;

    #[test]
    fn parses_top_level_scalar_and_string_fields() {
        let scalars = doc(RATIOS).scalars;
        let scalar = |key: &str| scalars.get(key).and_then(Json::as_f64);
        let string = |key: &str| scalars.get(key).and_then(Json::as_str);
        assert_eq!(scalar("speedup_fused_vs_per_assoc"), Some(2.39));
        assert_eq!(scalar("instrumented_over_fast_fused_fifo"), Some(5.95));
        assert_eq!(scalar("absent_field"), None);
        assert_eq!(string("kernel_backend"), Some("avx2"));
        assert_eq!(string("absent_field"), None);
    }

    #[test]
    fn ratio_gates_hold_on_the_tracked_numbers() {
        let e = ratio_gates(&doc(RATIOS));
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn low_fused_speedup_fails_only_on_avx2_runs() {
        let slow_avx2 = RATIOS.replace("2.39", "1.40");
        let e = ratio_gates(&doc(&slow_avx2));
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(e[0].contains("speedup_fused_vs_per_assoc 1.400"), "{e:?}");
        // The same ratio on a scalar run is expected (no wide scans): no gate.
        let slow_scalar = slow_avx2.replace("avx2", "scalar");
        assert!(ratio_gates(&doc(&slow_scalar)).is_empty());
    }

    #[test]
    fn runaway_instrumentation_overhead_fails_on_any_backend() {
        let heavy = RATIOS.replace("5.95", "9.10").replace("avx2", "scalar");
        let e = ratio_gates(&doc(&heavy));
        assert_eq!(e.len(), 1, "{e:?}");
        assert!(
            e[0].contains("instrumented_over_fast_fused_fifo 9.100"),
            "{e:?}"
        );
    }

    #[test]
    fn json_without_ratio_fields_is_not_gated() {
        assert!(ratio_gates(&doc(SAMPLE)).is_empty());
    }

    #[test]
    fn ratio_gates_run_without_a_usable_baseline() {
        let heavy = RATIOS.replace("5.95", "9.10");
        for baseline in [Err("cannot read BENCH_hot_loop.json"), Ok("{"), Ok("{}")] {
            let v = judge(own(baseline), own(Ok(&heavy)), false, 0.30);
            assert!(v.fail, "{:?}", v.lines);
            assert!(v.lines[0].starts_with("::warning::"), "{:?}", v.lines);
            assert!(v.lines.iter().any(|l| l.contains("9.100")), "{:?}", v.lines);
            assert!(v.summary.is_none());
        }
        // A fresh document without variants is still gated.
        let v = judge(own(Ok(SAMPLE)), own(Ok(&heavy)), true, 0.30);
        assert!(
            v.fail && v.lines[0].contains("no variants"),
            "{:?}",
            v.lines
        );
        // The tolerated cases pass when the gates hold.
        assert!(!judge(own(Err("gone")), own(Ok(RATIOS)), true, 0.30).fail);
    }

    #[test]
    fn an_unusable_fresh_document_fails() {
        for fresh in [Err("cannot read BENCH_hot_loop.fresh.json"), Ok("not json")] {
            let v = judge(own(Ok(SAMPLE)), own(fresh), false, 0.30);
            assert!(v.fail, "{:?}", v.lines);
            assert!(v.lines[0].starts_with("::error::"), "{:?}", v.lines);
        }
    }

    #[test]
    fn regressions_fail_only_under_strict() {
        let slow = SAMPLE.replace("19817516", "9817516");
        let advisory = judge(own(Ok(SAMPLE)), own(Ok(&slow)), false, 0.30);
        assert!(!advisory.fail, "{:?}", advisory.lines);
        assert!(advisory.lines[0].starts_with("::warning::hot_loop throughput regression — step:"));
        assert!(advisory.summary.is_some());
        let strict = judge(own(Ok(SAMPLE)), own(Ok(&slow)), true, 0.30);
        assert!(strict.fail);
        assert!(strict.lines[0].starts_with("::error::throughput regression — step:"));
    }

    #[test]
    fn summary_table_reports_deltas_new_and_regressed_variants() {
        let base = vec![
            ("steady".to_owned(), 1000.0),
            ("regressed".to_owned(), 1000.0),
            ("retired".to_owned(), 42.0),
        ];
        let fresh = vec![
            ("steady".to_owned(), 1100.0),
            ("regressed".to_owned(), 500.0),
            ("fused_lru".to_owned(), 2000.0),
        ];
        let t = summary_table(&base, &fresh, 0.30);
        assert!(t.starts_with("## hot_loop bench guard"), "{t}");
        assert!(t.contains("| variant | baseline steps/sec | fresh steps/sec | delta |"));
        assert!(t.contains("| `steady` | 1000 | 1100 | +10.0% |"), "{t}");
        assert!(
            t.contains("| `regressed` | 1000 | 500 | -50.0% ⚠️ |"),
            "{t}"
        );
        assert!(t.contains("| `fused_lru` | — | 2000 | new |"), "{t}");
        assert!(
            !t.contains("retired"),
            "baseline-only variants omitted: {t}"
        );
        assert!(t.contains("−30%"), "threshold documented: {t}");
    }
}
