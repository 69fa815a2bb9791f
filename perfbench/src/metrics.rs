//! Sample summaries and the result line.
//!
//! Timings are summarised as a median plus the highest percentile that has
//! at least ten samples beyond it; the final line is the one JSON object
//! the benchmark contract asks for.

use std::fmt::Write as _;

/// Percentiles tried, highest first, when reporting a tail.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Linear-interpolated quantile `q` in `0.0..=1.0` of `values`
/// (`0.0` for an empty slice). Non-finite samples sort last, so failed
/// operations count as missing every latency limit.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 {
        v[lo]
    } else if !v[hi].is_finite() {
        v[hi]
    } else {
        v[lo] + (v[hi] - v[lo]) * frac
    }
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of [`TAIL_PERCENTILES`] with at least ten samples beyond
/// it, with its value; `None` when the sample is too small for any.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|&p| (p, quantile(values, p / 100.0)))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises (1 for a count or a single measurement).
    pub samples: usize,
    /// Which statistic of the samples `value` is (`median`, `p95`, ...).
    pub statistic: &'static str,
    /// `(percentile, value)` of the sample's tail, when it has one.
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    /// A single measured value or count.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            statistic: "value",
            tail: None,
        }
    }

    /// The median of `samples`, with their tail.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: median(samples),
            samples: samples.len(),
            statistic: "median",
            tail: tail(samples),
        }
    }

    /// The human-readable line printed before the result.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut line = format!(
            "  {:<26} {:>16} {:<6} n={}",
            self.name,
            fmt_value(self.value),
            self.unit,
            self.samples
        );
        if self.samples > 1 {
            let _ = write!(line, "  ({}", self.statistic);
            match self.tail {
                Some((p, v)) => {
                    let _ = write!(line, "; p{p} {}", fmt_value(v));
                }
                None if self.statistic == "median" => {
                    line.push_str("; too few samples for a tail");
                }
                None => {}
            }
            line.push(')');
        }
        line
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// Non-finite values (a failed operation in a latency tail) become the
/// largest finite double, since JSON has no infinity.
#[must_use]
pub fn json_f64(v: f64) -> String {
    let v = if v.is_finite() { v } else { f64::MAX };
    format!("{v:?}")
}

/// Escapes a string for a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contract's result line: `correct`, `attempted`, `failed`, and each
/// metric's value and unit.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_f64(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tails_need_ten_beyond() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!(tail(&v).is_none());
        let big: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&big).map(|t| t.0), Some(95.0));
        let huge: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&huge).map(|t| t.0), Some(99.0));
    }

    #[test]
    fn failed_samples_sort_last() {
        let v = [1.0, 2.0, f64::INFINITY];
        assert_eq!(median(&v), 2.0);
        assert!(quantile(&v, 1.0).is_infinite());
    }

    #[test]
    fn result_line_is_one_object_with_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::single("wall_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
