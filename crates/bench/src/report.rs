//! What the harness binaries report: aligned-text tables for the paper's
//! tables, and the `BENCH_*.json` schema the throughput benches write and
//! `bench_guard` reads.
//!
//! A BENCH document is one JSON object with `bench` (the binary's name),
//! `unix_time`, a `variants` array of `{name, ns_per_step, steps_per_sec}`
//! objects and any top-level fields the bench adds. [`write_bench`] is the
//! one writer and [`read_bench`] the one reader; both go through
//! [`dew_explore::json`].

use std::collections::BTreeMap;

use dew_explore::json::{fixed, num, obj, str, Json};

/// A simple right-aligned text table with a header row.
///
/// # Examples
///
/// ```
/// use dew_bench::report::TextTable;
///
/// let mut t = TextTable::new(&["app", "misses"]);
/// t.row(&["CJPEG", "123"]);
/// let s = t.render();
/// assert!(s.contains("CJPEG"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row(&mut self, cells: &[&str]) {
        let mut r: Vec<String> = cells.iter().map(|s| (*s).to_owned()).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        let mut r = cells;
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Renders the table: header, separator, rows; first column
    /// left-aligned, the rest right-aligned.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if i == 0 {
                        format!("{c:<w$}", w = width[i])
                    } else {
                        format!("{c:>w$}", w = width[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Formats a count with thousands separators (`1234567` → `1,234,567`).
#[must_use]
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// One measured variant of a BENCH document; `Display` renders it as the
/// bench's console row.
#[derive(Debug, Clone)]
pub struct Variant {
    /// The variant's name, unique within its document.
    pub name: String,
    /// Wall time per step.
    pub ns_per_step: f64,
    /// Throughput: steps per second.
    pub steps_per_sec: f64,
}

impl Variant {
    /// A variant that ran `steps` steps (or jobs) in `secs` seconds.
    #[must_use]
    pub fn timed(name: &str, steps: f64, secs: f64) -> Self {
        Variant {
            name: name.to_owned(),
            ns_per_step: secs * 1e9 / steps,
            steps_per_sec: steps / secs,
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rate = thousands(self.steps_per_sec as u64);
        write!(
            f,
            "{:<30} {:>10.2} ns/step  {rate:>12} steps/s",
            self.name, self.ns_per_step
        )
    }
}

/// Writes the BENCH document of `bench`: `fields`, the `variants`, and the
/// `bench` and `unix_time` stamps. The path is `$DEW_BENCH_JSON` when set,
/// else `BENCH_<bench>.json` in the working directory; it is returned.
///
/// # Errors
///
/// The I/O error when the file cannot be written.
pub fn write_bench<'a>(
    bench: &str,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
    variants: &[Variant],
) -> std::io::Result<String> {
    let path = std::env::var("DEW_BENCH_JSON").unwrap_or_else(|_| format!("BENCH_{bench}.json"));
    std::fs::write(&path, bench_document(bench, fields, variants).emit_pretty())?;
    Ok(path)
}

fn bench_document<'a>(
    bench: &str,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
    variants: &[Variant],
) -> Json {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let variants = variants.iter().map(|v| {
        obj([
            ("name", str(v.name.clone())),
            ("ns_per_step", fixed(v.ns_per_step, 3)),
            ("steps_per_sec", fixed(v.steps_per_sec, 3)),
        ])
    });
    let mut doc = obj(fields);
    doc.insert("bench", str(bench));
    doc.insert("unix_time", num(unix_time));
    doc.insert("variants", Json::Arr(variants.collect()));
    doc
}

/// What [`read_bench`] finds in a BENCH document.
#[derive(Debug, Default)]
pub struct BenchDoc {
    /// `(name, steps_per_sec)` of every variant carrying both, in
    /// document order.
    pub variants: Vec<(String, f64)>,
    /// The top-level members that are neither arrays nor objects.
    pub scalars: BTreeMap<String, Json>,
}

/// Reads a parsed BENCH document. Variants without a string `name` or a
/// numeric `steps_per_sec` are skipped, as is everything that is not an
/// object.
#[must_use]
pub fn read_bench(doc: &Json) -> BenchDoc {
    let Json::Obj(members) = doc else {
        return BenchDoc::default();
    };
    let variant = |v: &Json| {
        let name = v.get("name")?.as_str()?.to_owned();
        Some((name, v.get("steps_per_sec")?.as_f64()?))
    };
    let variants = match doc.get("variants") {
        Some(Json::Arr(items)) => items.iter().filter_map(variant).collect(),
        _ => Vec::new(),
    };
    let scalars = members
        .iter()
        .filter(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)))
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    BenchDoc { variants, scalars }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a", "1"]);
        t.row(&["longer", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row(&["x"]);
        assert!(t.render().contains('x'));
    }

    /// The `(name, steps_per_sec)` pairs the committed BENCH files held
    /// when the substring parser that preceded [`read_bench`] was retired,
    /// as that parser returned them.
    #[test]
    fn committed_bench_files_read_as_before() {
        let read = |file: &str| {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed BENCH file");
            read_bench(&Json::parse(&text).expect("valid JSON")).variants
        };
        let pairs = |v: &[(&str, f64)]| -> Vec<(String, f64)> {
            v.iter().map(|(n, r)| ((*n).to_owned(), *r)).collect()
        };
        assert_eq!(
            read("BENCH_hot_loop.json"),
            pairs(&[
                ("step_instrumented", 12457888.0),
                ("step", 19341020.0),
                ("run_blocks", 18599425.0),
                ("run_blocks_instrumented", 10318561.0),
                ("per_assoc_run_blocks", 6471923.0),
                ("fused_multi_assoc", 14679471.0),
                ("fused_multi_assoc_instrumented", 2697700.0),
                ("per_assoc_lru_run_blocks", 2534371.0),
                ("fused_lru", 10887137.0),
                ("fused_lru_instrumented", 6037602.0),
                ("per_assoc_plru_run_blocks", 1962390.0),
                ("fused_plru", 2466674.0),
                ("per_assoc_slru_run_blocks", 2189171.0),
                ("fused_slru", 2714328.0),
                ("explore_pruned", 20054902.0),
                ("explore_exhaustive", 20210072.0),
            ])
        );
        assert_eq!(
            read("BENCH_sharded_smoke.json"),
            pairs(&[
                ("fifo_sequential", 1208986.0),
                ("fifo_handoff8", 1257448.0),
                ("lru_warmup8", 1050792.0),
                ("zipf_streamed", 1400637.0),
            ])
        );
        assert_eq!(
            read("BENCH_serve_soak.json"),
            pairs(&[("closed_loop_jobs", 33.275)])
        );
    }

    #[test]
    fn written_documents_read_back() {
        let variants = [
            Variant::timed("a", 1e6, 0.5),
            Variant::timed("jobs", 5.0, 2.0),
        ];
        let fields = [("backend", str("scalar")), ("ratio", fixed(1.0 / 3.0, 3))];
        let text = bench_document("unit", fields, &variants).emit_pretty();
        assert!(text.contains("\"ns_per_step\": 500,"), "{text}");
        assert!(Variant::timed("a", 1e6, 0.5).to_string().starts_with("a "));
        let doc = read_bench(&Json::parse(&text).expect("valid JSON"));
        assert_eq!(
            doc.variants,
            vec![("a".to_owned(), 2e6), ("jobs".to_owned(), 2.5)]
        );
        assert_eq!(doc.scalars.get("bench"), Some(&str("unit")));
        assert_eq!(doc.scalars.get("ratio").and_then(Json::as_f64), Some(0.333));
        assert!(doc
            .scalars
            .get("unix_time")
            .and_then(Json::as_u64)
            .is_some());
        assert!(!doc.scalars.contains_key("variants"));
    }

    #[test]
    fn thousands_separators() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(25_680_911), "25,680,911");
    }
}
