//! Byte-level properties of the two trace decoders.
//!
//! The differential suite pins the `.din` language: whatever the bytes and
//! however the source buffers them, [`DinReader`] yields the same records,
//! the same [`ParseRecordError`] values at the same line numbers, and the
//! same `lines_read` as the line-by-line model [`model`] — `str::parse`
//! applied to each trimmed line, with invalid UTF-8 and lines over
//! [`MAX_LINE_BYTES`] as typed errors. The byte fuzz applies the snapshot
//! fuzz's method to `.din` and `.dewt`: arbitrary bytes, every truncation
//! and single-byte flips of a valid file each decode to `Ok` or a typed
//! format error, never a panic, and `Ok` round-trips — bytes for `.dewt`,
//! records after canonical formatting for `.din`.

use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use dew_core::{ConfigSpace, NoSleep, Resilience, RetryPolicy, SweepRequest};
use dew_trace::binary::{BinReader, BinWriter};
use dew_trace::din::{DinReader, DinWriter, MAX_LINE_BYTES};
use dew_trace::{ParseRecordError, Record, TraceError};

/// One decoded `.din` item: a record, or a parse error with its line.
type Item = Result<Record, (u64, ParseRecordError)>;

/// The `BufReader` capacities every `.din` input is read through: one byte
/// (every line spills), a size that cuts most lines, and the default.
const CAPACITIES: [usize; 3] = [1, 7, 8192];

/// The line-by-line model of a `.din` reader: its items and line count.
fn model(bytes: &[u8]) -> (Vec<Item>, u64) {
    let mut items = Vec::new();
    let mut lines = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        lines += 1;
        let line = line.strip_suffix(b"\n").unwrap_or(line);
        let result = if line.len() > MAX_LINE_BYTES {
            Err(ParseRecordError::LineTooLong)
        } else {
            match std::str::from_utf8(line) {
                Err(e) => Err(ParseRecordError::InvalidUtf8(e.valid_up_to())),
                Ok(text) => {
                    let text = text.trim();
                    if text.is_empty() || text.starts_with('#') {
                        continue;
                    }
                    text.parse::<Record>()
                }
            }
        };
        items.push(result.map_err(|e| (lines, e)));
    }
    (items, lines)
}

/// Everything a [`DinReader`] over `bytes` through a `capacity`-byte buffer
/// yields, and its final line count. Any error other than a parse error is
/// a test failure: an in-memory source has no I/O faults.
fn read_din(bytes: &[u8], capacity: usize) -> Result<(Vec<Item>, u64), TestCaseError> {
    let mut reader = DinReader::new(BufReader::with_capacity(capacity, bytes));
    let mut items = Vec::new();
    for item in reader.by_ref() {
        items.push(match item {
            Ok(record) => Ok(record),
            Err(TraceError::Parse { position, source }) => Err((position, source)),
            Err(other) => {
                return Err(TestCaseError::fail(format!("untyped error: {other:?}")));
            }
        });
    }
    Ok((items, reader.lines_read()))
}

/// Checks every capacity against the model and, when every line parsed,
/// that the records survive canonical formatting.
fn check_din(bytes: &[u8]) -> Result<(), TestCaseError> {
    let expected = model(bytes);
    for capacity in CAPACITIES {
        let got = read_din(bytes, capacity)?;
        prop_assert!(
            got == expected,
            "capacity {capacity} diverged on {:?}\n  got: {:?}\n want: {:?}",
            String::from_utf8_lossy(bytes),
            got,
            expected
        );
    }
    if let Ok(records) = expected.0.into_iter().collect::<Result<Vec<_>, _>>() {
        let mut canonical = Vec::new();
        DinWriter::new(&mut canonical)
            .write_all(records.iter().copied())
            .expect("in-memory write");
        let (again, lines) = read_din(&canonical, 8192)?;
        prop_assert_eq!(lines, records.len() as u64);
        prop_assert!(again.into_iter().eq(records.into_iter().map(Item::Ok)));
    }
    Ok(())
}

/// Decodes a `.dewt` buffer to `Ok` (which must re-encode to the same
/// bytes) or a typed format error. Returns whether it was accepted.
fn check_dewt(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let decoded = BinReader::new(bytes).and_then(|r| r.collect::<Result<Vec<_>, _>>());
    match decoded {
        Ok(records) => {
            let mut again = Vec::new();
            let mut w = BinWriter::new(&mut again).expect("in-memory write");
            w.write_all(records).expect("in-memory write");
            w.finish().expect("in-memory write");
            prop_assert!(
                again == bytes,
                "an accepted {}-byte .dewt re-encoded to {} different bytes",
                bytes.len(),
                again.len()
            );
            Ok(true)
        }
        Err(TraceError::Io(e)) => Err(TestCaseError::fail(format!("untyped error: {e}"))),
        Err(_) => Ok(false),
    }
}

/// Picks `options[index % len]`.
fn pick<'a>(options: &[&'a str], index: u64) -> &'a str {
    options[(index % options.len() as u64) as usize]
}

const LABELS: [&str; 11] = ["0", "1", "2", "3", "255", "256", "+1", "01", "-0", "x", ""];
const SEPARATORS: [&str; 8] = [" ", " ", "\t", "  ", "\u{3000}", "\u{a0}", "\u{2003}", ""];
const TAILS: [&str; 6] = ["", "", " 4", "\t8", " junk", "\u{3000}"];
const ENDS: [&str; 5] = ["\n", "\n", "\r\n", "\r", ""];

/// An address field of `addr` in one of the spellings the language meets:
/// canonical, upper case, `0x`/`0X`, `+`, zero-padded past 16 digits,
/// beyond `u64`, empty or not hex.
fn address(addr: u64, form: u64) -> String {
    match form % 10 {
        0..=2 => format!("{addr:x}"),
        3 => format!("{addr:X}"),
        4 => format!("0x{addr:x}"),
        5 => format!("0X{addr:X}"),
        6 => format!("+{addr:x}"),
        7 => format!("{addr:020x}"),
        8 => format!("1{addr:016x}"),
        _ => pick(&["", "0x", "g12", "+", "0x+1", "1_0"], addr).to_owned(),
    }
}

/// One `.din` line, well-formed or not.
fn line_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..14,
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        any::<u64>(),
    )
        .prop_map(|(shape, (addr, form), (label, sep, tail), end)| {
            let end = pick(&ENDS, end);
            let mut line = match shape {
                // Canonical, as `DinWriter` writes it.
                0..=2 => format!("{} {addr:x}\n", addr % 3),
                // One field off canonical: the edges of the fast path.
                3 => format!("{} {}\n", addr % 3, address(addr, form)),
                4 => format!("{} {addr:x}\n", pick(&LABELS, label)),
                5 => format!("{} {addr:x}{end}", addr % 3),
                6 => format!("# comment {addr:x}{end}"),
                7 => format!("{}{end}", pick(&["", "  ", "\t", "\u{3000}", "\r"], addr)),
                _ => format!(
                    "{lead}{}{}{}{}{}{end}",
                    pick(&LABELS, label),
                    pick(&SEPARATORS, sep),
                    address(addr, form),
                    pick(&TAILS, tail),
                    pick(&["", " ", "\t", "\u{a0}"], form / 10),
                    lead = pick(&["", "", " ", "\t", "\u{2003}"], form / 40),
                ),
            }
            .into_bytes();
            if shape == 13 {
                // Invalid UTF-8: a stray byte or a cut multi-byte sequence.
                let at = (addr as usize) % (line.len() + 1);
                let bad: &[u8] = match form % 3 {
                    0 => b"\xff",
                    1 => b"\xe3\x80",
                    _ => b"\xc0\xaf",
                };
                line.splice(at..at, bad.iter().copied());
            }
            line
        })
}

/// A valid `.din` file as `DinWriter` writes it.
fn canonical_din(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    DinWriter::new(&mut out)
        .write_all(records.iter().copied())
        .expect("in-memory write");
    out
}

/// A valid `.dewt` file over strides of every varint length.
fn valid_dewt() -> Vec<u8> {
    let mut x = 0x5EED_D1A7_u64;
    let mut addr = 0u64;
    let mut out = Vec::new();
    let mut w = BinWriter::new(&mut out).expect("in-memory write");
    for i in 0..200u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let stride = x >> (x % 64);
        addr = if i % 2 == 0 {
            addr.wrapping_add(stride)
        } else {
            addr.wrapping_sub(stride)
        };
        w.write_record(Record::new(
            addr,
            dew_trace::AccessKind::ALL[(x % 3) as usize],
        ))
        .expect("in-memory write");
    }
    w.finish().expect("in-memory write");
    out
}

fn sample_records() -> Vec<Record> {
    (0..60u64)
        .map(|i| {
            let addr = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64);
            Record::new(addr, dew_trace::AccessKind::ALL[(i % 3) as usize])
        })
        .collect()
}

#[test]
fn lines_at_and_over_the_cap_match_the_model() {
    let mut bytes = Vec::new();
    for len in [
        MAX_LINE_BYTES - 1,
        MAX_LINE_BYTES,
        MAX_LINE_BYTES + 1,
        3 * MAX_LINE_BYTES,
    ] {
        // `1 <spaces>a`: a record exactly `len` bytes long.
        bytes.extend_from_slice(b"1 ");
        bytes.resize(bytes.len() + len - 3, b' ');
        bytes.extend_from_slice(b"a\n0 5\n");
    }
    bytes.extend(std::iter::repeat_n(b'#', 2 * MAX_LINE_BYTES));
    let (items, _) = model(&bytes);
    assert_eq!(
        items.iter().filter(|i| i.is_err()).count(),
        3,
        "two over-long records and the over-long comment at the end"
    );
    for capacity in [1, 7, 8192, 4 * MAX_LINE_BYTES] {
        let got = read_din(&bytes, capacity).expect("typed");
        assert!(got == model(&bytes), "capacity {capacity}");
    }
}

#[test]
fn every_truncation_of_a_valid_file_matches_the_model() {
    let din = canonical_din(&sample_records());
    for len in 0..=din.len() {
        check_din(&din[..len]).unwrap_or_else(|e| panic!("{len}-byte prefix: {e}"));
    }
    let dewt = valid_dewt();
    assert!(check_dewt(&dewt).expect("typed"));
    for len in 0..dewt.len() {
        check_dewt(&dewt[..len]).unwrap_or_else(|e| panic!("{len}-byte prefix: {e}"));
    }
}

#[test]
fn resilient_sweep_fails_invalid_utf8_without_retrying() {
    let clean = canonical_din(&sample_records());
    let mut corrupt = clean.clone();
    corrupt.extend_from_slice(b"0 1\xff\n");
    corrupt.extend_from_slice(&clean);
    // Under one worker the second open is the 8-byte job's; it alone sees
    // the corrupt file, so the 4-byte job survives and the sweep degrades.
    let opens = AtomicU64::new(0);
    let source = || {
        let bytes = match opens.fetch_add(1, Ordering::Relaxed) {
            1 => corrupt.as_slice(),
            _ => clean.as_slice(),
        };
        Ok::<_, TraceError>(DinReader::new(bytes))
    };
    let space = ConfigSpace::new((0, 2), (2, 3), (0, 1)).expect("valid");
    let retry = RetryPolicy {
        max_retries: 4,
        base_delay: Duration::ZERO,
        max_delay: Duration::ZERO,
    };
    let res = Resilience::new().with_retry(retry).with_sleeper(&NoSleep);
    let outcome = SweepRequest::new(&space)
        .threads(1)
        .resilient(&res)
        .run_streamed(&source)
        .expect("degraded, not aborted");
    assert!(outcome.is_partial());
    assert_eq!(
        outcome.retries(),
        0,
        "corrupt bytes are not a transient fault"
    );
    assert_eq!(
        opens.load(Ordering::Relaxed),
        2,
        "no job re-opened the source"
    );
    let failed = outcome.failed_jobs();
    assert_eq!(failed.len(), 1);
    assert_eq!((failed[0].block_bits, failed[0].records_done), (3, 60));
    assert!(failed[0].error.contains("UTF-8"), "{}", failed[0].error);
    assert!(
        failed[0].error.contains("position 61"),
        "{}",
        failed[0].error
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn din_reader_matches_the_line_model(
        lines in prop::collection::vec(line_strategy(), 0..40),
    ) {
        check_din(&lines.concat())?;
    }

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(
        bytes in prop::collection::vec(
            prop_oneof![any::<u8>(), Just(b'\n'), Just(b' '), 0x30u8..0x33, 0x61u8..0x67],
            0..300,
        ),
    ) {
        check_din(&bytes)?;
        check_dewt(&bytes)?;
        // The same bytes behind a valid header reach the record decoder.
        let mut framed = b"DEWT\x01".to_vec();
        framed.extend_from_slice(&bytes);
        check_dewt(&framed)?;
    }

    #[test]
    fn single_byte_flips_decode_or_fail_typed(
        position in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut din = canonical_din(&sample_records());
        let at = (position % din.len() as u64) as usize;
        din[at] ^= mask;
        check_din(&din)?;
        let mut dewt = valid_dewt();
        let at = (position % dewt.len() as u64) as usize;
        dewt[at] ^= mask;
        check_dewt(&dewt)?;
    }
}
