//! Reader and writer for the Dinero IV `din` text trace format.
//!
//! Each line is `<label> <hex-address>`, where the label is `0` (data read),
//! `1` (data write) or `2` (instruction fetch). Blank lines and lines starting
//! with `#` are skipped by the reader; a trailing third column (the optional
//! Dinero size field) is tolerated and ignored. A line must be UTF-8 and at
//! most [`MAX_LINE_BYTES`] long.
//!
//! # Examples
//!
//! ```
//! use dew_trace::din::{DinReader, DinWriter};
//! use dew_trace::{Record, TraceError};
//!
//! # fn main() -> Result<(), TraceError> {
//! let mut out = Vec::new();
//! let mut w = DinWriter::new(&mut out);
//! w.write_record(Record::read(0x400))?;
//! w.write_record(Record::write(0x404))?;
//! w.finish()?;
//!
//! let records: Result<Vec<_>, _> = DinReader::new(out.as_slice()).collect();
//! assert_eq!(records?.len(), 2);
//! # Ok(())
//! # }
//! ```

use std::io::{BufRead, ErrorKind, Write};

use crate::error::{ParseRecordError, TraceError};
use crate::record::{AccessKind, Record};

/// The longest line the reader accepts, in bytes before its newline. A
/// longer line is a [`ParseRecordError::LineTooLong`] at its position, so a
/// reader holds at most its source buffer plus this cap, whatever the input.
/// It mirrors the serve protocol's request-line cap.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Hex digit values by byte; `0xff` marks a non-digit.
const HEX: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// Streaming reader for `din` text traces.
///
/// Implements [`Iterator`] over `Result<Record, TraceError>`, so it can be
/// consumed lazily or `collect()`ed into a `Result<Trace, _>`.
///
/// Records are parsed straight out of the source's buffer. A canonical line
/// (`<0|1|2> <1-16 hex digits>\n`, what [`DinWriter`] emits) takes a
/// table-driven fast path; every other line is borrowed as `&str` and goes
/// through [`Record`]'s `FromStr`, so both paths accept the same language.
/// Only a line cut by the buffer's end is copied, into a spill buffer capped
/// at [`MAX_LINE_BYTES`]. A bad line yields its error and reading goes on
/// at the next line.
#[derive(Debug)]
pub struct DinReader<R> {
    inner: R,
    line: u64,
    /// The head of a line that straddles a buffer boundary.
    spill: Vec<u8>,
    /// Set after an over-long line: its rest is discarded up to its newline.
    skipping: bool,
}

impl<R: BufRead> DinReader<R> {
    /// Creates a reader over any buffered source. A plain `&[u8]` works for
    /// in-memory parsing; pass `&mut reader` to keep ownership.
    pub fn new(inner: R) -> Self {
        DinReader {
            inner,
            line: 0,
            spill: Vec::new(),
            skipping: false,
        }
    }

    /// The number of source lines consumed so far (including skipped ones).
    #[must_use]
    pub fn lines_read(&self) -> u64 {
        self.line
    }

    /// Consumes the reader, returning the underlying source.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn next_record(&mut self) -> Option<Result<Record, TraceError>> {
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(TraceError::Io(e))),
            };
            if buf.is_empty() {
                // End of input: a final line without a newline still counts.
                self.skipping = false;
                if self.spill.is_empty() {
                    return None;
                }
                self.line += 1;
                let parsed = parse_line(&self.spill);
                self.spill.clear();
                match parsed {
                    Some(result) => return Some(self.at_line(result)),
                    None => continue,
                }
            }
            if self.skipping {
                let used = match newline(buf) {
                    Some(i) => {
                        self.skipping = false;
                        i + 1
                    }
                    None => buf.len(),
                };
                self.inner.consume(used);
                continue;
            }
            if self.spill.is_empty() {
                if let Some((record, used)) = parse_canonical(buf) {
                    self.inner.consume(used);
                    self.line += 1;
                    return Some(Ok(record));
                }
            }
            let Some(end) = newline(buf) else {
                // The line goes on past this buffer: spill it, within the cap.
                let used = buf.len();
                if self.spill.len() + used > MAX_LINE_BYTES {
                    self.inner.consume(used);
                    self.spill.clear();
                    self.skipping = true;
                    self.line += 1;
                    return Some(self.at_line(Err(ParseRecordError::LineTooLong)));
                }
                self.spill.extend_from_slice(buf);
                self.inner.consume(used);
                continue;
            };
            self.line += 1;
            let parsed = if self.spill.len() + end > MAX_LINE_BYTES {
                Some(Err(ParseRecordError::LineTooLong))
            } else if self.spill.is_empty() {
                parse_line(&buf[..end])
            } else {
                self.spill.extend_from_slice(&buf[..end]);
                parse_line(&self.spill)
            };
            self.inner.consume(end + 1);
            self.spill.clear();
            if let Some(result) = parsed {
                return Some(self.at_line(result));
            }
        }
    }

    fn at_line(&self, result: Result<Record, ParseRecordError>) -> Result<Record, TraceError> {
        result.map_err(|source| TraceError::Parse {
            position: self.line,
            source,
        })
    }
}

/// Position of the first newline in `bytes`.
fn newline(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n')
}

/// Parses a canonical line `<0|1|2> <1-16 hex digits>\n` at the head of
/// `buf`, returning the record and the bytes the line spans. `None` for any
/// other line, and for one cut by the end of `buf`: the general path
/// decides those.
#[inline]
fn parse_canonical(buf: &[u8]) -> Option<(Record, usize)> {
    let kind = match buf.first()? {
        b'0' => AccessKind::Read,
        b'1' => AccessKind::Write,
        b'2' => AccessKind::InstrFetch,
        _ => return None,
    };
    if buf.get(1) != Some(&b' ') {
        return None;
    }
    let mut addr = 0u64;
    // At most 16 digits and their newline: a 17th digit ends the loop.
    for (i, &b) in buf.get(2..)?.iter().take(17).enumerate() {
        let digit = HEX[usize::from(b)];
        if digit == 0xff {
            return (b == b'\n' && i > 0).then_some((Record::new(addr, kind), i + 3));
        }
        addr = addr << 4 | u64::from(digit);
    }
    None
}

/// Parses one line (without its newline) the general way: `None` for a
/// blank or `#` comment line, else the record or why the line is bad.
fn parse_line(line: &[u8]) -> Option<Result<Record, ParseRecordError>> {
    let text = match std::str::from_utf8(line) {
        Ok(text) => text.trim(),
        Err(e) => return Some(Err(ParseRecordError::InvalidUtf8(e.valid_up_to()))),
    };
    if text.is_empty() || text.starts_with('#') {
        return None;
    }
    Some(text.parse())
}

impl<R: BufRead> Iterator for DinReader<R> {
    type Item = Result<Record, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
    }
}

/// Streaming writer for `din` text traces.
#[derive(Debug)]
pub struct DinWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> DinWriter<W> {
    /// Creates a writer over any sink. Pass `&mut writer` to keep ownership.
    pub fn new(inner: W) -> Self {
        DinWriter { inner, written: 0 }
    }

    /// Writes one record as a `din` line.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the sink fails.
    pub fn write_record(&mut self, record: Record) -> Result<(), TraceError> {
        // `<label> <hex>\n`, formatted right to left into one stack buffer.
        let mut line = [0u8; 19];
        let mut at = line.len() - 1;
        line[at] = b'\n';
        let mut addr = record.addr;
        loop {
            at -= 1;
            line[at] = b"0123456789abcdef"[(addr & 0xf) as usize];
            addr >>= 4;
            if addr == 0 {
                break;
            }
        }
        at -= 2;
        line[at] = b'0' + record.kind.din_label();
        line[at + 1] = b' ';
        self.inner.write_all(&line[at..])?;
        self.written += 1;
        Ok(())
    }

    /// Writes every record of an iterator.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the sink fails.
    pub fn write_all<I: IntoIterator<Item = Record>>(&mut self, iter: I) -> Result<(), TraceError> {
        for r in iter {
            self.write_record(r)?;
        }
        Ok(())
    }

    /// Number of records written so far.
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the flush fails.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_skipping_comments_and_blanks() {
        let src = "# header\n\n0 100\n   \n2 200\n";
        let recs: Vec<Record> = DinReader::new(src.as_bytes())
            .collect::<Result<_, _>>()
            .expect("parse");
        assert_eq!(recs, vec![Record::read(0x100), Record::ifetch(0x200)]);
    }

    #[test]
    fn reports_line_numbers_on_error() {
        let src = "0 100\n7 200\n";
        let mut reader = DinReader::new(src.as_bytes());
        assert!(reader.next().expect("first").is_ok());
        match reader.next().expect("second") {
            Err(TraceError::Parse { position, source }) => {
                assert_eq!(position, 2);
                assert_eq!(source, ParseRecordError::UnknownLabel(7));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn writer_matches_the_formatted_line() {
        for addr in [0, 1, 0xf, 0x10, 0xdead_beef, u64::MAX, 1 << 63] {
            for kind in AccessKind::ALL {
                let mut out = Vec::new();
                let mut w = DinWriter::new(&mut out);
                w.write_record(Record::new(addr, kind)).expect("write");
                assert_eq!(out, format!("{} {addr:x}\n", kind.din_label()).into_bytes());
            }
        }
    }

    #[test]
    fn writer_output_is_reader_input() {
        let records = vec![
            Record::read(0xdead),
            Record::write(0xbeef),
            Record::ifetch(0x1234_5678),
        ];
        let mut out = Vec::new();
        let mut w = DinWriter::new(&mut out);
        w.write_all(records.iter().copied()).expect("write");
        assert_eq!(w.records_written(), 3);
        w.finish().expect("finish");

        let back: Vec<Record> = DinReader::new(out.as_slice())
            .collect::<Result<_, _>>()
            .expect("read");
        assert_eq!(back, records);
    }

    #[test]
    fn tolerates_dinero_size_column() {
        let src = "1 400 4\n";
        let recs: Vec<Record> = DinReader::new(src.as_bytes())
            .collect::<Result<_, _>>()
            .expect("parse");
        assert_eq!(recs, vec![Record::new(0x400, AccessKind::Write)]);
    }

    #[test]
    fn lines_read_counts_every_source_line() {
        let src = "# c\n0 1\n# c\n0 2\n";
        let mut reader = DinReader::new(src.as_bytes());
        while reader.next().is_some() {}
        assert_eq!(reader.lines_read(), 4);
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_at_its_line() {
        let src: &[u8] = b"0 1\n# \xff\n0 2\n";
        let mut reader = DinReader::new(src);
        assert!(reader.next().expect("first").is_ok());
        match reader.next().expect("second") {
            Err(e @ TraceError::Parse { position: 2, .. }) => {
                assert!(!e.is_transient());
                assert!(matches!(
                    e,
                    TraceError::Parse {
                        source: ParseRecordError::InvalidUtf8(2),
                        ..
                    }
                ));
            }
            other => panic!("expected an invalid-UTF-8 error, got {other:?}"),
        }
        assert_eq!(reader.next().expect("third").expect("ok"), Record::read(2));
    }
}
