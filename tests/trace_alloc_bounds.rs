//! Peak heap use of the trace decoders, measured by a counting global
//! allocator. A `.din` reader holds its source buffer plus at most one
//! [`MAX_LINE_BYTES`] line, whatever the input: a newline-free stream fails
//! with a typed over-long-line error instead of being buffered whole, and
//! neither decoder's peak grows with the length of the trace.
//!
//! The counters are per thread, so tests running side by side do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Read};

use dew_trace::binary::{BinReader, BinWriter};
use dew_trace::din::{DinReader, MAX_LINE_BYTES};
use dew_trace::{ParseRecordError, Record, TraceError};

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// counters are const-initialised `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// Counted as the net change in live bytes.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak bytes it held live on
/// this thread above what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// Slack for the iterator plumbing of a measured run.
const SLACK: usize = 4096;
/// `BufReader`'s default capacity.
const BUF: usize = 8192;

/// `left` bytes of one endless line, produced as they are read.
struct NoNewline {
    left: u64,
}

impl Read for NoNewline {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf
            .len()
            .min(usize::try_from(self.left).unwrap_or(usize::MAX));
        buf[..n].fill(b'7');
        self.left -= n as u64;
        Ok(n)
    }
}

/// A `.din` trace of `lines` lines, produced as it is read: mostly
/// canonical records, with comments, CRLF ends, padded fields and a
/// trailing size column, so lines of every shape cross buffer boundaries.
struct DinLines {
    next: u64,
    lines: u64,
    pending: Vec<u8>,
    at: usize,
}

impl DinLines {
    fn new(lines: u64) -> Self {
        DinLines {
            next: 0,
            lines,
            pending: Vec::with_capacity(256),
            at: 0,
        }
    }
}

impl Read for DinLines {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use std::io::Write;
        if self.at == self.pending.len() {
            if self.next == self.lines {
                return Ok(0);
            }
            let i = self.next;
            self.next += 1;
            self.pending.clear();
            self.at = 0;
            let addr = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 48);
            match i % 16 {
                0 => writeln!(self.pending, "# line {i}: {}", "-".repeat(120)),
                1 => write!(self.pending, "1 0x{addr:X}\r\n"),
                2 => writeln!(self.pending, "  2\t{addr:040x} 4"),
                _ => writeln!(self.pending, "{} {addr:x}", i % 3),
            }?;
        }
        let n = buf.len().min(self.pending.len() - self.at);
        buf[..n].copy_from_slice(&self.pending[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

#[test]
fn newline_free_din_fails_typed_within_the_line_cap() {
    let (items, peak) = peak_of(|| {
        let mut reader = DinReader::new(BufReader::new(NoNewline { left: 64 << 20 }));
        let items: Vec<_> = reader
            .by_ref()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        (items, reader.lines_read())
    });
    let (items, lines) = items;
    assert_eq!(lines, 1);
    assert_eq!(
        items.len(),
        1,
        "one error, then the rest of the line is skipped"
    );
    let err = items[0].as_ref().expect_err("over-long line");
    let want = TraceError::Parse {
        position: 1,
        source: ParseRecordError::LineTooLong,
    };
    assert_eq!(*err, want.to_string());
    assert!(
        peak <= MAX_LINE_BYTES + BUF + SLACK,
        "a newline-free 64 MiB .din peaked at {peak} bytes"
    );
}

#[test]
fn din_reader_peak_does_not_grow_with_trace_length() {
    let run = |lines: u64| {
        peak_of(|| {
            let mut reader = DinReader::new(BufReader::new(DinLines::new(lines)));
            let records = reader
                .by_ref()
                .try_fold(0usize, |n, r| r.map(|_| n + 1))
                .expect("valid lines");
            assert_eq!(reader.lines_read(), lines);
            records
        })
    };
    let (short_records, short_peak) = run(100_000);
    let (long_records, long_peak) = run(1_000_000);
    assert_eq!(long_records, 10 * short_records);
    // The generator's own line buffer is part of the measured run.
    assert!(
        short_peak <= BUF + 256 + SLACK,
        "100k lines peaked at {short_peak}"
    );
    assert_eq!(long_peak, short_peak, "1M lines vs 100k lines");
}

#[test]
fn bin_reader_peak_does_not_grow_with_trace_length() {
    let encode = |n: u64| {
        let mut out = Vec::new();
        let mut w = BinWriter::new(&mut out).expect("in-memory write");
        w.write_all((0..n).map(|i| Record::read(i.wrapping_mul(0x9E37_79B9) >> (i % 40))))
            .expect("in-memory write");
        w.finish().expect("in-memory write");
        out
    };
    let run = |bytes: &[u8]| {
        peak_of(|| {
            BinReader::new(BufReader::new(bytes))
                .expect("header")
                .try_fold(0usize, |n, r| r.map(|_| n + 1))
                .expect("valid records")
        })
    };
    let (short, long) = (encode(100_000), encode(1_000_000));
    let (short_records, short_peak) = run(&short);
    let (long_records, long_peak) = run(&long);
    assert_eq!((short_records, long_records), (100_000, 1_000_000));
    assert!(
        short_peak <= BUF + SLACK,
        "100k records peaked at {short_peak}"
    );
    assert_eq!(long_peak, short_peak, "1M records vs 100k records");
}
