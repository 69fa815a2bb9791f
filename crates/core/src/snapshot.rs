//! Checkpointing support: serialise a kernel's complete state to bytes and
//! restore it later.
//!
//! Real traces are long (the paper's MPEG2 encode trace has 3.7 billion
//! requests); checkpoints let a simulation be split across batch jobs, saved
//! before the interesting region of a trace, or shipped between machines.
//! Every kernel — the per-pass [`crate::DewTree`] and the four fused policy
//! kernels — writes one framing, the [`crate::Arena`]'s: a little-endian
//! dump with geometry and options embedded, so a snapshot is
//! self-describing:
//!
//! ```text
//! magic   4 bytes: DEWA per-pass tree, DEWM FIFO, DEWL LRU,
//!         DEWP tree-PLRU, DEWU SLRU
//! version u8 (1)
//! pass    block_bits, min_set_bits, max_set_bits,
//!         log2 min assoc, log2 max assoc            (u32 each)
//! flags   u8, the kernel's options and instrumentation bit
//! head    the kernel's counters and scalars
//! shared  misses, dm_misses, MRA lane, then each node's tags
//! tail    the kernel's own lanes
//! ```
//!
//! Decoding checks the magic, the version, the geometry against the bytes
//! that remain (before anything is allocated), the flags, every pointer
//! lane and the absence of trailing bytes; every failure is a typed
//! [`SnapshotError`].
//!
//! # Examples
//!
//! ```
//! use dew_core::{DewOptions, DewTree, PassConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pass = PassConfig::new(2, 0, 4, 2)?;
//! let mut tree = DewTree::new(pass, DewOptions::default())?;
//! for a in 0..1000u64 {
//!     tree.step(a * 4 % 512);
//! }
//! let snapshot = tree.to_snapshot();
//!
//! let mut restored = DewTree::from_snapshot(&snapshot)?;
//! restored.step(0x40); // continues exactly where `tree` would
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

/// Errors restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The buffer is a valid kernel snapshot, but for a *different* policy's
    /// kernel — each fused kernel writes its own magic (FIFO `DEWM`, LRU
    /// `DEWL`, tree-PLRU `DEWP`, SLRU `DEWU`) and rejects its siblings'.
    /// Distinguished from [`SnapshotError::BadMagic`] so resume paths can
    /// report a policy mixup rather than generic corruption.
    PolicyMismatch {
        /// The magic of the kernel that tried to restore the buffer.
        expected: [u8; 4],
        /// The magic actually found in the buffer.
        found: [u8; 4],
    },
    /// The snapshot was written by an unsupported format version.
    UnsupportedVersion(u8),
    /// The buffer ended before the state was complete, or geometry fields
    /// were invalid.
    Corrupt(&'static str),
    /// Trailing bytes after the complete state.
    TrailingBytes(usize),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a dew snapshot (bad magic)"),
            SnapshotError::PolicyMismatch { expected, found } => write!(
                f,
                "kernel snapshot policy mismatch: expected a {} buffer, found {}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found),
            ),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot state")
            }
        }
    }
}

impl Error for SnapshotError {}

pub(crate) use cursor::Cursor;

/// Private home of [`Cursor`]: nominally `pub` so the sealed
/// [`crate::arena::LanePolicy`] can name it in its snapshot hooks, yet
/// unreachable from outside the crate.
mod cursor {
    use super::{pow2_span, SnapshotError};

    /// A little-endian byte reader over a snapshot buffer.
    #[derive(Debug)]
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        pub(crate) fn new(buf: &'a [u8]) -> Self {
            Cursor { buf, pos: 0 }
        }

        pub(crate) fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
            if self.remaining() < n {
                return Err(SnapshotError::Corrupt("unexpected end of snapshot"));
            }
            let out = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        }

        pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
            Ok(self.bytes(1)?[0])
        }

        pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
            let b = self.bytes(4)?;
            Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
        }

        pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
            let b = self.bytes(8)?;
            Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
        }

        /// Fails unless the buffer still holds the lane state a header's
        /// geometry implies: every node of a forest over the set-count levels
        /// `set_bits` serializes at least an 8-byte MRA tag and an 8-byte tag
        /// per way, `ways` ways a node. A decoder calls this before it builds
        /// the arena the header describes, so a short buffer cannot make it
        /// allocate more than a constant factor of its own length.
        pub(crate) fn expect_lanes(
            &self,
            set_bits: (u32, u32),
            ways: u128,
        ) -> Result<(), SnapshotError> {
            let need = pow2_span(set_bits).saturating_mul(8 * ways.saturating_add(1));
            if need > self.remaining() as u128 {
                return Err(SnapshotError::Corrupt(
                    "geometry implies more state than the snapshot holds",
                ));
            }
            Ok(())
        }
    }
}

/// `Σ 2^b` for `b` in `lo..=hi` (0 for an inverted range): the node count
/// of a forest over those set-count levels, or the ways of lanes over those
/// associativities. Exponents are clamped, so a hostile header saturates
/// instead of overflowing.
pub(crate) fn pow2_span((lo, hi): (u32, u32)) -> u128 {
    if lo > hi {
        return 0;
    }
    (2u128 << hi.min(100)) - (1u128 << lo.min(100))
}

/// Little-endian append helpers for the writer side.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_what_writers_wrote() {
        let mut buf = Vec::new();
        buf.push(7u8);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8().expect("u8"), 7);
        assert_eq!(c.u32().expect("u32"), 0xdead_beef);
        assert_eq!(c.u64().expect("u64"), u64::MAX - 1);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn cursor_detects_truncation() {
        let buf = [1u8, 2, 3];
        let mut c = Cursor::new(&buf);
        assert!(c.u32().is_err());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            SnapshotError::BadMagic,
            SnapshotError::PolicyMismatch {
                expected: *b"DEWM",
                found: *b"DEWL",
            },
            SnapshotError::UnsupportedVersion(3),
            SnapshotError::Corrupt("x"),
            SnapshotError::TrailingBytes(9),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
