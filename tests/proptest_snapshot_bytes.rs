//! Byte-level fuzz of every snapshot decoder: the five kernel formats (the
//! per-pass `DewTree` and the four fused policy kernels, each fast and
//! instrumented) and a `DEWC` sweep checkpoint. Arbitrary bytes, every
//! truncation of a valid buffer, valid headers over random state and
//! single-byte flips of valid buffers must each decode to either `Ok` —
//! whose re-serialisation reproduces the input bytes — or a typed error.
//! No input may panic a decoder.

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use dew_core::lru_tree::{LruTreeOptions, LruTreeSimulator};
use dew_core::plru_tree::{PlruTreeOptions, PlruTreeSimulator};
use dew_core::slru_tree::SlruTreeSimulator;
use dew_core::snapshot::SnapshotError;
use dew_core::{
    ConfigSpace, DewOptions, DewTree, MemoryCheckpointStore, MultiAssocTree, NoSleep, PassConfig,
    PolicyKernel, Resilience, RetryPolicy, SweepCheckpoint, SweepRequest,
};
use dew_trace::Record;

/// A decoder paired with its re-serialiser: `Ok` carries the bytes the
/// decoded value writes back.
type RoundTrip = fn(&[u8]) -> Result<Vec<u8>, SnapshotError>;

const DECODERS: [(&str, RoundTrip); 6] = [
    ("DewTree", |b| {
        DewTree::from_snapshot(b).map(|k| k.to_snapshot())
    }),
    ("fifo", |b| {
        MultiAssocTree::from_snapshot(b).map(|k| k.to_snapshot())
    }),
    ("lru", |b| {
        LruTreeSimulator::from_snapshot(b).map(|k| k.to_snapshot())
    }),
    ("plru", |b| {
        PlruTreeSimulator::from_snapshot(b).map(|k| k.to_snapshot())
    }),
    ("slru", |b| {
        SlruTreeSimulator::from_snapshot(b).map(|k| k.to_snapshot())
    }),
    ("DEWC", |b| {
        SweepCheckpoint::from_bytes(b).map(|c| c.to_bytes())
    }),
];

/// Bytes every kernel header occupies: magic, version, five `u32` geometry
/// fields and the flags byte. A `DEWC` header is magic, version, policy,
/// fingerprint and job count: 18 bytes.
const KERNEL_HEADER: usize = 26;
const DEWC_HEADER: usize = 18;

/// Runs every decoder on `bytes`. An `Ok` must re-serialise to `bytes`;
/// an error is typed by construction. Returns how many decoders accepted.
fn decode_all(bytes: &[u8]) -> Result<usize, TestCaseError> {
    let mut accepted = 0;
    for (name, round_trip) in DECODERS {
        if let Ok(again) = round_trip(bytes) {
            prop_assert!(
                again == bytes,
                "{name}: an accepted {}-byte input re-serialised to {} different bytes",
                bytes.len(),
                again.len()
            );
            accepted += 1;
        }
    }
    Ok(accepted)
}

/// A short mixed-locality trace that fills, evicts and re-inserts.
fn addrs() -> Vec<u64> {
    let mut x = 0x5EED_B17E_u64;
    (0..600)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if i % 5 == 0 {
                x % (1 << 11)
            } else {
                (x % 40) * 4
            }
        })
        .collect()
}

fn filled(mut kernel: impl PolicyKernel, blocks: &[u64]) -> Vec<u8> {
    kernel.run_blocks(blocks);
    kernel.to_snapshot()
}

/// Valid buffers: every kernel format fast and instrumented (the per-pass
/// tree under FIFO and LRU), plus one `DEWC` image, each with its header
/// length.
fn valid_buffers() -> &'static [(Vec<u8>, usize)] {
    static BUFFERS: OnceLock<Vec<(Vec<u8>, usize)>> = OnceLock::new();
    BUFFERS.get_or_init(|| {
        let addrs = addrs();
        let blocks: Vec<u64> = addrs.iter().map(|a| a >> 2).collect();
        let mut out = Vec::new();
        for instrument in [false, true] {
            let pass = PassConfig::new(2, 0, 3, 4).expect("valid");
            for opts in [DewOptions::default(), DewOptions::lru()] {
                let mut tree =
                    DewTree::with_instrumentation(pass, opts, instrument).expect("sound");
                tree.run_blocks(&blocks);
                out.push(tree.to_snapshot());
            }
            let (sets, assocs) = ((0, 3), (0, 2));
            out.push(filled(
                MultiAssocTree::with_instrumentation(
                    2,
                    sets,
                    assocs,
                    DewOptions::default(),
                    instrument,
                )
                .expect("valid"),
                &blocks,
            ));
            out.push(filled(
                LruTreeSimulator::with_instrumentation(
                    2,
                    sets,
                    assocs,
                    LruTreeOptions::default(),
                    instrument,
                )
                .expect("valid"),
                &blocks,
            ));
            out.push(filled(
                PlruTreeSimulator::with_instrumentation(
                    2,
                    sets,
                    assocs,
                    PlruTreeOptions::default(),
                    instrument,
                )
                .expect("valid"),
                &blocks,
            ));
            out.push(filled(
                SlruTreeSimulator::with_instrumentation(2, sets, assocs, (), instrument)
                    .expect("valid"),
                &blocks,
            ));
        }
        let mut buffers: Vec<(Vec<u8>, usize)> =
            out.into_iter().map(|b| (b, KERNEL_HEADER)).collect();
        let space = ConfigSpace::new((0, 2), (2, 3), (0, 1)).expect("valid");
        let records: Vec<Record> = addrs.iter().map(|&a| Record::read(a)).collect();
        let store = MemoryCheckpointStore::new();
        let res = Resilience::new()
            .with_retry(RetryPolicy::none())
            .with_sleeper(&NoSleep)
            .with_checkpoint(256, &store);
        SweepRequest::new(&space)
            .resilient(&res)
            .run(&records)
            .expect("checkpointed sweep");
        buffers.push((store.latest().expect("a completion image"), DEWC_HEADER));
        buffers
    })
}

fn pick(index: u64) -> &'static (Vec<u8>, usize) {
    let buffers = valid_buffers();
    &buffers[(index % buffers.len() as u64) as usize]
}

#[test]
fn valid_buffers_decode_with_exactly_one_decoder() {
    for (bytes, _) in valid_buffers() {
        assert_eq!(decode_all(bytes).expect("round-trips"), 1);
    }
}

#[test]
fn every_truncation_fails_typed() {
    for (bytes, _) in valid_buffers() {
        for len in 0..bytes.len() {
            let accepted = decode_all(&bytes[..len]).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(accepted, 0, "a {len}-byte prefix decoded");
        }
    }
}

#[test]
fn every_header_byte_flip_decodes_or_fails_typed() {
    for (valid, header) in valid_buffers() {
        for at in 0..*header {
            for mask in 1..=u8::MAX {
                let mut bytes = valid.clone();
                bytes[at] ^= mask;
                decode_all(&bytes).unwrap_or_else(|e| panic!("byte {at} ^ {mask:#x}: {e}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        magic in any::<u64>(),
    ) {
        decode_all(&bytes)?;
        // The same bytes behind each format's real magic reach the
        // version, geometry and state checks.
        let (valid, _) = pick(magic);
        let mut framed = valid[..4].to_vec();
        framed.extend_from_slice(&bytes);
        decode_all(&framed)?;
    }

    #[test]
    fn valid_headers_over_random_state_decode_or_fail_typed(
        index in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let (valid, header) = pick(index);
        let mut bytes = valid[..*header].to_vec();
        let mut x = seed | 1;
        bytes.extend((*header..valid.len()).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        }));
        decode_all(&bytes)?;
    }

    #[test]
    fn single_byte_flips_decode_or_fail_typed(
        index in any::<u64>(),
        position in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let (valid, _) = pick(index);
        let mut bytes = valid.clone();
        let at = (position % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        decode_all(&bytes)?;
    }
}
