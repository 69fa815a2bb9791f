//! Workspace-level tests for the checkpointing and phase-analysis
//! extensions: snapshots must survive the filesystem and resume exactly;
//! timelines must expose the phase structure of the Mediabench surrogates.

use dew_core::lru_tree::{LruTreeOptions, LruTreeSimulator};
use dew_core::plru_tree::{PlruTreeOptions, PlruTreeSimulator};
use dew_core::slru_tree::SlruTreeSimulator;
use dew_core::snapshot::SnapshotError;
use dew_core::{
    sweep_fingerprint, ConfigSpace, DewError, DewOptions, DewTree, MissTimeline, MultiAssocTree,
    PassConfig, Resilience, SweepCheckpoint, SweepRequest, TreePolicy, CKPT_MAGIC, CKPT_VERSION,
};
use dew_trace::Record;
use dew_workloads::mediabench::App;

/// The first `header_len` bytes of a real snapshot with both set-count
/// fields (bytes 9..17 in every format) rewritten to declare `2^26` sets:
/// a header promising gigabytes of lane state and carrying none of it.
fn oversized_header(mut snapshot: Vec<u8>, header_len: usize) -> Vec<u8> {
    snapshot.truncate(header_len);
    snapshot[9..13].copy_from_slice(&26u32.to_le_bytes());
    snapshot[13..17].copy_from_slice(&26u32.to_le_bytes());
    snapshot
}

fn oversized_plru_header() -> Vec<u8> {
    let plru = PlruTreeSimulator::with_instrumentation(
        2,
        (0, 3),
        (0, 2),
        PlruTreeOptions::default(),
        false,
    )
    .expect("valid");
    oversized_header(plru.to_snapshot(), 26)
}

#[test]
fn snapshot_survives_disk_and_resumes_exactly() {
    let trace = App::G721Encode.generate(40_000, 12);
    let records = trace.records();
    let (head, tail) = records.split_at(records.len() / 2);
    let pass = PassConfig::new(2, 0, 10, 4).expect("valid");

    // Uninterrupted run.
    let mut straight = DewTree::new(pass, DewOptions::default()).expect("sound");
    straight.run(records.iter().copied());

    // Checkpoint through a file, as a batch job would.
    let mut first_half = DewTree::new(pass, DewOptions::default()).expect("sound");
    first_half.run(head.iter().copied());
    let dir = std::env::temp_dir().join("dew_snapshot_test");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(format!("ckpt{}.dews", std::process::id()));
    std::fs::write(&path, first_half.to_snapshot()).expect("write snapshot");
    drop(first_half);

    let bytes = std::fs::read(&path).expect("read snapshot");
    let mut resumed = DewTree::from_snapshot(&bytes).expect("restore");
    resumed.run(tail.iter().copied());
    let _ = std::fs::remove_file(&path);

    assert_eq!(resumed.results(), straight.results());
    assert_eq!(resumed.counters(), straight.counters());
}

#[test]
fn fused_fifo_kernel_snapshot_resumes_exactly() {
    // The arena kernel behind the fused FIFO sweep (and the sharded
    // snapshot-handoff path): checkpoint mid-trace, restore into a fresh
    // kernel, continue — results and counters must match an uninterrupted
    // run bit for bit, instrumented or not.
    let trace = App::JpegDecode.generate(30_000, 5);
    let records = trace.records();
    let (head, tail) = records.split_at(records.len() / 3);
    for instrument in [false, true] {
        let mut straight = MultiAssocTree::with_instrumentation(
            4,
            (0, 7),
            (0, 3),
            DewOptions::default(),
            instrument,
        )
        .expect("valid");
        straight.run(records.iter().copied());

        let mut first = MultiAssocTree::with_instrumentation(
            4,
            (0, 7),
            (0, 3),
            DewOptions::default(),
            instrument,
        )
        .expect("valid");
        first.run(head.iter().copied());
        let bytes = first.to_snapshot();
        drop(first);
        let mut resumed = MultiAssocTree::from_snapshot(&bytes).expect("restore");
        resumed.run(tail.iter().copied());

        assert_eq!(resumed.results(), straight.results());
        for assoc in [1u32, 2, 4, 8] {
            assert_eq!(resumed.pass_results(assoc), straight.pass_results(assoc));
            assert_eq!(resumed.pass_counters(assoc), straight.pass_counters(assoc));
        }
    }
}

#[test]
fn fused_lru_kernel_snapshot_resumes_exactly() {
    let trace = App::Mpeg2Encode.generate(30_000, 8);
    let records = trace.records();
    let (head, tail) = records.split_at(2 * records.len() / 3);
    let opts = LruTreeOptions {
        depth_zero_stop: true,
        duplicate_elision: true,
    };
    for instrument in [false, true] {
        let mut straight =
            LruTreeSimulator::with_instrumentation(3, (0, 6), (0, 2), opts, instrument)
                .expect("valid");
        straight.run(records.iter().copied());

        let mut first = LruTreeSimulator::with_instrumentation(3, (0, 6), (0, 2), opts, instrument)
            .expect("valid");
        first.run(head.iter().copied());
        let bytes = first.to_snapshot();
        drop(first);
        let mut resumed = LruTreeSimulator::from_snapshot(&bytes).expect("restore");
        resumed.run(tail.iter().copied());

        assert_eq!(resumed.results(), straight.results());
        for assoc in [1u32, 2, 4] {
            assert_eq!(resumed.pass_results(assoc), straight.pass_results(assoc));
            assert_eq!(resumed.pass_counters(assoc), straight.pass_counters(assoc));
        }
    }
}

#[test]
fn kernel_snapshots_reject_foreign_and_corrupt_buffers() {
    let fifo =
        MultiAssocTree::with_instrumentation(2, (0, 4), (0, 2), DewOptions::default(), false)
            .expect("valid");
    let lru = LruTreeSimulator::with_instrumentation(
        2,
        (0, 4),
        (0, 2),
        LruTreeOptions {
            depth_zero_stop: true,
            duplicate_elision: false,
        },
        false,
    )
    .expect("valid");
    let fifo_bytes = fifo.to_snapshot();
    let lru_bytes = lru.to_snapshot();
    // Each kernel's magic protects it from the other's bytes — and a
    // valid-but-wrong sibling magic gets the dedicated policy-mismatch
    // diagnosis (naming both formats), not a generic bad-magic error.
    match MultiAssocTree::from_snapshot(&lru_bytes) {
        Err(SnapshotError::PolicyMismatch { expected, found }) => {
            assert_eq!(&expected, b"DEWM");
            assert_eq!(&found, b"DEWL");
        }
        other => panic!("expected PolicyMismatch, got {other:?}"),
    }
    match LruTreeSimulator::from_snapshot(&fifo_bytes) {
        Err(SnapshotError::PolicyMismatch { expected, found }) => {
            assert_eq!(&expected, b"DEWL");
            assert_eq!(&found, b"DEWM");
        }
        other => panic!("expected PolicyMismatch, got {other:?}"),
    }
    // An unrelated magic (`DewTree`'s `DEWA` arena format) stays a plain BadMagic.
    let dewtree_bytes = DewTree::new(
        PassConfig::new(2, 0, 4, 2).expect("valid"),
        DewOptions::default(),
    )
    .expect("sound")
    .to_snapshot();
    assert!(matches!(
        MultiAssocTree::from_snapshot(&dewtree_bytes),
        Err(SnapshotError::BadMagic)
    ));
    // Truncation and trailing garbage are rejected, not misread.
    assert!(MultiAssocTree::from_snapshot(&fifo_bytes[..fifo_bytes.len() - 1]).is_err());
    assert!(LruTreeSimulator::from_snapshot(&lru_bytes[..8]).is_err());
    let mut padded = fifo_bytes.clone();
    padded.push(0);
    assert!(MultiAssocTree::from_snapshot(&padded).is_err());
}

#[test]
fn oversized_headers_are_rejected_before_the_arena_is_built() {
    let corrupt = |r: Result<(), SnapshotError>| matches!(r, Err(SnapshotError::Corrupt(_)));
    let plru = oversized_plru_header();
    assert_eq!(plru.len(), 26);
    assert!(corrupt(PlruTreeSimulator::from_snapshot(&plru).map(drop)));

    let fifo =
        MultiAssocTree::with_instrumentation(2, (0, 3), (0, 2), DewOptions::default(), false)
            .expect("valid");
    let fifo = oversized_header(fifo.to_snapshot(), 26);
    assert!(corrupt(MultiAssocTree::from_snapshot(&fifo).map(drop)));
    let lru =
        LruTreeSimulator::with_instrumentation(2, (0, 3), (0, 2), LruTreeOptions::default(), false)
            .expect("valid");
    let lru = oversized_header(lru.to_snapshot(), 26);
    assert!(corrupt(LruTreeSimulator::from_snapshot(&lru).map(drop)));
    let slru =
        SlruTreeSimulator::with_instrumentation(2, (0, 3), (0, 2), (), false).expect("valid");
    let slru = oversized_header(slru.to_snapshot(), 26);
    assert!(corrupt(SlruTreeSimulator::from_snapshot(&slru).map(drop)));
    let tree = DewTree::new(
        PassConfig::new(2, 0, 3, 4).expect("valid"),
        DewOptions::default(),
    )
    .expect("sound");
    let tree = oversized_header(tree.to_snapshot(), 26);
    assert!(corrupt(DewTree::from_snapshot(&tree).map(drop)));
}

#[test]
fn resume_rejects_a_checkpoint_carrying_an_oversized_kernel_header() {
    let space = ConfigSpace::new((0, 3), (2, 2), (0, 2)).expect("valid");
    let options = DewOptions::for_policy(TreePolicy::Plru);
    let kernel = oversized_plru_header();
    // A DEWC image whose one job (4-byte blocks) carries the hostile kernel.
    let mut image = CKPT_MAGIC.to_vec();
    image.push(CKPT_VERSION);
    image.push(2); // policy byte: tree-PLRU
    image.extend_from_slice(&sweep_fingerprint(&space, options).to_le_bytes());
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(&2u32.to_le_bytes());
    image.extend_from_slice(&0u64.to_le_bytes());
    image.push(0);
    image.extend_from_slice(&(kernel.len() as u32).to_le_bytes());
    image.extend_from_slice(&kernel);
    let ckpt = SweepCheckpoint::from_bytes(&image).expect("kernels are carried opaquely");

    let records: Vec<Record> = (0..64u64).map(|i| Record::read(i * 4)).collect();
    let res = Resilience::new().resume_from(&ckpt);
    let err = SweepRequest::new(&space)
        .options(options)
        .resilient(&res)
        .run(&records)
        .expect_err("the hostile kernel must not be restored");
    assert!(matches!(err, DewError::Checkpoint(_)), "{err}");
}

#[test]
fn snapshot_size_tracks_the_forest_footprint() {
    let pass = PassConfig::new(2, 0, 8, 4).expect("valid");
    let tree = DewTree::new(pass, DewOptions::default()).expect("sound");
    let snapshot = tree.to_snapshot();
    // Ways dominate: (2^9 - 1) nodes x 4 entries x 12 bytes payload, plus
    // metadata; the snapshot must be within 3x of the in-memory footprint
    // and never trivially small.
    assert!(snapshot.len() > tree.footprint_bytes() / 2);
    assert!(snapshot.len() < tree.footprint_bytes() * 3);
}

#[test]
fn mediabench_timelines_are_stable_within_an_app() {
    // The surrogates are repetitive unit loops: after warm-up, windowed miss
    // rates should stay within a modest band (no phantom phase changes), and
    // the timeline must agree with an unwindowed run.
    let trace = App::JpegEncode.generate(120_000, 9);
    let pass = PassConfig::new(4, 0, 10, 4).expect("valid");
    let timeline = MissTimeline::collect(pass, DewOptions::default(), trace.records(), 10_000)
        .expect("collect");

    let mut plain = DewTree::new(pass, DewOptions::default()).expect("sound");
    plain.run(trace.iter().copied());
    assert_eq!(timeline.final_results(), &plain.results());

    let series = timeline.series(256, 4).expect("simulated");
    let steady = &series[2..];
    let (lo, hi) = steady.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    assert!(
        hi - lo < 0.2,
        "steady-state windows should stay in a narrow band: {lo:.4}..{hi:.4}"
    );
}
