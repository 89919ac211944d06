//! Adversarial-input suite for every on-disk container this crate
//! reads: `SPWAL` fleet journals and `.splog` recordings, both on one
//! CRC-framed layer.
//!
//! The contract under fuzz: arbitrary byte flips and truncations may
//! make a file undecodable, but they must **never panic a reader** —
//! every path returns a typed error or a salvage that stops at the
//! damage. Plus the salvage invariants recovery leans on: the durable
//! prefix is always structurally clean, and truncating a journal can
//! only shorten (never change) the committed round sequence.

use proptest::prelude::*;
use superpin::FailPlan;
use superpin_replay::fleet::{recover_fleet_wal, FleetEvent, FleetRecipe, RoundFrame};
use superpin_replay::log::explain_decode_failure;
use superpin_replay::wal::{
    salvage, salvage_frames, FsyncPolicy, MemSink, WalSalvage, WalWriter, WAL_FRAME_RECORD,
};
use superpin_replay::{CodecError, ReplayLog, RunRecipe, MAGIC, VERSION};
use superpin_workloads::Scale;

fn sample_recipe() -> FleetRecipe {
    FleetRecipe {
        spec_text: "tenant a weight=1\njob tenant=a workload=x\n".to_owned(),
        threads: 2,
        slots: 2,
        fleet_budget: Some(1 << 20),
        chaos: Some(FailPlan::new(3, 0.02)),
        spmsec: 1000,
    }
}

fn sample_round(round: u64) -> RoundFrame {
    RoundFrame {
        round,
        fleet_now: round * 1717,
        selected: vec![0, round as u32 % 3],
        deltas: vec![1500 + round, 900],
        events: vec![
            FleetEvent::Admit {
                job: round as u32,
                fleet_now: round * 1717,
                budget: round.is_multiple_of(2).then_some(4096),
            },
            FleetEvent::Complete {
                job: round as u32,
                fleet_now: round * 1717 + 3,
            },
        ],
        usages: vec![round * 64, 128],
    }
}

/// A well-formed 12-round WAL, sealed with an end frame.
fn sample_wal() -> Vec<u8> {
    let sink = MemSink::new();
    let mut writer =
        WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, None).expect("wal opens");
    let mut header = Vec::new();
    sample_recipe().encode_into(&mut header);
    writer.append(0x01, &header).expect("header");
    for round in 1..=12u64 {
        writer
            .append(WAL_FRAME_RECORD, &sample_round(round).encode())
            .expect("record");
        writer.commit(round).expect("commit");
    }
    writer.end().expect("end");
    sink.bytes()
}

fn sample_splog() -> Vec<u8> {
    use superpin::{AdmissionDecision, NondetEvent, SuperPinReport, TimeBreakdown};
    use superpin_vm::ptrace::PtraceStats;
    let report = SuperPinReport {
        total_cycles: 10,
        master_exit_cycles: 8,
        breakdown: TimeBreakdown::default(),
        master_insts: 5,
        master_syscalls: 1,
        ptrace: PtraceStats::default(),
        slices: Vec::new(),
        sig_stats: Default::default(),
        forks_on_timeout: 0,
        forks_on_syscall: 0,
        stall_events: 0,
        master_cow_copies: 0,
        epochs: 2,
        slice_retries: 0,
        slices_degraded: 0,
        peak_resident_bytes: 0,
        slices_deferred: 0,
        checkpoints_dropped: 0,
        caches_evicted: 0,
    };
    ReplayLog {
        recipe: RunRecipe::standard("gcc", Scale::Tiny),
        events: vec![
            NondetEvent::EpochPlan { planned: 4 },
            NondetEvent::Admission {
                decision: AdmissionDecision::Admit,
                dropped: vec![],
                evicted: vec![3],
            },
        ],
        report,
    }
    .encode()
}

/// The `.splog` walk: the shared frame walker behind the `SPLOG`
/// preamble.
fn walk_splog(bytes: &[u8]) -> Result<WalSalvage, CodecError> {
    salvage_frames(bytes, MAGIC, VERSION)
}

/// Exhaustive truncation: a WAL cut at *every* byte offset — every
/// frame boundary and every mid-frame position — either salvages to a
/// clean prefix of the original round sequence or reports a bad
/// preamble; no cut panics.
#[test]
fn wal_truncated_at_every_offset_salvages_or_rejects() {
    let wal = sample_wal();
    let full = recover_fleet_wal(&wal).expect("intact wal recovers");
    assert_eq!(full.rounds.len(), 12);
    assert!(full.clean_end);
    for cut in 0..=wal.len() {
        let prefix = &wal[..cut];
        match salvage(prefix) {
            Err(CodecError::BadHeader { .. }) => {
                assert!(cut < 7, "preamble rejection past the preamble (cut {cut})");
                continue;
            }
            Err(other) => panic!("cut {cut}: unexpected error class {other}"),
            Ok(scanned) => {
                assert!(scanned.committed_len <= scanned.valid_len);
                assert!(scanned.valid_len <= cut);
                // The durable prefix must itself scan clean: salvage is
                // idempotent, so resume never chases its own tail.
                let again = salvage(&prefix[..scanned.committed_len]).expect("prefix scans");
                assert!(again.damage.is_none(), "durable prefix damaged (cut {cut})");
                assert_eq!(again.commits, scanned.commits);
            }
        }
        match recover_fleet_wal(prefix) {
            Err(_) => {} // no intact header frame yet — typed, not a panic
            Ok(recovered) => {
                assert!(
                    recovered.rounds.len() <= full.rounds.len(),
                    "cut {cut}: salvage invented rounds"
                );
                assert_eq!(
                    recovered.rounds[..],
                    full.rounds[..recovered.rounds.len()],
                    "cut {cut}: salvage changed committed history"
                );
            }
        }
    }
}

/// Exhaustive truncation of a `.splog`: every cut either decodes (only
/// the full file) or yields a typed error whose explanation names
/// truncation or corruption; the frame walk stays within bounds.
#[test]
fn splog_truncated_at_every_offset_explains_itself() {
    let log = sample_splog();
    for cut in 0..log.len() {
        let prefix = &log[..cut];
        let err = ReplayLog::decode(prefix).expect_err("a cut log cannot decode whole");
        let explained = explain_decode_failure(prefix, &err);
        assert!(!explained.is_empty());
        if cut >= 7 {
            let scanned = walk_splog(prefix).expect("preamble intact");
            assert!(scanned.valid_len <= cut);
            assert!(
                explained.contains("truncated") || explained.contains("corrupt"),
                "cut {cut}: unhelpful explanation `{explained}`"
            );
        }
    }
}

/// Every frame carries a CRC: a single bit flipped at *any* offset of a
/// `.splog` — preamble, frame kind, length, payload, or CRC — never
/// decodes to `Ok`.
#[test]
fn splog_single_bit_flip_never_decodes() {
    let log = sample_splog();
    assert!(ReplayLog::decode(&log).is_ok(), "the pristine log decodes");
    for index in 0..log.len() {
        for bit in 0..8 {
            let mut flipped = log.clone();
            flipped[index] ^= 1 << bit;
            assert!(
                ReplayLog::decode(&flipped).is_err(),
                "bit {bit} of byte {index} flipped and the log still decoded"
            );
        }
    }
}

/// Regression for an allocation abort: flipping bit 0 of an event's
/// tag turns `Complete` (13 bytes) into `Evict` (21 bytes), so the
/// event reader swallows the count that follows it and the next count
/// is read from the middle of a later field. A count read that way
/// from the text `{"jo` (1.87e9) once sized a ~45 GB
/// `Vec::with_capacity`. Here the flip in a round frame's last event
/// makes the usage count come from the high half of the first usage,
/// planted as that text. The same bogus count planted in each count
/// field of a round frame must also come back as a typed error.
#[test]
fn damaged_counts_are_typed_errors_not_allocations() {
    let bogus = u32::from_le_bytes(*b"{\"jo");
    let mut round = sample_round(5);
    round.usages[0] = u64::from(bogus) << 32;
    let mut flipped = round.encode();
    let mut complete = vec![3];
    complete.extend_from_slice(&5u32.to_le_bytes());
    complete.extend_from_slice(&(5 * 1717 + 3u64).to_le_bytes());
    let tag = flipped
        .windows(complete.len())
        .position(|window| window == complete)
        .expect("sample round holds the Complete event");
    flipped[tag] ^= 1;
    assert_eq!(
        RoundFrame::decode(&flipped),
        Err(CodecError::Truncated {
            what: "usage count"
        })
    );

    let frame = sample_round(5).encode();
    // Offsets of the selection, delta, event, and usage counts: two
    // selected ids, two deltas, and two usages.
    let selected_at = 16;
    let deltas_at = selected_at + 4 + 2 * 4;
    let events_at = deltas_at + 4 + 2 * 8;
    let usages_at = frame.len() - (4 + 2 * 8);
    for (at, what) in [
        (selected_at, "selection count"),
        (deltas_at, "delta count"),
        (events_at, "event count"),
        (usages_at, "usage count"),
    ] {
        let mut damaged = frame.clone();
        damaged[at..at + 4].copy_from_slice(&bogus.to_le_bytes());
        assert_eq!(
            RoundFrame::decode(&damaged),
            Err(CodecError::Truncated { what }),
            "{what}"
        );
    }
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// Any single bit flip in a WAL: readers return typed results,
    /// and whatever salvage reports committed is a clean prefix.
    #[test]
    fn prop_wal_survives_bit_flips(pos in 0usize..8192, bit in 0u32..8) {
        let mut wal = sample_wal();
        let index = pos % wal.len();
        wal[index] ^= 1 << bit;
        if let Ok(scanned) = salvage(&wal) {
            prop_assert!(scanned.committed_len <= scanned.valid_len);
            prop_assert!(scanned.valid_len <= wal.len());
        }
        let _ = recover_fleet_wal(&wal); // must not panic
    }

    /// Multi-byte stomp: overwrite a window with arbitrary bytes.
    #[test]
    fn prop_wal_survives_stomps(
        pos in 0usize..8192,
        len in 1usize..64,
        fill in 0u32..256,
    ) {
        let mut wal = sample_wal();
        let start = pos % wal.len();
        let end = (start + len).min(wal.len());
        for byte in &mut wal[start..end] {
            *byte = fill as u8;
        }
        let _ = salvage(&wal);
        let _ = recover_fleet_wal(&wal);
    }

    /// Any single bit flip in a `.splog`: decode returns Ok or a typed
    /// error, and the error's explanation never panics either.
    #[test]
    fn prop_splog_survives_bit_flips(pos in 0usize..8192, bit in 0u32..8) {
        let mut log = sample_splog();
        let index = pos % log.len();
        log[index] ^= 1 << bit;
        if let Err(err) = ReplayLog::decode(&log) {
            let explained = explain_decode_failure(&log, &err);
            prop_assert!(!explained.is_empty());
        }
        let _ = walk_splog(&log);
    }

    /// WAL frame payloads of arbitrary junk round-trip through the
    /// writer and salvage cleanly (the container is content-agnostic).
    #[test]
    fn prop_wal_roundtrips_arbitrary_payloads(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u32..256, 0..96),
            1..12,
        ),
    ) {
        let sink = MemSink::new();
        let mut writer = WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, None)
            .expect("wal opens");
        for (seq, payload) in payloads.iter().enumerate() {
            let bytes: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
            writer.append(WAL_FRAME_RECORD, &bytes).expect("append");
            writer.commit(seq as u64 + 1).expect("commit");
        }
        writer.end().expect("end");
        let scanned = salvage(&sink.bytes()).expect("scans");
        prop_assert!(scanned.damage.is_none());
        prop_assert!(scanned.clean_end);
        prop_assert_eq!(scanned.commits, payloads.len() as u64);
        let recovered: Vec<Vec<u8>> = scanned
            .frames
            .iter()
            .filter(|frame| frame.kind == WAL_FRAME_RECORD)
            .map(|frame| frame.payload.clone())
            .collect();
        let expected: Vec<Vec<u8>> = payloads
            .iter()
            .map(|payload| payload.iter().map(|&b| b as u8).collect())
            .collect();
        prop_assert_eq!(recovered, expected);
    }
}
