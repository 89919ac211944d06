//! The `.splog` container: one run's recording on the SPWAL frame
//! layer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "SPLOG"            5-byte magic
//! version: u16       = 3
//! frame*             kind: u8, len: u32, payload[len], crc32: u32
//! ```
//!
//! The frames are [`crate::wal`]'s, CRC and all: a Header frame (one
//! [`RunRecipe`]), one Record frame per [`NondetEvent`] in decision
//! order, one Record frame holding the recorded run's final
//! [`SuperPinReport`], then an End frame. A log is written atomically
//! in one shot, so it carries no commit markers. Its own magic keeps a
//! run log from ever being taken for a fleet journal; both are read by
//! the same walk, [`salvage_frames`].

use crate::codec::{get_event, get_report, put_event, put_report};
use crate::recipe::RunRecipe;
use crate::wal::{
    encode_frame, salvage_frames, FrameDamage, WAL_FRAME_END, WAL_FRAME_HEADER, WAL_FRAME_RECORD,
};
use crate::wire::{put_u16, CodecError, Reader};
use superpin::{NondetEvent, SuperPinReport};

/// Log magic bytes.
pub const MAGIC: &[u8; 5] = b"SPLOG";
/// Current log format version.
pub const VERSION: u16 = 3;

/// A fully parsed recording: recipe, decision stream, final report.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayLog {
    /// How to reconstruct the run's initial state.
    pub recipe: RunRecipe,
    /// The recorded decision stream, in order.
    pub events: Vec<NondetEvent>,
    /// The recorded run's final report (replay verifies against it).
    pub report: SuperPinReport,
}

impl ReplayLog {
    /// Serializes the log to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u16(&mut out, VERSION);
        let mut payload = Vec::new();
        self.recipe.encode(&mut payload);
        encode_frame(&mut out, WAL_FRAME_HEADER, &payload);
        for event in &self.events {
            payload.clear();
            put_event(&mut payload, event);
            encode_frame(&mut out, WAL_FRAME_RECORD, &payload);
        }
        payload.clear();
        put_report(&mut payload, &self.report);
        encode_frame(&mut out, WAL_FRAME_RECORD, &payload);
        encode_frame(&mut out, WAL_FRAME_END, &[]);
        out
    }

    /// Parses a log from bytes. Only a damage-free log that ends
    /// cleanly, with a header and a report, decodes.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadHeader`] on a bad magic/version or a missing
    /// header/report frame, [`CodecError::Damaged`] on a torn or corrupt
    /// frame, [`CodecError::Truncated`] when the end frame is missing,
    /// [`CodecError::BadTag`] on a frame kind out of place, and the
    /// payload codec's error on a malformed recipe, event, or report.
    pub fn decode(bytes: &[u8]) -> Result<ReplayLog, CodecError> {
        let salvaged = salvage_frames(bytes, MAGIC, VERSION)?;
        if let Some(damage) = salvaged.damage {
            return Err(CodecError::Damaged(damage));
        }
        if !salvaged.clean_end {
            return Err(CodecError::Truncated { what: "end frame" });
        }
        let Some((header, rest)) = salvaged
            .frames
            .split_first()
            .filter(|(header, _)| header.kind == WAL_FRAME_HEADER)
        else {
            return Err(CodecError::BadHeader {
                detail: "log has no header frame".to_owned(),
            });
        };
        // A clean end means the last frame is the end frame.
        let records = &rest[..rest.len().saturating_sub(1)];
        let Some((report, events)) = records.split_last() else {
            return Err(CodecError::BadHeader {
                detail: "log has no report frame".to_owned(),
            });
        };
        if let Some(frame) = records.iter().find(|frame| frame.kind != WAL_FRAME_RECORD) {
            return Err(CodecError::BadTag {
                what: "log frame kind",
                tag: u64::from(frame.kind),
            });
        }
        Ok(ReplayLog {
            recipe: RunRecipe::decode(&mut Reader::new(&header.payload))?,
            events: events
                .iter()
                .map(|frame| get_event(&mut Reader::new(&frame.payload)))
                .collect::<Result<_, _>>()?,
            report: get_report(&mut Reader::new(&report.payload))?,
        })
    }
}

/// Turns a [`ReplayLog::decode`] failure into an actionable message by
/// re-walking the frames: "truncated" when the log is a clean prefix
/// that simply stops (kill mid-write), "corrupt at byte X" when a frame
/// fails its CRC or is structurally wrong, and the raw codec error when
/// every frame is intact but the content is not.
pub fn explain_decode_failure(bytes: &[u8], err: &CodecError) -> String {
    let Ok(salvaged) = salvage_frames(bytes, MAGIC, VERSION) else {
        // Preamble-level: the codec error already says it all.
        return err.to_string();
    };
    let records = salvaged
        .frames
        .iter()
        .filter(|frame| frame.kind == WAL_FRAME_RECORD)
        .count();
    let census = format!("{records} record frame(s) intact");
    match &salvaged.damage {
        Some(FrameDamage::Torn { offset }) => format!(
            "truncated mid-frame at byte {offset} ({census}, last good frame ends at \
             byte {}); re-record the run",
            salvaged.valid_len
        ),
        Some(corrupt @ FrameDamage::Corrupt { .. }) => format!("{corrupt} ({census})"),
        None if !salvaged.clean_end => {
            format!("truncated ({census}, end frame missing); re-record the run")
        }
        None => format!("{err} (every frame is intact: {census})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin::{AdmissionDecision, TimeBreakdown};
    use superpin_vm::ptrace::PtraceStats;
    use superpin_workloads::Scale;

    fn empty_report() -> SuperPinReport {
        SuperPinReport {
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
        }
    }

    fn sample_log() -> ReplayLog {
        ReplayLog {
            recipe: RunRecipe::standard("gcc", Scale::Tiny),
            events: vec![
                NondetEvent::EpochPlan { planned: 4 },
                NondetEvent::Admission {
                    decision: AdmissionDecision::Admit,
                    dropped: vec![],
                    evicted: vec![3],
                },
                NondetEvent::FaultLedger {
                    slice_retries: 0,
                    slices_degraded: 0,
                },
            ],
            report: empty_report(),
        }
    }

    #[test]
    fn log_round_trips() {
        let log = sample_log();
        let bytes = log.encode();
        assert_eq!(&bytes[..5], MAGIC);
        assert_eq!(ReplayLog::decode(&bytes).unwrap(), log);
    }

    #[test]
    fn bad_magic_version_and_truncation_are_rejected() {
        let log = sample_log();
        let bytes = log.encode();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            ReplayLog::decode(&bad_magic),
            Err(CodecError::BadHeader { .. })
        ));

        let mut bad_version = bytes.clone();
        bad_version[5] = 0xFF;
        assert!(matches!(
            ReplayLog::decode(&bad_version),
            Err(CodecError::BadHeader { .. })
        ));

        // Cutting into the end frame must not silently parse.
        let truncated = &bytes[..bytes.len() - 5];
        assert!(matches!(
            ReplayLog::decode(truncated),
            Err(CodecError::Damaged(FrameDamage::Torn { .. }))
        ));

        // A flipped frame kind fails the frame's CRC.
        let mut bad_frame = bytes.clone();
        bad_frame[7] = 0x7E; // header frame's kind byte
        assert!(matches!(
            ReplayLog::decode(&bad_frame),
            Err(CodecError::Damaged(FrameDamage::Corrupt { offset: 7, .. }))
        ));
    }

    #[test]
    fn intact_frames_in_the_wrong_shape_are_rejected() {
        let log = sample_log();
        let mut recipe = Vec::new();
        log.recipe.encode(&mut recipe);
        let shaped = |frames: &[(u8, &[u8])]| {
            let mut out = MAGIC.to_vec();
            put_u16(&mut out, VERSION);
            for (kind, payload) in frames {
                encode_frame(&mut out, *kind, payload);
            }
            out
        };

        let no_end = shaped(&[(WAL_FRAME_HEADER, &recipe)]);
        assert_eq!(
            ReplayLog::decode(&no_end),
            Err(CodecError::Truncated { what: "end frame" })
        );
        let no_header = shaped(&[(WAL_FRAME_END, &[])]);
        assert!(matches!(
            ReplayLog::decode(&no_header),
            Err(CodecError::BadHeader { .. })
        ));
        let no_report = shaped(&[(WAL_FRAME_HEADER, &recipe), (WAL_FRAME_END, &[])]);
        assert!(matches!(
            ReplayLog::decode(&no_report),
            Err(CodecError::BadHeader { .. })
        ));
        let committed = shaped(&[
            (WAL_FRAME_HEADER, &recipe),
            (crate::wal::WAL_FRAME_COMMIT, &1u64.to_le_bytes()),
            (WAL_FRAME_END, &[]),
        ]);
        assert!(matches!(
            ReplayLog::decode(&committed),
            Err(CodecError::BadTag { .. })
        ));
    }
}
