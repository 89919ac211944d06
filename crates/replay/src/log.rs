//! The `.splog` container: magic, version, and framed records.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "SPLOG"            5-byte magic
//! version: u16       = 2
//! frame*             type: u8, len: u32, payload[len]
//! ```
//!
//! Frame types: `0x01` Header (one [`RunRecipe`], first), `0x02` Event
//! (one [`NondetEvent`], in decision order), `0x03` Report (the recorded
//! run's final [`SuperPinReport`]), `0x04` End (empty; guards against
//! silent truncation). Unknown frame types are a decode error — readers
//! of a future minor version must bump [`VERSION`] instead of relying on
//! skip-forward.

use crate::codec::{get_event, get_report, put_event, put_report};
use crate::recipe::RunRecipe;
use crate::wal::FrameDamage;
use crate::wire::{put_u16, put_u32, put_u8, CodecError, Reader};
use superpin::{NondetEvent, SuperPinReport};

/// Log magic bytes.
pub const MAGIC: &[u8; 5] = b"SPLOG";
/// Current log format version.
pub const VERSION: u16 = 2;

const FRAME_HEADER: u8 = 0x01;
const FRAME_EVENT: u8 = 0x02;
const FRAME_REPORT: u8 = 0x03;
const FRAME_END: u8 = 0x04;

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

fn put_frame(out: &mut Vec<u8>, frame_type: u8, payload: &[u8]) {
    put_u8(out, frame_type);
    put_u32(
        out,
        u32::try_from(payload.len()).expect("frame under 4 GiB"),
    );
    out.extend_from_slice(payload);
}

impl ReplayLog {
    /// Serializes the log to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u16(&mut out, VERSION);
        let mut payload = Vec::new();
        self.recipe.encode(&mut payload);
        put_frame(&mut out, FRAME_HEADER, &payload);
        for event in &self.events {
            payload.clear();
            put_event(&mut payload, event);
            put_frame(&mut out, FRAME_EVENT, &payload);
        }
        payload.clear();
        put_report(&mut payload, &self.report);
        put_frame(&mut out, FRAME_REPORT, &payload);
        put_frame(&mut out, FRAME_END, &[]);
        out
    }

    /// Parses a log from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on a bad magic/version, unknown frame
    /// types, a missing header/report/end frame, or truncation.
    pub fn decode(bytes: &[u8]) -> Result<ReplayLog, CodecError> {
        let mut reader = Reader::new(bytes);
        let magic = [
            reader.u8("magic")?,
            reader.u8("magic")?,
            reader.u8("magic")?,
            reader.u8("magic")?,
            reader.u8("magic")?,
        ];
        if &magic != MAGIC {
            return Err(CodecError::BadHeader {
                detail: format!("magic {magic:?} is not SPLOG"),
            });
        }
        let version = reader.u16("version")?;
        if version != VERSION {
            return Err(CodecError::BadHeader {
                detail: format!("log version {version}, this build reads {VERSION}"),
            });
        }
        let mut recipe = None;
        let mut events = Vec::new();
        let mut report = None;
        let mut ended = false;
        while !reader.is_empty() {
            let frame_type = reader.u8("frame type")?;
            let len = reader.u32("frame length")? as usize;
            if reader.remaining() < len {
                return Err(CodecError::Truncated { what: "frame" });
            }
            let payload = reader.tail();
            let mut frame = Reader::new(&payload[..len]);
            reader.skip(len, "frame")?;
            match frame_type {
                FRAME_HEADER => recipe = Some(RunRecipe::decode(&mut frame)?),
                FRAME_EVENT => events.push(get_event(&mut frame)?),
                FRAME_REPORT => report = Some(get_report(&mut frame)?),
                FRAME_END => {
                    ended = true;
                    break;
                }
                tag => {
                    return Err(CodecError::BadTag {
                        what: "frame type",
                        tag: tag as u64,
                    })
                }
            }
        }
        if !ended {
            return Err(CodecError::Truncated { what: "end frame" });
        }
        Ok(ReplayLog {
            recipe: recipe.ok_or(CodecError::BadHeader {
                detail: "log has no header frame".to_string(),
            })?,
            events,
            report: report.ok_or(CodecError::BadHeader {
                detail: "log has no report frame".to_string(),
            })?,
        })
    }
}

/// A structural census of a `.splog` byte stream, tolerant of damage.
///
/// Unlike [`ReplayLog::decode`], the scan never fails past the
/// preamble: it counts what is structurally intact and reports where
/// (and how) the stream stops being readable. Frame *payloads* are not
/// decoded — a payload-level fault still fails `decode` on a
/// scan-clean log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplogScan {
    /// Header frames seen (a well-formed log has exactly one).
    pub header_frames: usize,
    /// Event frames seen.
    pub event_frames: usize,
    /// Report frames seen (a well-formed log has exactly one).
    pub report_frames: usize,
    /// The end frame is present.
    pub has_end: bool,
    /// Byte offset just past the last structurally intact frame.
    pub valid_len: usize,
    /// The first damage found, if any.
    pub damage: Option<FrameDamage>,
}

/// Walks a `.splog` frame by frame without decoding payloads, stopping
/// at the first structural damage instead of hard-failing. Never
/// panics on arbitrary input.
///
/// # Errors
///
/// [`CodecError::BadHeader`] only when the magic/version preamble is
/// unusable.
pub fn scan(bytes: &[u8]) -> Result<SplogScan, CodecError> {
    const PREAMBLE: usize = 7; // 5-byte magic + u16 version
    if bytes.len() < PREAMBLE {
        return Err(CodecError::BadHeader {
            detail: format!(
                "{} bytes is shorter than the {PREAMBLE}-byte preamble",
                bytes.len()
            ),
        });
    }
    if &bytes[..5] != MAGIC {
        return Err(CodecError::BadHeader {
            detail: format!("magic {:?} is not SPLOG", &bytes[..5]),
        });
    }
    let version = u16::from_le_bytes([bytes[5], bytes[6]]);
    if version != VERSION {
        return Err(CodecError::BadHeader {
            detail: format!("log version {version}, this build reads {VERSION}"),
        });
    }
    let mut out = SplogScan {
        header_frames: 0,
        event_frames: 0,
        report_frames: 0,
        has_end: false,
        valid_len: PREAMBLE,
        damage: None,
    };
    let mut pos = PREAMBLE;
    while pos < bytes.len() {
        if out.has_end {
            out.damage = Some(FrameDamage::Corrupt {
                offset: pos,
                detail: "bytes after the end frame".to_owned(),
            });
            break;
        }
        let remaining = bytes.len() - pos;
        if remaining < 5 {
            out.damage = Some(FrameDamage::Torn { offset: pos });
            break;
        }
        let frame_type = bytes[pos];
        if !(FRAME_HEADER..=FRAME_END).contains(&frame_type) {
            out.damage = Some(FrameDamage::Corrupt {
                offset: pos,
                detail: format!("unknown frame type 0x{frame_type:02x}"),
            });
            break;
        }
        let len = u32::from_le_bytes([
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
        ]) as usize;
        let Some(total) = len.checked_add(5) else {
            out.damage = Some(FrameDamage::Corrupt {
                offset: pos,
                detail: format!("frame length {len} overflows"),
            });
            break;
        };
        if remaining < total {
            out.damage = Some(FrameDamage::Torn { offset: pos });
            break;
        }
        match frame_type {
            FRAME_HEADER => out.header_frames += 1,
            FRAME_EVENT => out.event_frames += 1,
            FRAME_REPORT => out.report_frames += 1,
            _ => out.has_end = true,
        }
        pos += total;
        out.valid_len = pos;
    }
    Ok(out)
}

/// Turns a [`ReplayLog::decode`] failure into an actionable message by
/// re-scanning the bytes: "truncated (salvageable …)" when the log is
/// a clean prefix that simply stops (kill mid-write), "corrupt at byte
/// X" when a frame is structurally wrong, and the raw codec error when
/// the structure is fine but a payload is not.
pub fn explain_decode_failure(bytes: &[u8], err: &CodecError) -> String {
    let Ok(scanned) = scan(bytes) else {
        // Preamble-level: the codec error already says it all.
        return err.to_string();
    };
    let census = format!(
        "{} event frame(s) intact, report frame {}",
        scanned.event_frames,
        if scanned.report_frames > 0 {
            "present"
        } else {
            "missing"
        }
    );
    match &scanned.damage {
        Some(FrameDamage::Torn { offset }) => format!(
            "truncated mid-frame at byte {offset} (salvageable: {census}, \
             last good frame ends at byte {})",
            scanned.valid_len
        ),
        Some(corrupt @ FrameDamage::Corrupt { .. }) => format!("{corrupt} ({census})"),
        None if !scanned.has_end => {
            format!("truncated (salvageable: {census}, end frame missing)")
        }
        None => format!("{err} (frames are structurally intact: {census})"),
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

        // Cutting the end frame off must not silently parse.
        let truncated = &bytes[..bytes.len() - 5];
        assert!(matches!(
            ReplayLog::decode(truncated),
            Err(CodecError::Truncated { .. })
        ));

        let mut bad_frame = bytes.clone();
        bad_frame[7] = 0x7E; // header frame's type byte
        assert!(matches!(
            ReplayLog::decode(&bad_frame),
            Err(CodecError::BadTag { .. })
        ));
    }
}
