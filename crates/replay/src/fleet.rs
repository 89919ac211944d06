//! Record/verify for **fleet** (multi-tenant service) runs.
//!
//! A `spin-serve` run's nondeterministic surface is tiny by design:
//! every scheduling decision — admission order, fair-share selection,
//! eviction ladder walks, epoch interleaving — is a pure function of
//! the job file and the fleet knobs. So the fleet journal (an `SPWAL`
//! file, see [`crate::wal`]) records exactly that: a header frame with
//! the [`FleetRecipe`] (the verbatim job-spec text and the knobs), then
//! one committed [`RoundFrame`] per settled round, pinning selections,
//! charges, every decision event, and the tenant ledger.
//! [`recover_fleet_wal`] reads back the committed prefix; `--resume`
//! re-runs the fleet (at *any* `--threads`) and checks each fresh round
//! against its frame with [`diff_round`]. Resuming a complete journal
//! is how a finished fleet is replayed.

use superpin_fault::FailPlan;

use crate::wal::{
    salvage, FrameDamage, WalSalvage, WAL_FRAME_COMMIT, WAL_FRAME_END, WAL_FRAME_HEADER,
    WAL_FRAME_OVERHEAD, WAL_FRAME_RECORD,
};
use crate::wire::{put_bool, put_opt_u64, put_str, put_u32, put_u64, put_u8, CodecError, Reader};

/// Everything needed to rebuild a fleet run's inputs: the job-spec
/// text verbatim plus the CLI knobs that shape scheduling. The
/// recorded thread count is informational only — a resume may run at
/// a different `--threads` and must still match.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetRecipe {
    /// The job file exactly as parsed (tenants + jobs + arrivals).
    pub spec_text: String,
    /// Worker threads the recording ran with (informational).
    pub threads: u32,
    /// Fleet round width (`--fleet-slots`).
    pub slots: u32,
    /// Shared fleet memory budget in bytes (`--fleet-budget`).
    pub fleet_budget: Option<u64>,
    /// Fleet-level chaos plan; tenants derive their domains from it.
    pub chaos: Option<FailPlan>,
    /// Paper-time timeslice in milliseconds (`--spmsec`).
    pub spmsec: u64,
}

impl FleetRecipe {
    /// Appends the recipe's wire form (the WAL header frame's payload).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_str(out, &self.spec_text);
        put_u32(out, self.threads);
        put_u32(out, self.slots);
        put_opt_u64(out, self.fleet_budget);
        match &self.chaos {
            Some(plan) => {
                put_bool(out, true);
                plan.encode(out);
            }
            None => put_bool(out, false),
        }
        put_u64(out, self.spmsec);
    }

    /// Decodes a recipe written by [`FleetRecipe::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] describing the first malformed field.
    pub fn decode_from(reader: &mut Reader) -> Result<FleetRecipe, CodecError> {
        let spec_text = reader.str("spec text")?;
        let threads = reader.u32("threads")?;
        let slots = reader.u32("slots")?;
        let fleet_budget = reader.opt_u64("fleet budget")?;
        let chaos = if reader.bool("chaos presence")? {
            let tail = reader.tail();
            let mut pos = 0usize;
            let plan = FailPlan::decode(tail, &mut pos)
                .ok_or(CodecError::Truncated { what: "chaos plan" })?;
            reader.skip(pos, "chaos plan")?;
            Some(plan)
        } else {
            None
        };
        let spmsec = reader.u64("spmsec")?;
        Ok(FleetRecipe {
            spec_text,
            threads,
            slots,
            fleet_budget,
            chaos,
            spmsec,
        })
    }
}

/// One scheduling decision at a fleet round barrier, stamped with the
/// fleet virtual clock. The stream of these is the run's complete
/// decision trace; two runs with equal traces and equal outcomes are
/// the same run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetEvent {
    /// A job was admitted; `budget` carries the clamp when the
    /// admission was degraded (ladder rung 3), `None` for full-budget.
    Admit {
        /// Job index in spec order.
        job: u32,
        /// Fleet virtual time at the decision.
        fleet_now: u64,
        /// Degraded-admission budget clamp, if any.
        budget: Option<u64>,
    },
    /// A job's first deferral (ladder rung 2); retries are not logged.
    Defer {
        /// Job index in spec order.
        job: u32,
        /// Fleet virtual time at the decision.
        fleet_now: u64,
    },
    /// The fleet evicted code caches from a running job (ladder rung 1).
    Evict {
        /// Job index in spec order.
        job: u32,
        /// Simulated bytes freed.
        bytes: u64,
        /// Fleet virtual time at the decision.
        fleet_now: u64,
    },
    /// A job completed and merged its final report.
    Complete {
        /// Job index in spec order.
        job: u32,
        /// Fleet virtual time at the round barrier observing completion.
        fleet_now: u64,
    },
}

/// Appends one event's wire form (inside a WAL round frame).
fn put_fleet_event(out: &mut Vec<u8>, event: &FleetEvent) {
    match *event {
        FleetEvent::Admit {
            job,
            fleet_now,
            budget,
        } => {
            put_u8(out, 0);
            put_u32(out, job);
            put_u64(out, fleet_now);
            put_opt_u64(out, budget);
        }
        FleetEvent::Defer { job, fleet_now } => {
            put_u8(out, 1);
            put_u32(out, job);
            put_u64(out, fleet_now);
        }
        FleetEvent::Evict {
            job,
            bytes,
            fleet_now,
        } => {
            put_u8(out, 2);
            put_u32(out, job);
            put_u64(out, bytes);
            put_u64(out, fleet_now);
        }
        FleetEvent::Complete { job, fleet_now } => {
            put_u8(out, 3);
            put_u32(out, job);
            put_u64(out, fleet_now);
        }
    }
}

/// Smallest encoded [`FleetEvent`]: tag, job, and fleet time (`Defer`
/// and `Complete`).
const MIN_FLEET_EVENT_BYTES: usize = 1 + 4 + 8;

/// Decodes one event written by [`put_fleet_event`].
fn get_fleet_event(reader: &mut Reader) -> Result<FleetEvent, CodecError> {
    let tag = reader.u8("event tag")?;
    Ok(match tag {
        0 => FleetEvent::Admit {
            job: reader.u32("admit job")?,
            fleet_now: reader.u64("admit time")?,
            budget: reader.opt_u64("admit budget")?,
        },
        1 => FleetEvent::Defer {
            job: reader.u32("defer job")?,
            fleet_now: reader.u64("defer time")?,
        },
        2 => FleetEvent::Evict {
            job: reader.u32("evict job")?,
            bytes: reader.u64("evict bytes")?,
            fleet_now: reader.u64("evict time")?,
        },
        3 => FleetEvent::Complete {
            job: reader.u32("complete job")?,
            fleet_now: reader.u64("complete time")?,
        },
        other => {
            return Err(CodecError::BadTag {
                what: "fleet event",
                tag: u64::from(other),
            })
        }
    })
}

/// Everything one settled fleet round changed, journalled as one WAL
/// record. Re-executing the fleet from round 0 and comparing each
/// fresh frame against the committed one verifies — field by field —
/// that the resumed run walks the recorded run's exact path:
/// `selected`/`deltas` pin the fair-queue virtual times, `events`
/// pin admissions/deferrals/evictions/completions, and `usages` pin
/// the tenant ledger's posted residency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundFrame {
    /// Round number (1-based, matching the service report's count).
    pub round: u64,
    /// Fleet virtual time after the round's settlement.
    pub fleet_now: u64,
    /// Selected job ids, in slot order.
    pub selected: Vec<u32>,
    /// Per-slot virtual-time charges (one per selected job).
    pub deltas: Vec<u64>,
    /// Every decision event since the previous frame (admission
    /// barrier included).
    pub events: Vec<FleetEvent>,
    /// Post-settlement ledger usage per tenant, tenant-id order.
    pub usages: Vec<u64>,
}

impl RoundFrame {
    /// Serializes the frame's payload (the WAL adds its own CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.round);
        put_u64(&mut out, self.fleet_now);
        put_u32(&mut out, self.selected.len() as u32);
        for &id in &self.selected {
            put_u32(&mut out, id);
        }
        put_u32(&mut out, self.deltas.len() as u32);
        for &delta in &self.deltas {
            put_u64(&mut out, delta);
        }
        put_u32(&mut out, self.events.len() as u32);
        for event in &self.events {
            put_fleet_event(&mut out, event);
        }
        put_u32(&mut out, self.usages.len() as u32);
        for &usage in &self.usages {
            put_u64(&mut out, usage);
        }
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`CodecError`] describing the first malformed field.
    pub fn decode(bytes: &[u8]) -> Result<RoundFrame, CodecError> {
        let mut reader = Reader::new(bytes);
        let round = reader.u64("round")?;
        let fleet_now = reader.u64("fleet time")?;
        let selected_count = reader.count("selection count", 4)?;
        let mut selected = Vec::with_capacity(selected_count);
        for _ in 0..selected_count {
            selected.push(reader.u32("selected job")?);
        }
        let delta_count = reader.count("delta count", 8)?;
        let mut deltas = Vec::with_capacity(delta_count);
        for _ in 0..delta_count {
            deltas.push(reader.u64("delta")?);
        }
        let event_count = reader.count("event count", MIN_FLEET_EVENT_BYTES)?;
        let mut events = Vec::with_capacity(event_count);
        for _ in 0..event_count {
            events.push(get_fleet_event(&mut reader)?);
        }
        let usage_count = reader.count("usage count", 8)?;
        let mut usages = Vec::with_capacity(usage_count);
        for _ in 0..usage_count {
            usages.push(reader.u64("usage")?);
        }
        Ok(RoundFrame {
            round,
            fleet_now,
            selected,
            deltas,
            events,
            usages,
        })
    }
}

/// First divergence between a committed round frame and the re-executed
/// round; `None` means the resumed fleet walked the recorded path
/// exactly. Named fields keep a recovery failure readable without a
/// hex dump.
pub fn diff_round(expected: &RoundFrame, got: &RoundFrame) -> Option<String> {
    if expected == got {
        return None;
    }
    if expected.round != got.round {
        return Some(format!(
            "round number: committed {}, re-executed {}",
            expected.round, got.round
        ));
    }
    if expected.selected != got.selected {
        return Some(format!(
            "selection: committed {:?}, re-executed {:?}",
            expected.selected, got.selected
        ));
    }
    if expected.deltas != got.deltas {
        return Some(format!(
            "charges: committed {:?}, re-executed {:?}",
            expected.deltas, got.deltas
        ));
    }
    if expected.fleet_now != got.fleet_now {
        return Some(format!(
            "fleet clock: committed {}, re-executed {}",
            expected.fleet_now, got.fleet_now
        ));
    }
    for (index, (old, new)) in expected.events.iter().zip(got.events.iter()).enumerate() {
        if old != new {
            return Some(format!(
                "event {index}: committed {old:?}, re-executed {new:?}"
            ));
        }
    }
    if expected.events.len() != got.events.len() {
        return Some(format!(
            "event count: committed {}, re-executed {}",
            expected.events.len(),
            got.events.len()
        ));
    }
    Some(format!(
        "tenant usages: committed {:?}, re-executed {:?}",
        expected.usages, got.usages
    ))
}

/// The committed, replayable prefix recovered from a fleet WAL, plus a
/// census of what was (and was not) recoverable.
#[derive(Clone, Debug)]
pub struct FleetRecovery {
    /// The recorded inputs, from the WAL's header frame.
    pub recipe: FleetRecipe,
    /// The committed rounds, in order. Trailing record frames with no
    /// commit marker are discarded, like unterminated transactions.
    pub rounds: Vec<RoundFrame>,
    /// Byte offset just past the last committed frame — the durable
    /// prefix to truncate to before appending anew.
    pub committed_len: usize,
    /// Byte offset just past the last structurally intact frame.
    pub valid_len: usize,
    /// The first damage found, if any (torn tail, CRC mismatch, or a
    /// structural violation such as an unpaired commit).
    pub damage: Option<FrameDamage>,
    /// The WAL ends with a clean end frame (the run completed).
    pub clean_end: bool,
    /// Intact frames past the durable prefix, discarded on resume.
    pub discarded: usize,
}

/// Recovers the committed prefix of a fleet WAL. Damage past the
/// header is *reported*, never fatal — the longest committed prefix
/// always comes back.
///
/// # Errors
///
/// [`CodecError`] only when the preamble or the header frame is
/// unusable: with no recipe there is nothing to resume.
pub fn recover_fleet_wal(bytes: &[u8]) -> Result<FleetRecovery, CodecError> {
    let salvaged: WalSalvage = salvage(bytes)?;
    let mut frames = salvaged.frames.iter();
    let header = frames.next().ok_or(CodecError::BadHeader {
        detail: "WAL has no intact header frame".to_owned(),
    })?;
    if header.kind != WAL_FRAME_HEADER {
        return Err(CodecError::BadHeader {
            detail: format!(
                "first frame kind is 0x{:02x}, expected the header frame",
                header.kind
            ),
        });
    }
    let mut reader = Reader::new(&header.payload);
    let recipe = FleetRecipe::decode_from(&mut reader)?;

    let mut recovery = FleetRecovery {
        recipe,
        rounds: Vec::new(),
        committed_len: header.offset + header.payload.len() + WAL_FRAME_OVERHEAD,
        valid_len: salvaged.valid_len,
        damage: salvaged.damage.clone(),
        clean_end: salvaged.clean_end,
        discarded: 0,
    };
    let mut pending: Option<RoundFrame> = None;
    for frame in frames {
        // Structural violations downgrade to damage at the offending
        // frame; everything committed before it still recovers.
        let structural = |detail: String| FrameDamage::Corrupt {
            offset: frame.offset,
            detail,
        };
        match frame.kind {
            WAL_FRAME_RECORD => {
                if pending.is_some() {
                    recovery.damage = Some(structural(
                        "record frame follows an uncommitted record".to_owned(),
                    ));
                    break;
                }
                match RoundFrame::decode(&frame.payload) {
                    Ok(round) => pending = Some(round),
                    Err(err) => {
                        recovery.damage = Some(structural(format!("round frame: {err}")));
                        break;
                    }
                }
            }
            WAL_FRAME_COMMIT => {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&frame.payload);
                let seq = u64::from_le_bytes(raw);
                match pending.take() {
                    Some(round) if round.round == seq => {
                        recovery.committed_len =
                            frame.offset + frame.payload.len() + WAL_FRAME_OVERHEAD;
                        recovery.rounds.push(round);
                    }
                    Some(round) => {
                        recovery.damage = Some(structural(format!(
                            "commit marker {seq} does not match round {}",
                            round.round
                        )));
                        break;
                    }
                    None => {
                        recovery.damage =
                            Some(structural("commit marker with no record".to_owned()));
                        break;
                    }
                }
            }
            WAL_FRAME_END => {}
            _ => {
                recovery.damage = Some(structural(format!(
                    "unexpected frame kind 0x{:02x}",
                    frame.kind
                )));
                break;
            }
        }
    }
    recovery.discarded = salvaged
        .frames
        .iter()
        .filter(|frame| frame.offset >= recovery.committed_len)
        .count();
    Ok(recovery)
}
