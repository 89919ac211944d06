//! The crash-durable write-ahead log container (`SPWAL`) and the frame
//! layer every on-disk container in this crate shares.
//!
//! A streaming frame container where every frame carries its own CRC32
//! and a journal adds explicit commit markers, so a reader can always
//! find the longest durable prefix of a torn file. The fleet journal is
//! `SPWAL`; the single-run `.splog` recording (see [`crate::log`]) uses
//! the same frames behind its own `SPLOG` preamble and is read by the
//! same walk, [`salvage_frames`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "SPWAL"              5-byte magic
//! version: u16         = 1
//! frame*               kind: u8, len: u32, payload[len], crc32: u32
//! ```
//!
//! The CRC covers `kind`, `len`, and the payload. Frame kinds: `0x01`
//! Header (format-specific, first), `0x02` Record (one journalled
//! unit), `0x03` Commit (a `u64` sequence number; everything up to and
//! including this frame is durable once it reaches disk), `0x04` End
//! (empty; the writer completed cleanly). A Record is *not* durable
//! until its Commit frame lands — the salvage reader discards a
//! trailing Record with no Commit, exactly like a database WAL
//! discards an unterminated transaction.
//!
//! Writing goes through [`WalWriter`], which appends frames
//! incrementally and applies the [`FsyncPolicy`] at commit markers.
//! The writer is also where the host-I/O fault sites live
//! (`io.wal.append`, `io.wal.fsync`, `io.disk.full`): an injected
//! append fault tears the frame mid-write — only a prefix reaches the
//! sink — so chaos runs exercise the exact failure the salvage reader
//! exists for.
//!
//! Reading goes through [`salvage`] (the `SPWAL` preamble over
//! [`salvage_frames`]), which never hard-fails past the preamble: it walks frames until the first torn or corrupt one and
//! reports exactly what was recovered ([`WalSalvage`]) — intact
//! frames, the last committed sequence number, the byte offset and
//! nature of the damage.

use std::path::Path;
use std::sync::{Arc, Mutex};

use superpin_fault::{FailPlan, FailpointRegistry, Site};

use crate::wire::{put_u32, put_u64, put_u8, CodecError};

/// WAL magic bytes.
pub const WAL_MAGIC: &[u8; 5] = b"SPWAL";
/// Current WAL format version.
pub const WAL_VERSION: u16 = 1;

/// Frame kind: format-specific header, must come first.
pub const WAL_FRAME_HEADER: u8 = 0x01;
/// Frame kind: one journalled record.
pub const WAL_FRAME_RECORD: u8 = 0x02;
/// Frame kind: commit marker (`u64` sequence number payload).
pub const WAL_FRAME_COMMIT: u8 = 0x03;
/// Frame kind: clean end of log (empty payload).
pub const WAL_FRAME_END: u8 = 0x04;

/// Bytes before the first frame (magic + version).
pub const WAL_PREAMBLE_LEN: usize = 7;

/// Per-frame overhead: kind (1) + length (4) + CRC (4).
pub const WAL_FRAME_OVERHEAD: usize = 9;

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[index] = crc;
        index += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Appends one whole frame — kind, length, payload, CRC over the
/// preceding three — to `out`.
pub(crate) fn encode_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    put_u8(out, kind);
    put_u32(
        out,
        u32::try_from(payload.len()).expect("frame under 4 GiB"),
    );
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    put_u32(out, crc);
}

/// When the writer flushes commits to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every commit marker (strongest durability).
    EveryCommit,
    /// fsync after every N commit markers.
    EveryN(u32),
    /// Never fsync mid-run (the OS flushes when it likes); the clean
    /// end-of-log still syncs.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `commit`, `off`, or `every=N` (N ≥ 1).
    pub fn parse(text: &str) -> Option<FsyncPolicy> {
        match text {
            "commit" => Some(FsyncPolicy::EveryCommit),
            "off" => Some(FsyncPolicy::Off),
            _ => text
                .strip_prefix("every=")
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .map(FsyncPolicy::EveryN),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::EveryCommit => write!(f, "commit"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Which WAL operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Appending a frame.
    Append,
    /// Flushing commits to stable storage.
    Fsync,
}

/// Why a WAL operation failed.
#[derive(Debug)]
pub enum WalCause {
    /// A chaos fault site fired (deterministic injection).
    Injected(Site),
    /// A real host I/O error.
    Io(std::io::Error),
}

/// A WAL write failed. Carries enough to count and describe the
/// failure; callers degrade to non-durable rather than aborting.
#[derive(Debug)]
pub struct WalIoError {
    /// The operation that failed.
    pub op: WalOp,
    /// Frame index (appends) or commit index (fsyncs) at the failure.
    pub at: u64,
    /// Injected fault or real I/O error.
    pub cause: WalCause,
}

impl std::fmt::Display for WalIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (op, unit) = match self.op {
            WalOp::Append => ("append", "frame"),
            WalOp::Fsync => ("fsync", "commit"),
        };
        match &self.cause {
            WalCause::Injected(site) => {
                write!(f, "wal {op} at {unit} {}: injected {site} fault", self.at)
            }
            WalCause::Io(err) => write!(f, "wal {op} at {unit} {}: {err}", self.at),
        }
    }
}

impl std::error::Error for WalIoError {}

/// Where WAL bytes go. `std::fs::File` is the real sink; [`MemSink`]
/// backs the in-process kill-anywhere tests.
pub trait WalSink: Send {
    /// Appends `bytes` at the end of the log.
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Flushes everything appended so far to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;
}

impl WalSink for std::fs::File {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        std::io::Write::write_all(self, bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.sync_data()
    }
}

/// A shared in-memory sink: clone it, hand one clone to the writer,
/// and read the accumulated bytes from the other — the moral
/// equivalent of re-reading the file after a kill.
#[derive(Clone, Debug, Default)]
pub struct MemSink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// A sink pre-loaded with `bytes` (resuming an existing log).
    pub fn from_bytes(bytes: Vec<u8>) -> MemSink {
        MemSink {
            buf: Arc::new(Mutex::new(bytes)),
        }
    }

    /// A snapshot of everything written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().expect("wal buffer lock").clone()
    }
}

impl WalSink for MemSink {
    fn write_all(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf
            .lock()
            .expect("wal buffer lock")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streaming WAL writer: appends CRC-framed records incrementally and
/// applies the fsync policy at commit markers.
pub struct WalWriter {
    sink: Box<dyn WalSink>,
    policy: FsyncPolicy,
    chaos: Option<FailpointRegistry>,
    frames: u64,
    commits: u64,
    syncs: u64,
    commits_since_sync: u32,
}

impl WalWriter {
    /// Opens a fresh log on `sink`: writes the magic and version, arms
    /// the host-I/O fault sites from `chaos` (if any).
    ///
    /// # Errors
    ///
    /// [`WalIoError`] if the preamble cannot be written.
    pub fn create(
        sink: Box<dyn WalSink>,
        policy: FsyncPolicy,
        chaos: Option<FailPlan>,
    ) -> Result<WalWriter, WalIoError> {
        let mut writer = WalWriter::resume(sink, policy, chaos, 0, 0);
        let mut preamble = Vec::with_capacity(WAL_PREAMBLE_LEN);
        preamble.extend_from_slice(WAL_MAGIC);
        preamble.extend_from_slice(&WAL_VERSION.to_le_bytes());
        writer.sink.write_all(&preamble).map_err(|err| WalIoError {
            op: WalOp::Append,
            at: 0,
            cause: WalCause::Io(err),
        })?;
        Ok(writer)
    }

    /// Continues an existing log whose sink is already positioned past
    /// the durable prefix. `frames` and `commits` prime the counters so
    /// fault-site keys continue where the interrupted process left off
    /// (rate-mode chaos schedules stay identical to an uninterrupted
    /// run).
    pub fn resume(
        sink: Box<dyn WalSink>,
        policy: FsyncPolicy,
        chaos: Option<FailPlan>,
        frames: u64,
        commits: u64,
    ) -> WalWriter {
        WalWriter {
            sink,
            policy,
            chaos: chaos.map(FailpointRegistry::new),
            frames,
            commits,
            syncs: 0,
            commits_since_sync: 0,
        }
    }

    /// Frames appended so far (header and commits included).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Commit markers appended so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// fsyncs performed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Appends one CRC-framed record.
    ///
    /// # Errors
    ///
    /// [`WalIoError`] on a real write failure or an injected
    /// `io.disk.full` (nothing written) / `io.wal.append` (a torn
    /// prefix of the frame reaches the sink) fault.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), WalIoError> {
        let frame = self.frames;
        let mut bytes = Vec::with_capacity(payload.len() + WAL_FRAME_OVERHEAD);
        encode_frame(&mut bytes, kind, payload);
        if let Some(registry) = &self.chaos {
            if registry.fire(Site::IoDiskFull, frame) {
                return Err(WalIoError {
                    op: WalOp::Append,
                    at: frame,
                    cause: WalCause::Injected(Site::IoDiskFull),
                });
            }
            if registry.fire(Site::IoWalAppend, frame) {
                // A torn write: only a strict prefix reaches the sink.
                let _ = self.sink.write_all(&bytes[..bytes.len() / 2]);
                return Err(WalIoError {
                    op: WalOp::Append,
                    at: frame,
                    cause: WalCause::Injected(Site::IoWalAppend),
                });
            }
        }
        self.sink.write_all(&bytes).map_err(|err| WalIoError {
            op: WalOp::Append,
            at: frame,
            cause: WalCause::Io(err),
        })?;
        self.frames += 1;
        Ok(())
    }

    /// Appends a commit marker for sequence number `seq` and applies
    /// the fsync policy.
    ///
    /// # Errors
    ///
    /// [`WalIoError`] if the append or the policy-due fsync fails.
    pub fn commit(&mut self, seq: u64) -> Result<(), WalIoError> {
        let mut payload = Vec::with_capacity(8);
        put_u64(&mut payload, seq);
        self.append(WAL_FRAME_COMMIT, &payload)?;
        self.commits += 1;
        self.after_commit()
    }

    /// Appends one CRC-framed record *and* its commit marker for `seq`
    /// in a single sink write, then applies the fsync policy. Byte-for-
    /// byte and fault-key-for-fault-key equivalent to [`Self::append`]
    /// followed by [`Self::commit`] — the only difference is that the
    /// happy path costs one syscall per round instead of two, which is
    /// what keeps the bench's WAL-overhead guard comfortably slack.
    ///
    /// # Errors
    ///
    /// [`WalIoError`] exactly as the split calls would report it: an
    /// injected fault on the record frame leaves the sink as `append`
    /// would (nothing, or a torn record prefix); a fault on the commit
    /// frame lands after the whole record frame is in the sink.
    pub fn append_committed(
        &mut self,
        kind: u8,
        payload: &[u8],
        seq: u64,
    ) -> Result<(), WalIoError> {
        let record_frame = self.frames;
        let mut bytes = Vec::with_capacity(payload.len() + 8 + 2 * WAL_FRAME_OVERHEAD);
        encode_frame(&mut bytes, kind, payload);
        let record_len = bytes.len();
        let mut commit_payload = Vec::with_capacity(8);
        put_u64(&mut commit_payload, seq);
        encode_frame(&mut bytes, WAL_FRAME_COMMIT, &commit_payload);
        if let Some(registry) = &self.chaos {
            // Evaluation order and keys mirror append(record) then
            // append(commit): each frame checks disk-full then torn-
            // append, keyed by its own frame number, so Nth and rate
            // schedules are indistinguishable from the split path.
            if registry.fire(Site::IoDiskFull, record_frame) {
                return Err(WalIoError {
                    op: WalOp::Append,
                    at: record_frame,
                    cause: WalCause::Injected(Site::IoDiskFull),
                });
            }
            if registry.fire(Site::IoWalAppend, record_frame) {
                let _ = self.sink.write_all(&bytes[..record_len / 2]);
                return Err(WalIoError {
                    op: WalOp::Append,
                    at: record_frame,
                    cause: WalCause::Injected(Site::IoWalAppend),
                });
            }
            if registry.fire(Site::IoDiskFull, record_frame + 1) {
                let _ = self.sink.write_all(&bytes[..record_len]);
                self.frames += 1;
                return Err(WalIoError {
                    op: WalOp::Append,
                    at: record_frame + 1,
                    cause: WalCause::Injected(Site::IoDiskFull),
                });
            }
            if registry.fire(Site::IoWalAppend, record_frame + 1) {
                let torn = record_len + (bytes.len() - record_len) / 2;
                let _ = self.sink.write_all(&bytes[..torn]);
                self.frames += 1;
                return Err(WalIoError {
                    op: WalOp::Append,
                    at: record_frame + 1,
                    cause: WalCause::Injected(Site::IoWalAppend),
                });
            }
        }
        self.sink.write_all(&bytes).map_err(|err| WalIoError {
            op: WalOp::Append,
            at: record_frame,
            cause: WalCause::Io(err),
        })?;
        self.frames += 2;
        self.commits += 1;
        self.after_commit()
    }

    /// The fsync-policy step shared by [`Self::commit`] and
    /// [`Self::append_committed`].
    fn after_commit(&mut self) -> Result<(), WalIoError> {
        let due = match self.policy {
            FsyncPolicy::EveryCommit => true,
            FsyncPolicy::EveryN(n) => {
                self.commits_since_sync += 1;
                if self.commits_since_sync >= n {
                    self.commits_since_sync = 0;
                    true
                } else {
                    false
                }
            }
            FsyncPolicy::Off => false,
        };
        if due {
            self.fsync()?;
        }
        Ok(())
    }

    /// Appends the clean end-of-log frame and syncs unconditionally.
    ///
    /// # Errors
    ///
    /// [`WalIoError`] if the append or final fsync fails.
    pub fn end(&mut self) -> Result<(), WalIoError> {
        self.append(WAL_FRAME_END, &[])?;
        self.fsync()
    }

    fn fsync(&mut self) -> Result<(), WalIoError> {
        let commit = self.commits;
        if let Some(registry) = &self.chaos {
            if registry.fire(Site::IoWalFsync, commit) {
                return Err(WalIoError {
                    op: WalOp::Fsync,
                    at: commit,
                    cause: WalCause::Injected(Site::IoWalFsync),
                });
            }
        }
        self.sink.sync().map_err(|err| WalIoError {
            op: WalOp::Fsync,
            at: commit,
            cause: WalCause::Io(err),
        })?;
        self.syncs += 1;
        Ok(())
    }
}

/// Where and how a framed log stops being readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameDamage {
    /// The file ends mid-frame — the classic kill-mid-write tear.
    Torn {
        /// Byte offset of the torn frame's first byte.
        offset: usize,
    },
    /// A frame is structurally wrong (CRC mismatch, unknown kind,
    /// bytes after the end frame).
    Corrupt {
        /// Byte offset of the offending frame.
        offset: usize,
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for FrameDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDamage::Torn { offset } => {
                write!(f, "torn frame at byte {offset} (file ends mid-frame)")
            }
            FrameDamage::Corrupt { offset, detail } => {
                write!(f, "corrupt at byte {offset}: {detail}")
            }
        }
    }
}

/// One intact frame the salvage walk recovered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalFrame {
    /// Frame kind byte.
    pub kind: u8,
    /// Frame payload.
    pub payload: Vec<u8>,
    /// Byte offset of the frame's first byte in the log.
    pub offset: usize,
}

/// Everything a salvage walk recovered from a (possibly damaged) WAL.
#[derive(Clone, Debug)]
pub struct WalSalvage {
    /// Every intact frame, in log order, up to the first damage.
    pub frames: Vec<WalFrame>,
    /// Sequence number of the last intact commit marker.
    pub last_committed: Option<u64>,
    /// Number of intact commit markers.
    pub commits: u64,
    /// Byte offset just past the last intact commit marker (the
    /// durable prefix — truncate here before resuming). Equals the
    /// preamble length when nothing committed.
    pub committed_len: usize,
    /// Byte offset just past the last intact frame of any kind.
    pub valid_len: usize,
    /// The first damage found, if any.
    pub damage: Option<FrameDamage>,
    /// The log ends with a clean end frame and no trailing bytes.
    pub clean_end: bool,
}

/// Walks a WAL byte stream frame by frame, stopping at the first torn
/// or corrupt frame instead of hard-failing. Never panics on arbitrary
/// input.
///
/// # Errors
///
/// [`CodecError::BadHeader`] only when the preamble itself is unusable
/// (wrong magic, unknown version, or shorter than the preamble) —
/// there is nothing to salvage without it.
pub fn salvage(bytes: &[u8]) -> Result<WalSalvage, CodecError> {
    salvage_frames(bytes, WAL_MAGIC, WAL_VERSION)
}

/// The frame walk behind [`salvage`], for any container on this frame
/// layer: checks the `magic` + `version` preamble, then walks frames
/// until the first torn or corrupt one. The `.splog` run log reads
/// through here with its own preamble.
///
/// # Errors
///
/// [`CodecError::BadHeader`] when the preamble is not `magic` +
/// `version` or the input is shorter than the preamble.
pub fn salvage_frames(
    bytes: &[u8],
    magic: &[u8; 5],
    version: u16,
) -> Result<WalSalvage, CodecError> {
    let name = String::from_utf8_lossy(magic);
    if bytes.len() < WAL_PREAMBLE_LEN {
        return Err(CodecError::BadHeader {
            detail: format!(
                "{} bytes is shorter than the {WAL_PREAMBLE_LEN}-byte {name} preamble",
                bytes.len()
            ),
        });
    }
    if &bytes[..5] != magic {
        return Err(CodecError::BadHeader {
            detail: format!("magic {:?} is not {name}", &bytes[..5]),
        });
    }
    let found = u16::from_le_bytes([bytes[5], bytes[6]]);
    if found != version {
        return Err(CodecError::BadHeader {
            detail: format!("{name} version {found}, this build reads {version}"),
        });
    }

    let mut out = WalSalvage {
        frames: Vec::new(),
        last_committed: None,
        commits: 0,
        committed_len: WAL_PREAMBLE_LEN,
        valid_len: WAL_PREAMBLE_LEN,
        damage: None,
        clean_end: false,
    };
    let mut pos = WAL_PREAMBLE_LEN;
    let mut ended = false;
    while pos < bytes.len() {
        if ended {
            out.damage = Some(FrameDamage::Corrupt {
                offset: pos,
                detail: "bytes after the end frame".to_owned(),
            });
            break;
        }
        let remaining = bytes.len() - pos;
        if remaining < WAL_FRAME_OVERHEAD {
            out.damage = Some(FrameDamage::Torn { offset: pos });
            break;
        }
        let kind = bytes[pos];
        if !(WAL_FRAME_HEADER..=WAL_FRAME_END).contains(&kind) {
            out.damage = Some(FrameDamage::Corrupt {
                offset: pos,
                detail: format!("unknown frame kind 0x{kind:02x}"),
            });
            break;
        }
        let len = u32::from_le_bytes([
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
        ]) as usize;
        let Some(total) = len.checked_add(WAL_FRAME_OVERHEAD) else {
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
        let body_end = pos + 5 + len;
        let stored = u32::from_le_bytes([
            bytes[body_end],
            bytes[body_end + 1],
            bytes[body_end + 2],
            bytes[body_end + 3],
        ]);
        if crc32(&bytes[pos..body_end]) != stored {
            out.damage = Some(FrameDamage::Corrupt {
                offset: pos,
                detail: "frame CRC mismatch".to_owned(),
            });
            break;
        }
        let payload = bytes[pos + 5..body_end].to_vec();
        if kind == WAL_FRAME_COMMIT {
            if payload.len() != 8 {
                out.damage = Some(FrameDamage::Corrupt {
                    offset: pos,
                    detail: format!("commit frame payload is {} bytes, not 8", payload.len()),
                });
                break;
            }
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&payload);
            out.last_committed = Some(u64::from_le_bytes(raw));
            out.commits += 1;
            out.committed_len = pos + total;
        }
        if kind == WAL_FRAME_END {
            ended = true;
        }
        out.frames.push(WalFrame {
            kind,
            payload,
            offset: pos,
        });
        pos += total;
        out.valid_len = pos;
    }
    out.clean_end = ended && out.damage.is_none() && pos == bytes.len();
    Ok(out)
}

/// Writes `bytes` to `path` atomically: everything lands in a
/// temporary sibling first, which is fsynced and then renamed over the
/// target — a crash at any point leaves either the old file or the new
/// one, never a half-written hybrid.
///
/// # Errors
///
/// Any underlying I/O error (the temporary file is removed on
/// failure where possible).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use superpin_fault::SiteMode;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fsync_policy_parses_and_renders() {
        assert_eq!(FsyncPolicy::parse("commit"), Some(FsyncPolicy::EveryCommit));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("every=8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(FsyncPolicy::parse("every=0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        for policy in [
            FsyncPolicy::EveryCommit,
            FsyncPolicy::EveryN(3),
            FsyncPolicy::Off,
        ] {
            assert_eq!(FsyncPolicy::parse(&policy.to_string()), Some(policy));
        }
    }

    fn write_sample(policy: FsyncPolicy) -> (MemSink, WalWriter) {
        let sink = MemSink::new();
        let mut writer =
            WalWriter::create(Box::new(sink.clone()), policy, None).expect("preamble writes");
        writer.append(WAL_FRAME_HEADER, b"recipe").expect("header");
        for round in 1..=3u64 {
            writer
                .append(WAL_FRAME_RECORD, format!("round-{round}").as_bytes())
                .expect("record");
            writer.commit(round).expect("commit");
        }
        (sink, writer)
    }

    #[test]
    fn writer_and_salvage_round_trip() {
        let (sink, mut writer) = write_sample(FsyncPolicy::Off);
        writer.end().expect("end");
        let bytes = sink.bytes();
        let salvaged = salvage(&bytes).expect("preamble ok");
        assert!(salvaged.clean_end);
        assert_eq!(salvaged.damage, None);
        assert_eq!(salvaged.commits, 3);
        assert_eq!(salvaged.last_committed, Some(3));
        assert_eq!(salvaged.valid_len, bytes.len());
        // header + 3 × (record + commit) + end
        assert_eq!(salvaged.frames.len(), 8);
        assert_eq!(salvaged.frames[0].payload, b"recipe");
        // The committed prefix excludes the end frame.
        assert!(salvaged.committed_len < salvaged.valid_len);
    }

    #[test]
    fn fsync_policy_controls_sync_count() {
        let (_, writer) = write_sample(FsyncPolicy::EveryCommit);
        assert_eq!(writer.syncs(), 3);
        let (_, writer) = write_sample(FsyncPolicy::EveryN(2));
        assert_eq!(writer.syncs(), 1);
        let (_, writer) = write_sample(FsyncPolicy::Off);
        assert_eq!(writer.syncs(), 0);
        // end() always syncs.
        let (_, mut writer) = write_sample(FsyncPolicy::Off);
        writer.end().expect("end");
        assert_eq!(writer.syncs(), 1);
    }

    #[test]
    fn salvage_truncation_at_every_offset_never_panics() {
        let (sink, mut writer) = write_sample(FsyncPolicy::Off);
        writer.end().expect("end");
        let bytes = sink.bytes();
        for len in 0..bytes.len() {
            let cut = &bytes[..len];
            match salvage(cut) {
                Ok(salvaged) => {
                    assert!(salvaged.valid_len <= len);
                    assert!(salvaged.committed_len <= salvaged.valid_len);
                    // A cut that is not exactly a frame boundary tears.
                    if salvaged.valid_len < len {
                        assert!(matches!(salvaged.damage, Some(FrameDamage::Torn { .. })));
                    }
                }
                Err(CodecError::BadHeader { .. }) => assert!(len < WAL_PREAMBLE_LEN),
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn salvage_reports_corruption_offset() {
        let (sink, mut writer) = write_sample(FsyncPolicy::Off);
        writer.end().expect("end");
        let full = salvage(&sink.bytes()).expect("clean");
        // Flip one payload byte in the second record frame: everything
        // before it salvages, the damage names its offset.
        let victim = full
            .frames
            .iter()
            .filter(|f| f.kind == WAL_FRAME_RECORD)
            .nth(1)
            .expect("two records")
            .clone();
        let mut bytes = sink.bytes();
        bytes[victim.offset + 6] ^= 0xFF;
        let salvaged = salvage(&bytes).expect("preamble ok");
        assert_eq!(
            salvaged.damage,
            Some(FrameDamage::Corrupt {
                offset: victim.offset,
                detail: "frame CRC mismatch".to_owned(),
            })
        );
        assert_eq!(salvaged.valid_len, victim.offset);
        assert_eq!(salvaged.commits, 1);
        assert_eq!(salvaged.last_committed, Some(1));
    }

    #[test]
    fn injected_append_fault_tears_the_frame() {
        let plan = FailPlan::new(1, 0.0).with_site(Site::IoWalAppend, SiteMode::Nth(4));
        let sink = MemSink::new();
        let mut writer = WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, Some(plan))
            .expect("create");
        writer.append(WAL_FRAME_HEADER, b"recipe").expect("header");
        writer.append(WAL_FRAME_RECORD, b"round-1").expect("r1");
        writer.commit(1).expect("c1");
        let before = sink.bytes().len();
        let err = writer
            .append(WAL_FRAME_RECORD, b"round-2")
            .expect_err("nth(4) fires on the fourth append");
        assert_eq!(err.op, WalOp::Append);
        assert!(matches!(err.cause, WalCause::Injected(Site::IoWalAppend)));
        let bytes = sink.bytes();
        assert!(bytes.len() > before, "a torn prefix reached the sink");
        let salvaged = salvage(&bytes).expect("preamble ok");
        assert!(matches!(salvaged.damage, Some(FrameDamage::Torn { .. })));
        assert_eq!(salvaged.commits, 1);
        assert_eq!(salvaged.committed_len, before);
    }

    #[test]
    fn injected_disk_full_is_a_clean_boundary() {
        let plan = FailPlan::new(1, 0.0).with_site(Site::IoDiskFull, SiteMode::Nth(3));
        let sink = MemSink::new();
        let mut writer = WalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off, Some(plan))
            .expect("create");
        writer.append(WAL_FRAME_HEADER, b"recipe").expect("header");
        writer.append(WAL_FRAME_RECORD, b"round-1").expect("r1");
        let before = sink.bytes().len();
        let err = writer.commit(1).expect_err("disk full on the third append");
        assert!(matches!(err.cause, WalCause::Injected(Site::IoDiskFull)));
        let bytes = sink.bytes();
        assert_eq!(bytes.len(), before, "nothing written on disk-full");
        let salvaged = salvage(&bytes).expect("preamble ok");
        assert_eq!(salvaged.damage, None, "disk-full leaves a clean boundary");
    }

    #[test]
    fn injected_fsync_fault_surfaces() {
        let plan = FailPlan::new(1, 0.0).with_site(Site::IoWalFsync, SiteMode::Always);
        let sink = MemSink::new();
        let mut writer =
            WalWriter::create(Box::new(sink.clone()), FsyncPolicy::EveryCommit, Some(plan))
                .expect("create");
        writer.append(WAL_FRAME_RECORD, b"round-1").expect("r1");
        let err = writer.commit(1).expect_err("fsync fails");
        assert_eq!(err.op, WalOp::Fsync);
        // The frames themselves landed; only durability is in doubt.
        let salvaged = salvage(&sink.bytes()).expect("preamble ok");
        assert_eq!(salvaged.commits, 1);
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("superpin-wal-test-{}.txt", std::process::id()));
        atomic_write(&path, b"first").expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"first");
        atomic_write(&path, b"second, longer contents").expect("rewrite");
        assert_eq!(
            std::fs::read(&path).expect("read"),
            b"second, longer contents"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
}
