#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-replay
//!
//! First-class record/replay for SuperPin runs, with divergence
//! diffing.
//!
//! A live run's complete nondeterministic surface — syscall effects,
//! epoch plans, governed fork admissions, and the fault-recovery
//! ledger — streams into a versioned binary log (`.splog`, framed like
//! the `SPWAL` journal, see [`log`] and [`wal`]); see
//! [`superpin::record`] for what is captured and why fault firings are
//! stored as the plan rather than per firing. A [`ReplayLog`] holds the
//! parsed log: the [`RunRecipe`] (everything needed to rebuild the
//! run's initial state), the event stream, and the recorded run's final
//! report. [`replay_run`] re-executes a run from the log alone —
//! including at a *different* thread count than the recording, the
//! design's headline property — and [`verify_replay`] checks the
//! replayed report field for field. [`diff_logs`] replays two logs in
//! lockstep and bisects their first divergence to an epoch barrier,
//! quantum window, and instruction range.
//!
//! Service-mode fleets journal to the same frame layer: [`fleet`] holds
//! the `SPWAL` header recipe and per-round frames that `spin-serve
//! --resume` re-verifies, at any thread count.
//!
//! The `spin-replay` CLI (in `superpin-tools`) fronts all of this:
//! `record` emits a `.splog`, `replay` re-executes and verifies, `diff`
//! pinpoints the first divergence between two logs, and `fsck` takes a
//! frame census of a `.splog` or `SPWAL` file.

pub mod codec;
pub mod differ;
pub mod drive;
pub mod events;
pub mod fleet;
pub mod json;
pub mod log;
pub mod recipe;
pub mod wal;
pub mod wire;

#[cfg(test)]
pub(crate) mod testutil;

pub use differ::{diff_logs, diff_runners};
pub use differ::{DiffOutcome, DivergenceReport, RegDelta};
pub use drive::{build_runner, record_run, replay_run, verify_replay, ReplayError};
pub use events::{EventSink, EventStream};
pub use fleet::{
    diff_round, recover_fleet_wal, FleetEvent, FleetRecipe, FleetRecovery, RoundFrame,
};
pub use log::{ReplayLog, MAGIC, VERSION};
pub use recipe::RunRecipe;
pub use wal::{
    atomic_write, crc32, salvage, FrameDamage, FsyncPolicy, MemSink, WalCause, WalIoError, WalOp,
    WalSink, WalWriter,
};
pub use wire::CodecError;
