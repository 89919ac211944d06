#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-serve
//!
//! Multi-tenant **service mode**: a deterministic job-queue daemon
//! that runs many guest programs over one governed SuperPin fleet.
//!
//! A job file declares tenants (weights, optional resident caps) and
//! jobs (workload, scale, tool, arrival time, per-job knobs); the
//! fleet scheduler admits jobs through the tenant-weighted memory
//! ladder, selects runnable jobs by weighted-fair virtual time, and
//! advances the selected jobs one epoch per round on one shared worker
//! pool. Every scheduling decision is fixed serially at round
//! barriers, so the whole run — per-job reports, tenant scoreboards,
//! the decision trace — is byte-identical across `--threads`, chaos
//! included.
//!
//! * [`spec`] — the job-file grammar and typed validation.
//! * [`job`] — jobs as type-erased [`SuperPinRunner`](superpin::SuperPinRunner)s.
//! * [`fleet`] — the round-based weighted-fair scheduler.
//! * [`durable`] — crash durability: the WAL handle and resume prefix.
//! * [`report`] — deterministic outcome rendering (text + JSONL).
//!
//! The `spin-serve` CLI fronts all of this, including `--wal` /
//! `--resume` crash-durable runs (see [`superpin_replay::fleet`]);
//! resuming a complete WAL replays the fleet at any `--threads`.

pub mod durable;
pub mod fleet;
pub mod job;
pub mod report;
pub mod spec;

mod pool;

pub use durable::{Durability, FleetWal, WalStatus};
pub use fleet::{run_service, run_service_durable, time_scale_for, FleetConfig, FleetError};
pub use job::{build_job, JobDriver};
pub use report::{JobOutcome, ServiceReport, TenantSummary};
pub use spec::{parse_jobs, JobFile, JobSpec, SpecError, TenantSpec};
