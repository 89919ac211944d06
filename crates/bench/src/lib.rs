#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-bench
//!
//! The figure-reproduction harness: for every table and figure in the
//! paper's evaluation (§6), this crate computes the same series from the
//! reproduction's simulator and renders it as a text table.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Figure 3 (icount1, Pin & SuperPin vs native) | [`figures::fig3_icount1`] |
//! | Figure 4 (icount1, SuperPin speedup over Pin) | derived from Fig. 3 data |
//! | Figure 5 (icount2, Pin & SuperPin vs native) | [`figures::fig5_icount2`] |
//! | Figure 6 (gcc runtime vs timeslice, stacked) | [`figures::fig6_timeslice`] |
//! | Figure 7 (gcc runtime vs max slices) | [`figures::fig7_parallelism`] |
//! | §4.4 detection statistics (~2% full-check rate) | [`figures::signature_stats`] |
//! | §3 pipeline-delay model | [`figures::pipeline_model`] |
//! | §6.3 overhead taxonomy | [`figures::overhead_breakdown`] |
//!
//! Run `cargo run --release -p superpin-bench --bin reproduce -- all` to
//! regenerate everything.
//!
//! ## Presented time
//!
//! Workloads are miniatures (see `superpin-workloads`); each figure uses
//! a `time_scale` that maps the benchmark's native run to the paper's
//! ~100 s ballpark, and scales the timeslice identically, so every
//! reported *ratio* (slice counts, overhead fractions, speedups) is in
//! the paper's regime. Tables print paper-equivalent seconds.

pub mod figures;
pub mod json;
pub mod render;
pub mod runs;
