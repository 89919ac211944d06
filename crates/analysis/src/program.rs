//! Whole-program analysis aggregate and the static↔dynamic soundness
//! oracle.
//!
//! [`ProgramAnalysis`] runs every whole-program pass once: CFG,
//! indirect-target resolution, call graph, dominators, natural loops,
//! and SMC regions. [`ProgramAnalysis::oracle`] builds a
//! [`SoundnessOracle`] from it: the runner (debug builds) validates
//! every dynamically observed indirect transfer against the static
//! target sets and every code write against the SMC regions. A
//! violation is an analysis soundness bug and fails loudly.

use std::sync::Mutex;

use superpin_isa::Program;

use crate::callgraph::CallGraph;
use crate::cfg::{AnalysisError, Cfg};
use crate::dom::Dominators;
use crate::loops::LoopNest;
use crate::smc::SmcRegions;
use crate::targets::{TargetResolution, TargetSet};

/// Every whole-program static analysis result in one place.
pub struct ProgramAnalysis {
    /// The whole-program CFG.
    pub cfg: Cfg,
    /// Indirect-target resolution and the store summary.
    pub targets: TargetResolution,
    /// The recovered call graph.
    pub callgraph: CallGraph,
    /// Dominator sets over `cfg`.
    pub doms: Dominators,
    /// Natural loops and per-block nesting depth.
    pub loops: LoopNest,
    /// Pages that may be both written and executed.
    pub smc: SmcRegions,
}

impl ProgramAnalysis {
    /// Runs all whole-program passes over `program`.
    pub fn compute(program: &Program) -> Result<ProgramAnalysis, AnalysisError> {
        let cfg = Cfg::build(program)?;
        let targets = TargetResolution::compute(program, &cfg);
        let callgraph = CallGraph::build(program, &cfg, &targets);
        let doms = Dominators::compute(&cfg);
        let loops = LoopNest::compute(&cfg, &doms);
        let smc = SmcRegions::compute(program, &cfg, &targets.stores);
        Ok(ProgramAnalysis {
            cfg,
            targets,
            callgraph,
            doms,
            loops,
            smc,
        })
    }

    /// Builds the runtime soundness oracle for this analysis.
    pub fn oracle(&self) -> SoundnessOracle {
        SoundnessOracle {
            targets: self.targets.indirect_targets.clone(),
            smc: self.smc.clone(),
            violations: Mutex::new(Vec::new()),
        }
    }
}

/// One observed divergence between static analysis and execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleViolation {
    /// A `jalr` at `site` reached `dest`, outside its resolved set.
    Transfer { site: u64, dest: u64 },
    /// A `jalr` at `site` was never analyzed (reached dynamically but
    /// not statically).
    UnknownSite { site: u64, dest: u64 },
    /// A code write touched `[addr, addr + len)` outside every
    /// flagged SMC region.
    CodeWrite { addr: u64, len: u64 },
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleViolation::Transfer { site, dest } => {
                write!(
                    f,
                    "jalr at {site:#x} reached {dest:#x} outside its static target set"
                )
            }
            OracleViolation::UnknownSite { site, dest } => {
                write!(
                    f,
                    "jalr at {site:#x} (reached {dest:#x}) was never statically analyzed"
                )
            }
            OracleViolation::CodeWrite { addr, len } => {
                write!(
                    f,
                    "code write [{addr:#x}, +{len}) outside every static SMC region"
                )
            }
        }
    }
}

/// Cross-validates dynamic execution against static analysis.
///
/// Shared (`Arc`) across every engine of a run; checks record
/// violations and return whether the observation was admitted so
/// callers can `debug_assert!` on the spot.
#[derive(Debug)]
pub struct SoundnessOracle {
    targets: std::collections::BTreeMap<u64, TargetSet>,
    smc: SmcRegions,
    violations: Mutex<Vec<OracleViolation>>,
}

impl SoundnessOracle {
    /// Validates a dynamic `jalr` transfer `site → dest`. True if the
    /// static analysis admits it.
    pub fn check_transfer(&self, site: u64, dest: u64) -> bool {
        let violation = match self.targets.get(&site) {
            Some(set) if set.admits(dest) => return true,
            Some(_) => OracleViolation::Transfer { site, dest },
            None => OracleViolation::UnknownSite { site, dest },
        };
        self.violations.lock().expect("oracle lock").push(violation);
        false
    }

    /// Validates a dynamic write to code bytes `[addr, addr + len)`.
    /// True if the static SMC regions cover it.
    pub fn check_code_write(&self, addr: u64, len: u64) -> bool {
        if self.smc.covers(addr, len) {
            return true;
        }
        self.violations
            .lock()
            .expect("oracle lock")
            .push(OracleViolation::CodeWrite { addr, len });
        false
    }

    /// All recorded violations, in observation order.
    pub fn violations(&self) -> Vec<OracleViolation> {
        self.violations.lock().expect("oracle lock").clone()
    }

    /// True if nothing unsound was ever observed.
    pub fn is_clean(&self) -> bool {
        self.violations.lock().expect("oracle lock").is_empty()
    }
}
