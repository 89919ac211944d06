//! Static↔dynamic soundness of the whole-program analysis: the static
//! results *over-approximate* the dynamic behavior. For every catalog
//! workload and input, a run with the [`SoundnessOracle`] installed
//! records zero violations: every dynamic indirect transfer lands
//! inside its static target set, and every dynamic code-region write
//! lands inside a static SMC region.
//!
//! [`SoundnessOracle`]: superpin::SoundnessOracle

use std::sync::Arc;

use superpin::{ProgramAnalysis, SharedMem, SuperPinConfig};
use superpin_bench::runs::{run_superpin, time_scale_for};
use superpin_tools::ICount1;
use superpin_workloads::{catalog, Scale};

const SCALE: Scale = Scale::Tiny;

fn config() -> SuperPinConfig {
    SuperPinConfig::scaled(1000, time_scale_for(SCALE))
}

/// Static target sets and SMC regions contain every dynamic
/// observation — the oracle stays clean across the catalog and across
/// distinct workload inputs (different inputs steer indirect branches
/// down different paths, so each input is an independent witness).
#[test]
fn oracle_is_clean_across_catalog_and_inputs() {
    for spec in catalog() {
        for input in [0, 1, 7] {
            let program = spec.build_with_input(SCALE, input);
            let analysis = ProgramAnalysis::compute(&program)
                .unwrap_or_else(|e| panic!("{} input {input}: analysis: {e}", spec.name));
            let oracle = Arc::new(analysis.oracle());
            let cfg = config().with_oracle(Arc::clone(&oracle));
            let shared = SharedMem::new();
            run_superpin(&program, ICount1::new(&shared), &shared, cfg, spec.name);
            assert!(
                oracle.is_clean(),
                "{} input {input}: dynamic behavior escaped the static \
                 over-approximation: {:?}",
                spec.name,
                oracle.violations(),
            );
        }
    }
}
