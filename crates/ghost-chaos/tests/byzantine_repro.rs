//! Regression replays of shrunk byzantine repros that panicked the
//! kernel before the ABI boundary was hardened. Each repro is the
//! 1-minimal hostile op sequence found by the sweep + shrinker; they are
//! checked in so the panics can never come back silently.

use ghost_chaos::{run_byzantine, ByzantineSweep, Sweep};
use ghost_core::abi::AbiError;

fn load(name: &str) -> String {
    let path = format!("{}/tests/repros/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Pre-hardening, a transaction targeting a forged CPU id (999 on an
/// 8-CPU machine) indexed out of bounds in the commit path's
/// `CpuSet::contains` and panicked the kernel. It must now settle as a
/// typed `InvalidCpu` rejection while the victim enclave keeps its SLO.
#[test]
fn forged_commit_cpu_is_a_typed_rejection() {
    let combo = ByzantineSweep
        .parse(&load("byzantine-forged-cpu.json"))
        .unwrap();
    let outcome = run_byzantine(&combo);
    assert!(
        outcome.failures.is_empty(),
        "oracles failed: {:?}",
        outcome.failures
    );
    let report = outcome.sample;
    assert!(report.hostile_rejected >= 1);
    assert!(report.stats.rejects(AbiError::InvalidCpu) >= 1);
}

/// Pre-hardening, creating an enclave whose CPU mask named an id beyond
/// `MAX_CPUS` indexed out of bounds in `CpuSet::add` and panicked
/// before validation ever ran. The unrepresentable id now simply never
/// joins the mask, so creation fails closed with a typed `EmptyCpuSet`
/// rejection. (The shrunk repro originally used id 300 against
/// `MAX_CPUS = 256`; when the mask grew to 1024 words for the zen
/// topology, the id moved to 1300 to stay unrepresentable.)
#[test]
fn oversized_enclave_mask_is_a_typed_rejection() {
    let combo = ByzantineSweep
        .parse(&load("byzantine-overlapping-create.json"))
        .unwrap();
    let outcome = run_byzantine(&combo);
    assert!(
        outcome.failures.is_empty(),
        "oracles failed: {:?}",
        outcome.failures
    );
    let report = outcome.sample;
    assert!(report.hostile_rejected >= 1);
    assert!(report.stats.rejects(AbiError::EmptyCpuSet) >= 1);
}
