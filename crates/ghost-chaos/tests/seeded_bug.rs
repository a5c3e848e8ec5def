#![cfg(feature = "seeded-bug")]
//! End-to-end validation that the harness actually catches bugs: with
//! the `seeded-bug` feature on, enclave teardown strands runnable
//! threads in the ghOSt class instead of moving them to CFS. The sweep
//! oracles must catch it, the shrinker must reduce the fault plan to a
//! minimal repro, and the written `repro.json` must replay the exact
//! failure deterministically.

use ghost_chaos::{run_combo, Combo, FaultSweep, PolicyKind, Sweep};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::time::MILLIS;
use ghost_sim::topology::CpuId;

/// A hand-built ≤3-event plan whose agent hang trips the watchdog (and,
/// belt and braces, a later crash and a tick skew). The odd seed keeps
/// the run on the fallback path (no staged standby), so teardown runs —
/// and the seeded bug strands every runnable thread.
fn buggy_combo() -> Combo {
    Combo {
        policy: PolicyKind::CentralizedFifo,
        seed: 0xB19,
        plan: FaultPlan::from_events([
            (
                5 * MILLIS,
                FaultKind::AgentHang {
                    cpu: CpuId(1),
                    dur: 30 * MILLIS,
                },
            ),
            (40 * MILLIS, FaultKind::AgentCrash { cpu: CpuId(1) }),
            (
                60 * MILLIS,
                FaultKind::TickSkew {
                    dur: 5 * MILLIS,
                    extra: 500_000,
                },
            ),
        ]),
        horizon: 120 * MILLIS,
        threads: 5,
    }
}

#[test]
fn seeded_bug_is_caught_shrunk_and_replayed() {
    // 1. Caught: the oracles flag the stranded threads.
    let combo = buggy_combo();
    let report = run_combo(&combo);
    assert!(!report.failures.is_empty(), "seeded bug not caught");
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.contains("[fallback-to-cfs]")),
        "expected the fallback oracle to fire, got: {:?}",
        report.failures
    );

    // 2. Shrunk: either the hang (watchdog reap) or the crash (fallback)
    // alone reproduces, so the minimal plan is a single event.
    let minimal = FaultSweep::FAULTS.shrink(&combo);
    assert!(
        minimal.plan.events.len() <= 3,
        "shrunk plan too large: {:?}",
        minimal.plan.events
    );
    assert!(
        minimal.plan.events.len() < combo.plan.events.len(),
        "shrinker removed nothing"
    );
    let min_report = run_combo(&minimal);
    assert!(
        !min_report.failures.is_empty(),
        "shrunk combo stopped failing"
    );

    // 3. Replayed: through repro.json, byte-identical failure set.
    let parsed = FaultSweep::FAULTS
        .parse(&FaultSweep::FAULTS.encode(&minimal))
        .expect("repro parses");
    assert_eq!(parsed, minimal);
    let replayed = run_combo(&parsed);
    assert_eq!(replayed.failures, min_report.failures, "replay diverged");
    assert_eq!(replayed.sample.completions, min_report.sample.completions);
}
