//! Bounded live-chaos smoke: one crash combo and one hang combo through
//! the real-thread backend, end to end, with every wall-clock oracle
//! armed. The full rotation runs in CI via `ghost-chaos --live`; this
//! keeps the tier-1 suite honest about the path existing at all.

use ghost_chaos::live::generate_live_plan;
use ghost_chaos::{run_live_combo, LiveCombo, PolicyKind};
use ghost_sim::faults::FaultKind;
use ghost_sim::topology::CpuId;

fn combo(policy: PolicyKind, seed: u64) -> LiveCombo {
    let mut c = LiveCombo::generated(policy, seed);
    // Tier-1 budget: fewer requests, same fault plan and oracles.
    c.requests = 20_000;
    c
}

#[test]
fn live_crash_combo_recovers_within_slo() {
    // Seed 3 rotates to an agent crash (see `generate_live_plan`).
    let c = combo(PolicyKind::CentralizedFifo, 3);
    assert!(c.injects_crash());
    let outcome = run_live_combo(&c);
    assert!(
        outcome.failures.is_empty(),
        "oracle failures: {:?}",
        outcome.failures
    );
    let report = outcome.sample;
    assert!(report.stats.respawns >= 1, "standby never respawned");
    assert!(report.stats.reconstructions >= 1, "no status-word resync");
    let gap = report.recovery_wall_ns.expect("recovery was measured");
    assert!(
        gap <= ghost_chaos::RECOVERY_WALL_SLO,
        "recovery took {gap} ns"
    );
    // Every admitted request terminated exactly once.
    assert_eq!(
        report.completed + report.shed + report.failed,
        c.requests,
        "closed-loop accounting leaked"
    );
}

#[test]
fn live_hang_combo_stalls_and_completes() {
    // Seed 4 rotates to an agent hang on every CPU.
    let c = combo(PolicyKind::PerCpu, 4);
    assert!(!c.injects_crash());
    assert!(c
        .plan
        .events
        .iter()
        .all(|fe| matches!(fe.kind, FaultKind::AgentHang { .. })));
    let outcome = run_live_combo(&c);
    assert!(
        outcome.failures.is_empty(),
        "oracle failures: {:?}",
        outcome.failures
    );
    assert!(outcome.sample.completed > 0, "hang combo made no progress");
}

#[test]
fn live_lease_revoke_while_degraded_stays_accounted() {
    // The lease-revoke-while-degraded case: the revoke-reconstruct arm
    // kills the protected agent mid-lease (the enclave goes degraded
    // and the KV service arms load shedding), then force-reclaims the
    // borrowed CPU while reconstruction is in flight. The oracles
    // require zero stranded leases, full grant accounting, and a
    // recovered enclave; the closed loop's terminal accounting must
    // still sum despite shedding at the boundary.
    let mut combo = ghost_chaos::LendingLiveCombo::generated(PolicyKind::CentralizedFifo, 2);
    assert_eq!(
        combo.fault,
        ghost_chaos::lab::LendingFault::RevokeDuringReconstruct,
        "seed 2 rotates to the revoke-reconstruct arm"
    );
    combo.requests = 20_000; // tier-1 budget
    let outcome = ghost_chaos::run_lending_live(&combo);
    assert!(
        outcome.failures.is_empty(),
        "oracle failures: {:?}",
        outcome.failures
    );
    let report = outcome.sample;
    assert!(report.lease_stats.granted >= 1, "no lease was granted");
    let resolved = report.lease_stats.returned
        + report.lease_stats.expired
        + report.lease_stats.borrower_deaths
        + report.lease_stats.lender_deaths;
    assert_eq!(
        report.lease_stats.granted,
        resolved + report.outstanding,
        "lease accounting leaked"
    );
    assert!(report.completed > 0, "no KV progress through the revoke");
}

#[test]
fn live_plans_scale_to_the_backend_cpus() {
    // The generator must target only CPUs the live kernel manages:
    // a plan aimed at CpuId(7) on a 2-CPU backend would inject nothing.
    let cpus: Vec<CpuId> = (0..2u16).map(CpuId).collect();
    for seed in 0..9 {
        for fe in &generate_live_plan(seed, &cpus).events {
            let target = match fe.kind {
                FaultKind::AgentCrash { cpu }
                | FaultKind::AgentHang { cpu, .. }
                | FaultKind::AgentSlow { cpu, .. } => cpu,
                ref other => panic!("live plan rolled a non-agent fault: {other:?}"),
            };
            assert!(cpus.contains(&target), "seed {seed} targets {target:?}");
        }
    }
}
