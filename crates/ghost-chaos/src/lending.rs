//! `--lending` sweeps: multi-enclave core lending under control-plane
//! faults, on both backends.
//!
//! The simulated side reuses [`ghost_lab::LendingScenario`] — a
//! two-enclave machine (latency-critical "protected" enclave borrowing
//! from a batch "donor") driven by the in-process resource manager —
//! and rotates `(policy × fault)` combos through the parallel sweep
//! engine, so `--jobs N` is byte-identical to serial and CI can diff
//! digests. The fault rows are the ISSUE's four: RM crash,
//! lease-deadline stress, borrower crash mid-lease, and revoke during
//! standby reconstruction. Each combo judges itself (the scenario's
//! oracles: no stranded lease, full grant accounting, donor liveness,
//! per-fault expectations); failures replay deterministically from
//! `repro.json`.
//!
//! The live side ([`LendingLiveCombo`]) runs the same fault rows on the
//! real-thread backend: protected enclave with a closed-loop KV
//! workload on CPUs {0,1}, idle donor on {2,3}, the RM deciding on
//! driver-timer epochs, and faults injected at wall-clock marks. The
//! headline property — lease deadlines are enforced by the kernel-side
//! table even while the RM is dead — is exercised directly: the RM
//! crash arm grants a lease, kills the RM, and requires the deadline to
//! fire anyway. Live runs are wall-clock and unshrunk, like
//! [`crate::live`].

use crate::oracle::Failure;
use crate::repro;
use crate::sweep::{rotate, Outcome, Sweep};
use ghost_core::{LeaseStats, RmConfig};
use ghost_lab::bench::BenchRow;
use ghost_lab::{
    lease_invariants, lease_reclaim_rows, LendingFault, LendingScenario, LendingWorkload, ScoreCols,
};
use ghost_live::{LiveConfig, LiveKernel};
use ghost_sim::time::{Nanos, MILLIS, SECS};
use ghost_sim::topology::CpuId;
use ghost_trace::derive::TraceMetrics;
use ghost_trace::json::Json;
use ghost_trace::TraceSink;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub use ghost_lab::scenario::PolicyKind;

use crate::live::{await_recovery, launch, live_policies, KvLoad};

/// Virtual horizon for one simulated lending combo: long enough for the
/// diurnal backlog to force borrowing, every fault arm to complete its
/// schedule, and deadline-stress leases to expire several times over.
pub const LENDING_HORIZON: Nanos = 120 * MILLIS;

/// One point of the live lending sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LendingLiveCombo {
    /// Policy on the protected (borrowing) enclave.
    pub policy: PolicyKind,
    /// Control-plane fault arm.
    pub fault: LendingFault,
    /// Kernel seed (and the sweep's bookkeeping).
    pub seed: u64,
    /// Closed-loop KV requests the protected enclave must account for.
    pub requests: u64,
}

impl LendingLiveCombo {
    /// The sweep's combo for `(policy, seed)`: the fault arm rotates
    /// with the seed so four consecutive seeds cover all four rows.
    pub fn generated(policy: PolicyKind, seed: u64) -> Self {
        let faults = LendingFault::all();
        Self {
            policy,
            fault: faults[(seed % faults.len() as u64) as usize],
            seed,
            requests: 60_000,
        }
    }

    /// RM configuration for this arm. Short lease deadlines where the
    /// arm needs expiry (stress, and RM-crash — the kernel must enforce
    /// the deadline while the RM is dead); effectively-unbounded
    /// deadlines elsewhere so lease resolution is attributable to the
    /// injected fault, not a background timer.
    fn rm_config(&self) -> RmConfig {
        let lease_duration = match self.fault {
            LendingFault::DeadlineStress => 25 * MILLIS,
            LendingFault::RmCrash => 50 * MILLIS,
            _ => 10 * SECS,
        };
        RmConfig {
            epoch: 5 * MILLIS,
            lease_duration,
            borrow_threshold: 2,
            return_threshold: 0,
            max_borrow: 2,
            reject_budget: 0,
        }
    }
}

/// The counters of a finished live lending run, beside its [`Outcome`].
pub struct LendingLiveReport {
    /// KV requests completed on the protected enclave.
    pub completed: u64,
    /// Kernel-side lease accounting at end of run.
    pub lease_stats: LeaseStats,
    /// Leases still outstanding at end of run (accounted, not stranded).
    pub outstanding: u64,
    /// RM failovers survived.
    pub rm_restarts: u32,
    /// Measured wall-clock revoke→reclaim spans (ns), one per revoked
    /// lease, straight from the trace.
    pub reclaim_spans: Vec<u64>,
    /// Wall-clock duration of the whole run.
    pub wall_ns: u128,
}

/// One wall-clock action of a live lending fault schedule.
enum LiveStep {
    /// Lend one donor CPU to the protected enclave for `dur`, if the RM
    /// has not already done so.
    LendIfIdle {
        dur: Nanos,
    },
    RmCrash,
    RmRestart,
    /// Kill the protected enclave's (first) agent.
    KillProtectedAgent,
    /// Force-reclaim the first CPU currently on loan to the protected
    /// enclave.
    ReclaimBorrowed,
}

/// Runs `combo` on the live backend and evaluates the lending oracles.
/// Takes real wall-clock time (~0.5–1 s per combo plus KV drain).
pub fn run_lending_live(combo: &LendingLiveCombo) -> Outcome<LendingLiveReport> {
    let started = Instant::now();
    let cpus = 4usize;
    let sink = TraceSink::recording(cpus, 1 << 20);
    let kernel = LiveKernel::new(LiveConfig {
        cpus,
        seed: combo.seed,
        trace: sink.clone(),
        ..LiveConfig::default()
    });

    // Standby machinery only where the arm crashes an agent that must
    // come back: revoke-during-reconstruct. The borrower-crash arm
    // deliberately leaves the enclave unprotected — its death is the
    // point (the lease must resolve, not strand).
    let standby = combo.fault == LendingFault::RevokeDuringReconstruct;
    let protected = launch(
        &kernel,
        combo.policy,
        &format!("lend-live-{}", combo.seed),
        [CpuId(0), CpuId(1)].into_iter().collect(),
        standby,
    );
    let donor = launch(
        &kernel,
        PolicyKind::CentralizedFifo,
        "lend-live-donor",
        [CpuId(2), CpuId(3)].into_iter().collect(),
        false,
    );

    let load = KvLoad::start(&kernel, &protected, "lend-kv", 4, combo.requests);

    kernel.rm_start(combo.rm_config(), protected.id(), donor.id());

    // Wall-clock fault schedule for the arm, in offset order.
    let schedule: Vec<(u64, LiveStep)> = match combo.fault {
        LendingFault::None => vec![(150, LiveStep::LendIfIdle { dur: 10 * SECS })],
        LendingFault::DeadlineStress => vec![(150, LiveStep::LendIfIdle { dur: 25 * MILLIS })],
        LendingFault::RmCrash => vec![
            (150, LiveStep::LendIfIdle { dur: 50 * MILLIS }),
            (200, LiveStep::RmCrash),
            (400, LiveStep::RmRestart),
        ],
        LendingFault::BorrowerCrash => vec![
            (150, LiveStep::LendIfIdle { dur: 10 * SECS }),
            (250, LiveStep::KillProtectedAgent),
        ],
        LendingFault::RevokeDuringReconstruct => vec![
            (150, LiveStep::LendIfIdle { dur: 10 * SECS }),
            (250, LiveStep::KillProtectedAgent),
            (300, LiveStep::ReclaimBorrowed),
        ],
    };
    let mut failures: Vec<Failure> = Vec::new();
    let rt = kernel.runtime();
    let eid = protected.id();
    let apply = |step: &LiveStep, failures: &mut Vec<Failure>| match step {
        LiveStep::LendIfIdle { dur } => {
            if rt.borrowed_by(eid).is_empty() {
                let lent = donor
                    .cpus()
                    .iter()
                    .rev()
                    .any(|&cpu| kernel.lend_cpu(&donor, &protected, cpu, *dur).is_ok());
                if !lent {
                    failures.push(Failure {
                        oracle: "lend-step",
                        detail: "no donor CPU could be lent at the schedule mark".into(),
                    });
                }
            }
        }
        LiveStep::RmCrash => {
            kernel.rm_crash();
        }
        LiveStep::RmRestart => {
            kernel.rm_restart();
        }
        LiveStep::KillProtectedAgent => {
            let agent = protected
                .global_agent()
                .or_else(|| protected.agent_tids().first().copied());
            if let Some(tid) = agent {
                kernel.kill(tid);
            }
        }
        LiveStep::ReclaimBorrowed => {
            if let Some(&cpu) = rt.borrowed_by(eid).first() {
                let _ = kernel.reclaim_cpu(cpu);
            }
        }
    };

    // Supervise, firing schedule marks as the wall clock passes them,
    // until the closed loop drains AND the schedule completes.
    let mut next = 0usize;
    load.supervise(&kernel, eid, &mut failures, |failures| {
        let elapsed_ms = started.elapsed().as_millis() as u64;
        while next < schedule.len() && elapsed_ms >= schedule[next].0 {
            apply(&schedule[next].1, failures);
            next += 1;
        }
        next >= schedule.len()
    });

    // Settle: any short lease granted near the end must get its
    // deadline fired by the timer thread before we judge stranding.
    std::thread::sleep(Duration::from_millis(150));
    if standby {
        // Wait for the §3.4 machinery before judging the recovery arm.
        await_recovery(rt, &protected);
    }

    let lease_stats = rt.lease_stats();
    let leases = rt.leases();
    let records = sink.snapshot();
    let metrics = TraceMetrics::from_records(&records);
    let reclaim_spans: Vec<u64> = metrics
        .lease_reclaim_spans
        .iter()
        .map(|(r, done)| done.saturating_sub(*r))
        .collect();
    let rm_restarts = rt.rm_stats().map(|r| r.restarts).unwrap_or_default();

    failures.extend(load.judge(&records, sink.dropped()));

    for fail in lease_invariants(rt, cpus, [&protected, &donor]) {
        failures.push(Failure {
            oracle: "lease-invariant",
            detail: fail.trim_start_matches("oracle-fail ").to_string(),
        });
    }
    if lease_stats.granted == 0 {
        failures.push(Failure {
            oracle: "never-lent",
            detail: "no lease was granted over the whole run".into(),
        });
    }
    if !donor.alive() {
        failures.push(Failure {
            oracle: "donor-died",
            detail: "donor enclave did not survive the run".into(),
        });
    }

    match combo.fault {
        LendingFault::None => {
            if !protected.alive() {
                failures.push(Failure {
                    oracle: "protected-died",
                    detail: "protected enclave died without an injected fault".into(),
                });
            }
        }
        LendingFault::DeadlineStress => {
            if lease_stats.expired == 0 {
                failures.push(Failure {
                    oracle: "no-deadline-expiry",
                    detail: "deadline stress produced no forced reclaim".into(),
                });
            }
        }
        LendingFault::RmCrash => {
            if rm_restarts == 0 {
                failures.push(Failure {
                    oracle: "rm-failover",
                    detail: "RM restart not recorded after the injected crash".into(),
                });
            }
            if lease_stats.expired == 0 {
                failures.push(Failure {
                    oracle: "kernel-deadline",
                    detail: "no lease deadline fired while/after the RM was down".into(),
                });
            }
        }
        LendingFault::BorrowerCrash => {
            // The borrower's fate is mode-dependent (a centralized
            // enclave dies, a per-CPU one limps on); the invariants
            // above — nothing stranded, everything accounted — are the
            // contract.
        }
        LendingFault::RevokeDuringReconstruct => {
            if !protected.alive() {
                failures.push(Failure {
                    oracle: "standby-recovery",
                    detail: "protected enclave did not recover from the standby respawn".into(),
                });
            }
        }
    }

    kernel.shutdown();
    let report = LendingLiveReport {
        completed: load.kv.completed_count(),
        lease_stats,
        outstanding: leases.len() as u64,
        rm_restarts,
        reclaim_spans,
        wall_ns: started.elapsed().as_nanos(),
    };
    let s = &report.lease_stats;
    let summary = format!(
        "completed={} granted={} returned={} expired={} borrower-deaths={} \
         lender-deaths={} outstanding={} rm-restarts={} reclaim-p99={} wall={:.2} s",
        report.completed,
        s.granted,
        s.returned,
        s.expired,
        s.borrower_deaths,
        s.lender_deaths,
        report.outstanding,
        report.rm_restarts,
        percentile(&report.reclaim_spans, 0.99)
            .map(|ns| format!("{:.2} ms", ns as f64 / 1e6))
            .unwrap_or_else(|| "-".into()),
        report.wall_ns as f64 / 1e9,
    );
    Outcome {
        lines: vec![summary],
        failures: failures.iter().map(Failure::to_string).collect(),
        records,
        sample: report,
    }
}

/// The `--lending` sweep: the four control-plane fault rows x
/// protected-enclave policies on the simulated two-enclave RM harness.
/// Deterministic (parallel, cached, digested) but unshrunk: a scenario
/// has no parts to drop. Repros are tagged `"kind": "lending"`; the
/// digest label and cache key are the scenario's own. Bench rows: one
/// sim `lease-reclaim-<policy>` row per swept policy.
#[derive(Debug, Clone, Copy)]
pub struct LendingSweep;

impl Sweep for LendingSweep {
    type Case = LendingScenario;
    type Sample = ();
    const KIND: Option<&'static str> = Some("lending");
    const DEFAULT_COMBOS: u64 = 16;
    const DETERMINISTIC: bool = true;
    const BENCH: bool = true;

    /// The protected (borrowing) enclave's policies: the two
    /// centralized schedulers, one FIFO and one preemptive — enough to
    /// show the lending machinery is policy-agnostic without paying for
    /// the whole evaluation matrix per fault row.
    fn policies(&self) -> Vec<PolicyKind> {
        vec![PolicyKind::CentralizedFifo, PolicyKind::Shinjuku]
    }

    /// Policy rotates fastest, then the four fault rows, always on the
    /// diurnal workload — the shape that reliably drives the RM to
    /// lend, so every fault lands on a system with lease traffic.
    fn generate(&self, i: u64, seed_base: u64, policies: &[PolicyKind]) -> LendingScenario {
        let faults = LendingFault::all();
        let fault = faults[((i / policies.len() as u64) % faults.len() as u64) as usize];
        LendingScenario::new(
            rotate(policies, i),
            LendingWorkload::Diurnal,
            fault,
            seed_base + i,
            LENDING_HORIZON,
        )
    }

    fn label(&self, sc: &LendingScenario) -> String {
        sc.name.clone()
    }

    fn spec(&self, sc: &LendingScenario) -> String {
        sc.spec_string()
    }

    /// The scenario reports each failure as a trailing `oracle-fail ...`
    /// result line; those become the outcome's failures.
    fn run(&self, sc: &LendingScenario) -> Outcome {
        let (result, records) = sc.run_traced();
        let mut lines = result.lines;
        let first_failure = lines
            .iter()
            .position(|l| l.starts_with("oracle-fail "))
            .unwrap_or(lines.len());
        let failures = lines.split_off(first_failure);
        Outcome {
            lines,
            failures,
            records,
            sample: (),
        }
    }

    fn encode(&self, sc: &LendingScenario) -> String {
        repro::document(
            Self::KIND,
            &[
                ("policy", repro::string(sc.policy.name())),
                ("workload", repro::string(sc.workload.name())),
                ("fault", repro::string(sc.fault.name())),
                ("seed", repro::string(&sc.seed.to_string())),
                ("horizon", sc.horizon.to_string()),
            ],
        )
    }

    fn decode(&self, doc: &Json) -> Result<LendingScenario, String> {
        let workload = repro::field_str(doc, "workload")?;
        let workload = LendingWorkload::from_name(workload)
            .ok_or_else(|| format!("unknown lending workload '{workload}'"))?;
        Ok(LendingScenario::new(
            repro::policy(doc, "policy", |_| true)?,
            workload,
            lending_fault(doc)?,
            repro::seed(doc)?,
            repro::field_u64(doc, "horizon")?,
        ))
    }

    fn bench_rows(
        &self,
        policies: &[PolicyKind],
        seed_base: u64,
        _: Vec<(LendingScenario, ())>,
    ) -> Vec<BenchRow> {
        lease_reclaim_rows(policies, seed_base)
    }
}

/// The `--lending-live` sweep: the lending fault rows at wall-clock
/// marks on the real-thread backend, serial and unshrunk like
/// [`crate::live::LiveSweep`]. Repros are tagged `"kind":
/// "lending-live"`. Bench rows: one live `lease-reclaim-<policy>` row
/// per policy that measured a reclaim, with percentiles over the
/// sweep's pooled revoke-to-reclaim spans.
#[derive(Debug, Clone, Copy)]
pub struct LendingLiveSweep;

impl Sweep for LendingLiveSweep {
    type Case = LendingLiveCombo;
    type Sample = LendingLiveReport;
    const KIND: Option<&'static str> = Some("lending-live");
    const DEFAULT_COMBOS: u64 = 4;
    const DETERMINISTIC: bool = false;
    const BENCH: bool = true;

    fn policies(&self) -> Vec<PolicyKind> {
        live_policies()
    }

    fn generate(&self, i: u64, seed_base: u64, policies: &[PolicyKind]) -> LendingLiveCombo {
        LendingLiveCombo::generated(rotate(policies, i), seed_base + i)
    }

    fn label(&self, combo: &LendingLiveCombo) -> String {
        format!(
            "policy={} seed={} fault={}",
            combo.policy.name(),
            combo.seed,
            combo.fault.name()
        )
    }

    fn run(&self, combo: &LendingLiveCombo) -> Outcome<LendingLiveReport> {
        run_lending_live(combo)
    }

    fn encode(&self, combo: &LendingLiveCombo) -> String {
        repro::document(
            Self::KIND,
            &[
                ("policy", repro::string(combo.policy.name())),
                ("fault", repro::string(combo.fault.name())),
                ("seed", repro::string(&combo.seed.to_string())),
                ("requests", combo.requests.to_string()),
            ],
        )
    }

    fn decode(&self, doc: &Json) -> Result<LendingLiveCombo, String> {
        Ok(LendingLiveCombo {
            policy: repro::policy(doc, "policy", |p| live_policies().contains(&p))?,
            fault: lending_fault(doc)?,
            seed: repro::seed(doc)?,
            requests: repro::field_u64(doc, "requests")?,
        })
    }

    fn bench_rows(
        &self,
        _policies: &[PolicyKind],
        _seed_base: u64,
        runs: Vec<(LendingLiveCombo, LendingLiveReport)>,
    ) -> Vec<BenchRow> {
        let mut by_policy: BTreeMap<&'static str, (Vec<u64>, u128)> = BTreeMap::new();
        for (combo, report) in &runs {
            let (spans, wall) = by_policy.entry(combo.policy.name()).or_default();
            spans.extend(&report.reclaim_spans);
            *wall += report.wall_ns;
        }
        by_policy
            .into_iter()
            .filter(|(_, (spans, _))| !spans.is_empty())
            .map(|(name, (spans, wall_ns))| BenchRow {
                name: format!("lease-reclaim-{name}"),
                backend: "live",
                wall_ns,
                sim_ns: None,
                work_items: spans.len() as u64,
                score: Some(ScoreCols {
                    p50_ns: percentile(&spans, 0.5).unwrap_or(0),
                    p99_ns: percentile(&spans, 0.99).unwrap_or(0),
                    p999_ns: percentile(&spans, 0.999).unwrap_or(0),
                    slo_violations: 0,
                    recovery_ns: None,
                    points: 0,
                }),
            })
            .collect()
    }
}

fn lending_fault(doc: &Json) -> Result<LendingFault, String> {
    let name = repro::field_str(doc, "fault")?;
    LendingFault::from_name(name).ok_or_else(|| format!("unknown lending fault '{name}'"))
}

/// Nearest-rank percentile over an unsorted span list.
fn percentile(spans: &[u64], q: f64) -> Option<u64> {
    if spans.is_empty() {
        return None;
    }
    let mut sorted = spans.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_generation_rotates_policies_and_faults() {
        let policies = LendingSweep.policies();
        let seen: std::collections::BTreeSet<_> = (0..8)
            .map(|i| {
                let sc = LendingSweep.generate(i, 100, &policies);
                assert_eq!(sc.seed, 100 + i);
                (sc.policy.name(), sc.fault.name())
            })
            .collect();
        // 2 policies x 4 faults, all distinct within one period.
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn live_combo_generation_rotates_faults() {
        let faults: std::collections::BTreeSet<_> = (0..4)
            .map(|s| {
                LendingLiveCombo::generated(PolicyKind::CentralizedFifo, s)
                    .fault
                    .name()
            })
            .collect();
        assert_eq!(faults.len(), 4);
    }
}
