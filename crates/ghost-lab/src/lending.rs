//! Multi-enclave core-lending experiments.
//!
//! A [`LendingScenario`] wires *two* enclaves onto one simulated
//! machine — a latency-sensitive **protected** enclave on CPUs {1,2}
//! and a batch **donor** enclave on CPUs {3..8} — starts the in-process
//! resource manager, and (optionally) injects one control-plane fault
//! mid-run. It implements [`Experiment`], so the same `run_sweep`
//! engine that drives chaos recovery sweeps drives lending sweeps, with
//! the same serial-vs-parallel digest contract.
//!
//! The three workload shapes mirror the lending motivation:
//!
//! * **diurnal** — batch + latency colocation: the protected enclave is
//!   near saturation on its own CPU, the donor idles; the RM lends.
//! * **flash-crowd** — the protected enclave idles until a burst
//!   arrives, which trips the RM's backlog threshold.
//! * **antagonist** — the *borrower* hosts CPU hogs: a misbehaving
//!   borrower must still lose the CPU at the lease deadline.
//!
//! The fault arms cover the control-plane failure matrix: RM crash
//! (leases stay kernel-enforced), RM restart (state reconstruction),
//! borrower agent crash mid-lease, lease revocation landing during
//! §3.4 recovery, and deadline stress (short leases, constant churn).

use crate::cache::fnv64_lines;
use crate::engine::{Experiment, ExperimentResult};
use crate::scenario::{attach_workload, trace_sink, PolicyKind, WorkloadSpec};
use crate::schema::{BenchRow, ScoreCols};
use ghost_core::runtime::{EnclaveHandle, GhostRuntime};
use ghost_core::{RmConfig, StandbyConfig};
use ghost_sim::kernel::{Kernel, KernelConfig};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_trace::{check, derive::TraceMetrics, TraceSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Workload shape on the protected (borrowing) enclave. The donor
/// always runs a light standard pulse load — it must have spare CPUs,
/// or there is nothing to lend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LendingWorkload {
    /// Batch + latency colocation: protected near saturation all run.
    Diurnal,
    /// Protected idles, then a burst arrives at 1/4 horizon.
    FlashCrowd,
    /// The borrower hosts CPU hogs that never block.
    Antagonist,
}

impl LendingWorkload {
    /// Stable spec/label name.
    pub fn name(self) -> &'static str {
        match self {
            LendingWorkload::Diurnal => "diurnal",
            LendingWorkload::FlashCrowd => "flash-crowd",
            LendingWorkload::Antagonist => "antagonist",
        }
    }

    /// Parses a stable name back into a workload (repro files).
    pub fn from_name(name: &str) -> Option<Self> {
        [
            LendingWorkload::Diurnal,
            LendingWorkload::FlashCrowd,
            LendingWorkload::Antagonist,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    /// The protected enclave's workload spec. Segments are sized so
    /// that demand comfortably exceeds the protected enclave's single
    /// schedulable CPU — backlog is what the RM reacts to.
    fn protected_spec(self, horizon: Nanos) -> WorkloadSpec {
        match self {
            LendingWorkload::Diurnal => WorkloadSpec::Pulse {
                threads: 6,
                seg: (600 * MICROS, 900 * MICROS),
                period: (900 * MICROS, 1100 * MICROS),
            },
            LendingWorkload::FlashCrowd => WorkloadSpec::FlashCrowd {
                threads: 8,
                seg: (200 * MICROS, 400 * MICROS),
                quiet: (4 * MILLIS, 8 * MILLIS),
                burst: (250 * MICROS, 500 * MICROS),
                burst_at: horizon / 4,
            },
            LendingWorkload::Antagonist => WorkloadSpec::Antagonist {
                pulse: 4,
                hogs: 2,
                seg: (100 * MICROS, 300 * MICROS),
                period: (500 * MICROS, MILLIS),
                slice: MILLIS,
            },
        }
    }
}

/// One control-plane fault injected mid-run (at fixed fractions of the
/// horizon, so the schedule is part of the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LendingFault {
    /// No perturbation.
    None,
    /// RM crashes at 0.4·horizon and restarts at 0.7·horizon: leases
    /// must stay kernel-enforced in between, and the restarted RM must
    /// reconstruct from enclave snapshots and resume lending.
    RmCrash,
    /// The borrower's agent is killed at 0.5·horizon while leases may
    /// be outstanding; no lease may strand on the dead/recovering side.
    BorrowerCrash,
    /// The borrower runs with a hot standby; its agent is killed just
    /// after a fresh short lease, so the deadline revoke lands during
    /// §3.4 reconstruction.
    RevokeDuringReconstruct,
    /// Short lease durations: grants and forced expiries churn
    /// constantly for the whole run.
    DeadlineStress,
}

impl LendingFault {
    /// Stable spec/label name.
    pub fn name(self) -> &'static str {
        match self {
            LendingFault::None => "none",
            LendingFault::RmCrash => "rm-crash",
            LendingFault::BorrowerCrash => "borrower-crash",
            LendingFault::RevokeDuringReconstruct => "revoke-reconstruct",
            LendingFault::DeadlineStress => "deadline-stress",
        }
    }

    /// Parses a stable name back into a fault (repro files).
    pub fn from_name(name: &str) -> Option<Self> {
        let mut kinds = vec![LendingFault::None];
        kinds.extend(LendingFault::all());
        kinds.into_iter().find(|f| f.name() == name)
    }

    /// All injectable faults, in sweep order.
    pub fn all() -> [LendingFault; 4] {
        [
            LendingFault::RmCrash,
            LendingFault::BorrowerCrash,
            LendingFault::RevokeDuringReconstruct,
            LendingFault::DeadlineStress,
        ]
    }
}

/// A complete two-enclave lending experiment description. Pure data:
/// equal scenarios produce byte-identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LendingScenario {
    /// Report label.
    pub name: String,
    /// Policy on the protected (borrowing) enclave.
    pub policy: PolicyKind,
    /// Policy on the donor enclave.
    pub donor_policy: PolicyKind,
    /// Protected-enclave workload shape.
    pub workload: LendingWorkload,
    /// Injected control-plane fault.
    pub fault: LendingFault,
    /// Kernel RNG / workload seed.
    pub seed: u64,
    /// Virtual run length.
    pub horizon: Nanos,
    /// Capacity of the one trace ring every CPU records into (0 disables
    /// tracing — but lease-latency metrics then vanish, so the library
    /// default records).
    pub trace_capacity: usize,
}

/// A launched lending scenario: the wired machine plus both enclaves.
pub struct LendingRun {
    pub kernel: Kernel,
    pub runtime: GhostRuntime,
    pub protected: EnclaveHandle,
    pub donor: EnclaveHandle,
    pub p_threads: Vec<Tid>,
    pub d_threads: Vec<Tid>,
    p_completions: Arc<Mutex<u64>>,
    d_completions: Arc<Mutex<u64>>,
    pub sink: TraceSink,
}

impl LendingRun {
    /// Protected-enclave pulse segments completed so far.
    pub fn p_completions(&self) -> u64 {
        *self.p_completions.lock().unwrap()
    }

    /// Donor-enclave pulse segments completed so far.
    pub fn d_completions(&self) -> u64 {
        *self.d_completions.lock().unwrap()
    }
}

impl LendingScenario {
    /// The RM configuration for this scenario's fault arm.
    fn rm_config(&self) -> RmConfig {
        RmConfig {
            epoch: 500 * MICROS,
            lease_duration: if self.fault == LendingFault::DeadlineStress {
                3 * MILLIS
            } else {
                10 * MILLIS
            },
            borrow_threshold: 3,
            return_threshold: 0,
            max_borrow: 2,
            reject_budget: 0,
        }
    }

    /// Canonical spec string — the cache key and determinism contract.
    pub fn spec_string(&self) -> String {
        format!(
            "ghost-lab lending v1\nprotected {}\ndonor {}\nworkload {}\nfault {}\n\
             seed {}\nhorizon {}\ntrace-capacity {}\n",
            self.policy.name(),
            self.donor_policy.name(),
            self.workload.name(),
            self.fault.name(),
            self.seed,
            self.horizon,
            self.trace_capacity
        )
    }

    /// Builds the two-enclave machine without running it: an 8-CPU
    /// small topology, protected on {1,2}, donor on {3..8}, workloads
    /// attached, RM started.
    pub fn launch(&self) -> LendingRun {
        let sink = trace_sink(self.trace_capacity);
        let mut kernel = Kernel::new(
            Topology::test_small(4),
            KernelConfig {
                seed: self.seed,
                trace: sink.clone(),
                ..KernelConfig::default()
            },
        );
        let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
        let p_cpus: CpuSet = (1..3u16).map(CpuId).collect();
        let d_cpus: CpuSet = (3..8u16).map(CpuId).collect();

        let mut p_config = self.policy.enclave_config("protected");
        if self.fault == LendingFault::RevokeDuringReconstruct {
            p_config = p_config.with_standby(StandbyConfig::default());
        }
        let protected = runtime.launch_enclave(&mut kernel, p_cpus, p_config, self.policy.build());
        if self.fault == LendingFault::RevokeDuringReconstruct {
            let pk = self.policy;
            protected.set_standby_policy(move || pk.build());
        }
        let donor = runtime.launch_enclave(
            &mut kernel,
            d_cpus,
            self.donor_policy.enclave_config("donor"),
            self.donor_policy.build(),
        );

        let (p_threads, p_completions) = attach_workload(
            &mut kernel,
            &protected,
            &self.workload.protected_spec(self.horizon),
            self.seed,
            self.policy,
        );
        let (d_threads, d_completions) = attach_workload(
            &mut kernel,
            &donor,
            &WorkloadSpec::pulse(4),
            self.seed ^ 0xD0_1104,
            self.donor_policy,
        );

        runtime.rm_start(
            &mut kernel.state,
            self.rm_config(),
            protected.id(),
            donor.id(),
        );

        LendingRun {
            kernel,
            runtime,
            protected,
            donor,
            p_threads,
            d_threads,
            p_completions,
            d_completions,
            sink,
        }
    }

    /// Launches, drives the fault schedule, and checks the lending
    /// oracles. `pass` is false iff an oracle failed; every failure is
    /// reported as an `oracle-fail ...` line.
    pub fn run(&self) -> ExperimentResult {
        self.run_traced().0
    }

    /// Like [`LendingScenario::run`], but also hands back the recorded
    /// trace (for Chrome export of failing chaos combos).
    pub fn run_traced(&self) -> (ExperimentResult, Vec<ghost_trace::TraceRecord>) {
        let mut run = self.launch();
        let h = self.horizon;
        match self.fault {
            LendingFault::None | LendingFault::DeadlineStress => {
                run.kernel.run_until(h);
            }
            LendingFault::RmCrash => {
                run.kernel.run_until(h * 2 / 5);
                run.runtime.rm_crash();
                run.kernel.run_until(h * 7 / 10);
                run.runtime.rm_restart(&mut run.kernel.state);
                run.kernel.run_until(h);
            }
            LendingFault::BorrowerCrash => {
                run.kernel.run_until(h / 2);
                let agent = run
                    .protected
                    .global_agent()
                    .or_else(|| run.protected.agent_tids().first().copied());
                if let Some(a) = agent {
                    run.kernel.kill(a);
                }
                run.kernel.run_until(h);
            }
            LendingFault::RevokeDuringReconstruct => {
                run.kernel.run_until(h * 2 / 5);
                // Guarantee a short lease is outstanding when the agent
                // dies, so its deadline lands mid-recovery.
                if run.protected.borrowed_cpus().is_empty() {
                    for &cpu in run.donor.cpus().iter().rev() {
                        if run
                            .runtime
                            .try_lend_cpu(
                                &mut run.kernel.state,
                                run.donor.id(),
                                run.protected.id(),
                                cpu,
                                20 * MILLIS,
                            )
                            .is_ok()
                        {
                            break;
                        }
                    }
                }
                run.kernel.run_until(h * 2 / 5 + 5 * MILLIS);
                let agent = run
                    .protected
                    .global_agent()
                    .or_else(|| run.protected.agent_tids().first().copied());
                if let Some(a) = agent {
                    run.kernel.kill(a);
                }
                run.kernel.run_until(h);
            }
        }

        let mut failures = self.check_oracles(&run);
        let records = run.sink.snapshot();
        for v in check::check(&records) {
            failures.push(format!("oracle-fail trace-invariant {v:?}"));
        }
        let metrics = TraceMetrics::from_records(&records);
        let stats = run.runtime.lease_stats();
        let rm = run.runtime.rm_stats();
        let trace_hash = {
            let tl: Vec<String> = records.iter().map(|r| format!("{r:?}")).collect();
            fnv64_lines(&tl)
        };

        let mut lines = vec![
            format!("p-completions {}", run.p_completions()),
            format!("d-completions {}", run.d_completions()),
            format!("leases-granted {}", stats.granted),
            format!("leases-returned {}", stats.returned),
            format!("leases-expired {}", stats.expired),
            format!("lease-borrower-deaths {}", stats.borrower_deaths),
            format!("lease-lender-deaths {}", stats.lender_deaths),
            format!("leases-outstanding {}", run.runtime.leases().len()),
            format!("rm-epochs {}", rm.map(|r| r.epochs).unwrap_or_default()),
            format!("rm-restarts {}", rm.map(|r| r.restarts).unwrap_or_default()),
            format!("rm-failovers {}", metrics.rm_failovers),
            format!(
                "lease-reclaim-p99-ns {}",
                metrics
                    .lease_reclaim_p99_ns()
                    .map_or_else(|| "none".into(), |p| p.to_string())
            ),
            format!("protected-alive {}", u8::from(run.protected.alive())),
            format!("donor-alive {}", u8::from(run.donor.alive())),
            format!("trace-records {}", records.len()),
            format!("trace-hash {trace_hash:016x}"),
        ];
        lines.extend(failures.iter().cloned());
        let hash = fnv64_lines(&lines);
        (
            ExperimentResult {
                pass: failures.is_empty(),
                hash,
                lines,
            },
            records,
        )
    }

    /// The lending oracles: no stranded leases, full grant accounting,
    /// donor liveness, and per-fault expectations.
    fn check_oracles(&self, run: &LendingRun) -> Vec<String> {
        let rt = &run.runtime;
        let mut fails = lease_invariants(
            rt,
            run.kernel.state.topo.num_cpus(),
            [&run.protected, &run.donor],
        );
        let s = rt.lease_stats();

        // The donor must survive every arm, and both sides must have
        // made forward progress (the donor's light load always fits;
        // the protected side ran at least until the injected fault).
        if !run.donor.alive() {
            fails.push("oracle-fail donor-died".into());
        }
        if run.d_completions() == 0 {
            fails.push("oracle-fail donor-no-progress".into());
        }
        if run.p_completions() == 0 {
            fails.push("oracle-fail protected-no-progress".into());
        }

        match self.fault {
            LendingFault::None | LendingFault::DeadlineStress => {
                if s.granted == 0 {
                    fails.push("oracle-fail rm-never-lent".into());
                }
                if self.fault == LendingFault::DeadlineStress && s.expired == 0 {
                    fails.push("oracle-fail no-deadline-expiry".into());
                }
                if !run.protected.alive() {
                    fails.push("oracle-fail protected-died-without-fault".into());
                }
            }
            LendingFault::RmCrash => {
                match rt.rm_stats() {
                    Some(rm) if rm.restarts == 0 => {
                        fails.push("oracle-fail rm-failover-not-recorded".into())
                    }
                    None => fails.push("oracle-fail rm-not-restarted".into()),
                    _ => {}
                }
                if !run.protected.alive() {
                    fails.push("oracle-fail protected-died-without-fault".into());
                }
            }
            LendingFault::BorrowerCrash => {
                // The borrower's fate depends on its agent mode (a
                // centralized enclave dies, a per-CPU one recovers);
                // the invariants above are the contract.
            }
            LendingFault::RevokeDuringReconstruct => {
                if !run.protected.alive() {
                    fails.push("oracle-fail standby-did-not-recover".into());
                }
            }
        }
        fails
    }
}

/// The lease invariants of a two-enclave lending run, on either
/// backend: no stranded lease (every outstanding lease's CPU is owned
/// by its borrower), no CPU owned by a dead enclave, and every grant
/// accounted for (resolved + outstanding == granted). One
/// `oracle-fail ...` line per violation.
pub fn lease_invariants(
    rt: &GhostRuntime,
    cpus: usize,
    enclaves: [&EnclaveHandle; 2],
) -> Vec<String> {
    let mut fails = Vec::new();
    for l in rt.leases() {
        if rt.cpu_owner(l.cpu) != Some(l.borrower) {
            fails.push(format!(
                "oracle-fail stranded-lease cpu={} borrower={:?} owner={:?}",
                l.cpu.0,
                l.borrower,
                rt.cpu_owner(l.cpu)
            ));
        }
    }
    for c in 0..cpus as u16 {
        if let Some(eid) = rt.cpu_owner(CpuId(c)) {
            if !enclaves.iter().any(|e| e.id() == eid && e.alive()) {
                fails.push(format!(
                    "oracle-fail cpu-on-dead-enclave cpu={c} enclave={eid:?}"
                ));
            }
        }
    }
    let s = rt.lease_stats();
    let resolved = s.returned + s.expired + s.borrower_deaths + s.lender_deaths;
    if s.granted != resolved + rt.leases().len() as u64 {
        fails.push(format!(
            "oracle-fail lease-accounting granted={} resolved={resolved} outstanding={}",
            s.granted,
            rt.leases().len()
        ));
    }
    fails
}

impl Experiment for LendingScenario {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn spec(&self) -> String {
        self.spec_string()
    }

    fn execute(&self) -> ExperimentResult {
        self.run()
    }
}

/// Default trace capacity for lending runs: big enough that the lease
/// spans are never dropped at the library horizons.
const LENDING_TRACE_CAPACITY: usize = 1 << 19;

impl LendingScenario {
    /// The canonical sweep point for `(policy, workload, fault, seed)`:
    /// centralized-FIFO donor, standard label, recording trace.
    pub fn new(
        policy: PolicyKind,
        workload: LendingWorkload,
        fault: LendingFault,
        seed: u64,
        horizon: Nanos,
    ) -> LendingScenario {
        LendingScenario {
            name: format!(
                "lend/{}/{}+{}/seed={seed}",
                policy.name(),
                workload.name(),
                fault.name()
            ),
            policy,
            donor_policy: PolicyKind::CentralizedFifo,
            workload,
            fault,
            seed,
            horizon,
            trace_capacity: LENDING_TRACE_CAPACITY,
        }
    }
}

fn scenario(
    policy: PolicyKind,
    workload: LendingWorkload,
    fault: LendingFault,
    seed: u64,
    horizon: Nanos,
) -> LendingScenario {
    LendingScenario::new(policy, workload, fault, seed, horizon)
}

/// The fault-free lending library: every workload shape under every
/// given protected-enclave policy.
pub fn lending_library(policies: &[PolicyKind], seed: u64, horizon: Nanos) -> Vec<LendingScenario> {
    let mut out = Vec::new();
    for &p in policies {
        for w in [
            LendingWorkload::Diurnal,
            LendingWorkload::FlashCrowd,
            LendingWorkload::Antagonist,
        ] {
            out.push(scenario(p, w, LendingFault::None, seed, horizon));
        }
    }
    out
}

/// The control-plane fault matrix: every [`LendingFault`] under every
/// given policy, on the diurnal (always-borrowing) workload.
pub fn lending_fault_matrix(
    policies: &[PolicyKind],
    seed: u64,
    horizon: Nanos,
) -> Vec<LendingScenario> {
    let mut out = Vec::new();
    for &p in policies {
        for f in LendingFault::all() {
            out.push(scenario(p, LendingWorkload::Diurnal, f, seed, horizon));
        }
    }
    out
}

/// Measures lease revoke-to-reclaim latency under deadline stress for
/// each policy and reports one `lease-reclaim-<policy>` bench row, with
/// the latency percentiles in the scoring columns (`slo_violations`
/// counts reclaim spans over the 1 ms acceptance bound). `work_items`
/// is the number of lease revocations measured.
pub fn lease_reclaim_rows(policies: &[PolicyKind], seed: u64) -> Vec<BenchRow> {
    let horizon = 200 * MILLIS;
    policies
        .iter()
        .map(|&p| {
            let sc = scenario(
                p,
                LendingWorkload::Diurnal,
                LendingFault::DeadlineStress,
                seed,
                horizon,
            );
            let started = Instant::now();
            let mut run = sc.launch();
            run.kernel.run_until(horizon);
            let wall_ns = started.elapsed().as_nanos();
            let records = run.sink.snapshot();
            let metrics = TraceMetrics::from_records(&records);
            let pct = |q: f64| metrics.lease_reclaim_percentile_ns(q).unwrap_or(0);
            let slo = metrics
                .lease_reclaim_spans
                .iter()
                .filter(|(r, done)| done.saturating_sub(*r) > MILLIS)
                .count() as u64;
            BenchRow {
                name: format!("lease-reclaim-{}", p.name()),
                backend: "sim",
                wall_ns,
                sim_ns: Some(horizon),
                work_items: metrics.lease_revokes(),
                score: Some(ScoreCols {
                    p50_ns: pct(0.5),
                    p99_ns: pct(0.99),
                    p999_ns: pct(0.999),
                    slo_violations: slo,
                    recovery_ns: None,
                    points: 0,
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;

    /// The two centralized policies the lending sweep targets.
    fn policies() -> Vec<PolicyKind> {
        vec![PolicyKind::CentralizedFifo, PolicyKind::Shinjuku]
    }

    #[test]
    fn diurnal_colocation_borrows_and_stays_clean() {
        let sc = scenario(
            PolicyKind::CentralizedFifo,
            LendingWorkload::Diurnal,
            LendingFault::None,
            7,
            150 * MILLIS,
        );
        let r = sc.run();
        assert!(r.pass, "oracles failed:\n{}", r.lines.join("\n"));
        let granted: u64 = r
            .lines
            .iter()
            .find_map(|l| l.strip_prefix("leases-granted "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(granted >= 1, "diurnal backlog must trigger lending");
    }

    #[test]
    fn flash_crowd_triggers_borrow_after_burst() {
        let sc = scenario(
            PolicyKind::CentralizedFifo,
            LendingWorkload::FlashCrowd,
            LendingFault::None,
            7,
            200 * MILLIS,
        );
        // The quiet phase may see an incidental startup borrow, but the
        // crowd's arrival must drive sustained additional lending: run a
        // truncated copy to just before the burst and compare.
        let mut pre = sc.launch();
        pre.kernel.run_until(sc.horizon / 4);
        let pre_granted = pre.runtime.lease_stats().granted;
        let r = sc.run();
        assert!(r.pass, "oracles failed:\n{}", r.lines.join("\n"));
        let granted: u64 = r
            .lines
            .iter()
            .find_map(|l| l.strip_prefix("leases-granted "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            granted > pre_granted,
            "crowd must trigger borrowing beyond the quiet phase \
             (pre={pre_granted}, total={granted})"
        );
    }

    #[test]
    fn antagonist_borrower_loses_cpu_at_deadline() {
        let sc = scenario(
            PolicyKind::CentralizedFifo,
            LendingWorkload::Antagonist,
            LendingFault::DeadlineStress,
            7,
            200 * MILLIS,
        );
        let r = sc.run();
        assert!(r.pass, "oracles failed:\n{}", r.lines.join("\n"));
        let expired: u64 = r
            .lines
            .iter()
            .find_map(|l| l.strip_prefix("leases-expired "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(expired >= 1, "hogs must not outlive the lease deadline");
    }

    #[test]
    fn fault_matrix_passes_and_is_parallel_deterministic() {
        let sweep = lending_fault_matrix(&policies(), 11, 120 * MILLIS);
        let serial = run_sweep(&sweep, 1, None);
        let parallel = run_sweep(&sweep, 4, None);
        assert_eq!(serial.digest(), parallel.digest(), "serial ≡ parallel");
        for item in &serial.items {
            assert!(
                item.result.pass,
                "{} failed:\n{}",
                item.label,
                item.result.lines.join("\n")
            );
        }
    }

    #[test]
    fn lease_reclaim_rows_meet_the_millisecond_bound() {
        let rows = lease_reclaim_rows(&policies(), 3);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let score = row.score.expect("scored row");
            assert!(row.work_items >= 1, "{}: no reclaims measured", row.name);
            assert!(
                score.p99_ns <= MILLIS,
                "{}: reclaim p99 {} ns > 1 ms",
                row.name,
                score.p99_ns
            );
            assert_eq!(score.slo_violations, 0, "{}", row.name);
        }
    }
}
