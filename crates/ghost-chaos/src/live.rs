//! `--live` sweep: the same deterministic fault plans, injected into
//! the real-thread backend and judged by wall-clock oracles.
//!
//! A [`LiveCombo`] mirrors [`crate::run::Combo`] for `ghost-live`: the
//! plan is still a [`FaultPlan`] (one type, both backends), but `at` and
//! `dur` are read against the monotonic wall clock, the workload is the
//! closed-loop KV service, and the run takes real time on real OS
//! threads. That changes what the harness can promise: a live run is
//! *not* bit-reproducible, so there is no shrinking — a failing combo is
//! captured as `repro.json` (plan + seed + shape) for best-effort replay
//! plus the full trace for offline reading.
//!
//! The oracles are the live analogues of [`crate::oracle`]:
//!
//! * **trace-invariant** — the `ghost-trace` checker with the shared
//!   [`LIVE_GRACE_NS`] window for host-scheduler jitter.
//! * **live-stranded** — at end of run no workload thread may be left
//!   runnable in the ghOSt class with nobody scheduled to run it.
//! * **recovery** / **recovery-slo** — crash combos must respawn and
//!   reconstruct (§3.4), and the measured wall-clock gap from
//!   `RecoveryStart` to `ReconstructDone` must fit
//!   [`RECOVERY_WALL_SLO`].
//! * **recovery-reclaim** — after a survived recovery no thread stays
//!   on the transient CFS excursion (unless the commit governor shed it
//!   deliberately).
//! * **progress** / **live-timeout** — the KV loop completed, and every
//!   admitted request terminated as completed, shed, or failed.

use crate::oracle::{recovery_spans, trace_failures, Failure};
use crate::repro;
use crate::sweep::{rotate, Outcome, Sweep};
use ghost_core::{EnclaveHandle, EnclaveId, GhostRuntime, StandbyConfig};
use ghost_lab::bench::BenchRow;
use ghost_live::{DegradedLimits, KvService, LiveConfig, LiveKernel, LiveStats};
use ghost_sim::faults::{FaultEvent, FaultKind, FaultPlan};
use ghost_sim::thread::{ThreadKind, ThreadState, Tid};
use ghost_sim::time::{Nanos, MICROS, MILLIS, SECS};
use ghost_sim::topology::CpuId;
use ghost_sim::{CpuSet, CLASS_CFS, CLASS_GHOST};
use ghost_trace::check::LIVE_GRACE_NS;
use ghost_trace::json::Json;
use ghost_trace::{TraceRecord, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use ghost_lab::scenario::PolicyKind;

/// Policies swept on the live backend, queried from the registry's
/// `live_backend` capability flag. Kept to the two agent models
/// (centralized, per-CPU) — the other evaluation policies add scheduling
/// flavour, not new recovery machinery, and live combos cost real
/// wall-clock time.
pub fn live_policies() -> Vec<PolicyKind> {
    PolicyKind::live_backend()
}

/// Per-request service-time floor for the live KV workload.
pub const LIVE_SERVICE_NS: u64 = 2 * MICROS;

/// Wall-clock bound from `RecoveryStart` to `ReconstructDone` for a
/// crashed agent: detection is immediate (the dying thread's own
/// teardown hook), the respawn backoff contributes ~100 ms, and the
/// status-word scan is microseconds — measured runs land around 105 ms,
/// so one second is a full order of magnitude of headroom.
pub const RECOVERY_WALL_SLO: Nanos = SECS;

/// Watchdog for live enclaves: longer than any injected hang (so a hang
/// stalls instead of destroying the enclave) but short enough that a
/// genuinely wedged run still gets reaped inside the supervise deadline.
pub const LIVE_WATCHDOG: Nanos = 2 * SECS;

/// One point of the live sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveCombo {
    /// Policy under test (one of [`live_policies`]).
    pub policy: PolicyKind,
    /// Seed for the fault plan (and the sweep's bookkeeping).
    pub seed: u64,
    /// Fault schedule, with `at`/`dur` in wall-clock nanoseconds.
    pub plan: FaultPlan,
    /// Closed-loop KV requests to complete (or shed/fail) before the
    /// run ends.
    pub requests: u64,
    /// Worker CPUs (and worker threads) the live kernel manages.
    pub cpus: usize,
}

impl LiveCombo {
    /// The sweep's combo for `(policy, seed)`: standard shape, fault
    /// plan derived from the seed by [`generate_live_plan`].
    pub fn generated(policy: PolicyKind, seed: u64) -> Self {
        let cpus = 2;
        let targets: Vec<CpuId> = (0..cpus as u16).map(CpuId).collect();
        Self {
            policy,
            seed,
            plan: generate_live_plan(seed, &targets),
            requests: 60_000,
            cpus,
        }
    }

    /// True if the plan kills an agent (arming the standby machinery).
    pub fn injects_crash(&self) -> bool {
        self.plan
            .events
            .iter()
            .any(|fe| matches!(fe.kind, FaultKind::AgentCrash { .. }))
    }
}

/// Generates the live fault plan for `seed`: a deterministic rotation
/// over the three wall-clock-meaningful agent faults, with times scaled
/// to real milliseconds.
///
/// * `seed % 3 == 0` — one `AgentCrash` on `cpus[0]` (the centralized
///   global agent's pin, and per-CPU agent 0), mid-run.
/// * `seed % 3 == 1` — an `AgentHang` window on every CPU, 100–200 ms.
/// * `seed % 3 == 2` — an `AgentSlow` window on every CPU covering the
///   whole run.
///
/// Same `(seed, cpus)`, same plan — the plan side of a live repro is
/// exactly reproducible even though the run itself is wall-clock.
pub fn generate_live_plan(seed: u64, cpus: &[CpuId]) -> FaultPlan {
    assert!(!cpus.is_empty(), "fault plans need at least one target CPU");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_CA05);
    let at = rng.gen_range(50 * MILLIS..100 * MILLIS);
    let mut events = Vec::new();
    match seed % 3 {
        0 => events.push(FaultEvent {
            at,
            kind: FaultKind::AgentCrash { cpu: cpus[0] },
        }),
        1 => {
            let dur = rng.gen_range(100 * MILLIS..200 * MILLIS);
            for &cpu in cpus {
                events.push(FaultEvent {
                    at,
                    kind: FaultKind::AgentHang { cpu, dur },
                });
            }
        }
        _ => {
            let factor = rng.gen_range(8u32..=32);
            for &cpu in cpus {
                events.push(FaultEvent {
                    at: 0,
                    kind: FaultKind::AgentSlow {
                        cpu,
                        dur: 30 * SECS,
                        factor,
                    },
                });
            }
        }
    }
    FaultPlan { events }
}

/// The counters of a finished live run, beside its [`Outcome`].
pub struct LiveRunReport {
    /// KV requests completed / shed at admission / failed after retries.
    pub completed: u64,
    pub shed: u64,
    pub failed: u64,
    /// Runtime counters (respawns, reconstructions, drops, ...).
    pub stats: ghost_core::runtime::GhostStats,
    /// Backend counters (IPIs lost/delayed, injected faults, stall time).
    pub live: LiveStats,
    /// Measured wall-clock `RecoveryStart` → `ReconstructDone` gap, when
    /// the run recovered from a crash.
    pub recovery_wall_ns: Option<Nanos>,
    /// Wall-clock duration of the whole run.
    pub wall_ns: u128,
}

/// Launches `policy` on `cpus` under the live watchdog. With `standby`,
/// a hot standby respawns a crashed agent: three respawns 100 ms apart,
/// recovery bounded by [`RECOVERY_WALL_SLO`].
pub(crate) fn launch(
    kernel: &LiveKernel,
    policy: PolicyKind,
    name: &str,
    cpus: CpuSet,
    standby: bool,
) -> EnclaveHandle {
    let mut config = policy.enclave_config(name).with_watchdog(LIVE_WATCHDOG);
    if standby {
        config = config.with_standby(StandbyConfig {
            max_respawns: 3,
            respawn_backoff: 100 * MILLIS,
            recovery_slo: RECOVERY_WALL_SLO,
        });
    }
    let enclave = kernel.launch_enclave(cpus, config, policy.build());
    if standby {
        enclave.set_standby_policy(move || policy.build());
    }
    enclave
}

/// Waits up to 10 s for the §3.4 machinery to finish a recovery on
/// `enclave` (or for the enclave to die) before a run is judged.
pub(crate) fn await_recovery(rt: &GhostRuntime, enclave: &EnclaveHandle) {
    let rescue = Instant::now() + Duration::from_secs(10);
    while rt.stats().recoveries < 1 && Instant::now() < rescue && enclave.alive() {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The closed-loop KV load both live sweeps serve: one KV worker per
/// lane attached to the enclave under test, two requests in flight per
/// worker, degraded-mode limits that shed and retry.
pub(crate) struct KvLoad {
    pub(crate) kv: Arc<KvService>,
    workers: Vec<Tid>,
    requests: u64,
}

impl KvLoad {
    /// Spawns `workers` KV threads into `enclave` and starts `requests`
    /// closed-loop requests.
    pub(crate) fn start(
        kernel: &LiveKernel,
        enclave: &EnclaveHandle,
        name: &str,
        workers: usize,
        requests: u64,
    ) -> Self {
        let kv = KvService::with_limits(
            16,
            LIVE_SERVICE_NS,
            DegradedLimits {
                request_timeout: 50 * MILLIS,
                max_retries: 3,
                retry_backoff: MILLIS,
                shed_depth: 2,
            },
        );
        let workers: Vec<Tid> = (0..workers)
            .map(|i| kernel.spawn_kv_worker(&format!("{name}-{i}"), Arc::clone(&kv)))
            .collect();
        for &tid in &workers {
            kernel.attach(enclave, tid);
        }
        kv.start_closed_loop(requests, 2 * workers.len() as u64, kernel.now());
        for &tid in &workers {
            kernel.wake(tid);
        }
        Self {
            kv,
            workers,
            requests,
        }
    }

    /// Serves the load until every admitted request has terminated and
    /// `schedule` (called once per tick) reports its fault schedule
    /// done, or the 60 s deadline passes (`live-timeout`). Each tick
    /// mirrors the enclave's degraded mode into load shedding, pumps
    /// retry backoffs, and kicks a blocked worker if work is queued.
    pub(crate) fn supervise(
        &self,
        kernel: &LiveKernel,
        eid: EnclaveId,
        failures: &mut Vec<Failure>,
        mut schedule: impl FnMut(&mut Vec<Failure>) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let scheduled = schedule(failures);
            if self.kv.accounted_count() >= self.requests && scheduled {
                break;
            }
            if Instant::now() > deadline {
                failures.push(Failure {
                    oracle: "live-timeout",
                    detail: format!(
                        "closed loop stalled at {}/{} accounted requests",
                        self.kv.accounted_count(),
                        self.requests
                    ),
                });
                break;
            }
            self.kv.set_degraded(kernel.runtime().enclave_degraded(eid));
            self.kv.pump_delayed(kernel.now());
            if self.kv.depth() > 0 {
                kernel.wake_one_blocked(&self.workers);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.kv.set_degraded(false);
    }

    /// The oracles every live run shares: the trace oracles inside the
    /// live grace window, and at least one completed request.
    pub(crate) fn judge(&self, records: &[TraceRecord], dropped: u64) -> Vec<Failure> {
        let mut failures = trace_failures(records, dropped, LIVE_GRACE_NS);
        if self.kv.completed_count() == 0 {
            failures.push(Failure {
                oracle: "progress",
                detail: "no KV request completed over the whole run".to_string(),
            });
        }
        failures
    }
}

/// Runs `combo` on the live backend and evaluates the wall-clock
/// oracles. Takes real time (roughly the fault windows plus the KV
/// service time); the verdict — not the timing — is what repeats.
pub fn run_live_combo(combo: &LiveCombo) -> Outcome<LiveRunReport> {
    let started = Instant::now();
    let sink = TraceSink::recording(combo.cpus, 1 << 20);
    let kernel = LiveKernel::new(LiveConfig {
        cpus: combo.cpus,
        trace: sink.clone(),
        faults: combo.plan.clone(),
        ..LiveConfig::default()
    });
    let crash = combo.injects_crash();
    let enclave = launch(
        &kernel,
        combo.policy,
        &format!("chaos-live-{}", combo.seed),
        CpuSet::first_n(combo.cpus),
        crash,
    );
    let load = KvLoad::start(&kernel, &enclave, "chaos-kv", combo.cpus, combo.requests);
    let mut failures = Vec::new();
    load.supervise(&kernel, enclave.id(), &mut failures, |_| true);

    // Crash combos: wait for the §3.4 machinery to finish before
    // judging — the respawned agent must reconstruct and reclaim even
    // if the workload already drained on the surviving lanes.
    if crash {
        await_recovery(kernel.runtime(), &enclave);
    }

    let stats = kernel.runtime().stats();
    let records = sink.snapshot();
    // The measured gap from the first `RecoveryStart` to its
    // `ReconstructDone`.
    let recovery_wall_ns = recovery_spans(&records)
        .first()
        .and_then(|&(start, done)| Some(done? - start));
    failures.extend(load.judge(&records, sink.dropped()));

    // Liveness: nobody left stranded. A workload thread still runnable
    // in the ghOSt class once the live grace window has passed has an
    // agent that never came back for it. (The load can drain just as a
    // worker is woken; a slowed agent then dispatches it a few hundred
    // microseconds later, which is not a strand.)
    let grace = Instant::now() + Duration::from_nanos(LIVE_GRACE_NS);
    let stranded = loop {
        let stranded: Vec<Tid> = kernel
            .thread_snapshots()
            .into_iter()
            .filter(|(_, th)| {
                th.kind == ThreadKind::Workload
                    && th.state == ThreadState::Runnable
                    && th.class == CLASS_GHOST
            })
            .map(|(tid, _)| tid)
            .collect();
        if stranded.is_empty() || Instant::now() > grace {
            break stranded;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    for tid in stranded {
        failures.push(Failure {
            oracle: "live-stranded",
            detail: format!("thread {tid} left runnable in the ghOSt class at end of run"),
        });
    }

    if crash {
        if stats.respawns < 1 || stats.reconstructions < 1 || !enclave.alive() {
            failures.push(Failure {
                oracle: "recovery",
                detail: format!(
                    "crash not recovered: respawns={} reconstructions={} alive={}",
                    stats.respawns,
                    stats.reconstructions,
                    enclave.alive()
                ),
            });
        }
        match recovery_wall_ns {
            Some(gap) if gap > RECOVERY_WALL_SLO => failures.push(Failure {
                oracle: "recovery-slo",
                detail: format!("wall-clock recovery took {gap} ns (SLO {RECOVERY_WALL_SLO} ns)"),
            }),
            None if enclave.alive() => failures.push(Failure {
                oracle: "recovery-slo",
                detail: "crash combo recorded no RecoveryStart/ReconstructDone pair".to_string(),
            }),
            _ => {}
        }
        // Re-absorption after the transient CFS excursion (threads the
        // commit governor shed deliberately are exempt).
        if enclave.alive() && stats.estale_sheds == 0 {
            for (tid, th) in kernel.thread_snapshots() {
                if th.kind == ThreadKind::Workload
                    && th.state != ThreadState::Dead
                    && th.class == CLASS_CFS
                {
                    failures.push(Failure {
                        oracle: "recovery-reclaim",
                        detail: format!(
                            "thread {tid} still under CFS after degraded-mode recovery"
                        ),
                    });
                }
            }
        }
    }

    let degraded = load.kv.degraded_stats();
    let live = kernel.stats();
    kernel.shutdown();
    let report = LiveRunReport {
        completed: load.kv.completed_count(),
        shed: degraded.shed,
        failed: degraded.failed,
        stats,
        live,
        recovery_wall_ns,
        wall_ns: started.elapsed().as_nanos(),
    };
    let summary = format!(
        "completed={} shed={} failed={} respawns={} reconstructions={} recovery={} wall={:.2} s",
        report.completed,
        report.shed,
        report.failed,
        report.stats.respawns,
        report.stats.reconstructions,
        report
            .recovery_wall_ns
            .map(|ns| format!("{:.1} ms", ns as f64 / 1e6))
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

/// The `--live` sweep: generated fault plans on the real-thread
/// backend, serial and unshrunk. Repros are tagged `"kind": "live"`.
/// Bench rows: one `chaos-recovery-<policy>` row per recovered crash and
/// one `chaos-degraded-shed` row totalling requests shed over the sweep.
#[derive(Debug, Clone, Copy)]
pub struct LiveSweep;

impl Sweep for LiveSweep {
    type Case = LiveCombo;
    type Sample = LiveRunReport;
    const KIND: Option<&'static str> = Some("live");
    const DEFAULT_COMBOS: u64 = 6;
    const DETERMINISTIC: bool = false;
    const BENCH: bool = true;

    fn policies(&self) -> Vec<PolicyKind> {
        live_policies()
    }

    fn generate(&self, i: u64, seed_base: u64, policies: &[PolicyKind]) -> LiveCombo {
        LiveCombo::generated(rotate(policies, i), seed_base + i)
    }

    fn label(&self, combo: &LiveCombo) -> String {
        let kinds: BTreeSet<&str> = combo.plan.events.iter().map(|fe| fe.kind.name()).collect();
        let kinds: Vec<&str> = kinds.into_iter().collect();
        format!(
            "policy={} seed={} fault={}",
            combo.policy.name(),
            combo.seed,
            kinds.join("+")
        )
    }

    fn run(&self, combo: &LiveCombo) -> Outcome<LiveRunReport> {
        run_live_combo(combo)
    }

    fn encode(&self, combo: &LiveCombo) -> String {
        repro::document(
            Self::KIND,
            &[
                ("policy", repro::string(combo.policy.name())),
                ("seed", repro::string(&combo.seed.to_string())),
                ("requests", combo.requests.to_string()),
                ("cpus", combo.cpus.to_string()),
                ("plan", repro::plan_to_json(&combo.plan)),
            ],
        )
    }

    fn decode(&self, doc: &Json) -> Result<LiveCombo, String> {
        Ok(LiveCombo {
            policy: repro::policy(doc, "policy", |p| live_policies().contains(&p))?,
            seed: repro::seed(doc)?,
            plan: repro::plan_from_json(doc)?,
            requests: repro::field_u64(doc, "requests")?,
            cpus: repro::field_u64(doc, "cpus")? as usize,
        })
    }

    fn bench_rows(
        &self,
        _policies: &[PolicyKind],
        _seed_base: u64,
        runs: Vec<(LiveCombo, LiveRunReport)>,
    ) -> Vec<BenchRow> {
        let mut rows: Vec<BenchRow> = runs
            .iter()
            .filter_map(|(combo, r)| {
                let ns = r.recovery_wall_ns?;
                Some(BenchRow::measured(
                    format!("chaos-recovery-{}", combo.policy.name()),
                    "live",
                    ns as u128,
                    None,
                    r.stats.respawns,
                ))
            })
            .collect();
        rows.push(BenchRow::measured(
            "chaos-degraded-shed",
            "live",
            runs.iter().map(|(_, r)| r.wall_ns).sum::<u128>().max(1),
            None,
            runs.iter().map(|(_, r)| r.shed).sum(),
        ));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_plans_are_deterministic_and_rotated() {
        let cpus: Vec<CpuId> = (0..2u16).map(CpuId).collect();
        for seed in 0..12 {
            let a = generate_live_plan(seed, &cpus);
            let b = generate_live_plan(seed, &cpus);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.events.is_empty());
            let expect_crash = seed % 3 == 0;
            assert_eq!(
                a.events
                    .iter()
                    .any(|fe| matches!(fe.kind, FaultKind::AgentCrash { .. })),
                expect_crash,
                "seed {seed} rotation broken"
            );
        }
    }

    #[test]
    fn generated_combos_mark_crashes() {
        let crash = LiveCombo::generated(PolicyKind::CentralizedFifo, 3);
        assert!(crash.injects_crash());
        let hang = LiveCombo::generated(PolicyKind::PerCpu, 4);
        assert!(!hang.injects_crash());
    }
}
