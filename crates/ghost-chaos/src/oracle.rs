//! Oracles: decide whether a perturbed run still upheld the runtime's
//! safety and liveness contracts.
//!
//! Safety comes from the `ghost-trace` invariant checker — exclusive CPU
//! occupancy, runnable-at-switch-in, Tseq/Aseq monotonicity across
//! faults, and commit pairing (every `TxnCommitOk` consumes a matching
//! `TxnArmed`). Liveness is judged here: after every fault in the plan,
//! either the agent recovers or the watchdog/fallback machinery must
//! rescue the workload.

use crate::run::WATCHDOG;
use ghost_core::enclave::EnclaveId;
use ghost_core::runtime::GhostRuntime;
use ghost_sim::kernel::KernelState;
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::CLASS_CFS;
use ghost_trace::{check, TraceEvent, TraceRecord};
use std::fmt;

/// A runnable thread left waiting longer than this at end of run failed
/// liveness: the watchdog plus CFS fallback bound recovery to roughly
/// two timeouts, with margin for scheduling latency.
pub const STARVATION_BOUND: Nanos = 2 * WATCHDOG + 10 * MILLIS;

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Which oracle fired, e.g. `"starvation"`.
    pub oracle: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// The trace oracles every run shares: the recorder dropped nothing
/// (the checker needs a lossless stream to verify ordering invariants),
/// and the `ghost-trace` checker passes within `grace_ns`.
pub(crate) fn trace_failures(
    records: &[TraceRecord],
    dropped: u64,
    grace_ns: Nanos,
) -> Vec<Failure> {
    let mut failures = Vec::new();
    if dropped > 0 {
        failures.push(Failure {
            oracle: "trace-lossless",
            detail: format!("trace ring dropped {dropped} records; grow the capacity"),
        });
    }
    for v in check::check_with_grace(records, grace_ns) {
        failures.push(Failure {
            oracle: "trace-invariant",
            detail: v.to_string(),
        });
    }
    failures
}

/// Every `RecoveryStart` in the trace, paired with the first
/// `ReconstructDone` at or after it (`None` if recovery never finished).
pub(crate) fn recovery_spans(records: &[TraceRecord]) -> Vec<(Nanos, Option<Nanos>)> {
    let at = |r: &TraceRecord, start: bool| match r.event {
        TraceEvent::RecoveryStart { .. } if start => Some(r.ts),
        TraceEvent::ReconstructDone { .. } if !start => Some(r.ts),
        _ => None,
    };
    let dones: Vec<Nanos> = records.iter().filter_map(|r| at(r, false)).collect();
    records
        .iter()
        .filter_map(|r| at(r, true))
        .map(|start| (start, dones.iter().copied().find(|&d| d >= start)))
        .collect()
}

/// Judges a finished run. Returns every violated contract; an empty
/// vector means the run survived its fault plan. When the run armed a
/// hot standby, `recovery_slo` carries its bound and enables the
/// bounded-time recovery oracle.
#[allow(clippy::too_many_arguments)]
pub fn evaluate(
    records: &[TraceRecord],
    trace_dropped: u64,
    k: &KernelState,
    runtime: &GhostRuntime,
    enclave: EnclaveId,
    workload: &[Tid],
    completions: u64,
    recovery_slo: Option<Nanos>,
) -> Vec<Failure> {
    // Safety: the full ghost-trace invariant suite (occupancy, runnable
    // switch-in, Tseq/Aseq continuity, commit pairing, wakeup liveness
    // with blackout excuses for watchdog/teardown windows).
    let mut failures = trace_failures(records, trace_dropped, check::DEFAULT_GRACE_NS);

    // Liveness: no workload thread starved past the watchdog bound. The
    // blackout excuse in the trace checker deliberately forgives wakeups
    // stranded by an enclave teardown, so end-state starvation must be
    // checked against the kernel directly.
    for &tid in workload {
        let th = k.thread(tid);
        if th.state == ThreadState::Runnable {
            let waited = k.now.saturating_sub(th.runnable_since);
            if waited > STARVATION_BOUND {
                failures.push(Failure {
                    oracle: "starvation",
                    detail: format!(
                        "thread {tid} runnable and unscheduled for {waited} ns at end of run \
                         (bound {STARVATION_BOUND} ns)"
                    ),
                });
            }
        }
    }

    // Liveness: fallback-to-CFS completes. Once the enclave is gone,
    // every surviving workload thread must actually be back under CFS —
    // a thread left in the ghOSt class has no scheduler at all.
    if !runtime.enclave_alive(enclave) {
        for &tid in workload {
            let th = k.thread(tid);
            if th.state != ThreadState::Dead && th.class != CLASS_CFS {
                failures.push(Failure {
                    oracle: "fallback-to-cfs",
                    detail: format!(
                        "thread {tid} left in scheduling class {} after enclave teardown",
                        th.class
                    ),
                });
            }
        }
    }

    // Bounded-time recovery: every degraded-mode failover the standby
    // machinery started must finish — a status-word reconstruction scan
    // completing within the SLO — unless the respawn budget ran out and
    // the enclave was (legitimately) destroyed, which the fallback
    // oracle above covers.
    if let Some(slo) = recovery_slo {
        let spans = recovery_spans(records);
        for &(start, done) in &spans {
            match done {
                Some(done) if done - start > slo => {
                    failures.push(Failure {
                        oracle: "recovery-slo",
                        detail: format!(
                            "recovery started at {start} ns completed only at {done} ns \
                             ({} ns > SLO {slo} ns)",
                            done - start
                        ),
                    });
                }
                Some(_) => {}
                None if runtime.enclave_alive(enclave) => {
                    failures.push(Failure {
                        oracle: "recovery-slo",
                        detail: format!(
                            "recovery started at {start} ns never reconstructed \
                             and the enclave is still alive"
                        ),
                    });
                }
                None => {} // Budget exhausted: fallback oracle judges it.
            }
        }
        // Re-absorption: once recovery ran and the enclave survived,
        // every surviving workload thread must be scheduled by ghOSt
        // again — none left stranded on the transient CFS excursion.
        // Threads the commit governor shed to CFS are exempt (shedding
        // is deliberate), so only shed-free runs are checked.
        if !spans.is_empty() && runtime.enclave_alive(enclave) && runtime.stats().estale_sheds == 0
        {
            for &tid in workload {
                let th = k.thread(tid);
                if th.state != ThreadState::Dead && th.class == CLASS_CFS {
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

    // Progress: the run did some work. Even a destroyed enclave must not
    // stop the workload (CFS picks it up).
    if completions == 0 {
        failures.push(Failure {
            oracle: "progress",
            detail: "no workload segment completed over the whole run".to_string(),
        });
    }

    failures
}
