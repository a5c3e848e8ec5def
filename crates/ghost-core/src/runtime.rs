//! The ghOSt runtime: kernel scheduling class + agent driver + userspace
//! control surface.
//!
//! [`GhostRuntime`] wires three faces around one shared state:
//!
//! * [`GhostClass`] — the kernel scheduling class installed *below* CFS
//!   (slot [`CLASS_GHOST`]). It emits Table 1 messages on thread state
//!   changes and runs only threads that agents committed via transactions
//!   (or the PNT fast path).
//! * [`GhostDriver`] — runs agent activations: drain queue → policy →
//!   commit, with all costs charged to virtual time.
//! * [`EnclaveHandle`] — the "userspace process" view of one enclave:
//!   attach threads, stage upgrades, lend CPUs, tear down. The runtime
//!   itself keeps only the machine-wide calls (launch, hints, stats,
//!   leases, the resource manager).

use crate::abi::{AbiError, ABI_ERROR_KINDS};
use crate::backend::GhostBackend;
use crate::enclave::{
    AgentMode, AgentSlot, CommittedSlot, Enclave, EnclaveConfig, EnclaveId, QueueId, ThreadInfo,
    WakeMode,
};
use crate::lease::{
    decode_lease_timer_key, lease_timer_key, Lease, LeaseStats, LeaseTable, RevokeReason,
    LEASE_TIMER_FLAG, RM_TIMER_FLAG,
};
use crate::msg::{Message, MsgType};
use crate::pnt::PntRings;
use crate::policy::{GhostPolicy, PolicyCtx};
use crate::recovery::{RecoveryState, StandbyConfig, ThreadSnapshot, RESPAWN_TIMER_FLAG};
use crate::rm::{EnclaveHealth, RmConfig, RmDecision, RmState, RmStats};
use crate::slab::{CpuMap, TidMap, TidSlab};
use crate::status::{StatusWord, SW_ATTACHED, SW_ONCPU, SW_RUNNABLE};
use crate::txn::{SeqConstraint, Transaction, TxnStatus};
use ghost_sim::agent::{AgentDriver, AgentOutcome};
use ghost_sim::class::{OffCpuReason, SchedClass, CLASS_CFS, CLASS_GHOST};
use ghost_sim::cpuset::CpuSet;
use ghost_sim::faults::FaultKind;
use ghost_sim::kernel::{Kernel, KernelState};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;
use ghost_trace::TraceEvent;
use std::sync::{Arc, Mutex, MutexGuard};

/// Counters describing everything the runtime did.
#[derive(Debug, Default, Clone)]
pub struct GhostStats {
    /// Messages posted, indexed by [`MsgType`] discriminant order.
    pub msgs_posted: [u64; 8],
    /// Messages dropped because a queue was full.
    pub msgs_dropped: u64,
    /// Agent activations.
    pub activations: u64,
    /// Activations that drained no messages (pure timer/poll wakeups).
    pub empty_activations: u64,
    /// Total agent busy time (ns of virtual time).
    pub agent_busy_ns: u64,
    /// Transactions committed successfully.
    pub txns_committed: u64,
    /// Transactions failed with `ESTALE`.
    pub txns_stale: u64,
    /// Transactions failed: target not runnable.
    pub txns_not_runnable: u64,
    /// Transactions failed: CPU busy with higher-class work.
    pub txns_cpu_busy: u64,
    /// Transactions failed: CPU/affinity unavailable.
    pub txns_cpu_unavailable: u64,
    /// Transactions aborted (atomic group failure or enclave teardown).
    pub txns_aborted: u64,
    /// Transactions recalled via `TXNS_RECALL()`.
    pub txns_recalled: u64,
    /// `TXNS_COMMIT()` calls with more than one transaction.
    pub group_commits: u64,
    /// Threads scheduled through the PNT fast path.
    pub pnt_picks: u64,
    /// Global-agent hot handoffs (§3.3).
    pub handoffs: u64,
    /// Enclaves destroyed by the watchdog.
    pub watchdog_destroys: u64,
    /// Enclaves destroyed in total.
    pub enclave_destroys: u64,
    /// In-place agent upgrades (§3.4).
    pub upgrades: u64,
    /// Agent crashes that fell back to CFS.
    pub fallbacks: u64,
    /// Status-word reconstruction scans run by incoming agents (§3.4).
    pub reconstructions: u64,
    /// Standby agents respawned during degraded-mode failover.
    pub respawns: u64,
    /// Degraded-mode failovers that completed: every stashed thread was
    /// reclaimed (or died) and the standby finished reconstructing.
    pub recoveries: u64,
    /// Threads shed to CFS by a policy's bounded `ESTALE` retry governor.
    pub estale_sheds: u64,
    /// Transactions failed: target tid is not a schedulable thread of the
    /// enclave at all (never attached, dead, foreign, or an agent).
    pub txns_unknown_target: u64,
    /// ABI calls rejected at the validation boundary, indexed by
    /// [`AbiError::kind`].
    pub abi_rejects: [u64; ABI_ERROR_KINDS],
    /// Enclaves quarantined for exhausting their byzantine strike budget.
    pub quarantines: u64,
}

impl GhostStats {
    fn msg_idx(ty: MsgType) -> usize {
        match ty {
            MsgType::ThreadCreated => 0,
            MsgType::ThreadBlocked => 1,
            MsgType::ThreadPreempted => 2,
            MsgType::ThreadYield => 3,
            MsgType::ThreadDead => 4,
            MsgType::ThreadWakeup => 5,
            MsgType::ThreadAffinity => 6,
            MsgType::TimerTick => 7,
        }
    }

    /// Count of messages posted with the given type.
    pub fn posted(&self, ty: MsgType) -> u64 {
        self.msgs_posted[Self::msg_idx(ty)]
    }

    /// Total failed transactions.
    pub fn txns_failed(&self) -> u64 {
        self.txns_stale
            + self.txns_not_runnable
            + self.txns_unknown_target
            + self.txns_cpu_busy
            + self.txns_cpu_unavailable
            + self.txns_aborted
    }

    /// Count of ABI rejections carrying the given error.
    pub fn rejects(&self, err: AbiError) -> u64 {
        self.abi_rejects[err.kind()]
    }

    /// Total ABI rejections across every error kind.
    pub fn abi_rejects_total(&self) -> u64 {
        self.abi_rejects.iter().sum()
    }
}

/// Builds a fresh policy instance for a standby agent respawn.
type PolicyFactory = Box<dyn Fn() -> Box<dyn GhostPolicy> + Send>;

struct Core {
    enclaves: Vec<Option<Enclave>>,
    policies: Vec<Option<Box<dyn GhostPolicy>>>,
    staged: Vec<Option<Box<dyn GhostPolicy>>>,
    standby_factories: Vec<Option<PolicyFactory>>,
    thread_enclave: TidMap<EnclaveId>,
    pending_attach: TidMap<EnclaveId>,
    agent_enclave: TidMap<(EnclaveId, CpuId)>,
    cpu_enclave: Vec<Option<EnclaveId>>,
    installed: bool,
    stats: GhostStats,
    /// Reused activation drain buffer: every agent activation moves its
    /// batch of messages through this one allocation instead of building
    /// a fresh `Vec` per activation (and per queue).
    drain_buf: Vec<Message>,
    /// Reused commit-pass scratch, lent to [`PolicyCtx`] for the duration
    /// of an activation so group commits never allocate in steady state.
    commit_scratch: CommitScratch,
    /// Kernel-side table of active CPU leases. Deliberately *not* part
    /// of the RM state: deadlines are enforced from here by driver
    /// timers even while the RM is crashed.
    leases: LeaseTable,
    /// The in-process resource manager; `None` models a crashed RM.
    rm: Option<RmState>,
    /// Last RM launch parameters, kept across crashes so a restart can
    /// reconstruct without re-negotiating its configuration.
    rm_spec: Option<(RmConfig, EnclaveId, EnclaveId)>,
    /// Timer-staleness token: bumped on every RM (re)start; epoch
    /// timers carrying an older token are from a dead incarnation.
    rm_token: u64,
    /// Cumulative RM failovers (restarts after a crash).
    rm_restarts: u32,
}

/// Scratch buffers for `TXNS_COMMIT()`'s two passes (validation order,
/// remote IPI targets). Owned by [`Core`], cleared at every use.
#[derive(Default)]
pub(crate) struct CommitScratch {
    pub(crate) provisional: Vec<usize>,
    pub(crate) remote: Vec<(usize, bool)>,
}

fn core_key_of(k: &dyn GhostBackend, cpu: CpuId) -> CpuId {
    k.topo()
        .core_cpus(cpu)
        .first()
        .expect("core has at least one CPU")
}

impl Core {
    fn enclave(&self, id: EnclaveId) -> Option<&Enclave> {
        self.enclaves.get(id.0 as usize)?.as_ref()
    }

    fn enclave_mut(&mut self, id: EnclaveId) -> Option<&mut Enclave> {
        self.enclaves.get_mut(id.0 as usize)?.as_mut()
    }

    /// Spawns an agent pthread pinned to `cpu` (starting blocked),
    /// registers it with `eid`, and gives it an attached status word in
    /// the enclave's agent table. The caller wires its queue and wakes it.
    fn install_agent(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        cpu: CpuId,
        role: &str,
    ) -> Tid {
        let tid = k.spawn_agent(&format!("ghost-{role}-e{}-c{}", eid.0, cpu.0), cpu);
        self.agent_enclave.insert(tid, (eid, cpu));
        if let Some(enclave) = self.enclave_mut(eid) {
            let status = StatusWord::new();
            status.set_flags(SW_ATTACHED);
            enclave.agents.insert(cpu, AgentSlot { tid, cpu, status });
        }
        tid
    }

    /// Reclaims a degraded enclave's stashed threads: raises the
    /// reconstruct barrier, then re-attaches every live stashed thread in
    /// tid order (`hook_attach` restores its preserved state); dead ones
    /// are dropped from the stash.
    fn reclaim_stashed(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        let Some(enclave) = self.enclaves[eid.0 as usize].as_mut() else {
            return;
        };
        enclave.raise_reconstruct_barrier(k.now());
        let Some(r) = enclave.recovery.as_mut() else {
            return;
        };
        let mut tids: Vec<Tid> = r.stashed.tids().collect();
        tids.sort_by_key(|t| t.0);
        for t in tids {
            if k.thread(t).state == ThreadState::Dead {
                r.stashed.remove(t);
                continue;
            }
            self.pending_attach.insert(t, eid);
            k.move_to_class(t, CLASS_GHOST);
        }
    }

    fn enclave_of_cpu(&self, cpu: CpuId) -> Option<EnclaveId> {
        self.cpu_enclave[cpu.index()]
    }

    /// Existence/liveness gate shared by every enclave-scoped entry point.
    fn check_enclave(&self, eid: EnclaveId) -> Result<(), AbiError> {
        match self.enclaves.get(eid.0 as usize).and_then(|s| s.as_ref()) {
            None => Err(AbiError::NoSuchEnclave),
            Some(e) if e.destroyed => Err(AbiError::EnclaveDestroyed),
            Some(_) => Ok(()),
        }
    }

    /// The single funnel for rejected agent-facing ABI calls: counts the
    /// rejection by kind, fires the `ghost_abi_reject` tracepoint, and —
    /// for errors no benign race can produce ([`AbiError::byzantine`]) —
    /// charges a strike against `eid`, quarantining the enclave once its
    /// budget is exhausted. There are no silent drops: every rejection on
    /// a kernel-reachable path comes through here.
    fn reject(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: Option<EnclaveId>,
        cpu: CpuId,
        err: AbiError,
    ) -> AbiError {
        self.stats.abi_rejects[err.kind()] += 1;
        if let Some(eid) = eid {
            if let Some(e) = self.enclave_mut(eid) {
                e.abi_rejects += 1;
            }
        }
        // Out-of-range CPU ids are clamped by the trace recorder, so a
        // forged `cpu` cannot make the tracepoint itself unsafe.
        k.trace().emit(k.now(), cpu.0, || TraceEvent::AbiReject {
            cpu: cpu.0,
            kind: err.kind() as u8,
        });
        if err.byzantine() {
            if let Some(eid) = eid {
                let quarantine = self.enclave_mut(eid).is_some_and(|e| {
                    e.abi_strikes += 1;
                    !e.destroyed
                        && e.config
                            .abi_strike_budget
                            .is_some_and(|budget| e.abi_strikes >= budget)
                });
                if quarantine {
                    self.quarantine(k, eid);
                }
            }
        }
        err
    }

    /// Counts a rejection on a path with no kernel handle (and therefore
    /// no tracepoint or strike accounting).
    fn note_reject(&mut self, err: AbiError) -> AbiError {
        self.stats.abi_rejects[err.kind()] += 1;
        err
    }

    /// Quarantines an enclave whose agent exhausted the byzantine strike
    /// budget: the §3.4 worst case, applied deliberately — the enclave is
    /// destroyed, its threads fall back to CFS, and co-resident enclaves
    /// never notice.
    fn quarantine(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        self.stats.quarantines += 1;
        k.trace()
            .emit(k.now(), 0, || TraceEvent::EnclaveQuarantined {
                enclave: eid.0,
            });
        self.destroy_enclave(k, eid);
    }

    /// Posts a message about `tid` (or a CPU event when `tid` is `None`)
    /// into the right queue of `eid`: bumps sequence numbers, updates
    /// status words, and wakes or notifies the consuming agent per the
    /// queue's wakeup configuration.
    fn post(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        ty: MsgType,
        tid: Option<Tid>,
        cpu: CpuId,
    ) {
        let Some(enclave) = self.enclaves[eid.0 as usize].as_mut() else {
            return;
        };
        if enclave.destroyed {
            return;
        }
        let (qid, msg) = match tid {
            Some(t) => {
                let Some(info) = enclave.threads.get_mut(t) else {
                    return;
                };
                info.tseq += 1;
                info.pending_msgs += 1;
                let seq = info.tseq;
                info.status.publish(|_, f| (seq, f));
                (info.queue, Message::thread(ty, t, seq, cpu, k.now()))
            }
            None => (enclave.queue_for_cpu(cpu), Message::tick(cpu, k.now())),
        };
        let Some(Some(qs)) = enclave.queues.get(qid.0 as usize) else {
            return;
        };
        // A queue-overflow fault window rejects the push as if the ring
        // were full; otherwise try the ring for real.
        let forced_overflow = k.fault_queue_overflow_active();
        if forced_overflow {
            qs.queue.note_dropped();
        }
        if forced_overflow || qs.queue.push(msg).is_err() {
            self.stats.msgs_dropped += 1;
            k.trace()
                .emit(k.now(), cpu.0, || TraceEvent::QueueOverflow {
                    queue: qid.0,
                    ty: GhostStats::msg_idx(ty) as u8,
                    tid: msg.tid.0,
                    dropped_total: qs.queue.dropped(),
                });
            if let Some(t) = tid {
                if let Some(info) = enclave.threads.get_mut(t) {
                    info.pending_msgs = info.pending_msgs.saturating_sub(1);
                }
            }
            return;
        }
        self.stats.msgs_posted[GhostStats::msg_idx(ty)] += 1;
        k.trace().emit(k.now(), cpu.0, || TraceEvent::MsgEnqueued {
            queue: qid.0,
            ty: GhostStats::msg_idx(ty) as u8,
            tid: msg.tid.0,
            seq: msg.seq,
        });
        let wake = qs.wake;
        let enqueue_done = k.now() + k.costs().msg_enqueue;
        match wake {
            WakeMode::WakeAgent(agent) => {
                if let Some((_, acpu)) = self.agent_enclave.get(agent).copied() {
                    if let Some(slot) = enclave.agents.get(acpu) {
                        slot.status.bump_seq(); // Aseq.
                    }
                }
                if k.thread(agent).state == ThreadState::Blocked {
                    k.wake_at(enqueue_done, agent);
                }
            }
            WakeMode::WakeEventCpuAgent => {
                // Per-core mode (§4.5): the CPU generating the message
                // wakes its own agent, which becomes the core's active
                // agent.
                if let Some(slot) = enclave.agents.get(cpu) {
                    let agent = slot.tid;
                    slot.status.bump_seq();
                    enclave.core_active.insert(core_key_of(k, cpu), agent);
                    if k.thread(agent).state == ThreadState::Blocked {
                        k.wake_at(enqueue_done, agent);
                    }
                }
            }
            WakeMode::Polled => {
                // Centralized: notify the spinning global agent, or wake
                // it if it parked (hot handoff left no spinner).
                if let Some(global) = enclave.global_agent {
                    if let Some((_, gcpu)) = self.agent_enclave.get(global).copied() {
                        if let Some(slot) = enclave.agents.get(gcpu) {
                            slot.status.bump_seq();
                        }
                    }
                    match k.thread(global).state {
                        ThreadState::Running if !enclave.loop_armed => {
                            enclave.loop_armed = true;
                            k.schedule_agent_loop(enqueue_done, global);
                        }
                        ThreadState::Blocked => k.wake_at(enqueue_done, global),
                        _ => {}
                    }
                }
            }
        }
    }

    /// Tears an enclave down: every managed thread falls back to CFS and
    /// every agent is killed. Other enclaves are untouched (§3.4).
    fn destroy_enclave(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        // Snapshot the enclave's lease entanglements before teardown: a
        // dying borrower must hand every borrowed CPU home, a dying
        // lender transfers ownership of lent CPUs to their borrowers.
        let borrowed = self.leases.borrowed_by(eid);
        let lent = self.leases.lent_by(eid);
        let Some(enclave) = self
            .enclaves
            .get_mut(eid.0 as usize)
            .and_then(|s| s.as_mut())
        else {
            return;
        };
        if enclave.destroyed {
            return;
        }
        enclave.destroyed = true;
        enclave.committed.clear();
        // Sorted: the storage order must not leak into the CFS runqueue
        // (or the kill order), or replays diverge.
        let tids: Vec<Tid> = enclave.threads.sorted_tids();
        let mut agents: Vec<Tid> = enclave.agents.values().map(|a| a.tid).collect();
        agents.sort_by_key(|t| t.0);
        let cpus: Vec<CpuId> = enclave.cpus.iter().collect();
        for cpu in cpus {
            self.cpu_enclave[cpu.index()] = None;
        }
        for tid in tids {
            // Intentionally seeded bug (chaos-harness validation target):
            // strand runnable threads in the dead enclave instead of
            // moving them back to CFS. Never enabled in normal builds.
            #[cfg(feature = "seeded-bug")]
            if k.thread(tid).state == ThreadState::Runnable {
                continue;
            }
            k.move_to_class(tid, CLASS_CFS);
        }
        for agent in agents {
            self.agent_enclave.remove(agent);
            k.kill(agent);
        }
        self.stats.enclave_destroys += 1;
        k.trace().emit(k.now(), 0, || TraceEvent::EnclaveDestroyed {
            enclave: eid.0,
        });
        // Lease resolution wired into the recovery chain: the teardown
        // above already cleared this enclave's wiring for borrowed CPUs
        // (they were members), so each one re-attaches to its lender —
        // no CPU is ever stranded with a dead borrower. Lent CPUs were
        // not members here; their borrowers simply keep them for good.
        for cpu in borrowed {
            let Some(lease) = self.leases.resolve(cpu, RevokeReason::BorrowerDied) else {
                continue;
            };
            k.trace().emit(k.now(), cpu.0, || TraceEvent::LeaseRevoked {
                cpu: cpu.0,
                lender: lease.lender.0,
                borrower: lease.borrower.0,
                reason: RevokeReason::BorrowerDied as u8,
            });
            self.lease_attach_cpu(k, lease.lender, cpu);
            if let Some(e) = self.enclave_mut(lease.lender) {
                if !e.destroyed {
                    e.pending_grants.push(cpu);
                }
            }
            let at =
                k.now() + k.costs().ipi_send + k.costs().ipi_propagation + k.costs().ipi_receive;
            k.send_ipi(cpu, at);
            self.notify_agents(k, lease.lender);
        }
        for cpu in lent {
            let Some(lease) = self.leases.resolve(cpu, RevokeReason::LenderDied) else {
                continue;
            };
            k.trace().emit(k.now(), cpu.0, || TraceEvent::LeaseRevoked {
                cpu: cpu.0,
                lender: lease.lender.0,
                borrower: lease.borrower.0,
                reason: RevokeReason::LenderDied as u8,
            });
        }
    }

    /// Kicks the enclave's agents so the incoming policy runs promptly
    /// even with no fresh messages — right after an upgrade or respawn,
    /// the status-word reconstruction must happen before organic traffic
    /// would next wake an agent.
    fn notify_agents(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        let Some(enclave) = self.enclaves[eid.0 as usize].as_mut() else {
            return;
        };
        if enclave.destroyed {
            return;
        }
        let at = k.now() + k.costs().msg_enqueue;
        match enclave.config.mode {
            AgentMode::Centralized => {
                if let Some(global) = enclave.global_agent {
                    match k.thread(global).state {
                        ThreadState::Running if !enclave.loop_armed => {
                            enclave.loop_armed = true;
                            k.schedule_agent_loop(at, global);
                        }
                        ThreadState::Blocked => k.wake_at(at, global),
                        _ => {}
                    }
                }
            }
            AgentMode::PerCpu => {
                let mut agents: Vec<Tid> = enclave.agents.values().map(|a| a.tid).collect();
                agents.sort_by_key(|t| t.0);
                for a in agents {
                    if k.thread(a).state == ThreadState::Blocked {
                        k.wake_at(at, a);
                    }
                }
            }
            AgentMode::PerCore => {
                let mut slots: Vec<(CpuId, Tid)> =
                    enclave.agents.values().map(|a| (a.cpu, a.tid)).collect();
                slots.sort_by_key(|&(c, _)| c.0);
                for (cpu, tid) in slots {
                    let key = core_key_of(k, cpu);
                    let active = *enclave.core_active.or_insert(key, tid);
                    if active == tid && k.thread(tid).state == ThreadState::Blocked {
                        k.wake_at(at, tid);
                    }
                }
            }
        }
    }

    /// Starts (or extends) degraded-mode failover after an agent crash
    /// (§3.4): the affected threads transiently fall back to CFS — with
    /// their kernel-side `ThreadInfo` stashed, so `Tseq` stays monotone
    /// and the status word survives the excursion — while a standby
    /// respawn is scheduled with exponential backoff. Destruction becomes
    /// the last resort, once `max_respawns` attempts are consumed.
    fn begin_degraded_failover(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        cpu: CpuId,
        standby: StandbyConfig,
        victims: Vec<Tid>,
    ) {
        let now = k.now();
        let Some(enclave) = self.enclaves[eid.0 as usize].as_mut() else {
            return;
        };
        let (mut stashed, mut pending_cpus, started_at) = match enclave.recovery.take() {
            Some(r) => (r.stashed, r.pending_cpus, r.started_at),
            None => (TidSlab::new(), Vec::new(), now),
        };
        let attempts = enclave.respawn_attempts;
        if attempts >= standby.max_respawns {
            // The standby itself keeps dying: give up and destroy.
            self.stats.fallbacks += 1;
            self.destroy_enclave(k, eid);
            return;
        }
        k.trace()
            .emit(now, cpu.0, || TraceEvent::RecoveryStart { enclave: eid.0 });
        enclave.loop_armed = false;
        for tid in victims {
            let Some(mut info) = enclave.threads.remove(tid) else {
                continue;
            };
            enclave.committed.retain(|_, slot| slot.tid != tid);
            if let Some(pnt) = &mut enclave.pnt {
                pnt.revoke(tid);
            }
            info.picked = false;
            stashed.insert(tid, info);
            // With the registry entry gone, the class move below posts no
            // THREAD_DEAD — the thread is expected back.
            self.thread_enclave.remove(tid);
            k.move_to_class(tid, CLASS_CFS);
        }
        if !pending_cpus.contains(&cpu) {
            pending_cpus.push(cpu);
        }
        enclave.recovery = Some(RecoveryState {
            stashed,
            pending_cpus,
            started_at,
        });
        let backoff = standby.respawn_backoff << attempts.min(16);
        k.arm_driver_timer(now + backoff, RESPAWN_TIMER_FLAG | eid.0 as u64);
    }

    /// Per-CPU fault granularity without a standby (§3.4): only the dead
    /// agent's CPU leaves the enclave, and only the threads it served
    /// fall back to CFS. Peers keep scheduling theirs — the crash is
    /// contained to the slice of the enclave the dead agent managed.
    fn partial_fallback(
        &mut self,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        cpu: CpuId,
        dead_agent: Tid,
        victims: Vec<Tid>,
    ) {
        self.stats.fallbacks += 1;
        // A dead agent on a *borrowed* CPU ends the lease instead of
        // dropping the CPU out of ghOSt: after the usual per-CPU
        // teardown below, the CPU re-attaches to its lender.
        let leased_here = self.leases.on_cpu(cpu).is_some_and(|l| l.borrower == eid);
        let Some(enclave) = self.enclaves[eid.0 as usize].as_mut() else {
            return;
        };
        self.cpu_enclave[cpu.index()] = None;
        enclave.cpus.remove(cpu);
        enclave.cpu_queues.remove(cpu);
        if let Some(slot) = enclave.committed.remove(cpu) {
            if let Some(info) = enclave.threads.get_mut(slot.tid) {
                info.picked = false;
            }
        }
        enclave.rehome_default_queue(dead_agent);
        // Organic departure: the class move posts THREAD_DEAD, so the
        // surviving agents forget the victims.
        for t in victims {
            k.move_to_class(t, CLASS_CFS);
        }
        if leased_here {
            if let Some(lease) = self.leases.resolve(cpu, RevokeReason::BorrowerDied) {
                k.trace().emit(k.now(), cpu.0, || TraceEvent::LeaseRevoked {
                    cpu: cpu.0,
                    lender: lease.lender.0,
                    borrower: lease.borrower.0,
                    reason: RevokeReason::BorrowerDied as u8,
                });
                self.lease_attach_cpu(k, lease.lender, cpu);
                if let Some(e) = self.enclave_mut(lease.lender) {
                    if !e.destroyed {
                        e.pending_grants.push(cpu);
                    }
                }
                self.notify_agents(k, lease.lender);
            }
        }
    }

    /// Total ABI rejects charged to `eid` over its lifetime (the RM's
    /// per-enclave reject-pressure input).
    fn enclave_rejects(&self, eid: EnclaveId) -> u64 {
        self.enclaves
            .get(eid.0 as usize)
            .and_then(|s| s.as_ref())
            .map_or(0, |e| e.abi_rejects)
    }

    /// Runnable ghOSt threads of `eid` currently waiting off-CPU (the
    /// RM's backlog input).
    fn backlog(&self, k: &mut dyn GhostBackend, eid: EnclaveId) -> usize {
        self.enclaves
            .get(eid.0 as usize)
            .and_then(|s| s.as_ref())
            .map_or(0, |e| {
                e.threads
                    .tids()
                    .filter(|&t| k.thread(t).state == ThreadState::Runnable)
                    .count()
            })
    }

    /// The donor CPU the RM would lend next: the highest-numbered CPU
    /// that is not already leased, not the centralized global agent's
    /// seat, and not the donor's last CPU. Deterministic by
    /// construction (pure function of sorted enclave state).
    fn borrowable_cpu(&self, eid: EnclaveId) -> Option<CpuId> {
        let e = self.enclaves.get(eid.0 as usize)?.as_ref()?;
        if e.destroyed {
            return None;
        }
        let global_cpu = e
            .global_agent
            .and_then(|g| self.agent_enclave.get(g).map(|&(_, c)| c));
        let mut cpus: Vec<CpuId> = e.cpus.iter().collect();
        if cpus.len() <= 1 {
            return None;
        }
        cpus.sort_by_key(|c| c.0);
        cpus.into_iter()
            .rev()
            .find(|&c| Some(c) != global_cpu && self.leases.on_cpu(c).is_none())
    }

    /// Validated lend: membership and lease-table checks, then the
    /// actual transfer. The single entry point for both the public
    /// `lend_cpus()` API and the RM's Borrow decision.
    fn try_lend(
        &mut self,
        k: &mut dyn GhostBackend,
        lender: EnclaveId,
        borrower: EnclaveId,
        cpu: CpuId,
        duration: Nanos,
    ) -> Result<(), AbiError> {
        if let Err(e) = self.check_enclave(lender) {
            return Err(self.reject(k, None, cpu, e));
        }
        if let Err(e) = self.check_enclave(borrower) {
            return Err(self.reject(k, None, cpu, e));
        }
        if lender == borrower {
            return Err(self.reject(k, Some(lender), cpu, AbiError::CpuConflict));
        }
        if !k.valid_cpu(cpu) || cpu.index() >= self.cpu_enclave.len() {
            return Err(self.reject(k, Some(lender), cpu, AbiError::InvalidCpu));
        }
        let (owns, ncpus, mode, global_cpu) = {
            let e = self.enclaves[lender.0 as usize].as_ref().expect("checked");
            let global_cpu = e
                .global_agent
                .and_then(|g| self.agent_enclave.get(g).map(|&(_, c)| c));
            (
                e.cpus.contains(cpu),
                e.cpus.iter().count(),
                e.config.mode,
                global_cpu,
            )
        };
        if !owns {
            return Err(self.reject(k, Some(lender), cpu, AbiError::CpuOutsideEnclave));
        }
        if self.leases.on_cpu(cpu).is_some() {
            return Err(self.reject(k, Some(lender), cpu, AbiError::CpuLeased));
        }
        // The lender must keep at least one CPU — an enclave with an
        // empty partition can never schedule its way back to health.
        if ncpus <= 1 {
            return Err(self.reject(k, Some(lender), cpu, AbiError::EmptyCpuSet));
        }
        // A centralized lender cannot lend the seat its global agent
        // spins on (inactive standbys parked on other CPUs are fine:
        // they stay blocked for the lease's lifetime).
        if mode == AgentMode::Centralized && global_cpu == Some(cpu) {
            return Err(self.reject(k, Some(lender), cpu, AbiError::CpuBusy));
        }
        let now = k.now();
        let deadline = now.saturating_add(duration);
        let lease = self.leases.grant(cpu, lender, borrower, now, deadline);
        k.trace().emit(now, cpu.0, || TraceEvent::LeaseGranted {
            cpu: cpu.0,
            lender: lender.0,
            borrower: borrower.0,
            deadline_ns: deadline,
        });
        self.lease_detach_cpu(k, lender, cpu);
        if let Some(e) = self.enclave_mut(lender) {
            e.pending_revokes.push(cpu);
        }
        self.lease_attach_cpu(k, borrower, cpu);
        if let Some(e) = self.enclave_mut(borrower) {
            e.pending_grants.push(cpu);
        }
        // Kick the CPU through the normal resched path: a lender thread
        // still running there is preempted (THREAD_PREEMPTED routes to
        // the lender via `thread_enclave`), and the next pick serves
        // the borrower.
        let at = now + k.costs().ipi_send + k.costs().ipi_propagation + k.costs().ipi_receive;
        k.send_ipi(cpu, at);
        // The deadline is kernel state: armed here, enforced by
        // `hook_timer` whether or not the RM survives.
        k.arm_driver_timer(deadline, lease_timer_key(cpu, lease.seq));
        self.notify_agents(k, lender);
        self.notify_agents(k, borrower);
        Ok(())
    }

    /// Ends the lease on `cpu` (voluntary return, deadline expiry, or
    /// RM revoke): the borrower is preempted through the deferred-op
    /// resched path and the CPU re-attaches to its lender.
    fn end_lease(
        &mut self,
        k: &mut dyn GhostBackend,
        cpu: CpuId,
        reason: RevokeReason,
    ) -> Option<Lease> {
        let lease = self.leases.resolve(cpu, reason)?;
        k.trace().emit(k.now(), cpu.0, || TraceEvent::LeaseRevoked {
            cpu: cpu.0,
            lender: lease.lender.0,
            borrower: lease.borrower.0,
            reason: reason as u8,
        });
        self.lease_detach_cpu(k, lease.borrower, cpu);
        if let Some(e) = self.enclave_mut(lease.borrower) {
            if !e.destroyed {
                e.pending_revokes.push(cpu);
            }
        }
        self.lease_attach_cpu(k, lease.lender, cpu);
        if let Some(e) = self.enclave_mut(lease.lender) {
            if !e.destroyed {
                e.pending_grants.push(cpu);
            }
        }
        // Forced reclaim rides the normal resched path, so serial and
        // parallel sweeps observe identical interleavings: the IPI
        // preempts whatever borrower thread is on the CPU and the next
        // `hook_pick_next` serves the lender.
        let at = k.now() + k.costs().ipi_send + k.costs().ipi_propagation + k.costs().ipi_receive;
        k.send_ipi(cpu, at);
        self.notify_agents(k, lease.borrower);
        self.notify_agents(k, lease.lender);
        Some(lease)
    }

    /// Detaches `cpu` from `eid` for a lease transfer: membership, any
    /// committed slot, per-CPU agent/queue wiring, and any pending
    /// respawn all let go of the CPU. The caller re-points
    /// `cpu_enclave` by attaching the CPU to its new enclave.
    fn lease_detach_cpu(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId, cpu: CpuId) {
        let mut kill_agent: Option<Tid> = None;
        let Some(enclave) = self.enclaves[eid.0 as usize].as_mut() else {
            self.cpu_enclave[cpu.index()] = None;
            return;
        };
        enclave.cpus.remove(cpu);
        self.cpu_enclave[cpu.index()] = None;
        // Recall an in-flight commit targeting the departing CPU;
        // the thread stays runnable and is rescheduled elsewhere.
        if let Some(slot) = enclave.committed.remove(cpu) {
            if let Some(info) = enclave.threads.get_mut(slot.tid) {
                info.picked = false;
            }
        }
        match enclave.config.mode {
            AgentMode::Centralized => {
                // A parked hot-standby on the lent CPU stays blocked
                // in place: handoffs scan `enclave.cpus`, which no
                // longer includes this CPU, so it is never woken
                // while the lease is out. (Lending the global
                // agent's own seat is rejected up front.)
            }
            AgentMode::PerCpu | AgentMode::PerCore => {
                if let Some(slot) = enclave.agents.remove(cpu) {
                    kill_agent = Some(slot.tid);
                    if enclave.global_agent == Some(slot.tid) {
                        enclave.global_agent = None;
                    }
                    let key = core_key_of(k, cpu);
                    if enclave.core_active.get(key) == Some(&slot.tid) {
                        enclave.core_active.remove(key);
                    }
                }
                if let Some(qid) = enclave.cpu_queues.remove(cpu) {
                    let dq = enclave.default_queue;
                    // Per-core queues are shared with the SMT
                    // sibling; only tear a queue down once no CPU
                    // routes to it.
                    let still_routed = enclave.cpu_queues.values().any(|&q| q == qid);
                    if qid != dq && !still_routed {
                        // Orphaned queue: splice its pending
                        // messages into the default queue (messages
                        // stay produced-but-unconsumed, so the
                        // per-thread pending counts are restored)
                        // and re-home its threads.
                        let mut buf = Vec::new();
                        enclave.drain_queue_into(qid, &mut buf);
                        let mut moved: Vec<Tid> = Vec::new();
                        if let Some(Some(qs)) = enclave.queues.get_mut(dq.0 as usize) {
                            for m in buf {
                                let t = m.ty.is_thread_msg().then_some(m.tid);
                                if qs.queue.push(m).is_ok() {
                                    if let Some(t) = t {
                                        moved.push(t);
                                    }
                                }
                            }
                        }
                        for t in moved {
                            if let Some(info) = enclave.threads.get_mut(t) {
                                info.pending_msgs += 1;
                            }
                        }
                        for t in enclave.threads.sorted_tids() {
                            if let Some(info) = enclave.threads.get_mut(t) {
                                if info.queue == qid {
                                    info.queue = dq;
                                }
                            }
                        }
                        enclave.queues[qid.0 as usize] = None;
                    }
                }
                if let Some(dead) = kill_agent {
                    enclave.rehome_default_queue(dead);
                }
            }
        }
        // Revoke-during-reconstruction: a pending respawn for this
        // CPU is cancelled. If that was the last pending CPU and
        // stashed threads remain, reclaim them through the
        // surviving agents right away — a lease reclaim must never
        // leave recovery wedged waiting on a CPU that left.
        let mut reclaim = false;
        if let Some(r) = enclave.recovery.as_mut() {
            r.pending_cpus.retain(|&c| c != cpu);
            if r.pending_cpus.is_empty() {
                reclaim = !r.stashed.is_empty();
                if !reclaim {
                    enclave.recovery = None;
                }
            }
        }
        if reclaim {
            self.reclaim_stashed(k, eid);
        }
        if let Some(t) = kill_agent {
            // Registry removal BEFORE the kill: `hook_agent_killed`
            // treats an unregistered death as already handled and runs
            // no fallback (same pattern as `destroy_enclave`).
            self.agent_enclave.remove(t);
            k.kill(t);
        }
    }

    /// Attaches `cpu` to `eid` after a lease transfer: membership plus,
    /// for per-CPU/per-core modes, a fresh pinned agent with its queue
    /// wiring. A centralized enclave schedules any owned CPU from its
    /// global agent, so no new agent is needed there.
    fn lease_attach_cpu(&mut self, k: &mut dyn GhostBackend, eid: EnclaveId, cpu: CpuId) {
        let Some(enclave) = self.enclaves[eid.0 as usize].as_mut() else {
            return;
        };
        if enclave.destroyed {
            return;
        }
        enclave.cpus.add(cpu);
        self.cpu_enclave[cpu.index()] = Some(eid);
        let mode = enclave.config.mode;
        if mode == AgentMode::Centralized || enclave.agents.contains(cpu) {
            return;
        }
        let tid = self.install_agent(k, eid, cpu, "lease");
        let enclave = self.enclave_mut(eid).expect("checked above");
        enclave.wire_cpu_queue(k.topo().core_cpus(cpu), cpu, tid);
        if mode == AgentMode::PerCore {
            enclave.core_active.or_insert(core_key_of(k, cpu), tid);
        }
        k.wake(tid);
    }
}

/// The shared-everything runtime; clone freely (all clones are views of
/// the same state).
///
/// `Send + Sync`: the shared state sits behind `Arc<Mutex<..>>` so an
/// entire wired simulation can run on a `ghost-lab` worker thread. Each
/// simulation is single-threaded, so the lock is never contended; all
/// cross-context side effects go through `KernelState`'s deferred-op
/// buffers, so the lock is never taken re-entrantly either.
#[derive(Clone)]
pub struct GhostRuntime {
    shared: Arc<Mutex<Core>>,
}

/// A typed handle to one live enclave: the runtime plus the enclave's id.
///
/// [`GhostRuntime::launch_enclave`] returns one after installing the
/// class (if needed), creating the enclave, and spawning its agents — so
/// holding an `EnclaveHandle` means the enclave is fully wired and a
/// scenario cannot forget a setup step. Every per-enclave operation
/// (attach, upgrade, standby, crash-injection lookups, lending,
/// teardown) lives here; a handle to a destroyed enclave gets typed
/// [`AbiError`] rejections, never a panic.
#[derive(Clone)]
pub struct EnclaveHandle {
    runtime: GhostRuntime,
    id: EnclaveId,
}

impl EnclaveHandle {
    fn core(&self) -> MutexGuard<'_, Core> {
        self.runtime.shared.lock().unwrap()
    }

    /// The raw enclave id (for trace matching and low-level calls).
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    /// The runtime this enclave belongs to.
    pub fn runtime(&self) -> &GhostRuntime {
        &self.runtime
    }

    /// Attaches a native thread to this enclave (`START_GHOST()`): moves
    /// it into the ghOSt scheduling class, generating `THREAD_CREATED`
    /// (and `THREAD_WAKEUP` if it is runnable). Invalid requests are
    /// rejected (and counted); use [`EnclaveHandle::try_attach_thread`]
    /// to see the cause.
    pub fn attach_thread(&self, k: &mut dyn GhostBackend, tid: Tid) {
        let _ = self.try_attach_thread(k, tid);
    }

    /// Validated attach: rejects dead/nonexistent tids, agent pthreads,
    /// threads already in an enclave, and dead or unknown enclaves with a
    /// typed [`AbiError`] instead of corrupting the registry.
    pub fn try_attach_thread(&self, k: &mut dyn GhostBackend, tid: Tid) -> Result<(), AbiError> {
        let mut core = self.core();
        let enclave_ok = core.check_enclave(self.id);
        let err = if let Err(e) = enclave_ok {
            Some(e)
        } else if !k.valid_tid(tid) {
            Some(AbiError::NoSuchThread)
        } else if k.thread(tid).state == ThreadState::Dead {
            Some(AbiError::DeadThread)
        } else if k.thread(tid).kind == ghost_sim::thread::ThreadKind::Agent {
            Some(AbiError::AgentThread)
        } else if core.thread_enclave.contains(tid) || core.pending_attach.contains(tid) {
            Some(AbiError::AlreadyAttached)
        } else {
            None
        };
        if let Some(err) = err {
            // Strikes only land on an enclave that exists — a forged eid
            // has nothing to quarantine.
            let strike_eid = enclave_ok.is_ok().then_some(self.id);
            return Err(core.reject(k, strike_eid, CpuId(0), err));
        }
        core.pending_attach.insert(tid, self.id);
        drop(core);
        k.move_to_class(tid, CLASS_GHOST);
        Ok(())
    }

    /// Stages a new policy version for an in-place upgrade (§3.4): "the
    /// new agent blocks until the old agent crashes or exits", then takes
    /// over. Staging onto a dead enclave drops the policy (counted); use
    /// [`EnclaveHandle::try_stage_upgrade`] to see the rejection.
    pub fn stage_upgrade(&self, policy: Box<dyn GhostPolicy>) {
        let _ = self.try_stage_upgrade(policy);
    }

    /// Validated staging: rejects dead or unknown enclaves with a typed
    /// [`AbiError`] (the policy object is dropped).
    pub fn try_stage_upgrade(&self, policy: Box<dyn GhostPolicy>) -> Result<(), AbiError> {
        let mut core = self.core();
        if let Err(e) = core.check_enclave(self.id) {
            return Err(core.note_reject(e));
        }
        core.staged[self.id.0 as usize] = Some(policy);
        Ok(())
    }

    /// Performs an in-place upgrade right now (§3.4): the staged policy
    /// takes over and rebuilds its view by scanning the status words of
    /// the enclave's threads at its next activation — no synthetic
    /// message replay. Rejects dead or unknown enclaves and upgrades with
    /// nothing staged with a typed [`AbiError`].
    pub fn try_upgrade_now(&self, k: &mut dyn GhostBackend) -> Result<(), AbiError> {
        let eid = self.id;
        let mut core = self.core();
        if let Err(e) = core.check_enclave(eid) {
            return Err(core.reject(k, None, CpuId(0), e));
        }
        let Some(staged) = core.staged[eid.0 as usize].take() else {
            return Err(core.reject(k, Some(eid), CpuId(0), AbiError::NothingStaged));
        };
        core.policies[eid.0 as usize] = Some(staged);
        core.stats.upgrades += 1;
        // The watchdog excuses pre-upgrade starvation (without this a
        // hung-then-upgraded agent is double-reaped), and the `Aseq`
        // barrier keeps commits prepared against the old policy's view
        // from landing under the new one.
        if let Some(enclave) = core.enclave_mut(eid) {
            enclave.raise_reconstruct_barrier(k.now());
        }
        core.notify_agents(k, eid);
        Ok(())
    }

    /// Registers a policy factory for standby respawns in this enclave's
    /// degraded-mode failover (§3.4): each respawned agent starts from a
    /// fresh policy instance and rebuilds purely from the status-word
    /// scan. Without a factory the surviving in-memory policy object is
    /// re-seeded in place (the reconstruction still runs). A dead enclave
    /// drops the factory (counted).
    pub fn set_standby_policy(&self, factory: impl Fn() -> Box<dyn GhostPolicy> + Send + 'static) {
        let mut core = self.core();
        match core.check_enclave(self.id) {
            Ok(()) => core.standby_factories[self.id.0 as usize] = Some(Box::new(factory)),
            Err(e) => {
                core.note_reject(e);
            }
        }
    }

    /// Destroys the enclave: threads fall back to CFS, agents die.
    /// Destroying twice is a counted, typed rejection.
    pub fn try_destroy(&self, k: &mut dyn GhostBackend) -> Result<(), AbiError> {
        let mut core = self.core();
        if let Err(e) = core.check_enclave(self.id) {
            return Err(core.reject(k, None, CpuId(0), e));
        }
        core.destroy_enclave(k, self.id);
        Ok(())
    }

    /// Agent pthreads of the enclave, in agent-CPU order (for crash
    /// injection in tests — a deterministic order keeps "kill the first
    /// satellite" reproducible).
    pub fn agent_tids(&self) -> Vec<Tid> {
        let core = self.core();
        let Some(e) = core.enclave(self.id) else {
            return Vec::new();
        };
        let mut slots: Vec<(CpuId, Tid)> = e.agents.values().map(|a| (a.cpu, a.tid)).collect();
        slots.sort_by_key(|&(c, _)| c.0);
        slots.into_iter().map(|(_, t)| t).collect()
    }

    /// The agent pthread pinned to `cpu`, if the enclave owns that CPU
    /// (for targeted crash injection in tests and the chaos harness).
    pub fn agent_on(&self, cpu: CpuId) -> Option<Tid> {
        self.core().enclave(self.id)?.agents.get(cpu).map(|a| a.tid)
    }

    /// The current global agent of a centralized enclave.
    pub fn global_agent(&self) -> Option<Tid> {
        self.core().enclave(self.id)?.global_agent
    }

    /// Slab handle backing `tid`'s entry in the enclave's thread table
    /// (`None` if the thread is not managed here). Handles are recycled
    /// after a thread dies; this accessor lets tests observe free-list
    /// reuse and prove a recycled handle is never reachable through the
    /// dead tid.
    pub fn thread_handle(&self, tid: Tid) -> Option<u32> {
        self.core().enclave(self.id)?.threads.handle_of(tid)
    }

    /// True while the enclave exists and has not been destroyed.
    pub fn alive(&self) -> bool {
        self.core().enclave(self.id).is_some_and(|e| !e.destroyed)
    }

    /// True while the enclave is in §3.4 degraded mode: its agent died,
    /// threads were shed to CFS, and recovery (standby respawn + thread
    /// reclaim) has not yet completed. Embedding services poll this to
    /// drive graceful degradation (load shedding, timeouts) while the
    /// scheduler is down.
    pub fn degraded(&self) -> bool {
        self.core()
            .enclave(self.id)
            .is_some_and(|e| e.recovery.is_some())
    }

    /// Runs `f` against the enclave's policy (to extract policy-internal
    /// results after a run).
    pub fn with_policy<R>(&self, f: impl FnOnce(&mut dyn GhostPolicy) -> R) -> Option<R> {
        let mut core = self.core();
        let policy = core.policies.get_mut(self.id.0 as usize)?.as_mut()?;
        Some(f(policy.as_mut()))
    }

    /// Reads a managed thread's status word (seq, flags) through the
    /// validated boundary: dead enclaves and foreign tids yield a typed
    /// [`AbiError`], never a panic.
    pub fn try_thread_status(&self, tid: Tid) -> Result<(u64, u64), AbiError> {
        let mut core = self.core();
        if let Err(e) = core.check_enclave(self.id) {
            return Err(core.note_reject(e));
        }
        let found = core
            .enclave(self.id)
            .and_then(|e| e.threads.get(tid))
            .map(|info| (info.status.seq(), info.status.flags()));
        found.ok_or_else(|| core.note_reject(AbiError::ForeignThread))
    }

    /// Models an agent scribbling into kernel-owned status-word memory.
    /// Status words are kernel-published and read-only to agents, so this
    /// always rejects with [`AbiError::StatusReadOnly`] — and, because no
    /// benign agent issues kernel-memory writes, always counts a
    /// byzantine strike against the enclave.
    pub fn try_write_status(
        &self,
        k: &mut dyn GhostBackend,
        _tid: Tid,
        _garbage: u64,
    ) -> Result<(), AbiError> {
        let mut core = self.core();
        let strike_eid = core.check_enclave(self.id).is_ok().then_some(self.id);
        Err(core.reject(k, strike_eid, CpuId(0), AbiError::StatusReadOnly))
    }

    /// Lends CPUs from this enclave to `borrower` for `duration` ns (see
    /// [`GhostRuntime::try_lend_cpu`]); stops at the first rejection.
    pub fn lend_to(
        &self,
        k: &mut dyn GhostBackend,
        borrower: &EnclaveHandle,
        cpus: &[CpuId],
        duration: Nanos,
    ) -> Result<(), AbiError> {
        for &cpu in cpus {
            self.runtime
                .try_lend_cpu(k, self.id, borrower.id, cpu, duration)?;
        }
        Ok(())
    }

    /// CPUs this enclave is currently borrowing, sorted.
    pub fn borrowed_cpus(&self) -> Vec<CpuId> {
        self.core().leases.borrowed_by(self.id)
    }

    /// This enclave's current CPU partition (including borrowed CPUs,
    /// excluding lent-out ones), sorted.
    pub fn cpus(&self) -> Vec<CpuId> {
        self.core()
            .enclave(self.id)
            .map(|e| e.cpus.iter().collect())
            .unwrap_or_default()
    }
}

impl GhostRuntime {
    /// Creates a runtime for a machine with `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Self {
            shared: Arc::new(Mutex::new(Core {
                enclaves: Vec::new(),
                policies: Vec::new(),
                staged: Vec::new(),
                standby_factories: Vec::new(),
                thread_enclave: TidMap::new(),
                pending_attach: TidMap::new(),
                agent_enclave: TidMap::new(),
                cpu_enclave: vec![None; num_cpus],
                installed: false,
                stats: GhostStats::default(),
                drain_buf: Vec::new(),
                commit_scratch: CommitScratch::default(),
                leases: LeaseTable::new(),
                rm: None,
                rm_spec: None,
                rm_token: 0,
                rm_restarts: 0,
            })),
        }
    }

    /// Installs the ghOSt class and driver into the kernel. Idempotent —
    /// [`GhostRuntime::launch_enclave`] calls it on first use, so the
    /// canonical setup path cannot forget it.
    pub fn install(&self, kernel: &mut Kernel) {
        kernel.install_class(
            CLASS_GHOST,
            Box::new(GhostClass {
                shared: Arc::clone(&self.shared),
            }),
        );
        kernel.set_driver(Box::new(GhostDriver {
            shared: Arc::clone(&self.shared),
        }));
        self.shared.lock().unwrap().installed = true;
    }

    /// The enclave setup path on the DES: installs the class and driver
    /// if no one did yet, creates the enclave, spawns its agents through
    /// [`GhostRuntime::spawn_agents`], settles the kernel, and returns a
    /// typed [`EnclaveHandle`] — so a scenario cannot forget to install
    /// or spawn. `ghost-live`'s `LiveKernel::launch_enclave` is the same
    /// sequence over real threads.
    ///
    /// # Panics
    ///
    /// Panics if [`GhostRuntime::try_create_enclave`] rejects `cpus`
    /// (empty, out of range, or owned by another enclave).
    pub fn launch_enclave(
        &self,
        kernel: &mut Kernel,
        cpus: CpuSet,
        config: EnclaveConfig,
        policy: Box<dyn GhostPolicy>,
    ) -> EnclaveHandle {
        if !self.shared.lock().unwrap().installed {
            self.install(kernel);
        }
        let id = self
            .try_create_enclave(cpus, config, policy)
            .unwrap_or_else(|err| panic!("launch_enclave: {err}"));
        self.spawn_agents(&mut kernel.state, id);
        kernel.settle();
        self.handle(id)
    }

    /// Wraps an already-created enclave id in a typed handle.
    pub fn handle(&self, id: EnclaveId) -> EnclaveHandle {
        EnclaveHandle {
            runtime: self.clone(),
            id,
        }
    }

    /// Validated enclave creation (agents are not spawned yet — prefer
    /// [`GhostRuntime::launch_enclave`]): rejects an empty CPU set, CPU
    /// ids the machine does not have, and CPUs already owned by another
    /// enclave with a typed [`AbiError`].
    pub fn try_create_enclave(
        &self,
        cpus: CpuSet,
        config: EnclaveConfig,
        policy: Box<dyn GhostPolicy>,
    ) -> Result<EnclaveId, AbiError> {
        let mut core = self.shared.lock().unwrap();
        if cpus.is_empty() {
            return Err(core.note_reject(AbiError::EmptyCpuSet));
        }
        for c in cpus.iter() {
            if c.index() >= core.cpu_enclave.len() {
                return Err(core.note_reject(AbiError::InvalidCpu));
            }
            if core.cpu_enclave[c.index()].is_some() {
                return Err(core.note_reject(AbiError::CpuConflict));
            }
        }
        let id = EnclaveId(core.enclaves.len() as u32);
        for c in cpus.iter() {
            core.cpu_enclave[c.index()] = Some(id);
        }
        // One PNT ring per NUMA node is the paper's §5 layout; sized from
        // the config if enabled.
        let pnt = config.pnt_ring_capacity.map(|cap| PntRings::new(2, cap));
        let mut enclave = Enclave {
            id,
            cpus,
            queues: Vec::new(),
            default_queue: QueueId(0),
            cpu_queues: CpuMap::new(),
            threads: TidSlab::new(),
            agents: CpuMap::new(),
            global_agent: None,
            core_active: CpuMap::new(),
            committed: CpuMap::new(),
            pnt,
            hints: TidMap::new(),
            destroyed: false,
            loop_armed: false,
            upgraded_at: None,
            needs_reconstruct: false,
            recovery: None,
            abi_strikes: 0,
            respawn_attempts: 0,
            abi_rejects: 0,
            pending_grants: Vec::new(),
            pending_revokes: Vec::new(),
            config,
        };
        enclave.add_queue(WakeMode::Polled);
        core.enclaves.push(Some(enclave));
        core.policies.push(Some(policy));
        core.staged.push(None);
        core.standby_factories.push(None);
        Ok(id)
    }

    /// `AGENT_INIT()`: spawns one pinned agent per enclave CPU and wires
    /// its queue for the enclave's [`AgentMode`], points the default
    /// queue at its consumer, arms the watchdog, and wakes the global
    /// agent (centralized). Backend-generic: the DES and the live backend
    /// launch every enclave through this one path. The caller settles the
    /// backend afterwards (deferred spawns and wakes).
    pub fn spawn_agents(&self, k: &mut dyn GhostBackend, eid: EnclaveId) {
        let mut core = self.shared.lock().unwrap();
        let cpus: Vec<CpuId> = core
            .enclave(eid)
            .expect("enclave exists")
            .cpus
            .iter()
            .collect();
        for &cpu in &cpus {
            let tid = core.install_agent(k, eid, cpu, "agent");
            let enclave = core.enclave_mut(eid).expect("enclave exists");
            enclave.wire_cpu_queue(k.topo().core_cpus(cpu), cpu, tid);
        }
        let enclave = core.enclave_mut(eid).expect("enclave exists");
        let first = enclave.agents.get(cpus[0]).expect("agent spawned").tid;
        let default_wake = match enclave.config.mode {
            AgentMode::Centralized => {
                enclave.global_agent = Some(first);
                WakeMode::Polled
            }
            // The first agent redistributes new threads via
            // ASSOCIATE_QUEUE.
            AgentMode::PerCpu => WakeMode::WakeAgent(first),
            // New threads are associated with the default queue; the
            // agent of the event's CPU is woken for those messages too,
            // and every activation drains the default queue alongside
            // its core queue.
            AgentMode::PerCore => WakeMode::WakeEventCpuAgent,
        };
        if let Some(Some(qs)) = enclave.queues.get_mut(enclave.default_queue.0 as usize) {
            qs.wake = default_wake;
        }
        if let Some(timeout) = enclave.config.watchdog_timeout {
            k.arm_driver_timer(k.now() + timeout / 2, eid.0 as u64);
        }
        if let Some(global) = enclave.global_agent {
            k.wake(global);
        }
    }

    /// Publishes a scheduling hint for a managed thread (the workload
    /// side of Fig. 1's "optional scheduling hints" arrow); the next
    /// agent activation can read it via `PolicyCtx::hint`. Rejects tids
    /// the runtime does not manage — and hints for a dead enclave — with
    /// a typed [`AbiError`] instead of silently dropping them.
    pub fn try_set_hint(&self, tid: Tid, hint: u64) -> Result<(), AbiError> {
        let mut core = self.shared.lock().unwrap();
        let Some(&eid) = core.thread_enclave.get(tid) else {
            return Err(core.note_reject(AbiError::ForeignThread));
        };
        if let Err(e) = core.check_enclave(eid) {
            return Err(core.note_reject(e));
        }
        if let Some(enclave) = core.enclave_mut(eid) {
            enclave.hints.insert(tid, hint);
        }
        Ok(())
    }

    /// Snapshot of runtime statistics.
    pub fn stats(&self) -> GhostStats {
        self.shared.lock().unwrap().stats.clone()
    }

    // -- Core lending (deadline-bounded leases) -----------------------------

    /// Lends `cpu` from `lender` to `borrower` for `duration` ns. The
    /// deadline is enforced by a kernel-side driver timer; at expiry the
    /// borrower is preempted through the deferred-op path and the CPU
    /// re-attaches to the lender.
    pub fn try_lend_cpu(
        &self,
        k: &mut dyn GhostBackend,
        lender: EnclaveId,
        borrower: EnclaveId,
        cpu: CpuId,
        duration: Nanos,
    ) -> Result<(), AbiError> {
        let mut core = self.shared.lock().unwrap();
        core.try_lend(k, lender, borrower, cpu, duration)
    }

    /// Returns a leased CPU to its lender before the deadline.
    pub fn try_reclaim_cpu(&self, k: &mut dyn GhostBackend, cpu: CpuId) -> Result<(), AbiError> {
        let mut core = self.shared.lock().unwrap();
        if !k.valid_cpu(cpu) || cpu.index() >= core.cpu_enclave.len() {
            return Err(core.reject(k, None, cpu, AbiError::InvalidCpu));
        }
        if core.leases.on_cpu(cpu).is_none() {
            return Err(core.reject(k, None, cpu, AbiError::NotLeased));
        }
        core.end_lease(k, cpu, RevokeReason::Returned);
        Ok(())
    }

    /// Active leases, sorted by CPU id.
    pub fn leases(&self) -> Vec<Lease> {
        self.shared.lock().unwrap().leases.iter().copied().collect()
    }

    /// Aggregate lease counters.
    pub fn lease_stats(&self) -> LeaseStats {
        self.shared.lock().unwrap().leases.stats
    }

    /// The active lease on `cpu`, if any.
    pub fn lease_on(&self, cpu: CpuId) -> Option<Lease> {
        self.shared.lock().unwrap().leases.on_cpu(cpu).copied()
    }

    /// Which live enclave currently schedules `cpu`, if any.
    pub fn cpu_owner(&self, cpu: CpuId) -> Option<EnclaveId> {
        let core = self.shared.lock().unwrap();
        core.cpu_enclave.get(cpu.index()).copied().flatten()
    }

    // -- Resource manager (in-process control plane) ------------------------

    /// Starts the in-process resource manager supervising `protected`
    /// (the latency-sensitive borrower) and `donor` (the batch lender).
    /// The RM samples per-enclave health each epoch and decides
    /// lend/return/quarantine; leases it negotiates are kernel state and
    /// survive its death.
    pub fn rm_start(
        &self,
        k: &mut dyn GhostBackend,
        config: RmConfig,
        protected: EnclaveId,
        donor: EnclaveId,
    ) {
        let mut core = self.shared.lock().unwrap();
        core.rm_token += 1;
        let token = core.rm_token;
        let epoch = config.epoch;
        let mut rm = RmState::new(config, protected, donor);
        rm.incarnation = token;
        rm.last_rejects = [
            (protected, core.enclave_rejects(protected)),
            (donor, core.enclave_rejects(donor)),
        ];
        core.rm_spec = Some((config, protected, donor));
        core.rm = Some(rm);
        k.arm_driver_timer(k.now() + epoch, RM_TIMER_FLAG | token);
    }

    /// Fault injection: kills the RM task in place. Active leases stay
    /// in the kernel-side table and their deadlines keep firing; the
    /// enclaves run standalone. Returns false if no RM was running.
    pub fn rm_crash(&self) -> bool {
        self.shared.lock().unwrap().rm.take().is_some()
    }

    /// Restarts a crashed RM, reconstructing its view from enclave
    /// snapshots (current reject counters, live lease table). Returns
    /// false if the RM is still running or was never started.
    pub fn rm_restart(&self, k: &mut dyn GhostBackend) -> bool {
        let mut core = self.shared.lock().unwrap();
        if core.rm.is_some() {
            return false;
        }
        let Some((config, protected, donor)) = core.rm_spec else {
            return false;
        };
        core.rm_token += 1;
        core.rm_restarts += 1;
        let token = core.rm_token;
        let mut rm = RmState::new(config, protected, donor);
        rm.incarnation = token;
        rm.stats.restarts = core.rm_restarts;
        rm.last_rejects = [
            (protected, core.enclave_rejects(protected)),
            (donor, core.enclave_rejects(donor)),
        ];
        let restarts = core.rm_restarts;
        let n_leases = core.leases.len() as u32;
        k.trace().emit(k.now(), 0, || TraceEvent::RmFailover {
            restarts,
            leases: n_leases,
        });
        core.rm = Some(rm);
        k.arm_driver_timer(k.now() + config.epoch, RM_TIMER_FLAG | token);
        true
    }

    /// True while the RM task is alive.
    pub fn rm_alive(&self) -> bool {
        self.shared.lock().unwrap().rm.is_some()
    }

    /// Decision counters of the running RM (None after a crash).
    pub fn rm_stats(&self) -> Option<RmStats> {
        self.shared.lock().unwrap().rm.as_ref().map(|r| r.stats)
    }
}

// ---------------------------------------------------------------------------
// Transaction commit (TXNS_COMMIT) — kernel-side validation and effects.
// ---------------------------------------------------------------------------

impl<'a> PolicyCtx<'a> {
    /// `TXNS_COMMIT()`: commits a group of transactions, writing each
    /// transaction's `status` in place (the paper's Figs. 3–4 check
    /// `txn->status` right after the call).
    ///
    /// Costs charged to the activation: one syscall, per-transaction
    /// validation, and — for remote targets — a single batched IPI
    /// (first target full price, extra targets amortized), with
    /// cross-socket and SMT multipliers applied.
    pub fn commit(&mut self, txns: &mut [Transaction]) {
        self.do_commit(txns, false);
    }

    /// Commits a group atomically: if any transaction fails validation,
    /// none take effect (failed ones carry their real failure status,
    /// would-have-succeeded ones are `Aborted`). Used by per-core secure
    /// VM scheduling, §4.5: "issuing commits for both CPUs of a core
    /// which must either all succeed or all fail".
    pub fn commit_atomic(&mut self, txns: &mut [Transaction]) {
        self.do_commit(txns, true);
    }

    /// Commits a single transaction and returns its status.
    pub fn commit_one(&mut self, txn: &mut Transaction) -> TxnStatus {
        let mut arr = [*txn];
        self.commit(&mut arr);
        *txn = arr[0];
        txn.status
    }

    /// The queue CPU-scoped events for `cpu` are routed to.
    pub fn queue_of_cpu(&self, cpu: CpuId) -> QueueId {
        self.enclave.queue_for_cpu(cpu)
    }

    /// Tids of all threads managed by this enclave, in Tid order (the
    /// slab's handle order must not steer a policy's decisions).
    pub fn managed_threads(&self) -> Vec<Tid> {
        self.enclave.threads.sorted_tids()
    }

    fn scaled(&self, cost: Nanos) -> Nanos {
        if self.smt_scale {
            self.k.costs().smt_scaled(cost)
        } else {
            cost
        }
    }

    /// Kernel-side validation of one transaction (§2.2: agents "are not
    /// trusted for system integrity", so the kernel checks every field an
    /// agent hands it). Returns the precise typed rejection cause; the
    /// wire status the agent observes is [`AbiError::txn_status`]. Every
    /// check is total — a fully forged transaction (out-of-range CPU,
    /// nonexistent tid) rejects, it never indexes out of bounds.
    fn validate(&self, txn: &Transaction) -> Result<(), AbiError> {
        let enclave = &*self.enclave;
        if enclave.destroyed {
            return Err(AbiError::EnclaveDestroyed);
        }
        // Bounds before membership: a CPU id the machine does not even
        // have is a forged argument, not an unlucky placement choice —
        // and everything downstream (topology, cpu state) may index by it.
        if !self.k.valid_cpu(txn.cpu) {
            return Err(AbiError::InvalidCpu);
        }
        if !enclave.cpus.contains(txn.cpu) {
            return Err(AbiError::CpuOutsideEnclave);
        }
        // Not a thread of this enclave: discriminate the cause precisely —
        // a tid the kernel never issued, a thread that already died, a
        // thread belonging to someone else, or an agent pthread.
        let Some(info) = enclave.threads.get(txn.tid) else {
            return Err(match self.k.thread_checked(txn.tid) {
                None => AbiError::NoSuchThread,
                Some(t) if t.state == ThreadState::Dead => AbiError::DeadThread,
                Some(t) if t.kind == ghost_sim::thread::ThreadKind::Agent => AbiError::AgentThread,
                Some(_) => AbiError::ForeignThread,
            });
        };
        if info.picked {
            return Err(AbiError::TargetNotRunnable);
        }
        let t = &self.k.thread(txn.tid);
        if t.state != ThreadState::Runnable {
            return Err(AbiError::TargetNotRunnable);
        }
        if !t.affinity.contains(txn.cpu) {
            return Err(AbiError::CpuOutsideAffinity);
        }
        match txn.seq {
            SeqConstraint::None => {}
            SeqConstraint::Agent(aseq) => {
                let cur = enclave
                    .agents
                    .get(self.agent_cpu)
                    .map_or(0, |a| a.status.seq());
                if aseq < cur {
                    return Err(AbiError::StaleSeq);
                }
            }
            SeqConstraint::Thread(tseq) => {
                if tseq < info.tseq {
                    return Err(AbiError::StaleSeq);
                }
            }
        }
        if enclave.committed.contains(txn.cpu) {
            return Err(AbiError::CpuBusy);
        }
        // Occupancy: ghOSt may preempt its own threads but nothing of a
        // higher class — except the agent's own CPU, which the agent is
        // about to give up (local commit), and CPUs occupied by *agent*
        // threads, which vacate as soon as their activation ends (the
        // committed slot is consumed when the CPU next picks).
        let cs = &self.k.cpu(txn.cpu);
        if cs.is_occupied() && txn.cpu != self.agent_cpu {
            if let Some(cur) = cs.current {
                let cur = &self.k.thread(cur);
                if cur.class < CLASS_GHOST && cur.kind != ghost_sim::thread::ThreadKind::Agent {
                    return Err(AbiError::CpuBusy);
                }
            }
        }
        Ok(())
    }

    fn do_commit(&mut self, txns: &mut [Transaction], atomic: bool) {
        let costs_syscall = self.k.costs().syscall;
        let costs_validate = self.k.costs().txn_validate;
        let costs_local = self
            .k
            .costs()
            .txn_local_commit
            .saturating_sub(costs_syscall);
        self.busy += self.scaled(costs_syscall);
        // Validation pass. Duplicate targets within the group are caught
        // by inserting provisional slots as we go.
        self.scratch.provisional.clear();
        for i in 0..txns.len() {
            let verdict = self.validate(&txns[i]);
            let (t_cpu, t_tid) = (txns[i].cpu.0, txns[i].tid.0);
            // A per-txn validation charge, dearer across sockets. Local
            // transactions are charged via `txn_local_commit` in the
            // effect pass instead (Table 3 line 3 subsumes validation).
            // A forged CPU id rejects before any topology lookup, so it
            // is charged the base price only.
            if txns[i].cpu != self.agent_cpu {
                let mut vcost = costs_validate;
                if verdict != Err(AbiError::InvalidCpu)
                    && !self.k.topo().same_socket(self.agent_cpu, txns[i].cpu)
                {
                    vcost = self.k.costs().cross_socket_scaled(vcost);
                }
                self.busy += self.scaled(vcost);
            }
            match verdict {
                Ok(()) => {
                    self.k
                        .trace()
                        .emit(self.k.now(), t_cpu, || TraceEvent::TxnArmed {
                            cpu: t_cpu,
                            tid: t_tid,
                        });
                    // Reserve target CPU and thread against duplicates.
                    self.enclave.committed.insert(
                        txns[i].cpu,
                        CommittedSlot {
                            tid: txns[i].tid,
                            arm_at: Nanos::MAX, // Patched below.
                        },
                    );
                    if let Some(info) = self.enclave.threads.get_mut(txns[i].tid) {
                        info.picked = true;
                    }
                    self.scratch.provisional.push(i);
                    txns[i].status = TxnStatus::Committed;
                    txns[i].error = None;
                }
                Err(err) if atomic => {
                    // Unwind everything and mark the rest aborted; every
                    // casualty carries the group-failing cause.
                    for j in 0..self.scratch.provisional.len() {
                        let j = self.scratch.provisional[j];
                        self.enclave.committed.remove(txns[j].cpu);
                        if let Some(info) = self.enclave.threads.get_mut(txns[j].tid) {
                            info.picked = false;
                        }
                        let (j_cpu, j_tid) = (txns[j].cpu.0, txns[j].tid.0);
                        self.k
                            .trace()
                            .emit(self.k.now(), j_cpu, || TraceEvent::TxnCommitRace {
                                cpu: j_cpu,
                                tid: j_tid,
                            });
                        txns[j].status = TxnStatus::Aborted;
                        txns[j].error = Some(err);
                        self.stats.txns_aborted += 1;
                    }
                    txns[i].status = err.txn_status();
                    txns[i].error = Some(err);
                    self.reject_txn(err, t_cpu, t_tid);
                    // Remaining txns are aborted unexamined.
                    for t in txns[i + 1..].iter_mut() {
                        t.status = TxnStatus::Aborted;
                        t.error = Some(err);
                        self.stats.txns_aborted += 1;
                    }
                    return;
                }
                Err(err) => {
                    txns[i].status = err.txn_status();
                    txns[i].error = Some(err);
                    self.reject_txn(err, t_cpu, t_tid);
                }
            }
        }
        if txns.len() > 1 {
            self.stats.group_commits += 1;
        }
        // Effect pass: charge IPI batch, arm slots.
        self.scratch.remote.clear(); // (txn index, cross-socket)
        for pi in 0..self.scratch.provisional.len() {
            let i = self.scratch.provisional[pi];
            if txns[i].cpu == self.agent_cpu {
                self.busy += self.scaled(costs_local);
            } else {
                let cross = !self.k.topo().same_socket(self.agent_cpu, txns[i].cpu);
                self.scratch.remote.push((i, cross));
            }
        }
        let n_remote = self.scratch.remote.len() as u64;
        for idx in 0..self.scratch.remote.len() {
            let (_, cross) = self.scratch.remote[idx];
            let base = if idx == 0 {
                self.k.costs().ipi_send
            } else {
                self.k.costs().ipi_send_extra
            };
            let c = if cross {
                self.k.costs().cross_socket_scaled(base)
            } else {
                base
            };
            self.busy += self.scaled(c);
        }
        let dispatch = self.k.now() + self.busy;
        // Arm local slots: visible as soon as the agent parks.
        for pi in 0..self.scratch.provisional.len() {
            let i = self.scratch.provisional[pi];
            if txns[i].cpu == self.agent_cpu {
                if let Some(slot) = self.enclave.committed.get_mut(txns[i].cpu) {
                    slot.arm_at = dispatch;
                }
                // The local CPU reschedules when the agent parks; no IPI.
            }
        }
        // Arm remote slots and send IPIs.
        for ri in 0..self.scratch.remote.len() {
            let (i, cross) = self.scratch.remote[ri];
            let prop = self.k.costs().ipi_propagation
                + if cross {
                    self.k.costs().ipi_propagation_cross_socket
                } else {
                    0
                };
            let contention = if n_remote > 1 {
                self.k.costs().group_target_contention
            } else {
                0
            };
            let resched_at = dispatch + prop + self.k.costs().ipi_receive + contention;
            if let Some(slot) = self.enclave.committed.get_mut(txns[i].cpu) {
                slot.arm_at = resched_at;
            }
            self.k.send_ipi(txns[i].cpu, resched_at);
        }
        if atomic && self.scratch.provisional.len() > 1 {
            // Synchronized group commit (§4.5): all targets act on the
            // commit at the same instant, so a core never transiently
            // runs threads of different VMs while the switches land.
            let arm_all = self
                .scratch
                .provisional
                .iter()
                .filter_map(|&i| self.enclave.committed.get(txns[i].cpu))
                .map(|s| s.arm_at)
                .max()
                .unwrap_or(dispatch);
            for pi in 0..self.scratch.provisional.len() {
                let i = self.scratch.provisional[pi];
                if let Some(slot) = self.enclave.committed.get_mut(txns[i].cpu) {
                    slot.arm_at = arm_all;
                }
                self.k.send_ipi(txns[i].cpu, arm_all);
            }
        }
        for pi in 0..self.scratch.provisional.len() {
            let i = self.scratch.provisional[pi];
            let (t_cpu, t_tid) = (txns[i].cpu.0, txns[i].tid.0);
            self.k
                .trace()
                .emit(self.k.now(), t_cpu, || TraceEvent::TxnCommitOk {
                    cpu: t_cpu,
                    tid: t_tid,
                });
        }
        self.stats.txns_committed += self.scratch.provisional.len() as u64;
    }

    /// Funnels one failed transaction through the rejection bookkeeping:
    /// the legacy wire-status counters and tracepoints, the typed
    /// [`AbiError`] counter, the `ghost_abi_reject` tracepoint, and — for
    /// byzantine-classified errors — a strike against the enclave (the
    /// driver checks the budget when the activation ends). No rejected
    /// commit is ever dropped silently.
    fn reject_txn(&mut self, err: AbiError, cpu: u16, tid: u32) {
        let status = err.txn_status();
        self.count_failure(status);
        self.trace_failure(status, cpu, tid);
        self.stats.abi_rejects[err.kind()] += 1;
        self.enclave.abi_rejects += 1;
        // Emitted on the agent's CPU: the target CPU may be forged (the
        // recorder clamps out-of-range ids, but attribution to a real CPU
        // is more useful than a clamp artifact).
        let acpu = self.agent_cpu.0;
        self.k
            .trace()
            .emit(self.k.now(), acpu, || TraceEvent::AbiReject {
                cpu: acpu,
                kind: err.kind() as u8,
            });
        if err.byzantine() {
            self.enclave.abi_strikes += 1;
        }
    }

    fn count_failure(&mut self, status: TxnStatus) {
        match status {
            TxnStatus::Stale => self.stats.txns_stale += 1,
            TxnStatus::TargetNotRunnable => self.stats.txns_not_runnable += 1,
            TxnStatus::UnknownTarget => self.stats.txns_unknown_target += 1,
            TxnStatus::CpuBusy => self.stats.txns_cpu_busy += 1,
            TxnStatus::CpuUnavailable => self.stats.txns_cpu_unavailable += 1,
            TxnStatus::Aborted => self.stats.txns_aborted += 1,
            TxnStatus::Committed | TxnStatus::Pending => {}
        }
    }

    /// Traces a failed commit: `ESTALE` keeps its own tracepoint (the
    /// paper's headline failure mode); every other loss is a commit race.
    fn trace_failure(&mut self, status: TxnStatus, cpu: u16, tid: u32) {
        match status {
            TxnStatus::Stale => {
                self.k
                    .trace()
                    .emit(self.k.now(), cpu, || TraceEvent::TxnCommitEstale {
                        cpu,
                        tid,
                    });
            }
            TxnStatus::TargetNotRunnable
            | TxnStatus::UnknownTarget
            | TxnStatus::CpuBusy
            | TxnStatus::CpuUnavailable
            | TxnStatus::Aborted => {
                self.k
                    .trace()
                    .emit(self.k.now(), cpu, || TraceEvent::TxnCommitRace { cpu, tid });
            }
            TxnStatus::Committed | TxnStatus::Pending => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The kernel scheduling class.
// ---------------------------------------------------------------------------

/// The ghOSt scheduling class (kernel side).
pub struct GhostClass {
    shared: Arc<Mutex<Core>>,
}

impl GhostClass {
    fn rt(&self) -> GhostRuntime {
        GhostRuntime {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl SchedClass for GhostClass {
    fn name(&self) -> &'static str {
        "ghost"
    }

    fn enqueue(&mut self, tid: Tid, k: &mut KernelState) -> Option<CpuId> {
        self.rt().hook_enqueue(k, tid)
    }

    fn dequeue(&mut self, tid: Tid, k: &mut KernelState) {
        self.rt().hook_dequeue(k, tid)
    }

    fn pick_next(&mut self, cpu: CpuId, k: &mut KernelState) -> Option<Tid> {
        self.rt().hook_pick_next(k, cpu)
    }

    fn put_prev(&mut self, tid: Tid, cpu: CpuId, _still_runnable: bool, k: &mut KernelState) {
        // `offcpu_reason` is DES bookkeeping, not backend surface: read
        // it here, in the adapter, and pass it explicitly.
        let reason = k.offcpu_reason;
        self.rt().hook_put_prev(k, tid, cpu, reason)
    }

    fn on_tick(&mut self, _cpu: CpuId, _current: Tid, _k: &mut KernelState) -> bool {
        // Agents drive all preemption decisions; the kernel class never
        // preempts on its own.
        false
    }

    fn on_tick_all(&mut self, cpu: CpuId, k: &mut KernelState) {
        self.rt().hook_tick(k, cpu)
    }

    fn has_runnable(&self, cpu: CpuId, k: &KernelState) -> bool {
        self.rt().hook_has_runnable(k, cpu)
    }

    fn on_attach(&mut self, tid: Tid, k: &mut KernelState) {
        self.rt().hook_attach(k, tid)
    }

    fn on_detach(&mut self, tid: Tid, k: &mut KernelState) {
        self.rt().hook_detach(k, tid)
    }

    fn on_affinity_changed(&mut self, tid: Tid, k: &mut KernelState) {
        self.rt().hook_affinity_changed(k, tid)
    }
}

/// Scheduling-event entry points, generic over the backend.
///
/// The DES kernel reaches these through the [`GhostClass`] /
/// [`GhostDriver`] adapters above; a live backend (`ghost-live`) calls
/// them directly when real threads block, wake, tick, or get picked.
impl GhostRuntime {
    /// A thread became runnable (`THREAD_WAKEUP`).
    pub fn hook_enqueue(&self, k: &mut dyn GhostBackend, tid: Tid) -> Option<CpuId> {
        // A ghOSt thread became runnable: no kernel runqueue — tell the
        // agent instead (THREAD_WAKEUP).
        let mut core = self.shared.lock().unwrap();
        if let Some(&eid) = core.thread_enclave.get(tid) {
            let cpu = k.thread(tid).last_cpu.unwrap_or(CpuId(0));
            if let Some(enclave) = core.enclave_mut(eid) {
                if let Some(info) = enclave.threads.get(tid) {
                    info.status.set_flags(SW_RUNNABLE);
                }
            }
            core.post(k, eid, MsgType::ThreadWakeup, Some(tid), cpu);
        }
        None
    }

    /// A runnable thread left the class (kill or class move).
    pub fn hook_dequeue(&self, _k: &mut dyn GhostBackend, tid: Tid) {
        // Runnable thread leaving the class (kill or class move): drop
        // any committed slot or PNT offer referencing it.
        let mut core = self.shared.lock().unwrap();
        if let Some(&eid) = core.thread_enclave.get(tid) {
            if let Some(enclave) = core.enclave_mut(eid) {
                enclave.committed.retain(|_, slot| slot.tid != tid);
                if let Some(pnt) = &mut enclave.pnt {
                    pnt.revoke(tid);
                }
                if let Some(info) = enclave.threads.get_mut(tid) {
                    info.picked = false;
                }
            }
        }
    }

    /// The backend asks what to run on an idle `cpu` (committed slot
    /// or PNT fast path).
    pub fn hook_pick_next(&self, k: &mut dyn GhostBackend, cpu: CpuId) -> Option<Tid> {
        let mut core = self.shared.lock().unwrap();
        let eid = core.enclave_of_cpu(cpu)?;
        let now = k.now();
        let node = k.topo().info(cpu).socket as usize;
        let enclave = core.enclave_mut(eid)?;
        if enclave.destroyed {
            return None;
        }
        // Committed transaction for this CPU?
        if let Some(slot) = enclave.committed.get(cpu).copied() {
            if slot.arm_at <= now {
                enclave.committed.remove(cpu);
                if let Some(info) = enclave.threads.get_mut(slot.tid) {
                    info.picked = false;
                }
                if k.thread(slot.tid).state == ThreadState::Runnable
                    && k.thread(slot.tid).affinity.contains(cpu)
                {
                    if let Some(info) = enclave.threads.get(slot.tid) {
                        info.status
                            .publish(|s, f| (s, (f | SW_ONCPU) & !SW_RUNNABLE));
                    }
                    return Some(slot.tid);
                }
                // Slot target went away between commit and pick: fall
                // through (maybe PNT has something).
            } else {
                // The commit's IPI has not logically arrived yet.
                return None;
            }
        }
        // BPF pick_next_task fast path.
        if enclave.pnt.is_some() {
            loop {
                let Some(cand) = enclave.pnt.as_mut().and_then(|p| p.pop_for(node)) else {
                    k.trace()
                        .emit(now, cpu.0, || TraceEvent::PntMiss { cpu: cpu.0 });
                    return None;
                };
                let ok = enclave.threads.get(cand).is_some_and(|i| !i.picked)
                    && k.thread(cand).state == ThreadState::Runnable
                    && k.thread(cand).affinity.contains(cpu);
                if ok {
                    if let Some(info) = enclave.threads.get(cand) {
                        info.status
                            .publish(|s, f| (s, (f | SW_ONCPU) & !SW_RUNNABLE));
                    }
                    core.stats.pnt_picks += 1;
                    k.trace().emit(now, cpu.0, || TraceEvent::PntHit {
                        cpu: cpu.0,
                        tid: cand.0,
                    });
                    return Some(cand);
                }
            }
        }
        None
    }

    /// A thread came off `cpu` for `reason`.
    pub fn hook_put_prev(
        &self,
        k: &mut dyn GhostBackend,
        tid: Tid,
        cpu: CpuId,
        reason: OffCpuReason,
    ) {
        let mut core = self.shared.lock().unwrap();
        let Some(&eid) = core.thread_enclave.get(tid) else {
            return;
        };
        let ty = match reason {
            OffCpuReason::Preempt => MsgType::ThreadPreempted,
            OffCpuReason::Yield => MsgType::ThreadYield,
            OffCpuReason::Block => MsgType::ThreadBlocked,
            OffCpuReason::Exit => MsgType::ThreadDead,
        };
        if let Some(enclave) = core.enclave_mut(eid) {
            if let Some(info) = enclave.threads.get(tid) {
                let runnable = matches!(reason, OffCpuReason::Preempt | OffCpuReason::Yield);
                info.status.publish(|s, f| {
                    let f = f & !SW_ONCPU;
                    (
                        s,
                        if runnable {
                            f | SW_RUNNABLE
                        } else {
                            f & !SW_RUNNABLE
                        },
                    )
                });
            }
        }
        core.post(k, eid, ty, Some(tid), cpu);
        if reason == OffCpuReason::Exit {
            // Registry cleanup happens in on_detach; drop the mapping so
            // the detach path does not double-post THREAD_DEAD.
            if let Some(enclave) = core.enclave_mut(eid) {
                enclave.threads.remove(tid);
            }
            core.thread_enclave.remove(tid);
        }
    }

    /// Timer tick on `cpu` (`CPU_TICK` delivery).
    pub fn hook_tick(&self, k: &mut dyn GhostBackend, cpu: CpuId) {
        let mut core = self.shared.lock().unwrap();
        let Some(eid) = core.enclave_of_cpu(cpu) else {
            return;
        };
        let deliver = core.enclaves[eid.0 as usize]
            .as_ref()
            .is_some_and(|e| !e.destroyed && e.config.deliver_ticks);
        if deliver {
            core.post(k, eid, MsgType::TimerTick, None, cpu);
        }
    }

    /// True if the enclave owning `cpu` has anything it could run.
    pub fn hook_has_runnable(&self, k: &dyn GhostBackend, cpu: CpuId) -> bool {
        let core = self.shared.lock().unwrap();
        let Some(eid) = core.cpu_enclave[cpu.index()] else {
            return false;
        };
        core.enclaves[eid.0 as usize].as_ref().is_some_and(|e| {
            e.committed.contains(cpu)
                || e.pnt.as_ref().is_some_and(|p| !p.is_empty())
                || e.threads
                    .tids()
                    .any(|t| k.thread(t).state == ThreadState::Runnable)
        })
    }

    /// A thread entered the ghOSt class (`THREAD_CREATED` / reclaim).
    pub fn hook_attach(&self, k: &mut dyn GhostBackend, tid: Tid) {
        let mut core = self.shared.lock().unwrap();
        let Some(eid) = core.pending_attach.remove(tid) else {
            panic!(
                "thread {tid} moved into the ghOSt class without an enclave; \
                 use EnclaveHandle::attach_thread"
            );
        };
        core.thread_enclave.insert(tid, eid);
        let Some(enclave) = core.enclave_mut(eid) else {
            return;
        };
        if enclave.destroyed {
            // The enclave died between the attach request and the class
            // move landing: send the thread straight back to CFS.
            core.thread_enclave.remove(tid);
            k.move_to_class(tid, CLASS_CFS);
            return;
        }
        // Reclaim path: a degraded thread returning from its transient
        // CFS excursion gets its preserved `ThreadInfo` back — `Tseq`
        // stays monotone, the status word survives — and posts no
        // `THREAD_CREATED`: the standby's status-word scan absorbs it.
        if let Some(rec) = enclave.recovery.as_mut() {
            if let Some(info) = rec.stashed.remove(tid) {
                let state = k.thread(tid).state;
                info.status.publish(|s, f| {
                    let mut f = f & !(SW_ONCPU | SW_RUNNABLE);
                    match state {
                        ThreadState::Runnable => f |= SW_RUNNABLE,
                        ThreadState::Running => f |= SW_ONCPU,
                        _ => {}
                    }
                    (s, f)
                });
                enclave.threads.insert(tid, info);
                let cpu = k.thread(tid).last_cpu.unwrap_or(CpuId(0));
                k.trace()
                    .emit(k.now(), cpu.0, || TraceEvent::ThreadReclaimed {
                        enclave: eid.0,
                        tid: tid.0,
                    });
                return;
            }
        }
        let status = StatusWord::new();
        status.set_flags(SW_ATTACHED);
        let default_q = enclave.default_queue;
        enclave.threads.insert(
            tid,
            ThreadInfo {
                queue: default_q,
                tseq: 0,
                pending_msgs: 0,
                status,
                picked: false,
            },
        );
        let cpu = k.thread(tid).last_cpu.unwrap_or(CpuId(0));
        core.post(k, eid, MsgType::ThreadCreated, Some(tid), cpu);
    }

    /// A thread left the ghOSt class (`THREAD_DEAD` to the policy).
    pub fn hook_detach(&self, k: &mut dyn GhostBackend, tid: Tid) {
        let mut core = self.shared.lock().unwrap();
        let Some(eid) = core.thread_enclave.remove(tid) else {
            return; // Already cleaned (death path).
        };
        let cpu = k.thread(tid).last_cpu.unwrap_or(CpuId(0));
        if let Some(enclave) = core.enclave_mut(eid) {
            enclave.committed.retain(|_, slot| slot.tid != tid);
            if let Some(pnt) = &mut enclave.pnt {
                pnt.revoke(tid);
            }
        }
        // Departure is indistinguishable from death for the policy.
        core.post(k, eid, MsgType::ThreadDead, Some(tid), cpu);
        if let Some(enclave) = core.enclave_mut(eid) {
            enclave.threads.remove(tid);
            enclave.hints.remove(tid);
        }
    }

    /// A thread's affinity mask changed (`THREAD_AFFINITY`).
    pub fn hook_affinity_changed(&self, k: &mut dyn GhostBackend, tid: Tid) {
        let mut core = self.shared.lock().unwrap();
        let Some(&eid) = core.thread_enclave.get(tid) else {
            return;
        };
        let cpu = k.thread(tid).last_cpu.unwrap_or(CpuId(0));
        // Invalidate a committed slot the new mask forbids.
        if let Some(enclave) = core.enclave_mut(eid) {
            let affinity = k.thread(tid).affinity;
            let stale: Vec<CpuId> = enclave
                .committed
                .iter()
                .filter(|&(c, slot)| slot.tid == tid && !affinity.contains(c))
                .map(|(c, _)| c)
                .collect();
            for c in stale {
                enclave.committed.remove(c);
                if let Some(info) = enclave.threads.get_mut(tid) {
                    info.picked = false;
                }
            }
        }
        core.post(k, eid, MsgType::ThreadAffinity, Some(tid), cpu);
    }
}

// ---------------------------------------------------------------------------
// The agent driver.
// ---------------------------------------------------------------------------

/// Runs agent activations (the `AgentDriver` plugged into the kernel).
pub struct GhostDriver {
    shared: Arc<Mutex<Core>>,
}

/// Agent-driver entry points, generic over the backend.
impl GhostRuntime {
    /// One activation: drain the queue feeding this agent, feed messages
    /// and a schedule() call to the policy, return the outcome.
    fn activate(
        core: &mut Core,
        k: &mut dyn GhostBackend,
        eid: EnclaveId,
        agent_tid: Tid,
        agent_cpu: CpuId,
        qids: &[QueueId],
        spinning: bool,
    ) -> AgentOutcome {
        let mut policy = match core.policies[eid.0 as usize].take() {
            Some(p) => p,
            None => return AgentOutcome::Block { busy: 0 },
        };
        let Some(enclave) = core.enclaves[eid.0 as usize].as_mut() else {
            core.policies[eid.0 as usize] = Some(policy);
            return AgentOutcome::Block { busy: 0 };
        };
        enclave.loop_armed = false;
        // Core-lending notifications staged by lend/reclaim, delivered at
        // the next activation (empty on every non-lending run, so digests
        // of single-enclave scenarios are untouched).
        let grants = std::mem::take(&mut enclave.pending_grants);
        let revokes = std::mem::take(&mut enclave.pending_revokes);
        let aseq = enclave.agents.get(agent_cpu).map_or(0, |a| a.status.seq());
        k.trace()
            .emit(k.now(), agent_cpu.0, || TraceEvent::AgentActivationBegin {
                cpu: agent_cpu.0,
                agent_tid: agent_tid.0,
                aseq,
            });
        let mut msgs = std::mem::take(&mut core.drain_buf);
        msgs.clear();
        for &qid in qids {
            let start = msgs.len();
            enclave.drain_queue_into(qid, &mut msgs);
            if k.trace().is_enabled() {
                for m in &msgs[start..] {
                    k.trace()
                        .emit(k.now(), agent_cpu.0, || TraceEvent::MsgDequeued {
                            queue: qid.0,
                            ty: GhostStats::msg_idx(m.ty) as u8,
                            tid: m.tid.0,
                            seq: m.seq,
                        });
                }
            }
        }
        // §3.4 state reconstruction: an incoming agent (staged upgrade or
        // respawned standby) rebuilds its view by scanning the enclave's
        // status-word table before consuming any message. The scan runs
        // under the Aseq barrier raised at promotion time, so commits
        // prepared against the predecessor's view fail `ESTALE`; stale
        // in-flight messages are discarded downstream by seqnum.
        let scan: Option<Vec<ThreadSnapshot>> = if enclave.needs_reconstruct {
            enclave.needs_reconstruct = false;
            let mut snaps: Vec<ThreadSnapshot> = enclave
                .threads
                .iter()
                .map(|(t, info)| {
                    let th = &k.thread(t);
                    ThreadSnapshot {
                        tid: t,
                        seq: info.status.seq(),
                        runnable: info.status.has_flags(SW_RUNNABLE),
                        on_cpu: info.status.has_flags(SW_ONCPU),
                        last_cpu: th.last_cpu.unwrap_or(CpuId(0)),
                        cookie: th.cookie,
                    }
                })
                .collect();
            // Deterministic scan order (the slab iterates in handle order).
            snaps.sort_by_key(|s| s.tid.0);
            Some(snaps)
        } else {
            None
        };
        let smt_scale = k.sibling_busy(agent_cpu);
        let mut ctx = PolicyCtx {
            k,
            enclave,
            stats: &mut core.stats,
            agent_cpu,
            agent_tid,
            busy: 0,
            smt_scale,
            wakeup_request: None,
            scratch: &mut core.commit_scratch,
        };
        ctx.stats.activations += 1;
        if msgs.is_empty() {
            ctx.stats.empty_activations += 1;
        }
        if let Some(snaps) = &scan {
            let cost = ctx.k.costs().reconstruction_scan(snaps.len() as u64);
            ctx.charge(cost);
            policy.on_reconstruct(snaps, &mut ctx);
            ctx.stats.reconstructions += 1;
            let threads = snaps.len() as u32;
            let at = ctx.k.now() + ctx.busy;
            ctx.k
                .trace()
                .emit(at, agent_cpu.0, || TraceEvent::ReconstructDone {
                    enclave: eid.0,
                    threads,
                    agent_tid: agent_tid.0,
                });
        }
        // Revokes before grants: a policy must stop targeting a departed
        // CPU before it starts placing work on a fresh one.
        for cpu in revokes {
            policy.on_cpu_revoke(cpu, &mut ctx);
        }
        for cpu in grants {
            policy.on_cpu_grant(cpu, &mut ctx);
        }
        let dequeue = ctx.k.costs().msg_dequeue;
        for m in &msgs {
            // Consuming a message posted by a remote-socket CPU drags the
            // queue slot and status-word cachelines across the
            // interconnect.
            let cost = if ctx.k.topo().same_socket(m.cpu, agent_cpu) {
                dequeue
            } else {
                ctx.k.costs().cross_socket_scaled(dequeue)
            };
            ctx.charge(cost);
            policy.on_msg(m, &mut ctx);
        }
        policy.schedule(&mut ctx);
        let busy = ctx.busy;
        let wakeup = ctx.wakeup_request;
        ctx.stats.agent_busy_ns += busy;
        core.policies[eid.0 as usize] = Some(policy);
        if scan.is_some() {
            // A reconstruction just ran; if no stashed thread or pending
            // respawn remains, the degraded-mode failover is complete.
            if let Some(e) = core.enclaves[eid.0 as usize].as_mut() {
                let finished = e
                    .recovery
                    .as_ref()
                    .is_some_and(|r| r.stashed.is_empty() && r.pending_cpus.is_empty());
                if finished {
                    e.recovery = None;
                    core.stats.recoveries += 1;
                }
            }
        }
        // Byzantine strike budget: commits rejected during this activation
        // charged strikes inline (`reject_txn`); if the budget is now
        // exhausted, quarantine the enclave. All teardown side effects go
        // through the kernel's deferred-op buffers, so destroying the
        // enclave — and killing the very agent being activated — is safe
        // from inside its own activation.
        let quarantine = core.enclaves[eid.0 as usize].as_ref().is_some_and(|e| {
            !e.destroyed
                && e.config
                    .abi_strike_budget
                    .is_some_and(|budget| e.abi_strikes >= budget)
        });
        if quarantine {
            core.quarantine(k, eid);
        }
        k.trace().emit(k.now() + busy, agent_cpu.0, || {
            TraceEvent::AgentActivationEnd {
                cpu: agent_cpu.0,
                agent_tid: agent_tid.0,
                msgs: msgs.len() as u32,
            }
        });
        core.drain_buf = msgs;
        if spinning {
            let next = wakeup.map(|at| at.max(k.now() + busy));
            AgentOutcome::Spin { busy, next }
        } else {
            AgentOutcome::Block { busy }
        }
    }

    /// Fires when a degraded enclave's respawn backoff expires: spawn a
    /// standby agent pthread on the dead agent's CPU, wire it in for the
    /// enclave's mode, flag a status-word reconstruction, and reclaim the
    /// stashed threads from their transient CFS excursion.
    fn handle_respawn(&self, eid: EnclaveId, k: &mut dyn GhostBackend) {
        let mut core = self.shared.lock().unwrap();
        let core = &mut *core;
        let Some(enclave) = core.enclaves[eid.0 as usize].as_mut() else {
            return;
        };
        if enclave.destroyed {
            return;
        }
        // Pop the next pending CPU that is still in the partition — a CPU
        // lent out (or reclaimed to its lender) between agent death and
        // backoff expiry must not get a standby spawned on it.
        let mut next_cpu = None;
        if let Some(r) = enclave.recovery.as_mut() {
            while !r.pending_cpus.is_empty() {
                let c = r.pending_cpus.remove(0);
                if enclave.cpus.contains(c) {
                    next_cpu = Some(c);
                    break;
                }
            }
        }
        let Some(cpu) = next_cpu else {
            // Every pending CPU left the partition under a lease. If no
            // threads are stashed, recovery is simply over; otherwise
            // reclaim them through the surviving agents so the enclave
            // is never wedged waiting on a CPU it no longer owns.
            let has_stashed = enclave
                .recovery
                .as_ref()
                .is_some_and(|r| !r.stashed.is_empty());
            if !has_stashed {
                enclave.recovery = None;
                return;
            }
            core.reclaim_stashed(k, eid);
            core.notify_agents(k, eid);
            return;
        };
        enclave.respawn_attempts += 1;
        core.stats.respawns += 1;
        let tid = core.install_agent(k, eid, cpu, "standby");
        let enclave = core.enclaves[eid.0 as usize]
            .as_mut()
            .expect("checked above");
        match enclave.config.mode {
            AgentMode::Centralized => {
                if enclave.global_agent.is_none() {
                    enclave.global_agent = Some(tid);
                }
            }
            AgentMode::PerCpu => {
                // The respawned agent serves its CPU's queue again — and
                // adopts the default queue if its owner died with it.
                if let Some(&qid) = enclave.cpu_queues.get(cpu) {
                    if let Some(Some(qs)) = enclave.queues.get_mut(qid.0 as usize) {
                        qs.wake = WakeMode::WakeAgent(tid);
                    }
                }
                let dq = enclave.default_queue;
                if let Some(Some(qs)) = enclave.queues.get_mut(dq.0 as usize) {
                    if let WakeMode::WakeAgent(owner) = qs.wake {
                        if !core.agent_enclave.contains(owner) {
                            qs.wake = WakeMode::WakeAgent(tid);
                        }
                    }
                }
            }
            AgentMode::PerCore => {
                enclave.core_active.insert(core_key_of(k, cpu), tid);
            }
        }
        // A fresh policy process, when a factory is registered; either way
        // the incoming agent reconstructs from status words and gets
        // watchdog grace for the backlog it inherits.
        if let Some(factory) = core.standby_factories[eid.0 as usize].as_ref() {
            core.policies[eid.0 as usize] = Some(factory());
        }
        core.reclaim_stashed(k, eid);
        k.wake(tid);
    }
}

impl GhostRuntime {
    /// One agent activation on `cpu` (the backend's `run_agent` hook).
    pub fn hook_run_agent(&self, k: &mut dyn GhostBackend, tid: Tid, cpu: CpuId) -> AgentOutcome {
        let mut core = self.shared.lock().unwrap();
        let core = &mut *core;
        let Some(&(eid, agent_cpu)) = core.agent_enclave.get(tid) else {
            return AgentOutcome::Block { busy: 0 };
        };
        debug_assert_eq!(cpu, agent_cpu, "agents are pinned");
        let Some(enclave) = core.enclaves[eid.0 as usize].as_ref() else {
            return AgentOutcome::Block { busy: 0 };
        };
        if enclave.destroyed {
            return AgentOutcome::Block { busy: 0 };
        }
        // A hang fault window: the agent occupies its CPU doing no
        // scheduling work until the window closes (a wedged agent, §3.4 —
        // the watchdog is the backstop if the hang outlasts its timeout).
        if let Some(until) = k.fault_agent_hang_until(cpu) {
            return AgentOutcome::Spin {
                busy: until.saturating_sub(k.now()),
                next: Some(until),
            };
        }
        let outcome = match enclave.config.mode {
            AgentMode::Centralized => {
                if enclave.global_agent != Some(tid) {
                    // Inactive agents immediately vacate their CPUs.
                    return AgentOutcome::Block { busy: 0 };
                }
                // Hot handoff: a CFS thread wants this CPU (§3.3).
                if k.cpu(cpu).cfs_queued > 0 {
                    let successor = enclave
                        .cpus
                        .iter()
                        .filter(|&c| c != cpu)
                        .find(|&c| k.cpu(c).is_idle())
                        .and_then(|c| enclave.agents.get(c).map(|a| a.tid));
                    if let Some(succ) = successor {
                        let enclave = core.enclaves[eid.0 as usize].as_mut().expect("alive");
                        enclave.global_agent = Some(succ);
                        core.stats.handoffs += 1;
                        k.wake(succ);
                        return AgentOutcome::Block { busy: 0 };
                    }
                    // No idle CPU to hand off to: keep spinning (the
                    // paper's agent also stays if it cannot find one).
                }
                let qid = enclave.default_queue;
                Self::activate(core, k, eid, tid, agent_cpu, &[qid], true)
            }
            AgentMode::PerCpu => {
                // An agent drains its own CPU's queue; the agent that the
                // default queue wakes also owns new-thread traffic on it
                // (and redistributes via ASSOCIATE_QUEUE).
                let default_q = enclave.default_queue;
                let drains_default = matches!(
                    enclave.queues.get(default_q.0 as usize),
                    Some(Some(qs)) if qs.wake == WakeMode::WakeAgent(tid)
                );
                let own = enclave.queue_for_cpu(agent_cpu);
                let qids: [QueueId; 2] = [default_q, own];
                let qids: &[QueueId] = if drains_default && own != default_q {
                    &qids
                } else if drains_default {
                    &qids[..1]
                } else {
                    &qids[1..]
                };
                Self::activate(core, k, eid, tid, agent_cpu, qids, false)
            }
            AgentMode::PerCore => {
                let key = core_key_of(k, agent_cpu);
                if enclave.core_active.get(key) != Some(&tid) {
                    return AgentOutcome::Block { busy: 0 };
                }
                // Drain the shared default queue (new-thread traffic)
                // plus this core's own queue.
                let default_q = enclave.default_queue;
                let own = enclave.queue_for_cpu(agent_cpu);
                let qids: [QueueId; 2] = [default_q, own];
                let qids: &[QueueId] = if own == default_q { &qids[..1] } else { &qids };
                Self::activate(core, k, eid, tid, agent_cpu, qids, false)
            }
        };
        // A slow-resume fault window stretches the activation's charged
        // time (a GC pause or fault storm in the agent process).
        let factor = k.fault_agent_slow_factor(cpu);
        if factor <= 1 {
            return outcome;
        }
        match outcome {
            AgentOutcome::Spin { busy, next } => AgentOutcome::Spin {
                busy: busy.saturating_mul(factor),
                next,
            },
            AgentOutcome::Block { busy } => AgentOutcome::Block {
                busy: busy.saturating_mul(factor),
            },
            AgentOutcome::Yield { busy } => AgentOutcome::Yield {
                busy: busy.saturating_mul(factor),
            },
        }
    }

    /// A driver timer fired (watchdog scan, respawn backoff, lease
    /// deadline, or resource-manager epoch).
    pub fn hook_timer(&self, k: &mut dyn GhostBackend, key: u64) {
        if key & RESPAWN_TIMER_FLAG != 0 {
            // A standby-respawn timer from degraded-mode failover.
            self.handle_respawn(EnclaveId((key & !RESPAWN_TIMER_FLAG) as u32), k);
            return;
        }
        if key & LEASE_TIMER_FLAG != 0 {
            // A lease deadline: kernel-enforced, fires whether or not the
            // RM that negotiated the lease is still alive.
            let (cpu, seq) = decode_lease_timer_key(key);
            self.handle_lease_expiry(k, cpu, seq);
            return;
        }
        if key & RM_TIMER_FLAG != 0 {
            // A resource-manager epoch tick (low bits carry the RM
            // incarnation, for staleness detection after a crash).
            self.handle_rm_tick(k, key & !RM_TIMER_FLAG);
            return;
        }
        // Watchdog scan for enclave `key` (§3.4): a runnable ghOSt thread
        // left unscheduled for longer than the timeout means the agent is
        // misbehaving. Starvation is measured from the last in-place
        // upgrade, if any: a freshly promoted policy inherits its
        // predecessor's backlog and must not be reaped for it.
        let eid = EnclaveId(key as u32);
        let (timeout, starved, has_staged) = {
            let core = self.shared.lock().unwrap();
            let Some(enclave) = core.enclaves[eid.0 as usize].as_ref() else {
                return;
            };
            if enclave.destroyed {
                return;
            }
            let Some(timeout) = enclave.config.watchdog_timeout else {
                return;
            };
            let grace_from = enclave.upgraded_at.unwrap_or(0);
            let starved = enclave.threads.tids().any(|t| {
                let th = &k.thread(t);
                th.state == ThreadState::Runnable
                    && k.now().saturating_sub(th.runnable_since.max(grace_from)) > timeout
            });
            (timeout, starved, core.staged[eid.0 as usize].is_some())
        };
        if starved && has_staged {
            // A replacement is already staged: promote it in place rather
            // than destroying the enclave the handoff is about to fix.
            let _ = self.handle(eid).try_upgrade_now(k);
            k.arm_driver_timer(k.now() + timeout / 2, key);
        } else if starved {
            let mut core = self.shared.lock().unwrap();
            core.stats.watchdog_destroys += 1;
            k.trace()
                .emit(k.now(), 0, || TraceEvent::WatchdogFired { enclave: eid.0 });
            core.destroy_enclave(k, eid);
        } else {
            k.arm_driver_timer(k.now() + timeout / 2, key);
        }
    }

    /// A lease deadline fired: force the CPU back to its lender. Stale
    /// timers (lease already returned, or the CPU re-lent under a newer
    /// grant) are recognised by sequence number and no-op.
    fn handle_lease_expiry(&self, k: &mut dyn GhostBackend, cpu: CpuId, seq: u64) {
        let mut core = self.shared.lock().unwrap();
        let live = core.leases.on_cpu(cpu).is_some_and(|l| l.seq == seq);
        if live {
            core.end_lease(k, cpu, RevokeReason::Expired);
        }
    }

    /// One resource-manager epoch: gather per-enclave health, run the
    /// decision loop, execute the outcome, re-arm. Ticks carrying a
    /// stale incarnation token (from a pre-crash RM) are dropped.
    fn handle_rm_tick(&self, k: &mut dyn GhostBackend, token: u64) {
        let mut core = self.shared.lock().unwrap();
        let core = &mut *core;
        let Some((config, protected, donor)) = core
            .rm
            .as_ref()
            .filter(|rm| rm.incarnation == token)
            .map(|rm| (rm.config, rm.protected, rm.donor))
        else {
            return;
        };
        let p_total = core.enclave_rejects(protected);
        let d_total = core.enclave_rejects(donor);
        let p_backlog = core.backlog(k, protected);
        let d_backlog = core.backlog(k, donor);
        let alive_of = |core: &Core, eid: EnclaveId| {
            core.enclaves
                .get(eid.0 as usize)
                .and_then(|s| s.as_ref())
                .is_some_and(|e| !e.destroyed)
        };
        let p_alive = alive_of(core, protected);
        let d_alive = alive_of(core, donor);
        let borrowed = core.leases.borrowed_by(protected).len();
        let donor_spare = core
            .enclaves
            .get(donor.0 as usize)
            .and_then(|s| s.as_ref())
            .map_or(0, |e| e.cpus.iter().count().saturating_sub(1));
        let decision = {
            let rm = core.rm.as_mut().expect("checked above");
            let p_last = rm.last_rejects[0].1;
            let d_last = rm.last_rejects[1].1;
            rm.last_rejects = [(protected, p_total), (donor, d_total)];
            rm.decide(
                EnclaveHealth {
                    backlog: p_backlog,
                    reject_delta: p_total.saturating_sub(p_last),
                    alive: p_alive,
                },
                EnclaveHealth {
                    backlog: d_backlog,
                    reject_delta: d_total.saturating_sub(d_last),
                    alive: d_alive,
                },
                borrowed,
                donor_spare,
            )
        };
        match decision {
            RmDecision::Hold => {}
            RmDecision::Borrow => {
                if let Some(cpu) = core.borrowable_cpu(donor) {
                    // A rejection here (e.g. the donor shrank under us)
                    // is benign: the RM re-evaluates next epoch.
                    let _ = core.try_lend(k, donor, protected, cpu, config.lease_duration);
                }
            }
            RmDecision::Return => {
                if let Some(&cpu) = core.leases.borrowed_by(protected).first() {
                    core.end_lease(k, cpu, RevokeReason::Returned);
                }
            }
            RmDecision::Quarantine(eid) => {
                core.quarantine(k, eid);
            }
        }
        k.arm_driver_timer(k.now() + config.epoch, RM_TIMER_FLAG | token);
    }

    /// An injected fault arrived (only `Upgrade` is interpreted).
    pub fn hook_fault(&self, k: &mut dyn GhostBackend, fault: &FaultKind) {
        // The only fault the runtime interprets itself: an in-place
        // upgrade promotes whatever policy is staged on each enclave
        // (no-op where nothing is staged).
        if !matches!(fault, FaultKind::Upgrade) {
            return;
        }
        let eids: Vec<EnclaveId> = {
            let core = self.shared.lock().unwrap();
            (0..core.enclaves.len() as u32)
                .map(EnclaveId)
                .filter(|eid| core.staged[eid.0 as usize].is_some())
                .collect()
        };
        for eid in eids {
            let _ = self.handle(eid).try_upgrade_now(k);
        }
    }

    /// An agent pthread died (crash path, §3.4).
    pub fn hook_agent_killed(&self, k: &mut dyn GhostBackend, tid: Tid) {
        // Agent crash (§3.4). In order of preference: promote a staged
        // policy in place; run degraded-mode failover if a standby is
        // configured; fall back to CFS — for the whole enclave only when
        // the crash actually takes out its scheduling capacity, at
        // per-CPU granularity when peers survive.
        let (eid, cpu) = {
            let mut core = self.shared.lock().unwrap();
            let Some((eid, cpu)) = core.agent_enclave.remove(tid) else {
                return;
            };
            (eid, cpu)
        };
        let has_staged = self.shared.lock().unwrap().staged[eid.0 as usize].is_some();
        if has_staged {
            // In-place upgrade: the staged policy takes over; the dead
            // agent's pthread is respawned by reusing a surviving agent
            // as global (centralized) or leaving per-CPU peers in place.
            let _ = self.handle(eid).try_upgrade_now(k);
            let mut core = self.shared.lock().unwrap();
            if let Some(enclave) = core.enclave_mut(eid) {
                enclave.agents.remove(cpu);
                if enclave.global_agent == Some(tid) {
                    // Deterministic successor: the lowest-CPU survivor,
                    // not whatever the agent map yields first.
                    let succ = enclave
                        .agents
                        .values()
                        .min_by_key(|a| a.cpu.0)
                        .map(|a| a.tid);
                    enclave.global_agent = succ;
                    if let Some(s) = succ {
                        k.wake(s);
                    }
                }
            }
        } else {
            let mut core = self.shared.lock().unwrap();
            let core = &mut *core;
            let Some(enclave) = core.enclaves[eid.0 as usize].as_mut() else {
                return;
            };
            if enclave.destroyed {
                return;
            }
            enclave.agents.remove(cpu);
            let was_global = enclave.global_agent == Some(tid);
            if was_global {
                enclave.global_agent = None;
                enclave.loop_armed = false;
            }
            let any_left = !enclave.agents.is_empty();
            let mode = enclave.config.mode;
            let standby = enclave.config.standby;
            if mode == AgentMode::Centralized && !was_global && any_left {
                // An inactive hot standby died; the global spinner is
                // intact and loses nothing.
                return;
            }
            if mode == AgentMode::PerCore && any_left {
                let key = core_key_of(k, cpu);
                if enclave.core_active.get(key) == Some(&tid) {
                    enclave.core_active.remove(key);
                }
                let sibling_alive = k
                    .topo()
                    .core_cpus(cpu)
                    .iter()
                    .any(|c| c != cpu && enclave.agents.contains(c));
                if sibling_alive {
                    // The SMT sibling's agent serves the whole core.
                    return;
                }
            }
            let whole = mode == AgentMode::Centralized || !any_left;
            let victims: Vec<Tid> = if whole {
                enclave.threads.sorted_tids()
            } else {
                // Threads homed to a queue the dead agent consumed: its
                // own CPU's queue, or any queue explicitly waking it (the
                // default queue, when the dead agent owned new-thread
                // traffic).
                let dead_qs: Vec<QueueId> = enclave
                    .queues
                    .iter()
                    .enumerate()
                    .filter_map(|(i, q)| match q {
                        Some(qs) if qs.wake == WakeMode::WakeAgent(tid) => Some(QueueId(i as u32)),
                        _ => None,
                    })
                    .collect();
                let cpu_q = enclave.cpu_queues.get(cpu).copied();
                let mut v: Vec<Tid> = enclave
                    .threads
                    .iter()
                    .filter(|(_, info)| Some(info.queue) == cpu_q || dead_qs.contains(&info.queue))
                    .map(|(t, _)| t)
                    .collect();
                v.sort_by_key(|t| t.0);
                v
            };
            if let Some(sc) = standby {
                core.begin_degraded_failover(k, eid, cpu, sc, victims);
            } else if whole {
                // Fault isolation: the whole enclave falls back to CFS.
                core.stats.fallbacks += 1;
                core.destroy_enclave(k, eid);
            } else {
                core.partial_fallback(k, eid, cpu, tid, victims);
            }
        }
    }
}

impl GhostDriver {
    fn rt(&self) -> GhostRuntime {
        GhostRuntime {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl AgentDriver for GhostDriver {
    fn run_agent(&mut self, tid: Tid, cpu: CpuId, k: &mut KernelState) -> AgentOutcome {
        self.rt().hook_run_agent(k, tid, cpu)
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        self.rt().hook_timer(k, key)
    }

    fn on_fault(&mut self, fault: &FaultKind, k: &mut KernelState) {
        self.rt().hook_fault(k, fault)
    }

    fn on_agent_killed(&mut self, tid: Tid, k: &mut KernelState) {
        self.rt().hook_agent_killed(k, tid)
    }
}
