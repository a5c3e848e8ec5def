//! The userspace policy interface: what scheduling policies program
//! against. This is the analogue of the paper's userspace support library
//! (3,115 LOC of C++ in Table 2).

use crate::abi::AbiError;
use crate::backend::GhostBackend;
use crate::enclave::{Enclave, QueueId, WakeMode};
use crate::msg::Message;
use ghost_sim::cpuset::CpuSet;
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::Nanos;
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::TraceEvent;

/// A snapshot of a ghOSt thread's state as an agent sees it (messages +
/// status words; agents never dereference kernel structures, §3.1).
#[derive(Debug, Clone, Copy)]
pub struct ThreadView {
    /// Thread id.
    pub tid: Tid,
    /// True if runnable and waiting for an agent decision.
    pub runnable: bool,
    /// CPU the thread is running on right now, if any.
    pub on_cpu: Option<CpuId>,
    /// Latest thread sequence number `Tseq`.
    pub tseq: u64,
    /// Last CPU the thread ran on (for locality placement).
    pub last_cpu: Option<CpuId>,
    /// Total work completed (the Search policy's min-heap key).
    pub total_runtime: Nanos,
    /// Affinity mask (delivered with `THREAD_CREATED`/`THREAD_AFFINITY`).
    pub affinity: CpuSet,
    /// Nice value.
    pub nice: i8,
    /// Grouping cookie (e.g. VM id for core scheduling).
    pub cookie: u64,
}

/// The API surface an activation exposes to the policy.
///
/// All time charged through this context ([`PolicyCtx::charge`] and the
/// implicit costs of commits) extends the agent's busy period in the
/// simulation, so expensive policies really do schedule more slowly.
pub struct PolicyCtx<'a> {
    pub(crate) k: &'a mut dyn GhostBackend,
    pub(crate) enclave: &'a mut Enclave,
    pub(crate) stats: &'a mut crate::runtime::GhostStats,
    pub(crate) agent_cpu: CpuId,
    pub(crate) agent_tid: Tid,
    pub(crate) busy: Nanos,
    pub(crate) smt_scale: bool,
    pub(crate) wakeup_request: Option<Nanos>,
    pub(crate) scratch: &'a mut crate::runtime::CommitScratch,
}

impl<'a> PolicyCtx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.k.now()
    }

    /// Machine topology.
    pub fn topo(&self) -> &Topology {
        self.k.topo()
    }

    /// The CPU this agent runs on.
    pub fn local_cpu(&self) -> CpuId {
        self.agent_cpu
    }

    /// The agent thread's id.
    pub fn agent_tid(&self) -> Tid {
        self.agent_tid
    }

    /// The enclave's CPU set.
    pub fn enclave_cpus(&self) -> CpuSet {
        self.enclave.cpus
    }

    /// CPUs in the enclave that are idle *and* have no committed
    /// transaction pending — the `GetIdleCPUs()` of the paper's Fig. 4.
    /// The global agent's own CPU is excluded.
    pub fn idle_cpus(&self) -> CpuSet {
        self.enclave
            .cpus
            .iter()
            .filter(|&c| {
                c != self.agent_cpu
                    && self.k.cpu(c).is_idle()
                    && !self.enclave.committed.contains(c)
            })
            .collect()
    }

    /// The ghOSt thread currently running on `cpu`, if any (candidates
    /// for preemptive policies such as Shinjuku). Total: a forged CPU id
    /// runs nothing.
    pub fn running_ghost(&self, cpu: CpuId) -> Option<Tid> {
        let cur = self.k.cpu_checked(cpu)?.current?;
        self.enclave.threads.contains(cur).then_some(cur)
    }

    /// True if `cpu` has a committed transaction not yet acted on.
    pub fn commit_pending(&self, cpu: CpuId) -> bool {
        self.enclave.committed.contains(cpu)
    }

    /// The thread a pending (committed, not yet picked) transaction will
    /// run on `cpu`, if any.
    pub fn pending_commit_tid(&self, cpu: CpuId) -> Option<Tid> {
        self.enclave.committed.get(cpu).map(|s| s.tid)
    }

    /// True if `cpu` is currently occupied by an agent thread (which will
    /// vacate when its activation ends — such CPUs accept commits).
    /// Total: false for a forged CPU id.
    pub fn agent_on_cpu(&self, cpu: CpuId) -> bool {
        self.k
            .cpu_checked(cpu)
            .and_then(|cs| cs.current)
            .is_some_and(|t| self.k.thread(t).kind == ghost_sim::thread::ThreadKind::Agent)
    }

    /// Number of CFS threads queued behind `cpu` (the hot-handoff
    /// pressure signal, §3.3). Total: zero for a forged CPU id.
    pub fn cfs_pressure(&self, cpu: CpuId) -> u32 {
        self.k.cpu_checked(cpu).map_or(0, |cs| cs.cfs_queued)
    }

    /// This agent's current sequence number `Aseq`, read from its status
    /// word. Committing with an `Aseq` older than the value at commit
    /// time fails with `ESTALE` (§3.2).
    pub fn agent_seq(&self) -> u64 {
        self.enclave
            .agents
            .get(self.agent_cpu)
            .map_or(0, |a| a.status.seq())
    }

    /// Snapshot of a managed thread, or `None` if it is not (or no
    /// longer) in this enclave.
    pub fn thread_view(&mut self, tid: Tid) -> Option<ThreadView> {
        let info = self.enclave.threads.get(tid)?;
        // Sync runtime so `total_runtime` reflects in-progress stints.
        let tseq = info.tseq;
        self.k.sync_runtime(tid);
        let t = &self.k.thread(tid);
        Some(ThreadView {
            tid,
            runnable: t.state == ThreadState::Runnable,
            on_cpu: if t.state == ThreadState::Running {
                t.cpu
            } else {
                None
            },
            tseq,
            last_cpu: t.last_cpu,
            total_runtime: t.total_work,
            affinity: t.affinity,
            nice: t.nice,
            cookie: t.cookie,
        })
    }

    /// Virtual time this activation has charged so far (dequeues, policy
    /// compute, commits). The activation logically occupies the agent
    /// until `now() + busy_so_far()`.
    pub fn busy_so_far(&self) -> Nanos {
        self.busy
    }

    /// Charges `ns` of policy compute time to this activation.
    pub fn charge(&mut self, ns: Nanos) {
        self.busy += if self.smt_scale {
            self.k.costs().smt_scaled(ns)
        } else {
            ns
        };
    }

    // `commit` / `commit_one` (`TXNS_COMMIT()`) are implemented in
    // `runtime.rs`, next to the kernel-side validation logic they invoke.

    /// The activation-side funnel for rejected context operations: counts
    /// the rejection by kind, fires the `ghost_abi_reject` tracepoint on
    /// the agent's CPU, and — for errors no benign race can produce —
    /// charges a byzantine strike (the driver checks the budget when this
    /// activation ends). No rejected call is dropped silently.
    fn reject(&mut self, err: AbiError) -> AbiError {
        self.stats.abi_rejects[err.kind()] += 1;
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
        err
    }

    /// Why `tid` is not a schedulable thread of this enclave: forged id,
    /// dead, an agent pthread, or another enclave's thread.
    fn classify_unknown_tid(&self, tid: Tid) -> AbiError {
        match self.k.thread_checked(tid) {
            None => AbiError::NoSuchThread,
            Some(t) if t.state == ThreadState::Dead => AbiError::DeadThread,
            Some(t) if t.kind == ghost_sim::thread::ThreadKind::Agent => AbiError::AgentThread,
            Some(_) => AbiError::ForeignThread,
        }
    }

    /// `ASSOCIATE_QUEUE()`: reroutes a thread's messages to `queue`.
    /// Rejects destroyed or nonexistent queues, unmanaged tids, and —
    /// per §3.1 — threads with pending messages in their current queue
    /// with a typed [`AbiError`].
    pub fn try_associate_queue(&mut self, tid: Tid, queue: QueueId) -> Result<(), AbiError> {
        if self
            .enclave
            .queues
            .get(queue.0 as usize)
            .is_none_or(Option::is_none)
        {
            return Err(self.reject(AbiError::NoSuchQueue));
        }
        let err = match self.enclave.threads.get(tid) {
            Some(info) if info.pending_msgs > 0 => Some(AbiError::PendingMessages),
            Some(_) => None,
            None => Some(self.classify_unknown_tid(tid)),
        };
        if let Some(err) = err {
            return Err(self.reject(err));
        }
        if let Some(info) = self.enclave.threads.get_mut(tid) {
            info.queue = queue;
        }
        Ok(())
    }

    /// `TXNS_RECALL()`: withdraws a committed-but-not-yet-acted-on
    /// transaction from `cpu`, returning the thread it would have run.
    /// The thread becomes schedulable again immediately. Rejects forged
    /// or out-of-enclave CPU ids and CPUs with nothing pending (the
    /// commit may already have been picked) with a typed [`AbiError`].
    pub fn try_recall(&mut self, cpu: CpuId) -> Result<Tid, AbiError> {
        if !self.k.valid_cpu(cpu) {
            return Err(self.reject(AbiError::InvalidCpu));
        }
        if !self.enclave.cpus.contains(cpu) {
            return Err(self.reject(AbiError::CpuOutsideEnclave));
        }
        let Some(slot) = self.enclave.committed.remove(cpu) else {
            return Err(self.reject(AbiError::NoCommitPending));
        };
        if let Some(info) = self.enclave.threads.get_mut(slot.tid) {
            info.picked = false;
        }
        self.charge(self.k.costs().syscall + self.k.costs().txn_validate);
        self.stats.txns_recalled += 1;
        Ok(slot.tid)
    }

    /// `DESTROY_QUEUE()`: removes a queue. Fails if it is the default
    /// queue, still has messages, or any thread is associated with it;
    /// each failure mode gets its own typed [`AbiError`].
    pub fn try_destroy_queue(&mut self, queue: QueueId) -> Result<(), AbiError> {
        if queue == self.enclave.default_queue {
            return Err(self.reject(AbiError::DefaultQueueProtected));
        }
        if self
            .enclave
            .queues
            .get(queue.0 as usize)
            .is_none_or(Option::is_none)
        {
            return Err(self.reject(AbiError::NoSuchQueue));
        }
        if self.enclave.threads.values().any(|i| i.queue == queue) {
            return Err(self.reject(AbiError::QueueInUse));
        }
        if self
            .enclave
            .queues
            .get(queue.0 as usize)
            .and_then(|s| s.as_ref())
            .is_some_and(|qs| !qs.queue.is_empty())
        {
            return Err(self.reject(AbiError::PendingMessages));
        }
        if let Some(slot) = self.enclave.queues.get_mut(queue.0 as usize) {
            *slot = None;
        }
        Ok(())
    }

    /// Reads the latest scheduling hint a workload published for `tid`
    /// (Fig. 1's "optional scheduling hints" channel), if any.
    pub fn hint(&self, tid: Tid) -> Option<u64> {
        self.enclave.hints.get(tid).copied()
    }

    /// `CREATE_QUEUE()`: creates a new queue, polled by default.
    pub fn create_queue(&mut self) -> QueueId {
        self.enclave.add_queue(WakeMode::Polled)
    }

    /// `CONFIG_QUEUE_WAKEUP()`: sets the wakeup behaviour of a queue.
    /// Rejects destroyed/nonexistent queues and `WakeAgent` targets that
    /// are not this enclave's agents with a typed [`AbiError`]. The
    /// target check matters for safety: a forged wake target would
    /// otherwise be dereferenced by the kernel on every message posted
    /// to the queue.
    pub fn try_config_queue_wakeup(
        &mut self,
        queue: QueueId,
        wake: WakeMode,
    ) -> Result<(), AbiError> {
        if let WakeMode::WakeAgent(tid) = wake {
            if !self.k.valid_tid(tid) {
                return Err(self.reject(AbiError::NoSuchThread));
            }
            if !self.enclave.agents.values().any(|a| a.tid == tid) {
                // A dead or foreign wake target is a benign race (agents
                // respawn), not a forgery — rejected, but no strike.
                return Err(self.reject(AbiError::ForeignThread));
            }
        }
        match self.enclave.queues.get_mut(queue.0 as usize) {
            Some(Some(qs)) => {
                qs.wake = wake;
                Ok(())
            }
            _ => Err(self.reject(AbiError::NoSuchQueue)),
        }
    }

    /// Offers a runnable thread to the BPF PNT fast path on `node`'s
    /// ring (the ring index wraps, so any `node` is safe). Returns false
    /// if PNT is disabled, the ring is full, or — counted as a typed
    /// rejection — the tid is not a thread of this enclave.
    pub fn pnt_push(&mut self, node: usize, tid: Tid) -> bool {
        if !self.enclave.threads.contains(tid) {
            let err = self.classify_unknown_tid(tid);
            self.reject(err);
            return false;
        }
        match &mut self.enclave.pnt {
            Some(rings) => rings.push(node, tid),
            None => false,
        }
    }

    /// Revokes a thread from the PNT rings (the agent scheduled it
    /// itself).
    pub fn pnt_revoke(&mut self, tid: Tid) -> bool {
        match &mut self.enclave.pnt {
            Some(rings) => rings.revoke(tid),
            None => false,
        }
    }

    /// Wakes the agent pinned to `cpu` and makes it the active agent of
    /// its core (per-core mode): lets one core's activation hand work to
    /// an idle peer core instead of waiting for the peer's next message
    /// or tick ("when a physical core goes idle and looks for a new
    /// thread to run", §4.5).
    pub fn ping_core_agent(&mut self, cpu: CpuId) -> bool {
        // A forged CPU id has no agent slot and must not reach the
        // topology lookup below.
        if !self.k.valid_cpu(cpu) {
            self.reject(AbiError::InvalidCpu);
            return false;
        }
        let Some(slot) = self.enclave.agents.get(cpu) else {
            return false;
        };
        let agent = slot.tid;
        let key = self
            .k
            .topo()
            .core_cpus(cpu)
            .first()
            .expect("core has a CPU");
        self.enclave.core_active.insert(key, agent);
        if self.k.thread(agent).state == ghost_sim::ThreadState::Blocked {
            self.k.wake(agent);
        }
        true
    }

    /// Requests the next spontaneous activation of the (global) agent at
    /// virtual time `at`, e.g. for time-slice preemption checks.
    pub fn request_wakeup_at(&mut self, at: Nanos) {
        let at = at.max(self.k.now());
        self.wakeup_request = Some(match self.wakeup_request {
            Some(cur) => cur.min(at),
            None => at,
        });
    }

    /// Deterministic RNG for randomized policies.
    pub fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.k.rng()
    }

    /// Sheds a thread out of ghOSt back to CFS. The escape hatch of the
    /// bounded-retry path ([`crate::recovery::CommitGovernor`]): a thread
    /// whose commits persistently fail `ESTALE` is handed to the default
    /// scheduler instead of livelocking the agent. The detach is organic —
    /// the kernel posts `THREAD_DEAD` so every consumer of the message
    /// stream forgets the thread. Returns `false` if the thread is not
    /// managed by this enclave.
    pub fn shed_to_cfs(&mut self, tid: Tid) -> bool {
        if !self.enclave.threads.contains(tid) {
            return false;
        }
        self.charge(self.k.costs().syscall);
        self.stats.estale_sheds += 1;
        self.k.move_to_class(tid, ghost_sim::class::CLASS_CFS);
        true
    }
}

/// A userspace scheduling policy.
///
/// One activation = drain the agent's queue (the harness calls
/// [`GhostPolicy::on_msg`] per message, charging dequeue costs), then
/// [`GhostPolicy::schedule`] to make decisions.
pub trait GhostPolicy: Send {
    /// Debug name.
    fn name(&self) -> &str;

    /// A message drained from the agent's queue.
    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>);

    /// Make scheduling decisions (inspect idle CPUs, commit transactions).
    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>);

    /// State reconstruction (§3.4): called once, before any message of the
    /// activation, when this policy takes over an enclave that already has
    /// threads — after an in-place upgrade, or when a respawned standby
    /// agent reclaims degraded threads. `snapshot` is the status-word scan
    /// (one entry per managed thread, sorted by tid); the policy must
    /// rebuild its runqueues/trackers from it and treat later messages
    /// with sequence numbers below the scanned `seq` as stale. The default
    /// ignores the scan, which is only correct for stateless policies.
    fn on_reconstruct(
        &mut self,
        snapshot: &[crate::recovery::ThreadSnapshot],
        ctx: &mut PolicyCtx<'_>,
    ) {
        let _ = (snapshot, ctx);
    }

    /// Core lending: `cpu` just joined this enclave's partition (borrowed
    /// under a lease, or permanently adopted when a lender died). Called
    /// at the start of the next activation after the grant. The default
    /// ignores it, which is correct for policies that discover CPUs
    /// through `ctx.enclave_cpus()` / `ctx.idle_cpus()` each round.
    fn on_cpu_grant(&mut self, cpu: CpuId, ctx: &mut PolicyCtx<'_>) {
        let _ = (cpu, ctx);
    }

    /// Core lending: `cpu` just left this enclave's partition (returned,
    /// deadline-expired, or forcibly reclaimed). Any commit the policy
    /// had in flight for it has already been recalled; per-CPU state
    /// (local queues, per-CPU bookkeeping) should be dropped or
    /// migrated. The default ignores it, correct for the same policies
    /// as `on_cpu_grant`.
    fn on_cpu_revoke(&mut self, cpu: CpuId, ctx: &mut PolicyCtx<'_>) {
        let _ = (cpu, ctx);
    }
}
