//! The scheduling-class hierarchy.
//!
//! Linux orders scheduling classes by priority; a runnable thread in a
//! higher class always preempts a thread of a lower class (§2 of the
//! paper). The simulator uses a fixed five-slot hierarchy:
//!
//! | slot | class | used for |
//! |---|---|---|
//! | 0 | Agent | ghOSt agents ("no other thread ... can preempt agent-threads", §3.3) |
//! | 1 | RT | real-time / MicroQuanta (§4.3) |
//! | 2 | CFS | the default class and fallback when enclaves are destroyed |
//! | 3 | ghOSt | threads delegated to userspace agents — *below* CFS (§3.4) |
//! | 4 | Idle | the idle task |
//!
//! Slots are pluggable: `ghost-core` installs the real ghOSt class at slot
//! 3, `ghost-baselines` installs MicroQuanta at slot 1 or a core-scheduling
//! CFS variant at slot 2.

use crate::kernel::KernelState;
use crate::thread::Tid;
use crate::topology::CpuId;

/// Index of a class slot; lower is higher priority.
pub type ClassId = u8;

/// Agent class: highest priority (paper §3.3).
pub const CLASS_AGENT: ClassId = 0;
/// Real-time class (SCHED_FIFO-like; MicroQuanta installs here).
pub const CLASS_RT: ClassId = 1;
/// The default fair class.
pub const CLASS_CFS: ClassId = 2;
/// The ghOSt class, deliberately below CFS (paper §3.4).
pub const CLASS_GHOST: ClassId = 3;
/// The idle class.
pub const CLASS_IDLE: ClassId = 4;
/// Number of class slots.
pub const NUM_CLASSES: usize = 5;

/// A pluggable scheduling class.
///
/// All methods receive the shared [`KernelState`]; classes keep their own
/// runqueues internally, keyed by [`Tid`]. Cross-class side effects (waking
/// a thread, moving a thread to another class, requesting a resched) are
/// queued on `KernelState`'s [`crate::deferred::Deferred`] and applied by
/// the kernel after the call returns, which keeps classes free of
/// re-entrant borrows.
///
/// `Send` so a fully wired kernel can run on a `ghost-lab` worker thread.
pub trait SchedClass: Send {
    /// Short class name for debugging and stats.
    fn name(&self) -> &'static str;

    /// A thread of this class became runnable. The class enqueues it and
    /// returns the CPU where it was placed (for preemption checks), or
    /// `None` if the class has no kernel runqueue for it (the ghOSt class
    /// returns `None`: agents, not the kernel, place ghOSt threads).
    fn enqueue(&mut self, tid: Tid, k: &mut KernelState) -> Option<CpuId>;

    /// Removes a runnable (not running) thread from this class's
    /// runqueues, e.g. on class change or death.
    fn dequeue(&mut self, tid: Tid, k: &mut KernelState);

    /// Picks the next thread to run on `cpu`, removing it from the
    /// runqueue. Returning `None` lets lower classes run.
    fn pick_next(&mut self, cpu: CpuId, k: &mut KernelState) -> Option<Tid>;

    /// The running thread `tid` is coming off `cpu`. If `still_runnable`,
    /// the class must requeue it (involuntary preemption or yield);
    /// otherwise the thread blocked or died.
    fn put_prev(&mut self, tid: Tid, cpu: CpuId, still_runnable: bool, k: &mut KernelState);

    /// Timer tick on `cpu` while `current` — a thread of this class — is
    /// running. Returns `true` to request a resched.
    fn on_tick(&mut self, cpu: CpuId, current: Tid, k: &mut KernelState) -> bool;

    /// Timer tick on every CPU regardless of which class is running,
    /// delivered after the current-class [`Self::on_tick`]. The ghOSt class
    /// uses this to post `TIMER_TICK` messages.
    fn on_tick_all(&mut self, _cpu: CpuId, _k: &mut KernelState) {}

    /// Should `waking` preempt `running`, both of this class?
    fn should_preempt(&self, _waking: Tid, _running: Tid, _k: &KernelState) -> bool {
        false
    }

    /// True if the class has at least one runnable thread eligible for
    /// `cpu` (used by the idle path and the watchdog).
    fn has_runnable(&self, cpu: CpuId, k: &KernelState) -> bool;

    /// A thread joined this class (spawn or class change).
    fn on_attach(&mut self, _tid: Tid, _k: &mut KernelState) {}

    /// A thread left this class (death or class change). The thread is
    /// guaranteed not to be on a runqueue of this class when called.
    fn on_detach(&mut self, _tid: Tid, _k: &mut KernelState) {}

    /// `sched_setaffinity` changed the thread's CPU mask. The class must
    /// requeue the thread if its current placement became illegal.
    fn on_affinity_changed(&mut self, _tid: Tid, _k: &mut KernelState) {}

    /// The thread's nice value changed.
    fn on_nice_changed(&mut self, _tid: Tid, _k: &mut KernelState) {}
}

/// Why a thread is coming off a CPU; exposed to classes through
/// [`KernelState::offcpu_reason`] during `put_prev` so the ghOSt class can
/// emit the right message (`THREAD_PREEMPTED` / `THREAD_YIELD` /
/// `THREAD_BLOCKED` / `THREAD_DEAD`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffCpuReason {
    /// Involuntarily preempted; still runnable.
    Preempt,
    /// Voluntarily yielded; still runnable.
    Yield,
    /// Blocked waiting for a wakeup.
    Block,
    /// Exited.
    Exit,
}

/// A class slot with no threads — the default content of pluggable slots.
pub struct NullClass(pub &'static str);

impl SchedClass for NullClass {
    fn name(&self) -> &'static str {
        self.0
    }

    fn enqueue(&mut self, _tid: Tid, _k: &mut KernelState) -> Option<CpuId> {
        None
    }

    fn dequeue(&mut self, _tid: Tid, _k: &mut KernelState) {}

    fn pick_next(&mut self, _cpu: CpuId, _k: &mut KernelState) -> Option<Tid> {
        None
    }

    fn put_prev(&mut self, _tid: Tid, _cpu: CpuId, _still_runnable: bool, _k: &mut KernelState) {}

    fn on_tick(&mut self, _cpu: CpuId, _current: Tid, _k: &mut KernelState) -> bool {
        false
    }

    fn has_runnable(&self, _cpu: CpuId, _k: &KernelState) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ghost-trace` sits below this crate in the dependency graph and
    /// duplicates the class-id constants; keep the two tables in lockstep.
    #[test]
    fn trace_class_ids_match() {
        assert_eq!(CLASS_AGENT, ghost_trace::CLASS_AGENT);
        assert_eq!(CLASS_RT, ghost_trace::CLASS_RT);
        assert_eq!(CLASS_CFS, ghost_trace::CLASS_CFS);
        assert_eq!(CLASS_GHOST, ghost_trace::CLASS_GHOST);
        assert_eq!(CLASS_IDLE, ghost_trace::CLASS_IDLE);
    }
}
