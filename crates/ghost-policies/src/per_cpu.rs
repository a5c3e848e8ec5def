//! The per-CPU scheduling model (§3.2, Fig. 3): every CPU has its own
//! agent and message queue; each agent schedules only its own CPU by
//! committing local transactions guarded by its `Aseq`.
//!
//! New threads arrive on the default queue (handled by the first CPU's
//! agent), which load-balances them across per-CPU queues with
//! `ASSOCIATE_QUEUE()` — the thread-to-queue re-routing of §3.1.

use crate::tracker::ThreadTracker;
use ghost_core::msg::{Message, MsgType};
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::slab::{CpuMap, TidMap};
use ghost_core::txn::Transaction;
use ghost_sim::thread::Tid;
use ghost_sim::topology::CpuId;
use std::collections::VecDeque;

/// Per-CPU FIFO scheduling with message-queue-based load distribution.
pub struct PerCpuPolicy {
    tracker: ThreadTracker,
    /// Per-CPU runqueues, dense in the topology's CPU id space.
    rqs: CpuMap<VecDeque<Tid>>,
    /// Thread → home CPU assignment.
    home: TidMap<CpuId>,
    /// Round-robin cursor for placing new threads.
    next_cpu: usize,
    /// Commit statistics.
    pub commits: u64,
    /// Failed commits (ESTALE etc.), retried on the next activation.
    pub failures: u64,
    /// Threads stolen from peer runqueues.
    pub steals: u64,
}

impl PerCpuPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self {
            tracker: ThreadTracker::new(),
            rqs: CpuMap::new(),
            home: TidMap::new(),
            next_cpu: 0,
            commits: 0,
            failures: 0,
            steals: 0,
        }
    }

    fn rq(&mut self, cpu: CpuId) -> &mut VecDeque<Tid> {
        self.rqs.or_insert(cpu, VecDeque::new())
    }

    fn place_new_thread(&mut self, tid: Tid, ctx: &mut PolicyCtx<'_>) -> CpuId {
        // Round-robin across enclave CPUs, skipping the busiest.
        let cpus: Vec<CpuId> = ctx.enclave_cpus().iter().collect();
        let cpu = cpus[self.next_cpu % cpus.len()];
        self.next_cpu += 1;
        self.home.insert(tid, cpu);
        // Reroute the thread's messages to that CPU's queue. If messages
        // are pending the association fails (§3.1); the thread stays on
        // the current queue and we retry at its next message.
        let q = ctx.queue_of_cpu(cpu);
        let _ = ctx.try_associate_queue(tid, q);
        cpu
    }
}

impl PerCpuPolicy {
    /// Work stealing (§3.1: "to enable load-balancing and work-stealing
    /// between CPUs, agents can change the routing of messages from
    /// threads to queues via ASSOCIATE_QUEUE()"): an idle CPU's agent
    /// takes a waiting thread from the longest peer runqueue, re-homes
    /// it, and reroutes its future messages to the local queue.
    fn steal_for(&mut self, thief: CpuId, ctx: &mut PolicyCtx<'_>) {
        let Some((victim_cpu, _)) = self
            .rqs
            .iter()
            .filter(|&(c, q)| c != thief && q.len() >= 2)
            // Lowest-CPU tiebreak: equal queue depths must not be
            // settled by the map's iteration order, or replays diverge.
            .max_by_key(|&(c, q)| (q.len(), std::cmp::Reverse(c.0)))
        else {
            return;
        };
        let Some(tid) = self.rqs.get_mut(victim_cpu).and_then(VecDeque::pop_front) else {
            return;
        };
        self.home.insert(tid, thief);
        self.rq(thief).push_back(tid);
        self.steals += 1;
        // Reroute the thread's message stream; if messages are pending
        // the association fails (§3.1) and we retry at its next message.
        let q = ctx.queue_of_cpu(thief);
        ctx.charge(100);
        let _ = ctx.try_associate_queue(tid, q);
    }
}

impl Default for PerCpuPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl GhostPolicy for PerCpuPolicy {
    fn name(&self) -> &str {
        "per-cpu-fifo"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        let Some(view) = self.tracker.apply(msg) else {
            return;
        };
        if msg.ty == MsgType::ThreadCreated {
            self.place_new_thread(msg.tid, ctx);
            return;
        }
        let home = *self.home.or_insert(msg.tid, ctx.local_cpu());
        if view.dead {
            self.rq(home).retain(|&t| t != msg.tid);
            self.home.remove(msg.tid);
        } else if view.runnable {
            let rq = self.rq(home);
            if !rq.contains(&msg.tid) {
                rq.push_back(msg.tid);
            }
        } else {
            self.rq(home).retain(|&t| t != msg.tid);
        }
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        // Fig. 3: schedule the local CPU only, guarded by Aseq.
        let cpu = ctx.local_cpu();
        let aseq = ctx.agent_seq();
        if self.rq(cpu).is_empty() {
            self.steal_for(cpu, ctx);
        }
        let Some(next) = self.rq(cpu).pop_front() else {
            return;
        };
        let mut txn = Transaction::new(next, cpu).with_agent_seq(aseq);
        if ctx.commit_one(&mut txn).committed() {
            self.commits += 1;
            self.tracker.mark_scheduled(next);
        } else {
            // "Txn failed. Move thread to end of runqueue."
            self.failures += 1;
            self.rq(cpu).push_back(next);
        }
    }

    fn on_reconstruct(&mut self, snapshot: &[ghost_core::ThreadSnapshot], ctx: &mut PolicyCtx<'_>) {
        self.tracker.resync(
            snapshot
                .iter()
                .map(|s| (s.tid, s.seq, s.runnable, s.last_cpu)),
        );
        self.rqs.clear();
        self.home.clear();
        let cpus = ctx.enclave_cpus();
        for s in snapshot {
            // Keep locality: re-home each thread to the CPU it last ran
            // on when the enclave still owns it, else place it fresh.
            let home = if cpus.contains(s.last_cpu) {
                self.home.insert(s.tid, s.last_cpu);
                let q = ctx.queue_of_cpu(s.last_cpu);
                let _ = ctx.try_associate_queue(s.tid, q);
                s.last_cpu
            } else {
                self.place_new_thread(s.tid, ctx)
            };
            if s.runnable && !s.on_cpu {
                self.rq(home).push_back(s.tid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_policy_is_empty() {
        let p = PerCpuPolicy::new();
        assert_eq!(p.commits, 0);
        assert!(p.rqs.is_empty());
    }
}
