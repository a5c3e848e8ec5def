//! Deferred kernel operations and the one order they are applied in.
//!
//! Hooks (scheduling classes, apps, the agent runtime) never apply a
//! cross-cutting side effect — a wake, a class move, a kill, a reschedule
//! — on the spot: they queue it here, and the backend's settle loop pops
//! operations until the machine is quiescent. Both backends drive the
//! same [`Deferred`]: the DES `Kernel::settle` and the live backend's
//! `LiveState::settle` are each one `while let Some(op) = deferred.pop()`
//! over their own apply functions, so an unmodified policy sees one
//! ordering of kernel effects in either world.
//!
//! The order is by kind, FIFO within a kind: class moves, wakes, affinity
//! changes, nice changes, kills, rescheds, agent spawns. A class move must
//! land before the wake that follows it is routed to a class, and a
//! reschedule runs only once every wake that could change its pick has
//! been applied.

use crate::class::ClassId;
use crate::thread::Tid;
use crate::topology::CpuId;
use std::collections::VecDeque;

/// One deferred operation. `R` is the backend's reschedule payload: the
/// DES reschedules a [`CpuId`]; the live backend also carries the time
/// the reschedule logically arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op<R> {
    /// Move a thread into a scheduling class.
    ClassMove(Tid, ClassId),
    /// Make a blocked thread runnable.
    Wake(Tid),
    /// A thread's affinity mask changed.
    Affinity(Tid),
    /// A thread's nice value changed.
    Nice(Tid),
    /// Kill a thread.
    Kill(Tid),
    /// Run a scheduler pass on a CPU.
    Resched(R),
    /// Start the OS thread of an agent created pinned to a CPU.
    Spawn(Tid, CpuId),
}

/// The deferred-operation queues of one backend: one FIFO per kind, popped
/// in the module's priority order under a livelock guard.
#[derive(Debug)]
pub struct Deferred<R> {
    class_moves: VecDeque<(Tid, ClassId)>,
    wakes: VecDeque<Tid>,
    affinity: VecDeque<Tid>,
    nice: VecDeque<Tid>,
    kills: VecDeque<Tid>,
    rescheds: VecDeque<R>,
    spawns: VecDeque<(Tid, CpuId)>,
    /// Pops left before the current drain counts as a livelock; `None`
    /// between drains.
    budget: Option<usize>,
}

impl<R> Default for Deferred<R> {
    fn default() -> Self {
        Self {
            class_moves: VecDeque::new(),
            wakes: VecDeque::new(),
            affinity: VecDeque::new(),
            nice: VecDeque::new(),
            kills: VecDeque::new(),
            rescheds: VecDeque::new(),
            spawns: VecDeque::new(),
            budget: None,
        }
    }
}

/// Livelock guard for a drain that starts with `queued` operations.
/// Scaled to the work already queued: a mass wake of N threads
/// legitimately takes N pops (the bench-sim scale sweep wakes a million
/// at once), while a genuine livelock — operations endlessly re-deferring
/// each other — still trips the bound because it never drains the
/// backlog.
fn settle_budget(queued: usize) -> usize {
    100_000.max(4 * queued)
}

impl<R> Deferred<R> {
    /// Queues `op` behind every queued operation of its kind.
    #[inline]
    pub fn push(&mut self, op: Op<R>) {
        match op {
            Op::ClassMove(tid, class) => self.class_moves.push_back((tid, class)),
            Op::Wake(tid) => self.wakes.push_back(tid),
            Op::Affinity(tid) => self.affinity.push_back(tid),
            Op::Nice(tid) => self.nice.push_back(tid),
            Op::Kill(tid) => self.kills.push_back(tid),
            Op::Resched(r) => self.rescheds.push_back(r),
            Op::Spawn(tid, cpu) => self.spawns.push_back((tid, cpu)),
        }
    }

    fn len(&self) -> usize {
        self.class_moves.len()
            + self.wakes.len()
            + self.affinity.len()
            + self.nice.len()
            + self.kills.len()
            + self.rescheds.len()
            + self.spawns.len()
    }

    /// Drops every queued operation (a backend shutting down).
    pub fn clear(&mut self) {
        self.class_moves.clear();
        self.wakes.clear();
        self.affinity.clear();
        self.nice.clear();
        self.kills.clear();
        self.rescheds.clear();
        self.spawns.clear();
        self.budget = None;
    }

    /// The next operation in priority order, or `None` once every queue
    /// is empty, which ends the drain. The first pop of a drain sizes its
    /// livelock budget from the operations queued at that moment.
    ///
    /// # Panics
    ///
    /// Panics if one drain pops more operations than its budget allows:
    /// the applied operations keep re-deferring each other (livelock).
    #[inline]
    pub fn pop(&mut self) -> Option<Op<R>> {
        let op = self.pop_next();
        self.budget = match (op.is_some(), self.budget) {
            (false, _) => None,
            // The drain's first pop; `len() + 1` counts the op just popped.
            (true, None) => Some(settle_budget(self.len() + 1) - 1),
            (true, Some(0)) => {
                panic!("settle() did not converge: livelock in deferred operations")
            }
            (true, Some(left)) => Some(left - 1),
        };
        op
    }

    #[inline]
    fn pop_next(&mut self) -> Option<Op<R>> {
        if let Some((tid, class)) = self.class_moves.pop_front() {
            Some(Op::ClassMove(tid, class))
        } else if let Some(tid) = self.wakes.pop_front() {
            Some(Op::Wake(tid))
        } else if let Some(tid) = self.affinity.pop_front() {
            Some(Op::Affinity(tid))
        } else if let Some(tid) = self.nice.pop_front() {
            Some(Op::Nice(tid))
        } else if let Some(tid) = self.kills.pop_front() {
            Some(Op::Kill(tid))
        } else if let Some(r) = self.rescheds.pop_front() {
            Some(Op::Resched(r))
        } else {
            self.spawns
                .pop_front()
                .map(|(tid, cpu)| Op::Spawn(tid, cpu))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One op of every kind, in priority order.
    fn one_of_each(i: u32) -> [Op<CpuId>; 7] {
        [
            Op::ClassMove(Tid(i), 3),
            Op::Wake(Tid(i)),
            Op::Affinity(Tid(i)),
            Op::Nice(Tid(i)),
            Op::Kill(Tid(i)),
            Op::Resched(CpuId(i as u16)),
            Op::Spawn(Tid(i), CpuId(i as u16)),
        ]
    }

    fn drain(d: &mut Deferred<CpuId>) -> Vec<Op<CpuId>> {
        std::iter::from_fn(|| d.pop()).collect()
    }

    #[test]
    fn pops_by_kind_priority_then_fifo() {
        let mut d = Deferred::default();
        // Push two rounds, each in reverse priority order.
        for i in 0..2 {
            for op in one_of_each(i).into_iter().rev() {
                d.push(op);
            }
        }
        assert_eq!(d.len(), 14);
        let expected: Vec<_> = (0..7)
            .flat_map(|k| (0..2).map(move |i| one_of_each(i)[k]))
            .collect();
        assert_eq!(drain(&mut d), expected);
        assert_eq!(d.len(), 0);
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn endless_re_deferral_is_a_livelock() {
        let mut d = Deferred::default();
        d.push(Op::<CpuId>::Wake(Tid(0)));
        // Twice the budget's floor: a missing guard ends the loop unpanicked.
        for _ in 0..200_000 {
            let op = d.pop().expect("a re-deferred op stays queued");
            d.push(op);
        }
    }

    #[test]
    fn budget_scales_with_the_queued_backlog() {
        let mut d = Deferred::<CpuId>::default();
        // The short drain must not eat into the next one's budget, and
        // 300k queued wakes are far past the 100k floor.
        for n in [1_000, 300_000] {
            for i in 0..n {
                d.push(Op::Wake(Tid(i)));
            }
            assert_eq!(drain(&mut d).len(), n as usize);
        }
    }

    #[test]
    fn clear_empties_every_kind() {
        let mut d = Deferred::default();
        for op in one_of_each(5) {
            d.push(op);
        }
        assert_eq!(d.pop(), Some(Op::ClassMove(Tid(5), 3)));
        d.clear();
        assert_eq!(d.len(), 0);
        assert_eq!(d.pop(), None);
    }
}
