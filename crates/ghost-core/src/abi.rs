//! Typed errors for the agent → kernel ABI boundary (§2.2, §3.4).
//!
//! "Agents are *untrusted* for system integrity": every value an agent
//! hands the kernel — tids, CPUs, sequence numbers, queue and enclave
//! ids — is validated at the boundary, and malformed input is rejected
//! with a typed [`AbiError`] (the simulated analogue of the paper's
//! errno-style syscall returns) rather than trusted. A hostile agent can
//! at worst get its own enclave quarantined (destroyed, threads handed
//! back to CFS); it can never panic the kernel.
//!
//! [`AbiError`] complements [`crate::txn::TxnStatus`]: `TxnStatus` is the
//! shared-memory commit result agents poll (coarse, ABI-stable), while
//! `AbiError` is the precise cause, carried on the transaction via
//! [`crate::txn::Transaction::error`] and surfaced in [`GhostStats`]
//! reject counters and `ghost_abi_reject` tracepoints.
//!
//! [`GhostStats`]: crate::runtime::GhostStats

use crate::txn::TxnStatus;
use std::fmt;

/// A typed rejection at the agent → kernel ABI boundary.
///
/// Every agent-facing entry point that refuses an operation reports one
/// of these; there are no silent drops and no agent-reachable panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AbiError {
    /// The enclave id does not name a live or destroyed enclave slot.
    NoSuchEnclave,
    /// The enclave exists but has been destroyed.
    EnclaveDestroyed,
    /// Enclave creation with an empty CPU set.
    EmptyCpuSet,
    /// Enclave creation claiming a CPU already owned by another enclave.
    CpuConflict,
    /// A CPU id outside the machine (≥ `num_cpus`).
    InvalidCpu,
    /// A valid CPU id that is not part of the enclave's partition.
    CpuOutsideEnclave,
    /// The target CPU is not in the target thread's affinity mask.
    CpuOutsideAffinity,
    /// The target CPU is claimed: a prior commit is pending there, or a
    /// higher-priority class (CFS) owns it.
    CpuBusy,
    /// A tid that names no thread the kernel has ever created.
    NoSuchThread,
    /// A tid whose thread has exited.
    DeadThread,
    /// A live thread that is not managed by this enclave.
    ForeignThread,
    /// The tid names an agent pthread, which cannot be a scheduling
    /// target or attach target.
    AgentThread,
    /// The target thread is known to the enclave but not runnable
    /// (blocked, already on a CPU, or double-scheduled).
    TargetNotRunnable,
    /// The `Aseq`/`Tseq` freshness check failed (`ESTALE`).
    StaleSeq,
    /// A queue id that names no live queue of the enclave.
    NoSuchQueue,
    /// The enclave's default queue cannot be destroyed.
    DefaultQueueProtected,
    /// The queue still has threads associated with it.
    QueueInUse,
    /// `ASSOCIATE_QUEUE()` with messages still pending in the thread's
    /// current queue (§3.1), or `DESTROY_QUEUE()` on a non-empty queue.
    PendingMessages,
    /// `START_GHOST()` on a thread already in the ghOSt class.
    AlreadyAttached,
    /// An upgrade was requested with no staged policy.
    NothingStaged,
    /// `TXNS_RECALL()` on a CPU with no commit pending.
    NoCommitPending,
    /// An attempted write to kernel-owned status-word state; status
    /// words are read-only to agents.
    StatusReadOnly,
    /// The CPU is under an active lease (already lent out, or cannot be
    /// lent again / destroyed out from under the borrower).
    CpuLeased,
    /// `try_reclaim_cpu()` named a CPU with no active lease.
    NotLeased,
}

/// All variants, in `kind()` order (for table-driven tests and for
/// sizing per-kind counter arrays).
pub const ABI_ERROR_KINDS: usize = 24;

impl AbiError {
    /// Dense index of this error, `0..ABI_ERROR_KINDS`; indexes the
    /// per-kind reject counters in `GhostStats`.
    pub fn kind(self) -> usize {
        self as usize
    }

    /// Rebuilds the error from a `kind()` index (trace decoding).
    pub fn from_kind(kind: usize) -> Option<Self> {
        ALL.get(kind).copied()
    }

    /// Stable snake_case name, used in stats dumps and trace args.
    pub fn name(self) -> &'static str {
        match self {
            AbiError::NoSuchEnclave => "no_such_enclave",
            AbiError::EnclaveDestroyed => "enclave_destroyed",
            AbiError::EmptyCpuSet => "empty_cpu_set",
            AbiError::CpuConflict => "cpu_conflict",
            AbiError::InvalidCpu => "invalid_cpu",
            AbiError::CpuOutsideEnclave => "cpu_outside_enclave",
            AbiError::CpuOutsideAffinity => "cpu_outside_affinity",
            AbiError::CpuBusy => "cpu_busy",
            AbiError::NoSuchThread => "no_such_thread",
            AbiError::DeadThread => "dead_thread",
            AbiError::ForeignThread => "foreign_thread",
            AbiError::AgentThread => "agent_thread",
            AbiError::TargetNotRunnable => "target_not_runnable",
            AbiError::StaleSeq => "stale_seq",
            AbiError::NoSuchQueue => "no_such_queue",
            AbiError::DefaultQueueProtected => "default_queue_protected",
            AbiError::QueueInUse => "queue_in_use",
            AbiError::PendingMessages => "pending_messages",
            AbiError::AlreadyAttached => "already_attached",
            AbiError::NothingStaged => "nothing_staged",
            AbiError::NoCommitPending => "no_commit_pending",
            AbiError::StatusReadOnly => "status_read_only",
            AbiError::CpuLeased => "cpu_leased",
            AbiError::NotLeased => "not_leased",
        }
    }

    /// The coarse shared-memory commit status this error maps to when it
    /// fails a transaction. Non-transaction errors map to `Aborted`.
    pub fn txn_status(self) -> TxnStatus {
        match self {
            AbiError::StaleSeq => TxnStatus::Stale,
            AbiError::TargetNotRunnable => TxnStatus::TargetNotRunnable,
            AbiError::CpuBusy => TxnStatus::CpuBusy,
            AbiError::InvalidCpu
            | AbiError::CpuOutsideEnclave
            | AbiError::CpuOutsideAffinity
            | AbiError::CpuLeased => TxnStatus::CpuUnavailable,
            AbiError::NoSuchThread
            | AbiError::DeadThread
            | AbiError::ForeignThread
            | AbiError::AgentThread => TxnStatus::UnknownTarget,
            _ => TxnStatus::Aborted,
        }
    }

    /// True for rejections that are structurally impossible from a
    /// *benign* racing agent: no interleaving of legitimate kernel
    /// events can forge a CPU id off the machine, a tid the kernel
    /// never allocated, or a write into kernel-owned status words.
    /// These count as byzantine strikes against the enclave's
    /// `abi_strike_budget`; everything else (stale seqs, threads that
    /// blocked or died underneath the agent, CPUs that CFS reclaimed)
    /// is an expected race and never penalized.
    pub fn byzantine(self) -> bool {
        matches!(
            self,
            AbiError::InvalidCpu | AbiError::NoSuchThread | AbiError::StatusReadOnly
        )
    }
}

const ALL: [AbiError; ABI_ERROR_KINDS] = [
    AbiError::NoSuchEnclave,
    AbiError::EnclaveDestroyed,
    AbiError::EmptyCpuSet,
    AbiError::CpuConflict,
    AbiError::InvalidCpu,
    AbiError::CpuOutsideEnclave,
    AbiError::CpuOutsideAffinity,
    AbiError::CpuBusy,
    AbiError::NoSuchThread,
    AbiError::DeadThread,
    AbiError::ForeignThread,
    AbiError::AgentThread,
    AbiError::TargetNotRunnable,
    AbiError::StaleSeq,
    AbiError::NoSuchQueue,
    AbiError::DefaultQueueProtected,
    AbiError::QueueInUse,
    AbiError::PendingMessages,
    AbiError::AlreadyAttached,
    AbiError::NothingStaged,
    AbiError::NoCommitPending,
    AbiError::StatusReadOnly,
    AbiError::CpuLeased,
    AbiError::NotLeased,
];

impl fmt::Display for AbiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_dense_and_roundtrip() {
        for (i, e) in ALL.iter().enumerate() {
            assert_eq!(e.kind(), i);
            assert_eq!(AbiError::from_kind(i), Some(*e));
        }
        assert_eq!(AbiError::from_kind(ABI_ERROR_KINDS), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ABI_ERROR_KINDS);
    }

    #[test]
    fn txn_status_mapping_is_specific() {
        assert_eq!(AbiError::StaleSeq.txn_status(), TxnStatus::Stale);
        assert_eq!(
            AbiError::ForeignThread.txn_status(),
            TxnStatus::UnknownTarget
        );
        assert_eq!(
            AbiError::CpuOutsideEnclave.txn_status(),
            TxnStatus::CpuUnavailable
        );
        assert_eq!(AbiError::EnclaveDestroyed.txn_status(), TxnStatus::Aborted);
    }

    #[test]
    fn byzantine_classification_excludes_races() {
        assert!(AbiError::InvalidCpu.byzantine());
        assert!(AbiError::NoSuchThread.byzantine());
        assert!(AbiError::StatusReadOnly.byzantine());
        // Everything a benign agent can hit through an honest race must
        // never count as a strike.
        for e in [
            AbiError::StaleSeq,
            AbiError::TargetNotRunnable,
            AbiError::CpuBusy,
            AbiError::DeadThread,
            AbiError::CpuOutsideAffinity,
            AbiError::PendingMessages,
            AbiError::CpuLeased,
            AbiError::NotLeased,
        ] {
            assert!(!e.byzantine(), "{e} must not be a strike");
        }
    }
}
