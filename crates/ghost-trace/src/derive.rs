//! Derived-metrics pass over a recorded trace: folds the raw event stream
//! into the quantities the paper's evaluation cares about — wakeup-to-run
//! latency, per-CPU class occupancy, queue-depth timelines, and commit
//! outcome rates — using `ghost-metrics` histograms.

use crate::{Nanos, TraceEvent, TraceRecord, CLASS_IDLE, NO_TID};
use ghost_metrics::LogHistogram;
use std::collections::BTreeMap;

/// Metrics folded out of one trace.
pub struct TraceMetrics {
    /// Latency from `sched_wakeup` to the thread's next switch-in, ns.
    pub wakeup_to_run: LogHistogram,
    /// Per-CPU nanoseconds spent running each scheduling class
    /// (indexed by class id 0..=4; idle time lands in `CLASS_IDLE`).
    pub occupancy: BTreeMap<u16, [u64; 5]>,
    /// Per-queue (timestamp, depth-after-event) timeline.
    pub queue_depth: BTreeMap<u32, Vec<(Nanos, u64)>>,
    /// Per-queue peak depth.
    pub queue_peak: BTreeMap<u32, u64>,
    /// Commit outcomes.
    pub txns_ok: u64,
    pub txns_estale: u64,
    pub txns_race: u64,
    /// Messages lost to queue overflow.
    pub msgs_dropped: u64,
    /// pick_next_task fast-path outcomes.
    pub pnt_hits: u64,
    pub pnt_misses: u64,
    /// ABI calls rejected at the validation boundary, total and broken
    /// down by `AbiError` kind index.
    pub abi_rejects: u64,
    pub abi_rejects_by_kind: BTreeMap<u8, u64>,
    /// Enclaves quarantined for exhausting their byzantine strike budget.
    pub quarantines: u64,
    /// Completed failover spans, in trace order: (`RecoveryStart` ts,
    /// matching `ReconstructDone` ts) per enclave. `ReconstructDone`
    /// events with no pending recovery (upgrades, initial joins) are not
    /// spans and are excluded.
    pub recovery_spans: Vec<(Nanos, Nanos)>,
    /// Core-lending counters: leases granted, and revocations broken
    /// down by `RevokeReason` discriminant (0 returned, 1 expired,
    /// 2 borrower died, 3 lender died).
    pub lease_grants: u64,
    pub lease_revokes_by_reason: BTreeMap<u8, u64>,
    /// Resource-manager failovers (restart + state reconstruction).
    pub rm_failovers: u64,
    /// Completed revoke-to-reclaim spans, in trace order: `LeaseRevoked`
    /// ts → the next `IpiReceived` or `SchedSwitch` on that CPU (the
    /// moment the reclaimed CPU is actually back under its owner's
    /// control). Revokes with no subsequent activity on the CPU before
    /// trace end are excluded.
    pub lease_reclaim_spans: Vec<(Nanos, Nanos)>,
}

impl TraceMetrics {
    /// Folds `records` (in `seq` order) into metrics.
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let mut m = TraceMetrics {
            wakeup_to_run: LogHistogram::new(),
            occupancy: BTreeMap::new(),
            queue_depth: BTreeMap::new(),
            queue_peak: BTreeMap::new(),
            txns_ok: 0,
            txns_estale: 0,
            txns_race: 0,
            msgs_dropped: 0,
            pnt_hits: 0,
            pnt_misses: 0,
            abi_rejects: 0,
            abi_rejects_by_kind: BTreeMap::new(),
            quarantines: 0,
            recovery_spans: Vec::new(),
            lease_grants: 0,
            lease_revokes_by_reason: BTreeMap::new(),
            rm_failovers: 0,
            lease_reclaim_spans: Vec::new(),
        };
        // CPUs with a forced reclaim in flight: cpu → LeaseRevoked ts.
        let mut reclaiming: BTreeMap<u16, Nanos> = BTreeMap::new();
        // Enclaves with a failover in flight: enclave id → RecoveryStart ts.
        let mut recovering: BTreeMap<u32, Nanos> = BTreeMap::new();
        // Latest un-serviced wakeup per tid.
        let mut woken: BTreeMap<u32, Nanos> = BTreeMap::new();
        // (class, since) currently occupying each CPU.
        let mut running: BTreeMap<u16, (u8, Nanos)> = BTreeMap::new();
        let mut depth: BTreeMap<u32, u64> = BTreeMap::new();
        let mut last_ts = 0;

        for rec in records {
            last_ts = last_ts.max(rec.ts);
            match rec.event {
                TraceEvent::SchedWakeup { tid, .. } => {
                    woken.entry(tid).or_insert(rec.ts);
                }
                TraceEvent::SchedSwitch {
                    cpu,
                    next_tid,
                    next_class,
                    ..
                } => {
                    if let Some(revoked_at) = reclaiming.remove(&cpu) {
                        m.lease_reclaim_spans.push((revoked_at, rec.ts));
                    }
                    if next_tid != NO_TID {
                        if let Some(woke_at) = woken.remove(&next_tid) {
                            m.wakeup_to_run
                                .record(rec.ts.saturating_sub(woke_at).max(1));
                        }
                    }
                    let (class, since) = running
                        .insert(cpu, (next_class, rec.ts))
                        .unwrap_or((CLASS_IDLE, rec.ts));
                    let bucket = (class as usize).min(4);
                    m.occupancy.entry(cpu).or_insert([0; 5])[bucket] +=
                        rec.ts.saturating_sub(since);
                }
                TraceEvent::MsgEnqueued { queue, .. } => {
                    let d = depth.entry(queue).or_insert(0);
                    *d += 1;
                    let peak = m.queue_peak.entry(queue).or_insert(0);
                    *peak = (*peak).max(*d);
                    m.queue_depth.entry(queue).or_default().push((rec.ts, *d));
                }
                TraceEvent::MsgDequeued { queue, .. } => {
                    let d = depth.entry(queue).or_insert(0);
                    *d = d.saturating_sub(1);
                    m.queue_depth.entry(queue).or_default().push((rec.ts, *d));
                }
                TraceEvent::QueueOverflow { .. } => m.msgs_dropped += 1,
                TraceEvent::TxnCommitOk { .. } => m.txns_ok += 1,
                TraceEvent::TxnCommitEstale { .. } => m.txns_estale += 1,
                TraceEvent::TxnCommitRace { .. } => m.txns_race += 1,
                TraceEvent::PntHit { .. } => m.pnt_hits += 1,
                TraceEvent::PntMiss { .. } => m.pnt_misses += 1,
                TraceEvent::AbiReject { kind, .. } => {
                    m.abi_rejects += 1;
                    *m.abi_rejects_by_kind.entry(kind).or_insert(0) += 1;
                }
                TraceEvent::EnclaveQuarantined { .. } => m.quarantines += 1,
                TraceEvent::RecoveryStart { enclave } => {
                    recovering.entry(enclave).or_insert(rec.ts);
                }
                TraceEvent::ReconstructDone { enclave, .. } => {
                    if let Some(start) = recovering.remove(&enclave) {
                        m.recovery_spans.push((start, rec.ts));
                    }
                }
                TraceEvent::IpiReceived { cpu } => {
                    if let Some(revoked_at) = reclaiming.remove(&cpu) {
                        m.lease_reclaim_spans.push((revoked_at, rec.ts));
                    }
                }
                TraceEvent::LeaseGranted { .. } => m.lease_grants += 1,
                TraceEvent::LeaseRevoked { cpu, reason, .. } => {
                    *m.lease_revokes_by_reason.entry(reason).or_insert(0) += 1;
                    reclaiming.insert(cpu, rec.ts);
                }
                TraceEvent::RmFailover { .. } => m.rm_failovers += 1,
                _ => {}
            }
        }
        // Close out whatever is still on-CPU at trace end.
        for (cpu, (class, since)) in running {
            let bucket = (class as usize).min(4);
            m.occupancy.entry(cpu).or_insert([0; 5])[bucket] += last_ts.saturating_sub(since);
        }
        m
    }

    /// Fraction of commit attempts that failed the seqnum check.
    pub fn estale_rate(&self) -> f64 {
        let total = self.txns_ok + self.txns_estale + self.txns_race;
        if total == 0 {
            0.0
        } else {
            self.txns_estale as f64 / total as f64
        }
    }

    /// Worst completed failover span (`RecoveryStart` →
    /// `ReconstructDone`), ns. `None` when no agent failover completed.
    pub fn recovery_max_ns(&self) -> Option<u64> {
        self.recovery_spans
            .iter()
            .map(|(start, done)| done.saturating_sub(*start))
            .max()
    }

    /// Total lease revocations across all reasons.
    pub fn lease_revokes(&self) -> u64 {
        self.lease_revokes_by_reason.values().sum()
    }

    /// p99 of the revoke-to-reclaim spans, ns (nearest-rank). `None`
    /// when no reclaim completed.
    pub fn lease_reclaim_p99_ns(&self) -> Option<u64> {
        self.lease_reclaim_percentile_ns(0.99)
    }

    /// Nearest-rank percentile of the revoke-to-reclaim spans, ns.
    pub fn lease_reclaim_percentile_ns(&self, q: f64) -> Option<u64> {
        let lat: Vec<u64> = self
            .lease_reclaim_spans
            .iter()
            .map(|(revoked, reclaimed)| reclaimed.saturating_sub(*revoked))
            .collect();
        percentile(&lat, q)
    }

    /// Fraction of `cpu`'s accounted time spent running `class`.
    pub fn occupancy_frac(&self, cpu: u16, class: u8) -> f64 {
        match self.occupancy.get(&cpu) {
            None => 0.0,
            Some(buckets) => {
                let total: u64 = buckets.iter().sum();
                if total == 0 {
                    0.0
                } else {
                    buckets[(class as usize).min(4)] as f64 / total as f64
                }
            }
        }
    }
}

/// Nearest-rank percentile `q` (in 0..=1) of an unsorted sample.
/// `None` when `values` is empty.
pub fn percentile(values: &[u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceSink, CLASS_CFS, CLASS_GHOST, PREV_BLOCKED, PREV_RUNNABLE};

    #[test]
    fn folds_wakeup_latency_occupancy_and_queues() {
        let sink = TraceSink::recording(1, 128);
        sink.emit(100, 0, || TraceEvent::SchedWakeup { cpu: 0, tid: 1 });
        sink.emit(100, 0, || TraceEvent::MsgEnqueued {
            queue: 0,
            ty: 1,
            tid: 1,
            seq: 1,
        });
        sink.emit(200, 0, || TraceEvent::MsgDequeued {
            queue: 0,
            ty: 1,
            tid: 1,
            seq: 1,
        });
        sink.emit(600, 0, || TraceEvent::SchedSwitch {
            cpu: 0,
            prev_tid: NO_TID,
            prev_class: CLASS_IDLE,
            prev_state: PREV_RUNNABLE,
            next_tid: 1,
            next_class: CLASS_GHOST,
        });
        sink.emit(1_600, 0, || TraceEvent::SchedSwitch {
            cpu: 0,
            prev_tid: 1,
            prev_class: CLASS_GHOST,
            prev_state: PREV_BLOCKED,
            next_tid: 2,
            next_class: CLASS_CFS,
        });
        sink.emit(2_100, 0, || TraceEvent::TxnCommitOk { cpu: 0, tid: 1 });
        sink.emit(2_100, 0, || TraceEvent::TxnCommitEstale { cpu: 0, tid: 2 });

        let m = TraceMetrics::from_records(&sink.snapshot());
        assert_eq!(m.wakeup_to_run.count(), 1);
        assert_eq!(m.wakeup_to_run.max(), 500);
        // ghost ran 600..1600; cfs ran 1600..2100 (closed at trace end).
        assert_eq!(m.occupancy[&0][CLASS_GHOST as usize], 1_000);
        assert_eq!(m.occupancy[&0][CLASS_CFS as usize], 500);
        assert!(m.occupancy_frac(0, CLASS_GHOST) > m.occupancy_frac(0, CLASS_CFS));
        assert_eq!(m.queue_peak[&0], 1);
        assert_eq!(m.queue_depth[&0], vec![(100, 1), (200, 0)]);
        assert_eq!(m.txns_ok, 1);
        assert_eq!(m.txns_estale, 1);
        assert!((m.estale_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn folds_abi_rejections_and_quarantines() {
        let sink = TraceSink::recording(1, 16);
        sink.emit(10, 0, || TraceEvent::AbiReject { cpu: 0, kind: 4 });
        sink.emit(20, 0, || TraceEvent::AbiReject { cpu: 0, kind: 4 });
        sink.emit(30, 0, || TraceEvent::AbiReject { cpu: 1, kind: 8 });
        sink.emit(40, 0, || TraceEvent::EnclaveQuarantined { enclave: 0 });
        let m = TraceMetrics::from_records(&sink.snapshot());
        assert_eq!(m.abi_rejects, 3);
        assert_eq!(m.abi_rejects_by_kind[&4], 2);
        assert_eq!(m.abi_rejects_by_kind[&8], 1);
        assert_eq!(m.quarantines, 1);
    }

    #[test]
    fn pairs_recovery_spans_and_skips_bare_reconstructs() {
        let sink = TraceSink::recording(1, 32);
        // An upgrade-style reconstruct with no failover in flight: not a span.
        sink.emit(50, 0, || TraceEvent::ReconstructDone {
            enclave: 0,
            threads: 4,
            agent_tid: 9,
        });
        sink.emit(100, 0, || TraceEvent::RecoveryStart { enclave: 0 });
        sink.emit(2_100, 0, || TraceEvent::ReconstructDone {
            enclave: 0,
            threads: 4,
            agent_tid: 10,
        });
        sink.emit(5_000, 0, || TraceEvent::RecoveryStart { enclave: 0 });
        sink.emit(5_500, 0, || TraceEvent::ReconstructDone {
            enclave: 0,
            threads: 4,
            agent_tid: 11,
        });
        let m = TraceMetrics::from_records(&sink.snapshot());
        assert_eq!(m.recovery_spans, vec![(100, 2_100), (5_000, 5_500)]);
        assert_eq!(m.recovery_max_ns(), Some(2_000));
    }

    #[test]
    fn pairs_lease_reclaim_spans_with_next_cpu_activity() {
        let sink = TraceSink::recording(2, 32);
        sink.emit(100, 0, || TraceEvent::LeaseGranted {
            cpu: 1,
            lender: 1,
            borrower: 0,
            deadline_ns: 5_000,
        });
        // Forced expiry: revoke at 5_000, IPI lands at 5_400.
        sink.emit(5_000, 0, || TraceEvent::LeaseRevoked {
            cpu: 1,
            lender: 1,
            borrower: 0,
            reason: 1,
        });
        sink.emit(5_400, 1, || TraceEvent::IpiReceived { cpu: 1 });
        // Voluntary return: reclaimed at the next switch on the CPU.
        sink.emit(8_000, 0, || TraceEvent::LeaseRevoked {
            cpu: 1,
            lender: 1,
            borrower: 0,
            reason: 0,
        });
        sink.emit(8_200, 1, || TraceEvent::SchedSwitch {
            cpu: 1,
            prev_tid: 5,
            prev_class: CLASS_GHOST,
            prev_state: PREV_RUNNABLE,
            next_tid: 6,
            next_class: CLASS_GHOST,
        });
        sink.emit(9_000, 0, || TraceEvent::RmFailover {
            restarts: 1,
            leases: 0,
        });
        let m = TraceMetrics::from_records(&sink.snapshot());
        assert_eq!(m.lease_grants, 1);
        assert_eq!(m.lease_revokes(), 2);
        assert_eq!(m.lease_revokes_by_reason[&1], 1);
        assert_eq!(m.lease_revokes_by_reason[&0], 1);
        assert_eq!(m.rm_failovers, 1);
        assert_eq!(m.lease_reclaim_spans, vec![(5_000, 5_400), (8_000, 8_200)]);
        assert_eq!(m.lease_reclaim_p99_ns(), Some(400));
        assert_eq!(m.lease_reclaim_percentile_ns(0.5), Some(200));
    }

    #[test]
    fn percentile_is_nearest_rank_over_unsorted_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        let v = [40, 10, 30, 20];
        assert_eq!(percentile(&v, 0.0), Some(10));
        assert_eq!(percentile(&v, 0.5), Some(20));
        assert_eq!(percentile(&v, 0.51), Some(30));
        assert_eq!(percentile(&v, 1.0), Some(40));
    }

    #[test]
    fn empty_trace_folds_to_zeroes() {
        let m = TraceMetrics::from_records(&[]);
        assert_eq!(m.wakeup_to_run.count(), 0);
        assert_eq!(m.estale_rate(), 0.0);
        assert_eq!(m.occupancy_frac(3, CLASS_GHOST), 0.0);
        assert_eq!(m.recovery_max_ns(), None);
        assert_eq!(m.lease_reclaim_p99_ns(), None);
        assert_eq!(m.lease_revokes(), 0);
    }
}
