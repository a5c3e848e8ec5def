//! An in-process key-value service scheduled by a ghOSt policy.
//!
//! The live smoke workload: a sharded hash map served by worker OS
//! threads, driven closed-loop (a fixed request budget kept in flight by
//! reinjecting on completion) or open-loop (a load-generator thread
//! pushing at a fixed rate and kicking blocked workers). Workers run only
//! when the live kernel dispatches them — an unmodified policy's
//! transaction commits are what unpark these threads — and every request
//! records an enqueue→completion latency into a log-scale histogram.

use crate::kernel::LiveShared;
use crate::worker::{WorkerCmd, WorkerCtl};
use ghost_core::GhostRuntime;
use ghost_metrics::LogHistogram;
use ghost_sim::class::OffCpuReason;
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MILLIS};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests a worker serves before voluntarily yielding its lane (the
/// live analogue of a timeslice; policies that preempt sooner do so via
/// the preempt flag).
const YIELD_BATCH: usize = 64;

/// One KV operation.
#[derive(Debug, Clone, Copy)]
pub struct KvRequest {
    /// Key to read or write.
    pub key: u64,
    /// True for PUT, false for GET.
    pub put: bool,
    /// Backend time the request entered the queue.
    pub enqueued_at: Nanos,
    /// Backend time after which the request is expired off the queue;
    /// 0 means never (degraded-mode machinery disabled).
    pub deadline: Nanos,
    /// Times this request has been re-queued after expiring.
    pub retries: u32,
}

/// Graceful-degradation limits for a [`KvService`] whose scheduler can go
/// away (§3.4 degraded mode: agent dead, enclave threads shed to CFS).
/// With `request_timeout == 0` (the default) none of the machinery runs
/// and the service behaves exactly as before.
#[derive(Debug, Clone, Copy)]
pub struct DegradedLimits {
    /// A queued request older than this is expired at pop time; 0
    /// disables timeouts, retries, and shedding entirely.
    pub request_timeout: Nanos,
    /// An expired request is re-queued at most this many times before it
    /// counts as failed.
    pub max_retries: u32,
    /// Delay before an expired request becomes eligible again, doubled
    /// per retry.
    pub retry_backoff: Nanos,
    /// While the service is marked degraded, new requests are shed at
    /// admission once the queue is this deep.
    pub shed_depth: usize,
}

impl Default for DegradedLimits {
    fn default() -> Self {
        Self {
            request_timeout: 0,
            max_retries: 3,
            retry_backoff: MILLIS,
            shed_depth: 1024,
        }
    }
}

/// Degraded-mode counters (see [`KvService::degraded_stats`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct DegradedStats {
    /// Requests rejected at admission while degraded (load shedding).
    pub shed: u64,
    /// Requests expired off the queue past their deadline.
    pub timeouts: u64,
    /// Expired requests re-queued for another attempt.
    pub retries: u64,
    /// Requests that exhausted their retry budget.
    pub failed: u64,
}

/// A sharded in-memory KV store with a shared request queue.
pub struct KvService {
    shards: Vec<Mutex<HashMap<u64, u64>>>,
    queue: Mutex<VecDeque<KvRequest>>,
    /// Requests completed (all workers).
    pub completed: AtomicU64,
    /// Requests issued so far (closed loop).
    issued: AtomicU64,
    /// Closed-loop request budget; 0 means open loop (no reinjection).
    target: AtomicU64,
    /// Per-request service time floor, enforced by busy-spinning.
    service_ns: u64,
    /// Merged enqueue→completion latencies (workers fold their local
    /// histograms in when they exit).
    latencies: Mutex<LogHistogram>,
    /// Degraded-mode limits (inert unless `request_timeout > 0`).
    limits: DegradedLimits,
    /// True while the embedding marks the enclave degraded (agent dead,
    /// recovery in flight); gates admission-time load shedding.
    degraded: AtomicBool,
    /// Expired requests awaiting their retry backoff: `(eligible_at,
    /// request)`, pumped back into the queue by [`KvService::pump_delayed`].
    delayed: Mutex<Vec<(Nanos, KvRequest)>>,
    shed: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    failed: AtomicU64,
}

impl KvService {
    /// A service with `shards` hash-map shards and `service_ns` of
    /// busy-work per request, without degraded-mode machinery.
    pub fn new(shards: usize, service_ns: u64) -> Arc<Self> {
        Self::with_limits(shards, service_ns, DegradedLimits::default())
    }

    /// A service with graceful-degradation limits (timeouts, bounded
    /// retry with backoff, load shedding while degraded).
    pub fn with_limits(shards: usize, service_ns: u64, limits: DegradedLimits) -> Arc<Self> {
        Arc::new(Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            queue: Mutex::new(VecDeque::new()),
            completed: AtomicU64::new(0),
            issued: AtomicU64::new(0),
            target: AtomicU64::new(0),
            service_ns,
            latencies: Mutex::new(LogHistogram::new()),
            limits,
            degraded: AtomicBool::new(false),
            delayed: Mutex::new(Vec::new()),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        })
    }

    /// Marks the service (un)degraded. The embedding polls
    /// `EnclaveHandle::degraded` and mirrors it here; while set,
    /// admission sheds load past `shed_depth`.
    pub fn set_degraded(&self, on: bool) {
        self.degraded.store(on, Ordering::Release);
    }

    /// True while load shedding is armed.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Snapshot of the degraded-mode counters.
    pub fn degraded_stats(&self) -> DegradedStats {
        DegradedStats {
            shed: self.shed.load(Ordering::Acquire),
            timeouts: self.timeouts.load(Ordering::Acquire),
            retries: self.retries.load(Ordering::Acquire),
            failed: self.failed.load(Ordering::Acquire),
        }
    }

    /// Requests that reached a terminal state: served, shed at
    /// admission, or failed after exhausting retries. A degraded-mode
    /// closed loop is done when this reaches the target.
    pub fn accounted_count(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
            + self.shed.load(Ordering::Acquire)
            + self.failed.load(Ordering::Acquire)
    }

    /// Enqueues one request. Returns false if it was shed by
    /// degraded-mode admission control (the client's fast-fail).
    pub fn push(&self, key: u64, put: bool, now: Nanos) -> bool {
        if self.limits.request_timeout > 0
            && self.degraded.load(Ordering::Acquire)
            && self.queue.lock().unwrap().len() >= self.limits.shed_depth
        {
            self.shed.fetch_add(1, Ordering::AcqRel);
            return false;
        }
        let deadline = if self.limits.request_timeout > 0 {
            now.saturating_add(self.limits.request_timeout)
        } else {
            0
        };
        self.queue.lock().unwrap().push_back(KvRequest {
            key,
            put,
            enqueued_at: now,
            deadline,
            retries: 0,
        });
        true
    }

    /// Pops the oldest pending request.
    pub fn pop(&self) -> Option<KvRequest> {
        self.queue.lock().unwrap().pop_front()
    }

    /// Pops the oldest pending request that has not expired. Expired
    /// requests are re-queued after a backoff (up to `max_retries`) or
    /// counted failed — the worker never serves stale work.
    pub fn pop_ready(&self, now: Nanos) -> Option<KvRequest> {
        self.pump_delayed(now);
        loop {
            let req = self.queue.lock().unwrap().pop_front()?;
            if req.deadline == 0 || now < req.deadline {
                return Some(req);
            }
            self.timeouts.fetch_add(1, Ordering::AcqRel);
            if req.retries < self.limits.max_retries {
                self.retries.fetch_add(1, Ordering::AcqRel);
                let backoff = self
                    .limits
                    .retry_backoff
                    .saturating_mul(1 << req.retries.min(16));
                let mut r = req;
                r.retries += 1;
                r.deadline = now
                    .saturating_add(backoff)
                    .saturating_add(self.limits.request_timeout);
                self.delayed.lock().unwrap().push((now + backoff, r));
            } else {
                self.failed.fetch_add(1, Ordering::AcqRel);
                // The slot fast-failed; keep the closed loop loaded.
                self.reinject(now);
            }
        }
    }

    /// Moves delayed (backing-off) retries whose eligibility time has
    /// passed back into the queue. Called on every `pop_ready`; drive
    /// loops should also call it periodically in case all workers are
    /// parked when a backoff expires.
    pub fn pump_delayed(&self, now: Nanos) {
        let mut delayed = self.delayed.lock().unwrap();
        if delayed.is_empty() {
            return;
        }
        let mut i = 0;
        while i < delayed.len() {
            if delayed[i].0 <= now {
                let (_, req) = delayed.swap_remove(i);
                self.queue.lock().unwrap().push_back(req);
            } else {
                i += 1;
            }
        }
    }

    /// True when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().unwrap().is_empty()
    }

    /// Pending queue depth.
    pub fn depth(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Starts a closed loop: `concurrency` requests in flight, reinjected
    /// on completion until `total` have been issued. Returns how many were
    /// seeded (callers wake that many workers).
    pub fn start_closed_loop(&self, total: u64, concurrency: u64, now: Nanos) -> u64 {
        self.target.store(total, Ordering::Release);
        let seed = concurrency.min(total);
        for i in 0..seed {
            self.issued.fetch_add(1, Ordering::AcqRel);
            self.push(splitmix(i), i % 10 == 0, now);
        }
        seed
    }

    /// Total requests completed so far.
    pub fn completed_count(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// Closed-loop budget (0 in open loop).
    pub fn target_count(&self) -> u64 {
        self.target.load(Ordering::Acquire)
    }

    /// Snapshot of the merged latency histogram.
    pub fn latency_histogram(&self) -> LogHistogram {
        self.latencies.lock().unwrap().clone()
    }

    /// Serves one request: shard lookup/update plus the configured
    /// busy-spin floor. Returns the completion time.
    fn serve(&self, req: &KvRequest) {
        let shard = &self.shards[(req.key as usize) % self.shards.len()];
        {
            let mut map = shard.lock().unwrap();
            if req.put {
                map.insert(req.key, req.key.wrapping_mul(31));
            } else {
                let _ = map.get(&req.key);
            }
        }
        if self.service_ns > 0 {
            let start = Instant::now();
            while (start.elapsed().as_nanos() as u64) < self.service_ns {
                std::hint::spin_loop();
            }
        }
    }

    /// Closed-loop reinjection: after a slot reaches a terminal state,
    /// issue the next request if the budget allows. An admission shed
    /// fast-fails that slot (already counted) and the loop issues the
    /// next one, so shedding never strands the closed loop's in-flight
    /// concurrency.
    fn reinject(&self, now: Nanos) {
        let target = self.target.load(Ordering::Acquire);
        if target == 0 {
            return;
        }
        while self
            .issued
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < target).then_some(n + 1)
            })
            .is_ok()
        {
            let n = self.issued.load(Ordering::Acquire);
            if self.push(splitmix(n), n.is_multiple_of(10), now) {
                return;
            }
        }
    }
}

/// SplitMix64: cheap deterministic key stream without an RNG dependency.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Main loop of a KV worker OS thread. The worker runs a scheduling stint
/// only when dispatched onto a lane, ends the stint at queue-empty
/// (block), preempt flag (preempt), or batch boundary (yield), and
/// reports the transition to the live kernel — which posts the matching
/// `THREAD_*` message to the policy, exactly as the DES would.
pub(crate) fn worker_main(
    shared: Arc<LiveShared>,
    _rt: GhostRuntime,
    kv: Arc<KvService>,
    tid: Tid,
    ctl: Arc<WorkerCtl>,
) {
    let mut local = LogHistogram::new();
    // `MonotonicClock` is `Copy`: workers timestamp requests without
    // touching the state lock on the serve path.
    let clock = { shared.state.lock().unwrap().clock };
    'outer: loop {
        match ctl.wait() {
            WorkerCmd::Exit => break 'outer,
            WorkerCmd::Park => continue,
            WorkerCmd::Free => {
                // Unmanaged (not attached, or shed to CFS): serve freely on
                // the host scheduler until the command changes.
                loop {
                    match ctl.peek().0 {
                        WorkerCmd::Free => {}
                        WorkerCmd::Exit => break 'outer,
                        _ => continue 'outer,
                    }
                    let now = clock.now();
                    if let Some(req) = kv.pop_ready(now) {
                        kv.serve(&req);
                        local.record(now.saturating_sub(req.enqueued_at));
                        kv.completed.fetch_add(1, Ordering::AcqRel);
                        kv.reinject(now);
                    } else {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            }
            WorkerCmd::Run { cpu } => {
                let mut served = 0usize;
                let reason = loop {
                    if ctl.preempt_pending() {
                        break OffCpuReason::Preempt;
                    }
                    let Some(req) = kv.pop_ready(clock.now()) else {
                        break OffCpuReason::Block;
                    };
                    kv.serve(&req);
                    let now = clock.now();
                    local.record(now.saturating_sub(req.enqueued_at));
                    kv.completed.fetch_add(1, Ordering::AcqRel);
                    kv.reinject(now);
                    served += 1;
                    if served >= YIELD_BATCH {
                        break OffCpuReason::Yield;
                    }
                };
                // End the stint under the state lock. The queue-empty
                // check is repeated here because a request pushed after
                // our last pop but before this lock would otherwise be
                // stranded: its wake saw us Running and no-opped.
                let mut st = shared.state.lock().unwrap();
                let reason = if reason == OffCpuReason::Block && !kv.is_empty() {
                    OffCpuReason::Yield
                } else {
                    reason
                };
                st.end_stint(tid, cpu, reason);
                drop(st);
            }
        }
    }
    kv.latencies.lock().unwrap().merge(&local);
}

/// Drives the service open-loop: pushes `batch` requests every `period`,
/// kicking one blocked worker per pushed request, for `duration`. Returns
/// the number of requests pushed. Runs on the caller's thread.
pub fn open_loop_drive(
    kernel: &crate::kernel::LiveKernel,
    kv: &KvService,
    workers: &[Tid],
    batch: u64,
    period: Duration,
    duration: Duration,
) -> u64 {
    let start = Instant::now();
    let mut pushed = 0u64;
    while start.elapsed() < duration {
        let now = kernel.now();
        for i in 0..batch {
            kv.push(
                splitmix(pushed.wrapping_add(i)),
                (pushed + i).is_multiple_of(10),
                now,
            );
        }
        pushed += batch;
        for _ in 0..batch {
            if !kernel.wake_one_blocked(workers) {
                break;
            }
        }
        std::thread::sleep(period);
    }
    pushed
}

/// Blocks until `kv` completes `count` requests or `timeout` passes;
/// returns true on completion.
pub fn await_completion(kv: &KvService, count: u64, timeout: Duration) -> bool {
    let start = Instant::now();
    while kv.completed_count() < count {
        if start.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_spreads_keys() {
        let a = splitmix(1);
        let b = splitmix(2);
        assert_ne!(a, b);
    }

    #[test]
    fn closed_loop_reinjects_to_target() {
        let kv = KvService::new(4, 0);
        let seeded = kv.start_closed_loop(10, 4, 0);
        assert_eq!(seeded, 4);
        let mut done = 0;
        while let Some(req) = kv.pop() {
            kv.serve(&req);
            kv.completed.fetch_add(1, Ordering::AcqRel);
            kv.reinject(1);
            done += 1;
        }
        assert_eq!(done, 10);
        assert_eq!(kv.completed_count(), 10);
    }

    #[test]
    fn degraded_admission_sheds_past_depth() {
        let limits = DegradedLimits {
            request_timeout: MILLIS,
            shed_depth: 2,
            ..DegradedLimits::default()
        };
        let kv = KvService::with_limits(1, 0, limits);
        assert!(kv.push(1, false, 0));
        assert!(kv.push(2, false, 0));
        // Not degraded: depth is irrelevant, admission stays open.
        assert!(kv.push(3, false, 0));
        kv.set_degraded(true);
        assert!(!kv.push(4, false, 0));
        assert_eq!(kv.degraded_stats().shed, 1);
        assert_eq!(kv.accounted_count(), 1);
        // Recovery re-opens admission.
        kv.set_degraded(false);
        assert!(kv.push(5, false, 0));
        assert_eq!(kv.depth(), 4);
    }

    #[test]
    fn shed_triggers_exactly_at_depth() {
        // The admission predicate is `len >= shed_depth`: a queue one
        // short of the boundary admits, the boundary itself sheds.
        let limits = DegradedLimits {
            request_timeout: MILLIS,
            shed_depth: 3,
            ..DegradedLimits::default()
        };
        let kv = KvService::with_limits(1, 0, limits);
        kv.set_degraded(true);
        // depth 0, 1, 2 < shed_depth: admitted even while degraded.
        assert!(kv.push(1, false, 0));
        assert!(kv.push(2, false, 0));
        assert!(kv.push(3, false, 0));
        assert_eq!(kv.depth(), 3);
        // depth == shed_depth: shed.
        assert!(!kv.push(4, false, 0));
        assert_eq!(kv.degraded_stats().shed, 1);
        // Serving one request drops depth below the boundary and
        // re-opens admission without leaving degraded mode.
        assert!(kv.pop_ready(0).is_some());
        assert_eq!(kv.depth(), 2);
        assert!(kv.push(5, false, 0));
        assert!(!kv.push(6, false, 0));
        assert_eq!(kv.degraded_stats().shed, 2);
    }

    #[test]
    fn closed_loop_accounting_sums_across_the_shed_boundary() {
        // Degrade mid-run with the shed boundary at the depth the
        // closed loop reinjects at (concurrency - 1, since one request
        // was just popped): completed + shed + failed must still
        // converge to the target.
        let limits = DegradedLimits {
            request_timeout: MILLIS,
            shed_depth: 3,
            ..DegradedLimits::default()
        };
        let kv = KvService::with_limits(4, 0, limits);
        let seeded = kv.start_closed_loop(20, 4, 0);
        assert_eq!(seeded, 4);
        let mut served = 0;
        while let Some(req) = kv.pop_ready(1) {
            kv.serve(&req);
            kv.completed.fetch_add(1, Ordering::AcqRel);
            if served == 10 {
                // Degradation arms with the queue exactly at the
                // boundary: this reinjection sheds and fast-fails the
                // rest of the budget rather than stranding any slot.
                kv.set_degraded(true);
            }
            kv.reinject(1);
            served += 1;
        }
        kv.set_degraded(false);
        let s = kv.degraded_stats();
        assert_eq!(
            kv.completed_count() + s.shed + s.failed,
            20,
            "closed-loop accounting must sum at the boundary \
             (completed={} shed={} failed={})",
            kv.completed_count(),
            s.shed,
            s.failed
        );
        assert_eq!(kv.accounted_count(), 20);
        assert!(s.shed >= 1, "the armed boundary must shed at least once");
        assert!(kv.completed_count() >= 10);
    }

    #[test]
    fn expired_requests_retry_with_backoff_then_fail() {
        let limits = DegradedLimits {
            request_timeout: 10,
            max_retries: 1,
            retry_backoff: 5,
            shed_depth: usize::MAX,
        };
        let kv = KvService::with_limits(1, 0, limits);
        assert!(kv.push(7, false, 0)); // deadline 10
                                       // Not yet expired: served normally.
        assert!(kv.pop_ready(9).is_some());
        assert!(kv.push(8, false, 0)); // deadline 10
                                       // Expired at pop: requeued with backoff, nothing to serve now.
        assert!(kv.pop_ready(20).is_none());
        let s = kv.degraded_stats();
        assert_eq!((s.timeouts, s.retries, s.failed), (1, 1, 0));
        // Before the backoff elapses the retry stays delayed.
        assert!(kv.pop_ready(24).is_none());
        // After the backoff it is eligible again (fresh deadline)...
        let req = kv.pop_ready(26).expect("retry became eligible");
        assert_eq!(req.key, 8);
        assert_eq!(req.retries, 1);
        // ...and a retry that expires again exhausts the budget.
        assert!(kv.push(9, false, 100)); // deadline 110
        assert!(kv.pop_ready(200).is_none()); // retry 1, eligible 205
        assert!(kv.pop_ready(400).is_none()); // expired again: failed
        let s = kv.degraded_stats();
        assert_eq!((s.timeouts, s.failed), (3, 1));
        assert_eq!(kv.accounted_count(), 1);
    }

    #[test]
    fn shedding_never_strands_the_closed_loop() {
        // Every shed slot fast-fails and the reinjection loop issues the
        // next, so completed + shed always converges to the target even
        // if the service degrades mid-run with a zero shed depth.
        let limits = DegradedLimits {
            request_timeout: MILLIS,
            shed_depth: 0,
            ..DegradedLimits::default()
        };
        let kv = KvService::with_limits(4, 0, limits);
        let seeded = kv.start_closed_loop(10, 4, 0);
        assert_eq!(seeded, 4);
        kv.set_degraded(true);
        while let Some(req) = kv.pop_ready(1) {
            kv.serve(&req);
            kv.completed.fetch_add(1, Ordering::AcqRel);
            kv.reinject(1);
        }
        let s = kv.degraded_stats();
        assert_eq!(kv.completed_count(), 4);
        assert_eq!(s.shed, 6);
        assert_eq!(kv.accounted_count(), 10);
    }
}
