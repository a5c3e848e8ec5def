//! `live-kv`: ghost-live scheduling real OS threads on `nproc` lanes. A
//! `centralized-fifo` enclave serves the in-repo `KvService` (16
//! shards, 2 µs service time) in two phases:
//!
//! * `open` — one generator thread sends at a fixed light rate, so
//!   workers block between requests and nearly every request goes
//!   through wake → agent → commit → dispatch. Each request carries its
//!   due time as `enqueued_at`, so a generator stall counts against
//!   latency, and generator lateness is reported.
//! * `closed` — 2 × lanes requests in flight, refilled on completion:
//!   saturation, where the scheduler is almost bypassed.

use crate::des::{wake_samples, LabTimes};
use crate::layers::TraceCost;
use crate::probe::{
    nproc, peak_rss_mb, secs_since, Fingerprint, PolicySelf, PolicyTimes, TimedPolicy,
};
use crate::report::{Base, Report};
use crate::stats::{median, tails, Accounting};
use ghost_core::{EnclaveHandle, GhostStats};
use ghost_lab::scenario::PolicyKind;
use ghost_live::{KvService, LiveConfig, LiveKernel, LiveStats};
use ghost_sim::cpuset::CpuSet;
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, SECS};
use ghost_trace::check::{check_with_grace, LIVE_GRACE_NS};
use ghost_trace::derive::TraceMetrics;
use ghost_trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// KV shards.
const SHARDS: usize = 16;
/// Busy-spin service time per request.
const SERVICE_NS: u64 = 2 * MICROS;
/// Open-loop offered load, requests per second.
const OPEN_RATE: f64 = 5_000.0;
/// Share of the run's seconds given to the open phase.
const OPEN_SHARE: f64 = 0.5;
/// Host seconds of one open-phase window.
const WINDOW_S: f64 = 1.0;
/// How long stragglers may take to complete after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Quick setup/teardown cycles timed for `setup_s`, on top of the two
/// phase setups.
const EXTRA_SETUPS: usize = 5;
/// Closed-loop requests in the first (unmeasured) round.
const PILOT: u64 = 20_000;
/// Host seconds each measured closed-loop round aims for.
const ROUND_S: f64 = 0.4;
/// Per-lane trace ring capacity for traced runs.
const TRACE_CAPACITY: usize = 1 << 20;

/// A live kernel with one enclave and its KV workers.
struct Rig {
    kernel: LiveKernel,
    kv: Arc<KvService>,
    workers: Vec<Tid>,
    sink: TraceSink,
    _enclave: EnclaveHandle,
}

impl Rig {
    /// Builds the rig, timing each setup step into `lab`.
    fn build(seed: u64, traced: bool, times: Option<&Arc<PolicyTimes>>, lab: &mut LabTimes) -> Rig {
        let lanes = nproc();
        let outer = Instant::now();
        let trace = if traced {
            TraceSink::recording(lanes, TRACE_CAPACITY)
        } else {
            TraceSink::Null
        };
        let kernel = LiveKernel::new(LiveConfig {
            cpus: lanes,
            seed,
            trace: trace.clone(),
            ..LiveConfig::default()
        });
        let t_kernel = Instant::now();
        let policy = PolicyKind::CentralizedFifo.build();
        let policy = match times {
            Some(t) => TimedPolicy::wrap(policy, t),
            None => policy,
        };
        // A generous watchdog: armed on the wall clock, it must not fire
        // on host-scheduler jitter.
        let config = PolicyKind::CentralizedFifo
            .enclave_config("live-kv")
            .with_watchdog(5 * SECS);
        let enclave = kernel.launch_enclave(CpuSet::first_n(lanes), config, policy);
        let t_enclave = Instant::now();
        let kv = KvService::new(SHARDS, SERVICE_NS);
        let workers: Vec<Tid> = (0..lanes)
            .map(|i| kernel.spawn_kv_worker(&format!("kv-{i}"), Arc::clone(&kv)))
            .collect();
        for &tid in &workers {
            kernel.attach(&enclave, tid);
        }
        let t_attach = Instant::now();
        lab.kernel += (t_kernel - outer).as_secs_f64();
        lab.enclave += (t_enclave - t_kernel).as_secs_f64();
        lab.attach += (t_attach - t_enclave).as_secs_f64();
        lab.outer += secs_since(outer);
        Rig {
            kernel,
            kv,
            workers,
            sink: trace,
            _enclave: enclave,
        }
    }

    /// Stops and joins every thread the rig started.
    fn shutdown(self, lab: &mut LabTimes) {
        let t = Instant::now();
        self.kernel.shutdown();
        lab.teardown += secs_since(t);
    }
}

/// What one open-loop phase measured.
struct OpenOut {
    acct: Accounting,
    /// Latency from due time to completion, ns, with its sample count.
    lat_p50: u64,
    lat_p99: u64,
    lat_n: u64,
    /// Generator lateness samples, ns.
    late: Vec<u64>,
    /// `wake_one_blocked` durations, ns (traced runs only).
    kicks: Vec<u64>,
    stats: LiveStats,
    ghost: GhostStats,
    /// Trace cost and exact wakeup-to-run samples (traced runs only).
    trace: TraceCost,
    wake: Vec<u64>,
    violations: usize,
    /// Exact wake samples disagree with `TraceMetrics`.
    wake_mismatch: bool,
    lab: LabTimes,
}

/// Runs the open phase for `secs` host seconds.
fn open_phase(seed: u64, secs: f64, traced: bool, times: Option<&Arc<PolicyTimes>>) -> OpenOut {
    let mut lab = LabTimes::default();
    let rig = Rig::build(seed, traced, times, &mut lab);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE7);
    let period_ns = 1e9 / OPEN_RATE;
    let total = (secs * OPEN_RATE) as u64;
    let mut late = Vec::with_capacity(total as usize);
    let mut kicks = Vec::new();
    // Backend time at the generator's time zero.
    let t0 = Instant::now();
    let backend0 = rig.kernel.now();
    for i in 0..total {
        let due = (i as f64 * period_ns) as u64;
        let now = t0.elapsed().as_nanos() as u64;
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let sent_at = t0.elapsed().as_nanos() as u64;
        late.push(sent_at.saturating_sub(due));
        let key = rng.next_u64();
        let put = rng.gen_bool(0.1);
        rig.kv.push(key, put, backend0 + due as Nanos);
        if traced {
            let k = Instant::now();
            rig.kernel.wake_one_blocked(&rig.workers);
            kicks.push(k.elapsed().as_nanos() as u64);
        } else {
            rig.kernel.wake_one_blocked(&rig.workers);
        }
    }
    drain(&rig, total);
    let stats = rig.kernel.stats();
    let ghost = rig.kernel.runtime().stats();
    let degraded = rig.kv.degraded_stats();
    let completed = rig.kv.completed_count();

    let mut trace = TraceCost::default();
    let mut wake = Vec::new();
    let mut violations = 0;
    let mut wake_mismatch = false;
    if traced {
        let t = Instant::now();
        let records = rig.sink.snapshot();
        trace.snapshot_s = secs_since(t);
        let t = Instant::now();
        let metrics = TraceMetrics::from_records(&records);
        trace.derive_s = secs_since(t);
        let t = Instant::now();
        violations = check_with_grace(&records, LIVE_GRACE_NS).len();
        trace.check_s = secs_since(t);
        trace.records = records.len() as u64;
        trace.dropped = rig.sink.dropped();
        wake_samples(&records, &mut wake);
        wake_mismatch = wake.len() as u64 != metrics.wakeup_to_run.count();
    }
    let kv = Arc::clone(&rig.kv);
    rig.shutdown(&mut lab);
    // Workers fold their latency histograms in as they exit.
    let hist = kv.latency_histogram();
    OpenOut {
        acct: Accounting::from_counts(total, completed, degraded.shed + degraded.failed),
        lat_p50: hist.percentile(50.0),
        lat_p99: hist.percentile(99.0),
        lat_n: hist.count(),
        late,
        kicks,
        stats,
        ghost,
        trace,
        wake,
        violations,
        wake_mismatch,
        lab,
    }
}

/// Waits until `count` requests completed or the drain deadline passes,
/// kicking a blocked worker whenever requests are queued.
fn drain(rig: &Rig, count: u64) -> bool {
    let deadline = Instant::now() + DRAIN;
    while rig.kv.completed_count() < count {
        if Instant::now() > deadline {
            return false;
        }
        if rig.kv.depth() > 0 {
            rig.kernel.wake_one_blocked(&rig.workers);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

/// What the closed phase measured.
struct ClosedOut {
    acct: Accounting,
    /// Completions per host second of each measured round.
    round_rps: Vec<f64>,
    /// Construction time of each round's rig, s.
    setups: Vec<f64>,
    dispatches: u64,
}

/// Runs closed-loop rounds for `secs` host seconds. Each round builds a
/// fresh rig and keeps 2 × lanes requests in flight until its budget is
/// served, so the store (and the process's memory) never grows with the
/// length of the run. The first round only sizes the next.
fn closed_phase(seed: u64, secs: f64) -> ClosedOut {
    let started = Instant::now();
    let mut budget = PILOT;
    let mut out = ClosedOut {
        acct: Accounting::default(),
        round_rps: Vec::new(),
        setups: Vec::new(),
        dispatches: 0,
    };
    let mut rounds = 0;
    while out.round_rps.len() < 3 || secs_since(started) < secs {
        let mut lab = LabTimes::default();
        let rig = Rig::build(seed, false, None, &mut lab);
        let t = Instant::now();
        rig.kv
            .start_closed_loop(budget, 2 * rig.workers.len() as u64, rig.kernel.now());
        for &tid in &rig.workers {
            rig.kernel.wake(tid);
        }
        let ok = drain(&rig, budget);
        let rps = budget as f64 / secs_since(t);
        let degraded = rig.kv.degraded_stats();
        out.acct = out.acct
            + Accounting::from_counts(
                budget,
                rig.kv.completed_count(),
                degraded.shed + degraded.failed,
            );
        out.dispatches += rig.kernel.stats().dispatches;
        rig.shutdown(&mut lab);
        out.setups.push(lab.outer);
        if rounds > 0 {
            out.round_rps.push(rps);
        }
        rounds += 1;
        if !ok {
            break;
        }
        budget = ((rps * ROUND_S) as u64).max(PILOT);
    }
    out
}

fn check_open(r: &mut Report, o: &OpenOut) {
    r.check(o.acct.failed == 0, || {
        format!(
            "open phase: {} of {} requests not completed",
            o.acct.failed, o.acct.sent
        )
    });
    r.check(o.lat_n == o.acct.completed, || {
        format!(
            "open phase: {} latency samples for {} completions",
            o.lat_n, o.acct.completed
        )
    });
    r.check(o.stats.dispatches > 0, || {
        "open phase: nothing dispatched".into()
    });
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let mut lab = LabTimes::default();
        Rig::build(seed, false, None, &mut lab).shutdown(&mut lab);
        setups.push(lab.outer);
    }
    // The open phase runs as several windows, each on a fresh rig, and
    // reports the median window: one host hiccup moves one window.
    let windows = ((seconds * OPEN_SHARE / WINDOW_S).round() as usize).max(3);
    let mut p50s = Vec::with_capacity(windows);
    let mut p99s = Vec::with_capacity(windows);
    let mut acct = Accounting::default();
    let mut late = Vec::new();
    let (mut dispatches, mut samples) = (0, 0);
    for w in 0..windows {
        let open = open_phase(seed.wrapping_add(w as u64), WINDOW_S, false, None);
        check_open(&mut r, &open);
        setups.push(open.lab.outer);
        p50s.push(open.lat_p50 as f64);
        p99s.push(open.lat_p99 as f64);
        acct = acct + open.acct;
        late.extend_from_slice(&open.late);
        dispatches += open.stats.dispatches;
        samples += open.lat_n;
    }
    let closed = closed_phase(seed, seconds * (1.0 - OPEN_SHARE));
    setups.extend_from_slice(&closed.setups);
    r.check(closed.acct.failed == 0, || {
        format!(
            "closed phase: {} of {} requests not completed",
            closed.acct.failed, closed.acct.sent
        )
    });

    r.put("setup_s", median(&setups), "s", Base::Host);
    r.put("peak_rss_mb", peak_rss_mb(), "MB", Base::Host);
    r.put_n("latency_us", median(&p50s) / 1e3, "us", Base::Host, samples);
    r.put_n(
        "throughput",
        median(&closed.round_rps),
        "work/s",
        Base::Host,
        closed.round_rps.len() as u64,
    );
    if let Some((_, p99, _)) = tails(&mut late) {
        r.note(format!(
            "generator lateness p99 {} ns over {} sends",
            p99.value, p99.n
        ));
    }
    r.note(format!(
        "open: {windows} windows of {WINDOW_S} s, {dispatches} dispatches for {} requests, window p99s {:?} us; \
         closed: {} dispatches for {} requests",
        acct.completed,
        p99s.iter().map(|v| (v / 1e3).round()).collect::<Vec<_>>(),
        closed.dispatches,
        closed.acct.completed
    ));
    r.acct = acct + closed.acct;
    r
}

/// The traced run: the open phase untraced, then again with a recording
/// trace, the policy wrapper and timed kicks.
pub fn run_traced(seed: u64, seconds: f64, fp: &Fingerprint) -> Report {
    let mut r = Report::default();
    let secs = seconds * OPEN_SHARE / 2.0;
    let plain = open_phase(seed, secs, false, None);
    let times = PolicyTimes::new();
    let mut o = open_phase(seed, secs, true, Some(&times));
    check_open(&mut r, &plain);
    check_open(&mut r, &o);
    r.check(o.violations == 0, || {
        format!("live trace: {} invariant violations", o.violations)
    });
    r.check(o.trace.dropped == 0, || {
        "live trace ring dropped records".into()
    });
    r.check(!o.wake_mismatch, || {
        "live wake samples differ from TraceMetrics".into()
    });

    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    if let Some((p50, p99, _)) = tails(&mut o.kicks) {
        r.put_n(
            "live.kick_ns_p50",
            p50.value as f64,
            "ns",
            Base::Host,
            p50.n,
        );
        r.put_n(
            "live.kick_ns_p99",
            p99.value as f64,
            "ns",
            Base::Host,
            p99.n,
        );
    }
    r.put(
        "live.dispatches_per_req",
        per(o.stats.dispatches, o.acct.completed),
        "count",
        Base::None,
    );
    r.put("live.wakes", o.stats.wakes as f64, "count", Base::None);
    r.put("live.ipis", o.stats.ipis as f64, "count", Base::None);
    r.put(
        "live.preempts",
        o.stats.preempts as f64,
        "count",
        Base::None,
    );
    r.put(
        "live.activations",
        o.ghost.activations as f64,
        "count",
        Base::None,
    );
    r.put(
        "live.empty_activation_frac",
        per(o.ghost.empty_activations, o.ghost.activations),
        "frac",
        Base::None,
    );
    let policy: PolicySelf = times.self_times(&fp.clock);
    r.put(
        "live.policy.schedule_ns",
        if policy.schedule_calls == 0 {
            0.0
        } else {
            policy.schedule_ns / policy.schedule_calls as f64
        },
        "ns",
        Base::Host,
    );
    match tails(&mut o.wake) {
        Some((p50, p99, _)) => {
            r.put_n(
                "live.wake_to_run_p50_us",
                p50.value as f64 / 1e3,
                "us",
                Base::Host,
                p50.n,
            );
            r.put_n(
                "live.wake_to_run_p99_us",
                p99.value as f64 / 1e3,
                "us",
                Base::Host,
                p99.n,
            );
        }
        None => r.check(false, || format!("only {} live wake samples", o.wake.len())),
    }
    if let Some((_, p99, _)) = tails(&mut o.late) {
        r.put_n(
            "live.gen_late_p99_us",
            p99.value as f64 / 1e3,
            "us",
            Base::Host,
            p99.n,
        );
    }
    r.put_n(
        "live_p99_us",
        o.lat_p99 as f64 / 1e3,
        "us",
        Base::Host,
        o.lat_n,
    );

    r.put(
        "core.activations",
        o.ghost.activations as f64,
        "count",
        Base::None,
    );
    r.put(
        "core.msgs_posted",
        o.ghost.msgs_posted.iter().sum::<u64>() as f64,
        "count",
        Base::None,
    );
    r.put(
        "core.msgs_dropped",
        o.ghost.msgs_dropped as f64,
        "count",
        Base::None,
    );
    r.put(
        "core.txns_committed",
        o.ghost.txns_committed as f64,
        "count",
        Base::None,
    );
    r.put(
        "policy.on_msg_calls",
        policy.on_msg_calls as f64,
        "count",
        Base::None,
    );
    r.put(
        "policy.schedule_calls",
        policy.schedule_calls as f64,
        "count",
        Base::None,
    );
    r.put("lab.kernel_s", o.lab.kernel, "s", Base::Host);
    r.put("lab.enclave_s", o.lab.enclave, "s", Base::Host);
    r.put("lab.attach_s", o.lab.attach, "s", Base::Host);
    r.put("lab.teardown_s", o.lab.teardown, "s", Base::Host);
    r.put("trace.records", o.trace.records as f64, "count", Base::None);
    r.put("trace.dropped", o.trace.dropped as f64, "count", Base::None);
    r.put("trace.snapshot_s", o.trace.snapshot_s, "s", Base::Host);
    r.put("trace.derive_s", o.trace.derive_s, "s", Base::Host);
    r.put("trace.check_s", o.trace.check_s, "s", Base::Host);
    // Traced against untraced open-phase median latency.
    r.put(
        "trace.overhead_frac",
        o.lat_p50 as f64 / plain.lat_p50.max(1) as f64 - 1.0,
        "frac",
        Base::Host,
    );
    let parts = o.lab.parts();
    r.check(
        (parts - o.lab.outer).abs() <= crate::layers::SETUP_SUM_TOL * o.lab.outer,
        || {
            format!(
                "layer sum: lab parts {parts:.6} s vs setup_s {:.6} s",
                o.lab.outer
            )
        },
    );
    r.acct = plain.acct + o.acct;
    r.put("failed_frac", r.acct.failed_frac(), "frac", Base::None);
    r
}
