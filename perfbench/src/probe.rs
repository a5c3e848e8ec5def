//! Measurement from outside the program: the machine fingerprint, the
//! clock's own cost, peak memory, and a pass-through policy wrapper
//! that times every call into a `GhostPolicy`.

use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::recovery::ThreadSnapshot;
use ghost_core::Message;
use ghost_sim::topology::CpuId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Cost of reading the clock, measured on this machine.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// Mean cost of one `Instant::now()`, ns.
    pub read_ns: f64,
    /// Median duration an empty timed span reports, ns: the part of the
    /// two clock reads that lands inside every measured span. The policy
    /// wrapper subtracts it once per call.
    pub empty_span_ns: f64,
}

impl ClockCost {
    /// Calibrates against the clock the wrapper uses.
    pub fn calibrate() -> Self {
        const READS: u32 = 200_000;
        let t = Instant::now();
        for _ in 0..READS {
            black_box(Instant::now());
        }
        let read_ns = t.elapsed().as_nanos() as f64 / f64::from(READS);
        let mut spans: Vec<f64> = (0..20_001)
            .map(|_| {
                let s = Instant::now();
                black_box(());
                s.elapsed().as_nanos() as f64
            })
            .collect();
        spans.sort_by(f64::total_cmp);
        ClockCost {
            read_ns,
            empty_span_ns: spans[spans.len() / 2],
        }
    }
}

/// The machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// Kernel clocksource.
    pub clocksource: String,
    /// Measured clock cost.
    pub clock: ClockCost,
}

impl Fingerprint {
    /// Reads the fingerprint and calibrates the clock.
    pub fn take() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let clocksource = std::fs::read_to_string(
            "/sys/devices/system/clocksource/clocksource0/current_clocksource",
        )
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            clocksource,
            clock: ClockCost::calibrate(),
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Call counts and raw nanoseconds accumulated by [`TimedPolicy`]
/// instances. Shared by every copy of the policy an enclave builds
/// (staged upgrade, standby respawn).
#[derive(Debug, Default)]
pub struct PolicyTimes {
    on_msg: Slot,
    schedule: Slot,
    other: Slot,
}

#[derive(Debug, Default)]
struct Slot {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Slot {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        r
    }

    fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// A snapshot of [`PolicyTimes`] with the clock cost taken out.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicySelf {
    /// `on_msg` calls.
    pub on_msg_calls: u64,
    /// `on_msg` self time, ns.
    pub on_msg_ns: f64,
    /// `schedule` calls.
    pub schedule_calls: u64,
    /// `schedule` self time (commit validation included), ns.
    pub schedule_ns: f64,
    /// Reconstruct / CPU grant / CPU revoke calls.
    pub other_calls: u64,
    /// Their self time, ns.
    pub other_ns: f64,
}

impl PolicySelf {
    /// Total policy self time, ns.
    pub fn total_ns(&self) -> f64 {
        self.on_msg_ns + self.schedule_ns + self.other_ns
    }
}

impl PolicyTimes {
    /// A fresh accumulator.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Self times with `empty_span_ns` subtracted once per call.
    pub fn self_times(&self, clock: &ClockCost) -> PolicySelf {
        let corrected = |(calls, ns): (u64, u64)| {
            (
                calls,
                (ns as f64 - calls as f64 * clock.empty_span_ns).max(0.0),
            )
        };
        let (on_msg_calls, on_msg_ns) = corrected(self.on_msg.read());
        let (schedule_calls, schedule_ns) = corrected(self.schedule.read());
        let (other_calls, other_ns) = corrected(self.other.read());
        PolicySelf {
            on_msg_calls,
            on_msg_ns,
            schedule_calls,
            schedule_ns,
            other_calls,
            other_ns,
        }
    }
}

/// A pass-through `GhostPolicy` that times each call into `inner`.
pub struct TimedPolicy {
    inner: Box<dyn GhostPolicy>,
    times: Arc<PolicyTimes>,
}

impl TimedPolicy {
    /// Wraps `inner`, accumulating into `times`.
    pub fn wrap(inner: Box<dyn GhostPolicy>, times: &Arc<PolicyTimes>) -> Box<dyn GhostPolicy> {
        Box::new(TimedPolicy {
            inner,
            times: Arc::clone(times),
        })
    }
}

impl GhostPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        let inner = &mut self.inner;
        self.times.on_msg.time(|| inner.on_msg(msg, ctx));
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        let inner = &mut self.inner;
        self.times.schedule.time(|| inner.schedule(ctx));
    }

    fn on_reconstruct(&mut self, snapshot: &[ThreadSnapshot], ctx: &mut PolicyCtx<'_>) {
        let inner = &mut self.inner;
        self.times
            .other
            .time(|| inner.on_reconstruct(snapshot, ctx));
    }

    fn on_cpu_grant(&mut self, cpu: CpuId, ctx: &mut PolicyCtx<'_>) {
        let inner = &mut self.inner;
        self.times.other.time(|| inner.on_cpu_grant(cpu, ctx));
    }

    fn on_cpu_revoke(&mut self, cpu: CpuId, ctx: &mut PolicyCtx<'_>) {
        let inner = &mut self.inner;
        self.times.other.time(|| inner.on_cpu_revoke(cpu, ctx));
    }
}

/// Which host capability a reference loop exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKind {
    /// A small binary-heap event loop over a table of per-entity state:
    /// branchy, cache-resident work like the DES event loop's.
    EventHeap,
    /// First-touching and freeing a fresh 48 MiB buffer: the page-fault
    /// and zeroing work that building a 1<<20-slot trace ring costs.
    PageTouch,
}

impl RefKind {
    /// Work per host second on the reference box (2-vCPU Intel Xeon,
    /// see `README.md`): heap steps for `EventHeap`, MiB for
    /// `PageTouch`. Normalized metrics are in units of this host.
    pub fn nominal_rate(self) -> f64 {
        match self {
            RefKind::EventHeap => 11.0e6,
            RefKind::PageTouch => 1_670.0,
        }
    }
}

/// Heap steps in one `EventHeap` slice, about 36 ms on the reference box.
const HEAP_SLICE: u32 = 400_000;
/// MiB first-touched by one `PageTouch` slice.
const TOUCH_MIB: usize = 48;

/// A frozen reference workload. Slices of it run between measured
/// blocks, so its rate tracks how fast the host runs that kind of work
/// at that moment. It belongs to the benchmark and never changes with
/// the program, so a change to the program moves a normalized metric
/// exactly as much as the raw one.
pub struct RefLoop {
    kind: RefKind,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<u64>,
    x: u64,
    work: f64,
    host_s: f64,
}

impl RefLoop {
    /// A reference loop of `kind`, deterministic.
    pub fn new(kind: RefKind) -> Self {
        RefLoop {
            kind,
            heap: (0..4096u32)
                .map(|i| Reverse((u64::from(i) * 7, i)))
                .collect(),
            state: vec![0; 4096],
            x: 0x9E37_79B9_7F4A_7C15,
            work: 0.0,
            host_s: 0.0,
        }
    }

    /// Runs one slice and accumulates its host time.
    pub fn slice(&mut self) {
        let t = Instant::now();
        match self.kind {
            RefKind::EventHeap => {
                for _ in 0..HEAP_SLICE {
                    let Reverse((at, id)) = self.heap.pop().expect("the heap is never empty");
                    self.x ^= self.x << 13;
                    self.x ^= self.x >> 7;
                    self.x ^= self.x << 17;
                    let s = &mut self.state[id as usize];
                    *s = s.wrapping_add(self.x);
                    let dt = if *s & 3 == 0 {
                        self.x % 1000
                    } else {
                        50 + self.x % 97
                    };
                    self.heap.push(Reverse((at + dt, id)));
                }
                black_box(&self.state);
                self.work += f64::from(HEAP_SLICE);
            }
            RefKind::PageTouch => {
                black_box(vec![1u8; TOUCH_MIB << 20]);
                self.work += TOUCH_MIB as f64;
            }
        }
        self.host_s += secs_since(t);
    }

    /// Work per host second over every slice so far.
    pub fn rate(&self) -> f64 {
        self.work / self.host_s
    }

    /// Scales a per-host-second figure to a host that runs this loop at
    /// its nominal rate.
    pub fn normalize(&self, per_host_s: f64) -> f64 {
        per_host_s * self.kind.nominal_rate() / self.rate()
    }
}
