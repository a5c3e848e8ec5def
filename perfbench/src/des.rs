//! Shared pieces of the three DES workloads: setup rebuilt from public
//! calls with a timer around each layer, the counts every run is
//! compared on, and exact wakeup-to-run samples read from a trace.

use crate::probe::{secs_since, PolicyTimes, RefKind, RefLoop, TimedPolicy};
use crate::report::Report;
use crate::stats::Accounting;
use ghost_core::runtime::{EnclaveHandle, GhostRuntime};
use ghost_core::StandbyConfig;
use ghost_lab::scenario::{attach_workload, Scenario};
use ghost_sim::kernel::{Kernel, KernelConfig};
use ghost_sim::time::Nanos;
use ghost_sim::topology::CpuId;
use ghost_sim::CpuSet;
use ghost_trace::{TraceEvent, TraceRecord, TraceSink, NO_TID};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Seconds spent in each ghost-lab setup step, summed over launches.
#[derive(Debug, Clone, Copy, Default)]
pub struct LabTimes {
    /// Trace sink and `Kernel::new`.
    pub kernel: f64,
    /// `GhostRuntime::new` and enclave launch (agents spawned).
    pub enclave: f64,
    /// Spawning and attaching the workload threads.
    pub attach: f64,
    /// Dropping the whole simulation.
    pub teardown: f64,
    /// One outer timer around kernel + enclave + attach, for the
    /// layer-sum check.
    pub outer: f64,
}

impl LabTimes {
    /// The construction steps that make up `setup_s`.
    pub fn parts(&self) -> f64 {
        self.kernel + self.enclave + self.attach
    }
}

/// A wired simulation, built by the benchmark from public calls.
pub struct Sim {
    /// The simulated kernel.
    pub kernel: Kernel,
    /// Its ghOSt runtime.
    pub runtime: GhostRuntime,
    /// The one enclave.
    pub enclave: EnclaveHandle,
    /// Trace sink (`Null` when untraced).
    pub sink: TraceSink,
    /// Workload segments completed.
    pub completions: Arc<Mutex<u64>>,
}

impl Sim {
    /// The counts every variant of one run must agree on.
    pub fn counts(&self) -> DesCounts {
        DesCounts::read(
            &self.kernel,
            &self.runtime,
            *self.completions.lock().expect("completion counter lock"),
        )
    }

    /// Drops the simulation, timing it into `lab.teardown`.
    pub fn teardown(self, lab: &mut LabTimes) {
        let t = Instant::now();
        drop(self);
        lab.teardown += secs_since(t);
    }
}

/// The observable outcome of a DES run: simulator and runtime counters
/// plus workload completions. Instrumentation must leave it unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesCounts {
    /// Events processed.
    pub events: u64,
    /// Context switches.
    pub ctx_switches: u64,
    /// Reschedule IPIs sent.
    pub ipis: u64,
    /// Timer ticks.
    pub ticks: u64,
    /// Agent activations.
    pub activations: u64,
    /// Activations that drained no message.
    pub empty_activations: u64,
    /// Messages posted.
    pub msgs_posted: u64,
    /// Messages dropped on a full queue.
    pub msgs_dropped: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Transactions that failed for any reason.
    pub txns_failed: u64,
    /// `TXNS_COMMIT()` calls carrying more than one transaction.
    pub group_commits: u64,
    /// Status-word reconstructions (§3.4 recovery and upgrades).
    pub reconstructions: u64,
    /// Workload segments completed.
    pub completions: u64,
}

impl DesCounts {
    /// Reads the counts of a run.
    pub fn read(kernel: &Kernel, runtime: &GhostRuntime, completions: u64) -> Self {
        let s = runtime.stats();
        let k = &kernel.state.stats;
        DesCounts {
            events: k.events,
            ctx_switches: k.ctx_switches,
            ipis: k.ipis_sent,
            ticks: k.ticks,
            activations: s.activations,
            empty_activations: s.empty_activations,
            msgs_posted: s.msgs_posted.iter().sum(),
            msgs_dropped: s.msgs_dropped,
            txns_committed: s.txns_committed,
            txns_failed: s.txns_stale
                + s.txns_not_runnable
                + s.txns_cpu_busy
                + s.txns_cpu_unavailable
                + s.txns_aborted
                + s.txns_unknown_target,
            group_commits: s.group_commits,
            reconstructions: s.reconstructions,
            completions,
        }
    }

    /// Messages as attempts and dropped messages as failures: a dropped
    /// wakeup strands a thread.
    pub fn msg_accounting(&self) -> Accounting {
        Accounting::from_counts(self.msgs_posted, self.msgs_posted - self.msgs_dropped, 0)
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &DesCounts) {
        self.events += o.events;
        self.ctx_switches += o.ctx_switches;
        self.ipis += o.ipis;
        self.ticks += o.ticks;
        self.activations += o.activations;
        self.empty_activations += o.empty_activations;
        self.msgs_posted += o.msgs_posted;
        self.msgs_dropped += o.msgs_dropped;
        self.txns_committed += o.txns_committed;
        self.txns_failed += o.txns_failed;
        self.group_commits += o.group_commits;
        self.reconstructions += o.reconstructions;
        self.completions += o.completions;
    }
}

/// Builds `sc` exactly as `Scenario::launch` does, from the same public
/// calls, with a timer around each setup step. With `times`, every
/// policy instance the enclave gets (initial, staged upgrade, standby
/// respawn) is wrapped in a [`TimedPolicy`].
pub fn launch_scenario(sc: &Scenario, times: Option<&Arc<PolicyTimes>>, lab: &mut LabTimes) -> Sim {
    let wrap = |p| match times {
        Some(t) => TimedPolicy::wrap(p, t),
        None => p,
    };
    let outer = Instant::now();
    let sink = if sc.trace_capacity > 0 {
        TraceSink::recording(1, sc.trace_capacity)
    } else {
        TraceSink::Null
    };
    let mut config = KernelConfig {
        seed: sc.seed,
        trace: sink.clone(),
        faults: sc.faults.clone(),
        ..KernelConfig::default()
    };
    if let Some(t) = sc.tick_ns {
        config.tick_ns = t;
    }
    let mut kernel = Kernel::new(sc.topology.build(), config);
    let t_kernel = Instant::now();

    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let cpus: CpuSet = match &sc.enclave_cpus {
        Some(list) => list.iter().copied().map(CpuId).collect(),
        None => sc.policy.enclave_cpus(&kernel.state.topo),
    };
    let mut econfig = sc.policy.enclave_config(&sc.name);
    if let Some(w) = sc.watchdog {
        econfig = econfig.with_watchdog(w);
    }
    if sc.standby {
        econfig = econfig.with_standby(StandbyConfig::default());
    }
    let enclave = runtime.launch_enclave(&mut kernel, cpus, econfig, wrap(sc.policy.build()));
    if sc.stage_upgrade {
        enclave.stage_upgrade(wrap(sc.policy.build()));
    }
    if sc.standby {
        let policy = sc.policy;
        let times = times.cloned();
        enclave.set_standby_policy(move || match &times {
            Some(t) => TimedPolicy::wrap(policy.build(), t),
            None => policy.build(),
        });
    }
    let t_enclave = Instant::now();

    let (_, completions) = attach_workload(&mut kernel, &enclave, &sc.workload, sc.seed, sc.policy);
    let t_attach = Instant::now();

    lab.kernel += (t_kernel - outer).as_secs_f64();
    lab.enclave += (t_enclave - t_kernel).as_secs_f64();
    lab.attach += (t_attach - t_enclave).as_secs_f64();
    lab.outer += secs_since(outer);
    Sim {
        kernel,
        runtime,
        enclave,
        sink,
        completions,
    }
}

/// Runs `kernel` from its current time to `until` and returns the host
/// seconds `run_until` took.
pub fn timed_run(kernel: &mut Kernel, until: Nanos) -> f64 {
    let t = Instant::now();
    kernel.run_until(until);
    secs_since(t)
}

/// Simulated and host time over the measured blocks of a speed run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Speed {
    /// Blocks run.
    pub blocks: u64,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Host seconds `run_until` took.
    pub host_s: f64,
    /// `sim_s / host_s` scaled by the reference loop run between the
    /// blocks (see [`RefLoop::normalize`]).
    pub normalized: f64,
    /// That loop's measured rate, heap steps per host second.
    pub ref_rate: f64,
}

impl Speed {
    /// Simulated seconds per host second, as measured.
    pub fn raw(&self) -> f64 {
        self.sim_s / self.host_s
    }
}

/// Runs `kernels` in blocks, each advancing every kernel by `chunk`
/// virtual ns and then running one reference slice, until `budget_s`
/// host seconds have passed (and at least `min_blocks` blocks ran).
pub fn measure_speed(
    kernels: &mut [&mut Kernel],
    chunk: Nanos,
    budget_s: f64,
    min_blocks: u64,
) -> Speed {
    let start = Instant::now();
    let mut reference = RefLoop::new(RefKind::EventHeap);
    let mut speed = Speed::default();
    while speed.blocks < min_blocks || secs_since(start) < budget_s {
        for k in kernels.iter_mut() {
            let until = k.now() + chunk;
            speed.host_s += timed_run(k, until);
            speed.sim_s += chunk as f64 / 1e9;
        }
        reference.slice();
        speed.blocks += 1;
    }
    speed.ref_rate = reference.rate();
    speed.normalized = reference.normalize(speed.raw());
    speed
}

/// Exact wakeup-to-run samples (ns) from a trace, by the rule
/// `TraceMetrics` uses: a thread's first unserviced `SchedWakeup` to
/// its next switch-in, floored at 1 ns.
pub fn wake_samples(records: &[TraceRecord], out: &mut Vec<u64>) {
    let mut woken: HashMap<u32, Nanos> = HashMap::new();
    for rec in records {
        match rec.event {
            TraceEvent::SchedWakeup { tid, .. } => {
                woken.entry(tid).or_insert(rec.ts);
            }
            TraceEvent::SchedSwitch { next_tid, .. } if next_tid != NO_TID => {
                if let Some(at) = woken.remove(&next_tid) {
                    out.push(rec.ts.saturating_sub(at).max(1));
                }
            }
            _ => {}
        }
    }
}

/// Records a problem unless all variants of one run agree exactly.
pub fn neutrality(
    r: &mut Report,
    what: &str,
    reference: &DesCounts,
    own: &DesCounts,
    traced: &DesCounts,
) {
    r.check(reference == own, || {
        format!("{what}: benchmark setup path changed behaviour: {reference:?} vs {own:?}")
    });
    r.check(reference == traced, || {
        format!("{what}: instrumentation changed behaviour: {reference:?} vs {traced:?}")
    });
}
