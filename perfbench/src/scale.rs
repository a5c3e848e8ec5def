//! `sim-scale`: the Fig. 5 oversubscribed shape on the 256-CPU AMD
//! Rome machine. One `centralized-fifo` global agent on CPU 0 schedules
//! 255 CPUs for 200k yield-loop threads, so its `schedule()` over a
//! huge runqueue dominates host time; spawning and attaching the
//! threads makes setup and memory large, and the working set is far
//! beyond CPU caches.

use crate::des::{measure_speed, neutrality, timed_run, LabTimes, Sim};
use crate::layers::{median_rep, report_des, score_trace, DesLayers};
use crate::probe::{peak_rss_mb, secs_since, Fingerprint, PolicyTimes, TimedPolicy};
use crate::report::{Base, Report};
use crate::stats::{median, tails};
use ghost_core::runtime::GhostRuntime;
use ghost_lab::scenario::PolicyKind;
use ghost_sim::app::{App, Next};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::Tid;
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::Topology;
use ghost_trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Yield-loop threads.
const THREADS: usize = 200_000;
/// Per-thread work segment range, drawn from the seed.
const WORK: (Nanos, Nanos) = (20 * MICROS, 30 * MICROS);
/// Virtual time that covers the startup burst: the agent drains two
/// messages per thread before the cohort reaches steady state.
const WARMUP: Nanos = 150 * MILLIS;
/// Virtual length of each measured chunk.
const CHUNK: Nanos = 200 * MILLIS;
/// Setups timed for `setup_s` (each one is torn down before the next).
const SETUPS: usize = 5;
/// Virtual horizon of the traced fixed-length runs.
const FIXED_HORIZON: Nanos = 250 * MILLIS;
/// Repetitions of the traced run.
const TRACED_REPEATS: usize = 3;
/// Trace ring capacity for the traced run.
const TRACE_CAPACITY: usize = 1 << 22;

/// Virtual window whose yield-to-rerun waits make `latency_us`. One
/// FIFO round over the cohort takes about 160 ms and every thread has
/// finished its first segment by 210 ms, so the window opens after
/// that; it lies inside the first measured chunk. It is fixed in
/// simulated time, so the figure is a function of the seed alone.
const WAIT_WINDOW: (Nanos, Nanos) = (250 * MILLIS, 300 * MILLIS);

/// The benchmark's own yield loop: each thread runs its seed-drawn
/// segment, yields, and runs it again. Inside [`WAIT_WINDOW`] it also
/// records how long each thread waited between its yield and the end
/// of its next segment, less that segment's work.
struct YieldApp {
    work: Vec<Nanos>,
    last_end: Vec<Nanos>,
    segments: Arc<Mutex<u64>>,
    waits: Arc<Mutex<Vec<u64>>>,
}

impl App for YieldApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "perfbench-yield"
    }

    fn on_timer(&mut self, _key: u64, _k: &mut KernelState) {}

    fn on_segment_end(&mut self, tid: Tid, k: &mut KernelState) -> Next {
        *self.segments.lock().expect("segment counter lock") += 1;
        let i = tid.index();
        let last = std::mem::replace(&mut self.last_end[i], k.now);
        if last > 0 && k.now >= WAIT_WINDOW.0 && k.now < WAIT_WINDOW.1 {
            let wait = (k.now - last).saturating_sub(self.work[i]).max(1);
            self.waits.lock().expect("wait samples lock").push(wait);
        }
        Next::Yield { dur: self.work[i] }
    }
}

/// Builds the machine from public calls, timing each setup step.
/// Returns it with the yield loop's wait samples.
fn build(
    seed: u64,
    trace_capacity: usize,
    times: Option<&Arc<PolicyTimes>>,
    lab: &mut LabTimes,
) -> (Sim, Arc<Mutex<Vec<u64>>>) {
    let outer = Instant::now();
    let sink = if trace_capacity > 0 {
        TraceSink::recording(1, trace_capacity)
    } else {
        TraceSink::Null
    };
    // Worker SMT contention off, as in the Fig. 5 harness: the threads
    // are scheduling churn, not pipeline pressure.
    let cfg = KernelConfig {
        smt_model: false,
        seed,
        trace: sink.clone(),
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(Topology::rome_256(), cfg);
    let t_kernel = Instant::now();

    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let cpus = kernel.state.topo.all_cpus_set();
    // Room for the startup burst: two messages per thread before the
    // agent first runs.
    let config = PolicyKind::CentralizedFifo
        .enclave_config("sim-scale")
        .with_queue_capacity(65_536.max(2 * THREADS + 1_024));
    let policy = PolicyKind::CentralizedFifo.build();
    let policy = match times {
        Some(t) => TimedPolicy::wrap(policy, t),
        None => policy,
    };
    let enclave = runtime.launch_enclave(&mut kernel, cpus, config, policy);
    let t_enclave = Instant::now();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1E);
    let app = kernel.state.next_app_id();
    let mut tids = Vec::with_capacity(THREADS);
    let mut work = vec![WORK.0; kernel.state.threads.len() + THREADS];
    for i in 0..THREADS {
        let tid = kernel.spawn(
            ThreadSpec::workload(&format!("y{i}"), &kernel.state.topo)
                .app(app)
                .affinity(cpus),
        );
        if work.len() <= tid.index() {
            work.resize(tid.index() + 1, WORK.0);
        }
        work[tid.index()] = rng.gen_range(WORK.0..WORK.1);
        tids.push(tid);
    }
    let segments = Arc::new(Mutex::new(0u64));
    let waits = Arc::new(Mutex::new(Vec::new()));
    kernel.add_app(Box::new(YieldApp {
        last_end: vec![0; work.len()],
        work,
        segments: Arc::clone(&segments),
        waits: Arc::clone(&waits),
    }));
    // Staggered initial phases, so the cohort does not lock into giant
    // synchronized commits.
    for &tid in &tids {
        enclave.attach_thread(&mut kernel.state, tid);
        let phase = rng.gen_range(MICROS..WORK.1);
        kernel.state.thread_mut(tid).remaining = phase;
    }
    for &tid in &tids {
        kernel.wake_now(tid);
    }
    let t_attach = Instant::now();

    lab.kernel += (t_kernel - outer).as_secs_f64();
    lab.enclave += (t_enclave - t_kernel).as_secs_f64();
    lab.attach += (t_attach - t_enclave).as_secs_f64();
    lab.outer += secs_since(outer);
    let sim = Sim {
        kernel,
        runtime,
        enclave,
        sink,
        completions: segments,
    };
    (sim, waits)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut sim = None;
    for _ in 0..SETUPS {
        drop(sim.take());
        let mut lab = LabTimes::default();
        sim = Some(build(seed, 0, None, &mut lab));
        setups.push(lab.outer);
    }
    let (mut sim, waits) = sim.expect("SETUPS > 0");
    let started = Instant::now();
    sim.kernel.run_until(WARMUP);
    let warm = sim.counts();
    let budget = (seconds - secs_since(started)).max(0.0);
    let speed = measure_speed(&mut [&mut sim.kernel], CHUNK, budget, 5);
    let end = sim.counts();
    let measured_ns = sim.kernel.now() - WARMUP;
    let commits_per_s =
        (end.txns_committed - warm.txns_committed) as f64 / (measured_ns as f64 / 1e9);
    r.check(end.completions > warm.completions, || {
        "no segment completed after warm-up".into()
    });
    r.check(end.msgs_dropped == 0, || {
        format!("{} messages dropped", end.msgs_dropped)
    });

    r.put("setup_s", median(&setups), "s", Base::Host);
    r.put_n(
        "throughput",
        speed.normalized,
        "work/s",
        Base::SimPerHost,
        speed.blocks,
    );
    r.put("peak_rss_mb", peak_rss_mb(), "MB", Base::Host);
    let mut waits = std::mem::take(&mut *waits.lock().expect("wait samples lock"));
    match tails(&mut waits) {
        Some((p50, p99, top)) => {
            r.put_n(
                "latency_us",
                p99.value as f64 / 1e3,
                "us",
                Base::Simulated,
                p99.n,
            );
            r.note(format!(
                "yield-to-rerun wait: p50 {} ns, p{} {} ns, over {} samples",
                p50.value, top.p, top.value, top.n
            ));
        }
        None => r.check(false, || format!("only {} wait samples", waits.len())),
    }
    r.acct = end.msg_accounting();
    r.note(format!(
        "measured {:.3} simulated s after a {} ms warm-up in {} chunks; {} commits, \
         {commits_per_s:.0} per simulated s; raw {:.5} s/s, reference loop {:.3} Msteps/s",
        measured_ns as f64 / 1e9,
        WARMUP / MILLIS,
        speed.blocks,
        end.txns_committed - warm.txns_committed,
        speed.raw(),
        speed.ref_rate / 1e6
    ));
    r
}

/// The traced run: the same fixed horizon with and without
/// instrumentation, repeated; the repetition with the median
/// instrumented `run_until` is reported.
pub fn run_traced(seed: u64, fp: &Fingerprint) -> Report {
    let mut r = Report::default();
    let mut reps = Vec::with_capacity(TRACED_REPEATS);
    for _ in 0..TRACED_REPEATS {
        let (mut plain, _) = build(seed, 0, None, &mut LabTimes::default());
        let run_s_plain = timed_run(&mut plain.kernel, FIXED_HORIZON);
        let reference = plain.counts();
        drop(plain);

        let times = PolicyTimes::new();
        let mut lab = LabTimes::default();
        let (mut sim, _) = build(seed, TRACE_CAPACITY, Some(&times), &mut lab);
        let run_s_traced = timed_run(&mut sim.kernel, FIXED_HORIZON);
        let counts = sim.counts();
        let trace = score_trace(&mut r, &sim.sink, &counts, Some(&mut Vec::new()));
        sim.teardown(&mut lab);

        // No `Scenario` can express the yield loop, so the reference is
        // the benchmark's own setup path without any instrumentation.
        neutrality(&mut r, "sim-scale", &reference, &reference, &counts);
        reps.push(DesLayers {
            counts,
            run_s_plain,
            run_s_traced,
            policy: times.self_times(&fp.clock),
            lab,
            trace,
        });
    }
    let layers = median_rep(reps);
    report_des(&mut r, &layers);
    r.acct = layers.counts.msg_accounting();
    r.put("failed_frac", r.acct.failed_frac(), "frac", Base::None);
    r
}
