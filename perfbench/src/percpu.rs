//! `sim-percpu`: an 8-CPU SMT machine under the `per-cpu` policy with
//! 16 pulse threads squeezed by 8 CPU hogs, untraced, over a long
//! horizon. Every event is cheap and every agent local, so host time
//! goes to the DES event loop and the runtime hooks.

use crate::des::{launch_scenario, measure_speed, neutrality, timed_run, DesCounts, LabTimes};
use crate::layers::{median_rep, report_des, score_trace, DesLayers};
use crate::probe::{peak_rss_mb, secs_since, Fingerprint, PolicyTimes};
use crate::report::{Base, Report};
use crate::stats::{median, tails, Accounting};
use ghost_lab::scenario::{PolicyKind, Scenario, WorkloadSpec};
use ghost_sim::kernel::Kernel;
use ghost_sim::time::{Nanos, MILLIS};
use std::time::Instant;

/// Launches timed for `setup_s` (at least [`SUBSEEDS`]).
const SETUPS: usize = 16;
/// Virtual horizon of the traced fixed-length runs (wakeup latency,
/// neutrality, per-layer breakdown).
const FIXED_HORIZON: Nanos = 2_000 * MILLIS;
/// Trace ring capacity: holds a whole fixed-horizon run (about 770k
/// records) without drops.
const TRACE_CAPACITY: usize = 1 << 20;
/// Repetitions of the traced run.
const TRACED_REPEATS: usize = 5;
/// Host seconds each speed block (one chunk per simulation) aims for.
const BLOCK_HOST_S: f64 = 0.5;
/// Simulations per run, each on its own sub-seed of the run's seed.
/// Speed and wakeup latency pool them, so no single seed's load shape
/// sets the figure.
const SUBSEEDS: u64 = 8;

fn scenario(seed: u64, trace_capacity: usize) -> Scenario {
    Scenario::builder()
        .name("sim-percpu")
        .cpus(8)
        .policy(PolicyKind::PerCpu)
        .workload(WorkloadSpec::antagonist(16, 8))
        .seed(seed)
        .horizon(FIXED_HORIZON)
        .trace_capacity(trace_capacity)
        .build()
}

/// The seed of the `j`-th of [`SUBSEEDS`] simulations in a run.
fn subseed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(SUBSEEDS).wrapping_add(j)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();

    // Every timed launch stays alive until the speed run starts, so each
    // one pays for fresh memory the way a new process does.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut sims = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS as u64 {
        let sc = scenario(subseed(seed, i % SUBSEEDS), 0);
        let t = Instant::now();
        sims.push(sc.launch());
        setups.push(secs_since(t));
    }
    sims.truncate(SUBSEEDS as usize);

    // Calibrate the chunk on a warm-up, then run blocks of one chunk per
    // simulation, so the figure pools every sub-seed.
    let warm = 20 * MILLIS;
    let warm_s: f64 = sims
        .iter_mut()
        .map(|s| timed_run(&mut s.sim.kernel, warm))
        .sum();
    let chunk = ((warm as f64 * BLOCK_HOST_S / warm_s) as Nanos).max(MILLIS);
    let speed = {
        let mut kernels: Vec<&mut Kernel> = sims.iter_mut().map(|s| &mut s.sim.kernel).collect();
        measure_speed(&mut kernels, chunk, seconds, 6)
    };
    let mut acct = Accounting::default();
    for s in &sims {
        let c = DesCounts::read(&s.sim.kernel, &s.sim.runtime, s.completions());
        r.check(c.completions > 0, || {
            "speed run completed no segment".into()
        });
        acct = acct + c.msg_accounting();
    }
    let simulated = sims.iter().map(|s| s.sim.kernel.now()).sum::<Nanos>();
    drop(sims);

    // Wakeup-to-run latency comes from traced fixed-horizon runs.
    let mut samples = Vec::new();
    for j in 0..SUBSEEDS {
        let mut trun = scenario(subseed(seed, j), TRACE_CAPACITY).launch();
        trun.run_to_horizon();
        let c = DesCounts::read(&trun.sim.kernel, &trun.sim.runtime, trun.completions());
        score_trace(&mut r, &trun.sim.sink, &c, Some(&mut samples));
        acct = acct + c.msg_accounting();
    }

    r.put("setup_s", median(&setups), "s", Base::Host);
    r.put_n(
        "throughput",
        speed.normalized,
        "work/s",
        Base::SimPerHost,
        speed.blocks,
    );
    r.put("peak_rss_mb", peak_rss_mb(), "MB", Base::Host);
    match tails(&mut samples) {
        Some((p50, p99, top)) => {
            r.put_n(
                "latency_us",
                p99.value as f64 / 1e3,
                "us",
                Base::Simulated,
                p99.n,
            );
            r.note(format!(
                "sim wake: p50 {} ns (a cost-model constant), p{} {} ns, over {} samples",
                p50.value, top.p, top.value, top.n
            ));
        }
        None => r.check(false, || format!("only {} wake samples", samples.len())),
    }
    r.acct = acct;
    r.note(format!(
        "speed run: {:.3} simulated s over {SUBSEEDS} sub-seeds in {} blocks, chunk {} ms; \
         raw {:.4} s/s, reference loop {:.3} Msteps/s",
        simulated as f64 / 1e9,
        speed.blocks,
        chunk / MILLIS,
        speed.raw(),
        speed.ref_rate / 1e6
    ));
    r
}

/// The traced run: the same fixed horizon three ways, repeated; the
/// repetition with the median instrumented `run_until` is reported.
pub fn run_traced(seed: u64, fp: &Fingerprint) -> Report {
    let mut r = Report::default();
    let mut reps = Vec::with_capacity(TRACED_REPEATS);
    for _ in 0..TRACED_REPEATS {
        // 1. Unwrapped `Scenario::launch`, untraced: the reference.
        let mut plain = scenario(seed, 0).launch();
        let run_s_plain = timed_run(&mut plain.sim.kernel, FIXED_HORIZON);
        let reference = DesCounts::read(&plain.sim.kernel, &plain.sim.runtime, plain.completions());
        drop(plain);

        // 2. The benchmark's own setup path, untraced and unwrapped.
        let mut own = launch_scenario(&scenario(seed, 0), None, &mut LabTimes::default());
        own.kernel.run_until(FIXED_HORIZON);
        let own_counts = own.counts();
        drop(own);

        // 3. Wrapped policy, recording trace, setup timers.
        let times = PolicyTimes::new();
        let mut lab = LabTimes::default();
        let mut sim = launch_scenario(&scenario(seed, TRACE_CAPACITY), Some(&times), &mut lab);
        let run_s_traced = timed_run(&mut sim.kernel, FIXED_HORIZON);
        let counts = sim.counts();
        let trace = score_trace(&mut r, &sim.sink, &counts, None);
        sim.teardown(&mut lab);

        neutrality(&mut r, "sim-percpu", &reference, &own_counts, &counts);
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
