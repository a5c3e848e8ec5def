//! `sim-sweep`: the bounded tournament cell list, run serially the way
//! chaos and tournament users drive the DES: per cell, launch, run,
//! trace snapshot, `TraceMetrics::from_records`, `ghost_trace::check`,
//! teardown. Fixed per-cell costs (the 1<<20-slot trace ring above all)
//! dominate, and the crash and overflow rows drive the §3.4 recovery
//! paths no other workload reaches.

use crate::des::{launch_scenario, wake_samples, DesCounts, LabTimes, Sim};
use crate::layers::{report_des, DesLayers, TraceCost};
use crate::probe::{peak_rss_mb, secs_since, Fingerprint, PolicyTimes, RefKind, RefLoop};
use crate::report::{Base, Report};
use crate::stats::{median, tails, Accounting};
use ghost_lab::cache::fnv64_lines;
use ghost_lab::engine::Experiment;
use ghost_lab::scenario::LabRun;
use ghost_lab::tournament::{tournament_cells, TournamentCell, TournamentOpts};
use ghost_sim::kernel::Kernel;
use ghost_trace::check::check;
use ghost_trace::derive::TraceMetrics;
use ghost_trace::{TraceRecord, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// Cells `k * CROSS_STRIDE` (k < 8) are also run by
/// `TournamentCell::execute` and must hash the same; the stride is
/// coprime with the eight policies, so each policy is cross-checked.
const CROSS_STRIDE: usize = 13;
const CROSS_CELLS: usize = 8;

fn cells(seed: u64) -> Vec<TournamentCell> {
    tournament_cells(&TournamentOpts {
        seed,
        bounded: true,
        ..TournamentOpts::default()
    })
}

/// A launched cell: through `Scenario::launch`, or through the
/// benchmark's instrumented setup.
enum Cell {
    Lab(LabRun),
    Own(Sim),
}

impl Cell {
    fn kernel(&mut self) -> &mut Kernel {
        match self {
            Cell::Lab(run) => &mut run.sim.kernel,
            Cell::Own(sim) => &mut sim.kernel,
        }
    }

    fn sink(&self) -> &TraceSink {
        match self {
            Cell::Lab(run) => &run.sim.sink,
            Cell::Own(sim) => &sim.sink,
        }
    }

    fn counts(&self) -> DesCounts {
        match self {
            Cell::Lab(run) => DesCounts::read(&run.sim.kernel, &run.sim.runtime, run.completions()),
            Cell::Own(sim) => sim.counts(),
        }
    }
}

/// One finished cell.
struct CellOut {
    /// Construction calls, s.
    setup_s: f64,
    /// `run_until`, s.
    run_s: f64,
    /// Launch, run, scoring and teardown, s.
    total_s: f64,
    counts: DesCounts,
    /// FNV hash of the result lines, rendered as
    /// `TournamentCell::execute` renders them.
    hash: u64,
    /// No invariant violation and no dropped trace record.
    pass: bool,
}

/// Runs one cell. With `times`, setup goes through the benchmark's
/// timed path with the policy wrapped; otherwise through
/// `Scenario::launch`. `inspect` sees the records outside the timed
/// region.
fn run_cell(
    cell: &TournamentCell,
    times: Option<&Arc<PolicyTimes>>,
    lab: &mut LabTimes,
    trace: &mut TraceCost,
    mut inspect: impl FnMut(&[TraceRecord]),
) -> CellOut {
    let t0 = Instant::now();
    let mut run = match times {
        Some(t) => Cell::Own(launch_scenario(&cell.scenario, Some(t), lab)),
        None => Cell::Lab(cell.scenario.launch()),
    };
    let t_setup = Instant::now();
    run.kernel().run_until(cell.scenario.horizon);
    let t_run = Instant::now();

    let t = Instant::now();
    let records = run.sink().snapshot();
    trace.snapshot_s += secs_since(t);
    let t = Instant::now();
    let metrics = TraceMetrics::from_records(&records);
    trace.derive_s += secs_since(t);
    let t = Instant::now();
    let violations = check(&records);
    trace.check_s += secs_since(t);
    let dropped = run.sink().dropped();
    trace.records += records.len() as u64;
    trace.dropped += dropped;
    let counts = run.counts();
    let tail = metrics.wakeup_to_run.tail_summary();
    let lines = vec![
        format!("policy {}", cell.policy.name()),
        format!("scenario {}", cell.scenario_name),
        format!("fault {}", cell.fault_name),
        format!("completions {}", counts.completions),
        format!("latency-samples {}", tail.count),
        format!("p50-ns {}", tail.p50),
        format!("p99-ns {}", tail.p99),
        format!("p999-ns {}", tail.p999),
        format!("max-ns {}", tail.max),
        format!(
            "slo-violations {}",
            metrics.wakeup_to_run.count_above(cell.slo)
        ),
        match metrics.recovery_max_ns() {
            Some(ns) => format!("recovery-ns {ns}"),
            None => "recovery-ns none".into(),
        },
        format!("invariant-violations {}", violations.len()),
        format!("trace-dropped {dropped}"),
    ];
    let t = Instant::now();
    inspect(&records);
    let inspect_s = secs_since(t);

    drop(records);
    let t = Instant::now();
    drop(run);
    lab.teardown += secs_since(t);
    CellOut {
        setup_s: (t_setup - t0).as_secs_f64(),
        run_s: (t_run - t_setup).as_secs_f64(),
        total_s: secs_since(t0) - inspect_s,
        counts,
        hash: fnv64_lines(&lines),
        pass: violations.is_empty() && dropped == 0,
    }
}

/// Cells between two page-touch reference slices (outside the cells'
/// timed regions).
const TOUCH_EVERY: usize = 12;

/// Sub-seeds of the run's seed; passes cycle through their cell lists,
/// and the wakeup figures pool the first pass on each. Five keep the
/// seed-to-seed spread of the pooled p99 under 8%.
const SUBSEEDS: usize = 5;

fn subseed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(SUBSEEDS as u64)
        .wrapping_add((pass % SUBSEEDS) as u64)
}

/// The end-to-end run: whole passes over the cell lists until the time
/// is up (at least one on each sub-seed).
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();
    let lists: Vec<_> = (0..SUBSEEDS).map(|k| cells(subseed(seed, k))).collect();
    let started = Instant::now();
    let mut setup_per_pass = Vec::new();
    let mut cells_per_s = Vec::new();
    let mut acct = Accounting::default();
    let mut samples = Vec::new();
    let mut passes = 0usize;
    let mut counts = DesCounts::default();
    let mut reference = RefLoop::new(RefKind::PageTouch);
    while passes < SUBSEEDS || secs_since(started) < seconds {
        let cells = &lists[passes % SUBSEEDS];
        let first = passes < SUBSEEDS;
        let mut setup = 0.0;
        let mut total = 0.0;
        let mut lab = LabTimes::default();
        let mut trace = TraceCost::default();
        for (i, cell) in cells.iter().enumerate() {
            let out = run_cell(cell, None, &mut lab, &mut trace, |records| {
                if first {
                    wake_samples(records, &mut samples);
                }
            });
            setup += out.setup_s;
            total += out.total_s;
            acct = acct + Accounting::from_counts(1, u64::from(out.pass), 0);
            if i % TOUCH_EVERY == 0 {
                reference.slice();
            }
            if first {
                counts.add(&out.counts);
            }
            if passes == 0 && i % CROSS_STRIDE == 0 && i / CROSS_STRIDE < CROSS_CELLS {
                let expected = cell.execute();
                r.check(expected.hash == out.hash, || {
                    format!(
                        "{}: result differs from TournamentCell::execute",
                        cell.label()
                    )
                });
            }
        }
        setup_per_pass.push(setup);
        cells_per_s.push(cells.len() as f64 / total);
        passes += 1;
    }
    r.check(counts.completions > 0, || {
        "no cell completed a segment".into()
    });

    r.put_n(
        "setup_s",
        median(&setup_per_pass),
        "s",
        Base::Host,
        passes as u64,
    );
    r.put_n(
        "throughput",
        reference.normalize(median(&cells_per_s)),
        "work/s",
        Base::Host,
        passes as u64,
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
                "pooled sim wake: p50 {} ns (a cost-model constant), p{} {} ns, over {} samples",
                p50.value, top.p, top.value, top.n
            ));
        }
        None => r.check(false, || format!("only {} wake samples", samples.len())),
    }
    r.note(format!(
        "{passes} passes over {} cells; first {SUBSEEDS} passes: {} status-word reconstructions, \
         {} messages dropped; raw {:.3} cells/s, page-touch reference {:.0} MiB/s",
        lists[0].len(),
        counts.reconstructions,
        counts.msgs_dropped,
        median(&cells_per_s),
        reference.rate()
    ));
    r.acct = acct;
    r
}

/// The traced run: one pass through `Scenario::launch` and one through
/// the instrumented setup, compared cell by cell.
pub fn run_traced(seed: u64, fp: &Fingerprint) -> Report {
    let mut r = Report::default();
    let cells = cells(subseed(seed, 0));
    let times = PolicyTimes::new();
    let mut lab = LabTimes::default();
    let mut trace = TraceCost::default();
    let mut plain_lab = LabTimes::default();
    let mut plain_trace = TraceCost::default();
    let mut layers = DesLayers::default();
    let mut acct = Accounting::default();
    for cell in &cells {
        let plain = run_cell(cell, None, &mut plain_lab, &mut plain_trace, |_| {});
        let traced = run_cell(cell, Some(&times), &mut lab, &mut trace, |_| {});
        r.check(
            plain.counts == traced.counts && plain.hash == traced.hash,
            || {
                format!(
                    "{}: instrumentation changed behaviour: {:?} vs {:?}",
                    cell.label(),
                    plain.counts,
                    traced.counts
                )
            },
        );
        layers.counts.add(&traced.counts);
        layers.run_s_plain += plain.run_s;
        layers.run_s_traced += traced.run_s;
        acct = acct + Accounting::from_counts(1, u64::from(traced.pass), 0);
    }
    r.check(trace.records == plain_trace.records, || {
        format!("trace records {} vs {}", trace.records, plain_trace.records)
    });
    layers.policy = times.self_times(&fp.clock);
    layers.lab = lab;
    layers.trace = trace;
    report_des(&mut r, &layers);
    // Every cell records a trace either way, so overhead here is the
    // wrapper and setup timers alone.
    r.note(format!(
        "{} cells; {} status-word reconstructions on the recovery rows",
        cells.len(),
        layers.counts.reconstructions
    ));
    r.acct = acct;
    r.put("failed_frac", r.acct.failed_frac(), "frac", Base::None);
    r
}
