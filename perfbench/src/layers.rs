//! The end-to-end and per-layer metric sets, and the DES breakdown
//! shared by the three simulator workloads.

use crate::des::{wake_samples, DesCounts, LabTimes};
use crate::probe::{secs_since, PolicySelf};
use crate::report::{Base, Report};
use ghost_trace::check::check;
use ghost_trace::derive::TraceMetrics;
use ghost_trace::TraceSink;
use std::time::Instant;

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
/// Every workload reports each one, in the workload's own terms: the
/// README says what `throughput` counts and which latency `latency_us`
/// is on each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput", "work/s"),
    ("latency_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Records a problem for every end-to-end metric the workload did not
/// report (or reported in another unit), and drops anything not in
/// [`END_TO_END`].
pub fn complete_end_to_end(r: &mut Report) {
    for &(name, unit) in END_TO_END {
        let found = r.metrics.iter().find(|m| m.name == name).map(|m| m.unit);
        r.check(found == Some(unit), || {
            format!("end-to-end metric {name} in {unit} not reported (found {found:?})")
        });
    }
    keep_in_order(r, END_TO_END);
}

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order. A
/// traced run reports each one; a layer the workload does not run
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.ctx_switches", "count"),
    ("sim.ipis", "count"),
    ("sim.ticks", "count"),
    ("core.rest_ns_per_event", "ns"),
    ("core.activations", "count"),
    ("core.empty_activation_frac", "frac"),
    ("core.msgs_posted", "count"),
    ("core.msgs_dropped", "count"),
    ("core.txns_committed", "count"),
    ("core.commit_ok_frac", "frac"),
    ("core.txns_per_group_commit", "count"),
    ("policy.on_msg_calls", "count"),
    ("policy.on_msg_ns", "ns"),
    ("policy.schedule_calls", "count"),
    ("policy.schedule_ns", "ns"),
    ("policy.share", "frac"),
    ("lab.kernel_s", "s"),
    ("lab.enclave_s", "s"),
    ("lab.attach_s", "s"),
    ("lab.teardown_s", "s"),
    ("trace.records", "count"),
    ("trace.dropped", "count"),
    ("trace.snapshot_s", "s"),
    ("trace.derive_s", "s"),
    ("trace.check_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("live.kick_ns_p50", "ns"),
    ("live.kick_ns_p99", "ns"),
    ("live.dispatches_per_req", "count"),
    ("live.wakes", "count"),
    ("live.ipis", "count"),
    ("live.preempts", "count"),
    ("live.activations", "count"),
    ("live.empty_activation_frac", "frac"),
    ("live.policy.schedule_ns", "ns"),
    ("live.wake_to_run_p50_us", "us"),
    ("live.wake_to_run_p99_us", "us"),
    ("live.gen_late_p99_us", "us"),
    ("live_p99_us", "us"),
    ("failed_frac", "frac"),
];

/// Adds a 0 for every per-layer metric the workload did not report,
/// and drops anything not in [`PER_LAYER`].
pub fn complete_per_layer(r: &mut Report) {
    for &(name, unit) in PER_LAYER {
        if !r.metrics.iter().any(|m| m.name == name) {
            r.put(name, 0.0, unit, Base::None);
        }
    }
    keep_in_order(r, PER_LAYER);
}

/// Drops every metric not in `set` and sorts the rest into its order.
fn keep_in_order(r: &mut Report, set: &[(&str, &str)]) {
    r.metrics
        .retain(|m| set.iter().any(|&(name, _)| name == m.name));
    r.metrics.sort_by_key(|m| {
        set.iter()
            .position(|&(name, _)| name == m.name)
            .expect("retained above")
    });
}

/// Host cost of reading back and scoring a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCost {
    /// Records read back.
    pub records: u64,
    /// Records overwritten in the ring.
    pub dropped: u64,
    /// `TraceSink::snapshot`, s.
    pub snapshot_s: f64,
    /// `TraceMetrics::from_records`, s.
    pub derive_s: f64,
    /// `ghost_trace::check`, s.
    pub check_s: f64,
}

/// What a DES traced run measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesLayers {
    /// Counts of the traced run (equal to the untraced run's).
    pub counts: DesCounts,
    /// `run_until` host seconds, uninstrumented run.
    pub run_s_plain: f64,
    /// `run_until` host seconds, instrumented run.
    pub run_s_traced: f64,
    /// Policy self time in the instrumented run.
    pub policy: PolicySelf,
    /// Setup timers of the instrumented run.
    pub lab: LabTimes,
    /// Trace read-back and scoring cost.
    pub trace: TraceCost,
}

/// The repetition whose instrumented `run_until` is the median.
pub fn median_rep(mut reps: Vec<DesLayers>) -> DesLayers {
    assert!(!reps.is_empty(), "at least one traced repetition");
    reps.sort_by(|a, b| a.run_s_traced.total_cmp(&b.run_s_traced));
    reps[reps.len() / 2]
}

/// Reads back and scores the trace of a finished traced DES run, timing
/// each step, and records a problem for any invariant violation, any
/// dropped record, or commits that disagree with the runtime. With
/// `wake`, also collects exact wakeup-to-run samples and checks their
/// count against `TraceMetrics`.
pub fn score_trace(
    r: &mut Report,
    sink: &TraceSink,
    counts: &DesCounts,
    wake: Option<&mut Vec<u64>>,
) -> TraceCost {
    let t = Instant::now();
    let records = sink.snapshot();
    let snapshot_s = secs_since(t);
    let t = Instant::now();
    let metrics = TraceMetrics::from_records(&records);
    let derive_s = secs_since(t);
    let t = Instant::now();
    let violations = check(&records);
    let check_s = secs_since(t);
    let dropped = sink.dropped();
    r.check(violations.is_empty(), || {
        format!(
            "trace check: {} violations, first {:?}",
            violations.len(),
            violations.first()
        )
    });
    r.check(dropped == 0, || {
        format!("trace ring dropped {dropped} records")
    });
    r.check(metrics.txns_ok == counts.txns_committed, || {
        format!(
            "trace commits {} != runtime {}",
            metrics.txns_ok, counts.txns_committed
        )
    });
    if let Some(out) = wake {
        let before = out.len();
        wake_samples(&records, out);
        let n = (out.len() - before) as u64;
        r.check(n == metrics.wakeup_to_run.count(), || {
            format!(
                "wake samples {n} != TraceMetrics count {}",
                metrics.wakeup_to_run.count()
            )
        });
    }
    TraceCost {
        records: records.len() as u64,
        dropped,
        snapshot_s,
        derive_s,
        check_s,
    }
}

/// Relative tolerance of the `lab.*` → `setup_s` layer sum: the outer
/// timer also covers the few statements between the timed steps.
pub const SETUP_SUM_TOL: f64 = 0.05;
/// Relative tolerance of the policy + rest → `run_until` layer sum
/// (rounding of the reported per-event figure).
pub const RUN_SUM_TOL: f64 = 0.001;

/// Reports the DES layers and checks that they add up.
pub fn report_des(r: &mut Report, d: &DesLayers) {
    let c = &d.counts;
    let events = c.events.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    r.put("sim.events", c.events as f64, "count", Base::None);
    r.put(
        "sim.host_ns_per_event",
        d.run_s_plain * 1e9 / events,
        "ns",
        Base::Host,
    );
    r.put(
        "sim.ctx_switches",
        c.ctx_switches as f64,
        "count",
        Base::None,
    );
    r.put("sim.ipis", c.ipis as f64, "count", Base::None);
    r.put("sim.ticks", c.ticks as f64, "count", Base::None);

    let run_ns = d.run_s_traced * 1e9;
    let policy_ns = d.policy.total_ns();
    let rest = (run_ns - policy_ns) / events;
    r.put("core.rest_ns_per_event", rest, "ns", Base::Host);
    r.put(
        "core.activations",
        c.activations as f64,
        "count",
        Base::None,
    );
    r.put(
        "core.empty_activation_frac",
        ratio(c.empty_activations, c.activations),
        "frac",
        Base::None,
    );
    r.put(
        "core.msgs_posted",
        c.msgs_posted as f64,
        "count",
        Base::None,
    );
    r.put(
        "core.msgs_dropped",
        c.msgs_dropped as f64,
        "count",
        Base::None,
    );
    r.put(
        "core.txns_committed",
        c.txns_committed as f64,
        "count",
        Base::None,
    );
    r.put(
        "core.commit_ok_frac",
        ratio(c.txns_committed, c.txns_committed + c.txns_failed),
        "frac",
        Base::None,
    );
    r.put(
        "core.txns_per_group_commit",
        ratio(c.txns_committed, c.group_commits),
        "count",
        Base::None,
    );

    let p = &d.policy;
    let per_call = |ns: f64, calls: u64| if calls == 0 { 0.0 } else { ns / calls as f64 };
    r.put(
        "policy.on_msg_calls",
        p.on_msg_calls as f64,
        "count",
        Base::None,
    );
    r.put(
        "policy.on_msg_ns",
        per_call(p.on_msg_ns, p.on_msg_calls),
        "ns",
        Base::Host,
    );
    r.put(
        "policy.schedule_calls",
        p.schedule_calls as f64,
        "count",
        Base::None,
    );
    r.put(
        "policy.schedule_ns",
        per_call(p.schedule_ns, p.schedule_calls),
        "ns",
        Base::Host,
    );
    r.put(
        "policy.share",
        policy_ns / run_ns.max(1.0),
        "frac",
        Base::Host,
    );

    r.put("lab.kernel_s", d.lab.kernel, "s", Base::Host);
    r.put("lab.enclave_s", d.lab.enclave, "s", Base::Host);
    r.put("lab.attach_s", d.lab.attach, "s", Base::Host);
    r.put("lab.teardown_s", d.lab.teardown, "s", Base::Host);

    r.put("trace.records", d.trace.records as f64, "count", Base::None);
    r.put("trace.dropped", d.trace.dropped as f64, "count", Base::None);
    r.put("trace.snapshot_s", d.trace.snapshot_s, "s", Base::Host);
    r.put("trace.derive_s", d.trace.derive_s, "s", Base::Host);
    r.put("trace.check_s", d.trace.check_s, "s", Base::Host);
    r.put(
        "trace.overhead_frac",
        d.run_s_traced / d.run_s_plain - 1.0,
        "frac",
        Base::Host,
    );

    // Layer sums. Policy self time cannot exceed the run it sits in (a
    // larger value means the clock cost was under-subtracted), and the
    // reported per-event remainder must give back the measured run.
    r.check(policy_ns > 0.0 && policy_ns < run_ns, || {
        format!("layer sum: policy self {policy_ns:.0} ns outside run_until {run_ns:.0} ns")
    });
    let rebuilt = policy_ns + rest * events;
    r.check((rebuilt - run_ns).abs() <= RUN_SUM_TOL * run_ns, || {
        format!("layer sum: policy + rest x events = {rebuilt:.0} ns vs run_until {run_ns:.0} ns")
    });
    let parts = d.lab.parts();
    r.check(
        (parts - d.lab.outer).abs() <= SETUP_SUM_TOL * d.lab.outer,
        || {
            format!(
                "layer sum: lab parts {parts:.6} s vs setup_s {:.6} s (tolerance {SETUP_SUM_TOL})",
                d.lab.outer
            )
        },
    );
    r.note(format!(
        "layer sum: policy {:.3} s + rest {:.3} s = run_until {:.3} s; lab parts {:.6} s vs setup_s {:.6} s",
        policy_ns / 1e9,
        rest * events / 1e9,
        d.run_s_traced,
        parts,
        d.lab.outer
    ));
}
