//! Fig. 9: agent upgrade / rejoin latency — how long an incoming agent
//! takes to absorb an enclave's threads by scanning their status words
//! (§3.4: "the new agent can take over an enclave with 50,000 threads in
//! the matter of about 105 ms").
//!
//! An enclave over the 112-CPU Skylake machine holds N attached threads;
//! a staged policy version is promoted with `try_upgrade_now` and the
//! rejoin latency is read from the trace: promotion instant →
//! `ReconstructDone`. [`points`] sweeps N = 1k / 10k / 50k;
//! `benches/fig9_rejoin.rs` prints the table and `tests/fig9.rs` holds
//! the [`shape_errors`] check.

use ghost_core::enclave::EnclaveConfig;
use ghost_core::runtime::GhostRuntime;
use ghost_policies::CentralizedFifo;
use ghost_sim::costs::CostModel;
use ghost_sim::kernel::{Kernel, KernelConfig, ThreadSpec};
use ghost_sim::time::MILLIS;
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_trace::{TraceEvent, TraceSink};

/// Enclave populations the figure sweeps.
pub const SIZES: [usize; 3] = [1_000, 10_000, 50_000];

/// One rejoin measurement.
#[derive(Debug, Clone, Copy)]
pub struct Rejoin {
    pub threads: usize,
    /// Promotion → `ReconstructDone`, ns.
    pub measured_ns: u64,
    /// The cost model's status-word scan over `threads`, ns.
    pub model_ns: u64,
}

/// Promotes a staged policy over an enclave of `n` threads and reads the
/// rejoin latency from the trace.
pub fn rejoin_latency(n: usize) -> Rejoin {
    let sink = TraceSink::recording(1, 1 << 20);
    let topo = Topology::skylake_112();
    let mut kernel = Kernel::new(
        topo,
        KernelConfig {
            trace: sink.clone(),
            ..KernelConfig::default()
        },
    );
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());
    let cpus: CpuSet = (1..kernel.state.topo.num_cpus() as u16)
        .map(CpuId)
        .collect();
    let mut config = EnclaveConfig::centralized("fig9");
    config.queue_capacity = 1 << 17; // Room for n creation messages at once.
    let enclave =
        runtime.launch_enclave(&mut kernel, cpus, config, Box::new(CentralizedFifo::new()));

    // The thread pool the new agent must absorb. Threads spawn blocked —
    // the paper's rejoin experiment measures takeover of an existing
    // population, not a storm of runnable work.
    for i in 0..n {
        let tid = kernel.spawn(ThreadSpec::workload(&format!("t{i}"), &kernel.state.topo));
        enclave.attach_thread(&mut kernel.state, tid);
    }
    // Let the outgoing agent drain every creation message.
    kernel.run_until(50 * MILLIS);

    enclave.stage_upgrade(Box::new(CentralizedFifo::new()));
    let t0 = kernel.state.now;
    assert!(enclave.try_upgrade_now(&mut kernel.state).is_ok());
    kernel.run_until(t0 + 300 * MILLIS);

    assert_eq!(sink.dropped(), 0, "trace ring too small for n={n}");
    let records = sink.snapshot();
    let done = records
        .iter()
        .find(|r| r.ts >= t0 && matches!(r.event, TraceEvent::ReconstructDone { .. }))
        .unwrap_or_else(|| panic!("no ReconstructDone after upgrade at n={n}"));
    if let TraceEvent::ReconstructDone { threads, .. } = done.event {
        assert_eq!(threads as usize, n, "scan covered every thread");
    }
    let stats = runtime.stats();
    assert_eq!(stats.upgrades, 1);
    assert_eq!(stats.reconstructions, 1);
    Rejoin {
        threads: n,
        measured_ns: done.ts - t0,
        model_ns: CostModel::default().reconstruction_scan(n as u64),
    }
}

/// One [`rejoin_latency`] point per entry of [`SIZES`].
pub fn points() -> Vec<Rejoin> {
    SIZES.iter().map(|&n| rejoin_latency(n)).collect()
}

/// Every way `points` (in [`SIZES`] order) misses the paper's shape:
/// latency rises with the population (the scan is O(n)); each point sits
/// on the modeled scan cost plus bounded activation overhead
/// (message-queue drain, syscalls), never below it; and the last point
/// lands in the paper's ~105 ms regime for 50k threads.
pub fn shape_errors(points: &[Rejoin]) -> Vec<String> {
    let mut errors = Vec::new();
    for w in points.windows(2) {
        if w[1].measured_ns <= w[0].measured_ns {
            errors.push(format!(
                "rejoin latency not monotone: {} threads took {} ns, {} took {} ns",
                w[0].threads, w[0].measured_ns, w[1].threads, w[1].measured_ns
            ));
        }
    }
    for p in points {
        if p.measured_ns < p.model_ns || p.measured_ns >= p.model_ns + p.model_ns / 2 + MILLIS {
            errors.push(format!(
                "n={}: measured {} ns vs modeled scan {} ns",
                p.threads, p.measured_ns, p.model_ns
            ));
        }
    }
    if let Some(last) = points.last() {
        let ms = last.measured_ns as f64 / 1e6;
        if !(90.0..130.0).contains(&ms) {
            errors.push(format!(
                "{}-thread rejoin took {ms:.1} ms, expected the paper's ~105 ms regime",
                last.threads
            ));
        }
    }
    errors
}
