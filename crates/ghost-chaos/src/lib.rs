//! # ghost-chaos — fault injection and schedule-space exploration
//!
//! The paper argues that delegating scheduling to userspace agents is
//! safe because the kernel tolerates agent misbehaviour: message queues
//! overflow and resync, stale transactions fail with `ESTALE`, the
//! watchdog reaps wedged agents, crashes fall back to CFS, and staged
//! policies upgrade in place (§3.1–§3.4). This crate tests those claims
//! adversarially:
//!
//! * [`plan`] — seeded generation of [`ghost_sim::faults::FaultPlan`]s:
//!   agent crashes/hangs/slowdowns, queue overflow windows, IPI
//!   delay/loss, spurious wakeups, clock-skewed ticks, and mid-run
//!   in-place upgrades, all at deterministic virtual times.
//! * [`run`] — runs one `(policy × workload × fault plan × seed)` combo
//!   on the simulated kernel with tracing enabled.
//! * [`oracle`] — judges a finished run: the `ghost-trace` invariant
//!   checker (Tseq/Aseq continuity, commit pairing, occupancy) plus
//!   liveness oracles (no thread starved past the watchdog bound,
//!   fallback-to-CFS completes, the run made progress).
//! * `shrink` — greedily minimizes a failing case (fault plan or
//!   hostile op sequence) to a 1-minimal repro.
//! * [`byzantine`] — a seeded adversary issuing hostile ABI call
//!   sequences (forged CPUs/tids/seqnums, commit-after-destroy, queue
//!   misconfiguration, status-word writes) from a co-resident malicious
//!   enclave, judged by never-panic, typed-rejection, and
//!   victim-liveness oracles.
//! * [`live`] — the same fault plans injected into the `ghost-live`
//!   real-thread backend, judged by wall-clock oracles (grace-windowed
//!   invariants, stranded-worker liveness, bounded wall-clock recovery,
//!   post-recovery reclaim). Live runs are not bit-reproducible, so
//!   failures capture `repro.json` (plan + seed + shape) instead of
//!   shrinking.
//! * [`lending`] — multi-enclave core lending under control-plane faults
//!   (RM crash, borrower crash, revoke during reconstruction, deadline
//!   stress), on the simulated RM harness and on real threads, judged by
//!   the no-stranded-lease and grant-accounting oracles.
//! * `repro` — the shared pieces of the kind-tagged `repro.json`
//!   codecs (seeds as decimal strings, fault plans, field readers).
//! * [`sweep`] — the [`Sweep`] trait every mode implements (generate →
//!   run and judge → shrink → encode/decode) and the one driver that
//!   runs any mode: deterministic modes on the parallel `ghost-lab`
//!   engine, live modes serially; [`MODES`] maps CLI flags, and
//!   [`mode_of`] repro `kind` tags, to modes.
//!
//! The `ghost-chaos` binary picks one mode and drives it: sweep N
//! cases and, on failure, write `repro-<i>.json` plus a Chrome trace;
//! or `--replay` one repro under the mode its `kind` tag names.

pub mod byzantine;
pub mod lending;
pub mod live;
pub mod oracle;
pub mod plan;
mod repro;
pub mod run;
mod shrink;
pub mod sweep;

pub use byzantine::{generate_byz_ops, run_byzantine, ByzCombo, ByzOp, ByzReport, ByzantineSweep};
pub use lending::{
    run_lending_live, LendingLiveCombo, LendingLiveReport, LendingLiveSweep, LendingSweep,
    LENDING_HORIZON,
};
pub use live::{
    generate_live_plan, live_policies, run_live_combo, LiveCombo, LiveRunReport, LiveSweep,
    LIVE_WATCHDOG, RECOVERY_WALL_SLO,
};
pub use oracle::Failure;
pub use plan::generate_plan;
pub use run::{run_combo, Combo, FaultSweep, PolicyKind, RunReport, WATCHDOG};
pub use sweep::{mode_of, replay, Driver, Outcome, Sweep, SweepExperiment, SweepOpts, MODES};

// Re-exported so `for_seeds!` works without the caller depending on the
// vendored rand crate or the engine crate directly.
pub use ghost_lab as lab;
pub use rand;

/// Runs `body` once per seeded case, reporting the failing seed on panic.
///
/// `for_seeds!(base, cases, |rng| { ... })` constructs a fresh
/// `StdRng::seed_from_u64(base + case)` for each case. If the body
/// panics, the macro prints the exact seed (so the case can be rerun in
/// isolation) and re-raises the panic.
///
/// # Examples
///
/// ```
/// use ghost_chaos::for_seeds;
/// use ghost_chaos::rand::{rngs::StdRng, Rng};
///
/// let mut cases = 0;
/// for_seeds!(0x5EED, 8, |rng: &mut StdRng| {
///     let x: u64 = rng.gen_range(1..100);
///     assert!(x >= 1);
///     cases += 1;
/// });
/// assert_eq!(cases, 8);
/// ```
#[macro_export]
macro_rules! for_seeds {
    ($base:expr, $cases:expr, $body:expr) => {{
        // Case execution lives in the experiment engine; this macro only
        // adds the per-case RNG construction.
        $crate::lab::run_cases($base, $cases, |seed| {
            let mut rng: $crate::rand::rngs::StdRng =
                $crate::rand::SeedableRng::seed_from_u64(seed);
            #[allow(clippy::redundant_closure_call)]
            ($body)(&mut rng)
        })
    }};
}
