//! Runs one `(policy × workload × fault plan × seed)` combo on the
//! simulated kernel and judges it with the oracles.
//!
//! A combo is a thin wrapper over a `ghost-lab` [`Scenario`]:
//! [`Combo::scenario`] maps the sweep point onto the declarative spec,
//! [`run_combo`] launches it through the canonical builder path and
//! layers the chaos oracles on top, and [`FaultSweep`] is the mode that
//! sweeps combos.
//! [`PolicyKind`] itself moved into `ghost-lab` and is re-exported here
//! so `repro.json` files and downstream callers are unaffected.

use crate::oracle;
use crate::plan::{generate_plan, generate_recovery_plan};
use crate::repro;
use crate::shrink::shrink_by_removal;
use crate::sweep::{rotate, Outcome, Sweep};
use ghost_core::runtime::GhostStats;
pub use ghost_lab::scenario::PolicyKind;
use ghost_lab::scenario::{Scenario, TopologySpec, WorkloadSpec};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::time::{Nanos, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_trace::json::Json;

/// Watchdog timeout used for every chaos enclave: short enough that
/// recovery from a wedged agent fits inside the run horizon.
pub const WATCHDOG: Nanos = 20 * MILLIS;

/// One point of the sweep: everything needed to reproduce a run exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Combo {
    /// Policy under test.
    pub policy: PolicyKind,
    /// Seed for the kernel RNG, the workload shape, and the fault plan.
    pub seed: u64,
    /// Fault schedule injected into the kernel.
    pub plan: FaultPlan,
    /// Virtual run length.
    pub horizon: Nanos,
    /// Number of workload threads.
    pub threads: usize,
}

impl Combo {
    /// The sweep's combo for `(policy, seed)`: standard horizon and
    /// thread count, fault plan derived from the seed.
    pub fn generated(policy: PolicyKind, seed: u64) -> Self {
        Self::with_plan(policy, seed, generate_plan)
    }

    /// The recovery sweep's combo for `(policy, seed)`: like
    /// [`Combo::generated`] but every plan injects at least one agent
    /// crash or in-place upgrade, so reconstruction and failover run on
    /// every single combo instead of whenever the generic generator
    /// happens to roll one.
    pub fn generated_recovery(policy: PolicyKind, seed: u64) -> Self {
        Self::with_plan(policy, seed, generate_recovery_plan)
    }

    fn with_plan(
        policy: PolicyKind,
        seed: u64,
        generate: fn(u64, Nanos, &[CpuId]) -> FaultPlan,
    ) -> Self {
        let horizon = 120 * MILLIS;
        let topo = Topology::test_small(4);
        let cpus: Vec<CpuId> = policy.enclave_cpus(&topo).iter().collect();
        Self {
            policy,
            seed,
            plan: generate(seed, horizon, &cpus),
            horizon,
            threads: 5,
        }
    }

    /// True if the run pre-stages a second policy version: always when
    /// the plan upgrades in place, and on even seeds when it crashes an
    /// agent (exercising both the fallback and hot-standby paths).
    pub fn stages_upgrade(&self) -> bool {
        let has = |f: fn(&FaultKind) -> bool| self.plan.events.iter().any(|fe| f(&fe.kind));
        has(|k| matches!(k, FaultKind::Upgrade))
            || (self.seed.is_multiple_of(2) && has(|k| matches!(k, FaultKind::AgentCrash { .. })))
    }

    /// True if the run arms a hot standby (degraded-mode failover): odd
    /// seeds whose plan crashes an agent. Even crash seeds stage an
    /// upgrade instead ([`Combo::stages_upgrade`]), so both §3.4 rescue
    /// paths stay covered. Derived from `(seed, plan)` alone — never
    /// stored — so replaying a `repro.json` rebuilds the same setup.
    pub fn plans_standby(&self) -> bool {
        !self.seed.is_multiple_of(2)
            && self
                .plan
                .events
                .iter()
                .any(|fe| matches!(fe.kind, FaultKind::AgentCrash { .. }))
    }

    /// The combo as a declarative `ghost-lab` scenario. Everything the
    /// run needs — machine, enclave shape, upgrade/standby staging,
    /// pulse workload, trace knobs — is in the returned value, so its
    /// spec string doubles as the combo's cache key.
    pub fn scenario(&self) -> Scenario {
        Scenario::builder()
            .name(format!("{}/seed={}", self.policy.name(), self.seed))
            .topology(TopologySpec::Small { cores: 4 })
            .policy(self.policy)
            .workload(WorkloadSpec::pulse(self.threads))
            .seed(self.seed)
            .horizon(self.horizon)
            .faults(self.plan.clone())
            .watchdog(WATCHDOG)
            .stage_upgrade(self.stages_upgrade())
            .standby(self.plans_standby())
            .trace_capacity(1 << 18)
            .build()
    }
}

/// The counters of a finished fault-plan run, beside its [`Outcome`].
pub struct RunReport {
    /// Workload segments completed.
    pub completions: u64,
    /// Runtime counters.
    pub stats: GhostStats,
}

/// Runs `combo` to its horizon and evaluates every oracle. Fully
/// deterministic: the same combo always returns the same outcome. The
/// result lines are the scenario's hashable summary; each oracle
/// violation is a `failure ...` line.
pub fn run_combo(combo: &Combo) -> Outcome<RunReport> {
    let mut run = combo.scenario().launch();
    run.run_to_horizon();
    let records = run.sim.sink.snapshot();
    let recovery_slo = combo
        .plans_standby()
        .then(|| ghost_core::StandbyConfig::default().recovery_slo);
    let failures = oracle::evaluate(
        &records,
        run.sim.sink.dropped(),
        &run.sim.kernel.state,
        &run.sim.runtime,
        run.sim.enclave.id(),
        &run.threads,
        run.completions(),
        recovery_slo,
    );
    Outcome {
        lines: run.summary().lines,
        failures: failures.iter().map(|f| format!("failure {f}")).collect(),
        records,
        sample: RunReport {
            completions: run.completions(),
            stats: run.sim.runtime.stats(),
        },
    }
}

/// The fault-plan sweep: seeded plans over the evaluation policies, or
/// with `recovery`, plans that always crash an agent or upgrade in
/// place. Repros are untagged; the digest label is `policy/seed=N` and
/// the cache key is the scenario's spec string. Failures shrink to a
/// 1-minimal fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSweep {
    /// Generate recovery plans ([`Combo::generated_recovery`]).
    pub recovery: bool,
}

impl FaultSweep {
    /// The default sweep.
    pub const FAULTS: FaultSweep = FaultSweep { recovery: false };
    /// The `--recovery` sweep.
    pub const RECOVERY: FaultSweep = FaultSweep { recovery: true };
}

impl Sweep for FaultSweep {
    type Case = Combo;
    type Sample = RunReport;
    const KIND: Option<&'static str> = None;
    const DEFAULT_COMBOS: u64 = 64;
    const DETERMINISTIC: bool = true;

    fn name(&self) -> &'static str {
        if self.recovery {
            "recovery"
        } else {
            "fault"
        }
    }

    fn policies(&self) -> Vec<PolicyKind> {
        PolicyKind::evaluation_matrix()
    }

    /// Any registered policy can be pinned, not only the rotation.
    fn accepts(&self, _policy: PolicyKind) -> bool {
        true
    }

    fn generate(&self, i: u64, seed_base: u64, policies: &[PolicyKind]) -> Combo {
        let policy = rotate(policies, i);
        if self.recovery {
            Combo::generated_recovery(policy, seed_base + i)
        } else {
            Combo::generated(policy, seed_base + i)
        }
    }

    fn label(&self, combo: &Combo) -> String {
        format!("{}/seed={}", combo.policy.name(), combo.seed)
    }

    fn spec(&self, combo: &Combo) -> String {
        combo.scenario().spec_string()
    }

    fn describe(&self, combo: &Combo) -> String {
        format!(
            "policy={} seed={} faults={}",
            combo.policy.name(),
            combo.seed,
            combo.plan.events.len()
        )
    }

    fn run(&self, combo: &Combo) -> Outcome<RunReport> {
        run_combo(combo)
    }

    fn shrink(&self, combo: &Combo) -> Combo {
        shrink_by_removal(
            combo,
            |c| &mut c.plan.events,
            |c| !run_combo(c).failures.is_empty(),
        )
    }

    fn encode(&self, combo: &Combo) -> String {
        repro::document(
            None,
            &[
                ("policy", repro::string(combo.policy.name())),
                ("seed", repro::string(&combo.seed.to_string())),
                ("horizon", combo.horizon.to_string()),
                ("threads", combo.threads.to_string()),
                ("plan", repro::plan_to_json(&combo.plan)),
            ],
        )
    }

    fn decode(&self, doc: &Json) -> Result<Combo, String> {
        Ok(Combo {
            policy: repro::policy(doc, "policy", |_| true)?,
            seed: repro::seed(doc)?,
            plan: repro::plan_from_json(doc)?,
            horizon: repro::field_u64(doc, "horizon")?,
            threads: repro::field_u64(doc, "threads")? as usize,
        })
    }
}
