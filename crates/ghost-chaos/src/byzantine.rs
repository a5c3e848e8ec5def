//! The Byzantine-agent adversary: a seeded generator of hostile ABI call
//! sequences, executed by a co-resident malicious enclave while a
//! well-behaved victim enclave runs the normal chaos workload.
//!
//! The paper's trust model (§2.2) is that agents "are not trusted for
//! system integrity": whatever an agent writes into the shared-memory
//! ABI — transactions, queue configuration, status-word addresses — the
//! kernel must validate, and the worst a misbehaving agent can achieve
//! is the destruction of its own enclave (threads fall back to CFS).
//! This module tests that claim adversarially with three oracles:
//!
//! * **never-panic** — the whole run executes under `catch_unwind`; any
//!   kernel-side panic reached through the ABI is a failure.
//! * **typed-rejection** — every hostile call the kernel rejects must
//!   carry a specific [`AbiError`] (commits via [`Transaction::error`],
//!   runtime calls via `Result`), and every rejection must be counted in
//!   [`GhostStats::abi_rejects`] — no silent drops.
//! * **victim-liveness** — the co-resident victim enclave, which also
//!   absorbs an agent crash and recovers through a hot standby, must
//!   keep meeting the PR 3 recovery SLO and all chaos liveness oracles
//!   regardless of what the byzantine neighbour does.
//!
//! A [`ByzCombo`] is `(victim policy, seed, ops)` and is fully
//! deterministic: the same combo always produces the same report, so
//! failures shrink (drop ops one at a time) and replay from
//! `repro.json` exactly like fault-plan combos.

use crate::oracle::{self, Failure};
use crate::repro;
use crate::run::{PolicyKind, WATCHDOG};
use crate::shrink::shrink_by_removal;
use crate::sweep::{rotate, Outcome, Sweep};
use ghost_core::enclave::{EnclaveConfig, QueueId, WakeMode};
use ghost_core::msg::Message;
use ghost_core::policy::{GhostPolicy, PolicyCtx};
use ghost_core::runtime::{EnclaveHandle, GhostRuntime, GhostStats};
use ghost_core::txn::{Transaction, TxnStatus};
use ghost_core::{AbiError, StandbyConfig, ThreadSnapshot};
use ghost_policies::CentralizedFifo;
use ghost_sim::app::{App, Next};
use ghost_sim::faults::{FaultKind, FaultPlan};
use ghost_sim::kernel::{Kernel, KernelConfig, KernelState, ThreadSpec};
use ghost_sim::thread::{ThreadState, Tid};
use ghost_sim::time::{Nanos, MICROS, MILLIS};
use ghost_sim::topology::{CpuId, Topology};
use ghost_sim::CpuSet;
use ghost_trace::json::Json;
use ghost_trace::{TraceRecord, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Virtual run length of a byzantine combo.
pub const BYZ_HORIZON: Nanos = 120 * MILLIS;

/// One hostile ABI call. Policy-layer ops are issued by the byzantine
/// agent from inside its own activation (through [`PolicyCtx`], exactly
/// like a real agent would); runtime-layer ops are issued between kernel
/// steps through the enclave/runtime API (the syscall surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzOp {
    /// Commit the agent's own thread onto a forged CPU id (out of range
    /// or outside the enclave).
    CommitForgedCpu {
        /// Forged target CPU.
        cpu: u16,
    },
    /// Commit a tid the enclave does not manage (a victim thread, an
    /// agent, or a nonexistent id).
    CommitForeignTid {
        /// Forged target tid.
        tid: u32,
    },
    /// Commit with a deliberately stale agent sequence number.
    CommitStaleSeq,
    /// Atomic group commit where one member carries a forged CPU: the
    /// whole group must fail with typed errors, none may take effect.
    CommitAtomicMixed {
        /// Forged CPU of the poisoned group member.
        cpu: u16,
    },
    /// `RECALL` a forged CPU.
    RecallForged {
        /// Forged CPU.
        cpu: u16,
    },
    /// Destroy the enclave's default queue (protected).
    QueueDestroyDefault,
    /// `ASSOCIATE_QUEUE` with a forged tid and/or queue id.
    QueueAssociateForged {
        /// Forged tid.
        tid: u32,
        /// Queue id (may or may not exist).
        queue: u32,
    },
    /// `CONFIG_QUEUE_WAKEUP` pointing the default queue at a forged
    /// wake-target tid.
    QueueWakeupForged {
        /// Forged wake target.
        tid: u32,
    },
    /// Push a foreign/nonexistent tid into the pick_next_task ring.
    PntPushForeign {
        /// Forged tid.
        tid: u32,
    },
    /// Ping the core agent of a forged CPU.
    PingForged {
        /// Forged CPU.
        cpu: u16,
    },
    /// Attach a forged tid (dead, foreign, agent, or nonexistent) to the
    /// byzantine enclave.
    AttachForged {
        /// Forged tid.
        tid: u32,
    },
    /// Write garbage into a thread's status word (the word is
    /// kernel-owned; every write must reject).
    StatusWrite {
        /// Target tid.
        tid: u32,
        /// Garbage payload.
        value: u64,
    },
    /// Read the status word of a thread the enclave does not manage.
    StatusReadForged {
        /// Forged tid.
        tid: u32,
    },
    /// Set a scheduling hint on a forged tid.
    HintForged {
        /// Forged tid.
        tid: u32,
    },
    /// `UPGRADE` with nothing staged.
    UpgradeWithoutStage,
    /// Destroy the enclave, then destroy it again (the second call must
    /// reject with [`AbiError::EnclaveDestroyed`], never panic or
    /// silently succeed).
    DestroyTwice,
    /// Create a second enclave over a CPU that is already owned (or out
    /// of range).
    CreateOverlapping {
        /// Contested CPU.
        cpu: u16,
    },
}

impl ByzOp {
    /// True if the op executes inside the byzantine agent's activation
    /// (via [`PolicyCtx`]); false if the harness issues it through the
    /// runtime API between kernel steps.
    pub fn is_policy_op(&self) -> bool {
        !matches!(
            self,
            ByzOp::AttachForged { .. }
                | ByzOp::StatusWrite { .. }
                | ByzOp::StatusReadForged { .. }
                | ByzOp::HintForged { .. }
                | ByzOp::UpgradeWithoutStage
                | ByzOp::DestroyTwice
                | ByzOp::CreateOverlapping { .. }
        )
    }

    /// Stable one-line rendering for spec strings and reports; the
    /// `repro.json` encoding is rendered from it, so the two share one
    /// vocabulary.
    pub fn spec(&self) -> String {
        match *self {
            ByzOp::CommitForgedCpu { cpu } => format!("commit-forged-cpu cpu={cpu}"),
            ByzOp::CommitForeignTid { tid } => format!("commit-foreign-tid tid={tid}"),
            ByzOp::CommitStaleSeq => "commit-stale-seq".into(),
            ByzOp::CommitAtomicMixed { cpu } => format!("commit-atomic-mixed cpu={cpu}"),
            ByzOp::RecallForged { cpu } => format!("recall-forged cpu={cpu}"),
            ByzOp::QueueDestroyDefault => "queue-destroy-default".into(),
            ByzOp::QueueAssociateForged { tid, queue } => {
                format!("queue-associate-forged tid={tid} queue={queue}")
            }
            ByzOp::QueueWakeupForged { tid } => format!("queue-wakeup-forged tid={tid}"),
            ByzOp::PntPushForeign { tid } => format!("pnt-push-foreign tid={tid}"),
            ByzOp::PingForged { cpu } => format!("ping-forged cpu={cpu}"),
            ByzOp::AttachForged { tid } => format!("attach-forged tid={tid}"),
            ByzOp::StatusWrite { tid, value } => format!("status-write tid={tid} value={value}"),
            ByzOp::StatusReadForged { tid } => format!("status-read-forged tid={tid}"),
            ByzOp::HintForged { tid } => format!("hint-forged tid={tid}"),
            ByzOp::UpgradeWithoutStage => "upgrade-without-stage".into(),
            ByzOp::DestroyTwice => "destroy-twice".into(),
            ByzOp::CreateOverlapping { cpu } => format!("create-overlapping cpu={cpu}"),
        }
    }
}

/// One point of the byzantine sweep: everything needed to reproduce the
/// hostile run exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzCombo {
    /// The co-resident well-behaved policy whose liveness is judged.
    pub victim: PolicyKind,
    /// Seed for the kernel RNG and the victim workload shape.
    pub seed: u64,
    /// The hostile call sequence, in issue order per layer.
    pub ops: Vec<ByzOp>,
}

impl ByzCombo {
    /// Victim policies the byzantine sweep rotates through, queried
    /// from the registry's `byzantine_victim` capability flag. Core
    /// scheduling is excluded: it requires whole physical cores across
    /// the entire machine and cannot co-reside with a second enclave.
    pub fn victims() -> Vec<PolicyKind> {
        PolicyKind::byzantine_victims()
    }

    /// The sweep's combo for `(victim, seed)`: hostile ops derived from
    /// the seed.
    pub fn generated(victim: PolicyKind, seed: u64) -> Self {
        Self {
            victim,
            seed,
            ops: generate_byz_ops(seed),
        }
    }

    /// Byzantine strike budget of the hostile enclave: even seeds arm
    /// quarantine (four strikes), odd seeds leave it unarmed so both
    /// configurations stay in every sweep. Derived from the seed alone —
    /// never stored — so a replayed `repro.json` rebuilds it.
    pub fn strike_budget(&self) -> Option<u32> {
        self.seed.is_multiple_of(2).then_some(4)
    }

    /// Canonical spec string: every field that affects the outcome, one
    /// per line. The sweep cache key.
    pub fn spec_string(&self) -> String {
        let mut s = String::from("ghost-chaos byzantine v1\n");
        s.push_str(&format!("victim {}\n", self.victim.name()));
        s.push_str(&format!("seed {}\n", self.seed));
        match self.strike_budget() {
            Some(b) => s.push_str(&format!("strike-budget {b}\n")),
            None => s.push_str("strike-budget none\n"),
        }
        for op in &self.ops {
            s.push_str(&format!("op {}\n", op.spec()));
        }
        s
    }
}

/// Generates a 3–8 op hostile sequence from `seed`. Parameters are drawn
/// from adversarial pools: CPU ids that are out of range for the 8-CPU
/// machine, inside the victim enclave, or merely outside the byzantine
/// enclave; tids that are agents, victim threads, or nonexistent.
pub fn generate_byz_ops(seed: u64) -> Vec<ByzOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB12A_0D5E);
    // CPU 0 is CFS-only, 1–3 are the victim's, 4–5 the byzantine
    // enclave's; everything from 8 up does not exist on the machine
    // (and u16::MAX is beyond MAX_CPUS, so it is unrepresentable in
    // any mask).
    const CPUS: [u16; 7] = [0, 1, 8, 250, 300, 999, u16::MAX];
    const TIDS: [u32; 6] = [0, 1, 5, 40, 9_999, u32::MAX];
    const QUEUES: [u32; 3] = [0, 9, 250];
    const VALUES: [u64; 3] = [0, 0xDEAD_BEEF, u64::MAX];
    let cpu = |rng: &mut StdRng| CPUS[rng.gen_range(0..CPUS.len())];
    let tid = |rng: &mut StdRng| TIDS[rng.gen_range(0..TIDS.len())];
    let n = rng.gen_range(3usize..=8);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match rng.gen_range(0u32..17) {
            0 => ByzOp::CommitForgedCpu { cpu: cpu(&mut rng) },
            1 => ByzOp::CommitForeignTid { tid: tid(&mut rng) },
            2 => ByzOp::CommitStaleSeq,
            3 => ByzOp::CommitAtomicMixed { cpu: cpu(&mut rng) },
            4 => ByzOp::RecallForged { cpu: cpu(&mut rng) },
            5 => ByzOp::QueueDestroyDefault,
            6 => ByzOp::QueueAssociateForged {
                tid: tid(&mut rng),
                queue: QUEUES[rng.gen_range(0..QUEUES.len())],
            },
            7 => ByzOp::QueueWakeupForged { tid: tid(&mut rng) },
            8 => ByzOp::PntPushForeign { tid: tid(&mut rng) },
            9 => ByzOp::PingForged { cpu: cpu(&mut rng) },
            10 => ByzOp::AttachForged { tid: tid(&mut rng) },
            11 => ByzOp::StatusWrite {
                tid: tid(&mut rng),
                value: VALUES[rng.gen_range(0..VALUES.len())],
            },
            12 => ByzOp::StatusReadForged { tid: tid(&mut rng) },
            13 => ByzOp::HintForged { tid: tid(&mut rng) },
            14 => ByzOp::UpgradeWithoutStage,
            15 => ByzOp::DestroyTwice,
            // Contested CPUs only: victim-owned or out of range, so the
            // call always rejects (a free CPU would legitimately
            // succeed and leave a stray agent-less enclave behind).
            _ => ByzOp::CreateOverlapping {
                cpu: [1u16, 2, 3, 300, 999][rng.gen_range(0..5usize)],
            },
        };
        ops.push(op);
    }
    ops
}

/// The counters of a finished byzantine run, beside its [`Outcome`].
#[derive(Default)]
pub struct ByzReport {
    /// Victim workload segments completed.
    pub victim_completions: u64,
    /// Hostile calls the kernel rejected.
    pub hostile_rejected: u64,
    /// True if the byzantine enclave was quarantined.
    pub quarantined: bool,
    /// Runtime counters at end of run.
    pub stats: GhostStats,
}

/// Shared outcome ledger between the byzantine policy (in-activation
/// ops) and the harness (runtime-layer ops).
#[derive(Default)]
struct Ledger {
    /// Hostile calls the kernel rejected; each must show up in
    /// [`GhostStats::abi_rejects`].
    rejected: u64,
    /// Typed-rejection contract violations.
    violations: Vec<String>,
}

impl Ledger {
    /// Checks the commit contract on every settled transaction: a
    /// failing status must carry a typed error that maps back to it
    /// (casualties of an atomic unwind are `Aborted` and carry the
    /// group-failing error instead).
    fn check_txns(&mut self, op: &ByzOp, txns: &[Transaction]) {
        for t in txns {
            if t.status.committed() || t.status == TxnStatus::Pending {
                continue;
            }
            // An `Aborted` casualty of an atomic unwind is collateral of
            // the group's one rejection, not an independently rejected
            // call — it still must carry the group error, but only the
            // group-failing txn counts against `abi_rejects`.
            if t.status != TxnStatus::Aborted {
                self.rejected += 1;
            }
            match t.error {
                None => self.violations.push(format!(
                    "{}: commit rejected with status {:?} but no AbiError",
                    op.spec(),
                    t.status
                )),
                Some(e) if e.txn_status() != t.status && t.status != TxnStatus::Aborted => {
                    self.violations.push(format!(
                        "{}: error {e} maps to {:?} but status is {:?}",
                        op.spec(),
                        e.txn_status(),
                        t.status
                    ))
                }
                Some(_) => {}
            }
        }
    }
}

/// The hostile agent: drains one queued [`ByzOp`] per activation through
/// the real agent ABI, then behaves like a normal centralized FIFO for
/// its own threads (so its enclave produces a well-formed trace and the
/// only anomalies are the deliberate ones).
struct ByzantinePolicy {
    inner: CentralizedFifo,
    ops: Arc<Mutex<VecDeque<ByzOp>>>,
    ledger: Arc<Mutex<Ledger>>,
}

impl ByzantinePolicy {
    fn new(ops: Arc<Mutex<VecDeque<ByzOp>>>, ledger: Arc<Mutex<Ledger>>) -> Self {
        Self {
            inner: CentralizedFifo::new(),
            ops,
            ledger,
        }
    }

    fn run_op(&mut self, op: ByzOp, ctx: &mut PolicyCtx<'_>) {
        let own_cpu = ctx.enclave_cpus().first().unwrap_or(CpuId(0));
        let own_tid = ctx.managed_threads().first().copied().unwrap_or(Tid(0));
        let mut led = self.ledger.lock().unwrap();
        match op {
            ByzOp::CommitForgedCpu { cpu } => {
                let mut t = Transaction::new(own_tid, CpuId(cpu));
                ctx.commit_one(&mut t);
                led.check_txns(&op, &[t]);
            }
            ByzOp::CommitForeignTid { tid } => {
                let mut t = Transaction::new(Tid(tid), own_cpu);
                ctx.commit_one(&mut t);
                led.check_txns(&op, &[t]);
            }
            ByzOp::CommitStaleSeq => {
                let mut t = Transaction::new(own_tid, own_cpu).with_agent_seq(0);
                ctx.commit_one(&mut t);
                led.check_txns(&op, &[t]);
            }
            ByzOp::CommitAtomicMixed { cpu } => {
                let mut txns = [
                    Transaction::new(own_tid, own_cpu),
                    Transaction::new(own_tid, CpuId(cpu)),
                ];
                ctx.commit_atomic(&mut txns);
                if txns.iter().any(|t| t.status.committed()) {
                    led.violations.push(format!(
                        "{}: poisoned atomic group partially committed",
                        op.spec()
                    ));
                }
                led.check_txns(&op, &txns);
            }
            ByzOp::RecallForged { cpu } => match ctx.try_recall(CpuId(cpu)) {
                Ok(_) => {}
                Err(_) => led.rejected += 1,
            },
            ByzOp::QueueDestroyDefault => {
                let q = ctx.queue_of_cpu(own_cpu);
                match ctx.try_destroy_queue(q) {
                    Ok(()) => led
                        .violations
                        .push(format!("{}: default queue destroyed", op.spec())),
                    Err(_) => led.rejected += 1,
                }
            }
            ByzOp::QueueAssociateForged { tid, queue } => {
                match ctx.try_associate_queue(Tid(tid), QueueId(queue)) {
                    Ok(_) => {}
                    Err(_) => led.rejected += 1,
                }
            }
            ByzOp::QueueWakeupForged { tid } => {
                let q = ctx.queue_of_cpu(own_cpu);
                match ctx.try_config_queue_wakeup(q, WakeMode::WakeAgent(Tid(tid))) {
                    // A forged wake target would be dereferenced by the
                    // kernel on every later message: acceptance is only
                    // legal if the tid really is one of our agents.
                    Ok(()) if tid != ctx.agent_tid().0 => led
                        .violations
                        .push(format!("{}: forged wake target accepted", op.spec())),
                    Ok(()) => {}
                    Err(_) => led.rejected += 1,
                }
            }
            ByzOp::PntPushForeign { tid } => {
                // Pushing a thread we DO manage may benignly return false
                // (PNT disabled, ring full) with no reject; only a tid we
                // do not manage is a typed rejection.
                let foreign = !ctx.managed_threads().contains(&Tid(tid));
                if !ctx.pnt_push(0, Tid(tid)) && foreign {
                    led.rejected += 1;
                }
            }
            ByzOp::PingForged { cpu } => {
                // Pinging a machine-valid CPU that simply has no core
                // agent in this enclave is a benign miss (false, no
                // reject); only a forged id is a typed rejection.
                let forged = (cpu as usize) >= ctx.topo().num_cpus();
                if !ctx.ping_core_agent(CpuId(cpu)) && forged {
                    led.rejected += 1;
                }
            }
            // Runtime-layer ops never reach the policy.
            _ => {}
        }
    }
}

impl GhostPolicy for ByzantinePolicy {
    fn name(&self) -> &str {
        "byzantine"
    }

    fn on_msg(&mut self, msg: &Message, ctx: &mut PolicyCtx<'_>) {
        self.inner.on_msg(msg, ctx);
    }

    fn schedule(&mut self, ctx: &mut PolicyCtx<'_>) {
        let op = self.ops.lock().unwrap().pop_front();
        if let Some(op) = op {
            self.run_op(op, ctx);
        }
        self.inner.schedule(ctx);
        if !self.ops.lock().unwrap().is_empty() {
            ctx.request_wakeup_at(ctx.now() + 500 * MICROS);
        }
    }

    fn on_reconstruct(&mut self, snapshot: &[ThreadSnapshot], ctx: &mut PolicyCtx<'_>) {
        self.inner.on_reconstruct(snapshot, ctx);
    }
}

/// Issues one runtime-layer op through the enclave/runtime API.
fn run_runtime_op(
    op: &ByzOp,
    k: &mut KernelState,
    runtime: &GhostRuntime,
    byz: &EnclaveHandle,
    led: &mut Ledger,
) {
    match *op {
        ByzOp::AttachForged { tid } => match byz.try_attach_thread(k, Tid(tid)) {
            Ok(_) => {}
            Err(_) => led.rejected += 1,
        },
        ByzOp::StatusWrite { tid, value } => match byz.try_write_status(k, Tid(tid), value) {
            Ok(()) => led.violations.push(format!(
                "{}: kernel-owned status word accepted a write",
                op.spec()
            )),
            Err(_) => led.rejected += 1,
        },
        ByzOp::StatusReadForged { tid } => match byz.try_thread_status(Tid(tid)) {
            Ok(_) => {}
            Err(_) => led.rejected += 1,
        },
        ByzOp::HintForged { tid } => match runtime.try_set_hint(Tid(tid), u64::MAX) {
            Ok(_) => {}
            Err(_) => led.rejected += 1,
        },
        ByzOp::UpgradeWithoutStage => match byz.try_upgrade_now(k) {
            Ok(()) => led.violations.push(format!(
                "{}: upgrade succeeded with nothing staged",
                op.spec()
            )),
            Err(_) => led.rejected += 1,
        },
        ByzOp::DestroyTwice => {
            if byz.try_destroy(k).is_err() {
                led.rejected += 1; // Already gone (e.g. quarantined): still typed.
            }
            match byz.try_destroy(k) {
                Ok(()) => led
                    .violations
                    .push(format!("{}: double destroy accepted", op.spec())),
                Err(AbiError::EnclaveDestroyed) => led.rejected += 1,
                Err(e) => led.violations.push(format!(
                    "{}: double destroy rejected with {e}, want enclave-destroyed",
                    op.spec()
                )),
            }
        }
        ByzOp::CreateOverlapping { cpu } => {
            match runtime.try_create_enclave(
                CpuSet::from_iter([CpuId(cpu)]),
                EnclaveConfig::centralized("byz-clone"),
                Box::new(CentralizedFifo::new()),
            ) {
                Ok(_) => led
                    .violations
                    .push(format!("{}: contested CPU {cpu} granted", op.spec())),
                Err(_) => led.rejected += 1,
            }
        }
        _ => {}
    }
}

/// The victim/byzantine pulse workload: every thread repeatedly runs a
/// seed-derived segment then blocks until its periodic timer re-arms it.
/// Completions are tracked per tid so victim progress can be judged
/// separately from byzantine-enclave noise.
struct SplitPulseApp {
    conf: HashMap<Tid, (Nanos, Nanos)>, // (segment, period)
    completions: Arc<Mutex<HashMap<Tid, u64>>>,
}

impl App for SplitPulseApp {
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "byz-pulse"
    }

    fn on_timer(&mut self, key: u64, k: &mut KernelState) {
        let tid = Tid(key as u32);
        let Some(&(seg, period)) = self.conf.get(&tid) else {
            return;
        };
        if k.thread(tid).state == ThreadState::Blocked {
            k.thread_mut(tid).remaining = seg;
            k.wake(tid);
        }
        let app = k.thread(tid).app.expect("pulse threads have an app");
        k.arm_app_timer(k.now + period, app, key);
    }

    fn on_segment_end(&mut self, tid: Tid, _k: &mut KernelState) -> Next {
        *self.completions.lock().unwrap().entry(tid).or_insert(0) += 1;
        Next::Block
    }
}

fn run_byzantine_inner(combo: &ByzCombo) -> (ByzReport, Vec<Failure>, Vec<TraceRecord>) {
    let sink = TraceSink::recording(1, 1 << 18);
    // The victim also absorbs an agent crash mid-run: its hot standby
    // must recover within the SLO *while* the byzantine neighbour is
    // hammering the ABI.
    let plan = FaultPlan::from_events([(30 * MILLIS, FaultKind::AgentCrash { cpu: CpuId(1) })]);
    let config = KernelConfig {
        seed: combo.seed,
        trace: sink.clone(),
        faults: plan,
        ..KernelConfig::default()
    };
    let mut kernel = Kernel::new(Topology::test_small(4), config);
    let runtime = GhostRuntime::new(kernel.state.topo.num_cpus());

    // Victim enclave on CPUs 1–3, watchdog + hot standby armed.
    let victim_kind = combo.victim;
    let victim_cfg = victim_kind
        .enclave_config("victim")
        .with_watchdog(WATCHDOG)
        .with_standby(StandbyConfig::default());
    let victim = runtime.launch_enclave(
        &mut kernel,
        [1u16, 2, 3].into_iter().map(CpuId).collect(),
        victim_cfg,
        victim_kind.build(),
    );
    victim.set_standby_policy(move || victim_kind.build());

    // Byzantine enclave on CPUs 4–5.
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let policy_ops: VecDeque<ByzOp> = combo
        .ops
        .iter()
        .filter(|o| o.is_policy_op())
        .copied()
        .collect();
    let ops_queue = Arc::new(Mutex::new(policy_ops));
    let mut byz_cfg = EnclaveConfig::centralized("byzantine").with_watchdog(WATCHDOG);
    if let Some(budget) = combo.strike_budget() {
        byz_cfg = byz_cfg.with_abi_strikes(budget);
    }
    let byz = runtime.launch_enclave(
        &mut kernel,
        [4u16, 5].into_iter().map(CpuId).collect(),
        byz_cfg,
        Box::new(ByzantinePolicy::new(
            Arc::clone(&ops_queue),
            Arc::clone(&ledger),
        )),
    );

    // Workload: four victim threads, two byzantine-enclave threads.
    let completions = Arc::new(Mutex::new(HashMap::new()));
    let app = kernel.state.next_app_id();
    let mut conf = HashMap::new();
    let mut rng = StdRng::seed_from_u64(combo.seed ^ 0x0C0F_FEE0);
    let mut spawn = |kernel: &mut Kernel, name: String, cookie: u64| {
        let tid = kernel.spawn(
            ThreadSpec::workload(&name, &kernel.state.topo)
                .app(app)
                .cookie(cookie),
        );
        let seg = rng.gen_range(20 * MICROS..200 * MICROS);
        let period = rng.gen_range(500 * MICROS..2 * MILLIS);
        conf.insert(tid, (seg, period));
        tid
    };
    let victim_tids: Vec<Tid> = (0..4)
        .map(|i| spawn(&mut kernel, format!("v{i}"), victim_kind.cookie_for(i)))
        .collect();
    let byz_tids: Vec<Tid> = (0..2)
        .map(|i| spawn(&mut kernel, format!("b{i}"), 0))
        .collect();
    kernel.add_app(Box::new(SplitPulseApp {
        conf,
        completions: Arc::clone(&completions),
    }));
    for &tid in &victim_tids {
        victim.attach_thread(&mut kernel.state, tid);
    }
    for &tid in &byz_tids {
        byz.attach_thread(&mut kernel.state, tid);
    }
    for (i, &tid) in victim_tids.iter().chain(byz_tids.iter()).enumerate() {
        kernel
            .state
            .arm_app_timer((i as u64 + 1) * 10_000, app, tid.0 as u64);
    }

    // Run, issuing runtime-layer ops at deterministic breakpoints.
    let runtime_ops: Vec<ByzOp> = combo
        .ops
        .iter()
        .filter(|o| !o.is_policy_op())
        .copied()
        .collect();
    for (i, op) in runtime_ops.iter().enumerate() {
        kernel.run_until((8 + 9 * i as u64) * MILLIS);
        let mut led = ledger.lock().unwrap();
        run_runtime_op(op, &mut kernel.state, &runtime, &byz, &mut led);
    }
    kernel.run_until(BYZ_HORIZON);

    // Judge.
    let records = sink.snapshot();
    let stats = runtime.stats();
    let led = ledger.lock().unwrap();
    let mut failures: Vec<Failure> = led
        .violations
        .iter()
        .map(|v| Failure {
            oracle: "typed-rejection",
            detail: v.clone(),
        })
        .collect();
    if stats.abi_rejects_total() < led.rejected {
        failures.push(Failure {
            oracle: "typed-rejection",
            detail: format!(
                "silent drop: {} hostile calls rejected but only {} typed rejections counted",
                led.rejected,
                stats.abi_rejects_total()
            ),
        });
    }
    let victim_completions: u64 = {
        let c = completions.lock().unwrap();
        victim_tids
            .iter()
            .map(|t| c.get(t).copied().unwrap_or(0))
            .sum()
    };
    failures.extend(oracle::evaluate(
        &records,
        sink.dropped(),
        &kernel.state,
        &runtime,
        victim.id(),
        &victim_tids,
        victim_completions,
        Some(StandbyConfig::default().recovery_slo),
    ));
    let report = ByzReport {
        victim_completions,
        hostile_rejected: led.rejected,
        quarantined: stats.quarantines > 0,
        stats,
    };
    (report, failures, records)
}

/// Runs `combo` to its horizon under the never-panic oracle and judges
/// it with the typed-rejection and victim-liveness oracles. Fully
/// deterministic: the same combo always returns the same outcome. Each
/// oracle violation is a `failure ...` line.
pub fn run_byzantine(combo: &ByzCombo) -> Outcome<ByzReport> {
    let (report, failures, records) = catch_unwind(AssertUnwindSafe(|| run_byzantine_inner(combo)))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            let panicked = Failure {
                oracle: "never-panic",
                detail: format!("hostile ABI sequence panicked the kernel: {msg}"),
            };
            (ByzReport::default(), vec![panicked], Vec::new())
        });
    Outcome {
        lines: vec![
            format!("victim-completions {}", report.victim_completions),
            format!("hostile-rejected {}", report.hostile_rejected),
            format!("abi-rejects {}", report.stats.abi_rejects_total()),
            format!("quarantines {}", report.stats.quarantines),
            format!("txns-committed {}", report.stats.txns_committed),
            format!("trace-records {}", records.len()),
        ],
        failures: failures.iter().map(|f| format!("failure {f}")).collect(),
        records,
        sample: report,
    }
}

/// The byzantine sweep: hostile ABI call sequences from a co-resident
/// malicious enclave, rotated over the victim policies. Repros are
/// tagged `"kind": "byzantine"`; failures shrink to a 1-minimal op
/// sequence.
#[derive(Debug, Clone, Copy)]
pub struct ByzantineSweep;

impl Sweep for ByzantineSweep {
    type Case = ByzCombo;
    type Sample = ByzReport;
    const KIND: Option<&'static str> = Some("byzantine");
    const DEFAULT_COMBOS: u64 = 64;
    const DETERMINISTIC: bool = true;

    fn policies(&self) -> Vec<PolicyKind> {
        ByzCombo::victims()
    }

    fn generate(&self, i: u64, seed_base: u64, victims: &[PolicyKind]) -> ByzCombo {
        ByzCombo::generated(rotate(victims, i), seed_base + i)
    }

    fn label(&self, combo: &ByzCombo) -> String {
        format!("byz/{}/seed={}", combo.victim.name(), combo.seed)
    }

    fn spec(&self, combo: &ByzCombo) -> String {
        combo.spec_string()
    }

    fn describe(&self, combo: &ByzCombo) -> String {
        format!(
            "victim={} seed={} ops={}",
            combo.victim.name(),
            combo.seed,
            combo.ops.len()
        )
    }

    fn run(&self, combo: &ByzCombo) -> Outcome<ByzReport> {
        run_byzantine(combo)
    }

    fn shrink(&self, combo: &ByzCombo) -> ByzCombo {
        shrink_by_removal(
            combo,
            |c| &mut c.ops,
            |c| !run_byzantine(c).failures.is_empty(),
        )
    }

    /// Ops render from [`ByzOp::spec`], with status-word payloads as
    /// decimal strings for the same `f64` reason as seeds.
    fn encode(&self, combo: &ByzCombo) -> String {
        let ops = combo.ops.iter();
        repro::document(
            Self::KIND,
            &[
                ("victim", repro::string(combo.victim.name())),
                ("seed", repro::string(&combo.seed.to_string())),
                (
                    "ops",
                    repro::array(ops.map(|op| repro::spec_to_json(&op.spec(), "op", &["value"]))),
                ),
            ],
        )
    }

    fn decode(&self, doc: &Json) -> Result<ByzCombo, String> {
        let victims = ByzCombo::victims();
        let ops = doc
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or("missing array field 'ops'")?
            .iter()
            .map(byz_op_from_json)
            .collect::<Result<_, _>>()?;
        Ok(ByzCombo {
            victim: repro::policy(doc, "victim", |p| victims.contains(&p))?,
            seed: repro::seed(doc)?,
            ops,
        })
    }
}

fn byz_op_from_json(v: &Json) -> Result<ByzOp, String> {
    let name = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("byzantine op without 'op'")?;
    let cpu = || repro::field_u64(v, "cpu").map(|c| c as u16);
    let tid = || repro::field_u64(v, "tid").map(|t| t as u32);
    let op = match name {
        "commit-forged-cpu" => ByzOp::CommitForgedCpu { cpu: cpu()? },
        "commit-foreign-tid" => ByzOp::CommitForeignTid { tid: tid()? },
        "commit-stale-seq" => ByzOp::CommitStaleSeq,
        "commit-atomic-mixed" => ByzOp::CommitAtomicMixed { cpu: cpu()? },
        "recall-forged" => ByzOp::RecallForged { cpu: cpu()? },
        "queue-destroy-default" => ByzOp::QueueDestroyDefault,
        "queue-associate-forged" => ByzOp::QueueAssociateForged {
            tid: tid()?,
            queue: repro::field_u64(v, "queue")? as u32,
        },
        "queue-wakeup-forged" => ByzOp::QueueWakeupForged { tid: tid()? },
        "pnt-push-foreign" => ByzOp::PntPushForeign { tid: tid()? },
        "ping-forged" => ByzOp::PingForged { cpu: cpu()? },
        "attach-forged" => ByzOp::AttachForged { tid: tid()? },
        "status-write" => ByzOp::StatusWrite {
            tid: tid()?,
            value: repro::field_str(v, "value")?
                .parse::<u64>()
                .map_err(|e| format!("bad status-write value: {e}"))?,
        },
        "status-read-forged" => ByzOp::StatusReadForged { tid: tid()? },
        "hint-forged" => ByzOp::HintForged { tid: tid()? },
        "upgrade-without-stage" => ByzOp::UpgradeWithoutStage,
        "destroy-twice" => ByzOp::DestroyTwice,
        "create-overlapping" => ByzOp::CreateOverlapping { cpu: cpu()? },
        other => return Err(format!("unknown byzantine op '{other}'")),
    };
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        for seed in 0..64 {
            assert_eq!(
                generate_byz_ops(seed),
                generate_byz_ops(seed),
                "seed {seed} not deterministic"
            );
        }
    }

    #[test]
    fn ops_are_bounded_and_cover_both_layers() {
        let mut policy_ops = 0usize;
        let mut runtime_ops = 0usize;
        for seed in 0..64 {
            let ops = generate_byz_ops(seed);
            assert!((3..=8).contains(&ops.len()));
            policy_ops += ops.iter().filter(|o| o.is_policy_op()).count();
            runtime_ops += ops.iter().filter(|o| !o.is_policy_op()).count();
        }
        assert!(policy_ops > 0, "no in-activation hostile ops generated");
        assert!(runtime_ops > 0, "no runtime-layer hostile ops generated");
    }

    #[test]
    fn byzantine_smoke_sweep_absorbs_hostile_sequences() {
        // A bounded in-tree slice of the CI byzantine sweep: every
        // hostile sequence must be absorbed — no panic, every rejection
        // typed, the victim alive — across all rotated victim policies.
        for seed in 1..=12u64 {
            let victims = ByzCombo::victims();
            let victim = victims[(seed % victims.len() as u64) as usize];
            let combo = ByzCombo::generated(victim, seed);
            let report = run_byzantine(&combo);
            assert!(
                report.failures.is_empty(),
                "victim={} seed={seed} ops={:?} failed: {:?}",
                victim.name(),
                combo.ops,
                report.failures
            );
        }
    }

    #[test]
    fn byzantine_runs_are_deterministic() {
        let combo = ByzCombo::generated(PolicyKind::PerCpu, 3);
        let a = run_byzantine(&combo);
        let b = run_byzantine(&combo);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn quarantine_fires_on_even_seeds_with_enough_strikes() {
        // Craft a sequence of guaranteed byzantine-classified strikes
        // (forged out-of-range CPUs and kernel-owned status writes) on
        // an even seed, which arms a budget of four.
        let combo = ByzCombo {
            victim: PolicyKind::PerCpu,
            seed: 2,
            ops: vec![
                ByzOp::CommitForgedCpu { cpu: 999 },
                ByzOp::CommitForgedCpu { cpu: 998 },
                ByzOp::StatusWrite {
                    tid: 0,
                    value: u64::MAX,
                },
                ByzOp::StatusWrite { tid: 1, value: 7 },
                ByzOp::CommitForgedCpu { cpu: 997 },
                ByzOp::CommitForgedCpu { cpu: 996 },
            ],
        };
        assert_eq!(combo.strike_budget(), Some(4));
        let outcome = run_byzantine(&combo);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        let report = outcome.sample;
        assert!(
            report.quarantined,
            "six byzantine strikes against a budget of four must quarantine"
        );
        assert!(report.hostile_rejected >= 6);
    }
}
