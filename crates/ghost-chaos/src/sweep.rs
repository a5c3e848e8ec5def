//! One sweep driver for every chaos mode.
//!
//! A mode — fault plans, recovery, byzantine, live, lending,
//! lending-live — is a [`Sweep`]: it generates its `i`-th case, runs
//! and judges one case into an [`Outcome`], optionally shrinks a
//! failing case, and encodes/decodes a case as a kind-tagged
//! `repro.json`. One driver runs any mode the same way:
//!
//! * **Deterministic** modes run on the `ghost-lab` engine, so `--jobs`,
//!   `--cache` and `--digest` apply and `--jobs N` is byte-identical to
//!   serial. Failing cases are shrunk serially after the sweep and
//!   re-run to capture the trace of the minimal repro.
//! * **Live** modes run serially on real threads (parallel combos would
//!   contend for cores) and are never shrunk: a re-run observes another
//!   interleaving, so a failure keeps its own recorded trace.
//!
//! Either way a failure writes `repro-<i>.json` and `trace-<i>.json`
//! into the output directory, and modes with bench rows merge them into
//! the `--bench-out` file by `(name, backend)`. [`MODES`] lists the
//! modes with their CLI flags, and [`mode_of`] turns a repro's `kind` tag
//! back into the mode that replays it.

use crate::byzantine::ByzantineSweep;
use crate::lending::{LendingLiveSweep, LendingSweep};
use crate::live::LiveSweep;
use crate::repro;
use crate::run::{FaultSweep, PolicyKind};
use ghost_lab::bench::{merged_bench_json, BenchRow};
use ghost_lab::engine::{run_sweep, Experiment, ExperimentResult};
use ghost_lab::{fnv64_lines, Cache};
use ghost_trace::json::{self, Json};
use ghost_trace::TraceRecord;
use std::process::ExitCode;
use std::time::Instant;

/// One chaos mode: how to generate, run, judge, shrink and encode its
/// cases.
pub trait Sweep: Sync {
    /// One point of the sweep: everything needed to rerun it.
    type Case: Clone + PartialEq + Sync;
    /// What one run contributes to the mode's bench rows.
    type Sample;
    /// The repro's `kind` tag; `None` for fault-plan combos, whose
    /// repros predate the tag.
    const KIND: Option<&'static str>;
    /// Cases swept when `--combos` is not given.
    const DEFAULT_COMBOS: u64;
    /// Deterministic modes run on the engine (parallel, cached,
    /// digested) and may shrink; live modes do neither.
    const DETERMINISTIC: bool;
    /// True if the mode writes `--bench-out` rows.
    const BENCH: bool = false;

    /// The mode's name in reports: its kind tag, unless untagged.
    fn name(&self) -> &'static str {
        Self::KIND.unwrap_or("fault")
    }
    /// The policies the sweep rotates through.
    fn policies(&self) -> Vec<PolicyKind>;
    /// True if `--policy` may pin the sweep to `policy`.
    fn accepts(&self, policy: PolicyKind) -> bool {
        self.policies().contains(&policy)
    }
    /// The `i`-th case of a sweep over `policies` seeded from
    /// `seed_base`.
    fn generate(&self, i: u64, seed_base: u64, policies: &[PolicyKind]) -> Self::Case;
    /// The case's label in the digest.
    fn label(&self, case: &Self::Case) -> String;
    /// Everything that affects the outcome: the engine's cache key.
    fn spec(&self, case: &Self::Case) -> String {
        self.encode(case)
    }
    /// One human-readable line naming the case.
    fn describe(&self, case: &Self::Case) -> String {
        self.label(case)
    }
    /// Runs the case and judges it with the mode's oracles.
    fn run(&self, case: &Self::Case) -> Outcome<Self::Sample>;
    /// A smaller case that still fails; the case itself if the mode
    /// does not shrink.
    fn shrink(&self, case: &Self::Case) -> Self::Case {
        case.clone()
    }
    /// The case as a `repro.json` document.
    fn encode(&self, case: &Self::Case) -> String;
    /// The case back from a parsed document whose kind tag matched.
    fn decode(&self, doc: &Json) -> Result<Self::Case, String>;
    /// Bench rows from a finished sweep: each run case with its sample,
    /// in sweep order (deterministic modes pass none).
    fn bench_rows(
        &self,
        _policies: &[PolicyKind],
        _seed_base: u64,
        _runs: Vec<(Self::Case, Self::Sample)>,
    ) -> Vec<BenchRow> {
        Vec::new()
    }

    /// Parses and decodes a `repro.json` document of this mode.
    fn parse(&self, input: &str) -> Result<Self::Case, String> {
        let doc = json::parse(input)?;
        repro::expect_kind(&doc, Self::KIND)?;
        self.decode(&doc)
    }
}

/// One judged run.
pub struct Outcome<S = ()> {
    /// Result lines (counters, trace hash) that, with the failure
    /// lines, make up the hashed engine result.
    pub lines: Vec<String>,
    /// One line per oracle violation; empty means the case passed.
    pub failures: Vec<String>,
    /// The recorded trace, exported as `trace-<i>.json` on failure.
    pub records: Vec<TraceRecord>,
    /// What the run contributes to bench rows.
    pub sample: S,
}

/// A case of a deterministic [`Sweep`] as a `ghost-lab` experiment: the
/// result lines are the outcome's lines followed by its failure lines,
/// hashed with FNV-1a.
pub struct SweepExperiment<'a, S: Sweep> {
    /// The mode that runs the case.
    pub sweep: &'a S,
    /// The case.
    pub case: S::Case,
}

impl<S: Sweep> Experiment for SweepExperiment<'_, S> {
    fn label(&self) -> String {
        self.sweep.label(&self.case)
    }

    fn spec(&self) -> String {
        self.sweep.spec(&self.case)
    }

    fn execute(&self) -> ExperimentResult {
        let outcome = self.sweep.run(&self.case);
        let pass = outcome.failures.is_empty();
        let mut lines = outcome.lines;
        lines.extend(outcome.failures);
        ExperimentResult {
            pass,
            hash: fnv64_lines(&lines),
            lines,
        }
    }
}

/// The `i`-th policy of a sweep that rotates `policies` fastest.
pub(crate) fn rotate(policies: &[PolicyKind], i: u64) -> PolicyKind {
    policies[(i % policies.len() as u64) as usize]
}

/// The CLI's sweep knobs (the mode itself is picked from [`MODES`]).
#[derive(Debug, Clone, Default)]
pub struct SweepOpts {
    /// Cases to run; the mode's default if `None`.
    pub combos: Option<u64>,
    /// Seed of case 0.
    pub seed_base: u64,
    /// Where failing cases write `repro-<i>.json` and `trace-<i>.json`.
    pub out_dir: String,
    /// Pin the sweep to one policy.
    pub policy: Option<PolicyKind>,
    /// Merge the mode's bench rows into this file.
    pub bench_out: Option<String>,
    /// Engine worker threads (deterministic modes).
    pub jobs: usize,
    /// Engine result cache directory (deterministic modes).
    pub cache: Option<String>,
    /// Write the engine's `label hash` digest here (deterministic modes).
    pub digest: Option<String>,
}

/// The exit code of a sweep or replay: 0 if every case passed, 1 if an
/// oracle failed, 2 on a usage or IO error (reported on stderr).
fn exit_code(result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn sweep_cases<S: Sweep>(sweep: &S, opts: &SweepOpts) -> Result<bool, String> {
    let policies = match opts.policy {
        Some(p) if sweep.accepts(p) => vec![p],
        Some(p) => {
            let names: Vec<_> = sweep.policies().iter().map(|p| p.name()).collect();
            return Err(format!(
                "policy '{}' is not in the {} sweep (it runs {})",
                p.name(),
                sweep.name(),
                names.join(", ")
            ));
        }
        None => sweep.policies(),
    };
    let combos = opts.combos.unwrap_or(S::DEFAULT_COMBOS);
    let cases: Vec<S::Case> = (0..combos)
        .map(|i| sweep.generate(i, opts.seed_base, &policies))
        .collect();
    let started = Instant::now();
    let mut passed = vec![false; cases.len()];
    let mut samples = Vec::new();
    let mut engine_note = String::new();
    if S::DETERMINISTIC {
        let cache = opts
            .cache
            .as_deref()
            .map(|dir| Cache::open(dir).map_err(|e| format!("cannot open cache {dir}: {e}")))
            .transpose()?;
        let exps: Vec<SweepExperiment<S>> = cases
            .iter()
            .map(|case| SweepExperiment {
                sweep,
                case: case.clone(),
            })
            .collect();
        let report = run_sweep(&exps, opts.jobs, cache.as_ref());
        engine_note = format!(
            " with {} job(s) ({} executed, {} cached)",
            opts.jobs, report.executed, report.cached
        );
        // Failures are shrunk serially, after the parallel sweep, so
        // repro files are independent of worker count and scheduling.
        for (i, item) in report.items.iter().enumerate() {
            passed[i] = item.result.pass;
            if !item.result.pass {
                let case = &cases[i];
                let outcome = sweep.run(case);
                report_case(sweep, i, case, &outcome);
                let minimal = sweep.shrink(case);
                let records = if minimal == *case {
                    outcome.records
                } else {
                    println!("  shrunk to {}", sweep.describe(&minimal));
                    sweep.run(&minimal).records
                };
                write_repro(&opts.out_dir, i, &sweep.encode(&minimal), &records);
            }
        }
        if let Some(path) = &opts.digest {
            write(path, &report.digest())?;
            println!("wrote digest to {path}");
        }
    } else {
        for (i, case) in cases.iter().enumerate() {
            let outcome = sweep.run(case);
            passed[i] = outcome.failures.is_empty();
            report_case(sweep, i, case, &outcome);
            if !passed[i] {
                write_repro(&opts.out_dir, i, &sweep.encode(case), &outcome.records);
            }
            samples.push((case.clone(), outcome.sample));
        }
    }
    let failed = passed.iter().filter(|&&p| !p).count();
    println!(
        "swept {combos} {} combos across {} policies{engine_note} in {:.2?}: {failed} failed",
        sweep.name(),
        policies.len(),
        started.elapsed(),
    );
    for (j, p) in policies.iter().enumerate() {
        let clean = (j..passed.len())
            .step_by(policies.len())
            .filter(|&i| passed[i])
            .count();
        println!("  {:>16}: {clean} clean", p.name());
    }
    if let Some(path) = &opts.bench_out {
        let rows = sweep.bench_rows(&policies, opts.seed_base, samples);
        let existing = std::fs::read_to_string(path).ok();
        write(path, &merged_bench_json(existing.as_deref(), &rows))?;
        println!("wrote {} bench row(s) to {path}", rows.len());
    }
    Ok(failed == 0)
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Prints one case: its description, then (live modes, whose sweep
/// output is the only record of a wall-clock run) its result lines,
/// then its failures.
fn report_case<S: Sweep>(sweep: &S, i: usize, case: &S::Case, outcome: &Outcome<S::Sample>) {
    let verdict = if outcome.failures.is_empty() {
        ""
    } else {
        " FAILED:"
    };
    println!("combo {i}: {}{verdict}", sweep.describe(case));
    if !S::DETERMINISTIC {
        for line in &outcome.lines {
            println!("  {line}");
        }
    }
    for f in &outcome.failures {
        println!("  {f}");
    }
}

/// Writes a failing case's repro and trace. Errors are reported but do
/// not stop the sweep: the verdict is what matters.
fn write_repro(out_dir: &str, index: usize, repro: &str, records: &[TraceRecord]) {
    let repro_path = format!("{out_dir}/repro-{index}.json");
    let trace_path = format!("{out_dir}/trace-{index}.json");
    let written = std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {out_dir}: {e}"))
        .and_then(|()| write(&repro_path, repro))
        .and_then(|()| write(&trace_path, &ghost_trace::chrome::export(records)));
    match written {
        Ok(()) => println!("  wrote {repro_path} and {trace_path}"),
        Err(e) => eprintln!("{e}"),
    }
}

/// Replays one `repro.json`, picking the mode from its `kind` tag; see
/// [`exit_code`].
pub fn replay(path: &str) -> ExitCode {
    let input = match std::fs::read_to_string(path) {
        Ok(input) => input,
        Err(e) => return exit_code(Err(format!("cannot read {path}: {e}"))),
    };
    exit_code(
        json::parse(&input)
            .and_then(|doc| mode_of(&doc)?.replay(path, &doc))
            .map_err(|e| format!("cannot parse {path}: {e}")),
    )
}

/// Every sweep mode: the CLI flag that selects it (`None` for the
/// default fault sweep) and its driver.
pub const MODES: [(Option<&str>, &dyn Driver); 6] = [
    (None, &FaultSweep::FAULTS),
    (Some("--recovery"), &FaultSweep::RECOVERY),
    (Some("--byzantine"), &ByzantineSweep),
    (Some("--live"), &LiveSweep),
    (Some("--lending"), &LendingSweep),
    (Some("--lending-live"), &LendingLiveSweep),
];

/// The mode that replays `doc`, picked by its `kind` tag. An untagged
/// document is a fault-plan combo.
pub fn mode_of(doc: &Json) -> Result<&'static dyn Driver, String> {
    let kind = repro::kind(doc)?;
    MODES
        .iter()
        .map(|&(_, mode)| mode)
        .find(|mode| mode.kind() == kind)
        .ok_or_else(|| format!("unknown repro kind '{}'", kind.unwrap_or_default()))
}

/// The object-safe face of a [`Sweep`], so a mode picked at run time can
/// be driven.
pub trait Driver: Sync {
    /// The repro `kind` tag.
    fn kind(&self) -> Option<&'static str>;
    /// True if the mode runs on the engine (`--jobs`, `--cache`,
    /// `--digest` apply).
    fn deterministic(&self) -> bool;
    /// True if the mode writes `--bench-out` rows.
    fn writes_bench(&self) -> bool;
    /// Runs the sweep `opts` describes; see [`exit_code`].
    fn sweep(&self, opts: &SweepOpts) -> ExitCode;
    /// Decodes, runs and judges one parsed repro; `Ok(true)` on a pass.
    fn replay(&self, path: &str, doc: &Json) -> Result<bool, String>;
    /// Decodes a parsed repro and encodes it again.
    fn recode(&self, doc: &Json) -> Result<String, String>;
}

impl<S: Sweep> Driver for S {
    fn kind(&self) -> Option<&'static str> {
        S::KIND
    }

    fn deterministic(&self) -> bool {
        S::DETERMINISTIC
    }

    fn writes_bench(&self) -> bool {
        S::BENCH
    }

    fn sweep(&self, opts: &SweepOpts) -> ExitCode {
        exit_code(sweep_cases(self, opts))
    }

    fn replay(&self, path: &str, doc: &Json) -> Result<bool, String> {
        let case = self.decode(doc)?;
        let wall_clock =
            " (wall-clock: the fault schedule replays exactly, the interleaving is best-effort)";
        println!(
            "replaying {path}: {} {}{}",
            self.name(),
            self.describe(&case),
            if S::DETERMINISTIC { "" } else { wall_clock }
        );
        let outcome = self.run(&case);
        for line in &outcome.lines {
            println!("  {line}");
        }
        for f in &outcome.failures {
            println!("  FAIL {f}");
        }
        if outcome.failures.is_empty() {
            println!("  PASS: all oracles clean");
        }
        Ok(outcome.failures.is_empty())
    }

    fn recode(&self, doc: &Json) -> Result<String, String> {
        self.decode(doc).map(|case| self.encode(&case))
    }
}
