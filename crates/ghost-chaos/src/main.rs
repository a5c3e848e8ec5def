//! The `ghost-chaos` CLI: pick one sweep mode, sweep its cases across
//! the mode's policies, shrink any deterministic failure to a minimal
//! repro, and write `repro-<i>.json` + a Chrome trace for offline
//! debugging — or replay one repro under the mode its `kind` tag names.
//! Every mode runs through the one driver in `ghost_chaos::sweep`.
//!
//! Deterministic modes run on the `ghost-lab` parallel experiment
//! engine: each combo is a deterministic single-threaded simulation, so
//! `--jobs N` changes wall-clock time and nothing else — per-combo
//! result hashes (and any repro/trace files) are byte-identical to a
//! serial run. CI diffs the `--digest` output of a `--jobs 1` and a
//! `--jobs 4` run to enforce exactly that.
//!
//! ```text
//! cargo run -p ghost-chaos -- --combos 64           # the CI smoke sweep
//! cargo run -p ghost-chaos -- --combos 64 --jobs 4  # same results, faster
//! cargo run -p ghost-chaos -- --policy shinjuku     # one policy only
//! cargo run -p ghost-chaos -- --replay repro.json   # deterministic replay
//! ```

use ghost_chaos::{replay, Driver, PolicyKind, SweepOpts, MODES};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: ghost-chaos [MODE] [--combos N] [--seed-base S] [--out DIR] [--policy NAME] \
         [--bench-out F] [--jobs N] [--cache DIR] [--digest FILE]\n\
         \x20      ghost-chaos --replay FILE    (no other flags)\n\
         \n\
         Sweeps N (policy x workload x fault-plan x seed) combos through the\n\
         simulated ghOSt runtime. Failing combos are shrunk to a minimal fault\n\
         plan; DIR receives repro-<i>.json plus trace-<i>.json (Chrome format).\n\
         MODE is at most one of the mode flags below (default: fault plans).\n\
         \n\
         --combos N      number of combos to run (default 64; 16 with\n\
         \x20               --lending, 6 with --live, 4 with --lending-live)\n\
         --seed-base S   first seed (default 1)\n\
         --out DIR       output directory for repros (default chaos-out)\n\
         --policy NAME   restrict to one policy: {}\n\
         --replay FILE   replay one repro.json; its \"kind\" tag picks the mode\n\
         --recovery      recovery sweep: every plan crashes an agent or\n\
         \x20               upgrades in place; odd crash seeds arm a hot\n\
         \x20               standby judged by the bounded-recovery oracle\n\
         --byzantine     byzantine sweep: each combo runs a seeded hostile\n\
         \x20               ABI call sequence from a co-resident malicious\n\
         \x20               enclave, judged by the never-panic,\n\
         \x20               typed-rejection, and victim-liveness oracles\n\
         --live          live sweep: inject crash/hang/slow plans into the\n\
         \x20               ghost-live real-thread backend, judged by\n\
         \x20               wall-clock oracles (grace-windowed invariants,\n\
         \x20               stranded workers, recovery within 1 s); failures\n\
         \x20               capture repro.json without shrinking\n\
         --lending       multi-enclave lending sweep: rotate the four\n\
         \x20               control-plane fault rows (rm-crash,\n\
         \x20               borrower-crash, revoke-reconstruct,\n\
         \x20               deadline-stress) x policies through the simulated\n\
         \x20               two-enclave RM harness; oracles require zero\n\
         \x20               stranded leases and full grant accounting\n\
         --lending-live  the same four lending fault rows on the\n\
         \x20               real-thread backend, injected at wall-clock\n\
         \x20               marks; failures capture repro.json unshrunk\n\
         --bench-out F   (--live, --lending, --lending-live) write/merge\n\
         \x20               measured rows (recovery/shed, lease-reclaim\n\
         \x20               latency) into bench JSON file F\n\
         --jobs N        worker threads for the sweep (default 1); results\n\
         \x20               are byte-identical for every N (simulated modes)\n\
         --cache DIR     ghost-lab result cache: unchanged combos are not\n\
         \x20               re-simulated (simulated modes)\n\
         --digest FILE   write 'label hash' lines for serial-vs-parallel\n\
         \x20               comparison (simulated modes)",
        PolicyKind::evaluation_matrix()
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// Rejects with the usage text, saying why.
fn reject(why: &str) -> ! {
    eprintln!("{why}");
    usage()
}

/// The parsed command line: the replay file or the mode to sweep, and
/// the sweep's knobs.
fn parse_args() -> (Option<String>, &'static dyn Driver, SweepOpts) {
    let mut opts = SweepOpts {
        seed_base: 1,
        out_dir: "chaos-out".into(),
        jobs: 1,
        ..SweepOpts::default()
    };
    let (mut flag, mut mode) = MODES[0];
    let mut replay = None;
    // The first argument other than `--replay`: a replay takes every
    // setting from its repro file, so any other flag is refused.
    let mut other = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg != "--replay" && other.is_none() {
            other = Some(arg.clone());
        }
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| reject(&format!("{name} needs a value")))
        };
        if let Some(&(given, driver)) = MODES.iter().find(|(f, _)| *f == Some(arg.as_str())) {
            if flag.is_some() && flag != given {
                reject(&format!(
                    "{} and {arg} select different sweeps; give at most one",
                    flag.unwrap_or_default()
                ));
            }
            (flag, mode) = (given, driver);
            continue;
        }
        match arg.as_str() {
            "--combos" => {
                opts.combos = Some(value("--combos").parse().unwrap_or_else(|_| usage()));
            }
            "--seed-base" => {
                opts.seed_base = value("--seed-base").parse().unwrap_or_else(|_| usage());
            }
            "--out" => opts.out_dir = value("--out"),
            "--policy" => {
                let name = value("--policy");
                opts.policy = Some(
                    PolicyKind::from_name(&name)
                        .unwrap_or_else(|| reject(&format!("unknown policy '{name}'"))),
                );
            }
            "--replay" => replay = Some(value("--replay")),
            "--bench-out" => opts.bench_out = Some(value("--bench-out")),
            "--jobs" => opts.jobs = value("--jobs").parse().unwrap_or_else(|_| usage()),
            "--cache" => opts.cache = Some(value("--cache")),
            "--digest" => opts.digest = Some(value("--digest")),
            "--help" | "-h" => usage(),
            other => reject(&format!("unknown argument '{other}'")),
        }
    }
    if let (Some(_), Some(other)) = (&replay, &other) {
        reject(&format!("--replay takes no other flags (got {other})"));
    }
    let flag = flag.unwrap_or("the fault sweep");
    if !mode.deterministic() {
        for (given, name) in [
            (opts.jobs > 1, "--jobs above 1"),
            (opts.cache.is_some(), "--cache"),
            (opts.digest.is_some(), "--digest"),
        ] {
            if given {
                reject(&format!(
                    "{name} needs a simulated sweep; {flag} runs serially on real threads"
                ));
            }
        }
    }
    if opts.bench_out.is_some() && !mode.writes_bench() {
        reject(&format!("--bench-out: {flag} writes no bench rows"));
    }
    (replay, mode, opts)
}

fn main() -> ExitCode {
    let (replay_path, mode, opts) = parse_args();
    match replay_path {
        Some(path) => replay(&path),
        None => mode.sweep(&opts),
    }
}
