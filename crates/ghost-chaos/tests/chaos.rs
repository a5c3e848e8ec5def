//! Integration tests for the chaos harness itself: the sweep is clean on
//! healthy code, replay is deterministic, shrinking is sound, and the
//! `for_seeds!` helper reports failing seeds.
//!
//! Gated off under `seeded-bug`: with the intentional teardown bug
//! compiled in, sweeps are *supposed* to fail (that's what
//! `tests/seeded_bug.rs` asserts), so the clean-run expectations here
//! only hold on healthy code.
#![cfg(not(feature = "seeded-bug"))]

use ghost_chaos::lab::run_sweep;
use ghost_chaos::rand::rngs::StdRng;
use ghost_chaos::rand::Rng;
use ghost_chaos::{for_seeds, run_combo, Combo, FaultSweep, PolicyKind, Sweep, SweepExperiment};

/// A small sweep across every policy must pass all oracles — the
/// runtime is expected to survive every generated fault plan. Runs
/// through the ghost-lab engine with two workers, the same path the
/// `ghost-chaos` binary takes with `--jobs`.
#[test]
fn small_sweep_is_clean_on_all_policies() {
    let exps: Vec<SweepExperiment<FaultSweep>> = PolicyKind::evaluation_matrix()
        .into_iter()
        .flat_map(|policy| {
            (1..=4).map(move |seed| SweepExperiment {
                sweep: &FaultSweep::FAULTS,
                case: Combo::generated(policy, seed),
            })
        })
        .collect();
    let report = run_sweep(&exps, 2, None);
    for item in &report.items {
        assert!(
            item.result.pass,
            "{} failed: {:?}",
            item.label, item.result.lines
        );
        let completions: u64 = item
            .result
            .lines
            .iter()
            .find_map(|l| l.strip_prefix("completions "))
            .expect("summary has a completions line")
            .parse()
            .expect("completions is a count");
        assert!(completions > 0, "{} did no work", item.label);
    }
}

/// The same combo always produces the same report: completions, stats,
/// and the full trace are bit-identical across runs.
#[test]
fn replay_is_deterministic() {
    let combo = Combo::generated(PolicyKind::Shinjuku, 7);
    let a = run_combo(&combo);
    let b = run_combo(&combo);
    assert_eq!(a.sample.completions, b.sample.completions);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.sample.stats.txns_committed, b.sample.stats.txns_committed);
    assert_eq!(a.records.len(), b.records.len());
    assert!(a.records.iter().zip(&b.records).all(|(x, y)| x == y));
}

/// A combo that passes its oracles comes back from the shrinker
/// untouched — shrinking only applies to failures.
#[test]
fn shrink_returns_clean_combo_unchanged() {
    let combo = Combo::generated(PolicyKind::CentralizedFifo, 3);
    assert!(run_combo(&combo).failures.is_empty(), "pick a clean seed");
    assert_eq!(FaultSweep::FAULTS.shrink(&combo), combo);
}

/// Repro round trip on a generated (not hand-built) combo.
#[test]
fn generated_combos_round_trip_through_repro_json() {
    for seed in 1..=10 {
        let combo = Combo::generated(PolicyKind::CoreSched, seed);
        let back = FaultSweep::FAULTS
            .parse(&FaultSweep::FAULTS.encode(&combo))
            .expect("parses");
        assert_eq!(back, combo);
    }
}

/// `for_seeds!` runs every case with a distinct derived seed.
#[test]
fn for_seeds_covers_every_case() {
    let mut seen = Vec::new();
    for_seeds!(0x100, 16, |rng: &mut StdRng| {
        seen.push(rng.gen_range(0..u64::MAX));
    });
    assert_eq!(seen.len(), 16);
    // Different seeds give different streams.
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 16, "per-case RNG streams collided");
}

/// A panicking case propagates (after reporting the failing seed).
#[test]
#[should_panic(expected = "case 11 boom")]
fn for_seeds_propagates_case_panics() {
    let mut case = 0;
    for_seeds!(0x200, 16, |_rng: &mut StdRng| {
        if case == 11 {
            panic!("case 11 boom");
        }
        case += 1;
    });
}

/// The recovery sweep actually exercises the standby machinery: across
/// a modest seed range, some combos respawn a standby agent and complete
/// a bounded-time recovery — and every one of them passes the recovery
/// oracles.
#[test]
fn recovery_sweep_exercises_standby_failover() {
    let mut standby_runs = 0u64;
    let mut respawns = 0u64;
    let mut recoveries = 0u64;
    let mut reconstructions = 0u64;
    for policy in PolicyKind::evaluation_matrix() {
        for seed in 1..=8 {
            let combo = Combo::generated_recovery(policy, seed);
            let report = run_combo(&combo);
            assert!(
                report.failures.is_empty(),
                "policy={} seed={seed} faults={:?} failed: {:?}",
                policy.name(),
                combo.plan.events,
                report.failures
            );
            if combo.plans_standby() {
                standby_runs += 1;
            }
            respawns += report.sample.stats.respawns;
            recoveries += report.sample.stats.recoveries;
            reconstructions += report.sample.stats.reconstructions;
        }
    }
    assert!(
        standby_runs > 0,
        "no seed armed a standby — sweep is vacuous"
    );
    assert!(respawns > 0, "no standby agent ever respawned");
    assert!(recoveries > 0, "no degraded-mode recovery ever completed");
    assert!(reconstructions > 0, "no status-word scan ever ran");
}

/// A standby-armed combo replays bit-identically, including through the
/// repro.json round trip (the standby setup is derived from the seed and
/// plan, never stored — the combo alone must reproduce it).
#[test]
fn standby_combo_replays_deterministically() {
    // Not every standby-armed combo respawns (a crash aimed at an
    // inactive satellite agent is non-fatal), so hunt for one that does.
    let (combo, a) = (1..64)
        .flat_map(|seed| {
            PolicyKind::evaluation_matrix()
                .into_iter()
                .map(move |p| Combo::generated_recovery(p, seed))
        })
        .filter(|c| c.plans_standby())
        .map(|c| {
            let report = run_combo(&c);
            (c, report)
        })
        .find(|(_, r)| r.sample.stats.respawns > 0)
        .expect("some recovery combo respawns a standby");
    let parsed = FaultSweep::FAULTS
        .parse(&FaultSweep::FAULTS.encode(&combo))
        .expect("repro round trip");
    assert!(parsed.plans_standby(), "standby derivation survives replay");
    let b = run_combo(&parsed);
    assert_eq!(a.sample.completions, b.sample.completions);
    assert_eq!(a.sample.stats.respawns, b.sample.stats.respawns);
    assert_eq!(a.sample.stats.recoveries, b.sample.stats.recoveries);
    assert_eq!(a.records.len(), b.records.len());
    assert!(a.records.iter().zip(&b.records).all(|(x, y)| x == y));
}
