//! The CLI rejects flag combinations it cannot honour — exit 2 with the
//! usage text — instead of silently resolving them by precedence.

use std::process::Command;

/// Runs the binary with `args` in a fresh temporary directory and checks it
/// refused: exit code 2, usage text on stderr, and no output file.
fn assert_rejected(name: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("ghost-chaos-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ghost-chaos"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("runs the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} not rejected: {stderr}"
    );
    assert!(stderr.contains("usage: ghost-chaos"), "{args:?}: {stderr}");
    assert!(written.is_empty(), "{args:?} wrote output before refusing");
}

/// A checked-in repro that replays cleanly on its own.
const REPRO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/repros/faults-shinjuku.json"
);

macro_rules! rejects {
    ($($name:ident: [$($arg:expr),*];)*) => {$(
        #[test]
        fn $name() {
            assert_rejected(stringify!($name), &[$($arg),*]);
        }
    )*};
}

rejects! {
    live_with_lending: ["--live", "--lending"];
    recovery_with_byzantine: ["--recovery", "--byzantine"];
    jobs_on_live: ["--live", "--jobs", "2"];
    cache_on_live: ["--live", "--cache", "cache"];
    digest_on_live: ["--live", "--digest", "digest.txt"];
    jobs_on_lending_live: ["--lending-live", "--jobs", "2"];
    cache_on_lending_live: ["--lending-live", "--cache", "cache"];
    digest_on_lending_live: ["--lending-live", "--digest", "digest.txt"];
    bench_out_on_faults: ["--bench-out", "bench.json"];
    bench_out_on_recovery: ["--recovery", "--bench-out", "bench.json"];
    bench_out_on_byzantine: ["--byzantine", "--bench-out", "bench.json"];
    replay_with_digest: ["--replay", REPRO, "--digest", "x.txt"];
    replay_with_sweep_flags: ["--combos", "5", "--policy", "per-cpu", "--seed-base", "9", "--replay", REPRO];
    replay_with_jobs: ["--replay", REPRO, "--jobs", "4"];
    replay_with_mode: ["--recovery", "--replay", REPRO];
    replay_with_out: ["--replay", REPRO, "--out", "out"];
}

/// The usage text gives every mode's default combo count.
#[test]
fn usage_lists_every_default_count() {
    let out = Command::new(env!("CARGO_BIN_EXE_ghost-chaos"))
        .arg("--help")
        .output()
        .expect("runs the binary");
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for default in [
        "default 64",
        "16 with",
        "6 with --live",
        "4 with --lending-live",
    ] {
        assert!(usage.contains(default), "usage lacks '{default}':\n{usage}");
    }
}
