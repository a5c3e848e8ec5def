//! The checked-in repros, one table for every kind: each file decodes
//! through the unified decoder (the `kind` tag picks the mode),
//! re-encodes to the same bytes, and — for the deterministic kinds —
//! replays with every oracle clean. Live repros are not replayed here:
//! a wall-clock run is best-effort, and `ghost-chaos --live` covers it.

use ghost_chaos::mode_of;
use ghost_trace::json;
use std::collections::BTreeSet;

#[test]
fn every_checked_in_repro_round_trips_and_replays() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repros");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("repro directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    paths.sort();
    let mut kinds = BTreeSet::new();
    for path in &paths {
        let path = path.display().to_string();
        let input = std::fs::read_to_string(&path).expect("readable repro");
        let doc = json::parse(&input).unwrap_or_else(|e| panic!("{path}: {e}"));
        let driver = mode_of(&doc).unwrap_or_else(|e| panic!("{path}: {e}"));
        let recoded = driver
            .recode(&doc)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(recoded, input, "{path}: re-encoding changed the bytes");
        // With the seeded teardown bug compiled in, fault-plan repros
        // that reach teardown are supposed to fail (tests/seeded_bug.rs).
        if driver.deterministic() && !cfg!(feature = "seeded-bug") {
            let passed = driver
                .replay(&path, &doc)
                .unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(passed, "{path}: replay failed its oracles");
        }
        kinds.insert(driver.kind());
    }
    let want = BTreeSet::from([
        None,
        Some("byzantine"),
        Some("live"),
        Some("lending"),
        Some("lending-live"),
    ]);
    assert_eq!(kinds, want, "one checked-in repro per kind");
}
