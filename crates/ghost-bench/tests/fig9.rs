//! Fig. 9 as a workspace test: rejoin latency rises with the enclave's
//! population, tracks the modeled status-word scan, and absorbs 50k
//! threads in the paper's ~105 ms regime.

use ghost_bench::fig9;

#[test]
fn rejoin_latency_has_the_paper_shape() {
    let points = fig9::points();
    assert_eq!(
        points.iter().map(|p| p.threads).collect::<Vec<_>>(),
        [1_000, 10_000, 50_000]
    );
    let errors = fig9::shape_errors(&points);
    assert!(
        errors.is_empty(),
        "Fig. 9 shape broken:\n{}",
        errors.join("\n")
    );
}
