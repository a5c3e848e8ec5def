//! Table 3 as a workspace test: every microbenchmark row stays within 5%
//! of the paper's number.

use ghost_bench::table3;

#[test]
fn every_table3_row_within_five_percent_of_the_paper() {
    let rows = table3::rows();
    assert_eq!(rows.len(), 12);
    for row in &rows {
        assert!(
            row.delta().abs() <= 0.05,
            "{}: measured {:.0} vs paper {:.0}",
            row.name,
            row.measured,
            row.paper
        );
    }
}
