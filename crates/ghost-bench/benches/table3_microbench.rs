//! Table 3: microbenchmarks of ghOSt-specific operations, printed beside
//! the paper's numbers (see `ghost_bench::table3`).

use ghost_bench::table3;
use ghost_metrics::Table;

fn main() {
    let rows = table3::rows();
    let mut t = Table::new(vec!["operation", "paper (ns)", "measured (ns)", "delta"])
        .with_title("Table 3: ghOSt microbenchmarks (simulated Skylake)");
    for row in &rows {
        t.row(vec![
            row.name.to_string(),
            format!("{:.0}", row.paper),
            format!("{:.0}", row.measured),
            format!("{:+.1}%", row.delta() * 100.0),
        ]);
    }
    t.print();

    // Shape assertions: every row within 5% of the paper (the group e2e
    // row is allowed 5% for the documented overlap approximation).
    for row in &rows {
        assert!(
            row.delta().abs() <= 0.05,
            "{}: measured {:.0} vs paper {:.0}",
            row.name,
            row.measured,
            row.paper
        );
    }
    println!("\nOK: all 12 rows within 5% of the paper.");
}
