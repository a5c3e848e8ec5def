//! Fig. 9: in-place upgrade rejoin latency, printed beside the modeled
//! status-word scan (see `ghost_bench::fig9`).

use ghost_bench::fig9;
use ghost_metrics::Table;

fn main() {
    let points = fig9::points();
    let mut t = Table::new(vec!["threads", "rejoin (ms)", "scan model (ms)"])
        .with_title("Fig. 9: in-place upgrade rejoin latency (Skylake, 112 CPUs)");
    for p in &points {
        t.row(vec![
            p.threads.to_string(),
            format!("{:.2}", p.measured_ns as f64 / 1e6),
            format!("{:.2}", p.model_ns as f64 / 1e6),
        ]);
    }
    t.print();
    println!();

    let errors = fig9::shape_errors(&points);
    assert!(
        errors.is_empty(),
        "Fig. 9 shape broken:\n{}",
        errors.join("\n")
    );
    let ms = points[2].measured_ns as f64 / 1e6;
    println!("50k-thread rejoin: {ms:.1} ms (paper: ~105 ms)  -- shape OK");
}
