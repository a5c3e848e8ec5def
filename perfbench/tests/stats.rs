//! The benchmark's own statistics and accounting.

use ghost_perfbench::layers::{complete_end_to_end, END_TO_END};
use ghost_perfbench::report::{Base, Report};
use ghost_perfbench::stats::{
    highest_supported, median, nearest_rank, supports, tails, Accounting,
};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn nearest_rank_picks_the_covering_sample() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(nearest_rank(&v, 50.0), 50);
    assert_eq!(nearest_rank(&v, 99.0), 99);
    assert_eq!(nearest_rank(&v, 99.5), 100);
    assert_eq!(nearest_rank(&v, 100.0), 100);
    assert_eq!(nearest_rank(&v, 0.1), 1);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(highest_supported(19), None);
    assert_eq!(highest_supported(20), Some(50.0));
    assert_eq!(highest_supported(100), Some(90.0));
    assert_eq!(highest_supported(999), Some(90.0));
    assert_eq!(highest_supported(1_000), Some(99.0));
    assert_eq!(highest_supported(10_000), Some(99.9));
    assert_eq!(highest_supported(100_000), Some(99.99));
    assert!(supports(1_000, 99.0));
    assert!(!supports(999, 99.0));
    assert!(supports(1_000, 50.0));
}

#[test]
fn tails_report_their_sample_count() {
    let mut few: Vec<u64> = (0..999).collect();
    assert!(
        tails(&mut few).is_none(),
        "p99 of 999 samples has 9 beyond it"
    );

    let mut v: Vec<u64> = (1..=2_000).rev().collect();
    let (p50, p99, top) = tails(&mut v).expect("2000 samples support p99");
    assert_eq!((p50.value, p50.n), (1_000, 2_000));
    assert_eq!((p99.value, p99.n), (1_980, 2_000));
    assert_eq!(top.p, 99.0);
}

#[test]
fn accounting_balances_sent_against_completed_and_failed() {
    let a = Accounting::from_counts(100, 97, 0);
    assert_eq!((a.sent, a.completed, a.failed), (100, 97, 3));
    assert!(a.balanced());
    assert!((a.failed_frac() - 0.03).abs() < 1e-12);

    // Shed or failed requests never complete; a service that reports
    // more completions than it could have served is capped.
    let b = Accounting::from_counts(100, 100, 5);
    assert_eq!((b.completed, b.failed), (95, 5));

    let c = a + b;
    assert_eq!((c.sent, c.completed, c.failed), (200, 192, 8));
    assert!(c.balanced());

    assert_eq!(Accounting::default().failed_frac(), 0.0);
    for sent in 0..20u64 {
        for completed in 0..25u64 {
            for rejected in 0..25u64 {
                let x = Accounting::from_counts(sent, completed, rejected);
                assert!(x.balanced(), "{x:?}");
                assert!(x.failed >= rejected.min(sent), "{x:?}");
            }
        }
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut r = Report {
        acct: Accounting::from_counts(10, 10, 0),
        ..Report::default()
    };
    r.put("setup_s", 0.5, "s", Base::Host);
    r.put_n("latency_us", 12.0, "us", Base::Host, 10);
    assert!(r.correct());
    assert_eq!(
        r.json(),
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
         \"latency_us\": {\"value\": 12.0, \"unit\": \"us\"}}}"
    );

    r.check(false, || "broken".into());
    assert!(!r.correct());
    assert!(r.json().starts_with("{\"correct\": false,"));
}

#[test]
fn a_non_finite_value_makes_the_result_incorrect() {
    let mut r = Report {
        acct: Accounting::from_counts(1, 1, 0),
        ..Report::default()
    };
    r.put("throughput", f64::NAN, "work/s", Base::SimPerHost);
    assert!(!r.correct());
    assert!(r.json().contains("\"value\": 0"));
}

#[test]
fn end_to_end_line_holds_every_metric_or_fails() {
    let full = || {
        let mut r = Report {
            acct: Accounting::from_counts(1, 1, 0),
            ..Report::default()
        };
        r.put("latency_us", 3.0, "us", Base::Simulated);
        r.put("sim.events", 9.0, "count", Base::None);
        r.put("peak_rss_mb", 100.0, "MB", Base::Host);
        r.put("throughput", 2.0, "work/s", Base::SimPerHost);
        r.put("setup_s", 0.1, "s", Base::Host);
        r
    };
    let mut r = full();
    complete_end_to_end(&mut r);
    assert!(r.correct());
    let names: Vec<_> = r.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<_> = END_TO_END.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, expected);

    let mut r = full();
    r.metrics.retain(|m| m.name != "latency_us");
    complete_end_to_end(&mut r);
    assert!(!r.correct());

    let mut r = full();
    r.metrics
        .iter_mut()
        .filter(|m| m.name == "throughput")
        .for_each(|m| m.unit = "1/s");
    complete_end_to_end(&mut r);
    assert!(!r.correct());
}
