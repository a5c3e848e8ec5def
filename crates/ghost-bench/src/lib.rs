//! # ghost-bench — experiment harnesses for the paper's evaluation
//!
//! Each module wires a complete experiment (machine, scheduler(s) under
//! test, workload) and returns structured results. The `benches/`
//! directory contains one `harness = false` bench target per table and
//! figure that sweeps parameters, prints the same rows/series the paper
//! reports, and asserts the paper's *shapes* (who wins, where crossovers
//! fall). `tests/table3.rs` and `tests/fig9.rs` run the Table 3 and
//! Fig. 9 checks in the workspace test suite.
//!
//! | module | regenerates |
//! |---|---|
//! | [`loc`] | Table 2 (lines of code) |
//! | [`table3`] | Table 3 (ghOSt operation microbenchmarks) |
//! | [`fig5`] | Fig. 5 (global-agent scalability) |
//! | [`fig6`] | Fig. 6a–c (Shinjuku comparison + batch sharing) |
//! | [`fig7`] | Fig. 7a–b (Snap tail latencies) |
//! | [`fig8`] | Fig. 8a–f (Google Search throughput + tails) |
//! | [`fig9`] | Fig. 9 (in-place upgrade rejoin latency) |
//! | [`table4`] | Table 4 (secure VM core scheduling) |
//!
//! `benches/criterion_micro.rs` times the real data structures behind the
//! ABI (message queue, status words, PNT rings, CPU sets, event queue,
//! histogram) in host time.

pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod loc;
pub mod table3;
pub mod table4;
