//! Measurement infrastructure for the ghOSt reproduction.
//!
//! This crate provides the building blocks every benchmark harness in the
//! repository uses to report results in the same shape as the paper:
//!
//! * [`LogHistogram`] — an HDR-style log-bucketed latency histogram with
//!   bounded relative error, used for every tail-latency figure
//!   (Figs. 6 and 7 of the paper).
//! * [`TimeSeries`] — time-binned samples with per-bin percentile
//!   extraction, used for the Google Search time-series plots (Fig. 8).
//! * [`MeanTracker`] — a streaming mean without stored samples.
//! * [`table`] — fixed-width text table rendering so each harness prints
//!   the same rows/series the paper reports.
//!
//! All types use plain integers for time (nanoseconds) to match the
//! simulator's virtual clock and avoid floating-point drift in hot paths.

pub mod hist;
pub mod series;
pub mod stats;
pub mod table;

pub use hist::{LogHistogram, Percentile, TailSummary, PERCENTILES_SNAP};
pub use series::TimeSeries;
pub use stats::MeanTracker;
pub use table::Table;
