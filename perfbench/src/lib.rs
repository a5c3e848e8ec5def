//! The repository benchmark. Each workload builds its inputs from a
//! seed, drives the repository crates through their public API, checks
//! the outputs, and reports end-to-end metrics (untraced runs) or
//! per-layer metrics (traced runs). See `README.md` in this directory.

pub mod des;
pub mod layers;
pub mod live;
pub mod percpu;
pub mod probe;
pub mod report;
pub mod scale;
pub mod stats;
pub mod sweep;
