//! A deterministic discrete-event simulator of the Linux kernel scheduling
//! machinery, built as the substrate for the ghOSt (SOSP 2021) reproduction.
//!
//! The simulator models exactly the pieces of Linux that ghOSt interacts
//! with:
//!
//! * **CPUs and topology** ([`topology`]) — sockets, physical cores, SMT
//!   siblings, AMD-style CCXs, and NUMA distances, with presets matching the
//!   machines used in the paper's evaluation.
//! * **Native threads** ([`thread`]) — created / runnable / running /
//!   blocked / dead state machine, affinity masks, nice values, runtime
//!   accounting, and an SMT-contention execution-rate model.
//! * **The scheduling-class hierarchy** ([`class`]) — Stop > Agent > RT >
//!   CFS > ghOSt > Idle priority ordering, exactly the property §3.4 of the
//!   paper relies on (ghOSt threads are preempted by CFS threads).
//! * **A CFS model** ([`cfs`]) — vruntime fair queueing with the kernel's
//!   nice-to-weight table, wakeup preemption, idle stealing, and periodic
//!   load balancing at millisecond granularity.
//! * **Kernel mechanics** ([`kernel`]) — timer ticks, IPIs, context
//!   switches, wakeup paths, and a virtual-nanosecond event loop.
//! * **A cost model** ([`costs`]) — operation costs calibrated against
//!   Table 3 of the paper.
//!
//! Workloads plug in through the [`app::App`] trait; userspace schedulers
//! (ghOSt agents, implemented in the `ghost-core` crate) plug in through
//! the [`agent::AgentDriver`] trait and a pluggable [`class::SchedClass`].
//!
//! Everything is single-threaded and deterministic: given the same seed and
//! configuration, a simulation replays event-for-event.

pub mod agent;
pub mod app;
pub mod cfs;
pub mod class;
pub mod costs;
pub mod cpu;
pub mod cpuset;
pub mod deferred;
pub mod event;
pub mod faults;
pub mod idle;
pub mod kernel;
pub mod rt;
pub mod thread;
pub mod time;
pub mod topology;

pub use agent::{AgentDriver, AgentOutcome};
pub use app::{App, AppId, Next};
pub use class::{ClassId, SchedClass, CLASS_AGENT, CLASS_CFS, CLASS_GHOST, CLASS_IDLE, CLASS_RT};
pub use costs::CostModel;
pub use cpu::CpuState;
pub use cpuset::CpuSet;
pub use faults::{FaultEvent, FaultKind, FaultPlan, IpiFate};
pub use kernel::{Kernel, KernelConfig, KernelState};
pub use thread::{SimThread, ThreadKind, ThreadState, Tid};
pub use time::{Nanos, MICROS, MILLIS, SECS};
pub use topology::{CpuId, Topology};
