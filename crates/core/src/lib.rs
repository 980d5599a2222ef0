//! # darco-core — the DARCO controller
//!
//! Ties the four components of the paper's Fig. 2 together:
//!
//! * the **x86 Component** — the authoritative functional emulator
//!   ([`checker::StateChecker`] owns its state and memory),
//! * the **Co-design Component** — the software layer
//!   ([`darco_tol::Tol`]) executing against the *emulated* guest state
//!   and memory,
//! * the **Timing Simulator** — one or more [`darco_timing::Pipeline`]s
//!   fed from the retired host-instruction stream (the multi-pipeline
//!   trick lets one functional run drive the shared, application-only
//!   and TOL-only timing models of Figs. 8–11 simultaneously),
//! * the **Controller** — [`System`], which steps the co-design
//!   component, advances the authoritative emulator by the same number
//!   of guest instructions, and co-simulates (compares architectural
//!   state) at every dispatch boundary.
//!
//! [`experiments`] builds the per-figure datasets on top; the `figures`
//! binary in `crates/bench` renders them.
//!
//! ```
//! use darco_core::{System, SystemConfig};
//! use darco_workloads::{generate, suites};
//!
//! let workload = generate(&suites::quicktest_profile(), 0.05);
//! let mut system = System::new(workload, SystemConfig::default());
//! let report = system.run_to_completion(); // co-simulation checked
//! assert!(report.timing.total_cycles > 0);
//! assert!(report.cosim_checks > 0);
//! ```

pub mod checker;
pub mod experiments;
pub mod report;
pub mod sinks;
pub mod system;

pub use checker::{Divergence, StateChecker};
pub use experiments::{run_bench, BenchRun, RunConfig};
pub use sinks::{CheckerSink, SinkSet, TimingSink};
pub use system::{scaled_tol_config, Report, System, SystemConfig, Window};
