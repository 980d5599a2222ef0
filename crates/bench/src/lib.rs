//! # darco-bench — benchmark harness and figure regeneration
//!
//! Two entry points:
//!
//! * the **`figures` binary** regenerates every table/figure of the
//!   paper's evaluation (Figs. 5–11) plus the ablation studies listed in
//!   DESIGN.md §8 — run `figures all`, or `figures fig6 --quick` for a
//!   fast pass;
//! * the **Criterion benches** (`cargo bench`) answer layer questions
//!   the repository benchmark cannot: the event bus and the translation
//!   scratch arena by themselves (`retire_throughput`), the timing layer
//!   on a replayed stream (`timing_throughput`), the guest executors
//!   (`guest_exec`) and the TOL components (`tol_components`).

pub mod replay;
