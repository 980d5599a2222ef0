//! # darco-timing — cycle-level host timing model
//!
//! Models the paper's host processor (Sec. II-A-2, Fig. 4, Table I): a
//! 2-issue **in-order** pipeline with a decoupled front-end and back-end,
//! a 16-entry instruction queue, a Gshare branch predictor with a BTB,
//! split 32 KB L1 caches, a unified 512 KB L2, a two-level data TLB and a
//! 256-entry stride prefetcher. Those parameters are constants in
//! [`config`]: the model simulates that one machine.
//!
//! The simulator is trace-driven: it consumes the retired host
//! instruction stream ([`darco_host::DynInst`]) produced by the software
//! layer and the translated application, and computes cycle counts using
//! a timestamp dataflow walk that is exact for in-order issue. Every
//! stall cycle is attributed to one of the paper's bubble classes
//! ([`BubbleCause`]: D$ miss, I$ miss, branch, instruction scheduling)
//! *and* to the component that caused it — the attribution that produces
//! Figs. 6, 7, 8, 9 and 11.
//!
//! The software layer and the application compete for one set of
//! caches, TLB, predictor and prefetcher state (the paper's "w/" runs).
//! "Without interaction" (Figs. 8, 10 and 11) means exactly one thing: a
//! second [`Pipeline`] that is fed one owner's instructions only, which
//! is what `darco-core`'s `TimingSink` does with its `app_only` and
//! `tol_only` pipelines.
//!
//! ```
//! use darco_host::stream::{int_reg, DynInst};
//! use darco_host::{Component, ExecClass};
//! use darco_timing::Pipeline;
//!
//! let mut p = Pipeline::new();
//! // A load followed by a dependent add.
//! p.retire(
//!     &DynInst::plain(0x100, ExecClass::Load, Component::AppCode)
//!         .with_dst(int_reg(2))
//!         .with_mem(0x8000, 4, false),
//! );
//! p.retire(
//!     &DynInst::plain(0x104, ExecClass::SimpleInt, Component::AppCode)
//!         .with_srcs(int_reg(2), u8::MAX)
//!         .with_dst(int_reg(3)),
//! );
//! let stats = p.snapshot();
//! assert_eq!(stats.total_insts(), 2);
//! assert!(stats.total_cycles > 2, "cold miss costs cycles");
//! ```

pub mod cache;
pub mod config;
pub mod memsys;
pub mod pipeline;
pub mod plru;
pub mod predictor;
pub mod prefetch;
#[cfg(test)]
mod reference;
pub mod stats;
pub mod tlb;

pub use cache::{Cache, Lookup};
pub use config::{CacheParams, TlbParams};
pub use memsys::MemSystem;
pub use pipeline::Pipeline;
pub use stats::{BubbleCause, Stats};
pub use tlb::Tlb;
