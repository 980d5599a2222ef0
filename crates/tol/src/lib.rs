//! # darco-tol — the Translation Optimization Layer
//!
//! The subject of the paper: the software layer of a HW/SW co-designed
//! processor. It dynamically translates guest (g86) code to the host RISC
//! ISA through three execution modes (paper Fig. 3):
//!
//! * **IM** — interpretation, for cold code (the guest layer's micro-op
//!   executor driven by [`engine::Tol`], costed by [`emission`]),
//! * **BBM** — basic-block translation with light peephole optimization
//!   and edge profiling, once a branch target executes more than
//!   `IM/BBth` times ([`translate`]),
//! * **SBM** — superblock formation along the hot profiled path plus an
//!   optimization pipeline (copy/constant propagation, constant folding,
//!   common-subexpression elimination, dead-code elimination, register
//!   allocation, instruction scheduling), once a block executes more than
//!   `BB/SBth` times ([`superblock`], [`opt`]).
//!
//! Translations live in a bounded [`codecache`], are linked to each other
//! by [chaining](codecache::CodeCache::chain), and indirect control
//! transfers go through an [`ibtc`] (Indirect Branch Translation Cache)
//! backed by a full translation-map lookup on miss.
//!
//! Every activity reports its dynamic host instruction footprint through
//! the [`emission`] cost models, tagged with the paper's execution-time
//! categories ([`darco_host::Component`]), so the timing simulator can
//! attribute cycles and microarchitectural events to the layer exactly as
//! DARCO does. The [`engine::Tol`] type ties the modes together into the
//! execution flow of Fig. 3.
//!
//! ```
//! use darco_guest::{asm::Asm, AluOp, CpuState, Gpr, GuestMem, Inst};
//! use darco_tol::{Tol, TolConfig};
//!
//! // A tiny guest program: eax = 5 + 37, then halt.
//! let mut a = Asm::new(0x1000);
//! a.push(Inst::MovRI { dst: Gpr::Eax, imm: 5 });
//! a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 37 });
//! a.push(Inst::Halt);
//! let p = a.assemble();
//! let mut mem = GuestMem::new();
//! mem.write_bytes(p.base, &p.bytes);
//!
//! let mut tol = Tol::new(TolConfig::default(), p.base);
//! let mut host_insts = 0u64;
//! let mut sink = darco_host::RetireSink(|_d: &darco_host::DynInst| host_insts += 1);
//! tol.run(&mut mem, &mut sink, u64::MAX)?;
//! assert_eq!(tol.emulated_state().gpr(Gpr::Eax), 42);
//! assert!(host_insts > 3, "emulation costs host instructions");
//! # Ok::<(), darco_guest::DecodeError>(())
//! ```

#![warn(missing_docs)]

pub mod codecache;
mod compile;
pub mod config;
pub mod emission;
pub mod engine;
/// The workspace's random guest programs (shared with the root
/// package's property tests), for the engine's unit tests.
#[cfg(test)]
#[allow(dead_code)] // the property tests use more of the generator
#[path = "../../../tests/common/guest_programs.rs"]
mod guest_programs;
pub mod ibtc;
pub mod ir;
pub mod opt;
mod pcmap;
pub mod profile;
pub mod regset;
pub mod superblock;
pub mod translate;
pub mod verify;

pub use config::TolConfig;
pub use engine::{Mode, RunSummary, StepOutcome, Tol, TolCounters};
pub use verify::{PassDelta, VerifyFailure, VerifyStats};
