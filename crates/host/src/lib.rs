//! # darco-host — the host ISA of the DARCO reproduction
//!
//! The paper's co-designed processor executes a *simple RISC host ISA*
//! (Sec. II-A). This crate defines that ISA and the pieces shared by the
//! software layer (which generates host code) and the timing simulator
//! (which consumes the dynamic host instruction stream):
//!
//! * [`HInst`] — fixed-width RISC instructions: ALU, multiply/divide,
//!   loads/stores, FP, branches, plus a `FlagsArith` helper that computes
//!   a guest flags word (the cost CISC flag semantics impose on
//!   translation, Sec. III-C) and [`Exit`] markers where control leaves a
//!   translation,
//! * a register file of 64 integer registers **logically split between
//!   the application (r0–r31) and the software layer (r32–r63)** to
//!   reduce transition overheads, exactly as in the paper's host
//!   (Sec. II-A-2), plus 32 FP registers,
//! * [`HostState`] and a functional executor ([`exec_inst`]) used to run
//!   translated code against guest memory,
//! * [`stream::DynInst`] — one record per executed host instruction,
//!   tagged with the [`stream::Component`] that produced it; this is the
//!   interface the timing simulator meters,
//! * [`events`] — the typed [`events::HostEvent`] retirement stream and
//!   the batched [`events::HostEventSink`] trait that decouple the
//!   functional emulation loop from its consumers (timing, checking,
//!   statistics),
//! * [`layout`] — the host physical address map (guest RAM window, TOL
//!   data, code cache, TOL code).
//!
//! ```
//! use darco_host::{exec_inst, HAluOp, HInst, HReg, HostState, Outcome};
//! use darco_guest::GuestMem;
//!
//! let mut st = HostState::new();
//! let mut mem = GuestMem::new();
//! let add = HInst::AluI { op: HAluOp::Add, rd: HReg(1), ra: HReg(0), imm: 42 };
//! assert_eq!(exec_inst(&mut st, &add, &mut mem), Outcome::Next);
//! assert_eq!(st.reg(HReg(1)), 42);
//! assert_eq!(add.to_string(), "addi r1, r0, 42");
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod isa;
pub mod layout;
pub mod state;
pub mod stream;
pub mod template;

pub use events::{
    EventBuffer, ExecMode, HostEvent, HostEventSink, NullSink, RetireSink, TraceStats,
    TraceStatsSink, TranslationKind,
};
pub use isa::{BlockId, Exit, FlagsKind, HAluOp, HCond, HFreg, HInst, HReg, Width};
pub use state::{eval_alu, eval_flags, exec_inst, HostState, Outcome};
pub use stream::{BranchKind, Component, DynInst, ExecClass, MemEvent, Owner};
pub use template::{compile_block, RetireDyn, RetireTemplate};
