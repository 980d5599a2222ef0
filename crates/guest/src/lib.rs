//! # darco-guest — the guest ISA of the DARCO reproduction
//!
//! This crate defines **g86**, a compact x86-like CISC guest instruction
//! set, together with everything DARCO's *x86 Component* needs:
//!
//! * the architectural state ([`CpuState`]: eight general-purpose
//!   registers, eight floating-point registers, `eip` and [`Flags`]),
//! * a variable-length binary [`encode()`]/[`decode()`] pair (instructions
//!   occupy 1–10 bytes, like real x86),
//! * a sparse paged guest memory ([`GuestMem`]),
//! * a functional emulator ([`exec::step`]) that is the *authoritative*
//!   reference the rest of the system is checked against
//!   (co-simulation, Sec. II-A of the paper),
//! * a tiny assembler ([`asm::Asm`]) used by the workload generator and
//!   by tests.
//!
//! The ISA keeps the structural properties the paper's software layer is
//! sensitive to — variable-length decode, condition flags written by most
//! arithmetic, CISC memory operands, direct and *indirect* control flow —
//! without aiming for x86 binary compatibility (see `DESIGN.md` §2).
//!
//! ```
//! use darco_guest::{asm::Asm, exec, CpuState, Gpr, GuestMem, Inst};
//!
//! let mut a = Asm::new(0x1000);
//! a.push(Inst::MovRI { dst: Gpr::Eax, imm: 20 });
//! a.push(Inst::AluRI { op: darco_guest::AluOp::Add, dst: Gpr::Eax, imm: 22 });
//! a.push(Inst::Halt);
//! let prog = a.assemble();
//!
//! let mut mem = GuestMem::new();
//! mem.write_bytes(prog.base, &prog.bytes);
//! let mut cpu = CpuState::at(prog.base);
//! while !cpu.halted {
//!     exec::step(&mut cpu, &mut mem).unwrap();
//! }
//! assert_eq!(cpu.gpr(Gpr::Eax), 42);
//! ```

pub mod asm;
pub mod decode;
pub mod encode;
pub mod exec;
pub mod inst;
pub mod mem;
pub mod state;
pub mod uops;

pub use decode::{decode, disassemble, DecodeError};
pub use encode::encode;
pub use inst::{AluOp, Cond, FpOp, FpReg, Gpr, Inst, MemRef, MemWidth, Scale, ShiftOp};
pub use mem::GuestMem;
pub use state::{CpuState, Flags};
pub use uops::{ExecCtx, FastStats, LazyFlags};

/// Broad class of a guest instruction, used for instruction-mix statistics
/// and by the TOL cost models (the discriminant is the interpreter's
/// handler and decode-table index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum GuestClass {
    /// Integer ALU work (moves, arithmetic, logic, shifts).
    Int = 0,
    /// Integer multiply/divide (complex integer).
    IntComplex = 1,
    /// Floating-point add/sub/convert (simple FP).
    Fp = 2,
    /// Floating-point multiply/divide (complex FP).
    FpComplex = 3,
    /// Explicit loads, plus the load half of CISC read-modify-write ops.
    Load = 4,
    /// Explicit stores.
    Store = 5,
    /// Direct conditional or unconditional branches.
    Branch = 6,
    /// Direct calls.
    Call = 7,
    /// Returns (indirect by nature).
    Ret = 8,
    /// Register- or memory-indirect jumps and calls.
    IndirectBranch = 9,
    /// Everything else (`Nop`, `Syscall`, `Halt`).
    Other = 10,
}
