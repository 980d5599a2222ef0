//! Host RISC instruction definitions.
//!
//! The host ISA is deliberately simple — the whole point of a co-designed
//! processor is a simple, energy-efficient host whose performance comes
//! from the software layer's optimizations (paper Sec. I). Instructions
//! are fixed-width; control flow inside a translation uses *local*
//! instruction-index targets, and control leaving a translation is an
//! explicit [`Exit`] marker the dispatcher or chained successor handles.

use darco_guest::{Cond, FpOp};
use std::fmt;

/// A host integer register, `r0`–`r63`.
///
/// `r0` is hardwired to zero. The file is logically split: the
/// application's translated code uses `r0`–`r31`, the software layer
/// uses `r32`–`r63` (paper Sec. II-A-2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HReg(pub u8);

impl HReg {
    /// Total number of integer registers.
    pub const COUNT: u8 = 64;
    /// The hardwired-zero register.
    pub const ZERO: HReg = HReg(0);
    /// First register of the software-layer half.
    pub const TOL_BASE: u8 = 32;

    /// Whether this register belongs to the software-layer half.
    pub fn is_tol(self) -> bool {
        self.0 >= Self::TOL_BASE
    }
}

impl fmt::Display for HReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A host floating-point register, `f0`–`f31`.
///
/// Split like the integer file: `f0`–`f15` application, `f16`–`f31`
/// software layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HFreg(pub u8);

impl HFreg {
    /// Total number of FP registers.
    pub const COUNT: u8 = 32;
}

impl fmt::Display for HFreg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Simple integer ALU operation (1-cycle execution units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HAluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right (on the low 32 bits).
    Shr,
    /// Arithmetic shift right (on the low 32 bits).
    Sar,
    /// Set-if-less-than, signed 32-bit compare.
    SltS,
    /// Set-if-less-than, unsigned 32-bit compare.
    SltU,
}

/// Host branch condition (register–register compare).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than (32-bit).
    LtS,
    /// Signed greater-or-equal (32-bit).
    GeS,
    /// Unsigned less-than (32-bit).
    LtU,
    /// Unsigned greater-or-equal (32-bit).
    GeU,
}

/// Which guest flags computation a [`HInst::FlagsArith`] performs.
///
/// Emulating CISC flag semantics is a major cost of translation (paper
/// Sec. III-C: "generating code for a `mov` is cheaper than an `add`
/// since the latter also modifies the x86 EFLAGS"). This helper models a
/// flag-materialization sequence as one complex-integer host instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlagsKind {
    /// Flags of `a + b`.
    Add,
    /// Flags of `a - b` (also `cmp`, `neg`).
    Sub,
    /// Flags of a logic result (operand `a` is the result; CF/OF clear).
    Logic,
    /// Flags of `a << (b & 31)`.
    Shl,
    /// Flags of `a >> (b & 31)` (logical).
    Shr,
    /// Flags of `a >> (b & 31)` (arithmetic).
    Sar,
    /// Flags of the 32-bit multiply `a * b` (CF=OF=overflow).
    Mul,
}

/// Access width of a host memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte (zero-extended on load).
    W1,
    /// Two bytes (zero-extended on load).
    W2,
    /// Four bytes.
    W4,
    /// Eight bytes.
    W8,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> u8 {
        match self {
            Width::W1 => 1,
            Width::W2 => 2,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }
}

/// Epoch-tagged handle to a code-cache translation.
///
/// `idx` indexes the translations installed since the cache's last
/// flush; `gen` is the cache's flush epoch when the handle was issued.
/// A whole-cache flush is the only way a translation dies, and it bumps
/// the epoch, so a handle that outlives its translation is *detectably*
/// stale instead of silently naming whatever got installed at its index
/// next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// Install index within the flush epoch.
    pub idx: u32,
    /// Flush epoch at handle-issue time.
    pub gen: u32,
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.idx, self.gen)
    }
}

/// Where control goes when it leaves a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// To a known guest address. `link` is filled in by chaining: when
    /// set, execution continues directly at that code-cache block without
    /// a transition to the software layer. A link only ever names a block
    /// of its own block's epoch, so the flush that drops the target drops
    /// the link with it.
    Direct {
        /// Guest address execution should continue at.
        guest_target: u32,
        /// Chained successor block, if the code cache has linked it.
        link: Option<BlockId>,
    },
    /// To a guest address computed at run time (indirect jump/call,
    /// return): the target guest address is in `reg`; the IBTC and, on
    /// miss, a full code-cache lookup resolve it.
    Indirect {
        /// Host register holding the guest target address.
        reg: HReg,
    },
    /// The guest program halted.
    Halt,
}

/// One host instruction.
///
/// Branch/jump targets inside a translation (`target`) are *instruction
/// indices local to the translation block*; the timing simulator sees
/// real host PCs via the block's base address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HInst {
    /// No operation.
    Nop,
    /// Register-register ALU: `rd <- ra op rb`.
    Alu {
        /// Operation.
        op: HAluOp,
        /// Destination.
        rd: HReg,
        /// Left operand.
        ra: HReg,
        /// Right operand.
        rb: HReg,
    },
    /// Register-immediate ALU: `rd <- ra op imm`.
    AluI {
        /// Operation.
        op: HAluOp,
        /// Destination.
        rd: HReg,
        /// Left operand.
        ra: HReg,
        /// Immediate right operand.
        imm: i32,
    },
    /// Load immediate: `rd <- imm`.
    Li {
        /// Destination.
        rd: HReg,
        /// Immediate value (sign-extended to 64 bits).
        imm: i64,
    },
    /// 32-bit multiply (complex integer unit): `rd <- ra * rb`.
    Mul {
        /// Destination.
        rd: HReg,
        /// Left operand.
        ra: HReg,
        /// Right operand.
        rb: HReg,
    },
    /// 32-bit signed total divide (complex integer unit).
    Div {
        /// Destination.
        rd: HReg,
        /// Dividend.
        ra: HReg,
        /// Divisor.
        rb: HReg,
    },
    /// Computes a guest flags word into `rd` (complex integer unit).
    FlagsArith {
        /// Which flags computation.
        kind: FlagsKind,
        /// Destination (flags word).
        rd: HReg,
        /// First operand (see [`FlagsKind`]).
        ra: HReg,
        /// Second operand.
        rb: HReg,
    },
    /// Software prefetch: brings `mem[base + off]`'s line toward the
    /// core without producing a value or stalling (inserted by the
    /// layer's optional prefetching pass, paper Sec. III-E).
    Prefetch {
        /// Base register.
        base: HReg,
        /// Byte offset.
        off: i32,
    },
    /// Load: `rd <- mem[ra + off]`.
    Ld {
        /// Destination.
        rd: HReg,
        /// Base register.
        base: HReg,
        /// Byte offset.
        off: i32,
        /// Access width.
        width: Width,
    },
    /// Store: `mem[base + off] <- rs`.
    St {
        /// Source.
        rs: HReg,
        /// Base register.
        base: HReg,
        /// Byte offset.
        off: i32,
        /// Access width.
        width: Width,
    },
    /// FP load (8 bytes): `fd <- mem[base + off]`.
    FLd {
        /// Destination FP register.
        fd: HFreg,
        /// Base register.
        base: HReg,
        /// Byte offset.
        off: i32,
    },
    /// FP store (8 bytes): `mem[base + off] <- fs`.
    FSt {
        /// Source FP register.
        fs: HFreg,
        /// Base register.
        base: HReg,
        /// Byte offset.
        off: i32,
    },
    /// FP register move.
    FMov {
        /// Destination FP register.
        fd: HFreg,
        /// Source FP register.
        fa: HFreg,
    },
    /// FP arithmetic: `fd <- fa op fb`.
    FArith {
        /// Operation (add/sub simple FP; mul/div complex FP).
        op: FpOp,
        /// Destination.
        fd: HFreg,
        /// Left operand.
        fa: HFreg,
        /// Right operand.
        fb: HFreg,
    },
    /// Integer-to-FP convert: `fd <- f64(ra as i32)`.
    CvtIF {
        /// Destination FP register.
        fd: HFreg,
        /// Source integer register.
        ra: HReg,
    },
    /// FP-to-integer convert (truncating, saturating).
    CvtFI {
        /// Destination integer register.
        rd: HReg,
        /// Source FP register.
        fa: HFreg,
    },
    /// Conditional branch to a local instruction index.
    Br {
        /// Condition.
        cond: HCond,
        /// Left compare operand.
        ra: HReg,
        /// Right compare operand.
        rb: HReg,
        /// Local target (instruction index within the block).
        target: u32,
    },
    /// Branch if a guest condition holds on the flags word in `flags`.
    BrFlags {
        /// Guest condition to evaluate.
        cond: Cond,
        /// Register holding the guest flags word.
        flags: HReg,
        /// Local target (instruction index within the block).
        target: u32,
    },
    /// Unconditional local jump.
    Jump {
        /// Local target (instruction index within the block).
        target: u32,
    },
    /// Control leaves the translation.
    Exit(Exit),
}

impl HInst {
    /// Destination integer register, if any (register 0 writes are
    /// discarded but still reported).
    pub fn dst(&self) -> Option<HReg> {
        use HInst::*;
        match *self {
            Alu { rd, .. }
            | AluI { rd, .. }
            | Li { rd, .. }
            | Mul { rd, .. }
            | Div { rd, .. }
            | FlagsArith { rd, .. }
            | Ld { rd, .. }
            | CvtFI { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Integer source registers (up to two).
    pub fn srcs(&self) -> [Option<HReg>; 2] {
        use HInst::*;
        match *self {
            Alu { ra, rb, .. }
            | Mul { ra, rb, .. }
            | Div { ra, rb, .. }
            | FlagsArith { ra, rb, .. }
            | Br { ra, rb, .. } => [Some(ra), Some(rb)],
            AluI { ra, .. } | CvtIF { ra, .. } => [Some(ra), None],
            Ld { base, .. } | FLd { base, .. } | Prefetch { base, .. } => [Some(base), None],
            St { rs, base, .. } => [Some(rs), Some(base)],
            FSt { base, .. } => [Some(base), None],
            BrFlags { flags, .. } => [Some(flags), None],
            Exit(self::Exit::Indirect { reg }) => [Some(reg), None],
            _ => [None, None],
        }
    }

    /// Destination FP register, if any.
    pub fn fdst(&self) -> Option<HFreg> {
        use HInst::*;
        match *self {
            FLd { fd, .. } | FMov { fd, .. } | FArith { fd, .. } | CvtIF { fd, .. } => Some(fd),
            _ => None,
        }
    }

    /// FP source registers (up to two).
    pub fn fsrcs(&self) -> [Option<HFreg>; 2] {
        use HInst::*;
        match *self {
            FArith { fa, fb, .. } => [Some(fa), Some(fb)],
            FMov { fa, .. } | CvtFI { fa, .. } => [Some(fa), None],
            FSt { fs, .. } => [Some(fs), None],
            _ => [None, None],
        }
    }

    /// Execution class used by the timing model.
    pub fn class(&self) -> crate::stream::ExecClass {
        use crate::stream::ExecClass as C;
        use HInst::*;
        match self {
            Nop | Alu { .. } | AluI { .. } | Li { .. } => C::SimpleInt,
            Mul { .. } | Div { .. } | FlagsArith { .. } => C::ComplexInt,
            Ld { .. } | FLd { .. } | Prefetch { .. } => C::Load,
            St { .. } | FSt { .. } => C::Store,
            FMov { .. } | CvtIF { .. } | CvtFI { .. } => C::SimpleFp,
            FArith { op, .. } => match op {
                FpOp::Add | FpOp::Sub => C::SimpleFp,
                FpOp::Mul | FpOp::Div => C::ComplexFp,
            },
            Br { .. } | BrFlags { .. } => C::Branch,
            Jump { .. } | Exit(_) => C::Jump,
        }
    }
}

impl fmt::Display for Exit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exit::Direct { guest_target, link: Some(b) } => {
                write!(f, "exit -> {guest_target:#x} [chained to block {b}]")
            }
            Exit::Direct { guest_target, link: None } => write!(f, "exit -> {guest_target:#x}"),
            Exit::Indirect { reg } => write!(f, "exit.ind [{reg}]"),
            Exit::Halt => write!(f, "exit.halt"),
        }
    }
}

impl fmt::Display for HInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use HInst::*;
        match self {
            Nop => write!(f, "nop"),
            Alu { op, rd, ra, rb } => write!(f, "{} {rd}, {ra}, {rb}", alu_mnemonic(*op)),
            AluI { op, rd, ra, imm } => write!(f, "{}i {rd}, {ra}, {imm}", alu_mnemonic(*op)),
            Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Mul { rd, ra, rb } => write!(f, "mul {rd}, {ra}, {rb}"),
            Div { rd, ra, rb } => write!(f, "div {rd}, {ra}, {rb}"),
            FlagsArith { kind, rd, ra, rb } => {
                write!(f, "flags.{} {rd}, {ra}, {rb}", format!("{kind:?}").to_lowercase())
            }
            Prefetch { base, off } => write!(f, "prefetch {off}({base})"),
            Ld { rd, base, off, width } => {
                write!(f, "ld.w{} {rd}, {off}({base})", width.bytes())
            }
            St { rs, base, off, width } => {
                write!(f, "st.w{} {rs}, {off}({base})", width.bytes())
            }
            FLd { fd, base, off } => write!(f, "fld {fd}, {off}({base})"),
            FSt { fs, base, off } => write!(f, "fst {fs}, {off}({base})"),
            FMov { fd, fa } => write!(f, "fmov {fd}, {fa}"),
            FArith { op, fd, fa, fb } => {
                write!(f, "f{} {fd}, {fa}, {fb}", format!("{op:?}").to_lowercase())
            }
            CvtIF { fd, ra } => write!(f, "cvt.if {fd}, {ra}"),
            CvtFI { rd, fa } => write!(f, "cvt.fi {rd}, {fa}"),
            Br { cond, ra, rb, target } => {
                write!(f, "b{} {ra}, {rb}, @{target}", format!("{cond:?}").to_lowercase())
            }
            BrFlags { cond, flags, target } => {
                write!(f, "bf.{} {flags}, @{target}", format!("{cond:?}").to_lowercase())
            }
            Jump { target } => write!(f, "j @{target}"),
            Exit(e) => write!(f, "{e}"),
        }
    }
}

fn alu_mnemonic(op: HAluOp) -> &'static str {
    match op {
        HAluOp::Add => "add",
        HAluOp::Sub => "sub",
        HAluOp::And => "and",
        HAluOp::Or => "or",
        HAluOp::Xor => "xor",
        HAluOp::Shl => "shl",
        HAluOp::Shr => "shr",
        HAluOp::Sar => "sar",
        HAluOp::SltS => "slts",
        HAluOp::SltU => "sltu",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ExecClass;

    #[test]
    fn display_disassembly() {
        assert_eq!(
            HInst::Alu { op: HAluOp::Add, rd: HReg(3), ra: HReg(1), rb: HReg(2) }.to_string(),
            "add r3, r1, r2"
        );
        assert_eq!(
            HInst::Ld { rd: HReg(5), base: HReg(2), off: -8, width: Width::W4 }.to_string(),
            "ld.w4 r5, -8(r2)"
        );
        assert_eq!(HInst::Prefetch { base: HReg(2), off: 64 }.to_string(), "prefetch 64(r2)");
        assert_eq!(
            HInst::Exit(Exit::Direct { guest_target: 0x2000, link: None }).to_string(),
            "exit -> 0x2000"
        );
        assert_eq!(
            HInst::BrFlags { cond: darco_guest::Cond::Ne, flags: HReg(9), target: 7 }.to_string(),
            "bf.ne r9, @7"
        );
    }

    #[test]
    fn prefetch_metadata() {
        let p = HInst::Prefetch { base: HReg(4), off: 64 };
        assert_eq!(p.class(), ExecClass::Load);
        assert_eq!(p.dst(), None);
        assert_eq!(p.srcs(), [Some(HReg(4)), None]);
    }

    #[test]
    fn register_halves() {
        assert!(!HReg(31).is_tol());
        assert!(HReg(32).is_tol());
        assert_eq!(HReg::ZERO, HReg(0));
    }

    #[test]
    fn dst_src_metadata() {
        let i = HInst::Alu { op: HAluOp::Add, rd: HReg(5), ra: HReg(1), rb: HReg(2) };
        assert_eq!(i.dst(), Some(HReg(5)));
        assert_eq!(i.srcs(), [Some(HReg(1)), Some(HReg(2))]);

        let st = HInst::St { rs: HReg(3), base: HReg(4), off: 8, width: Width::W4 };
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs(), [Some(HReg(3)), Some(HReg(4))]);

        let f = HInst::FArith { op: FpOp::Mul, fd: HFreg(1), fa: HFreg(2), fb: HFreg(3) };
        assert_eq!(f.fdst(), Some(HFreg(1)));
        assert_eq!(f.fsrcs(), [Some(HFreg(2)), Some(HFreg(3))]);
    }

    #[test]
    fn exec_classes() {
        assert_eq!(HInst::Nop.class(), ExecClass::SimpleInt);
        assert_eq!(
            HInst::Mul { rd: HReg(1), ra: HReg(2), rb: HReg(3) }.class(),
            ExecClass::ComplexInt
        );
        assert_eq!(
            HInst::FArith { op: FpOp::Div, fd: HFreg(0), fa: HFreg(1), fb: HFreg(2) }.class(),
            ExecClass::ComplexFp
        );
        assert_eq!(
            HInst::FArith { op: FpOp::Add, fd: HFreg(0), fa: HFreg(1), fb: HFreg(2) }.class(),
            ExecClass::SimpleFp
        );
        assert_eq!(HInst::Exit(Exit::Halt).class(), ExecClass::Jump);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::W4.bytes(), 4);
        assert_eq!(Width::W8.bytes(), 8);
    }
}
