//! Guest instruction definitions.
//!
//! The g86 instruction set is a compact x86-like CISC ISA: eight
//! general-purpose registers, condition flags written by most arithmetic,
//! base+index*scale+displacement memory operands, read-modify-write memory
//! forms, and both direct and indirect control flow.

use crate::GuestClass;
use std::fmt;

/// A general-purpose guest register (32-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Gpr {
    /// Accumulator.
    Eax = 0,
    /// Counter (implicit operand of [`Inst::ShiftCl`]).
    Ecx = 1,
    /// Data.
    Edx = 2,
    /// Base.
    Ebx = 3,
    /// Stack pointer (implicit operand of push/pop/call/ret).
    Esp = 4,
    /// Frame pointer.
    Ebp = 5,
    /// Source index.
    Esi = 6,
    /// Destination index.
    Edi = 7,
}

impl Gpr {
    /// All eight registers in encoding order.
    pub const ALL: [Gpr; 8] =
        [Gpr::Eax, Gpr::Ecx, Gpr::Edx, Gpr::Ebx, Gpr::Esp, Gpr::Ebp, Gpr::Esi, Gpr::Edi];

    /// Encoding index in `0..8`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Gpr::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[inline]
    pub fn from_index(i: usize) -> Gpr {
        Gpr::ALL[i]
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Gpr::Eax => "eax",
            Gpr::Ecx => "ecx",
            Gpr::Edx => "edx",
            Gpr::Ebx => "ebx",
            Gpr::Esp => "esp",
            Gpr::Ebp => "ebp",
            Gpr::Esi => "esi",
            Gpr::Edi => "edi",
        };
        f.write_str(s)
    }
}

/// A floating-point guest register (holds an `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FpReg(pub u8);

impl FpReg {
    /// Number of architectural FP registers.
    pub const COUNT: u8 = 8;

    /// Creates an FP register, wrapping the index into range.
    #[inline]
    pub fn new(i: u8) -> FpReg {
        FpReg(i % Self::COUNT)
    }

    /// Encoding index in `0..8`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Scale factor of the index register in a [`MemRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Scale {
    /// ×1
    S1 = 0,
    /// ×2
    S2 = 1,
    /// ×4
    S4 = 2,
    /// ×8
    S8 = 3,
}

impl Scale {
    /// The multiplication factor (1, 2, 4 or 8).
    #[inline]
    pub fn factor(self) -> u32 {
        1 << (self as u32)
    }

    /// Decodes the two-bit encoding.
    #[inline]
    pub fn from_bits(bits: u8) -> Scale {
        match bits & 3 {
            0 => Scale::S1,
            1 => Scale::S2,
            2 => Scale::S4,
            _ => Scale::S8,
        }
    }
}

/// An x86-style memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Optional base register.
    pub base: Option<Gpr>,
    /// Optional scaled index register.
    pub index: Option<Gpr>,
    /// Scale applied to the index register.
    pub scale: Scale,
    /// Signed displacement.
    pub disp: i32,
}

impl MemRef {
    /// Absolute address operand: `[disp]`.
    pub fn abs(disp: u32) -> MemRef {
        MemRef { base: None, index: None, scale: Scale::S1, disp: disp as i32 }
    }

    /// Base-register operand: `[base + disp]`.
    pub fn base(base: Gpr, disp: i32) -> MemRef {
        MemRef { base: Some(base), index: None, scale: Scale::S1, disp }
    }

    /// Fully general operand: `[base + index*scale + disp]`.
    pub fn base_index(base: Gpr, index: Gpr, scale: Scale, disp: i32) -> MemRef {
        MemRef { base: Some(base), index: Some(index), scale, disp }
    }

    /// Registers read when computing the effective address.
    pub fn regs(&self) -> impl Iterator<Item = Gpr> + '_ {
        self.base.into_iter().chain(self.index)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            first = false;
        }
        if let Some(i) = self.index {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{i}*{}", self.scale.factor())?;
            first = false;
        }
        if self.disp != 0 || first {
            if !first && self.disp >= 0 {
                write!(f, "+")?;
            }
            write!(f, "{:#x}", self.disp)?;
        }
        write!(f, "]")
    }
}

/// Binary integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Addition; writes CF/OF/ZF/SF/PF.
    Add = 0,
    /// Subtraction; writes CF/OF/ZF/SF/PF.
    Sub = 1,
    /// Bitwise AND; clears CF/OF, writes ZF/SF/PF.
    And = 2,
    /// Bitwise OR; clears CF/OF, writes ZF/SF/PF.
    Or = 3,
    /// Bitwise XOR; clears CF/OF, writes ZF/SF/PF.
    Xor = 4,
}

impl AluOp {
    /// All operations in encoding order.
    pub const ALL: [AluOp; 5] = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor];

    /// Decodes the three-bit encoding.
    pub fn from_bits(bits: u8) -> Option<AluOp> {
        Self::ALL.get(bits as usize).copied()
    }
}

/// Shift operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ShiftOp {
    /// Logical left shift.
    Shl = 0,
    /// Logical right shift.
    Shr = 1,
    /// Arithmetic right shift.
    Sar = 2,
}

impl ShiftOp {
    /// All operations in encoding order.
    pub const ALL: [ShiftOp; 3] = [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar];

    /// Decodes the two-bit encoding.
    pub fn from_bits(bits: u8) -> Option<ShiftOp> {
        Self::ALL.get(bits as usize).copied()
    }
}

/// Floating-point binary operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FpOp {
    /// Addition (simple FP in the host pipeline).
    Add = 0,
    /// Subtraction (simple FP).
    Sub = 1,
    /// Multiplication (complex FP).
    Mul = 2,
    /// Division (complex FP).
    Div = 3,
}

impl FpOp {
    /// All operations in encoding order.
    pub const ALL: [FpOp; 4] = [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div];

    /// Decodes the two-bit encoding.
    pub fn from_bits(bits: u8) -> Option<FpOp> {
        Self::ALL.get(bits as usize).copied()
    }
}

/// Width of a sub-word memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MemWidth {
    /// One byte.
    B1 = 0,
    /// Two bytes (halfword).
    B2 = 1,
}

impl MemWidth {
    /// Width in bytes.
    pub fn bytes(self) -> u8 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
        }
    }

    /// Decodes the one-bit encoding.
    pub fn from_bit(bit: u8) -> MemWidth {
        if bit & 1 == 0 {
            MemWidth::B1
        } else {
            MemWidth::B2
        }
    }
}

/// Branch condition, evaluated against [`crate::Flags`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Equal (ZF).
    E = 0,
    /// Not equal (!ZF).
    Ne = 1,
    /// Signed less (SF != OF).
    L = 2,
    /// Signed less-or-equal (ZF or SF != OF).
    Le = 3,
    /// Signed greater (!ZF and SF == OF).
    G = 4,
    /// Signed greater-or-equal (SF == OF).
    Ge = 5,
    /// Unsigned below (CF).
    B = 6,
    /// Unsigned below-or-equal (CF or ZF).
    Be = 7,
    /// Unsigned above (!CF and !ZF).
    A = 8,
    /// Unsigned above-or-equal (!CF).
    Ae = 9,
    /// Sign set.
    S = 10,
    /// Sign clear.
    Ns = 11,
}

impl Cond {
    /// All conditions in encoding order.
    pub const ALL: [Cond; 12] = [
        Cond::E,
        Cond::Ne,
        Cond::L,
        Cond::Le,
        Cond::G,
        Cond::Ge,
        Cond::B,
        Cond::Be,
        Cond::A,
        Cond::Ae,
        Cond::S,
        Cond::Ns,
    ];

    /// Decodes the four-bit encoding.
    pub fn from_bits(bits: u8) -> Option<Cond> {
        Self::ALL.get(bits as usize).copied()
    }

    /// The logically opposite condition (`E` ↔ `Ne`, `L` ↔ `Ge`, …),
    /// used when a superblock inlines the taken path of a branch.
    pub fn negated(self) -> Cond {
        match self {
            Cond::E => Cond::Ne,
            Cond::Ne => Cond::E,
            Cond::L => Cond::Ge,
            Cond::Ge => Cond::L,
            Cond::Le => Cond::G,
            Cond::G => Cond::Le,
            Cond::B => Cond::Ae,
            Cond::Ae => Cond::B,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
            Cond::S => Cond::Ns,
            Cond::Ns => Cond::S,
        }
    }
}

/// A decoded guest instruction.
///
/// Targets of direct control flow are absolute guest addresses; indirect
/// control flow reads its target from a register or memory at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Stops the emulated program (models `exit`).
    Halt,
    /// System call, modeled as a no-op with a fixed cost (the paper skips
    /// non-user code, Sec. II-A).
    Syscall,
    /// `dst <- src`.
    MovRR {
        /// Destination register.
        dst: Gpr,
        /// Source register.
        src: Gpr,
    },
    /// `dst <- imm`.
    MovRI {
        /// Destination register.
        dst: Gpr,
        /// Immediate value.
        imm: i32,
    },
    /// `dst <- [addr]` (32-bit load).
    Load {
        /// Destination register.
        dst: Gpr,
        /// Memory operand.
        addr: MemRef,
    },
    /// `[addr] <- src` (32-bit store).
    Store {
        /// Memory operand.
        addr: MemRef,
        /// Source register.
        src: Gpr,
    },
    /// `[addr] <- imm` (32-bit store of an immediate).
    StoreI {
        /// Memory operand.
        addr: MemRef,
        /// Immediate value.
        imm: i32,
    },
    /// Zero-extending sub-word load: `dst <- zx([addr])` (like x86
    /// `movzx`).
    LoadZx {
        /// Destination register.
        dst: Gpr,
        /// Memory operand.
        addr: MemRef,
        /// Access width.
        width: MemWidth,
    },
    /// Sign-extending sub-word load: `dst <- sx([addr])` (like x86
    /// `movsx`).
    LoadSx {
        /// Destination register.
        dst: Gpr,
        /// Memory operand.
        addr: MemRef,
        /// Access width.
        width: MemWidth,
    },
    /// Sub-word store: `[addr] <- low_bytes(src)`.
    StoreN {
        /// Memory operand.
        addr: MemRef,
        /// Source register (low byte/halfword stored).
        src: Gpr,
        /// Access width.
        width: MemWidth,
    },
    /// `dst <- effective_address(addr)`; does not touch memory or flags.
    Lea {
        /// Destination register.
        dst: Gpr,
        /// Address expression.
        addr: MemRef,
    },
    /// `dst <- dst op src`; writes flags.
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        dst: Gpr,
        /// Right operand.
        src: Gpr,
    },
    /// `dst <- dst op imm`; writes flags.
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        dst: Gpr,
        /// Immediate right operand.
        imm: i32,
    },
    /// CISC load-op: `dst <- dst op [addr]`; writes flags.
    AluRM {
        /// Operation.
        op: AluOp,
        /// Destination (and left operand).
        dst: Gpr,
        /// Memory right operand.
        addr: MemRef,
    },
    /// CISC read-modify-write: `[addr] <- [addr] op src`; writes flags.
    AluMR {
        /// Operation.
        op: AluOp,
        /// Memory destination.
        addr: MemRef,
        /// Register right operand.
        src: Gpr,
    },
    /// Compare: computes `a - b` flags only.
    CmpRR {
        /// Left operand.
        a: Gpr,
        /// Right operand.
        b: Gpr,
    },
    /// Compare with immediate.
    CmpRI {
        /// Left operand.
        a: Gpr,
        /// Immediate right operand.
        imm: i32,
    },
    /// Test: computes `a & b` flags only.
    TestRR {
        /// Left operand.
        a: Gpr,
        /// Right operand.
        b: Gpr,
    },
    /// Shift by a constant amount; writes flags.
    Shift {
        /// Operation.
        op: ShiftOp,
        /// Destination.
        dst: Gpr,
        /// Shift amount, masked to 0..32.
        amount: u8,
    },
    /// Shift by `ecx & 31`; writes flags.
    ShiftCl {
        /// Operation.
        op: ShiftOp,
        /// Destination.
        dst: Gpr,
    },
    /// `dst <- dst * src` (low 32 bits); writes flags (complex integer).
    Imul {
        /// Destination (and left operand).
        dst: Gpr,
        /// Right operand.
        src: Gpr,
    },
    /// `dst <- dst / src` (signed, total: division by zero yields 0,
    /// `i32::MIN / -1` yields `i32::MIN`); writes flags (complex integer).
    Idiv {
        /// Destination (and dividend).
        dst: Gpr,
        /// Divisor.
        src: Gpr,
    },
    /// Two's-complement negate; writes flags.
    Neg {
        /// Destination.
        dst: Gpr,
    },
    /// Bitwise NOT; flags unaffected (as on x86).
    Not {
        /// Destination.
        dst: Gpr,
    },
    /// `esp -= 4; [esp] <- src`.
    Push {
        /// Source register.
        src: Gpr,
    },
    /// `dst <- [esp]; esp += 4`.
    Pop {
        /// Destination register.
        dst: Gpr,
    },
    /// Conditional direct branch.
    Jcc {
        /// Condition.
        cond: Cond,
        /// Absolute target address.
        target: u32,
    },
    /// Unconditional direct branch.
    Jmp {
        /// Absolute target address.
        target: u32,
    },
    /// Register-indirect jump (e.g. a computed goto).
    JmpInd {
        /// Register holding the target address.
        reg: Gpr,
    },
    /// Memory-indirect jump (e.g. a switch jump table).
    JmpMem {
        /// Memory operand holding the target address.
        addr: MemRef,
    },
    /// Direct call: pushes the return address, jumps to `target`.
    Call {
        /// Absolute target address.
        target: u32,
    },
    /// Register-indirect call (e.g. a virtual call).
    CallInd {
        /// Register holding the target address.
        reg: Gpr,
    },
    /// Return: pops the return address and jumps to it.
    Ret,
    /// `dst <- src` between FP registers.
    FMovRR {
        /// Destination FP register.
        dst: FpReg,
        /// Source FP register.
        src: FpReg,
    },
    /// `dst <- [addr]` (64-bit FP load).
    FLoad {
        /// Destination FP register.
        dst: FpReg,
        /// Memory operand.
        addr: MemRef,
    },
    /// `[addr] <- src` (64-bit FP store).
    FStore {
        /// Memory operand.
        addr: MemRef,
        /// Source FP register.
        src: FpReg,
    },
    /// FP arithmetic `dst <- dst op src`; does not write integer flags.
    FArith {
        /// Operation.
        op: FpOp,
        /// Destination (and left operand).
        dst: FpReg,
        /// Right operand.
        src: FpReg,
    },
    /// Convert integer register to FP: `dst <- f64(src)`.
    CvtIF {
        /// Destination FP register.
        dst: FpReg,
        /// Source integer register.
        src: Gpr,
    },
    /// Convert FP register to integer (truncating, saturating): `dst <- i32(src)`.
    CvtFI {
        /// Destination integer register.
        dst: Gpr,
        /// Source FP register.
        src: FpReg,
    },
}

impl Inst {
    /// Broad classification used for statistics and cost models.
    pub fn class(&self) -> GuestClass {
        use Inst::*;
        match self {
            Nop | Syscall | Halt => GuestClass::Other,
            MovRR { .. }
            | MovRI { .. }
            | Lea { .. }
            | AluRR { .. }
            | AluRI { .. }
            | CmpRR { .. }
            | CmpRI { .. }
            | TestRR { .. }
            | Shift { .. }
            | ShiftCl { .. }
            | Neg { .. }
            | Not { .. } => GuestClass::Int,
            Imul { .. } | Idiv { .. } => GuestClass::IntComplex,
            Load { .. } | LoadZx { .. } | LoadSx { .. } | AluRM { .. } | Pop { .. } => {
                GuestClass::Load
            }
            Store { .. } | StoreI { .. } | StoreN { .. } | AluMR { .. } | Push { .. } => {
                GuestClass::Store
            }
            Jcc { .. } | Jmp { .. } => GuestClass::Branch,
            Call { .. } => GuestClass::Call,
            Ret => GuestClass::Ret,
            JmpInd { .. } | JmpMem { .. } | CallInd { .. } => GuestClass::IndirectBranch,
            FMovRR { .. } | CvtIF { .. } | CvtFI { .. } => GuestClass::Fp,
            FArith { op, .. } => match op {
                FpOp::Add | FpOp::Sub => GuestClass::Fp,
                FpOp::Mul | FpOp::Div => GuestClass::FpComplex,
            },
            FLoad { .. } => GuestClass::Load,
            FStore { .. } => GuestClass::Store,
        }
    }

    /// Whether this instruction ends a basic block (any control transfer
    /// or `Halt`).
    pub fn is_block_end(&self) -> bool {
        use Inst::*;
        matches!(
            self,
            Jcc { .. }
                | Jmp { .. }
                | JmpInd { .. }
                | JmpMem { .. }
                | Call { .. }
                | CallInd { .. }
                | Ret
                | Halt
        )
    }

    /// Whether the instruction writes the condition flags.
    pub fn writes_flags(&self) -> bool {
        use Inst::*;
        matches!(
            self,
            AluRR { .. }
                | AluRI { .. }
                | AluRM { .. }
                | AluMR { .. }
                | CmpRR { .. }
                | CmpRI { .. }
                | TestRR { .. }
                | Shift { .. }
                | ShiftCl { .. }
                | Imul { .. }
                | Idiv { .. }
                | Neg { .. }
        )
    }

    /// Whether the instruction reads the condition flags.
    pub fn reads_flags(&self) -> bool {
        matches!(self, Inst::Jcc { .. })
    }

    /// Whether the instruction's control-flow target is computed at run
    /// time (indirect jump/call or return).
    pub fn is_indirect(&self) -> bool {
        use Inst::*;
        matches!(self, JmpInd { .. } | JmpMem { .. } | CallInd { .. } | Ret)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        match self {
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
            Syscall => write!(f, "syscall"),
            MovRR { dst, src } => write!(f, "mov {dst}, {src}"),
            MovRI { dst, imm } => write!(f, "mov {dst}, {imm}"),
            Load { dst, addr } => write!(f, "mov {dst}, {addr}"),
            LoadZx { dst, addr, width } => write!(f, "movzx{} {dst}, {addr}", width.bytes()),
            LoadSx { dst, addr, width } => write!(f, "movsx{} {dst}, {addr}", width.bytes()),
            StoreN { addr, src, width } => write!(f, "mov{} {addr}, {src}", width.bytes()),
            Store { addr, src } => write!(f, "mov {addr}, {src}"),
            StoreI { addr, imm } => write!(f, "mov {addr}, {imm}"),
            Lea { dst, addr } => write!(f, "lea {dst}, {addr}"),
            AluRR { op, dst, src } => write!(f, "{op:?} {dst}, {src}"),
            AluRI { op, dst, imm } => write!(f, "{op:?} {dst}, {imm}"),
            AluRM { op, dst, addr } => write!(f, "{op:?} {dst}, {addr}"),
            AluMR { op, addr, src } => write!(f, "{op:?} {addr}, {src}"),
            CmpRR { a, b } => write!(f, "cmp {a}, {b}"),
            CmpRI { a, imm } => write!(f, "cmp {a}, {imm}"),
            TestRR { a, b } => write!(f, "test {a}, {b}"),
            Shift { op, dst, amount } => write!(f, "{op:?} {dst}, {amount}"),
            ShiftCl { op, dst } => write!(f, "{op:?} {dst}, cl"),
            Imul { dst, src } => write!(f, "imul {dst}, {src}"),
            Idiv { dst, src } => write!(f, "idiv {dst}, {src}"),
            Neg { dst } => write!(f, "neg {dst}"),
            Not { dst } => write!(f, "not {dst}"),
            Push { src } => write!(f, "push {src}"),
            Pop { dst } => write!(f, "pop {dst}"),
            Jcc { cond, target } => write!(f, "j{cond:?} {target:#x}"),
            Jmp { target } => write!(f, "jmp {target:#x}"),
            JmpInd { reg } => write!(f, "jmp {reg}"),
            JmpMem { addr } => write!(f, "jmp {addr}"),
            Call { target } => write!(f, "call {target:#x}"),
            CallInd { reg } => write!(f, "call {reg}"),
            Ret => write!(f, "ret"),
            FMovRR { dst, src } => write!(f, "fmov {dst}, {src}"),
            FLoad { dst, addr } => write!(f, "fld {dst}, {addr}"),
            FStore { addr, src } => write!(f, "fst {addr}, {src}"),
            FArith { op, dst, src } => write!(f, "f{op:?} {dst}, {src}"),
            CvtIF { dst, src } => write!(f, "cvtif {dst}, {src}"),
            CvtFI { dst, src } => write!(f, "cvtfi {dst}, {src}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_index_roundtrip() {
        for (i, r) in Gpr::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Gpr::from_index(i), *r);
        }
    }

    #[test]
    fn scale_factor() {
        assert_eq!(Scale::S1.factor(), 1);
        assert_eq!(Scale::S2.factor(), 2);
        assert_eq!(Scale::S4.factor(), 4);
        assert_eq!(Scale::S8.factor(), 8);
        for bits in 0..4u8 {
            assert_eq!(Scale::from_bits(bits) as u8, bits);
        }
    }

    #[test]
    fn classes_are_consistent() {
        assert_eq!(Inst::Nop.class(), GuestClass::Other);
        assert_eq!(Inst::Imul { dst: Gpr::Eax, src: Gpr::Ebx }.class(), GuestClass::IntComplex);
        assert_eq!(Inst::Ret.class(), GuestClass::Ret);
        assert!(Inst::Ret.is_indirect());
        assert!(Inst::Ret.is_block_end());
        assert!(!Inst::Nop.is_block_end());
        let fmul = Inst::FArith { op: FpOp::Mul, dst: FpReg(0), src: FpReg(1) };
        assert_eq!(fmul.class(), GuestClass::FpComplex);
    }

    #[test]
    fn flags_metadata() {
        let add = Inst::AluRR { op: AluOp::Add, dst: Gpr::Eax, src: Gpr::Ebx };
        assert!(add.writes_flags());
        assert!(!add.reads_flags());
        let jcc = Inst::Jcc { cond: Cond::E, target: 0 };
        assert!(jcc.reads_flags());
        assert!(!jcc.writes_flags());
        let not = Inst::Not { dst: Gpr::Eax };
        assert!(!not.writes_flags());
    }

    #[test]
    fn memref_display() {
        let m = MemRef::base_index(Gpr::Eax, Gpr::Ebx, Scale::S4, 16);
        assert_eq!(m.to_string(), "[eax+ebx*4+0x10]");
        assert_eq!(MemRef::abs(0x100).to_string(), "[0x100]");
        let regs: Vec<_> = m.regs().collect();
        assert_eq!(regs, vec![Gpr::Eax, Gpr::Ebx]);
    }
}
