//! Translation intermediate representation.
//!
//! The translator emits *linear* IR blocks: a straight-line body whose
//! conditional branches only jump **forward to exit stubs** appended
//! after the body. This structure (standard for traces/superblocks) is
//! what makes the optimization passes simple and safe: there are no
//! internal join points, so dataflow is a single forward or backward
//! sweep, with side exits acting as observation points for the pinned
//! guest state.
//!
//! Registers come in two flavors: **pinned physical registers** holding
//! the emulated guest state (guest GPR *i* lives in host `r(i+1)`, the
//! flags word in `r9`, guest FP *i* in host `f(i)`), and **virtual
//! registers** for temporaries, assigned to host scratch registers by
//! register allocation at lowering time.

use crate::regset::RegVec;
use darco_guest::{Cond, FpOp};
use darco_host::{Exit, FlagsKind, HAluOp, HFreg, HInst, HReg, Width};

/// Dedicated physical register an indirect exit's guest target is moved
/// into before the block's [`Exit::Indirect`].
pub const EXIT_TARGET_REG: HReg = HReg(10);
/// First host register available for integer temporaries.
pub const SCRATCH_BASE: u8 = 11;
/// One past the last host register available for integer temporaries
/// (the application half ends at r31).
pub const SCRATCH_END: u8 = 32;
/// First host FP register available for FP temporaries.
pub const FSCRATCH_BASE: u8 = 8;
/// One past the last FP temporary register (application half ends at f15).
pub const FSCRATCH_END: u8 = 16;

/// Host register pinned to a guest GPR.
pub fn guest_gpr_reg(i: usize) -> HReg {
    debug_assert!(i < 8);
    HReg(1 + i as u8)
}

/// Host register pinned to the guest flags word.
pub const FLAGS_REG: HReg = HReg(9);

/// Host FP register pinned to a guest FP register.
pub fn guest_fpr_reg(i: usize) -> HFreg {
    debug_assert!(i < 8);
    HFreg(i as u8)
}

/// An integer IR register: pinned physical or virtual temporary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrReg {
    /// A pinned physical host register (guest state or `r0`).
    Phys(HReg),
    /// A virtual temporary, numbered from zero.
    Virt(u32),
}

impl IrReg {
    /// The hardwired zero register.
    pub const ZERO: IrReg = IrReg::Phys(HReg(0));
}

/// An FP IR register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrFreg {
    /// A pinned physical host FP register (guest FP state).
    Phys(HFreg),
    /// A virtual FP temporary.
    Virt(u32),
}

/// One IR instruction. Mirrors [`HInst`] with IR registers; conditional
/// branches target exit-stub indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IrInst {
    /// No operation (used as a tombstone by passes).
    Nop,
    /// `rd <- ra op rb`.
    Alu {
        /// Operation.
        op: HAluOp,
        /// Destination.
        rd: IrReg,
        /// Left operand.
        ra: IrReg,
        /// Right operand.
        rb: IrReg,
    },
    /// `rd <- ra op imm`.
    AluI {
        /// Operation.
        op: HAluOp,
        /// Destination.
        rd: IrReg,
        /// Left operand.
        ra: IrReg,
        /// Immediate.
        imm: i32,
    },
    /// `rd <- imm`.
    Li {
        /// Destination.
        rd: IrReg,
        /// Immediate.
        imm: i64,
    },
    /// 32-bit multiply.
    Mul {
        /// Destination.
        rd: IrReg,
        /// Left operand.
        ra: IrReg,
        /// Right operand.
        rb: IrReg,
    },
    /// 32-bit total signed divide.
    Div {
        /// Destination.
        rd: IrReg,
        /// Dividend.
        ra: IrReg,
        /// Divisor.
        rb: IrReg,
    },
    /// Guest flags materialization.
    FlagsArith {
        /// Flags computation kind.
        kind: FlagsKind,
        /// Destination (flags word).
        rd: IrReg,
        /// First operand.
        ra: IrReg,
        /// Second operand.
        rb: IrReg,
    },
    /// Software prefetch of a guest line (inserted by the optional
    /// prefetching pass; never faults, never stalls).
    Prefetch {
        /// Base address register.
        base: IrReg,
        /// Byte offset.
        off: i32,
    },
    /// Load from guest memory.
    Ld {
        /// Destination.
        rd: IrReg,
        /// Base address register.
        base: IrReg,
        /// Byte offset.
        off: i32,
        /// Width.
        width: Width,
    },
    /// Store to guest memory.
    St {
        /// Source.
        rs: IrReg,
        /// Base address register.
        base: IrReg,
        /// Byte offset.
        off: i32,
        /// Width.
        width: Width,
    },
    /// FP load.
    FLd {
        /// Destination.
        fd: IrFreg,
        /// Base address register.
        base: IrReg,
        /// Byte offset.
        off: i32,
    },
    /// FP store.
    FSt {
        /// Source.
        fs: IrFreg,
        /// Base address register.
        base: IrReg,
        /// Byte offset.
        off: i32,
    },
    /// FP move.
    FMov {
        /// Destination.
        fd: IrFreg,
        /// Source.
        fa: IrFreg,
    },
    /// FP arithmetic.
    FArith {
        /// Operation.
        op: FpOp,
        /// Destination.
        fd: IrFreg,
        /// Left operand.
        fa: IrFreg,
        /// Right operand.
        fb: IrFreg,
    },
    /// Integer-to-FP convert.
    CvtIF {
        /// Destination.
        fd: IrFreg,
        /// Source.
        ra: IrReg,
    },
    /// FP-to-integer convert.
    CvtFI {
        /// Destination.
        rd: IrReg,
        /// Source.
        fa: IrFreg,
    },
    /// Branch to exit stub `stub` if `cond` holds on the flags in
    /// `flags`.
    BrFlags {
        /// Guest condition.
        cond: Cond,
        /// Flags word register.
        flags: IrReg,
        /// Target exit-stub index.
        stub: u32,
    },
}

impl IrInst {
    /// Integer destination, if any.
    pub fn dst(&self) -> Option<IrReg> {
        use IrInst::*;
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

    /// Integer sources (up to two).
    pub fn srcs(&self) -> [Option<IrReg>; 2] {
        use IrInst::*;
        match *self {
            Alu { ra, rb, .. }
            | Mul { ra, rb, .. }
            | Div { ra, rb, .. }
            | FlagsArith { ra, rb, .. } => [Some(ra), Some(rb)],
            AluI { ra, .. } | CvtIF { ra, .. } => [Some(ra), None],
            Ld { base, .. } | FLd { base, .. } | Prefetch { base, .. } => [Some(base), None],
            St { rs, base, .. } => [Some(rs), Some(base)],
            FSt { base, .. } => [Some(base), None],
            BrFlags { flags, .. } => [Some(flags), None],
            _ => [None, None],
        }
    }

    /// FP destination, if any.
    pub fn fdst(&self) -> Option<IrFreg> {
        use IrInst::*;
        match *self {
            FLd { fd, .. } | FMov { fd, .. } | FArith { fd, .. } | CvtIF { fd, .. } => Some(fd),
            _ => None,
        }
    }

    /// FP sources (up to two).
    pub fn fsrcs(&self) -> [Option<IrFreg>; 2] {
        use IrInst::*;
        match *self {
            FArith { fa, fb, .. } => [Some(fa), Some(fb)],
            FMov { fa, .. } | CvtFI { fa, .. } => [Some(fa), None],
            FSt { fs, .. } => [Some(fs), None],
            _ => [None, None],
        }
    }

    /// Whether this is a memory read.
    pub fn is_load(&self) -> bool {
        matches!(self, IrInst::Ld { .. } | IrInst::FLd { .. })
    }

    /// Whether this is a memory write.
    pub fn is_store(&self) -> bool {
        matches!(self, IrInst::St { .. } | IrInst::FSt { .. })
    }

    /// Whether this is a control-flow instruction (side exit).
    pub fn is_branch(&self) -> bool {
        matches!(self, IrInst::BrFlags { .. })
    }

    /// Whether the instruction has a side effect beyond its register
    /// destination (memory write or control flow) and therefore must
    /// never be removed by DCE.
    pub fn has_side_effect(&self) -> bool {
        self.is_store() || self.is_branch() || matches!(self, IrInst::Prefetch { .. })
    }
}

impl std::fmt::Display for IrReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrReg::Phys(r) => write!(f, "r{}", r.0),
            IrReg::Virt(v) => write!(f, "t{v}"),
        }
    }
}

impl std::fmt::Display for IrFreg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrFreg::Phys(r) => write!(f, "f{}", r.0),
            IrFreg::Virt(v) => write!(f, "ft{v}"),
        }
    }
}

impl std::fmt::Display for IrInst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use IrInst::*;
        match *self {
            Nop => write!(f, "nop"),
            Alu { op, rd, ra, rb } => write!(f, "{rd} <- {op:?}({ra}, {rb})"),
            AluI { op, rd, ra, imm } => write!(f, "{rd} <- {op:?}({ra}, #{imm})"),
            Li { rd, imm } => write!(f, "{rd} <- #{imm}"),
            Mul { rd, ra, rb } => write!(f, "{rd} <- mul({ra}, {rb})"),
            Div { rd, ra, rb } => write!(f, "{rd} <- div({ra}, {rb})"),
            FlagsArith { kind, rd, ra, rb } => write!(f, "{rd} <- flags.{kind:?}({ra}, {rb})"),
            Prefetch { base, off } => write!(f, "prefetch [{base}{off:+}]"),
            Ld { rd, base, off, width } => write!(f, "{rd} <- ld.{width:?} [{base}{off:+}]"),
            St { rs, base, off, width } => write!(f, "st.{width:?} [{base}{off:+}] <- {rs}"),
            FLd { fd, base, off } => write!(f, "{fd} <- fld [{base}{off:+}]"),
            FSt { fs, base, off } => write!(f, "fst [{base}{off:+}] <- {fs}"),
            FMov { fd, fa } => write!(f, "{fd} <- {fa}"),
            FArith { op, fd, fa, fb } => write!(f, "{fd} <- f{op:?}({fa}, {fb})"),
            CvtIF { fd, ra } => write!(f, "{fd} <- cvt.if({ra})"),
            CvtFI { rd, fa } => write!(f, "{rd} <- cvt.fi({fa})"),
            BrFlags { cond, flags, stub } => write!(f, "br.{cond:?}({flags}) -> stub{stub}"),
        }
    }
}

/// Renders a block as one line per operation, for verifier reports and
/// debugging.
pub fn pretty(block: &IrBlock) -> String {
    let mut out = String::new();
    for (i, op) in block.ops.iter().enumerate() {
        out.push_str(&format!("{i:4}: {}   ; g{}\n", op.inst, op.guest_idx));
    }
    for (i, stub) in block.stubs.iter().enumerate() {
        out.push_str(&format!(
            "stub{i}: {stub:?} (retires {})\n",
            block.stub_guest_counts.get(i).copied().unwrap_or(0)
        ));
    }
    out.push_str(&format!("fall: {:?} (guest_len {})\n", block.fallthrough, block.guest_len));
    out
}

/// One IR operation with provenance (which guest instruction produced
/// it), used by debugging and by the BBM scratch allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrOp {
    /// The instruction.
    pub inst: IrInst,
    /// Index of the originating guest instruction within the translated
    /// region.
    pub guest_idx: u32,
}

/// A linear IR block: body, exit stubs, and the fall-through exit.
#[derive(Debug, Clone, PartialEq)]
pub struct IrBlock {
    /// Straight-line body.
    pub ops: Vec<IrOp>,
    /// Exit stubs; [`IrInst::BrFlags`] targets index into this list.
    pub stubs: Vec<Exit>,
    /// Guest instructions retired when leaving via each stub (parallel to
    /// `stubs`). Needed by co-simulation: a side exit retires fewer guest
    /// instructions than the whole region.
    pub stub_guest_counts: Vec<u32>,
    /// Where control goes when the body falls through.
    pub fallthrough: Exit,
    /// Number of guest instructions this block translates.
    pub guest_len: u32,
}

/// Register assignment produced by allocation: virtual → physical,
/// indexed by virtual register number.
#[derive(Debug, Clone, Default)]
pub struct RegMap {
    /// Integer assignment.
    pub int: RegVec<HReg>,
    /// FP assignment.
    pub fp: RegVec<HFreg>,
}

impl RegMap {
    /// Forgets every assignment, keeping the buffers.
    pub fn clear(&mut self) {
        self.int.clear();
        self.fp.clear();
    }

    fn r(&self, r: IrReg) -> HReg {
        match r {
            IrReg::Phys(p) => p,
            IrReg::Virt(v) => self.int.get(v as usize).expect("unallocated virtual register"),
        }
    }

    fn f(&self, r: IrFreg) -> HFreg {
        match r {
            IrFreg::Phys(p) => p,
            IrFreg::Virt(v) => self.fp.get(v as usize).expect("unallocated virtual FP register"),
        }
    }
}

/// Lowers an IR block to host instructions using a register assignment.
///
/// Layout: body first (with `Nop` tombstones dropped), then the
/// fall-through exit, then each stub in order. `BrFlags` stub indices are
/// rewritten to host instruction indices.
///
/// # Panics
///
/// Panics if a virtual register has no assignment in `map` or a branch
/// targets a non-existent stub.
pub fn lower(block: &IrBlock, map: &RegMap) -> Vec<HInst> {
    let body = || block.ops.iter().filter(|op| op.inst != IrInst::Nop);
    let body_len = body().count() as u32;
    let stub_pos = |stub: u32| -> u32 {
        assert!((stub as usize) < block.stubs.len(), "branch to missing stub");
        body_len + 1 + stub
    };
    let mut out = Vec::with_capacity(body_len as usize + 1 + block.stubs.len());
    for op in body() {
        let h = match op.inst {
            IrInst::Nop => unreachable!("tombstones filtered"),
            IrInst::Alu { op, rd, ra, rb } => {
                HInst::Alu { op, rd: map.r(rd), ra: map.r(ra), rb: map.r(rb) }
            }
            IrInst::AluI { op, rd, ra, imm } => {
                HInst::AluI { op, rd: map.r(rd), ra: map.r(ra), imm }
            }
            IrInst::Li { rd, imm } => HInst::Li { rd: map.r(rd), imm },
            IrInst::Mul { rd, ra, rb } => {
                HInst::Mul { rd: map.r(rd), ra: map.r(ra), rb: map.r(rb) }
            }
            IrInst::Div { rd, ra, rb } => {
                HInst::Div { rd: map.r(rd), ra: map.r(ra), rb: map.r(rb) }
            }
            IrInst::FlagsArith { kind, rd, ra, rb } => {
                HInst::FlagsArith { kind, rd: map.r(rd), ra: map.r(ra), rb: map.r(rb) }
            }
            IrInst::Prefetch { base, off } => HInst::Prefetch { base: map.r(base), off },
            IrInst::Ld { rd, base, off, width } => {
                HInst::Ld { rd: map.r(rd), base: map.r(base), off, width }
            }
            IrInst::St { rs, base, off, width } => {
                HInst::St { rs: map.r(rs), base: map.r(base), off, width }
            }
            IrInst::FLd { fd, base, off } => HInst::FLd { fd: map.f(fd), base: map.r(base), off },
            IrInst::FSt { fs, base, off } => HInst::FSt { fs: map.f(fs), base: map.r(base), off },
            IrInst::FMov { fd, fa } => HInst::FMov { fd: map.f(fd), fa: map.f(fa) },
            IrInst::FArith { op, fd, fa, fb } => {
                HInst::FArith { op, fd: map.f(fd), fa: map.f(fa), fb: map.f(fb) }
            }
            IrInst::CvtIF { fd, ra } => HInst::CvtIF { fd: map.f(fd), ra: map.r(ra) },
            IrInst::CvtFI { rd, fa } => HInst::CvtFI { rd: map.r(rd), fa: map.f(fa) },
            IrInst::BrFlags { cond, flags, stub } => {
                HInst::BrFlags { cond, flags: map.r(flags), target: stub_pos(stub) }
            }
        };
        out.push(h);
    }
    out.push(HInst::Exit(block.fallthrough));
    for &stub in &block.stubs {
        out.push(HInst::Exit(stub));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_register_mapping() {
        assert_eq!(guest_gpr_reg(0), HReg(1));
        assert_eq!(guest_gpr_reg(7), HReg(8));
        assert_eq!(FLAGS_REG, HReg(9));
        assert_eq!(guest_fpr_reg(3), HFreg(3));
        const { assert!(SCRATCH_BASE > FLAGS_REG.0) };
        const { assert!(SCRATCH_END <= HReg::TOL_BASE) };
    }

    #[test]
    fn lower_resolves_stub_targets_and_drops_nops() {
        let mut map = RegMap::default();
        map.int.insert(0, HReg(10));
        let block = IrBlock {
            ops: vec![
                IrOp { inst: IrInst::Li { rd: IrReg::Virt(0), imm: 1 }, guest_idx: 0 },
                IrOp { inst: IrInst::Nop, guest_idx: 0 },
                IrOp {
                    inst: IrInst::BrFlags { cond: Cond::E, flags: IrReg::Phys(FLAGS_REG), stub: 0 },
                    guest_idx: 1,
                },
            ],
            stubs: vec![Exit::Direct { guest_target: 0x100, link: None }],
            stub_guest_counts: vec![2],
            fallthrough: Exit::Direct { guest_target: 0x200, link: None },
            guest_len: 2,
        };
        let host = lower(&block, &map);
        // body(2) + fallthrough + 1 stub
        assert_eq!(host.len(), 4);
        match host[1] {
            HInst::BrFlags { target, .. } => {
                assert_eq!(target, 3, "stub 0 lands after fallthrough")
            }
            ref other => panic!("expected BrFlags, got {other:?}"),
        }
        assert_eq!(host[2], HInst::Exit(Exit::Direct { guest_target: 0x200, link: None }));
        assert_eq!(host[3], HInst::Exit(Exit::Direct { guest_target: 0x100, link: None }));
    }

    #[test]
    fn ir_metadata() {
        let ld =
            IrInst::Ld { rd: IrReg::Virt(1), base: IrReg::Phys(HReg(2)), off: 4, width: Width::W4 };
        assert!(ld.is_load() && !ld.is_store() && !ld.has_side_effect());
        assert_eq!(ld.dst(), Some(IrReg::Virt(1)));
        let st =
            IrInst::St { rs: IrReg::Virt(1), base: IrReg::Phys(HReg(2)), off: 0, width: Width::W4 };
        assert!(st.has_side_effect());
        let br = IrInst::BrFlags { cond: Cond::Ne, flags: IrReg::Phys(FLAGS_REG), stub: 0 };
        assert!(br.is_branch() && br.has_side_effect());
    }

    #[test]
    #[should_panic(expected = "unallocated virtual register")]
    fn missing_allocation_panics() {
        let block = IrBlock {
            ops: vec![IrOp { inst: IrInst::Li { rd: IrReg::Virt(7), imm: 0 }, guest_idx: 0 }],
            stubs: vec![],
            stub_guest_counts: vec![],
            fallthrough: Exit::Halt,
            guest_len: 1,
        };
        let _ = lower(&block, &RegMap::default());
    }
}
