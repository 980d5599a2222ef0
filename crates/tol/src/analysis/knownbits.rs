//! Known-bits + unsigned-range abstract interpretation over IR values.
//!
//! Each integer register is abstracted by an [`AbsVal`]: a mask of bits
//! known to be zero, a mask of bits known to be one, and an inclusive
//! unsigned range `[lo, hi]`. The two views refine each other (a value
//! below `hi` cannot set bits above `hi`'s leading bit; known ones lift
//! `lo`), and the transfer functions mirror the reference host
//! semantics ([`eval_alu`], [`eval_flags`]) exactly — when both
//! operands are constants the abstract result *is* the concrete one.
//!
//! `FlagsArith` kinds are tracked precisely enough to decide `BrFlags`
//! conditions statically: logic flags always clear CF/OF, and disjoint
//! operand ranges decide the carry/zero flags of a compare. [`decide`]
//! turns a flags-word fact into a taken/untaken verdict where the
//! known bits determine the condition.

use super::regset::RegVec;
use super::{Analysis, Direction, Lattice};
use crate::ir::{IrBlock, IrInst, IrOp, IrReg};
use darco_guest::Cond;
use darco_host::{eval_alu, eval_flags, FlagsKind, HAluOp, Width};

/// Flags-word bit positions (the guest `Flags::to_word` layout).
const CF: u32 = 1 << 0;
const ZF: u32 = 1 << 1;
const SF: u32 = 1 << 2;
const OF: u32 = 1 << 3;
/// All architecturally meaningful flags bits (CF/ZF/SF/OF/PF).
const FLAGS_MASK: u32 = 0x1F;

/// Lowest mask covering every value `<= x` (all bits up to `x`'s
/// leading one).
fn mask_up(x: u32) -> u32 {
    if x == 0 {
        0
    } else {
        u32::MAX >> x.leading_zeros()
    }
}

/// An abstract 32-bit value: known bits plus an unsigned range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Bits known to be `0`.
    pub zeros: u32,
    /// Bits known to be `1`.
    pub ones: u32,
    /// Smallest possible unsigned value.
    pub lo: u32,
    /// Largest possible unsigned value.
    pub hi: u32,
}

impl AbsVal {
    /// No knowledge: any 32-bit value.
    pub fn top() -> AbsVal {
        AbsVal { zeros: 0, ones: 0, lo: 0, hi: u32::MAX }
    }

    /// Exact knowledge of constant `c`.
    pub fn constant(c: u32) -> AbsVal {
        AbsVal { zeros: !c, ones: c, lo: c, hi: c }
    }

    /// The constant this value is pinned to, if fully known.
    pub fn as_const(&self) -> Option<u32> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Whether concrete value `v` satisfies every claim this fact makes
    /// (the soundness predicate the runtime oracle asserts).
    pub fn contains(&self, v: u32) -> bool {
        v & self.zeros == 0 && v & self.ones == self.ones && self.lo <= v && v <= self.hi
    }

    /// Mutually refines the bit and range views; an inconsistent
    /// combination (possible only for dataflow-unreachable values)
    /// widens back to top rather than claim the impossible.
    fn normalize(mut self) -> AbsVal {
        self.lo = self.lo.max(self.ones);
        self.hi = self.hi.min(!self.zeros);
        if self.hi < u32::MAX {
            self.zeros |= !mask_up(self.hi);
        }
        if self.lo > self.hi || self.zeros & self.ones != 0 {
            return AbsVal::top();
        }
        self
    }

    /// Least upper bound (keeps only the knowledge both sides share).
    pub fn join(&mut self, other: &AbsVal) {
        self.zeros &= other.zeros;
        self.ones &= other.ones;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        *self = self.normalize();
    }
}

impl std::fmt::Display for AbsVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(c) = self.as_const() {
            write!(f, "const {c:#x}")
        } else {
            write!(
                f,
                "ones={:#x} zeros={:#x} [{:#x},{:#x}]",
                self.ones, self.zeros, self.lo, self.hi
            )
        }
    }
}

/// Abstract evaluation of a host ALU op (agrees with [`eval_alu`] on
/// constants by construction).
pub fn alu_result(op: HAluOp, a: AbsVal, b: AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::constant(eval_alu(op, x, y));
    }
    let mut r = AbsVal::top();
    match op {
        HAluOp::Add => {
            if let (Some(lo), Some(hi)) = (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
                r.lo = lo;
                r.hi = hi;
            }
            if !a.zeros & !b.zeros == 0 {
                // No bit position can carry: addition degenerates to OR.
                r.zeros |= a.zeros & b.zeros;
                r.ones |= a.ones | b.ones;
            }
        }
        HAluOp::Sub => {
            if a.lo >= b.hi {
                // No borrow possible for any operand pair.
                r.lo = a.lo - b.hi;
                r.hi = a.hi - b.lo;
            }
        }
        HAluOp::And => {
            r.zeros = a.zeros | b.zeros;
            r.ones = a.ones & b.ones;
            r.lo = 0;
            r.hi = a.hi.min(b.hi);
        }
        HAluOp::Or => {
            r.zeros = a.zeros & b.zeros;
            r.ones = a.ones | b.ones;
            r.lo = a.lo.max(b.lo);
            r.hi = mask_up(a.hi) | mask_up(b.hi);
        }
        HAluOp::Xor => {
            r.zeros = (a.zeros & b.zeros) | (a.ones & b.ones);
            r.ones = (a.zeros & b.ones) | (a.ones & b.zeros);
            r.lo = 0;
            r.hi = mask_up(a.hi) | mask_up(b.hi);
        }
        HAluOp::Shl => {
            if let Some(c) = b.as_const() {
                let c = c & 31;
                r.ones = a.ones << c;
                r.zeros = !(!a.zeros << c);
                if a.hi <= u32::MAX >> c {
                    r.lo = a.lo << c;
                    r.hi = a.hi << c;
                }
            }
        }
        HAluOp::Shr => {
            if let Some(c) = b.as_const() {
                let c = c & 31;
                r.ones = a.ones >> c;
                r.zeros = !(!a.zeros >> c);
                r.lo = a.lo >> c;
                r.hi = a.hi >> c;
            } else {
                // Any shift amount: the result never exceeds the input.
                r.lo = 0;
                r.hi = a.hi;
            }
        }
        HAluOp::Sar => {
            let width_mask = |c: u32| if c == 0 { u32::MAX } else { u32::MAX >> c };
            if a.zeros >> 31 != 0 {
                // Sign known clear: behaves exactly like a logical shift.
                return alu_result(HAluOp::Shr, a, b);
            }
            if let Some(c) = b.as_const() {
                let c = c & 31;
                r.zeros = (a.zeros >> c) & width_mask(c);
                r.ones = (a.ones >> c) & width_mask(c);
                if a.ones >> 31 != 0 && c > 0 {
                    // Sign known set: the vacated bits fill with ones.
                    r.ones |= !width_mask(c);
                }
            }
        }
        HAluOp::SltU => {
            r = bool_range();
            if a.hi < b.lo {
                r = AbsVal::constant(1);
            } else if a.lo >= b.hi {
                r = AbsVal::constant(0);
            }
        }
        HAluOp::SltS => r = bool_range(),
    }
    r.normalize()
}

/// The abstract value of a boolean result (`{0, 1}`).
fn bool_range() -> AbsVal {
    AbsVal { zeros: !1, ones: 0, lo: 0, hi: 1 }
}

/// Abstract evaluation of a `FlagsArith` materialization: what is known
/// about the produced flags word (agrees with [`eval_flags`] on
/// constants).
pub fn flags_result(kind: FlagsKind, a: AbsVal, b: AbsVal) -> AbsVal {
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return AbsVal::constant(eval_flags(kind, x, y));
    }
    if kind == FlagsKind::Logic {
        // Logic flags depend on operand `a` alone.
        if let Some(x) = a.as_const() {
            return AbsVal::constant(eval_flags(kind, x, 0));
        }
    }
    let mut zeros = !FLAGS_MASK;
    let mut ones = 0;
    match kind {
        FlagsKind::Logic => {
            zeros |= CF | OF;
            if a.lo > 0 {
                zeros |= ZF;
            }
            if a.zeros >> 31 != 0 {
                zeros |= SF;
            } else if a.ones >> 31 != 0 {
                ones |= SF;
            }
        }
        FlagsKind::Sub => {
            if a.hi < b.lo {
                // a < b for every operand pair: borrow, never equal.
                ones |= CF;
                zeros |= ZF;
            } else if a.lo >= b.hi {
                // a >= b always: no borrow; strictly greater rules out ZF.
                zeros |= CF;
                if a.lo > b.hi {
                    zeros |= ZF;
                }
            }
        }
        FlagsKind::Add if a.hi.checked_add(b.hi).is_some() => {
            // The true sum never wraps: no carry-out. The minimum sum
            // cannot overflow either (lo <= hi on both sides), so a
            // positive minimum rules out a zero result.
            zeros |= CF;
            if a.lo + b.lo > 0 {
                zeros |= ZF;
            }
        }
        _ => {}
    }
    AbsVal { zeros, ones, lo: 0, hi: FLAGS_MASK }.normalize()
}

/// Decides a branch condition from a flags-word fact: `Some(taken)`
/// when the known bits determine the outcome, `None` otherwise.
pub fn decide(cond: Cond, f: &AbsVal) -> Option<bool> {
    let bit = |m: u32| {
        if f.ones & m != 0 {
            Some(true)
        } else if f.zeros & m != 0 {
            Some(false)
        } else {
            None
        }
    };
    let (cf, zf, sf, of) = (bit(CF), bit(ZF), bit(SF), bit(OF));
    let ne = |x: Option<bool>, y: Option<bool>| Some(x? != y?);
    let and = |x: Option<bool>, y: Option<bool>| match (x, y) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    };
    let or = |x: Option<bool>, y: Option<bool>| match (x, y) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    };
    let not = |x: Option<bool>| x.map(|v| !v);
    match cond {
        Cond::E => zf,
        Cond::Ne => not(zf),
        Cond::L => ne(sf, of),
        Cond::Le => or(zf, ne(sf, of)),
        Cond::G => and(not(zf), not(ne(sf, of))),
        Cond::Ge => not(ne(sf, of)),
        Cond::B => cf,
        Cond::Be => or(cf, zf),
        Cond::A => and(not(cf), not(zf)),
        Cond::Ae => not(cf),
        Cond::S => sf,
        Cond::Ns => not(sf),
    }
}

/// Abstract state at one program point: facts per integer register,
/// stored densely by [`IrReg::index`]. Absent registers are
/// unconstrained (top); `r0` is the hardwired zero register.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValMap(RegVec<AbsVal>);

impl ValMap {
    /// The fact for `r`, if anything is known.
    pub fn get(&self, r: IrReg) -> Option<AbsVal> {
        if r == IrReg::ZERO {
            return Some(AbsVal::constant(0));
        }
        self.0.get(r.index())
    }

    /// The fact for `r`, defaulting to top.
    pub fn get_or_top(&self, r: IrReg) -> AbsVal {
        self.get(r).unwrap_or_else(AbsVal::top)
    }

    fn set(&mut self, r: IrReg, v: AbsVal) {
        if v == AbsVal::top() {
            self.0.remove(r.index());
        } else {
            self.0.insert(r.index(), v);
        }
    }

    /// Forgets everything (the block-entry state), keeping the buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl Lattice for ValMap {
    fn join(&mut self, other: &ValMap) {
        self.0.intersect_with(&other.0, |v, o| v.join(&o));
    }
}

/// Applies `inst` forward: `fact` is the state before the instruction
/// and becomes the state after it.
pub fn transfer(inst: &IrInst, fact: &mut ValMap) {
    match *inst {
        IrInst::Alu { op, rd, ra, rb } => {
            let v = alu_result(op, fact.get_or_top(ra), fact.get_or_top(rb));
            fact.set(rd, v);
        }
        IrInst::AluI { op, rd, ra, imm } => {
            let v = alu_result(op, fact.get_or_top(ra), AbsVal::constant(imm as u32));
            fact.set(rd, v);
        }
        IrInst::Li { rd, imm } => fact.set(rd, AbsVal::constant(imm as u32)),
        IrInst::FlagsArith { kind, rd, ra, rb } => {
            let v = flags_result(kind, fact.get_or_top(ra), fact.get_or_top(rb));
            fact.set(rd, v);
        }
        IrInst::Ld { rd, width, .. } => {
            let v = match width {
                Width::W1 => AbsVal { zeros: !0xFF, ones: 0, lo: 0, hi: 0xFF },
                Width::W2 => AbsVal { zeros: !0xFFFF, ones: 0, lo: 0, hi: 0xFFFF },
                Width::W4 | Width::W8 => AbsVal::top(),
            };
            fact.set(rd, v);
        }
        IrInst::Mul { rd, .. } | IrInst::Div { rd, .. } | IrInst::CvtFI { rd, .. } => {
            fact.set(rd, AbsVal::top());
        }
        IrInst::Nop
        | IrInst::Prefetch { .. }
        | IrInst::St { .. }
        | IrInst::FSt { .. }
        | IrInst::FLd { .. }
        | IrInst::FMov { .. }
        | IrInst::FArith { .. }
        | IrInst::CvtIF { .. }
        | IrInst::BrFlags { .. } => {}
    }
}

/// The forward known-bits/range analysis.
pub struct KnownBits;

impl Analysis for KnownBits {
    type Fact = ValMap;
    const DIRECTION: Direction = Direction::Forward;

    fn boundary(&self, _block: &IrBlock) -> ValMap {
        ValMap::default()
    }

    fn transfer(&self, op: &IrOp, _idx: usize, fact: &mut ValMap, _block: &IrBlock) {
        transfer(&op.inst, fact);
    }
}

/// Known-bits facts per program point: `facts[i]` holds immediately
/// before `block.ops[i]`, so an op's result fact is `facts[i + 1]` at
/// its destination.
pub fn facts(block: &IrBlock) -> Vec<ValMap> {
    super::solve(&KnownBits, block)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u32) -> AbsVal {
        AbsVal::constant(x)
    }

    #[test]
    fn constants_fold_exactly_through_every_op() {
        for op in [
            HAluOp::Add,
            HAluOp::Sub,
            HAluOp::And,
            HAluOp::Or,
            HAluOp::Xor,
            HAluOp::Shl,
            HAluOp::Shr,
            HAluOp::Sar,
            HAluOp::SltS,
            HAluOp::SltU,
        ] {
            for (a, b) in [(5, 3), (0xFFFF_FFFF, 1), (0x8000_0000, 33), (0, 0)] {
                assert_eq!(alu_result(op, c(a), c(b)).as_const(), Some(eval_alu(op, a, b)));
            }
        }
    }

    #[test]
    fn and_masks_are_tracked() {
        let a = AbsVal::top();
        let r = alu_result(HAluOp::And, a, c(0xFF));
        assert_eq!(r.zeros, !0xFF);
        assert_eq!(r.hi, 0xFF);
        assert!(r.contains(0x37) && !r.contains(0x100));
    }

    #[test]
    fn narrow_range_sub_decides_compare_flags() {
        // a in [0,255], b = 1000: a < b always -> CF set, ZF clear.
        let a = AbsVal { zeros: !0xFF, ones: 0, lo: 0, hi: 0xFF };
        let f = flags_result(FlagsKind::Sub, a, c(1000));
        assert_eq!(decide(Cond::B, &f), Some(true), "below is decided taken");
        assert_eq!(decide(Cond::E, &f), Some(false), "equality ruled out");
        assert_eq!(decide(Cond::Ae, &f), Some(false));
        assert_eq!(decide(Cond::L, &f), None, "signed compare needs SF/OF");
    }

    #[test]
    fn logic_flags_clear_carry_and_overflow() {
        let f = flags_result(FlagsKind::Logic, AbsVal::top(), c(0));
        assert_eq!(decide(Cond::B, &f), Some(false), "CF known clear");
        assert_eq!(decide(Cond::Ae, &f), Some(true));
        assert_eq!(decide(Cond::E, &f), None, "ZF unknown for a top operand");
    }

    #[test]
    fn join_keeps_only_common_knowledge() {
        let mut a = c(8);
        a.join(&c(12));
        assert!(a.contains(8) && a.contains(12));
        assert_eq!(a.lo, 8);
        assert_eq!(a.hi, 12);
        assert!(a.zeros & 0x4 == 0, "bit 2 differs between 8 and 12");
        assert!(a.ones & 0x8 != 0, "bit 3 common to both");
    }

    #[test]
    fn shifts_and_ranges_compose() {
        let byte = AbsVal { zeros: !0xFF, ones: 0, lo: 0, hi: 0xFF };
        let r = alu_result(HAluOp::Shl, byte, c(8));
        assert_eq!(r.hi, 0xFF00);
        assert_eq!(r.zeros & 0xFF, 0xFF, "low byte vacated");
        let r = alu_result(HAluOp::Shr, AbsVal::top(), c(24));
        assert_eq!(r.hi, 0xFF);
    }

    #[test]
    fn contains_is_the_soundness_predicate() {
        let v = AbsVal { zeros: 1, ones: 2, lo: 2, hi: 100 };
        assert!(v.contains(2) && v.contains(98));
        assert!(!v.contains(3), "bit 0 claimed zero");
        assert!(!v.contains(4), "bit 1 claimed one");
        assert!(!v.contains(102), "above hi");
    }
}
