//! Copy/constant propagation and constant folding.
//!
//! A single forward sweep over the linear body tracking, per register,
//! whether it currently holds a known constant or is a copy of another
//! register. Uses are rewritten to the oldest equivalent register or to
//! an immediate form; fully-constant ALU operations fold to `Li`.
//! Rewrites never extend a *virtual* register's live range across its
//! original definition point backwards, because the copy source always
//! dominates the use in linear code.

use super::OptScratch;
use crate::ir::{IrBlock, IrInst, IrReg};
use crate::regset::{RegSet, RegVec};
use darco_host::{eval_alu, HAluOp};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Const(u32),
    CopyOf(IrReg),
}

/// What is known about each register at the sweep's current point.
#[derive(Debug, Default)]
pub(crate) struct Facts {
    map: RegVec<Value>,
    /// Registers some `CopyOf` fact may name (a superset: bits are only
    /// cleared when the register is invalidated). Lets a definition
    /// skip the search for copies of the register it overwrites.
    copied: RegSet,
}

impl Facts {
    fn clear(&mut self) {
        self.map.clear();
        self.copied.clear();
    }

    fn set_copy(&mut self, r: IrReg, of: IrReg) {
        self.map.insert(r.index(), Value::CopyOf(of));
        self.copied.insert(of.index());
    }

    fn invalidate(&mut self, r: IrReg) {
        self.map.remove(r.index());
        if self.copied.contains(r.index()) {
            self.copied.remove(r.index());
            self.map.retain(|v| *v != Value::CopyOf(r));
        }
    }

    /// Resolves `r` through copy chains to a known constant. The facts
    /// should be acyclic (copies point backward in linear code); a
    /// chain longer than the map's span can only be a cycle, which
    /// degrades to "unknown" rather than loop forever.
    fn constant(&self, r: IrReg) -> Option<u32> {
        let mut cur = r;
        for _ in 0..=self.map.span() {
            if cur == IrReg::ZERO {
                return Some(0);
            }
            match self.map.get(cur.index())? {
                Value::Const(c) => return Some(c),
                Value::CopyOf(s) => cur = s,
            }
        }
        None
    }

    /// Resolves a register to its oldest live equivalent.
    fn resolve(&self, r: IrReg) -> IrReg {
        match self.map.get(r.index()) {
            Some(Value::CopyOf(s)) => s,
            _ => r,
        }
    }
}

/// Detects the canonical copy forms the translator and CSE emit.
fn as_copy(inst: &IrInst) -> Option<(IrReg, IrReg)> {
    match *inst {
        IrInst::AluI { op: HAluOp::Or | HAluOp::Add, rd, ra, imm: 0 } => Some((rd, ra)),
        IrInst::Alu { op: HAluOp::Or | HAluOp::Add, rd, ra, rb } if rb == IrReg::ZERO => {
            Some((rd, ra))
        }
        _ => None,
    }
}

/// Runs the pass in place.
pub fn run(block: &mut IrBlock, scratch: &mut OptScratch) {
    let facts = &mut scratch.constprop;
    facts.clear();
    for op in &mut block.ops {
        // 1. Rewrite sources: copies to their origin, constants into
        //    immediate forms where the shape allows it.
        rewrite_sources(&mut op.inst, facts);

        // 2. Fold fully-constant computations.
        if let Some(c) = fold_inst(&op.inst, facts) {
            if let Some(rd) = op.inst.dst() {
                op.inst = IrInst::Li { rd, imm: c as i32 as i64 };
            }
        }

        // 3. Update facts from this definition.
        let copy = as_copy(&op.inst);
        if let Some(rd) = op.inst.dst() {
            facts.invalidate(rd);
            match op.inst {
                IrInst::Li { imm, .. } => {
                    facts.map.insert(rd.index(), Value::Const(imm as u32));
                }
                _ => {
                    if let Some((dst, src)) = copy {
                        debug_assert_eq!(dst, rd);
                        if let Some(c) = facts.constant(src) {
                            facts.map.insert(rd.index(), Value::Const(c));
                        } else if src != rd {
                            facts.set_copy(rd, facts.resolve(src));
                        }
                    }
                }
            }
        }
    }
}

fn rewrite_sources(inst: &mut IrInst, facts: &Facts) {
    use IrInst::*;
    let res = |r: IrReg| facts.resolve(r);
    match inst {
        Alu { ra, rb, op, rd } => {
            *ra = res(*ra);
            *rb = res(*rb);
            // reg->imm strength reduction when rb is constant.
            if let Some(c) = facts.constant(*rb) {
                *inst = AluI { op: *op, rd: *rd, ra: *ra, imm: c as i32 };
            }
        }
        AluI { ra, .. } => *ra = res(*ra),
        Mul { ra, rb, .. } | Div { ra, rb, .. } | FlagsArith { ra, rb, .. } => {
            *ra = res(*ra);
            *rb = res(*rb);
        }
        Ld { base, off, .. } | FLd { base, off, .. } | Prefetch { base, off } => {
            *base = res(*base);
            if let Some(c) = facts.constant(*base) {
                *base = IrReg::ZERO;
                *off = off.wrapping_add(c as i32);
            }
        }
        St { rs, base, off, .. } => {
            *rs = res(*rs);
            *base = res(*base);
            if let Some(c) = facts.constant(*base) {
                *base = IrReg::ZERO;
                *off = off.wrapping_add(c as i32);
            }
        }
        FSt { base, off, .. } => {
            *base = res(*base);
            if let Some(c) = facts.constant(*base) {
                *base = IrReg::ZERO;
                *off = off.wrapping_add(c as i32);
            }
        }
        CvtIF { ra, .. } => *ra = res(*ra),
        BrFlags { flags, .. } => *flags = res(*flags),
        Nop | Li { .. } | FMov { .. } | FArith { .. } | CvtFI { .. } => {}
    }
}

fn fold_inst(inst: &IrInst, facts: &Facts) -> Option<u32> {
    match *inst {
        IrInst::Alu { op, ra, rb, .. } => {
            Some(eval_alu(op, facts.constant(ra)?, facts.constant(rb)?))
        }
        IrInst::AluI { op, ra, imm, .. } => Some(eval_alu(op, facts.constant(ra)?, imm as u32)),
        IrInst::Mul { ra, rb, .. } => {
            Some((facts.constant(ra)? as i32).wrapping_mul(facts.constant(rb)? as i32) as u32)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrOp;
    use darco_host::{Exit, HReg, Width};

    fn phys(i: u8) -> IrReg {
        IrReg::Phys(HReg(i))
    }

    fn run(block: &mut IrBlock) {
        super::run(block, &mut OptScratch::default());
    }

    fn block(ops: Vec<IrInst>) -> IrBlock {
        IrBlock {
            ops: ops.into_iter().map(|inst| IrOp { inst, guest_idx: 0 }).collect(),
            stubs: vec![],
            stub_guest_counts: vec![],
            fallthrough: Exit::Halt,
            guest_len: 1,
        }
    }

    #[test]
    fn constants_fold_through_chains() {
        // li t0, 6 ; li t1, 7 ; mul t2 = t0 * t1 ; add r1 = t2 + t2
        let mut b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 6 },
            IrInst::Li { rd: IrReg::Virt(1), imm: 7 },
            IrInst::Mul { rd: IrReg::Virt(2), ra: IrReg::Virt(0), rb: IrReg::Virt(1) },
            IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: IrReg::Virt(2), rb: IrReg::Virt(2) },
        ]);
        run(&mut b);
        assert_eq!(b.ops[2].inst, IrInst::Li { rd: IrReg::Virt(2), imm: 42 });
        assert_eq!(b.ops[3].inst, IrInst::Li { rd: phys(1), imm: 84 });
    }

    #[test]
    fn copy_uses_are_redirected() {
        // copy t0 <- r2 ; st t0 -> [r3]
        let mut b = block(vec![
            IrInst::AluI { op: HAluOp::Or, rd: IrReg::Virt(0), ra: phys(2), imm: 0 },
            IrInst::St { rs: IrReg::Virt(0), base: phys(3), off: 0, width: Width::W4 },
        ]);
        run(&mut b);
        match b.ops[1].inst {
            IrInst::St { rs, .. } => assert_eq!(rs, phys(2)),
            ref o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn redefinition_kills_facts() {
        // copy t0 <- r2 ; r2 changes ; use of t0 must NOT become r2.
        let mut b = block(vec![
            IrInst::AluI { op: HAluOp::Or, rd: IrReg::Virt(0), ra: phys(2), imm: 0 },
            IrInst::AluI { op: HAluOp::Add, rd: phys(2), ra: phys(2), imm: 1 },
            IrInst::St { rs: IrReg::Virt(0), base: phys(3), off: 0, width: Width::W4 },
        ]);
        run(&mut b);
        match b.ops[2].inst {
            IrInst::St { rs, .. } => assert_eq!(rs, IrReg::Virt(0), "stale copy not propagated"),
            ref o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn constant_base_becomes_absolute_address() {
        let mut b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 0x4000 },
            IrInst::Ld { rd: phys(1), base: IrReg::Virt(0), off: 8, width: Width::W4 },
        ]);
        run(&mut b);
        match b.ops[1].inst {
            IrInst::Ld { base, off, .. } => {
                assert_eq!(base, IrReg::ZERO);
                assert_eq!(off, 0x4008);
            }
            ref o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn copy_cycle_in_facts_terminates_as_unknown() {
        // A cyclic fact set (t0 copy-of t1, t1 copy-of t0) cannot arise
        // from the forward sweep, but `constant` must not hang or
        // overflow the stack if it ever does.
        let mut f = Facts::default();
        f.set_copy(IrReg::Virt(0), IrReg::Virt(1));
        f.set_copy(IrReg::Virt(1), IrReg::Virt(0));
        assert_eq!(f.constant(IrReg::Virt(0)), None);
        assert_eq!(f.constant(IrReg::Virt(1)), None);
        // Self-cycle degenerate case.
        f.set_copy(IrReg::Virt(2), IrReg::Virt(2));
        assert_eq!(f.constant(IrReg::Virt(2)), None);
        // Chains ending in a constant still resolve through the guard.
        f.map.insert(IrReg::Virt(3).index(), Value::Const(9));
        f.set_copy(IrReg::Virt(4), IrReg::Virt(3));
        assert_eq!(f.constant(IrReg::Virt(4)), Some(9));
    }

    #[test]
    fn reg_operand_strength_reduced_to_imm() {
        let mut b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 3 },
            IrInst::Alu { op: HAluOp::Shl, rd: phys(1), ra: phys(1), rb: IrReg::Virt(0) },
        ]);
        run(&mut b);
        assert_eq!(
            b.ops[1].inst,
            IrInst::AluI { op: HAluOp::Shl, rd: phys(1), ra: phys(1), imm: 3 }
        );
    }
}
