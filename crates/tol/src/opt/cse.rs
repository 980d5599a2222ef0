//! Common-subexpression elimination by local value numbering.
//!
//! A forward sweep assigns value numbers to register contents and hashes
//! pure computations. When a computation whose operands carry the same
//! value numbers reappears **and** its previous result lives in a
//! still-valid *virtual* register, the instruction is replaced by a copy
//! (which copy propagation then folds away). Loads participate with a
//! memory version number that every store bumps, so loads are only
//! reused when no store intervened.
//!
//! Only virtual-destination results are reused: pinned guest registers
//! are overwritten unpredictably, while virtuals are single-assignment
//! by construction.

use super::OptScratch;
use crate::ir::{IrBlock, IrInst, IrReg};
use crate::regset::{RegSet, RegVec};
use darco_host::HAluOp;
use std::collections::HashMap;

type Vn = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Expr {
    Alu(HAluOp, Vn, Vn),
    AluI(HAluOp, Vn, i32),
    Mul(Vn, Vn),
    Const(i64),
    Load(Vn, i32, u8, u64), // base vn, offset, width bytes, memory version
}

/// The value-numbering state. Registers are numbered through a dense
/// array; expressions are keyed by structure, so their table stays a
/// hash map (cleared, not dropped, between blocks).
#[derive(Debug, Default)]
pub(crate) struct Numbering {
    next: Vn,
    reg_vn: RegVec<Vn>,
    expr_vn: HashMap<Expr, (Vn, IrReg)>, // value + the virtual holding it
    /// Registers recorded as a holder in `expr_vn`. A definition only
    /// has to search the table when it overwrites one of these — which
    /// single-assignment virtuals never are.
    holders: RegSet,
    mem_version: u64,
}

impl Numbering {
    fn clear(&mut self) {
        self.next = 0;
        self.reg_vn.clear();
        self.expr_vn.clear();
        self.holders.clear();
        self.mem_version = 0;
    }

    fn fresh(&mut self) -> Vn {
        self.next += 1;
        self.next - 1
    }

    fn vn_of(&mut self, r: IrReg) -> Vn {
        if r == IrReg::ZERO {
            return self.vn_expr_only(Expr::Const(0));
        }
        if let Some(v) = self.reg_vn.get(r.index()) {
            return v;
        }
        let v = self.fresh();
        self.reg_vn.insert(r.index(), v);
        v
    }

    /// Value number for an expression without recording a holder.
    fn vn_expr_only(&mut self, e: Expr) -> Vn {
        if let Some(&(v, _)) = self.expr_vn.get(&e) {
            return v;
        }
        let v = self.fresh();
        self.hold(e, v, IrReg::ZERO);
        v
    }

    fn hold(&mut self, e: Expr, v: Vn, holder: IrReg) {
        self.expr_vn.insert(e, (v, holder));
        self.holders.insert(holder.index());
    }

    fn kill(&mut self, r: IrReg) {
        self.reg_vn.remove(r.index());
        if self.holders.contains(r.index()) {
            self.holders.remove(r.index());
            self.expr_vn.retain(|_, (_, holder)| *holder != r);
        }
    }
}

/// Runs CSE in place.
pub fn run(block: &mut IrBlock, scratch: &mut OptScratch) {
    let n = &mut scratch.cse;
    n.clear();
    for op in &mut block.ops {
        let expr = match op.inst {
            IrInst::Alu { op: o, ra, rb, .. } => {
                let (va, vb) = (n.vn_of(ra), n.vn_of(rb));
                // Canonicalize commutative operand order.
                let (va, vb) = match o {
                    HAluOp::Add | HAluOp::And | HAluOp::Or | HAluOp::Xor => {
                        (va.min(vb), va.max(vb))
                    }
                    _ => (va, vb),
                };
                Some(Expr::Alu(o, va, vb))
            }
            IrInst::AluI { op: o, ra, imm, .. } => Some(Expr::AluI(o, n.vn_of(ra), imm)),
            IrInst::Mul { ra, rb, .. } => {
                let (va, vb) = (n.vn_of(ra), n.vn_of(rb));
                Some(Expr::Mul(va.min(vb), va.max(vb)))
            }
            IrInst::Li { imm, .. } => Some(Expr::Const(imm)),
            IrInst::Ld { base, off, width, .. } => {
                Some(Expr::Load(n.vn_of(base), off, width.bytes(), n.mem_version))
            }
            _ => None,
        };

        if op.inst.is_store() {
            n.mem_version += 1;
        }

        let Some(rd) = op.inst.dst() else { continue };
        let Some(expr) = expr else {
            // Opaque definition (div, flags, cvt): fresh value.
            n.kill(rd);
            let v = n.fresh();
            n.reg_vn.insert(rd.index(), v);
            continue;
        };

        match n.expr_vn.get(&expr) {
            Some(&(v, holder)) if matches!(holder, IrReg::Virt(_)) && holder != rd => {
                // Reuse: replace with a copy from the holder.
                op.inst = IrInst::AluI { op: HAluOp::Or, rd, ra: holder, imm: 0 };
                n.kill(rd);
                n.reg_vn.insert(rd.index(), v);
            }
            _ => {
                let v = n.fresh();
                n.kill(rd);
                n.reg_vn.insert(rd.index(), v);
                // Record the holder only for single-assignment virtuals.
                if matches!(rd, IrReg::Virt(_)) {
                    n.hold(expr, v, rd);
                }
            }
        }
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

    fn block(ops: Vec<IrInst>) -> IrBlock {
        IrBlock {
            ops: ops.into_iter().map(|inst| IrOp { inst, guest_idx: 0 }).collect(),
            stubs: vec![],
            stub_guest_counts: vec![],
            fallthrough: Exit::Halt,
            guest_len: 1,
        }
    }

    fn run(block: &mut IrBlock) {
        super::run(block, &mut OptScratch::default());
    }

    fn is_copy_from(inst: &IrInst, src: IrReg) -> bool {
        matches!(*inst, IrInst::AluI { op: HAluOp::Or, ra, imm: 0, .. } if ra == src)
    }

    #[test]
    fn repeated_address_computation_reused() {
        // Twice: t = r2 << 2 ; second becomes a copy of the first.
        let mut b = block(vec![
            IrInst::AluI { op: HAluOp::Shl, rd: IrReg::Virt(0), ra: phys(2), imm: 2 },
            IrInst::AluI { op: HAluOp::Shl, rd: IrReg::Virt(1), ra: phys(2), imm: 2 },
        ]);
        run(&mut b);
        assert!(is_copy_from(&b.ops[1].inst, IrReg::Virt(0)), "{:?}", b.ops[1].inst);
    }

    #[test]
    fn operand_redefinition_blocks_reuse() {
        let mut b = block(vec![
            IrInst::AluI { op: HAluOp::Shl, rd: IrReg::Virt(0), ra: phys(2), imm: 2 },
            IrInst::AluI { op: HAluOp::Add, rd: phys(2), ra: phys(2), imm: 4 },
            IrInst::AluI { op: HAluOp::Shl, rd: IrReg::Virt(1), ra: phys(2), imm: 2 },
        ]);
        run(&mut b);
        assert!(!is_copy_from(&b.ops[2].inst, IrReg::Virt(0)), "r2 changed; recompute required");
    }

    #[test]
    fn loads_reused_until_a_store_intervenes() {
        let ld = |rd| IrInst::Ld { rd, base: phys(3), off: 0, width: Width::W4 };
        let mut b = block(vec![
            ld(IrReg::Virt(0)),
            ld(IrReg::Virt(1)), // reusable
            IrInst::St { rs: phys(1), base: phys(4), off: 0, width: Width::W4 },
            ld(IrReg::Virt(2)), // must reload
        ]);
        run(&mut b);
        assert!(is_copy_from(&b.ops[1].inst, IrReg::Virt(0)));
        assert!(b.ops[3].inst.is_load(), "store invalidates memory values");
    }

    #[test]
    fn commutative_operands_canonicalized() {
        let mut b = block(vec![
            IrInst::Alu { op: HAluOp::Add, rd: IrReg::Virt(0), ra: phys(1), rb: phys(2) },
            IrInst::Alu { op: HAluOp::Add, rd: IrReg::Virt(1), ra: phys(2), rb: phys(1) },
        ]);
        run(&mut b);
        assert!(is_copy_from(&b.ops[1].inst, IrReg::Virt(0)));
    }

    #[test]
    fn loads_of_different_widths_are_distinct_values() {
        // A byte load and a word load from the same address are not the
        // same value: the width is part of the value number.
        let mut b = block(vec![
            IrInst::Ld { rd: IrReg::Virt(0), base: phys(3), off: 0, width: Width::W1 },
            IrInst::Ld { rd: IrReg::Virt(1), base: phys(3), off: 0, width: Width::W4 },
        ]);
        run(&mut b);
        assert!(b.ops[1].inst.is_load(), "different widths must both load");
    }

    #[test]
    fn phys_results_not_reused() {
        // Same expression into pinned registers: both must stay (the
        // holder could be clobbered between uses).
        let mut b = block(vec![
            IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(2), rb: phys(3) },
            IrInst::Alu { op: HAluOp::Add, rd: phys(4), ra: phys(2), rb: phys(3) },
        ]);
        run(&mut b);
        assert!(matches!(b.ops[1].inst, IrInst::Alu { .. }));
    }
}
