//! Dead-code elimination by backward liveness.
//!
//! Pinned physical registers hold emulated guest state, observable at
//! the end of the body and at every side exit; this pass treats them as
//! live everywhere and never removes a definition of one (a pinned
//! flags definition overwritten before any exit was never emitted: the
//! translator decides that while it still has the guest instruction).
//! Virtual temporaries are only live between definition and last use
//! and are never observable at exits. Dead definitions are replaced
//! with `Nop` tombstones, which lowering drops.

use super::OptScratch;
use crate::ir::{IrBlock, IrFreg, IrInst, IrReg};

/// Runs DCE in place.
pub fn run(block: &mut IrBlock, scratch: &mut OptScratch) {
    // Only virtuals need tracking: the ones some later op still reads.
    let OptScratch { used_int, used_fp, .. } = scratch;
    used_int.clear();
    used_fp.clear();
    for op in block.ops.iter_mut().rev() {
        let inst = op.inst;
        let live_int = |d| matches!(d, IrReg::Phys(_)) || used_int.contains(d.index());
        let live_fp = |d| matches!(d, IrFreg::Phys(_)) || used_fp.contains(d.index());
        let dead = !inst.has_side_effect()
            && match (inst.dst(), inst.fdst()) {
                (None, None) => false, // no destination: keep (Nop only)
                (a, b) => !a.is_some_and(live_int) && !b.is_some_and(live_fp),
            };
        if dead {
            op.inst = IrInst::Nop;
            continue;
        }
        if let Some(d) = inst.dst() {
            used_int.remove(d.index());
        }
        if let Some(d) = inst.fdst() {
            used_fp.remove(d.index());
        }
        for s in inst.srcs().into_iter().flatten() {
            used_int.insert(s.index());
        }
        for s in inst.fsrcs().into_iter().flatten() {
            used_fp.insert(s.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrOp;
    use darco_guest::Cond;
    use darco_host::{Exit, HAluOp, HReg, Width};

    fn phys(i: u8) -> IrReg {
        IrReg::Phys(HReg(i))
    }

    fn block(ops: Vec<IrInst>) -> IrBlock {
        IrBlock {
            ops: ops.into_iter().map(|inst| IrOp { inst, guest_idx: 0 }).collect(),
            stubs: vec![Exit::Halt],
            stub_guest_counts: vec![1],
            fallthrough: Exit::Halt,
            guest_len: 1,
        }
    }

    #[test]
    fn unused_virtual_removed() {
        let mut b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 1 }, // dead
            IrInst::AluI { op: HAluOp::Add, rd: phys(1), ra: phys(1), imm: 2 },
        ]);
        run(&mut b, &mut OptScratch::default());
        assert_eq!(b.ops[0].inst, IrInst::Nop);
        assert_ne!(b.ops[1].inst, IrInst::Nop, "pinned result stays");
    }

    #[test]
    fn used_virtual_kept() {
        let mut b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 1 },
            IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: IrReg::Virt(0) },
        ]);
        run(&mut b, &mut OptScratch::default());
        assert!(matches!(b.ops[0].inst, IrInst::Li { .. }));
    }

    #[test]
    fn chains_of_dead_code_collapse() {
        // t0 feeds t1 feeds nothing: both die (single backward pass
        // suffices in linear code).
        let mut b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 1 },
            IrInst::AluI { op: HAluOp::Add, rd: IrReg::Virt(1), ra: IrReg::Virt(0), imm: 1 },
        ]);
        run(&mut b, &mut OptScratch::default());
        assert_eq!(b.ops[0].inst, IrInst::Nop);
        assert_eq!(b.ops[1].inst, IrInst::Nop);
    }

    #[test]
    fn stores_and_branches_never_die() {
        let mut b = block(vec![
            IrInst::St { rs: phys(1), base: phys(2), off: 0, width: Width::W4 },
            IrInst::BrFlags { cond: Cond::E, flags: phys(9), stub: 0 },
        ]);
        run(&mut b, &mut OptScratch::default());
        assert!(b.ops.iter().all(|o| o.inst != IrInst::Nop));
    }

    #[test]
    fn virtual_live_only_into_side_exit_region() {
        // A virtual used by a branch-flag register? Virtuals feeding the
        // BrFlags source must stay.
        let mut b = block(vec![
            IrInst::FlagsArith {
                kind: darco_host::FlagsKind::Sub,
                rd: IrReg::Virt(0),
                ra: phys(1),
                rb: phys(2),
            },
            IrInst::BrFlags { cond: Cond::E, flags: IrReg::Virt(0), stub: 0 },
        ]);
        run(&mut b, &mut OptScratch::default());
        assert!(matches!(b.ops[0].inst, IrInst::FlagsArith { .. }));
    }

    #[test]
    fn dead_fp_removed_live_fp_kept() {
        use crate::ir::IrFreg;
        let mut b = block(vec![
            IrInst::FMov { fd: IrFreg::Virt(0), fa: IrFreg::Phys(darco_host::HFreg(1)) }, // dead
            IrInst::FMov { fd: IrFreg::Virt(1), fa: IrFreg::Phys(darco_host::HFreg(2)) },
            IrInst::FSt { fs: IrFreg::Virt(1), base: phys(2), off: 0 },
        ]);
        run(&mut b, &mut OptScratch::default());
        assert_eq!(b.ops[0].inst, IrInst::Nop);
        assert!(matches!(b.ops[1].inst, IrInst::FMov { .. }));
    }
}
