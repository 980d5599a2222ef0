//! Precomputed retirement templates for translated code.
//!
//! Every executed host instruction of a translation retires as a
//! [`DynInst`], and almost everything in that record — pc, execution
//! class, component, destination and source registers, memory width and
//! direction, branch kind and static target — is knowable the moment the
//! block is installed in the code cache. Re-deriving it per retirement
//! (`class()`/`dst()`/`srcs()`/`fsrcs()` plus a match over [`HInst`])
//! puts five enum walks on the hottest loop in the system. A
//! [`RetireTemplate`] hoists all of that to install time: the execution
//! loop copies the prebuilt record and patches only the fields
//! [`RetireDyn`] says are dynamic.
//!
//! The one field that can change *after* install is a direct exit's
//! chain link (chaining mutates `Exit::Direct { link }` in place), which
//! is why [`RetireDyn::DirectExit`] leaves the branch to be resolved at
//! execution time instead of baking a target: the linked block's base
//! when chained, the software-layer exit when not.

use crate::isa::{Exit, HInst, HReg};
use crate::stream::{fp_reg, int_reg, BranchKind, Component, DynInst, NO_REG};

/// The dynamic residue of one host instruction's retirement record:
/// what the execution loop still has to fill in per retirement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetireDyn {
    /// Nothing — the prebuilt [`DynInst`] is retired verbatim.
    Fixed,
    /// Memory operand: the effective address (`reg(base) + off`,
    /// translated to host space) is patched into the prebuilt
    /// [`MemEvent`](crate::stream::MemEvent) before execution, since the
    /// instruction itself may overwrite `base`.
    Mem {
        /// Base register of the effective address.
        base: HReg,
        /// Byte offset added to the base.
        off: i32,
    },
    /// Conditional direct branch: only the taken bit is patched (the
    /// target is static and prebaked).
    CondBranch,
    /// Direct exit: the branch target depends on the exit's *current*
    /// chain link (which chaining may have patched since install), so the
    /// whole branch record is attached at execution time.
    DirectExit,
}

/// A prebuilt retirement record plus its dynamic residue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetireTemplate {
    /// The [`DynInst`] as far as it is statically known; dynamic fields
    /// hold placeholders until patched per [`RetireDyn`].
    pub inst: DynInst,
    /// Which fields the execution loop must patch.
    pub dyn_kind: RetireDyn,
}

/// Compiles a translated block's host instructions into retirement
/// templates, given the block's base host address. Index `i` of the
/// result corresponds to host pc `host_base + 4 * i`.
pub fn compile_block(insts: &[HInst], host_base: u64) -> Vec<RetireTemplate> {
    insts
        .iter()
        .enumerate()
        .map(|(idx, inst)| {
            let pc = host_base + 4 * idx as u64;
            let mut d = DynInst::plain(pc, inst.class(), Component::AppCode);
            let mut dyn_kind = RetireDyn::Fixed;
            match *inst {
                HInst::Prefetch { base, off } => {
                    d = d.with_prefetch(0);
                    dyn_kind = RetireDyn::Mem { base, off };
                }
                HInst::Ld { base, off, width, .. } => {
                    d = d.with_mem(0, width.bytes(), false);
                    dyn_kind = RetireDyn::Mem { base, off };
                }
                HInst::St { base, off, width, .. } => {
                    d = d.with_mem(0, width.bytes(), true);
                    dyn_kind = RetireDyn::Mem { base, off };
                }
                HInst::FLd { base, off, .. } => {
                    d = d.with_mem(0, 8, false);
                    dyn_kind = RetireDyn::Mem { base, off };
                }
                HInst::FSt { base, off, .. } => {
                    d = d.with_mem(0, 8, true);
                    dyn_kind = RetireDyn::Mem { base, off };
                }
                HInst::Br { target, .. } | HInst::BrFlags { target, .. } => {
                    d = d.with_branch(BranchKind::CondDirect, host_base + 4 * target as u64, false);
                    dyn_kind = RetireDyn::CondBranch;
                }
                HInst::Jump { target } => {
                    d = d.with_branch(
                        BranchKind::UncondDirect,
                        host_base + 4 * target as u64,
                        true,
                    );
                }
                HInst::Exit(Exit::Direct { .. }) => dyn_kind = RetireDyn::DirectExit,
                _ => {}
            }
            if let Some(r) = inst.dst() {
                d.dst = int_reg(r.0);
            } else if let Some(f) = inst.fdst() {
                d.dst = fp_reg(f.0);
            }
            let mut srcs = [NO_REG; 2];
            let mut si = 0;
            for s in inst.srcs().into_iter().flatten() {
                if si < 2 {
                    srcs[si] = int_reg(s.0);
                    si += 1;
                }
            }
            for s in inst.fsrcs().into_iter().flatten() {
                if si < 2 {
                    srcs[si] = fp_reg(s.0);
                    si += 1;
                }
            }
            d.srcs = srcs;
            RetireTemplate { inst: d, dyn_kind }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{HAluOp, HFreg, Width};
    use crate::stream::ExecClass;

    #[test]
    fn static_fields_are_prebaked() {
        let insts = vec![
            HInst::Alu { op: HAluOp::Add, rd: HReg(3), ra: HReg(1), rb: HReg(2) },
            HInst::Ld { rd: HReg(4), base: HReg(5), off: 8, width: Width::W4 },
            HInst::FArith { op: darco_guest::FpOp::Mul, fd: HFreg(1), fa: HFreg(2), fb: HFreg(3) },
            HInst::Exit(Exit::Direct { guest_target: 0x200, link: None }),
        ];
        let t = compile_block(&insts, 0x1000);
        assert_eq!(t.len(), 4);

        assert_eq!(t[0].inst.pc, 0x1000);
        assert_eq!(t[0].inst.class, ExecClass::SimpleInt);
        assert_eq!(t[0].inst.dst, int_reg(3));
        assert_eq!(t[0].inst.srcs, [int_reg(1), int_reg(2)]);
        assert_eq!(t[0].dyn_kind, RetireDyn::Fixed);

        assert_eq!(t[1].inst.pc, 0x1004);
        assert_eq!(t[1].inst.dst, int_reg(4));
        let m = t[1].inst.mem.expect("load carries a mem event");
        assert_eq!((m.size, m.is_store), (4, false));
        assert_eq!(t[1].dyn_kind, RetireDyn::Mem { base: HReg(5), off: 8 });

        assert_eq!(t[2].inst.class, ExecClass::ComplexFp);
        assert_eq!(t[2].inst.dst, fp_reg(1));
        assert_eq!(t[2].inst.srcs, [fp_reg(2), fp_reg(3)]);

        assert_eq!(t[3].dyn_kind, RetireDyn::DirectExit);
        assert!(t[3].inst.branch.is_none(), "exit target resolved at exec time");
    }

    #[test]
    fn branch_targets_are_block_relative() {
        let insts = vec![
            HInst::Br { cond: crate::isa::HCond::Eq, ra: HReg(1), rb: HReg(2), target: 3 },
            HInst::Jump { target: 0 },
        ];
        let t = compile_block(&insts, 0x4000);
        assert_eq!(t[0].inst.branch, Some((BranchKind::CondDirect, 0x4000 + 12, false)));
        assert_eq!(t[0].dyn_kind, RetireDyn::CondBranch);
        assert_eq!(t[1].inst.branch, Some((BranchKind::UncondDirect, 0x4000, true)));
        assert_eq!(t[1].dyn_kind, RetireDyn::Fixed);
    }
}
