//! Retirement templates for translated code.
//!
//! Every executed host instruction of a translation retires as a
//! [`DynInst`], and almost everything in that record — pc, execution
//! class, component, destination and source registers, memory width and
//! direction, branch kind and static target — is knowable the moment the
//! block is installed in the code cache. Re-deriving it per retirement
//! (`class()`/`dst()`/`srcs()`/`fsrcs()` plus a match over [`HInst`])
//! puts five enum walks on the hottest loop in the system.
//! [`compile_block`] hoists all of that to install time and keeps, per
//! instruction, the record less its pc: a 16-byte [`DynOp`]. The pc of
//! instruction `i` is `host_base + 4 * i`, so the execution loop writes
//! it and copies the `DynOp` behind it into the event buffer
//! ([`DynOp::at`]), then patches, in the staged copy, the three things
//! only execution knows.
//!
//! * **A memory access's address.** The template's payload word holds
//!   the operand — base register and offset, unpacked by
//!   [`mem_operand`] — and is replaced by the effective address before
//!   the instruction runs, since it may overwrite its own base register.
//! * **A conditional branch's taken bit**, set when the instruction's
//!   outcome is a taken branch; the target is static and prebaked.
//! * **A direct exit's branch**, which the template leaves off. Its
//!   target is the exit's *current* chain link — the linked block's base
//!   when chained, the software-layer exit when not — and chaining
//!   mutates `Exit::Direct { link }` in place after install.

use crate::isa::{HInst, HReg};
use crate::stream::{fp_reg, int_reg, BranchKind, Component, DynInst, DynOp, NO_REG};

/// The payload word of a memory template: the base register above bit
/// 32, the offset below.
fn pack_operand(base: HReg, off: i32) -> u64 {
    u64::from(base.0) << 32 | u64::from(off as u32)
}

/// The `(base, offset)` operand a memory template's payload word holds:
/// the effective guest address is `reg(base).wrapping_add(offset)`.
#[inline]
pub fn mem_operand(word: u64) -> (HReg, u32) {
    (HReg((word >> 32) as u8), word as u32)
}

/// Compiles a translated block's host instructions into retirement
/// templates, given the block's base host address (which fixes the
/// branch targets). Index `i` of the result retires at host pc
/// `host_base + 4 * i`.
pub fn compile_block(insts: &[HInst], host_base: u64) -> Vec<DynOp> {
    insts
        .iter()
        .map(|inst| {
            // Built at pc 0; only the part the pc does not fix is kept.
            let mut d = DynInst::plain(0, inst.class(), Component::AppCode);
            match *inst {
                HInst::Prefetch { base, off } => d = d.with_prefetch(pack_operand(base, off)),
                HInst::Ld { base, off, width, .. } => {
                    d = d.with_mem(pack_operand(base, off), width.bytes(), false);
                }
                HInst::St { base, off, width, .. } => {
                    d = d.with_mem(pack_operand(base, off), width.bytes(), true);
                }
                HInst::FLd { base, off, .. } => d = d.with_mem(pack_operand(base, off), 8, false),
                HInst::FSt { base, off, .. } => d = d.with_mem(pack_operand(base, off), 8, true),
                HInst::Br { target, .. } | HInst::BrFlags { target, .. } => {
                    d = d.with_branch(BranchKind::CondDirect, host_base + 4 * target as u64, false);
                }
                HInst::Jump { target } => {
                    d = d.with_branch(
                        BranchKind::UncondDirect,
                        host_base + 4 * target as u64,
                        true,
                    );
                }
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
            *d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Exit, HAluOp, HFreg, Width};
    use crate::stream::ExecClass;

    #[test]
    fn static_fields_are_prebaked() {
        let insts = vec![
            HInst::Alu { op: HAluOp::Add, rd: HReg(3), ra: HReg(1), rb: HReg(2) },
            HInst::Ld { rd: HReg(4), base: HReg(5), off: -8, width: Width::W4 },
            HInst::FArith { op: darco_guest::FpOp::Mul, fd: HFreg(1), fa: HFreg(2), fb: HFreg(3) },
            HInst::Exit(Exit::Direct { guest_target: 0x200, link: None }),
        ];
        let t = compile_block(&insts, 0x1000);
        assert_eq!(t.len(), 4);

        assert_eq!(t[0].class, ExecClass::SimpleInt);
        assert_eq!(t[0].dst, int_reg(3));
        assert_eq!(t[0].srcs, [int_reg(1), int_reg(2)]);
        assert_eq!((t[0].mem(), t[0].branch()), (None, None));

        assert_eq!(t[1].dst, int_reg(4));
        let m = t[1].mem().expect("load carries a mem event");
        assert_eq!((m.size, m.is_store), (4, false));
        assert_eq!(mem_operand(m.addr), (HReg(5), -8i32 as u32), "the operand, not an address");

        assert_eq!(t[2].class, ExecClass::ComplexFp);
        assert_eq!(t[2].dst, fp_reg(1));
        assert_eq!(t[2].srcs, [fp_reg(2), fp_reg(3)]);

        assert_eq!(t[3].class, ExecClass::Jump);
        assert!(t[3].branch().is_none(), "exit target resolved at exec time");
    }

    /// A translation stores each host instruction twice: once to execute
    /// (16 bytes of `HInst`) and once to retire (these 16 bytes).
    #[test]
    fn a_stored_template_is_16_bytes() {
        assert_eq!(std::mem::size_of::<DynOp>(), 16);
    }

    #[test]
    fn branch_targets_are_block_relative() {
        let insts = vec![
            HInst::Br { cond: crate::isa::HCond::Eq, ra: HReg(1), rb: HReg(2), target: 3 },
            HInst::Jump { target: 0 },
        ];
        let t = compile_block(&insts, 0x4000);
        assert_eq!(t[0].branch(), Some((BranchKind::CondDirect, 0x4000 + 12, false)));
        assert_eq!(t[1].branch(), Some((BranchKind::UncondDirect, 0x4000, true)));
    }
}
