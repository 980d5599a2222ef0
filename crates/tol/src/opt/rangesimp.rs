//! Range/known-bits simplification: branch folding and masked-ALU
//! strength reduction driven by the [`knownbits`] abstract domain.
//!
//! Three rewrites, each justified by a fact the forward analysis proved
//! from in-block computation alone (the entry state is unconstrained,
//! so every fact holds for *all* inputs — which is also why the
//! translation validator's randomized differential fallback discharges
//! these rewrites):
//!
//! * a `BrFlags` whose condition the flags fact decides **never** taken
//!   is deleted,
//! * after a branch decided **always** taken the rest of the body is
//!   unreachable and is tombstoned (the branch itself stays: it performs
//!   the exit),
//! * an ALU op whose result fact is a single constant becomes `li`, and
//!   an `and` masking bits already known clear degenerates to a copy
//!   (`or rd, ra, 0`).
//!
//! [`knownbits`]: crate::analysis::knownbits

use super::OptScratch;
use crate::analysis::knownbits::{self, AbsVal};
use crate::ir::{IrBlock, IrInst};
use darco_host::HAluOp;

/// Statistics of one run: what was folded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeSimpStats {
    /// Branches deleted (never taken) or made terminal (always taken).
    pub branches_folded: u32,
    /// ALU ops rewritten to `li` or reduced to copies.
    pub alu_simplified: u32,
}

/// Runs range simplification over `block`.
///
/// One forward sweep over a single running fact: before op `i` is
/// looked at, `vals` is the state [`knownbits::facts`] calls
/// `facts[i]`; the transfer function is applied to the *original* op,
/// after which `vals` is `facts[i + 1]`, and only then is the op
/// rewritten — so every decision rests on the facts of the block as it
/// came in, the ones the verifier recomputes.
pub fn run(block: &mut IrBlock, scratch: &mut OptScratch) -> RangeSimpStats {
    let vals = &mut scratch.vals;
    vals.clear();
    let mut stats = RangeSimpStats::default();
    for i in 0..block.ops.len() {
        let inst = block.ops[i].inst;
        match inst {
            IrInst::BrFlags { cond, flags, .. } => {
                match knownbits::decide(cond, &vals.get_or_top(flags)) {
                    Some(false) => {
                        block.ops[i].inst = IrInst::Nop;
                        stats.branches_folded += 1;
                    }
                    Some(true) => {
                        // Control always leaves through this side exit:
                        // the rest of the body is unreachable.
                        for op in &mut block.ops[i + 1..] {
                            op.inst = IrInst::Nop;
                        }
                        stats.branches_folded += 1;
                        break;
                    }
                    None => {}
                }
            }
            IrInst::Alu { rd, .. } => {
                knownbits::transfer(&inst, vals);
                if let Some(c) = vals.get(rd).and_then(|v| v.as_const()) {
                    block.ops[i].inst = IrInst::Li { rd, imm: c as i64 };
                    stats.alu_simplified += 1;
                }
            }
            IrInst::AluI { op, rd, ra, imm } => {
                let a: AbsVal = vals.get_or_top(ra);
                knownbits::transfer(&inst, vals);
                if let Some(c) = vals.get(rd).and_then(|v| v.as_const()) {
                    block.ops[i].inst = IrInst::Li { rd, imm: c as i64 };
                    stats.alu_simplified += 1;
                } else if op == HAluOp::And && !a.zeros & !(imm as u32) == 0 {
                    // Every maskable bit is already known clear: the
                    // mask is an identity.
                    block.ops[i].inst = IrInst::AluI { op: HAluOp::Or, rd, ra, imm: 0 };
                    stats.alu_simplified += 1;
                }
            }
            _ => knownbits::transfer(&inst, vals),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TolConfig;
    use crate::ir::{IrOp, IrReg, FLAGS_REG};
    use crate::opt::tests::run_passes;
    use crate::opt::{OptError, Pass};
    use crate::verify::PassKind;
    use darco_guest::Cond;
    use darco_host::{Exit, FlagsKind, HReg, Width};

    const FLAGS: IrReg = IrReg::Phys(FLAGS_REG);

    fn phys(i: u8) -> IrReg {
        IrReg::Phys(HReg(i))
    }

    fn block(ops: Vec<IrInst>, stubs: usize) -> IrBlock {
        IrBlock {
            ops: ops.into_iter().map(|inst| IrOp { inst, guest_idx: 0 }).collect(),
            stubs: vec![Exit::Halt; stubs],
            stub_guest_counts: vec![1; stubs],
            fallthrough: Exit::Halt,
            guest_len: 1,
        }
    }

    #[test]
    fn never_taken_branch_is_deleted() {
        // flags = sub(r2 & 0xFF, 0x100): always below, so Ae never holds.
        let mut b = block(
            vec![
                IrInst::AluI { op: HAluOp::And, rd: IrReg::Virt(0), ra: phys(2), imm: 0xFF },
                IrInst::Li { rd: IrReg::Virt(1), imm: 0x100 },
                IrInst::FlagsArith {
                    kind: FlagsKind::Sub,
                    rd: FLAGS,
                    ra: IrReg::Virt(0),
                    rb: IrReg::Virt(1),
                },
                IrInst::BrFlags { cond: Cond::Ae, flags: FLAGS, stub: 0 },
            ],
            1,
        );
        let stats = run(&mut b, &mut OptScratch::default());
        assert_eq!(stats.branches_folded, 1);
        assert_eq!(b.ops[3].inst, IrInst::Nop);
    }

    #[test]
    fn always_taken_branch_tombstones_the_tail() {
        let mut b = block(
            vec![
                IrInst::AluI { op: HAluOp::And, rd: IrReg::Virt(0), ra: phys(2), imm: 0xFF },
                IrInst::Li { rd: IrReg::Virt(1), imm: 0x100 },
                IrInst::FlagsArith {
                    kind: FlagsKind::Sub,
                    rd: FLAGS,
                    ra: IrReg::Virt(0),
                    rb: IrReg::Virt(1),
                },
                IrInst::BrFlags { cond: Cond::B, flags: FLAGS, stub: 0 },
                IrInst::St { rs: phys(1), base: phys(2), off: 0, width: Width::W4 },
            ],
            1,
        );
        let stats = run(&mut b, &mut OptScratch::default());
        assert_eq!(stats.branches_folded, 1);
        assert!(matches!(b.ops[3].inst, IrInst::BrFlags { .. }), "the exit itself stays");
        assert_eq!(b.ops[4].inst, IrInst::Nop, "unreachable store removed");
    }

    #[test]
    fn redundant_mask_becomes_copy_and_const_result_becomes_li() {
        let mut b = block(
            vec![
                IrInst::Ld { rd: phys(1), base: phys(2), off: 0, width: Width::W1 },
                // Masking a byte-ranged value with 0xFF is an identity.
                IrInst::AluI { op: HAluOp::And, rd: phys(3), ra: phys(1), imm: 0xFF },
                // A byte shifted right by 8 is always zero.
                IrInst::AluI { op: HAluOp::Shr, rd: phys(4), ra: phys(1), imm: 8 },
            ],
            0,
        );
        let stats = run(&mut b, &mut OptScratch::default());
        assert_eq!(stats.alu_simplified, 2);
        assert_eq!(
            b.ops[1].inst,
            IrInst::AluI { op: HAluOp::Or, rd: phys(3), ra: phys(1), imm: 0 }
        );
        assert_eq!(b.ops[2].inst, IrInst::Li { rd: phys(4), imm: 0 });
    }

    /// Mutation test: a rangesimp that folds an *undecided* branch must
    /// be rejected by the verifier.
    #[test]
    fn broken_rangesimp_folding_undecided_branch_is_caught() {
        let broken = Pass {
            name: "rangesimp",
            kind: PassKind::BranchFold,
            run: |b, _, _, _| {
                if let Some(op) = b.ops.iter_mut().find(|o| o.inst.is_branch()) {
                    op.inst = IrInst::Nop;
                }
            },
        };
        let b = block(
            vec![
                IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: phys(1), rb: phys(2) },
                IrInst::BrFlags { cond: Cond::E, flags: FLAGS, stub: 0 },
            ],
            1,
        );
        let cfg = TolConfig { verify: true, ..TolConfig::default() };
        match run_passes(b, &cfg, &[broken]) {
            Err(OptError::Miscompile(f)) => assert_eq!(f.pass, "rangesimp"),
            other => panic!("verifier missed the undecided fold: {other:?}"),
        }
    }
}
