//! IR-level dead flag elimination (analysis-driven flag elision).
//!
//! Guest flag semantics are the dominant translation overhead the paper
//! measures (Sec. III-C): most flag definitions are overwritten before
//! any consumer. With this pass enabled the translator materializes a
//! `FlagsArith` for *every* flag-writing guest instruction and the
//! decision of which ones to keep moves here, driven by the backward
//! [`liveness`] analysis: a flags definition is deleted when no use,
//! side exit, or block end can observe it.
//!
//! After the kill, two local cleanups restore the exact instruction
//! shapes the intrinsic elision would have produced, so the final host
//! streams are byte-identical with the pass on or off:
//!
//! * an immediate staged through `li t, imm` solely for the killed
//!   `FlagsArith` folds back into the consuming ALU op (`AluI`), and
//! * pure ops defining virtual temporaries nobody reads any more are
//!   swept backward into `Nop`s.
//!
//! [`liveness`]: crate::analysis::liveness

use super::OptScratch;
use crate::analysis::liveness;
use crate::analysis::regset::RegSet;
use crate::ir::{IrBlock, IrInst, IrReg};

/// Runs dead-flag elimination over `block`; returns how many flag
/// definitions were deleted.
pub fn run(block: &mut IrBlock, scratch: &mut OptScratch) -> u32 {
    // A region with no materialized flag definition has nothing this
    // pass could ever delete — skip the backward liveness sweep
    // outright (common for pure-FP and address-arithmetic regions).
    if !block.ops.iter().any(|o| matches!(o.inst, IrInst::FlagsArith { .. })) {
        return 0;
    }
    let OptScratch { live, dead, uses, used_int, .. } = scratch;
    liveness::dead_flag_defs(block, live, dead);
    if dead.is_empty() {
        return 0;
    }
    for &i in dead.iter() {
        block.ops[i].inst = IrInst::Nop;
    }
    // Reader counts of every integer register after the kill. A refold
    // below removes the one read of the virtual it folds and touches no
    // other register's count, so one tally serves every candidate.
    uses.clear();
    for s in block.ops.iter().flat_map(|o| o.inst.srcs().into_iter().flatten()) {
        uses.insert(s.index(), uses.get(s.index()).unwrap_or(0) + 1);
    }
    for &i in dead.iter() {
        fold_staged_imm(block, i, |r| uses.get(r.index()).unwrap_or(0));
    }
    sweep_dead_virts(block, used_int);
    dead.len() as u32
}

/// Folds `li t, imm ; [killed flags] ; alu rd, ra, t` back into a
/// single `AluI` when the staged immediate has no other reader — the
/// shape the translator emits directly when it knows the flags are
/// dead.
fn fold_staged_imm(block: &mut IrBlock, i: usize, uses: impl Fn(IrReg) -> u32) {
    if i == 0 || i + 1 >= block.ops.len() {
        return;
    }
    let IrInst::Li { rd: li_rd @ IrReg::Virt(_), imm: li_imm } = block.ops[i - 1].inst else {
        return;
    };
    let IrInst::Alu { op, rd, ra, rb } = block.ops[i + 1].inst else {
        return;
    };
    if rb != li_rd || ra == li_rd || uses(li_rd) != 1 {
        return;
    }
    // `Li` truncates its immediate to 32 bits on write, so the round
    // trip through `u32` is value-preserving.
    block.ops[i + 1].inst = IrInst::AluI { op, rd, ra, imm: li_imm as u32 as i32 };
    block.ops[i - 1].inst = IrInst::Nop;
}

/// Backward sweep deleting pure ops that define a virtual temporary no
/// later op reads. Virtuals are block-local and invisible to side
/// exits, so an unread definition is unobservable.
fn sweep_dead_virts(block: &mut IrBlock, used: &mut RegSet) {
    used.clear();
    for op in block.ops.iter_mut().rev() {
        let inst = op.inst;
        if inst == IrInst::Nop {
            continue;
        }
        let dead_virt_def = !inst.has_side_effect()
            && inst.fdst().is_none()
            && matches!(inst.dst(), Some(d @ IrReg::Virt(_)) if !used.contains(d.index()));
        if dead_virt_def {
            op.inst = IrInst::Nop;
            continue;
        }
        for s in inst.srcs().into_iter().flatten() {
            used.insert(s.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TolConfig;
    use crate::ir::{IrOp, FLAGS_REG};
    use crate::opt::tests::run_passes;
    use crate::opt::{OptError, Pass};
    use crate::verify::PassKind;
    use darco_guest::Cond;
    use darco_host::{Exit, FlagsKind, HAluOp, HReg};

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
    fn overwritten_flags_are_killed_and_imm_refolds() {
        // Eager lowering of `add r1, 5` (flags dead, overwritten below).
        let mut b = block(
            vec![
                IrInst::Li { rd: IrReg::Virt(0), imm: 5 },
                IrInst::FlagsArith {
                    kind: FlagsKind::Add,
                    rd: FLAGS,
                    ra: phys(1),
                    rb: IrReg::Virt(0),
                },
                IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: IrReg::Virt(0) },
                IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: phys(1), rb: phys(2) },
            ],
            0,
        );
        assert_eq!(run(&mut b, &mut OptScratch::default()), 1);
        let live: Vec<_> = b.ops.iter().map(|o| o.inst).filter(|i| *i != IrInst::Nop).collect();
        assert_eq!(
            live,
            vec![
                IrInst::AluI { op: HAluOp::Add, rd: phys(1), ra: phys(1), imm: 5 },
                IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: phys(1), rb: phys(2) },
            ],
            "converges to the intrinsically elided shape"
        );
    }

    #[test]
    fn staged_imm_with_another_reader_is_not_refolded() {
        // The same shape, but a store also reads the staged immediate:
        // folding it away would leave the store reading nothing.
        let mut b = block(
            vec![
                IrInst::Li { rd: IrReg::Virt(0), imm: 5 },
                IrInst::FlagsArith {
                    kind: FlagsKind::Add,
                    rd: FLAGS,
                    ra: phys(1),
                    rb: IrReg::Virt(0),
                },
                IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: IrReg::Virt(0) },
                IrInst::St {
                    rs: IrReg::Virt(0),
                    base: phys(2),
                    off: 0,
                    width: darco_host::Width::W4,
                },
                IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: phys(1), rb: phys(2) },
            ],
            0,
        );
        let before = b.clone();
        assert_eq!(run(&mut b, &mut OptScratch::default()), 1);
        assert_eq!(b.ops[1].inst, IrInst::Nop, "the dead flags def goes");
        for i in [0, 2, 3, 4] {
            assert_eq!(b.ops[i], before.ops[i], "op {i} stays as it was");
        }
    }

    #[test]
    fn flags_observed_by_branch_survive() {
        let mut b = block(
            vec![
                IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: phys(1), rb: phys(2) },
                IrInst::BrFlags { cond: Cond::E, flags: FLAGS, stub: 0 },
                IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: phys(3), rb: phys(4) },
            ],
            1,
        );
        assert_eq!(
            run(&mut b, &mut OptScratch::default()),
            0,
            "both defs observable (branch, then block end)"
        );
    }

    #[test]
    fn dead_test_sequence_vanishes_entirely() {
        // Eager lowering of `test r1, r2` whose flags are overwritten.
        let mut b = block(
            vec![
                IrInst::Alu { op: HAluOp::And, rd: IrReg::Virt(0), ra: phys(1), rb: phys(2) },
                IrInst::FlagsArith {
                    kind: FlagsKind::Logic,
                    rd: FLAGS,
                    ra: IrReg::Virt(0),
                    rb: phys(0),
                },
                IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: phys(1), rb: phys(2) },
            ],
            0,
        );
        assert_eq!(run(&mut b, &mut OptScratch::default()), 1);
        let live = b.ops.iter().filter(|o| o.inst != IrInst::Nop).count();
        assert_eq!(live, 1, "the And feeding only the dead flags is swept too");
    }

    /// Mutation test: a deadflags that deletes a *live* flag definition
    /// (one a branch observes) must be rejected by the verifier.
    #[test]
    fn broken_deadflags_killing_live_flags_is_caught() {
        let broken = Pass {
            name: "deadflags",
            kind: PassKind::DeadFlags,
            run: |b, _, _, _| {
                if let Some(op) =
                    b.ops.iter_mut().find(|o| matches!(o.inst, IrInst::FlagsArith { .. }))
                {
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
            Err(OptError::Miscompile(f)) => assert_eq!(f.pass, "deadflags"),
            other => panic!("verifier missed the live-flag kill: {other:?}"),
        }
    }
}
