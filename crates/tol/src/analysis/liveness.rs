//! Backward flag- and register-liveness over the linear IR.
//!
//! The boundary condition encodes the architectural contract of
//! translated code: every exit point — each `BrFlags` side exit and
//! the fall-through at the body end — observes the entire pinned guest
//! state (GPRs, the flags word, the exit-target register, FPRs). A
//! pinned definition is therefore dead only when another definition
//! overwrites it before any use, side exit, or the body end; virtual
//! temporaries are dead when no later op reads them.

use super::regset::RegSet;
use super::{Analysis, Direction, Lattice};
use crate::ir::{IrBlock, IrInst, IrOp, IrReg, EXIT_TARGET_REG, FSCRATCH_BASE};

/// The set of registers live at a program point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LiveSet {
    /// Live integer registers (pinned and virtual), by
    /// [`IrReg::index`].
    pub int: RegSet,
    /// Live FP registers (pinned and virtual), by
    /// [`IrFreg::index`](crate::ir::IrFreg::index).
    pub fp: RegSet,
}

/// Integer half of the pinned architectural state every exit observes:
/// r1..=r10 (guest GPRs, the flags word, the exit-target register).
const PINNED_INT: u64 = (1 << (EXIT_TARGET_REG.0 + 1)) - 2;
/// FP half of the pinned state: f0..f7.
const PINNED_FP: u64 = (1 << FSCRATCH_BASE) - 1;

impl LiveSet {
    /// Whether integer register `r` is live.
    pub fn contains_int(&self, r: IrReg) -> bool {
        self.int.contains(r.index())
    }

    /// Makes the whole pinned state live (what an exit point observes).
    fn observe_pinned(&mut self) {
        self.int.insert_phys(PINNED_INT);
        self.fp.insert_phys(PINNED_FP);
    }
}

impl Lattice for LiveSet {
    fn join(&mut self, other: &LiveSet) {
        self.int.union_with(&other.int);
        self.fp.union_with(&other.fp);
    }
}

/// Applies `inst` backward: `fact` is the set live after the
/// instruction and becomes the set live before it.
fn transfer(inst: &IrInst, fact: &mut LiveSet) {
    if *inst == IrInst::Nop {
        return;
    }
    if inst.is_branch() {
        // A side exit may leave the block: everything pinned is
        // observable there, in addition to whatever the fall-through
        // path needs.
        fact.observe_pinned();
    }
    if let Some(d) = inst.dst() {
        fact.int.remove(d.index());
    }
    if let Some(d) = inst.fdst() {
        fact.fp.remove(d.index());
    }
    for s in inst.srcs().into_iter().flatten() {
        fact.int.insert(s.index());
    }
    for s in inst.fsrcs().into_iter().flatten() {
        fact.fp.insert(s.index());
    }
}

/// The backward liveness analysis.
pub struct Liveness;

impl Analysis for Liveness {
    type Fact = LiveSet;
    const DIRECTION: Direction = Direction::Backward;

    fn boundary(&self, _block: &IrBlock) -> LiveSet {
        LiveSet { int: RegSet::of_phys(PINNED_INT), fp: RegSet::of_phys(PINNED_FP) }
    }

    fn transfer(&self, op: &IrOp, _idx: usize, fact: &mut LiveSet, _block: &IrBlock) {
        transfer(&op.inst, fact);
    }
}

/// Liveness facts per program point: `facts[i]` holds before op `i`,
/// so the set live *after* op `i` is `facts[i + 1]`.
pub fn facts(block: &IrBlock) -> Vec<LiveSet> {
    super::solve(&Liveness, block)
}

/// Collects into `dead` the indices of `FlagsArith` ops whose
/// definition is dead: no later op reads it before it is overwritten,
/// and control cannot leave the block in between. These are exactly the
/// materializations the translator's intrinsic elision would have
/// skipped.
///
/// One backward sweep over the single running fact `live` — the body is
/// linear, so the set live after op `i` depends on nothing but the set
/// live after op `i + 1`. The result equals filtering on [`facts`],
/// without materializing a set per program point.
pub fn dead_flag_defs(block: &IrBlock, live: &mut LiveSet, dead: &mut Vec<usize>) {
    live.int.clear();
    live.fp.clear();
    live.observe_pinned();
    dead.clear();
    for (i, op) in block.ops.iter().enumerate().rev() {
        if let IrInst::FlagsArith { rd, .. } = op.inst {
            if !live.contains_int(rd) {
                dead.push(i);
            }
        }
        transfer(&op.inst, live);
    }
    dead.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrOp, FLAGS_REG};
    use darco_guest::Cond;
    use darco_host::HReg;
    use darco_host::{Exit, FlagsKind, HAluOp};

    const FLAGS: IrReg = IrReg::Phys(FLAGS_REG);

    fn block(ops: Vec<IrInst>, stubs: usize) -> IrBlock {
        IrBlock {
            ops: ops.into_iter().map(|inst| IrOp { inst, guest_idx: 0 }).collect(),
            stubs: vec![Exit::Halt; stubs],
            stub_guest_counts: vec![1; stubs],
            fallthrough: Exit::Halt,
            guest_len: 1,
        }
    }

    fn dead_flag_defs(block: &IrBlock) -> Vec<usize> {
        let mut dead = Vec::new();
        super::dead_flag_defs(block, &mut LiveSet::default(), &mut dead);
        dead
    }

    fn fa(ra: IrReg) -> IrInst {
        IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra, rb: IrReg::Phys(HReg(2)) }
    }

    #[test]
    fn flag_def_overwritten_before_any_use_is_dead() {
        let b = block(
            vec![
                fa(IrReg::Phys(HReg(1))), // dead: overwritten below, no exit between
                fa(IrReg::Phys(HReg(3))), // live-out at the body end
            ],
            0,
        );
        assert_eq!(dead_flag_defs(&b), vec![0]);
    }

    #[test]
    fn branch_between_def_and_redef_keeps_flags_live() {
        let b = block(
            vec![
                fa(IrReg::Phys(HReg(1))),
                IrInst::BrFlags { cond: Cond::E, flags: FLAGS, stub: 0 },
                fa(IrReg::Phys(HReg(3))),
            ],
            1,
        );
        assert_eq!(dead_flag_defs(&b), Vec::<usize>::new());
    }

    #[test]
    fn dead_virtual_flag_def_is_reported() {
        let b = block(vec![fa(IrReg::Phys(HReg(1)))], 0);
        // Redirect the def to a virtual nobody reads.
        let mut b = b;
        if let IrInst::FlagsArith { rd, .. } = &mut b.ops[0].inst {
            *rd = IrReg::Virt(0);
        }
        assert_eq!(dead_flag_defs(&b), vec![0]);
    }

    #[test]
    fn plain_defs_kill_and_uses_gen() {
        let b = block(
            vec![
                IrInst::Li { rd: IrReg::Virt(0), imm: 1 },
                IrInst::AluI {
                    op: HAluOp::Add,
                    rd: IrReg::Phys(HReg(1)),
                    ra: IrReg::Virt(0),
                    imm: 0,
                },
            ],
            0,
        );
        let live = facts(&b);
        assert!(live[1].contains_int(IrReg::Virt(0)), "live between def and use");
        assert!(!live[0].contains_int(IrReg::Virt(0)), "dead before its def");
        assert!(live[0].contains_int(IrReg::Phys(HReg(2))), "pinned live-in");
    }
}
