//! Reusable dataflow / abstract-interpretation framework for the
//! linear IR (DESIGN.md §13).
//!
//! Translated blocks are straight-line bodies whose branches only exit
//! forward into stubs, so every dataflow problem over them is solved by
//! a sweep per direction; the generic driver in [`solve`] still
//! iterates to a fixpoint so analyses stay correct if richer control
//! flow ever appears. Two analyses are provided:
//!
//! * [`liveness`] — backward flag- and register-liveness. Exit points
//!   (side exits and the block end) observe the whole pinned guest
//!   state, so a pinned definition is dead only when it is re-defined
//!   before the next use, branch, or the body end. This is what powers
//!   the `deadflags` pass (IR-level dead-flag elision).
//! * [`knownbits`] — a forward known-bits + unsigned-range abstract
//!   domain over [`IrReg`] values, tracking `FlagsArith` kinds
//!   precisely enough to statically decide `BrFlags` conditions. This
//!   powers the `rangesimp` pass (branch folding and masked-ALU
//!   strength reduction).
//!
//! The analyses are themselves checkable: [`oracle`] replays a block
//! concretely through the reference host semantics and asserts every
//! claimed fact, and the structural verifier recomputes both analyses
//! independently when checking the consuming passes.
//!
//! [`IrReg`]: crate::ir::IrReg

pub mod knownbits;
pub mod liveness;
pub mod oracle;
pub mod regset;

use crate::ir::{IrBlock, IrOp};

/// Sweep direction of an [`Analysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the block entry toward the exit.
    Forward,
    /// Facts flow from the exits toward the entry.
    Backward,
}

/// A join-semilattice of dataflow facts.
pub trait Lattice: Clone + PartialEq {
    /// Joins `other` into `self` (least upper bound).
    fn join(&mut self, other: &Self);
}

/// One dataflow problem over a linear [`IrBlock`].
pub trait Analysis {
    /// The fact attached to every program point.
    type Fact: Lattice;

    /// Which way facts propagate.
    const DIRECTION: Direction;

    /// The fact holding at the boundary: block entry for forward
    /// analyses, every exit point for backward analyses.
    fn boundary(&self, block: &IrBlock) -> Self::Fact;

    /// Applies `op`'s effect to `fact`. For a forward analysis `fact`
    /// is the state before the op and becomes the state after; for a
    /// backward analysis it is the state after and becomes the state
    /// before.
    fn transfer(&self, op: &IrOp, idx: usize, fact: &mut Self::Fact, block: &IrBlock);
}

/// Generic fixpoint driver: returns one fact per program point,
/// `facts[i]` holding immediately before `block.ops[i]` and
/// `facts[len]` after the last op. Linear blocks converge after one
/// sweep (plus one confirming pass); the driver iterates regardless,
/// so it remains a true fixpoint computation.
pub fn solve<A: Analysis>(a: &A, block: &IrBlock) -> Vec<A::Fact> {
    let n = block.ops.len();
    let boundary = a.boundary(block);
    let mut facts: Vec<A::Fact> = vec![boundary.clone(); n + 1];
    loop {
        let mut changed = false;
        match A::DIRECTION {
            Direction::Forward => {
                for i in 0..n {
                    let mut f = facts[i].clone();
                    a.transfer(&block.ops[i], i, &mut f, block);
                    if f != facts[i + 1] {
                        facts[i + 1] = f;
                        changed = true;
                    }
                }
            }
            Direction::Backward => {
                if facts[n] != boundary {
                    facts[n] = boundary.clone();
                    changed = true;
                }
                for i in (0..n).rev() {
                    let mut f = facts[i + 1].clone();
                    a.transfer(&block.ops[i], i, &mut f, block);
                    if f != facts[i] {
                        facts[i] = f;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return facts;
        }
    }
}

/// Per-region analysis dump for `darco analyze`: decodes the basic
/// block at `entry`, translates it with eager flag materialization,
/// and renders each op with its known-bits/range fact, flag-liveness
/// verdict, and statically decided branches, followed by the pass
/// opportunity counts.
///
/// # Errors
///
/// Propagates the guest [`DecodeError`] if `entry` does not decode.
///
/// [`DecodeError`]: darco_guest::DecodeError
pub fn analyze_region_text(
    mem: &darco_guest::GuestMem,
    entry: u32,
) -> Result<String, darco_guest::DecodeError> {
    use crate::ir::{IrInst, IrReg, FLAGS_REG};
    use std::fmt::Write as _;

    let region = crate::translate::decode_bb(mem, entry)?;
    let block = crate::translate::translate_region_with(&region, true);
    let vals = knownbits::facts(&block);
    let live = liveness::facts(&block);
    let mut out = String::new();
    let mut dead_flags = 0usize;
    let mut decided = 0usize;
    let _ = writeln!(
        out,
        "region @ {entry:#x}: {} guest insts, {} IR ops",
        region.len(),
        block.ops.len()
    );
    for (i, op) in block.ops.iter().enumerate() {
        let mut note = String::new();
        if let Some(d) = op.inst.dst() {
            if let Some(v) = vals[i + 1].get(d) {
                let _ = write!(note, " {d}={v}");
            }
            if matches!(op.inst, IrInst::FlagsArith { .. }) && !live[i + 1].contains_int(d) {
                dead_flags += 1;
                note.push_str("  DEAD (deadflags kills)");
            }
        }
        if let IrInst::BrFlags { cond, flags, .. } = op.inst {
            let f = vals[i].get(flags).unwrap_or_else(knownbits::AbsVal::top);
            match knownbits::decide(cond, &f) {
                Some(true) => {
                    decided += 1;
                    note.push_str("  ALWAYS taken (rangesimp folds tail)");
                }
                Some(false) => {
                    decided += 1;
                    note.push_str("  NEVER taken (rangesimp deletes)");
                }
                None => note.push_str("  undecided"),
            }
        }
        let _ = writeln!(out, "{i:4}: {}   ; g{}{}", op.inst, op.guest_idx, note);
    }
    let flags_live_out = live[block.ops.len()].contains_int(IrReg::Phys(FLAGS_REG));
    let _ = writeln!(
        out,
        "opportunities: {dead_flags} dead flag def(s), {decided} decided branch(es); flags live-out: {flags_live_out}"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrInst, IrOp, IrReg};
    use darco_host::{Exit, HAluOp, HReg};

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
    fn forward_driver_reaches_fixpoint_in_one_sweep() {
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 7 },
            IrInst::AluI { op: HAluOp::Add, rd: IrReg::Phys(HReg(1)), ra: IrReg::Virt(0), imm: 1 },
        ]);
        let facts = knownbits::facts(&b);
        assert_eq!(facts.len(), 3);
        assert_eq!(facts[1].get(IrReg::Virt(0)).and_then(|v| v.as_const()), Some(7));
        assert_eq!(facts[2].get(IrReg::Phys(HReg(1))).and_then(|v| v.as_const()), Some(8));
    }
}
