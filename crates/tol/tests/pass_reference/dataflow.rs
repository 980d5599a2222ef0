//! Dataflow analysis over linear IR blocks.
//!
//! Because translated blocks are straight-line code whose branches only
//! exit forward into stubs, every classical dataflow problem degenerates
//! to a single sweep. This module computes the facts the structural
//! checks consume: definition/use sites per register and live intervals
//! for virtual temporaries.

use darco_tol::ir::{IrBlock, IrFreg, IrInst, IrReg};
use std::collections::HashMap;

/// Definition and use sites of one register within a block.
#[derive(Debug, Clone, Default)]
pub struct DefUse {
    /// Body indices of instructions defining the register.
    pub defs: Vec<usize>,
    /// Body indices of instructions reading the register.
    pub uses: Vec<usize>,
}

impl DefUse {
    /// Live interval as `[first mention, last mention]`, the shape the
    /// linear-scan allocator works with.
    pub fn interval(&self) -> Option<(usize, usize)> {
        let first = self.defs.iter().chain(&self.uses).min()?;
        let last = self.defs.iter().chain(&self.uses).max()?;
        Some((*first, *last))
    }
}

/// Per-block dataflow facts over virtual and pinned registers.
#[derive(Debug, Clone, Default)]
pub struct Dataflow {
    /// Facts per integer register (virtual and pinned).
    pub int: HashMap<IrReg, DefUse>,
    /// Facts per FP register (virtual and pinned).
    pub fp: HashMap<IrFreg, DefUse>,
}

impl Dataflow {
    /// Runs the forward sweep over `block` (`Nop` tombstones are skipped:
    /// they neither define nor use anything).
    pub fn analyze(block: &IrBlock) -> Dataflow {
        let mut df = Dataflow::default();
        for (i, op) in block.ops.iter().enumerate() {
            if op.inst == IrInst::Nop {
                continue;
            }
            for s in op.inst.srcs().into_iter().flatten() {
                df.int.entry(s).or_default().uses.push(i);
            }
            for s in op.inst.fsrcs().into_iter().flatten() {
                df.fp.entry(s).or_default().uses.push(i);
            }
            if let Some(d) = op.inst.dst() {
                df.int.entry(d).or_default().defs.push(i);
            }
            if let Some(d) = op.inst.fdst() {
                df.fp.entry(d).or_default().defs.push(i);
            }
        }
        df
    }

    /// Whether virtual integer register `v` is live (has a later use) at
    /// any point strictly after body index `pos`.
    pub fn int_live_after(&self, v: u32, pos: usize) -> bool {
        self.int.get(&IrReg::Virt(v)).is_some_and(|du| du.uses.iter().any(|&u| u > pos))
    }

    /// FP counterpart of [`Dataflow::int_live_after`].
    pub fn fp_live_after(&self, v: u32, pos: usize) -> bool {
        self.fp.get(&IrFreg::Virt(v)).is_some_and(|du| du.uses.iter().any(|&u| u > pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block;
    use darco_host::{HAluOp, HReg};

    #[test]
    fn intervals_span_def_to_last_use() {
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(3), imm: 1 },
            IrInst::Nop,
            IrInst::AluI { op: HAluOp::Or, rd: IrReg::Phys(HReg(1)), ra: IrReg::Virt(3), imm: 0 },
        ]);
        let df = Dataflow::analyze(&b);
        assert_eq!(df.int[&IrReg::Virt(3)].interval(), Some((0, 2)));
        assert!(df.int_live_after(3, 0));
        assert!(!df.int_live_after(3, 2));
    }
}
