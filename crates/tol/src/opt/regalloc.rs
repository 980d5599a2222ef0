//! Linear-scan register allocation for virtual temporaries.
//!
//! Virtuals are single-assignment and live ranges in linear code are
//! simple `[def, last_use]` intervals, so a classic linear scan over the
//! scratch half of the application register file (integer `r11`–`r31`,
//! FP `f8`–`f15`) suffices. There is no spilling: spills would have to
//! go through guest memory (which translated code must not touch beyond
//! the guest's own accesses), so exhaustion is reported and the caller
//! falls back to unoptimized lowering.

use super::OptScratch;
use crate::ir::{IrBlock, IrFreg, IrReg, FSCRATCH_BASE, FSCRATCH_END, SCRATCH_BASE, SCRATCH_END};
use crate::opt::OptError;
use crate::regset::RegVec;
use darco_host::{HFreg, HReg};

/// One virtual's live interval, `[first mention, last mention]`.
#[derive(Debug, Clone, Copy)]
struct Interval {
    virt: u32,
    start: usize,
    end: usize,
}

/// The allocator's reusable buffers (one register file at a time).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Intervals in order of first mention — in linear code, order of
    /// increasing start.
    ivs: Vec<Interval>,
    /// Position of each virtual's interval in `ivs`.
    slot: RegVec<u32>,
    free: Vec<u8>,
    active: Vec<(usize, u8)>, // (end, register number)
}

/// Linear scan over the virtuals of one register file: `mentions` are
/// their `(position, virtual)` reads and writes in program order,
/// `pool` the registers to hand out (low end first), `assign` receives
/// each decision.
fn allocate(
    mentions: impl Iterator<Item = (usize, u32)>,
    pool: std::ops::Range<u8>,
    s: &mut Scratch,
    mut assign: impl FnMut(u32, u8),
) -> Result<(), OptError> {
    s.ivs.clear();
    s.slot.clear();
    for (pos, virt) in mentions {
        match s.slot.get(virt as usize) {
            Some(k) => s.ivs[k as usize].end = pos,
            None => {
                s.slot.insert(virt as usize, s.ivs.len() as u32);
                s.ivs.push(Interval { virt, start: pos, end: pos });
            }
        }
    }
    s.free.clear();
    s.free.extend(pool.rev());
    s.active.clear();
    for iv in &s.ivs {
        // Expire finished intervals.
        s.active.retain(|&(end, p)| {
            if end < iv.start {
                s.free.push(p);
                false
            } else {
                true
            }
        });
        let p = s.free.pop().ok_or(OptError::OutOfRegisters)?;
        s.active.push((iv.end, p));
        assign(iv.virt, p);
    }
    Ok(())
}

/// Allocates every virtual register in `block` to a scratch physical,
/// leaving the assignment in `scratch.map`.
///
/// # Errors
///
/// [`OptError::OutOfRegisters`] when live virtuals exceed the scratch
/// file at some point.
pub fn run(block: &IrBlock, scratch: &mut OptScratch) -> Result<(), OptError> {
    let OptScratch { regalloc, map, .. } = scratch;
    map.clear();
    let ops = || block.ops.iter().enumerate();
    let int = ops().flat_map(|(pos, op)| {
        let regs = op.inst.srcs().into_iter().flatten().chain(op.inst.dst());
        regs.filter_map(move |r| if let IrReg::Virt(v) = r { Some((pos, v)) } else { None })
    });
    allocate(int, SCRATCH_BASE..SCRATCH_END, regalloc, |v, p| map.int.insert(v as usize, HReg(p)))?;
    let fp = ops().flat_map(|(pos, op)| {
        let regs = op.inst.fsrcs().into_iter().flatten().chain(op.inst.fdst());
        regs.filter_map(move |r| if let IrFreg::Virt(v) = r { Some((pos, v)) } else { None })
    });
    allocate(fp, FSCRATCH_BASE..FSCRATCH_END, regalloc, |v, p| map.fp.insert(v as usize, HFreg(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrInst, IrOp, RegMap};
    use darco_host::{Exit, HAluOp};

    fn run(block: &IrBlock) -> Result<RegMap, OptError> {
        let mut scratch = OptScratch::default();
        super::run(block, &mut scratch)?;
        Ok(scratch.map)
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
    fn disjoint_lifetimes_share_a_register() {
        // t0 dies before t1 is born: same physical register.
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 1 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Phys(HReg(1)),
                rb: IrReg::Virt(0),
            },
            IrInst::Li { rd: IrReg::Virt(1), imm: 2 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(2)),
                ra: IrReg::Phys(HReg(2)),
                rb: IrReg::Virt(1),
            },
        ]);
        let m = run(&b).unwrap();
        assert_eq!(m.int.get(0), m.int.get(1));
    }

    #[test]
    fn overlapping_lifetimes_get_distinct_registers() {
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 1 },
            IrInst::Li { rd: IrReg::Virt(1), imm: 2 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Virt(0),
                rb: IrReg::Virt(1),
            },
        ]);
        let m = run(&b).unwrap();
        assert_ne!(m.int.get(0), m.int.get(1));
    }

    #[test]
    fn allocations_stay_in_scratch_range() {
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 1 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Phys(HReg(1)),
                rb: IrReg::Virt(0),
            },
        ]);
        let m = run(&b).unwrap();
        let r = m.int.get(0).unwrap();
        assert!((SCRATCH_BASE..SCRATCH_END).contains(&r.0));
        assert!(!r.is_tol(), "allocation must stay in the application half");
    }

    #[test]
    fn exhaustion_reports_out_of_registers() {
        // 22 simultaneously-live virtuals exceed the 21-register pool.
        let n = (SCRATCH_END - SCRATCH_BASE) as u32 + 1;
        let mut ops: Vec<IrInst> =
            (0..n).map(|v| IrInst::Li { rd: IrReg::Virt(v), imm: v as i32 }).collect();
        // One instruction using them all pairwise keeps them live to the end.
        for v in 0..n {
            ops.push(IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Virt(v),
                rb: IrReg::Virt((v + 1) % n),
            });
        }
        let b = block(ops);
        assert!(matches!(run(&b), Err(OptError::OutOfRegisters)));
    }

    #[test]
    fn fp_virtuals_allocated_separately() {
        use crate::ir::IrFreg;
        let b = block(vec![
            IrInst::FMov { fd: IrFreg::Virt(0), fa: IrFreg::Phys(HFreg(0)) },
            IrInst::FMov { fd: IrFreg::Phys(HFreg(1)), fa: IrFreg::Virt(0) },
        ]);
        let m = run(&b).unwrap();
        let f = m.fp.get(0).unwrap();
        assert!((FSCRATCH_BASE..FSCRATCH_END).contains(&f.0));
    }
}
