//! Software prefetching (optional pass).
//!
//! The paper's first Sec. III-E recommendation: "the data cache is the
//! main problem, making techniques such as software prefetching … of
//! major importance". This pass implements the simplest profitable form:
//! for every load in a superblock whose address is register-relative, it
//! inserts a next-line [`IrInst::Prefetch`] a few instructions *ahead* of
//! the load, so the line for the next loop iteration is (probably) being
//! fetched while this iteration computes.
//!
//! The pass is deliberately conservative: one prefetch per distinct
//! `(base, offset-line)` pair per block, inserted only when the block is
//! long enough for the prefetch distance to matter.

use crate::ir::{IrBlock, IrInst, IrOp, IrReg};

/// Cache line size assumed by the prefetch distance (Table I L1-D).
const LINE: i32 = 64;

/// Minimum block length worth prefetching.
const MIN_OPS: usize = 8;

/// Runs the pass in place; returns the number of prefetches inserted.
///
/// Block length and prefetch distance are measured in *live* (non-`Nop`)
/// instructions: earlier passes tombstone what they delete, and a pile
/// of tombstones must not talk a short block into prefetching or shrink
/// the real distance between a prefetch and its load.
pub fn run(block: &mut IrBlock) -> usize {
    if block.ops.iter().filter(|o| o.inst != IrInst::Nop).count() < MIN_OPS {
        return 0;
    }
    let mut seen: Vec<(IrReg, i32)> = Vec::new();
    let mut insertions: Vec<(usize, IrOp)> = Vec::new();
    for (i, op) in block.ops.iter().enumerate() {
        let (base, off) = match op.inst {
            IrInst::Ld { base, off, .. } => (base, off),
            IrInst::FLd { base, off, .. } => (base, off),
            _ => continue,
        };
        // One prefetch per (base, line) target (a block has a handful).
        let target = (base, off.wrapping_add(LINE) / LINE);
        if seen.contains(&target) {
            continue;
        }
        seen.push(target);
        // Insert a few live ops ahead of the load (clamped to the block
        // start); the scheduler may hoist it further. A virtual base
        // must not be read before its definition, so the prefetch never
        // hoists past it.
        let mut at = i;
        let mut dist = 0;
        while at > 0 && dist < 4 {
            at -= 1;
            if block.ops[at].inst != IrInst::Nop {
                dist += 1;
            }
        }
        if matches!(base, IrReg::Virt(_)) {
            if let Some(def) = block.ops[..i].iter().position(|o| o.inst.dst() == Some(base)) {
                at = at.max(def + 1);
            }
        }
        insertions.push((
            at,
            IrOp {
                inst: IrInst::Prefetch { base, off: off.wrapping_add(LINE) },
                guest_idx: op.guest_idx,
            },
        ));
    }
    // Insert back-to-front so earlier indices stay valid. The clamp can
    // put a prefetch below a later load's, so order by position first
    // (stably: prefetches sharing a slot keep their loads' order).
    insertions.sort_by_key(|&(at, _)| at);
    let n = insertions.len();
    for (at, op) in insertions.into_iter().rev() {
        block.ops.insert(at, op);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrReg;
    use darco_host::{Exit, HAluOp, HReg, Width};

    fn phys(i: u8) -> IrReg {
        IrReg::Phys(HReg(i))
    }

    fn load(base: u8, off: i32) -> IrInst {
        IrInst::Ld { rd: IrReg::Virt(0), base: phys(base), off, width: Width::W4 }
    }

    fn filler() -> IrInst {
        IrInst::AluI { op: HAluOp::Add, rd: phys(1), ra: phys(1), imm: 1 }
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
    fn inserts_next_line_prefetch_before_load() {
        let mut ops = vec![filler(); 8];
        ops.push(load(2, 0));
        let mut b = block(ops);
        let n = run(&mut b);
        assert_eq!(n, 1);
        let pf_pos = b
            .ops
            .iter()
            .position(|o| matches!(o.inst, IrInst::Prefetch { .. }))
            .expect("prefetch inserted");
        let ld_pos = b.ops.iter().position(|o| o.inst.is_load()).unwrap();
        assert!(pf_pos < ld_pos, "prefetch ahead of the load");
        match b.ops[pf_pos].inst {
            IrInst::Prefetch { base, off } => {
                assert_eq!(base, phys(2));
                assert_eq!(off, 64, "next line");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn deduplicates_same_line_targets() {
        let mut ops = vec![filler(); 8];
        ops.push(load(2, 0));
        ops.push(load(2, 4)); // same target line
        ops.push(load(2, 256)); // different line
        let mut b = block(ops);
        assert_eq!(run(&mut b), 2);
    }

    #[test]
    fn short_blocks_left_alone() {
        let mut b = block(vec![load(2, 0), filler()]);
        assert_eq!(run(&mut b), 0);
    }

    #[test]
    fn prefetch_never_hoists_past_virtual_base_definition() {
        // The base is a virtual defined one op before the load: the
        // prefetch must land after that definition, not 4 slots up.
        let mut ops = vec![filler(); 8];
        ops.push(IrInst::AluI { op: HAluOp::Add, rd: IrReg::Virt(7), ra: phys(2), imm: 8 });
        ops.push(IrInst::Ld { rd: phys(3), base: IrReg::Virt(7), off: 0, width: Width::W4 });
        let mut b = block(ops);
        assert_eq!(run(&mut b), 1);
        let def = b.ops.iter().position(|o| o.inst.dst() == Some(IrReg::Virt(7))).unwrap();
        let pf = b.ops.iter().position(|o| matches!(o.inst, IrInst::Prefetch { .. })).unwrap();
        assert!(def < pf, "prefetch reads the base after its definition");
    }

    #[test]
    fn a_later_loads_prefetch_does_not_push_a_clamped_one_above_its_base() {
        // The first load's prefetch is clamped below the definition of
        // t7; the second load's lands four ops up, above that point.
        let mut ops = vec![filler(); 8];
        ops.push(IrInst::AluI { op: HAluOp::Add, rd: IrReg::Virt(7), ra: phys(2), imm: 8 });
        ops.push(IrInst::Ld { rd: phys(3), base: IrReg::Virt(7), off: 0, width: Width::W4 });
        ops.push(load(4, 0));
        let mut b = block(ops);
        assert_eq!(run(&mut b), 2);
        let def = b.ops.iter().position(|o| o.inst.dst() == Some(IrReg::Virt(7))).unwrap();
        let pf =
            b.ops.iter().position(|o| o.inst == IrInst::Prefetch { base: IrReg::Virt(7), off: 64 });
        assert!(def < pf.unwrap(), "prefetch reads the base after its definition");
    }

    #[test]
    fn prefetch_survives_dce() {
        let mut ops = vec![filler(); 8];
        ops.push(load(2, 0));
        // Make the load's result used so it stays, then DCE.
        ops.push(IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: IrReg::Virt(0) });
        let mut b = block(ops);
        run(&mut b);
        crate::opt::dce::run(&mut b, &mut crate::opt::OptScratch::default());
        assert!(
            b.ops.iter().any(|o| matches!(o.inst, IrInst::Prefetch { .. })),
            "prefetches have a microarchitectural side effect"
        );
    }
}
