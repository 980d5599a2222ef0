//! List scheduling for the 2-issue in-order back-end.
//!
//! Reorders instructions inside *windows* delimited by side exits
//! (`BrFlags`), since moving code across an exit would require
//! compensation code (noted as future work in the paper's Sec. III-E).
//! Within a window, a greedy list scheduler fills two issue slots per
//! virtual cycle, prioritizing by critical-path height, respecting:
//!
//! * register RAW/WAR/WAW dependences (physical and virtual),
//! * memory order: stores are ordered with all other memory operations;
//!   loads may reorder among themselves (the software layer has no
//!   disambiguation — listed in Sec. III-E as an opportunity).

use super::OptScratch;
use crate::ir::{IrBlock, IrInst, IrOp};
use crate::regset::RegVec;

/// Approximate result latency used for priority (matches Table I).
fn latency(inst: &IrInst) -> u32 {
    use darco_host::Inst::*;
    match inst {
        Ld { .. } | FLd { .. } => 3, // optimistic L1 hit + use delay
        Mul { .. } | Div { .. } | FlagsArith { .. } => 2,
        FArith { op, .. } => match op {
            darco_guest::FpOp::Add | darco_guest::FpOp::Sub => 2,
            _ => 5,
        },
        _ => 1,
    }
}

/// The scheduler's reusable buffers. A window is at most a few hundred
/// ops, so everything is a flat vector indexed by window position or
/// register index; nothing is allocated per op.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    window: Vec<IrOp>,
    out: Vec<IrOp>,
    /// `succ[succ_of[i].0..succ_of[i].1]` are the ops that must follow
    /// op `i`, without duplicates.
    succ: Vec<u32>,
    succ_of: Vec<(u32, u32)>,
    preds: Vec<u32>,
    height: Vec<u32>,
    ready: Vec<u32>,
    /// Per register: `(next definition, earliest read before it)`,
    /// the read being the head of a list threaded through `reads`;
    /// [`NIL`] for none.
    int: RegVec<(u32, u32)>,
    fp: RegVec<(u32, u32)>,
    /// `(reading op, next later read of the same register)` cells.
    reads: Vec<(u32, u32)>,
    loads_before_store: Vec<u32>,
}

/// "No op": no later definition, the end of a read list, an empty
/// issue slot.
const NIL: u32 = u32::MAX;

/// Runs the scheduler in place.
pub fn run(block: &mut IrBlock, scratch: &mut OptScratch) {
    let s = &mut scratch.sched;
    s.out.clear();
    for op in block.ops.drain(..) {
        if op.inst == IrInst::Nop {
            continue; // drop tombstones while we are re-laying out
        }
        if op.inst.is_branch() {
            schedule_window(s);
            s.out.push(op); // the barrier keeps its position
        } else {
            s.window.push(op);
        }
    }
    schedule_window(s);
    // The block takes the scheduled buffer; its old one serves the
    // next call.
    std::mem::swap(&mut block.ops, &mut s.out);
}

/// Makes `b` a successor of the op being visited, `a`, whose successors
/// are `succ[first..]`, unless it is none, `a` itself, or known.
fn add_succ(succ: &mut Vec<u32>, preds: &mut [u32], first: usize, a: u32, b: u32) {
    if b != NIL && b != a && !succ[first..].contains(&b) {
        succ.push(b);
        preds[b as usize] += 1;
    }
}

/// List-schedules `s.window` onto the end of `s.out` and empties it.
fn schedule_window(s: &mut Scratch) {
    let n = s.window.len();
    if n <= 2 {
        s.out.append(&mut s.window);
        return;
    }
    // The dependence DAG and the critical-path heights, in one backward
    // sweep: every successor of an op comes later in the window, so it
    // has been visited, and has its height, when the op is reached.
    s.succ.clear();
    s.succ_of.clear();
    s.succ_of.resize(n, (0, 0));
    s.preds.clear();
    s.preds.resize(n, 0);
    s.height.clear();
    s.height.resize(n, 0);
    s.reads.clear();
    s.int.clear();
    s.fp.clear();
    s.loads_before_store.clear();
    let mut next_store = NIL;
    for (i, op) in s.window.iter().enumerate().rev() {
        let (i, first) = (i as u32, s.succ.len());
        // A read of `r` precedes the next write of `r` (WAR); a write
        // precedes it too (WAW), and every read up to it (RAW).
        let mut touch = |track: &mut RegVec<(u32, u32)>, r: usize, is_def: bool| {
            let (next_def, mut read) = track.get(r).unwrap_or((NIL, NIL));
            add_succ(&mut s.succ, &mut s.preds, first, i, next_def);
            if is_def {
                while read != NIL {
                    let (reader, later) = s.reads[read as usize];
                    add_succ(&mut s.succ, &mut s.preds, first, i, reader);
                    read = later;
                }
                track.insert(r, (i, NIL));
            } else {
                track.insert(r, (next_def, s.reads.len() as u32));
                s.reads.push((i, read));
            }
        };
        op.inst.srcs().into_iter().flatten().for_each(|r| touch(&mut s.int, r.index(), false));
        op.inst.fsrcs().into_iter().flatten().for_each(|r| touch(&mut s.fp, r.index(), false));
        op.inst.dst().into_iter().for_each(|r| touch(&mut s.int, r.index(), true));
        op.inst.fdst().into_iter().for_each(|r| touch(&mut s.fp, r.index(), true));
        // Memory order: a store is ordered with every other memory
        // operation; loads (and prefetches, which order like loads)
        // only with stores.
        if op.inst.is_load() || matches!(op.inst, IrInst::Prefetch { .. }) {
            add_succ(&mut s.succ, &mut s.preds, first, i, next_store);
            s.loads_before_store.push(i);
        } else if op.inst.is_store() {
            add_succ(&mut s.succ, &mut s.preds, first, i, next_store);
            for l in s.loads_before_store.drain(..) {
                add_succ(&mut s.succ, &mut s.preds, first, i, l);
            }
            next_store = i;
        }
        s.succ_of[i as usize] = (first as u32, s.succ.len() as u32);
        let below = s.succ[first..].iter().map(|&t| s.height[t as usize]).max().unwrap_or(0);
        s.height[i as usize] = below + latency(&op.inst);
    }
    let (succ, succ_of) = (&s.succ, &s.succ_of);
    let succs = |i: u32| &succ[succ_of[i as usize].0 as usize..succ_of[i as usize].1 as usize];

    // Greedy list schedule, two slots per cycle: each cycle issues the
    // (up to) two ready ops first by (height desc, index asc); ops they
    // release become ready for the next cycle.
    s.ready.clear();
    s.ready.extend((0..n as u32).filter(|&i| s.preds[i as usize] == 0));
    let mut emitted = 0usize;
    while emitted < n {
        let mut picked = [NIL; 2];
        for p in &mut picked {
            let best = (0..s.ready.len())
                .min_by_key(|&k| (std::cmp::Reverse(s.height[s.ready[k] as usize]), s.ready[k]));
            if let Some(k) = best {
                *p = s.ready.swap_remove(k);
            }
        }
        debug_assert!(picked[0] != NIL, "cyclic dependence graph");
        for i in picked.into_iter().filter(|&i| i != NIL) {
            s.out.push(s.window[i as usize]);
            emitted += 1;
            for &t in succs(i) {
                s.preds[t as usize] -= 1;
                if s.preds[t as usize] == 0 {
                    s.ready.push(t);
                }
            }
        }
    }
    s.window.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrBlock, IrReg};
    use darco_host::{Exit, HAluOp, HReg, Width};
    use std::collections::HashMap;

    fn run(block: &mut IrBlock) {
        super::run(block, &mut OptScratch::default());
    }

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

    fn positions(b: &IrBlock) -> HashMap<IrInst, usize> {
        b.ops.iter().enumerate().map(|(i, o)| (o.inst, i)).collect()
    }

    #[test]
    fn independent_work_fills_load_shadow() {
        // ld t0 ; use t0 ; three independent adds — the adds should move
        // between the load and its user.
        let ld = IrInst::Ld { rd: IrReg::Virt(0), base: phys(2), off: 0, width: Width::W4 };
        let use_it = IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: IrReg::Virt(0) };
        let indep =
            |i: u8| IrInst::AluI { op: HAluOp::Add, rd: phys(3 + i), ra: phys(3 + i), imm: 1 };
        let mut b = block(vec![ld, use_it, indep(0), indep(1), indep(2)]);
        run(&mut b);
        let pos = positions(&b);
        assert!(pos[&ld] < pos[&use_it]);
        assert!(
            pos[&use_it] > pos[&indep(0)] || pos[&use_it] > pos[&indep(1)],
            "independent work should fill the load-use gap: {:?}",
            b.ops
        );
    }

    #[test]
    fn raw_dependences_preserved() {
        let a = IrInst::Li { rd: IrReg::Virt(0), imm: 1 };
        let b_i = IrInst::Alu {
            op: HAluOp::Add,
            rd: IrReg::Virt(1),
            ra: IrReg::Virt(0),
            rb: IrReg::Virt(0),
        };
        let c = IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: IrReg::Virt(1) };
        let mut blk = block(vec![a, b_i, c]);
        run(&mut blk);
        let pos = positions(&blk);
        assert!(pos[&a] < pos[&b_i] && pos[&b_i] < pos[&c]);
    }

    #[test]
    fn stores_keep_order_loads_may_pass_loads() {
        let st1 = IrInst::St { rs: phys(1), base: phys(2), off: 0, width: Width::W4 };
        let st2 = IrInst::St { rs: phys(1), base: phys(2), off: 4, width: Width::W4 };
        let mut blk = block(vec![st1, st2]);
        run(&mut blk);
        let pos = positions(&blk);
        assert!(pos[&st1] < pos[&st2]);
    }

    #[test]
    fn load_never_crosses_prior_store() {
        let st = IrInst::St { rs: phys(1), base: phys(2), off: 0, width: Width::W4 };
        let ld = IrInst::Ld { rd: IrReg::Virt(0), base: phys(3), off: 0, width: Width::W4 };
        let sink = IrInst::Alu { op: HAluOp::Add, rd: phys(4), ra: phys(4), rb: IrReg::Virt(0) };
        let mut blk = block(vec![st, ld, sink]);
        run(&mut blk);
        let pos = positions(&blk);
        assert!(pos[&st] < pos[&ld], "no memory disambiguation modeled");
    }

    #[test]
    fn branches_are_barriers() {
        use darco_guest::Cond;
        let before = IrInst::AluI { op: HAluOp::Add, rd: phys(1), ra: phys(1), imm: 1 };
        let br = IrInst::BrFlags { cond: Cond::E, flags: phys(9), target: 0 };
        let after = IrInst::AluI { op: HAluOp::Add, rd: phys(2), ra: phys(2), imm: 1 };
        let mut blk = block(vec![before, br, after]);
        run(&mut blk);
        let pos = positions(&blk);
        assert!(pos[&before] < pos[&br]);
        assert!(pos[&br] < pos[&after]);
    }

    #[test]
    fn war_and_waw_preserved() {
        // use r5 then redefine r5: order must hold.
        let use_r5 = IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(5), rb: phys(1) };
        let def_r5 = IrInst::Li { rd: phys(5), imm: 9 };
        let def_r5_again = IrInst::Li { rd: phys(5), imm: 10 };
        let mut blk = block(vec![use_r5, def_r5, def_r5_again]);
        run(&mut blk);
        let pos = positions(&blk);
        assert!(pos[&use_r5] < pos[&def_r5]);
        assert!(pos[&def_r5] < pos[&def_r5_again]);
    }
}
