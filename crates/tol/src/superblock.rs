//! Superblock formation (SBM).
//!
//! When a translated basic block crosses the `BB/SBth` execution
//! threshold, the software layer builds a superblock starting there: it
//! follows the hottest profiled control-flow path across basic blocks —
//! inlining strongly-biased conditional edges and unconditional jumps —
//! until it meets an indirect transfer, a call/return, a block already in
//! the superblock (a loop back-edge), a weakly-biased branch, or the size
//! caps (paper Sec. II-A-1).

use crate::profile::Profiler;
use crate::translate::{decode_bb_into, RegionInst};
use darco_guest::{DecodeError, GuestMem, Inst};

/// Maximum number of basic blocks merged into one superblock.
pub(crate) const SB_MAX_BBS: u32 = 8;
/// Maximum guest instructions in one superblock.
pub(crate) const SB_MAX_INSTS: u32 = 128;
/// Minimum profiled edge bias (`taken / total`) required to keep growing
/// a superblock along an edge.
pub(crate) const SB_EDGE_BIAS: f64 = 0.6;

/// Forms the superblock region rooted at `entry` into a caller-provided
/// buffer (the engine's scratch arena reuses the allocation across
/// formations): the guest-instruction path, ready for
/// [`translate_region`](crate::translate::translate_region), is appended
/// to `region`, assumed empty on entry. Returns the number of basic
/// blocks the region spans.
///
/// # Errors
///
/// Propagates decode failures (the region root must already have been
/// translated once, so failures indicate guest self-modification). On
/// error the buffer holds partial contents.
pub(crate) fn form_region_into(
    mem: &GuestMem,
    entry: u32,
    prof: &Profiler,
    region: &mut Vec<RegionInst>,
) -> Result<u32, DecodeError> {
    let mut pc = entry;
    // The entries of the first `bbs` blocks; the cap bounds them.
    let mut entries = [0u32; SB_MAX_BBS as usize];
    let mut bbs = 0u32;

    loop {
        if entries[..bbs as usize].contains(&pc) {
            break; // closed a loop: stop before re-entering the superblock
        }
        entries[bbs as usize] = pc;
        let start = region.len();
        decode_bb_into(mem, pc, region)?;
        let bb_len = region.len() - start;
        bbs += 1;

        if bbs >= SB_MAX_BBS || region.len() as u32 >= SB_MAX_INSTS {
            break;
        }

        // Decide whether to grow through this block's terminal.
        let term_idx = region.len() - 1;
        let term = region[term_idx];
        // A basic block capped at MAX_BB_INSTS has no terminal transfer;
        // stop there.
        if bb_len > 0 && !term.inst.is_block_end() {
            break;
        }
        match term.inst {
            Inst::Jmp { target } => {
                pc = target;
            }
            Inst::Jcc { target, .. } => {
                let Some(edge) = prof.edge(pc) else { break };
                if edge.total() == 0 || edge.bias() < SB_EDGE_BIAS {
                    break;
                }
                let taken = edge.majority_taken();
                region[term_idx].follow_taken = taken;
                pc = if taken { target } else { term.next_pc() };
            }
            _ => break, // call/ret/indirect/halt terminate the superblock
        }
    }
    Ok(bbs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::asm::Asm;
    use darco_guest::{AluOp, Cond, Gpr};

    fn form_region(
        mem: &GuestMem,
        entry: u32,
        prof: &Profiler,
    ) -> Result<(Vec<RegionInst>, u32), DecodeError> {
        let mut region = Vec::new();
        let bbs = form_region_into(mem, entry, prof, &mut region)?;
        Ok((region, bbs))
    }

    /// Program: A: cmp;jcc->C | B: add;jmp->D | C: add;jmp->D | D: halt
    fn diamond() -> (GuestMem, u32, u32, u32) {
        let mut a = Asm::new(0x1000);
        let (lc, ld) = (a.fresh_label(), a.fresh_label());
        let entry = a.here();
        a.push(Inst::CmpRI { a: Gpr::Eax, imm: 0 });
        a.push_jcc(Cond::E, lc);
        let b_pc = a.here();
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ebx, imm: 1 });
        a.push_jmp(ld);
        a.bind(lc);
        let c_pc = a.here();
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ecx, imm: 1 });
        a.push_jmp(ld);
        a.bind(ld);
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        (mem, entry, b_pc, c_pc)
    }

    #[test]
    fn follows_biased_taken_edge() {
        let (mem, entry, _b, c_pc) = diamond();
        let mut prof = Profiler::new();
        for _ in 0..95 {
            prof.record_edge(entry, true);
        }
        for _ in 0..5 {
            prof.record_edge(entry, false);
        }
        let (region, bbs) = form_region(&mem, entry, &prof).unwrap();
        assert!(bbs >= 3, "A, C and D inlined, got {bbs}");
        assert!(region.iter().any(|r| r.pc == c_pc), "taken path inlined");
        assert!(region[1].follow_taken);
        assert!(matches!(region.last().unwrap().inst, Inst::Halt));
    }

    #[test]
    fn weak_bias_stops_growth() {
        let (mem, entry, _, _) = diamond();
        let mut prof = Profiler::new();
        for _ in 0..50 {
            prof.record_edge(entry, true);
            prof.record_edge(entry, false);
        }
        let (region, bbs) = form_region(&mem, entry, &prof).unwrap();
        assert_eq!(bbs, 1, "50/50 edge must not be followed");
        assert!(matches!(region.last().unwrap().inst, Inst::Jcc { .. }));
    }

    #[test]
    fn unprofiled_branch_stops_growth() {
        let (mem, entry, _, _) = diamond();
        let prof = Profiler::new();
        let (_, bbs) = form_region(&mem, entry, &prof).unwrap();
        assert_eq!(bbs, 1);
    }

    #[test]
    fn loops_close_without_unrolling() {
        // L: add ; cmp ; jcc->L (always taken)
        let mut a = Asm::new(0x2000);
        let top = a.fresh_label();
        a.bind(top);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push(Inst::CmpRI { a: Gpr::Eax, imm: 1000 });
        a.push_jcc(Cond::Ne, top);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);

        let mut prof = Profiler::new();
        for _ in 0..100 {
            prof.record_edge(0x2000, true);
        }
        let (region, bbs) = form_region(&mem, 0x2000, &prof).unwrap();
        assert_eq!(bbs, 1, "back-edge to self terminates formation");
        // The Jcc is followed-marked but last, so it is still the
        // region terminal.
        assert!(matches!(region.last().unwrap().inst, Inst::Jcc { .. }));
    }

    #[test]
    fn caps_respected() {
        // A chain of single-jump blocks longer than the cap.
        let mut a = Asm::new(0x3000);
        let mut labels = Vec::new();
        for _ in 0..20 {
            labels.push(a.fresh_label());
        }
        for i in 0..20 {
            a.bind(labels[i]);
            a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
            if i + 1 < 20 {
                a.push_jmp(labels[i + 1]);
            } else {
                a.push(Inst::Halt);
            }
        }
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        let (_, bbs) = form_region(&mem, 0x3000, &Profiler::new()).unwrap();
        assert_eq!(bbs, SB_MAX_BBS);
    }
}
