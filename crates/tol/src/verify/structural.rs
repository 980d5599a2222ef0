//! Structural invariant checks run after every optimization pass.
//!
//! Each pass has a characteristic *shape* of legal transformation
//! (rewriting operands in place, tombstoning dead code, inserting
//! prefetches, permuting within dependence order), and each shape implies
//! cheap syntactic invariants that catch whole classes of pass bugs
//! without reasoning about values. Value-level equivalence is the
//! translation validator's job ([`super::tv`]).

use super::dataflow::Dataflow;
use super::{fail, PassKind, VerifyFailure};
use crate::ir::{
    IrBlock, IrFreg, IrInst, IrReg, RegMap, FSCRATCH_BASE, FSCRATCH_END, SCRATCH_BASE, SCRATCH_END,
};
use std::collections::{HashMap, HashSet};

/// Checks block well-formedness: branches target existing stubs, stub
/// metadata is parallel, virtual registers are single-assignment, and no
/// virtual is read before (or without) its definition.
pub fn check_wellformed(pass: &'static str, block: &IrBlock) -> Result<(), Box<VerifyFailure>> {
    if block.stub_guest_counts.len() != block.stubs.len() {
        return fail(
            pass,
            "stub metadata parallel",
            format!(
                "{} stubs but {} stub_guest_counts",
                block.stubs.len(),
                block.stub_guest_counts.len()
            ),
            block,
            block,
        );
    }
    let mut defined_int: HashSet<u32> = HashSet::new();
    let mut defined_fp: HashSet<u32> = HashSet::new();
    for (i, op) in block.ops.iter().enumerate() {
        if op.inst == IrInst::Nop {
            continue;
        }
        if let IrInst::BrFlags { stub, .. } = op.inst {
            if stub as usize >= block.stubs.len() {
                return fail(
                    pass,
                    "branch targets an existing stub",
                    format!("op {i} branches to stub{stub} of {}", block.stubs.len()),
                    block,
                    block,
                );
            }
        }
        for s in op.inst.srcs().into_iter().flatten() {
            if let IrReg::Virt(v) = s {
                if !defined_int.contains(&v) {
                    return fail(
                        pass,
                        "no use of an undefined register",
                        format!("op {i} `{}` reads t{v} before any definition", op.inst),
                        block,
                        block,
                    );
                }
            }
        }
        for s in op.inst.fsrcs().into_iter().flatten() {
            if let IrFreg::Virt(v) = s {
                if !defined_fp.contains(&v) {
                    return fail(
                        pass,
                        "no use of an undefined register",
                        format!("op {i} `{}` reads ft{v} before any definition", op.inst),
                        block,
                        block,
                    );
                }
            }
        }
        if let Some(IrReg::Virt(v)) = op.inst.dst() {
            if !defined_int.insert(v) {
                return fail(
                    pass,
                    "virtual registers are single-assignment",
                    format!("op {i} `{}` redefines t{v}", op.inst),
                    block,
                    block,
                );
            }
        }
        if let Some(IrFreg::Virt(v)) = op.inst.fdst() {
            if !defined_fp.insert(v) {
                return fail(
                    pass,
                    "virtual registers are single-assignment",
                    format!("op {i} `{}` redefines ft{v}", op.inst),
                    block,
                    block,
                );
            }
        }
    }
    Ok(())
}

/// Invariants shared by every pass: the exit structure of the block is
/// never touched by body transformations.
fn check_exits(
    pass: &'static str,
    pre: &IrBlock,
    post: &IrBlock,
) -> Result<(), Box<VerifyFailure>> {
    if pre.stubs != post.stubs
        || pre.stub_guest_counts != post.stub_guest_counts
        || pre.fallthrough != post.fallthrough
        || pre.guest_len != post.guest_len
    {
        return fail(
            pass,
            "exit structure unchanged",
            "stubs/fallthrough/guest_len differ".into(),
            pre,
            post,
        );
    }
    Ok(())
}

/// Dispatches the per-shape check for `kind`.
pub fn check_transform(
    pass: &'static str,
    kind: PassKind,
    pre: &IrBlock,
    post: &IrBlock,
) -> Result<(), Box<VerifyFailure>> {
    check_exits(pass, pre, post)?;
    check_wellformed(pass, post)?;
    match kind {
        PassKind::Rewrite => check_rewrite(pass, pre, post),
        PassKind::Dce => check_dce(pass, pre, post),
        PassKind::Insert => check_insert(pass, pre, post),
        PassKind::Schedule => check_schedule(pass, pre, post),
    }
}

/// A rewriting pass (constant propagation, CSE) may change how a value is
/// computed but not *which* architectural slot it lands in, and it may
/// never create, delete or reorder instructions or weaken side effects.
fn check_rewrite(
    pass: &'static str,
    pre: &IrBlock,
    post: &IrBlock,
) -> Result<(), Box<VerifyFailure>> {
    if pre.ops.len() != post.ops.len() {
        return fail(
            pass,
            "rewrite keeps instruction count",
            format!("{} ops became {}", pre.ops.len(), post.ops.len()),
            pre,
            post,
        );
    }
    for (i, (a, b)) in pre.ops.iter().zip(&post.ops).enumerate() {
        if a.guest_idx != b.guest_idx {
            return fail(
                pass,
                "guest provenance preserved",
                format!("op {i} guest_idx {} became {}", a.guest_idx, b.guest_idx),
                pre,
                post,
            );
        }
        if a.inst.dst() != b.inst.dst() || a.inst.fdst() != b.inst.fdst() {
            return fail(
                pass,
                "rewrite preserves destinations",
                format!("op {i}: `{}` became `{}`", a.inst, b.inst),
                pre,
                post,
            );
        }
        match (a.inst, b.inst) {
            (IrInst::St { width: wa, .. }, IrInst::St { width: wb, .. }) if wa == wb => {}
            (IrInst::St { .. }, _) => {
                return fail(
                    pass,
                    "side-effecting instructions never removed",
                    format!("op {i}: store `{}` became `{}`", a.inst, b.inst),
                    pre,
                    post,
                );
            }
            (IrInst::FSt { .. }, IrInst::FSt { .. }) => {}
            (IrInst::FSt { .. }, _) => {
                return fail(
                    pass,
                    "side-effecting instructions never removed",
                    format!("op {i}: FP store `{}` became `{}`", a.inst, b.inst),
                    pre,
                    post,
                );
            }
            (IrInst::Prefetch { .. }, IrInst::Prefetch { .. }) => {}
            (IrInst::Prefetch { .. }, _) => {
                return fail(
                    pass,
                    "side-effecting instructions never removed",
                    format!("op {i}: prefetch `{}` became `{}`", a.inst, b.inst),
                    pre,
                    post,
                );
            }
            (
                IrInst::BrFlags { cond: ca, stub: sa, .. },
                IrInst::BrFlags { cond: cb, stub: sb, .. },
            ) if ca == cb && sa == sb => {}
            (IrInst::BrFlags { .. }, _) => {
                return fail(
                    pass,
                    "branches stay terminal and intact",
                    format!("op {i}: branch `{}` became `{}`", a.inst, b.inst),
                    pre,
                    post,
                );
            }
            (IrInst::Nop, IrInst::Nop) => {}
            (IrInst::Nop, _) => {
                return fail(
                    pass,
                    "rewrite keeps instruction count",
                    format!("op {i}: Nop resurrected as `{}`", b.inst),
                    pre,
                    post,
                );
            }
            _ => {}
        }
    }
    Ok(())
}

/// DCE may only replace an instruction with a `Nop` tombstone, and only
/// when it has no side effect, writes a *virtual* (never a pinned guest
/// register), and that virtual is dead downstream.
fn check_dce(pass: &'static str, pre: &IrBlock, post: &IrBlock) -> Result<(), Box<VerifyFailure>> {
    if pre.ops.len() != post.ops.len() {
        return fail(
            pass,
            "DCE only tombstones",
            format!("{} ops became {}", pre.ops.len(), post.ops.len()),
            pre,
            post,
        );
    }
    let post_df = Dataflow::analyze(post);
    for (i, (a, b)) in pre.ops.iter().zip(&post.ops).enumerate() {
        if a == b {
            continue;
        }
        if b.inst != IrInst::Nop {
            return fail(
                pass,
                "DCE only tombstones",
                format!("op {i}: `{}` became `{}`", a.inst, b.inst),
                pre,
                post,
            );
        }
        if a.inst.has_side_effect() {
            return fail(
                pass,
                "side-effecting instructions never removed",
                format!("op {i}: removed `{}`", a.inst),
                pre,
                post,
            );
        }
        match (a.inst.dst(), a.inst.fdst()) {
            (Some(IrReg::Phys(r)), _) => {
                return fail(
                    pass,
                    "pinned guest registers never killed",
                    format!("op {i}: removed `{}` writing pinned r{}", a.inst, r.0),
                    pre,
                    post,
                );
            }
            (_, Some(IrFreg::Phys(r))) => {
                return fail(
                    pass,
                    "pinned guest registers never killed",
                    format!("op {i}: removed `{}` writing pinned f{}", a.inst, r.0),
                    pre,
                    post,
                );
            }
            (Some(IrReg::Virt(v)), _) if post_df.int_live_after(v, i) => {
                return fail(
                    pass,
                    "no use of a dead-killed register",
                    format!("op {i}: removed `{}` but t{v} is still read later", a.inst),
                    pre,
                    post,
                );
            }
            (_, Some(IrFreg::Virt(v))) if post_df.fp_live_after(v, i) => {
                return fail(
                    pass,
                    "no use of a dead-killed register",
                    format!("op {i}: removed `{}` but ft{v} is still read later", a.inst),
                    pre,
                    post,
                );
            }
            _ => {}
        }
    }
    Ok(())
}

/// An inserting pass (software prefetching) may add `Prefetch`
/// instructions but must leave the original sequence untouched.
fn check_insert(
    pass: &'static str,
    pre: &IrBlock,
    post: &IrBlock,
) -> Result<(), Box<VerifyFailure>> {
    let kept: Vec<_> =
        post.ops.iter().filter(|o| !matches!(o.inst, IrInst::Prefetch { .. })).collect();
    let orig: Vec<_> =
        pre.ops.iter().filter(|o| !matches!(o.inst, IrInst::Prefetch { .. })).collect();
    if kept.len() != orig.len() || kept.iter().zip(&orig).any(|(a, b)| a != b) {
        return fail(
            pass,
            "insertion leaves existing code untouched",
            "post minus prefetches differs from pre".into(),
            pre,
            post,
        );
    }
    Ok(())
}

/// Identity of an op for permutation matching; duplicates are
/// disambiguated by occurrence order, which is sound because identical
/// instructions are interchangeable.
type OpKey = (IrInst, u32);

/// Scheduling must be a permutation of the live instructions that keeps
/// every data and memory dependence in order and never moves code across
/// a side exit.
fn check_schedule(
    pass: &'static str,
    pre: &IrBlock,
    post: &IrBlock,
) -> Result<(), Box<VerifyFailure>> {
    let live: Vec<_> = pre.ops.iter().filter(|o| o.inst != IrInst::Nop).copied().collect();
    if post.ops.iter().any(|o| o.inst == IrInst::Nop) {
        return fail(
            pass,
            "scheduling drops tombstones",
            "Nop survived scheduling".into(),
            pre,
            post,
        );
    }
    if live.len() != post.ops.len() {
        return fail(
            pass,
            "scheduling is a permutation",
            format!("{} live ops became {}", live.len(), post.ops.len()),
            pre,
            post,
        );
    }

    // Match each post position back to a pre index (k-th occurrence of an
    // identical op maps to the k-th occurrence pre-side).
    let mut occ: HashMap<OpKey, Vec<usize>> = HashMap::new();
    for (i, op) in live.iter().enumerate() {
        occ.entry((op.inst, op.guest_idx)).or_default().push(i);
    }
    let mut taken: HashMap<OpKey, usize> = HashMap::new();
    let mut pos_in_post = vec![usize::MAX; live.len()];
    for (j, op) in post.ops.iter().enumerate() {
        let key = (op.inst, op.guest_idx);
        let k = taken.entry(key).or_insert(0);
        let Some(pre_idx) = occ.get(&key).and_then(|v| v.get(*k)) else {
            return fail(
                pass,
                "scheduling is a permutation",
                format!("post op {j} `{}` not present pre-side", op.inst),
                pre,
                post,
            );
        };
        pos_in_post[*pre_idx] = j;
        *k += 1;
    }

    // Dependence edges over the live pre sequence, mirroring what any
    // correct scheduler must respect: register RAW/WAR/WAW, memory
    // ordering (loads and prefetches vs. stores), and branches as full
    // barriers.
    #[derive(PartialEq, Eq, Hash, Clone, Copy)]
    enum Res {
        Int(IrReg),
        Fp(IrFreg),
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut last_def: HashMap<Res, usize> = HashMap::new();
    let mut uses_since: HashMap<Res, Vec<usize>> = HashMap::new();
    let mut last_store: Option<usize> = None;
    let mut loads_since: Vec<usize> = Vec::new();
    let mut last_branch: Option<usize> = None;
    let mut since_branch: Vec<usize> = Vec::new();
    for (i, op) in live.iter().enumerate() {
        if let Some(b) = last_branch {
            edges.push((b, i));
        }
        if op.inst.is_branch() {
            for &p in &since_branch {
                edges.push((p, i));
            }
            since_branch.clear();
            last_branch = Some(i);
        } else {
            since_branch.push(i);
        }
        let srcs: Vec<Res> = op
            .inst
            .srcs()
            .into_iter()
            .flatten()
            .map(Res::Int)
            .chain(op.inst.fsrcs().into_iter().flatten().map(Res::Fp))
            .collect();
        let dsts: Vec<Res> =
            op.inst.dst().map(Res::Int).into_iter().chain(op.inst.fdst().map(Res::Fp)).collect();
        for s in &srcs {
            if let Some(&d) = last_def.get(s) {
                edges.push((d, i));
            }
            uses_since.entry(*s).or_default().push(i);
        }
        for d in &dsts {
            if let Some(&p) = last_def.get(d) {
                edges.push((p, i));
            }
            for &u in uses_since.get(d).map(|v| v.as_slice()).unwrap_or(&[]) {
                edges.push((u, i));
            }
            last_def.insert(*d, i);
            uses_since.insert(*d, Vec::new());
        }
        if op.inst.is_load() || matches!(op.inst, IrInst::Prefetch { .. }) {
            if let Some(s) = last_store {
                edges.push((s, i));
            }
            loads_since.push(i);
        } else if op.inst.is_store() {
            if let Some(s) = last_store {
                edges.push((s, i));
            }
            for &l in &loads_since {
                edges.push((l, i));
            }
            loads_since.clear();
            last_store = Some(i);
        }
    }
    for (a, b) in edges {
        if a != b && pos_in_post[a] >= pos_in_post[b] {
            return fail(
                pass,
                "scheduling preserves dependences",
                format!(
                    "`{}` must stay before `{}` but moved after it",
                    live[a].inst, live[b].inst
                ),
                pre,
                post,
            );
        }
    }
    Ok(())
}

/// Checks a register assignment: every mentioned virtual is mapped (and
/// nothing else), assignments stay inside the scratch windows, and two
/// virtuals sharing a physical register never have overlapping live
/// ranges — i.e. the map restricted to any program point is a bijection.
pub fn check_allocation(
    pass: &'static str,
    block: &IrBlock,
    map: &RegMap,
) -> Result<(), Box<VerifyFailure>> {
    let df = Dataflow::analyze(block);
    let mut int_ivs: Vec<(u32, (usize, usize))> = Vec::new();
    for (r, du) in &df.int {
        if let IrReg::Virt(v) = r {
            match map.int.get(*v as usize) {
                None => {
                    return fail(
                        pass,
                        "every live virtual is allocated",
                        format!("t{v} has no assignment"),
                        block,
                        block,
                    );
                }
                Some(p) if !(SCRATCH_BASE..SCRATCH_END).contains(&p.0) => {
                    return fail(
                        pass,
                        "allocations stay in the scratch window",
                        format!("t{v} -> r{} outside r{SCRATCH_BASE}..r{SCRATCH_END}", p.0),
                        block,
                        block,
                    );
                }
                Some(_) => {}
            }
            if let Some(iv) = du.interval() {
                int_ivs.push((*v, iv));
            }
        }
    }
    let mut fp_ivs: Vec<(u32, (usize, usize))> = Vec::new();
    for (r, du) in &df.fp {
        if let IrFreg::Virt(v) = r {
            match map.fp.get(*v as usize) {
                None => {
                    return fail(
                        pass,
                        "every live virtual is allocated",
                        format!("ft{v} has no assignment"),
                        block,
                        block,
                    );
                }
                Some(p) if !(FSCRATCH_BASE..FSCRATCH_END).contains(&p.0) => {
                    return fail(
                        pass,
                        "allocations stay in the scratch window",
                        format!("ft{v} -> f{} outside f{FSCRATCH_BASE}..f{FSCRATCH_END}", p.0),
                        block,
                        block,
                    );
                }
                Some(_) => {}
            }
            if let Some(iv) = du.interval() {
                fp_ivs.push((*v, iv));
            }
        }
    }
    let mentioned_int: HashSet<u32> = int_ivs.iter().map(|&(v, _)| v).collect();
    let mentioned_fp: HashSet<u32> = fp_ivs.iter().map(|&(v, _)| v).collect();
    if let Some(v) = map.int.iter().map(|(v, _)| v as u32).find(|v| !mentioned_int.contains(v)) {
        return fail(
            pass,
            "no spurious assignments",
            format!("map assigns t{v} which the block never mentions"),
            block,
            block,
        );
    }
    if let Some(v) = map.fp.iter().map(|(v, _)| v as u32).find(|v| !mentioned_fp.contains(v)) {
        return fail(
            pass,
            "no spurious assignments",
            format!("map assigns ft{v} which the block never mentions"),
            block,
            block,
        );
    }
    for (i, &(va, (sa, ea))) in int_ivs.iter().enumerate() {
        for &(vb, (sb, eb)) in &int_ivs[i + 1..] {
            let reg = |v: u32| map.int.get(v as usize).expect("presence checked above");
            if reg(va) == reg(vb) && sa <= eb && sb <= ea {
                return fail(
                    pass,
                    "assignment is a bijection over live ranges",
                    format!("t{va} [{sa},{ea}] and t{vb} [{sb},{eb}] share r{}", reg(va).0),
                    block,
                    block,
                );
            }
        }
    }
    for (i, &(va, (sa, ea))) in fp_ivs.iter().enumerate() {
        for &(vb, (sb, eb)) in &fp_ivs[i + 1..] {
            let reg = |v: u32| map.fp.get(v as usize).expect("presence checked above");
            if reg(va) == reg(vb) && sa <= eb && sb <= ea {
                return fail(
                    pass,
                    "assignment is a bijection over live ranges",
                    format!("ft{va} [{sa},{ea}] and ft{vb} [{sb},{eb}] share f{}", reg(va).0),
                    block,
                    block,
                );
            }
        }
    }
    Ok(())
}
