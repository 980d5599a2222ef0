//! The BBM and SBM compile pipelines as pure functions of
//! `(region, config)`: translate → optimization passes → verification →
//! register allocation → lowering. The translation validator's
//! differential fallback is seeded from block content, so the same
//! region always compiles to the same host code; only wall-clock
//! observables (pass nanoseconds) differ between calls, and those are
//! excluded from every serialized report.

use crate::config::TolConfig;
use crate::ir::{lower, IrBlock, IrFreg, IrReg, RegMap};
use crate::ir::{FSCRATCH_BASE, FSCRATCH_END, SCRATCH_BASE, SCRATCH_END};
use crate::opt::{self, OptScratch};
use crate::translate::{translate_region_scratch, IrScratch, RegionInst};
use crate::verify::VerifyStats;
use darco_host::{HFreg, HInst, HReg};

/// Wall-clock nanoseconds per stage of the compile path, in encounter
/// order: the passes under their [`PassDelta`](crate::verify::PassDelta)
/// names, the stages around them under their own. Lives outside every
/// serialized struct: reports must be bit-identical across reruns.
pub(crate) type StageNanos = Vec<(&'static str, u64)>;

/// Runs `f`, adding the wall-clock time it took to `stage`'s entry.
pub(crate) fn timed<T>(nanos: &mut StageNanos, stage: &'static str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    match nanos.iter_mut().find(|(s, _)| *s == stage) {
        Some(e) => e.1 += ns,
        None => nanos.push((stage, ns)),
    }
    out
}

/// A compiled BBM basic block, ready to stamp and install.
#[derive(Debug)]
pub(crate) struct BbCompiled {
    pub insts: Vec<HInst>,
    pub stub_guest_counts: Vec<u32>,
    pub guest_len: u32,
    pub body_len: u32,
}

/// How a superblock's optimization pipeline ended.
#[derive(Debug)]
pub(crate) enum SbOutcome {
    /// Pipeline ran (and, where enabled, verified) successfully.
    Optimized(VerifyStats),
    /// Register allocation failed; the unoptimized lowering was used.
    OutOfRegisters,
    /// The verifier rejected a pass; the unoptimized lowering was used.
    Miscompile,
}

/// A compiled SBM superblock, ready to stamp and install.
#[derive(Debug)]
pub(crate) struct SbCompiled {
    pub insts: Vec<HInst>,
    pub stub_guest_counts: Vec<u32>,
    pub guest_len: u32,
    pub body_len: u32,
    /// Unoptimized IR length, for the cost model.
    pub ir_len: usize,
    pub outcome: SbOutcome,
}

/// BBM register allocation: temporaries never live across guest
/// instruction boundaries, so a per-guest-instruction round-robin over
/// the scratch file suffices (and can never run out).
pub(crate) fn bbm_allocate(block: &IrBlock, map: &mut RegMap) {
    map.clear();
    let mut gi = u32::MAX;
    let mut next_int = SCRATCH_BASE;
    let mut next_fp = FSCRATCH_BASE;
    for op in &block.ops {
        if op.guest_idx != gi {
            gi = op.guest_idx;
            next_int = SCRATCH_BASE;
            next_fp = FSCRATCH_BASE;
        }
        let mut alloc_int = |r: IrReg| {
            if let IrReg::Virt(v) = r {
                if map.int.get(v as usize).is_none() {
                    map.int.insert(v as usize, HReg(next_int));
                    next_int += 1;
                    assert!(next_int <= SCRATCH_END, "BBM scratch overflow");
                }
            }
        };
        op.inst.srcs().into_iter().flatten().for_each(&mut alloc_int);
        op.inst.dst().into_iter().for_each(&mut alloc_int);
        let mut alloc_fp = |r: IrFreg| {
            if let IrFreg::Virt(v) = r {
                if map.fp.get(v as usize).is_none() {
                    map.fp.insert(v as usize, HFreg(next_fp));
                    next_fp += 1;
                    assert!(next_fp <= FSCRATCH_END, "BBM FP scratch overflow");
                }
            }
        };
        op.inst.fsrcs().into_iter().flatten().for_each(&mut alloc_fp);
        op.inst.fdst().into_iter().for_each(&mut alloc_fp);
    }
}

/// Lowers `block` with the assignment in `opt.map` and takes the block
/// apart: `(insts, body_len, stub_guest_counts, guest_len)`, the block's
/// buffers going back to `ir`.
fn finish(
    mut block: IrBlock,
    ir: &mut IrScratch,
    opt: &OptScratch,
    nanos: &mut StageNanos,
) -> (Vec<HInst>, u32, Vec<u32>, u32) {
    let insts = timed(nanos, "lower", || lower(&block, &opt.map));
    let body_len = insts.len() as u32 - 1 - block.stubs.len() as u32;
    let stub_guest_counts = std::mem::take(&mut block.stub_guest_counts);
    let guest_len = block.guest_len;
    ir.recycle(block);
    (insts, body_len, stub_guest_counts, guest_len)
}

/// The BBM compile pipeline as a pure function of `(region, cfg)`:
/// translate, optionally run the peephole passes, allocate, lower.
/// Wall-clock per stage goes to `nanos`.
pub(crate) fn compile_bb(
    region: &[RegionInst],
    cfg: &TolConfig,
    ir: &mut IrScratch,
    opt: &mut OptScratch,
    nanos: &mut StageNanos,
) -> BbCompiled {
    let mut block = timed(nanos, "translate", || translate_region_scratch(region, ir));
    if cfg.bbm_peephole {
        timed(nanos, "bbm-constprop", || opt::constprop::run(&mut block, opt));
        timed(nanos, "bbm-dce", || opt::dce::run(&mut block, opt));
    }
    timed(nanos, "regalloc", || bbm_allocate(&block, &mut opt.map));
    let (insts, body_len, stub_guest_counts, guest_len) = finish(block, ir, opt, nanos);
    BbCompiled { insts, stub_guest_counts, guest_len, body_len }
}

/// The SBM compile pipeline as a pure function of `(region, cfg)`:
/// translate, run the full optimization pipeline (falling back to the
/// unoptimized lowering on allocation failure or a verifier rejection),
/// lower. Wall-clock per stage goes to `nanos`.
pub(crate) fn compile_sb(
    region: &[RegionInst],
    cfg: &TolConfig,
    ir: &mut IrScratch,
    opt: &mut OptScratch,
    nanos: &mut StageNanos,
) -> SbCompiled {
    let block = timed(nanos, "translate", || translate_region_scratch(region, ir));
    let ir_len = block.ops.len();
    let (block, outcome) = match opt::run_pipeline(block, cfg, opt::pipeline(cfg), opt, nanos) {
        Ok((opt_block, stats)) => (opt_block, SbOutcome::Optimized(stats)),
        Err(e) => {
            // Out of registers, or the verifier rejected a pass's output
            // (never install unverified code): the pipeline consumed the
            // block, so translate again and lower that unoptimized.
            let block = timed(nanos, "translate", || translate_region_scratch(region, ir));
            timed(nanos, "regalloc", || bbm_allocate(&block, &mut opt.map));
            let outcome = match e {
                opt::OptError::OutOfRegisters => SbOutcome::OutOfRegisters,
                opt::OptError::Miscompile(_) => SbOutcome::Miscompile,
            };
            (block, outcome)
        }
    };
    let (insts, body_len, stub_guest_counts, guest_len) = finish(block, ir, opt, nanos);
    SbCompiled { insts, stub_guest_counts, guest_len, body_len, ir_len, outcome }
}
