//! The BBM and SBM compile pipelines as pure functions of
//! `(region, config)`: translate → optimization passes → register
//! allocation → lowering. The same region always compiles to the same
//! host code; only wall-clock observables (pass nanoseconds) differ
//! between calls, and those are excluded from every serialized report.

use crate::codecache::CompiledBlock;
use crate::config::TolConfig;
use crate::ir::{lower, IrBlock, IrFreg, IrReg, RegMap};
use crate::ir::{FSCRATCH_BASE, FSCRATCH_END, SCRATCH_BASE, SCRATCH_END};
use crate::opt::{self, OptError, OptScratch, PassTally};
use crate::translate::{translate_region_scratch, IrScratch, RegionInst};
use darco_host::{HFreg, HReg};

/// Wall-clock nanoseconds per stage of the compile path, in encounter
/// order: the passes under their [`PassDelta`](crate::opt::PassDelta)
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

/// A compiled SBM superblock, ready to stamp and install.
#[derive(Debug)]
pub(crate) struct SbCompiled {
    pub code: CompiledBlock,
    /// Unoptimized IR length, for the cost model.
    pub ir_len: usize,
    /// How the optimization pipeline ended; on an error the unoptimized
    /// lowering was used.
    pub optimized: Result<(), OptError>,
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

/// Lowers `block` with the assignment in `opt.map` into the block to
/// install, the IR block's buffers going back to `ir`.
fn finish(
    mut block: IrBlock,
    ir: &mut IrScratch,
    opt: &OptScratch,
    nanos: &mut StageNanos,
) -> CompiledBlock {
    let insts = timed(nanos, "lower", || lower(&block, &opt.map));
    let body_len = insts.len() as u32 - 1 - block.stubs.len() as u32;
    let stub_guest_counts = std::mem::take(&mut block.stub_guest_counts);
    let guest_len = block.guest_len;
    ir.recycle(block);
    CompiledBlock { insts, stub_guest_counts, guest_len, body_len }
}

/// The BBM compile pipeline as a pure function of `(region, cfg)`:
/// translate, run the peephole passes if `cfg.optimize`, allocate,
/// lower. Wall-clock per stage goes to `nanos`.
pub(crate) fn compile_bb(
    region: &[RegionInst],
    cfg: &TolConfig,
    ir: &mut IrScratch,
    opt: &mut OptScratch,
    nanos: &mut StageNanos,
) -> CompiledBlock {
    let mut block = timed(nanos, "translate", || translate_region_scratch(region, ir));
    if cfg.optimize {
        timed(nanos, "bbm-constprop", || opt::constprop::run(&mut block, opt));
        timed(nanos, "bbm-dce", || opt::dce::run(&mut block, opt));
    }
    timed(nanos, "regalloc", || bbm_allocate(&block, &mut opt.map));
    finish(block, ir, opt, nanos)
}

/// The SBM compile pipeline as a pure function of `(region, cfg)`:
/// translate, run the full optimization pipeline (falling back to the
/// unoptimized lowering on allocation failure), lower. A completed
/// pipeline adds its passes to `tally`; wall-clock per stage goes to
/// `nanos`.
pub(crate) fn compile_sb(
    region: &[RegionInst],
    cfg: &TolConfig,
    ir: &mut IrScratch,
    opt: &mut OptScratch,
    tally: &mut PassTally,
    nanos: &mut StageNanos,
) -> SbCompiled {
    let block = timed(nanos, "translate", || translate_region_scratch(region, ir));
    let ir_len = block.ops.len();
    let (block, optimized) = match opt::run_pipeline(block, cfg, opt, tally, nanos) {
        Ok(opt_block) => (opt_block, Ok(())),
        Err(e) => {
            // The pipeline consumed the block: translate again and lower
            // that unoptimized.
            let block = timed(nanos, "translate", || translate_region_scratch(region, ir));
            timed(nanos, "regalloc", || bbm_allocate(&block, &mut opt.map));
            (block, Err(e))
        }
    };
    SbCompiled { code: finish(block, ir, opt, nanos), ir_len, optimized }
}
