//! The BBM and SBM compile pipelines as pure functions of
//! `(region, config)`: translate → analysis → optimization passes →
//! verification → register allocation → lowering. The translation
//! validator's differential fallback is seeded from block content, so
//! the same region always compiles to the same host code; only
//! wall-clock observables (pass nanoseconds) differ between calls, and
//! those are excluded from every serialized report.

use crate::config::TolConfig;
use crate::ir::{lower, RegMap};
use crate::opt;
use crate::translate::{translate_region, translate_region_scratch, IrScratch, RegionInst};
use crate::verify::VerifyStats;
use darco_host::{HFreg, HInst};

/// What the `deadflags` analysis did to a BBM block, reported back so
/// the engine can merge counters at the install point.
#[derive(Debug)]
pub(crate) struct DeadflagsDelta {
    /// Dead `FlagsArith` definitions deleted.
    pub flags_killed: u64,
    /// Net live instructions removed.
    pub insts_removed: i64,
    /// Wall-clock nanoseconds the pass took.
    pub nanos: u64,
}

/// A compiled BBM basic block, ready to stamp and install.
#[derive(Debug)]
pub(crate) struct BbCompiled {
    pub insts: Vec<HInst>,
    pub stub_guest_counts: Vec<u32>,
    pub guest_len: u32,
    pub body_len: u32,
    pub deadflags: Option<DeadflagsDelta>,
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
    /// Unoptimized (eager-flags) IR length, for the cost model.
    pub ir_len: usize,
    pub outcome: SbOutcome,
}

/// BBM register allocation: temporaries never live across guest
/// instruction boundaries, so a per-guest-instruction round-robin over
/// the scratch file suffices (and can never run out).
pub(crate) fn bbm_allocate(block: &crate::ir::IrBlock) -> RegMap {
    use crate::ir::{IrFreg, IrReg, FSCRATCH_BASE, SCRATCH_BASE};
    let mut map = RegMap::default();
    let mut gi = u32::MAX;
    let mut next_int = SCRATCH_BASE;
    let mut next_fp = FSCRATCH_BASE;
    for op in &block.ops {
        if op.guest_idx != gi {
            gi = op.guest_idx;
            next_int = SCRATCH_BASE;
            next_fp = FSCRATCH_BASE;
        }
        let alloc_int = |v: u32, map: &mut RegMap, next: &mut u8| {
            map.int.entry(v).or_insert_with(|| {
                let r = darco_host::HReg(*next);
                *next += 1;
                assert!(*next <= crate::ir::SCRATCH_END, "BBM scratch overflow");
                r
            });
        };
        for s in op.inst.srcs().into_iter().flatten() {
            if let IrReg::Virt(v) = s {
                alloc_int(v, &mut map, &mut next_int);
            }
        }
        if let Some(IrReg::Virt(v)) = op.inst.dst() {
            alloc_int(v, &mut map, &mut next_int);
        }
        let alloc_fp = |v: u32, map: &mut RegMap, next: &mut u8| {
            map.fp.entry(v).or_insert_with(|| {
                let r = HFreg(*next);
                *next += 1;
                assert!(*next <= crate::ir::FSCRATCH_END, "BBM FP scratch overflow");
                r
            });
        };
        for s in op.inst.fsrcs().into_iter().flatten() {
            if let IrFreg::Virt(v) = s {
                alloc_fp(v, &mut map, &mut next_fp);
            }
        }
        if let Some(IrFreg::Virt(v)) = op.inst.fdst() {
            alloc_fp(v, &mut map, &mut next_fp);
        }
    }
    map
}

/// The BBM compile pipeline as a pure function of `(region, cfg)`:
/// translate, optionally run the analysis-driven `deadflags` kill and
/// the peephole passes, allocate, lower.
pub(crate) fn compile_bb(
    region: &[RegionInst],
    cfg: &TolConfig,
    scratch: &mut IrScratch,
) -> BbCompiled {
    let mut block = translate_region_scratch(region, cfg.opt_deadflags, scratch);
    let deadflags = if cfg.opt_deadflags {
        // Eager flag materialization + liveness-driven kill converges
        // to the same host code the intrinsic elision produces.
        let live_before = block.ops.iter().filter(|o| o.inst != crate::ir::IrInst::Nop).count();
        let start = std::time::Instant::now();
        let killed = opt::deadflags::run(&mut block);
        let nanos = start.elapsed().as_nanos() as u64;
        let live_after = block.ops.iter().filter(|o| o.inst != crate::ir::IrInst::Nop).count();
        Some(DeadflagsDelta {
            flags_killed: u64::from(killed),
            insts_removed: live_before as i64 - live_after as i64,
            nanos,
        })
    } else {
        None
    };
    if cfg.bbm_peephole {
        opt::constprop::run(&mut block, true);
        opt::dce::run(&mut block);
    }
    let map = bbm_allocate(&block);
    let insts = lower(&block, &map);
    let body_len = insts.len() as u32 - 1 - block.stubs.len() as u32;
    let stub_guest_counts = std::mem::take(&mut block.stub_guest_counts);
    let guest_len = block.guest_len;
    scratch.recycle(block);
    BbCompiled { insts, stub_guest_counts, guest_len, body_len, deadflags }
}

/// The SBM compile pipeline as a pure function of `(region, cfg)`:
/// translate eagerly, run the full optimization pipeline (falling back
/// to the unoptimized lowering on allocation failure or a verifier
/// rejection), lower.
pub(crate) fn compile_sb(
    region: &[RegionInst],
    cfg: &TolConfig,
    scratch: &mut IrScratch,
) -> SbCompiled {
    let block = translate_region_scratch(region, cfg.opt_deadflags, scratch);
    let ir_len = block.ops.len();
    let (mut block, map, outcome) = match opt::optimize_stats(block, cfg) {
        Ok((opt_block, map, stats)) => (opt_block, map, SbOutcome::Optimized(stats)),
        Err(opt::OptError::OutOfRegisters) => {
            // Fall back to the intrinsically elided translation so the
            // unoptimized lowering matches the non-eager path exactly.
            let block = translate_region(region);
            let map = bbm_allocate(&block);
            (block, map, SbOutcome::OutOfRegisters)
        }
        Err(opt::OptError::Miscompile(_)) => {
            // The verifier rejected a pass's output: never install
            // unverified code; fall back to the unoptimized lowering.
            let block = translate_region(region);
            let map = bbm_allocate(&block);
            (block, map, SbOutcome::Miscompile)
        }
    };
    let insts = lower(&block, &map);
    let body_len = insts.len() as u32 - 1 - block.stubs.len() as u32;
    let stub_guest_counts = std::mem::take(&mut block.stub_guest_counts);
    let guest_len = block.guest_len;
    scratch.recycle(block);
    SbCompiled { insts, stub_guest_counts, guest_len, body_len, ir_len, outcome }
}
