//! The SBM optimization pipeline and its self-verifying pass manager.
//!
//! The paper lists the passes the software layer applies to superblocks
//! (Sec. II-A-1): copy/constant propagation, constant folding, common
//! subexpression elimination, dead code elimination, register allocation
//! and instruction scheduling. Each lives in its own module here and
//! operates on the linear [`IrBlock`] form — no join
//! points, side exits observe the pinned guest state.
//!
//! [`optimize`] runs the pipeline in the canonical order; individual
//! passes can be switched off through [`TolConfig`]
//! for the ablation experiments.
//!
//! The pass manager snapshots the block around every pass and hands the
//! pair to the [`crate::verify`] layer (structural invariants plus
//! translation validation). Verification is always on in debug and test
//! builds; release builds opt in via [`TolConfig::verify`]. A failure
//! aborts optimization with [`OptError::Miscompile`] naming the pass,
//! the invariant, and an IR diff — the engine then falls back to
//! unoptimized lowering, exactly like a register-pressure bailout.

pub mod constprop;
pub mod cse;
pub mod dce;
pub mod regalloc;
pub mod schedule;
pub mod swprefetch;

use crate::compile::{timed, StageNanos};
use crate::config::TolConfig;
use crate::ir::{IrBlock, IrInst, RegMap};
use crate::regset::RegSet;
use crate::verify::{self, PassKind, PassSample, VerifyFailure, VerifyStats};

/// Why optimization could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// Register pressure exceeded the scratch register file; the caller
    /// falls back to unoptimized lowering (the optimizer bails, which
    /// real dynamic optimizers also do under pressure).
    OutOfRegisters,
    /// The verifier caught a pass producing a non-equivalent or
    /// ill-formed block. The payload names the pass and invariant and
    /// carries an IR diff; the caller must discard the optimized block.
    Miscompile(Box<VerifyFailure>),
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::OutOfRegisters => write!(f, "register pressure exceeds scratch file"),
            OptError::Miscompile(failure) => write!(f, "{failure}"),
        }
    }
}

impl std::error::Error for OptError {}

/// Every buffer the passes and the allocators work in, owned by the
/// engine and lent to one compilation at a time. Each pass clears what
/// it uses on entry, so the contents never carry from block to block —
/// only the allocations do, and a pass allocates only while a block is
/// larger than any the engine has compiled before. `Default` allocates
/// nothing.
#[derive(Debug, Default)]
pub struct OptScratch {
    /// `dce`: registers some later op still reads.
    pub(crate) used_int: RegSet,
    pub(crate) used_fp: RegSet,
    pub(crate) constprop: constprop::Facts,
    pub(crate) cse: cse::Numbering,
    pub(crate) sched: schedule::Scratch,
    pub(crate) regalloc: regalloc::Scratch,
    /// The register assignment of the block compiled last, written by
    /// [`regalloc::run`] (SBM) or the BBM allocator and read by
    /// [`crate::ir::lower`].
    pub map: RegMap,
}

/// One pipeline pass: a name for verifier reports, the transformation
/// shape the verifier holds it to, and the transformation itself.
pub(crate) struct Pass {
    pub name: &'static str,
    pub kind: PassKind,
    pub run: fn(&mut IrBlock, &mut OptScratch),
}

/// The `TolConfig` switch that turns a pass on.
type Enabled = fn(&TolConfig) -> bool;

/// The canonical pass order (Sec. II-A-1), each pass with the switch
/// that enables it. The second `constprop` cleans up the copies CSE
/// introduces.
static PIPELINE: [(Enabled, Pass); 6] = [
    (
        |c| c.opt_constprop,
        Pass { name: "constprop", kind: PassKind::Rewrite, run: |b, s| constprop::run(b, s) },
    ),
    (|c| c.opt_cse, Pass { name: "cse", kind: PassKind::Rewrite, run: |b, s| cse::run(b, s) }),
    (
        |c| c.opt_cse && c.opt_constprop,
        Pass {
            name: "constprop-cleanup",
            kind: PassKind::Rewrite,
            run: |b, s| constprop::run(b, s),
        },
    ),
    (|c| c.opt_dce, Pass { name: "dce", kind: PassKind::Dce, run: |b, s| dce::run(b, s) }),
    (
        |c| c.opt_sw_prefetch,
        Pass {
            name: "swprefetch",
            kind: PassKind::Insert,
            run: |b, _| {
                swprefetch::run(b);
            },
        },
    ),
    (
        |c| c.opt_schedule,
        Pass { name: "schedule", kind: PassKind::Schedule, run: |b, s| schedule::run(b, s) },
    ),
];

/// The passes `cfg` enables, in pipeline order.
pub(crate) fn pipeline(cfg: &TolConfig) -> impl Iterator<Item = &'static Pass> + '_ {
    PIPELINE.iter().filter(move |(enabled, _)| enabled(cfg)).map(|(_, pass)| pass)
}

/// Non-`Nop` instruction count (the measure the per-pass deltas use).
pub(crate) fn count_live(block: &IrBlock) -> usize {
    block.ops.iter().filter(|o| o.inst != IrInst::Nop).count()
}

/// Runs the enabled passes over `block` and allocates registers.
///
/// Returns the optimized block and the virtual-register assignment.
///
/// # Errors
///
/// [`OptError::OutOfRegisters`] if allocation fails, or
/// [`OptError::Miscompile`] if the verifier rejects a pass; the block is
/// unusable in either case and the caller should lower the unoptimized
/// IR.
pub fn optimize(block: IrBlock, cfg: &TolConfig) -> Result<(IrBlock, RegMap), OptError> {
    optimize_stats(block, cfg).map(|(b, m, _)| (b, m))
}

/// [`optimize`], additionally reporting what the verifier did.
///
/// # Errors
///
/// Same as [`optimize`].
pub fn optimize_stats(
    block: IrBlock,
    cfg: &TolConfig,
) -> Result<(IrBlock, RegMap, VerifyStats), OptError> {
    let mut scratch = OptScratch::default();
    let (block, stats) =
        run_pipeline(block, cfg, pipeline(cfg), &mut scratch, &mut StageNanos::new())?;
    Ok((block, scratch.map, stats))
}

/// Pipeline driver, parameterized over the pass list so tests can
/// inject deliberately broken passes and prove the verifier catches
/// them. On success the register assignment is in `scratch.map`. Time
/// spent in each pass and in allocation is added to `nanos` whether or
/// not the pipeline completes.
pub(crate) fn run_pipeline<'p>(
    mut block: IrBlock,
    cfg: &TolConfig,
    passes: impl IntoIterator<Item = &'p Pass>,
    scratch: &mut OptScratch,
    nanos: &mut StageNanos,
) -> Result<(IrBlock, VerifyStats), OptError> {
    let checking = cfg.verify || cfg!(debug_assertions);
    let mut stats =
        VerifyStats { passes: Vec::with_capacity(PIPELINE.len()), ..VerifyStats::default() };
    let original = checking.then(|| block.clone());
    let mut live = count_live(&block);
    for pass in passes {
        let pre = checking.then(|| block.clone());
        timed(nanos, pass.name, || (pass.run)(&mut block, scratch));
        let live_after = count_live(&block);
        stats
            .passes
            .push(PassSample { pass: pass.name, insts_removed: live as i64 - live_after as i64 });
        live = live_after;
        if let Some(pre) = &pre {
            if *pre != block {
                verify::check_pass(pass.name, pass.kind, pre, &block, &mut stats)
                    .map_err(OptError::Miscompile)?;
            }
        }
    }
    timed(nanos, "regalloc", || regalloc::run(&block, scratch))?;
    if let Some(original) = &original {
        verify::check_result(original, &block, &scratch.map, &mut stats)
            .map_err(OptError::Miscompile)?;
    }
    Ok((block, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrInst, IrOp, IrReg};
    use darco_host::{Exit, HAluOp, HReg, Width};

    /// [`run_pipeline`] over an explicit pass list, in fresh scratch.
    pub(crate) fn run_passes(
        block: IrBlock,
        cfg: &TolConfig,
        passes: &[Pass],
    ) -> Result<(IrBlock, VerifyStats), OptError> {
        run_pipeline(block, cfg, passes, &mut OptScratch::default(), &mut StageNanos::new())
    }

    fn block(ops: Vec<IrInst>) -> IrBlock {
        IrBlock {
            ops: ops
                .into_iter()
                .enumerate()
                .map(|(i, inst)| IrOp { inst, guest_idx: i as u32 })
                .collect(),
            stubs: vec![],
            stub_guest_counts: vec![],
            fallthrough: Exit::Halt,
            guest_len: 1,
        }
    }

    #[test]
    fn full_pipeline_shrinks_redundant_code() {
        // li t0, 5 ; add r1 <- r1 + t0 ; li t1, 5 ; add r2 <- r2 + t1
        // After const prop + DCE the two `li`s fold into AluI and vanish.
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 5 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Phys(HReg(1)),
                rb: IrReg::Virt(0),
            },
            IrInst::Li { rd: IrReg::Virt(1), imm: 5 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(2)),
                ra: IrReg::Phys(HReg(2)),
                rb: IrReg::Virt(1),
            },
        ]);
        let (opt, map) = optimize(b, &TolConfig::default()).unwrap();
        let live: Vec<_> = opt.ops.iter().filter(|o| o.inst != IrInst::Nop).collect();
        assert_eq!(live.len(), 2, "only the two AluIs remain: {live:?}");
        assert_eq!(map.int.iter().count(), 0, "no virtuals survive");
    }

    #[test]
    fn disabled_passes_preserve_block() {
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 5 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Phys(HReg(1)),
                rb: IrReg::Virt(0),
            },
        ]);
        let cfg = TolConfig::no_optimization();
        let (opt, map) = optimize(b.clone(), &cfg).unwrap();
        assert_eq!(opt.ops.len(), b.ops.len());
        assert_eq!(map.int.iter().count(), 1);
    }

    #[test]
    fn verified_pipeline_reports_stats() {
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 5 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Phys(HReg(1)),
                rb: IrReg::Virt(0),
            },
        ]);
        let cfg = TolConfig { verify: true, ..TolConfig::default() };
        let (_, _, stats) = optimize_stats(b, &cfg).unwrap();
        assert_eq!(stats.blocks_verified, 1);
        assert!(stats.passes_checked >= 1);
        assert_eq!(stats.tv_differential, 0, "pipeline algebra proves symbolically");
    }

    /// Mutation test: a DCE that tombstones a live store must be caught,
    /// and the report must name the pass.
    #[test]
    fn broken_dce_removing_live_store_is_caught() {
        let broken = Pass {
            name: "dce",
            kind: PassKind::Dce,
            run: |b, _| {
                if let Some(op) = b.ops.iter_mut().find(|o| o.inst.is_store()) {
                    op.inst = IrInst::Nop;
                }
            },
        };
        let b = block(vec![
            IrInst::St {
                rs: IrReg::Phys(HReg(1)),
                base: IrReg::Phys(HReg(2)),
                off: 0,
                width: Width::W4,
            },
            IrInst::AluI {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Phys(HReg(1)),
                imm: 1,
            },
        ]);
        let cfg = TolConfig { verify: true, ..TolConfig::default() };
        match run_passes(b, &cfg, &[broken]) {
            Err(OptError::Miscompile(f)) => {
                assert_eq!(f.pass, "dce");
                assert_eq!(f.invariant, "side-effecting instructions never removed");
            }
            other => panic!("verifier missed the broken pass: {other:?}"),
        }
    }

    /// Mutation test: a "constant folder" that miscomputes a constant is
    /// caught by translation validation even though the block stays
    /// structurally legal.
    #[test]
    fn broken_fold_is_caught_by_translation_validation() {
        let broken = Pass {
            name: "constprop",
            kind: PassKind::Rewrite,
            run: |b, _| {
                for op in &mut b.ops {
                    if let IrInst::Li { rd, imm } = op.inst {
                        op.inst = IrInst::Li { rd, imm: imm + 1 };
                    }
                }
            },
        };
        let b = block(vec![IrInst::Li { rd: IrReg::Phys(HReg(1)), imm: 5 }]);
        let cfg = TolConfig { verify: true, ..TolConfig::default() };
        match run_passes(b, &cfg, &[broken]) {
            Err(OptError::Miscompile(f)) => assert_eq!(f.pass, "constprop"),
            other => panic!("verifier missed the wrong constant: {other:?}"),
        }
    }

    /// Mutation test: a scheduler that swaps dependent instructions is
    /// caught structurally.
    #[test]
    fn broken_schedule_violating_raw_is_caught() {
        let broken = Pass {
            name: "schedule",
            kind: PassKind::Schedule,
            run: |b, _| {
                b.ops.reverse();
            },
        };
        let b = block(vec![
            IrInst::Li { rd: IrReg::Virt(0), imm: 7 },
            IrInst::Alu {
                op: HAluOp::Add,
                rd: IrReg::Phys(HReg(1)),
                ra: IrReg::Phys(HReg(1)),
                rb: IrReg::Virt(0),
            },
        ]);
        let cfg = TolConfig { verify: true, ..TolConfig::default() };
        match run_passes(b, &cfg, &[broken]) {
            Err(OptError::Miscompile(f)) => assert_eq!(f.pass, "schedule"),
            other => panic!("verifier missed the reorder: {other:?}"),
        }
    }
}
