//! The SBM optimization pipeline and its pass manager.
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
//! for the ablation experiments. If register allocation runs out of
//! scratch registers the pipeline fails with [`OptError::OutOfRegisters`]
//! and the engine lowers the unoptimized IR instead.

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

/// Why optimization could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// Register pressure exceeded the scratch register file; the caller
    /// falls back to unoptimized lowering (the optimizer bails, which
    /// real dynamic optimizers also do under pressure).
    OutOfRegisters,
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::OutOfRegisters => write!(f, "register pressure exceeds scratch file"),
        }
    }
}

impl std::error::Error for OptError {}

/// Per-pass transformation accounting: how often a pass ran and how
/// much it shrank the instruction stream. Deliberately holds no
/// wall-clock data — it is serialized into [`Report`] fingerprints that
/// must be bit-identical across reruns; pass timing travels separately
/// through [`Tol::pass_nanos`](crate::Tol::pass_nanos).
///
/// [`Report`]: ../../darco_core/struct.Report.html
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct PassDelta {
    /// Pass name (matches the pipeline's pass registry).
    pub pass: String,
    /// How many blocks the pass ran over.
    pub runs: u64,
    /// Net non-`Nop` instructions removed (negative if it grew).
    pub insts_removed: i64,
}

/// What one pass application did to one block, as the pass manager
/// records it: a borrowed name and plain counters, so recording a
/// sample allocates no `String`. [`merge_delta`] folds samples into the
/// serialized [`PassDelta`] rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassSample {
    /// Pass name (matches the pipeline's pass registry).
    pub pass: &'static str,
    /// Net non-`Nop` instructions removed (negative if it grew).
    pub insts_removed: i64,
}

/// Folds one pass application into a list keyed by pass name (appending
/// new passes in encounter order, which is pipeline order). The name is
/// copied into a `String` only the first time a pass is seen.
pub fn merge_delta(deltas: &mut Vec<PassDelta>, s: &PassSample) {
    let at = deltas.iter().position(|e| e.pass == s.pass).unwrap_or_else(|| {
        deltas.push(PassDelta { pass: s.pass.to_string(), ..PassDelta::default() });
        deltas.len() - 1
    });
    let e = &mut deltas[at];
    e.runs += 1;
    e.insts_removed += s.insts_removed;
}

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

/// One pipeline pass: a name for the per-pass deltas and stage timings,
/// and the transformation itself.
pub(crate) struct Pass {
    pub name: &'static str,
    pub run: fn(&mut IrBlock, &mut OptScratch),
}

/// The `TolConfig` switch that turns a pass on.
type Enabled = fn(&TolConfig) -> bool;

/// The canonical pass order (Sec. II-A-1), each pass with the switch
/// that enables it. The second `constprop` cleans up the copies CSE
/// introduces.
static PIPELINE: [(Enabled, Pass); 6] = [
    (|c| c.opt_constprop, Pass { name: "constprop", run: |b, s| constprop::run(b, s) }),
    (|c| c.opt_cse, Pass { name: "cse", run: |b, s| cse::run(b, s) }),
    (
        |c| c.opt_cse && c.opt_constprop,
        Pass { name: "constprop-cleanup", run: |b, s| constprop::run(b, s) },
    ),
    (|c| c.opt_dce, Pass { name: "dce", run: |b, s| dce::run(b, s) }),
    (
        |c| c.opt_sw_prefetch,
        Pass {
            name: "swprefetch",
            run: |b, _| {
                swprefetch::run(b);
            },
        },
    ),
    (|c| c.opt_schedule, Pass { name: "schedule", run: |b, s| schedule::run(b, s) }),
];

/// Non-`Nop` instruction count (the measure the per-pass deltas use).
fn count_live(block: &IrBlock) -> usize {
    block.ops.iter().filter(|o| o.inst != IrInst::Nop).count()
}

/// Runs the enabled passes over `block` and allocates registers.
///
/// Returns the optimized block and the virtual-register assignment.
///
/// # Errors
///
/// [`OptError::OutOfRegisters`] if allocation fails; the block is
/// unusable and the caller should lower the unoptimized IR.
pub fn optimize(block: IrBlock, cfg: &TolConfig) -> Result<(IrBlock, RegMap), OptError> {
    let mut scratch = OptScratch::default();
    let (block, _) = run_pipeline(block, cfg, &mut scratch, &mut StageNanos::new())?;
    Ok((block, scratch.map))
}

/// Pipeline driver: the passes `cfg` enables, in pipeline order, then
/// register allocation. Returns the block and one sample per pass
/// application; on success the register assignment is in `scratch.map`.
/// Time spent in each pass and in allocation is added to `nanos` whether
/// or not the pipeline completes.
pub(crate) fn run_pipeline(
    mut block: IrBlock,
    cfg: &TolConfig,
    scratch: &mut OptScratch,
    nanos: &mut StageNanos,
) -> Result<(IrBlock, Vec<PassSample>), OptError> {
    let mut samples = Vec::with_capacity(PIPELINE.len());
    let mut live = count_live(&block);
    for (_, pass) in PIPELINE.iter().filter(|(enabled, _)| enabled(cfg)) {
        timed(nanos, pass.name, || (pass.run)(&mut block, scratch));
        let live_after = count_live(&block);
        samples
            .push(PassSample { pass: pass.name, insts_removed: live as i64 - live_after as i64 });
        live = live_after;
    }
    timed(nanos, "regalloc", || regalloc::run(&block, scratch))?;
    Ok((block, samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrInst, IrOp, IrReg};
    use darco_host::{Exit, HAluOp, HReg};

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
}
