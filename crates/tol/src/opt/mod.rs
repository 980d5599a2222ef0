//! The SBM optimization pipeline and its pass manager.
//!
//! The paper lists the passes the software layer applies to superblocks
//! (Sec. II-A-1): copy/constant propagation, constant folding, common
//! subexpression elimination, dead code elimination, register allocation
//! and instruction scheduling. Each lives in its own module here and
//! operates on the linear [`IrBlock`] form — no join
//! points, side exits observe the pinned guest state.
//!
//! [`optimize`] runs the pipeline in the canonical order. The passes are
//! switched as one, by [`TolConfig::optimize`] (scheduling and software
//! prefetching have switches of their own); each still reports its own
//! [`PassDelta`] row. If register allocation runs out of scratch
//! registers the pipeline fails with [`OptError::OutOfRegisters`] and the
//! engine lowers the unoptimized IR instead.

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

/// The per-pass tallies of every pipeline that completed: one
/// `(runs, insts_removed)` slot per [`PIPELINE`] entry.
#[derive(Debug, Default)]
pub(crate) struct PassTally([(u64, i64); PIPELINE.len()]);

impl PassTally {
    /// The [`PassDelta`] row of every pass that ran, in pipeline order.
    pub(crate) fn deltas(&self) -> Vec<PassDelta> {
        PIPELINE
            .iter()
            .zip(&self.0)
            .filter(|(_, &(runs, _))| runs > 0)
            .map(|((_, pass), &(runs, insts_removed))| PassDelta {
                pass: pass.name.to_string(),
                runs,
                insts_removed,
            })
            .collect()
    }
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
    (|c| c.optimize, Pass { name: "constprop", run: |b, s| constprop::run(b, s) }),
    (|c| c.optimize, Pass { name: "cse", run: |b, s| cse::run(b, s) }),
    (|c| c.optimize, Pass { name: "constprop-cleanup", run: |b, s| constprop::run(b, s) }),
    (|c| c.optimize, Pass { name: "dce", run: |b, s| dce::run(b, s) }),
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
    let tally = &mut PassTally::default();
    let block = run_pipeline(block, cfg, &mut scratch, tally, &mut StageNanos::new())?;
    Ok((block, scratch.map))
}

/// Pipeline driver: the passes `cfg` enables, in pipeline order, then
/// register allocation. On success the register assignment is in
/// `scratch.map` and each pass's run and removed instructions are added
/// to `tally`. Time spent in each pass and in allocation is added to
/// `nanos` whether or not the pipeline completes.
pub(crate) fn run_pipeline(
    mut block: IrBlock,
    cfg: &TolConfig,
    scratch: &mut OptScratch,
    tally: &mut PassTally,
    nanos: &mut StageNanos,
) -> Result<IrBlock, OptError> {
    let mut tallied = tally.0;
    let mut live = count_live(&block);
    for ((enabled, pass), (runs, removed)) in PIPELINE.iter().zip(&mut tallied) {
        if enabled(cfg) {
            timed(nanos, pass.name, || (pass.run)(&mut block, scratch));
            let live_after = count_live(&block);
            *runs += 1;
            *removed += live as i64 - live_after as i64;
            live = live_after;
        }
    }
    timed(nanos, "regalloc", || regalloc::run(&block, scratch))?;
    tally.0 = tallied;
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_bb;
    use crate::ir::{IrInst, IrOp, IrReg};
    use crate::translate::RegionInst;
    use darco_guest::Inst;
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

    /// The passes `run_pipeline` applies under `cfg`, in order.
    fn passes_run(cfg: &TolConfig) -> Vec<String> {
        let b = block(vec![IrInst::Li { rd: IrReg::Virt(0), imm: 5 }]);
        let mut tally = PassTally::default();
        run_pipeline(b, cfg, &mut OptScratch::default(), &mut tally, &mut vec![]).unwrap();
        tally.deltas().into_iter().map(|d| d.pass).collect()
    }

    #[test]
    fn optimize_switches_the_sbm_passes_and_the_peephole_as_one() {
        let on = TolConfig::default();
        let off = TolConfig { optimize: false, ..on.clone() };
        let prefetch = TolConfig { opt_sw_prefetch: true, ..on.clone() };
        let passes = ["constprop", "cse", "constprop-cleanup", "dce"];
        assert_eq!(passes_run(&on), [&passes[..], &["schedule"]].concat());
        assert_eq!(passes_run(&prefetch), [&passes[..], &["swprefetch", "schedule"]].concat());
        assert_eq!(passes_run(&off), ["schedule"]);
        assert!(passes_run(&TolConfig::no_optimization()).is_empty());

        // The BBM peephole's stages are timed exactly when it runs.
        let region = [RegionInst { pc: 0x1000, inst: Inst::Halt, len: 1, follow_taken: false }];
        for cfg in [on, off] {
            let (mut ir, mut opt, mut nanos) = Default::default();
            compile_bb(&region, &cfg, &mut ir, &mut opt, &mut nanos);
            let ran = |stage| nanos.iter().any(|&(s, _)| s == stage);
            assert_eq!([ran("bbm-constprop"), ran("bbm-dce")], [cfg.optimize; 2], "{nanos:?}");
        }
    }
}
