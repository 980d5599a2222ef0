//! A test-only reference for the optimization passes: static analysis
//! and translation validation of the TOL's IR, one pass application at a
//! time.
//!
//! Co-simulation and the opcode-level gates prove the layer translates
//! correctly from outside. This reference checks the passes from inside,
//! in three layers:
//!
//! 1. **Dataflow** ([`dataflow`]) — definition/use sites and live
//!    intervals over the linear IR.
//! 2. **Structural invariants** ([`structural`]) — shape invariants per
//!    pass kind: single-assignment, no use of undefined or dead-killed
//!    registers, side effects and pinned guest state never dropped,
//!    branches stay terminal, scheduling respects dependences, register
//!    assignment is a live-range bijection inside the scratch window.
//! 3. **Translation validation** ([`tv`]) — proves each transformed block
//!    observationally equivalent to its input by symbolic evaluation,
//!    falling back to randomized differential execution against the
//!    reference host semantics.
//!
//! The tests apply every production pass (the six SBM passes and the BBM
//! peephole's two) to random IR blocks and to translated random guest
//! blocks and hold each application to [`check_pass`]; the whole
//! pipeline's output and register assignment to [`check_result`]; and
//! deliberately broken transforms to the reference itself.

#[path = "../common/mod.rs"]
mod common;
mod dataflow;
mod structural;
mod tv;

use common::{make_bb, random_ir_block, straightline};
use darco_host::{Exit, HAluOp, HReg, Width};
use darco_tol::config::TolConfig;
use darco_tol::ir::{self, IrBlock, IrInst, IrOp, IrReg, RegMap};
use darco_tol::opt::{self, OptScratch};
use darco_tol::translate::translate_region;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The transformation shape a pass is allowed to perform, selecting
/// which structural invariants apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// In-place operand/instruction rewriting (constprop, CSE).
    Rewrite,
    /// Tombstoning dead definitions (DCE).
    Dce,
    /// Inserting side-effect-free hint instructions (sw prefetch).
    Insert,
    /// Permuting instructions within dependence order (scheduling).
    Schedule,
}

/// A reference failure: which pass broke which invariant, with the IR
/// before and after the offending transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyFailure {
    /// Name of the pass that produced the bad block.
    pub pass: &'static str,
    /// The invariant that no longer holds.
    pub invariant: &'static str,
    /// Human-readable specifics (which op, which register, …).
    pub detail: String,
    /// Pretty-printed IR before the pass.
    pub pre_ir: String,
    /// Pretty-printed IR after the pass.
    pub post_ir: String,
}

impl VerifyFailure {
    /// Line diff of the pre/post IR, `-`/`+` marking changed lines.
    pub fn ir_diff(&self) -> String {
        let pre: Vec<&str> = self.pre_ir.lines().collect();
        let post: Vec<&str> = self.post_ir.lines().collect();
        let mut out = String::new();
        for i in 0..pre.len().max(post.len()) {
            match (pre.get(i), post.get(i)) {
                (Some(a), Some(b)) if a == b => {
                    out.push_str(&format!("  {a}\n"));
                }
                (a, b) => {
                    if let Some(a) = a {
                        out.push_str(&format!("- {a}\n"));
                    }
                    if let Some(b) = b {
                        out.push_str(&format!("+ {b}\n"));
                    }
                }
            }
        }
        out
    }
}

impl std::fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "pass `{}` violated invariant `{}`", self.pass, self.invariant)?;
        writeln!(f, "  {}", self.detail)?;
        write!(f, "{}", self.ir_diff())
    }
}

/// Shorthand used by the checkers to build a failure.
pub fn fail<T>(
    pass: &'static str,
    invariant: &'static str,
    detail: String,
    pre: &IrBlock,
    post: &IrBlock,
) -> Result<T, Box<VerifyFailure>> {
    Err(Box::new(VerifyFailure {
        pass,
        invariant,
        detail,
        pre_ir: ir::pretty(pre),
        post_ir: ir::pretty(post),
    }))
}

/// Checks one pass application: structural shape invariants for `kind`,
/// then translation validation of `post` against `pre`.
///
/// # Errors
///
/// The first [`VerifyFailure`] found, naming `pass`.
pub fn check_pass(
    pass: &'static str,
    kind: PassKind,
    pre: &IrBlock,
    post: &IrBlock,
) -> Result<(), Box<VerifyFailure>> {
    structural::check_transform(pass, kind, pre, post)?;
    tv::validate(pass, pre, post)?;
    Ok(())
}

/// End-to-end validation of the whole pipeline's output against the
/// original translation, plus the register-assignment check.
///
/// # Errors
///
/// The first [`VerifyFailure`] found.
pub fn check_result(
    original: &IrBlock,
    block: &IrBlock,
    map: &RegMap,
) -> Result<(), Box<VerifyFailure>> {
    structural::check_allocation("regalloc", block, map)?;
    tv::validate("pipeline", original, block)?;
    Ok(())
}

/// One production pass: its name, the shape it is held to, and the pass.
type Pass = (&'static str, PassKind, fn(&mut IrBlock, &mut OptScratch));

/// The SBM pipeline in production order, every switch on (what
/// `opt::optimize` runs with `opt_sw_prefetch`).
const SBM: [Pass; 6] = [
    ("constprop", PassKind::Rewrite, opt::constprop::run),
    ("cse", PassKind::Rewrite, opt::cse::run),
    ("constprop-cleanup", PassKind::Rewrite, opt::constprop::run),
    ("dce", PassKind::Dce, opt::dce::run),
    ("swprefetch", PassKind::Insert, |b, _| {
        opt::swprefetch::run(b);
    }),
    ("schedule", PassKind::Schedule, opt::schedule::run),
];

/// The BBM peephole, as `compile_bb` runs it.
const BBM: [Pass; 2] = [
    ("bbm-constprop", PassKind::Rewrite, opt::constprop::run),
    ("bbm-dce", PassKind::Dce, opt::dce::run),
];

/// Applies `passes` to `block` in order, holding each application to
/// the reference.
fn run_checked(block: &mut IrBlock, passes: &[Pass]) -> Result<(), Box<VerifyFailure>> {
    let mut scratch = OptScratch::default();
    for &(name, kind, run) in passes {
        let pre = block.clone();
        run(block, &mut scratch);
        check_pass(name, kind, &pre, block)?;
    }
    Ok(())
}

/// The blocks every pass is held to: 64 random IR blocks, then 32
/// translations of random straight-line guest basic blocks.
fn blocks() -> impl Iterator<Item = (String, IrBlock)> {
    let ir = (0u64..64).map(|case| {
        let mut rng = SmallRng::seed_from_u64(0x70_2001 + case);
        (format!("random IR {case}"), random_ir_block(&mut rng))
    });
    let guest = (0u64..32).map(|case| {
        let mut rng = SmallRng::seed_from_u64(0x70_4001 + case);
        let len = rng.gen_range(1usize..25);
        let body: Vec<_> = (0..len).map(|_| straightline(&mut rng)).collect();
        (format!("guest block {case}"), translate_region(&make_bb(&body).1))
    });
    ir.chain(guest)
}

/// Each SBM pass alone, and the BBM peephole pass by pass, never
/// breaks an invariant.
#[test]
fn every_pass_alone_and_the_bbm_peephole_pass_the_reference() {
    for (case, block) in blocks() {
        for pass in &SBM {
            run_checked(&mut block.clone(), std::slice::from_ref(pass))
                .unwrap_or_else(|f| panic!("{case}:\n{f}"));
        }
        run_checked(&mut block.clone(), &BBM).unwrap_or_else(|f| panic!("{case}:\n{f}"));
    }
}

/// The SBM pipeline passes the reference pass by pass (zero false
/// positives), ends where `opt::optimize` ends, and that output with its
/// register assignment passes the whole-pipeline check.
#[test]
fn the_pipeline_passes_the_reference_pass_by_pass_and_whole() {
    let cfg = TolConfig { opt_sw_prefetch: true, ..TolConfig::default() };
    let (mut cases, mut allocated) = (0u32, 0u32);
    for (case, original) in blocks() {
        cases += 1;
        let mut block = original.clone();
        run_checked(&mut block, &SBM).unwrap_or_else(|f| panic!("{case}: false positive:\n{f}"));
        // Register-pressure bailouts are legal, just rare.
        let Ok((optimized, map)) = opt::optimize(original.clone(), &cfg) else { continue };
        assert_eq!(optimized, block, "{case}: the pass list above is not opt::optimize's");
        check_result(&original, &optimized, &map).unwrap_or_else(|f| panic!("{case}:\n{f}"));
        allocated += 1;
    }
    assert!(4 * allocated >= 3 * cases, "too many pressure bailouts: {allocated}/{cases}");
}

/// `ops` as a block with one stub and the fall-through both `Halt`.
pub fn block(ops: Vec<IrInst>) -> IrBlock {
    IrBlock {
        ops: ops.into_iter().map(|inst| IrOp { inst, guest_idx: 0 }).collect(),
        stubs: vec![Exit::Halt],
        stub_guest_counts: vec![1],
        fallthrough: Exit::Halt,
        guest_len: 1,
    }
}

/// Pinned host register `r<i>`.
pub fn phys(i: u8) -> IrReg {
    IrReg::Phys(HReg(i))
}

/// Applies a broken `transform` to `pre` and returns what the reference
/// reports about it.
fn mutant(
    pass: &'static str,
    kind: PassKind,
    pre: IrBlock,
    transform: fn(&mut IrBlock),
) -> Box<VerifyFailure> {
    let mut post = pre.clone();
    transform(&mut post);
    check_pass(pass, kind, &pre, &post).expect_err("the reference missed the mutant")
}

/// A DCE that tombstones a live store is caught structurally, and the
/// report names the pass and the invariant and diffs the IR.
#[test]
fn dce_removing_a_live_store_is_caught() {
    let pre = block(vec![
        IrInst::St { rs: phys(1), base: phys(2), off: 0, width: Width::W4 },
        IrInst::AluI { op: HAluOp::Add, rd: phys(1), ra: phys(1), imm: 1 },
    ]);
    let f = mutant("dce", PassKind::Dce, pre, |b| b.ops[0].inst = IrInst::Nop);
    assert_eq!((f.pass, f.invariant), ("dce", "side-effecting instructions never removed"));
    let report = f.to_string();
    assert!(report.contains("pass `dce`"), "{report}");
    assert!(report.contains("- "), "diff shows the removed store: {report}");
}

/// A "constant folder" that miscomputes a constant is caught by
/// translation validation although the block stays structurally legal.
#[test]
fn a_wrong_fold_is_caught_by_translation_validation() {
    let pre = block(vec![IrInst::Li { rd: phys(1), imm: 5 }]);
    let f = mutant("constprop", PassKind::Rewrite, pre, |b| {
        b.ops[0].inst = IrInst::Li { rd: phys(1), imm: 6 };
    });
    assert_eq!((f.pass, f.invariant), ("constprop", "optimized block equivalent to snapshot"));
}

/// A scheduler that swaps dependent instructions is caught structurally.
#[test]
fn a_schedule_violating_raw_is_caught() {
    let pre = block(vec![
        IrInst::Li { rd: IrReg::Virt(0), imm: 7 },
        IrInst::Alu { op: HAluOp::Add, rd: phys(1), ra: phys(1), rb: IrReg::Virt(0) },
    ]);
    let f = mutant("schedule", PassKind::Schedule, pre, |b| b.ops.reverse());
    assert_eq!(f.pass, "schedule");
}
