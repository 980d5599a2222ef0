//! `darco-verify`: static analysis and translation validation for the
//! TOL's IR.
//!
//! A HW/SW co-designed processor's software layer is part of the trusted
//! computing base — a miscompiled superblock is an architectural bug of
//! the "processor". This module makes every optimization pass
//! self-checking, in three layers:
//!
//! 1. **Dataflow engine** ([`dataflow`]) — liveness, reaching
//!    definitions and use-def chains over the linear IR.
//! 2. **Structural verifier** ([`structural`]) — shape invariants per
//!    pass kind: single-assignment, no use of undefined or dead-killed
//!    registers, side effects and pinned guest state never dropped,
//!    branches stay terminal, scheduling respects dependences, register
//!    assignment is a live-range bijection inside the scratch window.
//! 3. **Translation validator** ([`tv`]) — proves each optimized block
//!    observationally equivalent to its pre-optimization snapshot by
//!    symbolic evaluation, falling back to randomized differential
//!    execution against the reference host semantics.
//!
//! The pass manager in [`crate::opt`] snapshots the block around every
//! pass and calls [`check_pass`]; a failure pinpoints the pass, the
//! violated invariant, and an IR diff. Verification is always on in
//! debug and test builds, and opt-in in release via
//! [`TolConfig::verify`](crate::TolConfig) or the `darco verify`
//! subcommand.

pub mod dataflow;
pub mod structural;
pub mod tv;

use crate::ir::{self, IrBlock, RegMap};

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

/// A verification failure: which pass broke which invariant, with the
/// IR before and after the offending transformation.
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
        writeln!(f, "verifier: pass `{}` violated invariant `{}`", self.pass, self.invariant)?;
        writeln!(f, "  {}", self.detail)?;
        write!(f, "{}", self.ir_diff())
    }
}

impl std::error::Error for VerifyFailure {}

/// Shorthand used by the checkers to build a failure.
pub(crate) fn fail<T>(
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

/// Per-pass transformation accounting: how often a pass ran and how
/// much it shrank the instruction stream. Deliberately holds no
/// wall-clock data — it is serialized into [`Report`] fingerprints that
/// must be bit-identical across reruns; pass timing travels separately
/// through [`Tol::pass_nanos`](crate::Tol::pass_nanos).
///
/// [`Report`]: ../../darco_core/struct.Report.html
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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

/// Counters describing how blocks were verified, reported by the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Blocks that went through full post-pipeline verification.
    pub blocks_verified: u64,
    /// Individual pass applications checked (structural + TV).
    pub passes_checked: u64,
    /// Translation validations discharged symbolically.
    pub tv_symbolic: u64,
    /// Translation validations that needed the differential fallback.
    pub tv_differential: u64,
    /// One sample per pass application, in pipeline order.
    pub passes: Vec<PassSample>,
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

fn count_proof(stats: &mut VerifyStats, proof: tv::Proof) {
    match proof {
        tv::Proof::Symbolic => stats.tv_symbolic += 1,
        tv::Proof::Differential => stats.tv_differential += 1,
    }
}

/// Verifies one pass application: structural shape invariants for
/// `kind`, then translation validation of `post` against `pre`.
///
/// # Errors
///
/// The first [`VerifyFailure`] found, naming `pass`.
pub fn check_pass(
    pass: &'static str,
    kind: PassKind,
    pre: &IrBlock,
    post: &IrBlock,
    stats: &mut VerifyStats,
) -> Result<(), Box<VerifyFailure>> {
    stats.passes_checked += 1;
    structural::check_transform(pass, kind, pre, post)?;
    let proof = tv::validate(pass, pre, post)?;
    count_proof(stats, proof);
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
    stats: &mut VerifyStats,
) -> Result<(), Box<VerifyFailure>> {
    structural::check_allocation("regalloc", block, map)?;
    let proof = tv::validate("pipeline", original, block)?;
    count_proof(stats, proof);
    stats.blocks_verified += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrInst, IrOp, IrReg};
    use darco_host::{Exit, HAluOp, HReg, Width};

    fn phys(i: u8) -> IrReg {
        IrReg::Phys(HReg(i))
    }

    fn block(ops: Vec<IrInst>) -> IrBlock {
        IrBlock {
            ops: ops.into_iter().map(|inst| IrOp { inst, guest_idx: 0 }).collect(),
            stubs: vec![],
            stub_guest_counts: vec![],
            fallthrough: Exit::Halt,
            guest_len: 1,
        }
    }

    #[test]
    fn failure_report_names_pass_invariant_and_diffs_ir() {
        // A "DCE" that drops a live store.
        let pre = block(vec![
            IrInst::St { rs: phys(1), base: phys(2), off: 0, width: Width::W4 },
            IrInst::AluI { op: HAluOp::Add, rd: phys(1), ra: phys(1), imm: 1 },
        ]);
        let mut post = pre.clone();
        post.ops[0].inst = IrInst::Nop;
        let mut stats = VerifyStats::default();
        let err = check_pass("dce", PassKind::Dce, &pre, &post, &mut stats).unwrap_err();
        assert_eq!(err.pass, "dce");
        assert_eq!(err.invariant, "side-effecting instructions never removed");
        let report = err.to_string();
        assert!(report.contains("pass `dce`"), "{report}");
        assert!(report.contains("- "), "diff shows the removed store: {report}");
    }

    #[test]
    fn stats_accumulate_per_check() {
        let b = block(vec![IrInst::AluI { op: HAluOp::Add, rd: phys(1), ra: phys(1), imm: 1 }]);
        let mut stats = VerifyStats::default();
        check_pass("constprop", PassKind::Rewrite, &b, &b.clone(), &mut stats).unwrap();
        assert_eq!(stats.passes_checked, 1);
        assert_eq!(stats.tv_symbolic, 1);
        assert_eq!(stats.tv_differential, 0);
    }
}
