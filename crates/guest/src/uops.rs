//! Pre-decoded block execution and lazy flag materialization.
//!
//! This is the executor the software layer's interpreter and the default
//! state checker run. [`crate::exec::step`] — decode-then-`match` on
//! [`Inst`] every step — is the independent, hand-written executor the
//! differential tests and `darco verify`'s checker hold it to;
//! [`ExecCtx::step`] produces bit-identical architectural state, memory
//! contents and [`StepInfo`] streams while doing strictly less work per
//! step:
//!
//! * **Decoded blocks.** Straight-line runs of instructions are decoded
//!   once into per-block [`ExecOp`] buffers: the [`Inst`], its length and
//!   the three predicates the loop asks of it on every execution. Blocks
//!   are cached direct-mapped by entry pc and invalidated by the
//!   per-page write-generation stamps the code cache's SMC check uses
//!   ([`GuestMem::page_gen`]): a block is valid while the stamps of its
//!   first and last byte's pages match the values seen at build time
//!   (block spans are < 4 KiB, so at most one page boundary is crossed).
//! * **Lazy EFLAGS.** Flag-writing arithmetic records `{op kind,
//!   operands}` in a [`LazyFlags`] side slot instead of computing the five
//!   flag bits; they are materialized into `cpu.flags` only when a
//!   consumer demands them — a conditional branch, a checker snapshot, or
//!   a `StepBoundary` state capture. Most definitions are overwritten
//!   before any consumer looks ([`FastStats::flag_defs`] against
//!   [`FastStats::flag_forces`]), so most materializations are elided
//!   entirely.
//!
//! # One dispatch loop, one `match`
//!
//! The semantics of every instruction are the arms of one private
//! function, `exec_op`, written to be read side by side with
//! [`crate::exec::exec_decoded`]. It is called from exactly one place,
//! [`ExecCtx`]'s private dispatch loop, which runs whole cached blocks:
//! a block is located and validated once, its ops are executed by
//! reference until one jumps or halts, the budget runs out or the
//! caller's per-op visitor breaks, and the loop then moves on to the
//! block at the new `eip`.
//! [`ExecCtx::run`] is that loop with a visitor that does nothing (the
//! state checker), [`ExecCtx::run_visiting`] hands each executed op to
//! the caller (the interpreter's cost stream), and [`ExecCtx::step`] is
//! the budget-of-one case whose visitor captures the [`StepInfo`].
//!
//! # Self-modifying code
//!
//! The oracle re-decodes from guest memory on every step, so a store that
//! rewrites an instruction is visible at the very next step. The fast
//! path preserves this: before every op the current block is revalidated
//! against the global write-generation counter (one integer compare when
//! nothing was written; two page-stamp lookups after any store anywhere),
//! and a stale block is discarded and rebuilt from current bytes before
//! the next op executes — also when the store sits earlier in the very
//! block that is running.

use crate::decode::{decode, DecodeError};
use crate::exec::{cond_holds, AccessList, Control, MemAccess, StepInfo, MAX_INST_LEN};
use crate::inst::{AluOp, FpOp, Gpr, Inst, MemRef, MemWidth, ShiftOp};
use crate::mem::GuestMem;
use crate::state::{CpuState, Flags};
use std::ops::ControlFlow;

/// Entries in the direct-mapped block cache.
pub const UOP_CACHE_ENTRIES: usize = 512;

/// Maximum ops per block. Bounds the span to `48 * MAX_INST_LEN = 576`
/// bytes — below the 4 KiB page size, so a block crosses at most one
/// page boundary and the first/last-byte stamp check in
/// `span_gen` covers every byte of the block.
pub const UOP_BLOCK_CAP: usize = 48;

/// Write-generation stamp covering `len` bytes at `pc`: the max of the
/// first and last byte's page stamps. Only valid for spans that cross at
/// most one page boundary (guaranteed by [`UOP_BLOCK_CAP`]).
#[inline]
fn span_gen(mem: &GuestMem, pc: u32, len: u32) -> u64 {
    let first = mem.page_gen(pc);
    let last = mem.page_gen(pc.wrapping_add(len.saturating_sub(1)));
    first.max(last)
}

/// A pending (not yet materialized) flag definition. Each variant holds
/// just enough to reproduce, bit for bit, the [`Flags`] value the oracle
/// would have computed eagerly at the defining instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LazyFlags {
    /// `cpu.flags` is current; nothing pending.
    #[default]
    Current,
    /// `Flags::add(a, b)`.
    Add(u32, u32),
    /// `Flags::sub(a, b)` (also `Cmp` and `Neg`, the latter as
    /// `Sub(0, v)` whose borrow-out is exactly `v != 0`).
    Sub(u32, u32),
    /// `Flags::logic(r)` — result flags with `cf`/`of` cleared.
    Logic(u32),
    /// `Flags::from_result(r)` — `Idiv`.
    Result(u32),
    /// Non-zero-amount shift: result flags, carry from the shifted-out
    /// bit, `of` cleared.
    ShiftCf {
        /// Shift result.
        result: u32,
        /// Last bit shifted out.
        cf: bool,
    },
    /// `Imul`: result flags with `cf = of = overflow`.
    MulOv {
        /// Truncated product.
        result: u32,
        /// Whether the wide product overflowed 32 bits.
        ov: bool,
    },
}

impl LazyFlags {
    /// Whether a definition is pending (i.e. `cpu.flags` is stale).
    #[inline]
    pub fn is_pending(&self) -> bool {
        *self != LazyFlags::Current
    }

    /// Materializes the pending definition into `cpu.flags` (bit-exact
    /// with the eager oracle) and marks the slot current.
    #[inline]
    pub fn force(&mut self, cpu: &mut CpuState) {
        let f = match *self {
            LazyFlags::Current => return,
            LazyFlags::Add(a, b) => Flags::add(a, b),
            LazyFlags::Sub(a, b) => Flags::sub(a, b),
            LazyFlags::Logic(r) => Flags::logic(r),
            LazyFlags::Result(r) => Flags::from_result(r),
            LazyFlags::ShiftCf { result, cf } => {
                let mut f = Flags::from_result(result);
                f.cf = cf;
                f.of = false;
                f
            }
            LazyFlags::MulOv { result, ov } => {
                let mut f = Flags::from_result(result);
                f.cf = ov;
                f.of = ov;
                f
            }
        };
        cpu.flags = f;
        *self = LazyFlags::Current;
    }
}

/// One pre-decoded instruction and the static facts the dispatch loop
/// and its visitors read on every execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecOp {
    /// The decoded instruction.
    pub inst: Inst,
    /// Encoded length in bytes.
    pub len: u8,
    /// Byte offset of this op from its block's entry pc.
    off: u16,
    /// `inst.writes_flags()`.
    pub wf: bool,
    /// `inst.reads_flags()`.
    pub rf: bool,
    /// `inst.is_block_end()`.
    pub block_end: bool,
}

impl ExecOp {
    fn new(inst: Inst, len: usize, off: u16) -> ExecOp {
        ExecOp {
            inst,
            len: len as u8,
            off,
            wf: inst.writes_flags(),
            rf: inst.reads_flags(),
            block_end: inst.is_block_end(),
        }
    }

    /// The [`StepInfo`] the oracle reports for this instruction, given
    /// how it came out.
    #[inline]
    pub fn step_info(&self, control: Control, accesses: &AccessList) -> StepInfo {
        StepInfo { inst: self.inst, len: self.len as usize, control, accesses: *accesses }
    }
}

/// A cached run of pre-decoded ops starting at `entry`.
#[derive(Debug, Clone)]
struct UopBlock {
    entry: u32,
    /// Total encoded bytes covered by `ops`.
    span: u32,
    /// [`span_gen`] over the block bytes at build time.
    gen: u64,
    /// Global write-generation last seen while this block validated;
    /// lets the per-step check short-circuit to one integer compare
    /// when nothing has been written since.
    wg: u64,
    ops: Vec<ExecOp>,
}

impl UopBlock {
    /// Cheap per-step validation: identical write-generation means
    /// nothing anywhere was written; otherwise re-check the page stamps
    /// (detects self-modifying stores to this block's pages).
    #[inline]
    fn valid(&mut self, mem: &GuestMem) -> bool {
        let wg = mem.write_gen();
        if self.wg == wg {
            return true;
        }
        if span_gen(mem, self.entry, self.span) == self.gen {
            self.wg = wg;
            return true;
        }
        false
    }
}

/// Engagement and elision counters for the fast path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastStats {
    /// Ops executed from a cached block (entry hits + continuations).
    pub uop_hits: u64,
    /// Blocks decoded into [`ExecOp`] buffers.
    pub blocks_built: u64,
    /// Cached blocks discarded after a generation-stamp mismatch
    /// (self-modifying code).
    pub invalidations: u64,
    /// Flag-writing instructions executed (lazy definitions recorded).
    pub flag_defs: u64,
    /// Pending definitions actually materialized; `flag_defs -
    /// flag_forces` definitions were dead and never computed.
    pub flag_forces: u64,
}

/// Execution context for the fast path: the decoded-block cache, an
/// intra-block cursor, the lazy-flags slot, and counters.
///
/// Drop-in alternative to [`crate::exec::step`]: [`ExecCtx::step`]
/// produces identical [`StepInfo`] values and identical architectural
/// state — except that `cpu.flags` may be stale while a [`LazyFlags`]
/// definition is pending. Every consumer of flags must call
/// [`ExecCtx::force_flags`] first (conditional branches inside
/// [`ExecCtx::step`] do this automatically).
#[derive(Debug, Clone)]
pub struct ExecCtx {
    blocks: Box<[Option<UopBlock>]>,
    /// Continuation cursor: `(slot, op index)` of the next sequential op
    /// when the previous step fell through inside a block.
    cur: Option<(usize, usize)>,
    /// The pending flag definition, if any.
    pub lazy: LazyFlags,
    /// Engagement counters.
    pub stats: FastStats,
}

impl Default for ExecCtx {
    fn default() -> ExecCtx {
        ExecCtx::new()
    }
}

impl ExecCtx {
    /// Creates an empty context.
    pub fn new() -> ExecCtx {
        ExecCtx {
            blocks: std::iter::repeat_with(|| None).take(UOP_CACHE_ENTRIES).collect(),
            cur: None,
            lazy: LazyFlags::Current,
            stats: FastStats::default(),
        }
    }

    /// Materializes any pending flag definition into `cpu.flags`.
    /// Consumers of architectural flags (checker snapshots, state
    /// capture at `StepBoundary`) must call this before reading.
    #[inline]
    pub fn force_flags(&mut self, cpu: &mut CpuState) {
        if self.lazy.is_pending() {
            self.stats.flag_forces += 1;
            self.lazy.force(cpu);
        }
    }

    /// Discards any pending flag definition *without* materializing it.
    /// For error paths that throw away the CPU state the definition
    /// refers to.
    pub fn discard_pending(&mut self) {
        self.lazy = LazyFlags::Current;
        self.cur = None;
    }

    /// Executes up to `n` instructions from `cpu.eip`, whole cached
    /// blocks at a time, and adds the number executed to `retired` —
    /// also when a fault ends the chunk. Stops early at `Halt` (which
    /// counts as executed) and does nothing on a halted CPU, so `n`
    /// calls of [`ExecCtx::step`] and one `run(.., n, ..)` leave the
    /// same state, memory and [`FastStats`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when execution reaches bytes that do
    /// not decode; every instruction before them has executed and is
    /// counted in `retired`, and `cpu.eip` is the faulting address.
    pub fn run(
        &mut self,
        cpu: &mut CpuState,
        mem: &mut GuestMem,
        n: u64,
        retired: &mut u64,
    ) -> Result<(), DecodeError> {
        self.run_visiting(cpu, mem, n, retired, |_, _, _, _| ControlFlow::Continue(()))
    }

    /// [`ExecCtx::run`] calling `visit(pc, op, control, accesses)` after
    /// each instruction has executed (so `cpu` and `mem` already show
    /// its effects); a `Break` ends the chunk after that instruction.
    ///
    /// # Errors
    ///
    /// As [`ExecCtx::run`]; the faulting instruction is never visited.
    pub fn run_visiting(
        &mut self,
        cpu: &mut CpuState,
        mem: &mut GuestMem,
        n: u64,
        retired: &mut u64,
        visit: impl FnMut(u32, &ExecOp, Control, &AccessList) -> ControlFlow<()>,
    ) -> Result<(), DecodeError> {
        if n == 0 || cpu.halted {
            return Ok(());
        }
        self.dispatch(cpu, mem, n, retired, visit)
    }

    /// Executes the instruction at `cpu.eip`: the `n = 1` case of
    /// [`ExecCtx::run`] that also hands back the [`StepInfo`].
    /// Semantically identical to [`crate::exec::step`] modulo lazy flags
    /// (see type docs).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the bytes at `eip` do not decode;
    /// the CPU state is left unchanged (though flags pending from
    /// *earlier* steps stay pending — callers that discard the state on
    /// error should call [`ExecCtx::discard_pending`]).
    pub fn step(
        &mut self,
        cpu: &mut CpuState,
        mem: &mut GuestMem,
    ) -> Result<StepInfo, DecodeError> {
        debug_assert!(!cpu.halted, "step() after halt");
        let mut info = None;
        self.dispatch(cpu, mem, 1, &mut 0, |_, op, control, accesses| {
            info = Some(op.step_info(control, accesses));
            ControlFlow::Break(())
        })?;
        Ok(info.expect("dispatch executes one op or faults"))
    }

    /// The dispatch loop — the only caller of `exec_op`. Executes ops
    /// from `cpu.eip` until `budget` (≥ 1) of them have run, one halts,
    /// or `visit` breaks, crossing from block to block at jumps and
    /// block ends.
    ///
    /// A block is located and validated once on entry; inside it the
    /// only re-check is one integer compare per op against the global
    /// write generation, and the page stamps are consulted again only
    /// after something was written — so a store that rewrites a later
    /// instruction of the running block takes effect at the very next
    /// op, exactly as it does when stepping. The continuation cursor is
    /// left where a following call has to resume.
    fn dispatch(
        &mut self,
        cpu: &mut CpuState,
        mem: &mut GuestMem,
        budget: u64,
        retired: &mut u64,
        mut visit: impl FnMut(u32, &ExecOp, Control, &AccessList) -> ControlFlow<()>,
    ) -> Result<(), DecodeError> {
        let mut left = budget;
        // Counted in locals: the `exec_op` call could alias `self.stats`
        // as far as the optimizer can tell.
        let (mut flag_defs, mut flag_forces) = (0u64, 0u64);
        let result = loop {
            let (slot, mut at, built) = match self.locate(cpu.eip, mem) {
                Ok(found) => found,
                Err(e) => break Err(e),
            };
            let block = self.blocks[slot].as_mut().expect("locate fills the slot it returns");
            let n_ops = block.ops.len();
            let first = at;
            let mut in_block;
            let done = loop {
                let op = &block.ops[at];
                flag_defs += u64::from(op.wf);
                // `Jcc` will force; count it here where the counters
                // live (only conditional branches read flags).
                flag_forces += u64::from(op.rf && self.lazy.is_pending());
                let pc = cpu.eip;
                let next = pc.wrapping_add(op.len as u32);
                let mut accesses = AccessList::default();
                let control = exec_op(&op.inst, cpu, mem, &mut self.lazy, next, &mut accesses);
                cpu.eip = match control {
                    Control::Next => next,
                    Control::Jump { target, .. } => target,
                    Control::Halt => pc,
                };
                let flow = visit(pc, op, control, &accesses);
                at += 1;
                left -= 1;
                in_block = control == Control::Next && at < n_ops;
                if control == Control::Halt || left == 0 || flow.is_break() {
                    break true;
                }
                // Off the end of the block, through a jump, or onto an
                // op a store has just rewritten: `locate` finds what
                // runs next (and drops the stale block).
                if !in_block || !block.valid(mem) {
                    break false;
                }
            };
            self.cur = in_block.then_some((slot, at));
            // The first op of a block built just now is not a hit.
            self.stats.uop_hits += (at - first) as u64 - u64::from(built);
            if done {
                break Ok(());
            }
        };
        self.stats.flag_defs += flag_defs;
        self.stats.flag_forces += flag_forces;
        *retired += budget - left;
        result
    }

    /// Finds the validated block that holds the op at `pc`: the
    /// continuation cursor if it points there, else the block entered at
    /// `pc`, else a block built from the current bytes. Returns
    /// `(slot, op index, built just now)`.
    fn locate(&mut self, pc: u32, mem: &GuestMem) -> Result<(usize, usize, bool), DecodeError> {
        if let Some((slot, idx)) = self.cur {
            let resumes_here = self.blocks[slot].as_ref().is_some_and(|b| {
                idx < b.ops.len() && b.entry.wrapping_add(b.ops[idx].off as u32) == pc
            });
            if resumes_here && self.still_valid(slot, mem) {
                return Ok((slot, idx, false));
            }
        }
        let slot = pc as usize & (UOP_CACHE_ENTRIES - 1);
        let entered_here = self.blocks[slot].as_ref().is_some_and(|b| b.entry == pc);
        if entered_here && self.still_valid(slot, mem) {
            return Ok((slot, 0, false));
        }
        let block = build_block(pc, mem)?;
        self.stats.blocks_built += 1;
        self.blocks[slot] = Some(block);
        Ok((slot, 0, true))
    }

    /// Whether the block in `slot` still matches guest memory; a stale
    /// one is dropped and counted as an invalidation.
    fn still_valid(&mut self, slot: usize, mem: &GuestMem) -> bool {
        let valid = self.blocks[slot].as_mut().is_some_and(|b| b.valid(mem));
        if !valid {
            self.stats.invalidations += 1;
            self.blocks[slot] = None;
        }
        valid
    }
}

/// Decodes a run of instructions starting at `pc` into a block. The
/// block ends at the first block-ending instruction, at
/// [`UOP_BLOCK_CAP`] ops, or just before a pc that fails to decode (the
/// error then surfaces when execution actually reaches it, exactly as
/// the per-step oracle would report it).
///
/// # Errors
///
/// Returns a [`DecodeError`] only if the *first* instruction fails to
/// decode.
fn build_block(pc: u32, mem: &GuestMem) -> Result<UopBlock, DecodeError> {
    let mut ops = Vec::with_capacity(8);
    let mut p = pc;
    loop {
        let mut window = [0u8; MAX_INST_LEN];
        mem.read_bytes(p, &mut window);
        let (inst, len) = match decode(&window) {
            Ok(d) => d,
            Err(e) if ops.is_empty() => return Err(e),
            Err(_) => break,
        };
        let op = ExecOp::new(inst, len, p.wrapping_sub(pc) as u16);
        let end = op.block_end;
        ops.push(op);
        p = p.wrapping_add(len as u32);
        if end || ops.len() >= UOP_BLOCK_CAP {
            break;
        }
    }
    let span = p.wrapping_sub(pc);
    Ok(UopBlock { entry: pc, span, gen: span_gen(mem, pc, span), wg: mem.write_gen(), ops })
}

/// Effective address of a memory operand: `disp + base + (index <<
/// scale)`, wrapping.
#[inline]
fn ea(m: &MemRef, cpu: &CpuState) -> u32 {
    let mut a = m.disp as u32;
    if let Some(b) = m.base {
        a = a.wrapping_add(cpu.gpr(b));
    }
    if let Some(i) = m.index {
        a = a.wrapping_add(cpu.gpr(i) << m.scale as u32);
    }
    a
}

/// ALU result, with the flag definition recorded instead of computed.
#[inline]
fn alu_lazy(op: AluOp, a: u32, b: u32, lazy: &mut LazyFlags) -> u32 {
    let (r, def) = match op {
        AluOp::Add => (a.wrapping_add(b), LazyFlags::Add(a, b)),
        AluOp::Sub => (a.wrapping_sub(b), LazyFlags::Sub(a, b)),
        AluOp::And => (a & b, LazyFlags::Logic(a & b)),
        AluOp::Or => (a | b, LazyFlags::Logic(a | b)),
        AluOp::Xor => (a ^ b, LazyFlags::Logic(a ^ b)),
    };
    *lazy = def;
    r
}

/// Shift by a non-zero amount (already masked to `1..32`), with the flag
/// definition recorded instead of computed.
#[inline]
fn shift_lazy(op: ShiftOp, v: u32, amt: u32, lazy: &mut LazyFlags) -> u32 {
    debug_assert!(amt != 0 && amt < 32);
    let (r, cf) = match op {
        ShiftOp::Shl => (v << amt, (v >> (32 - amt)) & 1 != 0),
        ShiftOp::Shr => (v >> amt, (v >> (amt - 1)) & 1 != 0),
        ShiftOp::Sar => (((v as i32) >> amt) as u32, ((v as i32) >> (amt - 1)) & 1 != 0),
    };
    *lazy = LazyFlags::ShiftCf { result: r, cf };
    r
}

/// Executes one decoded instruction whose successor is at `next`. Laid
/// out arm for arm like [`crate::exec::exec_decoded`], which it must
/// equal in state, memory, accesses and control; the one difference is
/// that a flag writer records a [`LazyFlags`] definition instead of
/// writing `cpu.flags`, and `Jcc` forces the pending one. The caller
/// moves `eip`.
// Measured, not assumed (EXPERIMENTS.md "One `match` for the guest fast
// executor"): plain `#[inline]` or none costs `ExecCtx::run` ~12 %.
#[inline(always)]
fn exec_op(
    inst: &Inst,
    cpu: &mut CpuState,
    mem: &mut GuestMem,
    lazy: &mut LazyFlags,
    next: u32,
    accesses: &mut AccessList,
) -> Control {
    use Inst::*;
    match *inst {
        Nop | Syscall => {}
        Halt => {
            cpu.halted = true;
            return Control::Halt;
        }
        MovRR { dst, src } => cpu.set_gpr(dst, cpu.gpr(src)),
        MovRI { dst, imm } => cpu.set_gpr(dst, imm as u32),
        Load { dst, addr } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: false });
            cpu.set_gpr(dst, mem.read_u32(a));
        }
        Store { addr, src } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: true });
            mem.write_u32(a, cpu.gpr(src));
        }
        StoreI { addr, imm } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: true });
            mem.write_u32(a, imm as u32);
        }
        LoadZx { dst, addr, width } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: width.bytes(), is_store: false });
            let v = match width {
                MemWidth::B1 => mem.read_u8(a) as u32,
                MemWidth::B2 => mem.read_u16(a) as u32,
            };
            cpu.set_gpr(dst, v);
        }
        LoadSx { dst, addr, width } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: width.bytes(), is_store: false });
            let v = match width {
                MemWidth::B1 => mem.read_u8(a) as i8 as i32 as u32,
                MemWidth::B2 => mem.read_u16(a) as i16 as i32 as u32,
            };
            cpu.set_gpr(dst, v);
        }
        StoreN { addr, src, width } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: width.bytes(), is_store: true });
            match width {
                MemWidth::B1 => mem.write_u8(a, cpu.gpr(src) as u8),
                MemWidth::B2 => mem.write_u16(a, cpu.gpr(src) as u16),
            }
        }
        Lea { dst, addr } => cpu.set_gpr(dst, ea(&addr, cpu)),
        AluRR { op, dst, src } => {
            let r = alu_lazy(op, cpu.gpr(dst), cpu.gpr(src), lazy);
            cpu.set_gpr(dst, r);
        }
        AluRI { op, dst, imm } => {
            let r = alu_lazy(op, cpu.gpr(dst), imm as u32, lazy);
            cpu.set_gpr(dst, r);
        }
        AluRM { op, dst, addr } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: false });
            let r = alu_lazy(op, cpu.gpr(dst), mem.read_u32(a), lazy);
            cpu.set_gpr(dst, r);
        }
        AluMR { op, addr, src } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: false });
            accesses.push(MemAccess { addr: a, size: 4, is_store: true });
            let r = alu_lazy(op, mem.read_u32(a), cpu.gpr(src), lazy);
            mem.write_u32(a, r);
        }
        CmpRR { a, b } => *lazy = LazyFlags::Sub(cpu.gpr(a), cpu.gpr(b)),
        CmpRI { a, imm } => *lazy = LazyFlags::Sub(cpu.gpr(a), imm as u32),
        TestRR { a, b } => *lazy = LazyFlags::Logic(cpu.gpr(a) & cpu.gpr(b)),
        Shift { op, dst, amount } => {
            // A zero amount leaves the value *and* the pending flag
            // definition untouched (the oracle preserves flags here).
            let amt = amount as u32 & 31;
            if amt != 0 {
                let r = shift_lazy(op, cpu.gpr(dst), amt, lazy);
                cpu.set_gpr(dst, r);
            }
        }
        ShiftCl { op, dst } => {
            // The CL form always (re)defines flags, even at amount zero.
            let amt = cpu.gpr(Gpr::Ecx) & 31;
            if amt != 0 {
                let r = shift_lazy(op, cpu.gpr(dst), amt, lazy);
                cpu.set_gpr(dst, r);
            } else {
                *lazy = LazyFlags::Logic(cpu.gpr(dst));
            }
        }
        Imul { dst, src } => {
            let a = cpu.gpr(dst) as i32 as i64;
            let b = cpu.gpr(src) as i32 as i64;
            let wide = a * b;
            let r = wide as i32;
            cpu.set_gpr(dst, r as u32);
            *lazy = LazyFlags::MulOv { result: r as u32, ov: wide != r as i64 };
        }
        Idiv { dst, src } => {
            let a = cpu.gpr(dst) as i32;
            let b = cpu.gpr(src) as i32;
            let r = if b == 0 { 0 } else { a.wrapping_div(b) };
            cpu.set_gpr(dst, r as u32);
            *lazy = LazyFlags::Result(r as u32);
        }
        Neg { dst } => {
            // `Flags::sub(0, v)` borrows exactly when `v != 0`, which is
            // the oracle's explicit `cf = v != 0` fixup.
            let v = cpu.gpr(dst);
            cpu.set_gpr(dst, 0u32.wrapping_sub(v));
            *lazy = LazyFlags::Sub(0, v);
        }
        Not { dst } => cpu.set_gpr(dst, !cpu.gpr(dst)),
        Push { src } => {
            let sp = cpu.gpr(Gpr::Esp).wrapping_sub(4);
            cpu.set_gpr(Gpr::Esp, sp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: true });
            mem.write_u32(sp, cpu.gpr(src));
        }
        Pop { dst } => {
            let sp = cpu.gpr(Gpr::Esp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: false });
            let v = mem.read_u32(sp);
            cpu.set_gpr(Gpr::Esp, sp.wrapping_add(4));
            cpu.set_gpr(dst, v);
        }
        Jcc { cond, target } => {
            lazy.force(cpu);
            return if cond_holds(cond, cpu.flags) {
                Control::Jump { target, taken: true }
            } else {
                Control::Jump { target: next, taken: false }
            };
        }
        Jmp { target } => return Control::Jump { target, taken: true },
        JmpInd { reg } => return Control::Jump { target: cpu.gpr(reg), taken: true },
        JmpMem { addr } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 4, is_store: false });
            return Control::Jump { target: mem.read_u32(a), taken: true };
        }
        Call { target } => {
            let sp = cpu.gpr(Gpr::Esp).wrapping_sub(4);
            cpu.set_gpr(Gpr::Esp, sp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: true });
            mem.write_u32(sp, next);
            return Control::Jump { target, taken: true };
        }
        CallInd { reg } => {
            let target = cpu.gpr(reg);
            let sp = cpu.gpr(Gpr::Esp).wrapping_sub(4);
            cpu.set_gpr(Gpr::Esp, sp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: true });
            mem.write_u32(sp, next);
            return Control::Jump { target, taken: true };
        }
        Ret => {
            let sp = cpu.gpr(Gpr::Esp);
            accesses.push(MemAccess { addr: sp, size: 4, is_store: false });
            let target = mem.read_u32(sp);
            cpu.set_gpr(Gpr::Esp, sp.wrapping_add(4));
            return Control::Jump { target, taken: true };
        }
        FMovRR { dst, src } => cpu.set_fpr(dst, cpu.fpr(src)),
        FLoad { dst, addr } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 8, is_store: false });
            cpu.set_fpr(dst, mem.read_f64(a));
        }
        FStore { addr, src } => {
            let a = ea(&addr, cpu);
            accesses.push(MemAccess { addr: a, size: 8, is_store: true });
            mem.write_f64(a, cpu.fpr(src));
        }
        FArith { op, dst, src } => {
            let a = cpu.fpr(dst);
            let b = cpu.fpr(src);
            let r = match op {
                FpOp::Add => a + b,
                FpOp::Sub => a - b,
                FpOp::Mul => a * b,
                FpOp::Div => a / b,
            };
            cpu.set_fpr(dst, r);
        }
        CvtIF { dst, src } => cpu.set_fpr(dst, cpu.gpr(src) as i32 as f64),
        CvtFI { dst, src } => {
            let v = cpu.fpr(src);
            let r = if v.is_nan() { 0 } else { v.clamp(i32::MIN as f64, i32::MAX as f64) as i32 };
            cpu.set_gpr(dst, r as u32);
        }
    }
    Control::Next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::exec;
    use crate::inst::{AluOp, Cond, FpOp, FpReg, MemRef, MemWidth, Scale, ShiftOp};

    /// Runs a program to halt under both paths, forcing flags at every
    /// step, and asserts identical StepInfo streams, architectural
    /// state and memory.
    fn assert_paths_agree(base: u32, bytes: &[u8], extra_mem: &[(u32, u32)], max_steps: usize) {
        let mut mem_o = GuestMem::new();
        mem_o.write_bytes(base, bytes);
        let mut mem_f = GuestMem::new();
        mem_f.write_bytes(base, bytes);
        for &(a, v) in extra_mem {
            mem_o.write_u32(a, v);
            mem_f.write_u32(a, v);
        }
        let mut cpu_o = CpuState::at(base);
        cpu_o.set_gpr(Gpr::Esp, 0x8_0000);
        let mut cpu_f = cpu_o.clone();
        let mut ctx = ExecCtx::new();
        for step_no in 0..max_steps {
            if cpu_o.halted {
                break;
            }
            let io = exec::step(&mut cpu_o, &mut mem_o);
            let fo = ctx.step(&mut cpu_f, &mut mem_f);
            match (io, fo) {
                (Ok(io), Ok(fo)) => {
                    assert_eq!(io, fo, "StepInfo diverged at step {step_no}");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "decode errors diverged at step {step_no}");
                    break;
                }
                (a, b) => panic!("one path errored at step {step_no}: {a:?} vs {b:?}"),
            }
            ctx.force_flags(&mut cpu_f);
            assert!(cpu_o.arch_eq(&cpu_f), "state diverged at step {step_no}");
            assert_eq!(mem_o.first_difference(&mem_f), None, "memory diverged at step {step_no}");
        }
        assert_eq!(cpu_o.halted, cpu_f.halted);
    }

    fn assemble(base: u32, insts: &[Inst]) -> Vec<u8> {
        let mut a = Asm::new(base);
        for i in insts {
            a.push(*i);
        }
        a.push(Inst::Halt);
        a.assemble().bytes
    }

    #[test]
    fn mixed_program_matches_oracle() {
        let base = 0x1000;
        let prog = assemble(
            base,
            &[
                Inst::MovRI { dst: Gpr::Eax, imm: 7 },
                Inst::MovRI { dst: Gpr::Ebx, imm: 5 },
                Inst::Imul { dst: Gpr::Eax, src: Gpr::Ebx },
                Inst::AluRI { op: AluOp::Sub, dst: Gpr::Eax, imm: 35 },
                Inst::MovRI { dst: Gpr::Esi, imm: 0x4000 },
                Inst::StoreI { addr: MemRef::base(Gpr::Esi, 0), imm: 10 },
                Inst::AluMR { op: AluOp::Add, addr: MemRef::base(Gpr::Esi, 0), src: Gpr::Ebx },
                Inst::Load { dst: Gpr::Edx, addr: MemRef::base(Gpr::Esi, 0) },
                Inst::Push { src: Gpr::Edx },
                Inst::Pop { dst: Gpr::Edi },
                Inst::Neg { dst: Gpr::Edi },
                Inst::Not { dst: Gpr::Edi },
                Inst::Shift { op: ShiftOp::Shl, dst: Gpr::Ebx, amount: 3 },
                Inst::Shift { op: ShiftOp::Sar, dst: Gpr::Ebx, amount: 1 },
                Inst::MovRI { dst: Gpr::Ecx, imm: 0 },
                Inst::ShiftCl { op: ShiftOp::Shr, dst: Gpr::Ebx },
                Inst::CvtIF { dst: FpReg(0), src: Gpr::Ebx },
                Inst::FArith { op: FpOp::Mul, dst: FpReg(0), src: FpReg(0) },
                Inst::FStore { addr: MemRef::base(Gpr::Esi, 8), src: FpReg(0) },
                Inst::FLoad { dst: FpReg(1), addr: MemRef::base(Gpr::Esi, 8) },
                Inst::CvtFI { dst: Gpr::Eax, src: FpReg(1) },
            ],
        );
        assert_paths_agree(base, &prog, &[], 1000);
    }

    #[test]
    fn loop_with_conditional_branches_matches_oracle() {
        let base = 0x2000;
        let mut a = Asm::new(base);
        let top = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 0 });
        a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 0 });
        a.bind(top);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Ebx, src: Gpr::Eax });
        a.push(Inst::CmpRI { a: Gpr::Eax, imm: 50 });
        a.push_jcc(Cond::Ne, top);
        a.push(Inst::Halt);
        let prog = a.assemble();
        assert_paths_agree(base, &prog.bytes, &[], 10_000);
    }

    #[test]
    fn call_ret_and_indirect_jumps_match_oracle() {
        let base = 0x3000;
        let table = 0x9000u32;
        let mut a = Asm::new(base);
        let func = a.fresh_label();
        let done = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 41 });
        a.push_call(func);
        a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 0 });
        a.push(Inst::JmpMem {
            addr: MemRef {
                base: None,
                index: Some(Gpr::Ecx),
                scale: Scale::S4,
                disp: table as i32,
            },
        });
        a.bind(func);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
        a.push(Inst::Ret);
        a.bind(done);
        a.push(Inst::Halt);
        let prog = a.assemble();
        let entry0 = prog.label_addr(done);
        assert_paths_agree(base, &prog.bytes, &[(table, entry0)], 1000);
    }

    /// A store that rewrites an instruction inside a cached block must
    /// invalidate the block and be visible at the very next step.
    #[test]
    fn smc_invalidates_cached_block() {
        let base = 0x4000;
        // eax = 1; store rewrites the *following* MovRI's immediate
        // field; the rewritten value must be observed.
        let mut a = Asm::new(base);
        a.push(Inst::MovRI { dst: Gpr::Eax, imm: 1 });
        // Run once to learn the layout: we need the pc of the final MovRI.
        a.push(Inst::Nop);
        a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 0x11 });
        a.push(Inst::Halt);
        let prog = a.assemble();

        // Pass 1: warm the uop cache with the original bytes.
        let mut mem = GuestMem::new();
        mem.write_bytes(base, &prog.bytes);
        let mut ctx = ExecCtx::new();
        let mut cpu = CpuState::at(base);
        while !cpu.halted {
            ctx.step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.gpr(Gpr::Ebx), 0x11);
        assert!(ctx.stats.blocks_built > 0);

        // Pass 2: patch the MovRI immediate in guest memory, then
        // re-run from the entry. The cached block must be invalidated.
        let mut tmp = Vec::new();
        let pre = crate::encode::encode(&Inst::MovRI { dst: Gpr::Eax, imm: 1 }, &mut tmp)
            + crate::encode::encode(&Inst::Nop, &mut tmp);
        let movri_pc = base + pre as u32;
        // MovRI (short form) is opcode + reg byte + imm8: patch the imm.
        mem.write_u8(movri_pc + 2, 0x22);
        let built_before = ctx.stats.blocks_built;
        let mut cpu = CpuState::at(base);
        while !cpu.halted {
            ctx.step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(cpu.gpr(Gpr::Ebx), 0x22, "stale micro-op block served after SMC");
        assert!(ctx.stats.invalidations > 0, "no invalidation recorded");
        assert!(ctx.stats.blocks_built > built_before, "block was not rebuilt");
    }

    /// Dead flag definitions must be elided: only consumers force.
    #[test]
    fn lazy_flags_elide_dead_definitions() {
        let base = 0x5000;
        let prog = assemble(
            base,
            &[
                // Four flag defs, no consumer in between.
                Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 },
                Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 2 },
                Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 3 },
                Inst::CmpRI { a: Gpr::Eax, imm: 6 },
            ],
        );
        let mut mem = GuestMem::new();
        mem.write_bytes(base, &prog);
        let mut ctx = ExecCtx::new();
        let mut cpu = CpuState::at(base);
        while !cpu.halted {
            ctx.step(&mut cpu, &mut mem).unwrap();
        }
        assert_eq!(ctx.stats.flag_defs, 4);
        assert_eq!(ctx.stats.flag_forces, 0, "no consumer ran, nothing should materialize");
        // The final CmpRI is still pending; forcing it must yield ZF.
        ctx.force_flags(&mut cpu);
        assert_eq!(ctx.stats.flag_forces, 1);
        assert!(cpu.flags.zf);
    }

    /// Zero-amount immediate shifts preserve a pending definition.
    #[test]
    fn zero_shift_preserves_pending_flags() {
        let base = 0x6000;
        let prog = assemble(
            base,
            &[
                Inst::MovRI { dst: Gpr::Eax, imm: 5 },
                Inst::CmpRI { a: Gpr::Eax, imm: 5 },
                Inst::Shift { op: ShiftOp::Shl, dst: Gpr::Eax, amount: 0 },
            ],
        );
        let mut mem = GuestMem::new();
        mem.write_bytes(base, &prog);
        let mut ctx = ExecCtx::new();
        let mut cpu = CpuState::at(base);
        while !cpu.halted {
            ctx.step(&mut cpu, &mut mem).unwrap();
        }
        ctx.force_flags(&mut cpu);
        assert!(cpu.flags.zf, "zero shift must not clobber the pending compare");
        assert_eq!(cpu.gpr(Gpr::Eax), 5);
    }

    // ---- `run`: one test per way a chunk can end -------------------

    fn load(base: u32, bytes: &[u8]) -> (GuestMem, CpuState) {
        let mut mem = GuestMem::new();
        mem.write_bytes(base, bytes);
        (mem, CpuState::at(base))
    }

    /// Encoded length of `insts`, i.e. the offset of what follows them.
    fn len_of(insts: &[Inst]) -> u32 {
        let mut tmp = Vec::new();
        insts.iter().map(|i| crate::encode::encode(i, &mut tmp) as u32).sum()
    }

    fn adds(n: usize) -> Vec<Inst> {
        (0..n).map(|i| Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: i as i32 + 1 }).collect()
    }

    #[test]
    fn budget_ends_a_chunk_mid_block_and_the_next_resumes_there() {
        let base = 0x7000;
        let body = adds(6);
        let (mut mem, mut cpu) = load(base, &assemble(base, &body));
        let mut ctx = ExecCtx::new();
        let mut n = 0;
        ctx.run(&mut cpu, &mut mem, 4, &mut n).unwrap();
        assert_eq!(n, 4);
        assert_eq!(cpu.eip, base + len_of(&body[..4]));
        assert_eq!(cpu.gpr(Gpr::Eax), 1 + 2 + 3 + 4);
        // The op after a build is not a hit; the other three are.
        assert_eq!((ctx.stats.blocks_built, ctx.stats.uop_hits), (1, 3));
        ctx.run(&mut cpu, &mut mem, 2, &mut n).unwrap();
        assert_eq!(n, 6);
        assert_eq!(cpu.gpr(Gpr::Eax), 21);
        // Resumed through the cursor: a lookup by pc would have built a
        // second block starting in the middle of the first.
        assert_eq!((ctx.stats.blocks_built, ctx.stats.uop_hits), (1, 5));
        assert_eq!(ctx.stats.flag_defs, 6);
    }

    #[test]
    fn halt_ends_a_chunk_is_counted_and_stays_halted() {
        let base = 0x7100;
        let (mut mem, mut cpu) = load(base, &assemble(base, &adds(2)));
        let mut ctx = ExecCtx::new();
        let mut n = 0;
        ctx.run(&mut cpu, &mut mem, 100, &mut n).unwrap();
        assert!(cpu.halted);
        assert_eq!(n, 3, "two adds and the Halt itself");
        assert_eq!(cpu.eip, base + len_of(&adds(2)), "eip stays on the Halt");
        ctx.run(&mut cpu, &mut mem, 100, &mut n).unwrap();
        assert_eq!(n, 3, "a halted CPU executes nothing");
        ctx.run(&mut CpuState::at(base), &mut mem, 0, &mut n).unwrap();
        assert_eq!(n, 3, "neither does a budget of zero");
    }

    #[test]
    fn a_chunk_crosses_jumps_and_block_ends() {
        let base = 0x7200;
        let mut a = Asm::new(base);
        let top = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 10 });
        a.bind(top);
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 2 });
        a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
        a.push_jcc(Cond::Ne, top);
        let end = a.fresh_label();
        a.push_jcc(Cond::E, end);
        a.bind(end);
        a.push(Inst::Halt);
        let (mut mem, mut cpu) = load(base, &a.assemble().bytes);
        let mut ctx = ExecCtx::new();
        let mut n = 0;
        ctx.run(&mut cpu, &mut mem, u64::MAX, &mut n).unwrap();
        assert!(cpu.halted);
        assert_eq!(n, 1 + 3 * 10 + 2);
        assert_eq!(cpu.gpr(Gpr::Eax), 20);
        // Entry block, loop body, the second Jcc, the Halt.
        assert_eq!(ctx.stats.blocks_built, 4);
        assert_eq!(
            ctx.stats.flag_forces, 10,
            "one per loop Jcc; the second Jcc finds the flags already current"
        );
    }

    #[test]
    fn the_visitor_runs_after_each_op_and_its_break_ends_the_chunk() {
        let base = 0x7300;
        let body = [
            Inst::MovRI { dst: Gpr::Esi, imm: 0x4000 },
            Inst::StoreI { addr: MemRef::base(Gpr::Esi, 0), imm: 9 },
            Inst::Load { dst: Gpr::Edx, addr: MemRef::base(Gpr::Esi, 0) },
            Inst::Nop,
        ];
        let (mut mem, mut cpu) = load(base, &assemble(base, &body));
        let mut ctx = ExecCtx::new();
        let mut n = 0;
        let mut seen = Vec::new();
        ctx.run_visiting(&mut cpu, &mut mem, u64::MAX, &mut n, |pc, op, control, accesses| {
            seen.push((pc, op.inst, control, accesses.iter().copied().collect::<Vec<_>>()));
            if matches!(op.inst, Inst::Load { .. }) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .unwrap();
        assert_eq!(n, 3, "the op the visitor broke on has executed and is counted");
        assert_eq!(cpu.gpr(Gpr::Edx), 9);
        assert_eq!(cpu.eip, base + len_of(&body[..3]));
        let pcs: Vec<u32> = seen.iter().map(|s| s.0).collect();
        assert_eq!(pcs, [base, base + len_of(&body[..1]), base + len_of(&body[..2])]);
        assert_eq!(seen[1].3, [MemAccess { addr: 0x4000, size: 4, is_store: true }]);
        assert_eq!(seen[2].3, [MemAccess { addr: 0x4000, size: 4, is_store: false }]);
        assert!(seen.iter().all(|s| s.2 == Control::Next));
        // The chunk after a break resumes inside the block.
        ctx.run(&mut cpu, &mut mem, u64::MAX, &mut n).unwrap();
        assert_eq!((n, ctx.stats.blocks_built), (5, 1));
    }

    #[test]
    fn a_fault_on_the_first_op_executes_nothing() {
        let base = 0x7400;
        let (mut mem, mut cpu) = load(base, &[0xFF]);
        cpu.set_gpr(Gpr::Eax, 5);
        let before = cpu.clone();
        let mut ctx = ExecCtx::new();
        let mut n = 0;
        let err = ctx.run(&mut cpu, &mut mem, 10, &mut n).unwrap_err();
        assert_eq!(err, exec::step(&mut before.clone(), &mut mem).unwrap_err());
        assert_eq!(n, 0);
        assert!(cpu.arch_eq(&before) && cpu.eip == base);
        assert_eq!(ctx.stats.blocks_built, 0);
    }

    #[test]
    fn a_fault_later_in_a_chunk_reports_what_ran_before_it() {
        let base = 0x7500;
        let body = adds(3);
        let mut bytes = assemble(base, &body);
        let fault_at = len_of(&body) as usize;
        bytes[fault_at] = 0xFF; // overwrite the Halt
        let (mut mem, mut cpu) = load(base, &bytes);
        let mut ctx = ExecCtx::new();
        let mut n = 0;
        let mut visited = 0;
        let err = ctx
            .run_visiting(&mut cpu, &mut mem, 10, &mut n, |_, _, _, _| {
                visited += 1;
                ControlFlow::Continue(())
            })
            .unwrap_err();
        assert_eq!(err, DecodeError::BadOpcode(0xFF));
        assert_eq!((n, visited), (3, 3), "the three adds ran, the fault was not visited");
        assert_eq!(cpu.eip, base + fault_at as u32);
        assert_eq!(cpu.gpr(Gpr::Eax), 6);
        // Asking again faults again, without progress.
        assert!(ctx.run(&mut cpu, &mut mem, 10, &mut n).is_err());
        assert_eq!(n, 3);
    }

    /// The case the per-op write-generation check exists for: a store
    /// rewrites a *later* instruction of the block it is running in.
    #[test]
    fn a_store_into_the_running_block_is_seen_by_the_next_op() {
        let base = 0x7600;
        let head = [
            Inst::MovRI { dst: Gpr::Ecx, imm: 0x22 },
            // Patched below once the target address is known.
            Inst::StoreN { addr: MemRef::base(Gpr::Esi, 0), src: Gpr::Ecx, width: MemWidth::B1 },
            Inst::Nop,
        ];
        let target = Inst::MovRI { dst: Gpr::Ebx, imm: 0x11 };
        let mut body = head.to_vec();
        body.push(target);
        let (mut mem, mut cpu) = load(base, &assemble(base, &body));
        // Short MovRI is opcode + reg byte + imm8.
        cpu.set_gpr(Gpr::Esi, base + len_of(&head) + 2);
        let mut ctx = ExecCtx::new();
        let mut n = 0;
        ctx.run(&mut cpu, &mut mem, u64::MAX, &mut n).unwrap();
        assert_eq!(cpu.gpr(Gpr::Ebx), 0x22, "stale micro-op ran after the store");
        assert_eq!(n, 5);
        assert_eq!((ctx.stats.invalidations, ctx.stats.blocks_built), (1, 2));
        // Not hits: the first op of each of the two builds.
        assert_eq!(ctx.stats.uop_hits, 3);
    }

    #[test]
    fn straight_line_code_longer_than_the_cap_continues_in_a_new_block() {
        let base = 0x7700;
        let body = adds(UOP_BLOCK_CAP + 5);
        let (mut mem, mut cpu) = load(base, &assemble(base, &body));
        let mut ctx = ExecCtx::new();
        let mut n = 0;
        ctx.run(&mut cpu, &mut mem, u64::MAX, &mut n).unwrap();
        assert!(cpu.halted);
        assert_eq!(n, UOP_BLOCK_CAP as u64 + 6);
        assert_eq!(ctx.stats.blocks_built, 2);
        let sum: usize = (1..=UOP_BLOCK_CAP + 5).sum();
        assert_eq!(cpu.gpr(Gpr::Eax), sum as u32);
    }
}
