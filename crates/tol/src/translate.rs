//! Guest → host-IR translation.
//!
//! One translator serves both translation modes: BBM translates a single
//! basic block, SBM translates a superblock (a hot path of several basic
//! blocks glued together, with side exits). Both produce a linear
//! [`IrBlock`].
//!
//! The translator performs the paper's *dead-flag elision* intrinsically:
//! a guest instruction's EFLAGS update is materialized (via
//! `FlagsArith`) only if some later instruction in the region reads the
//! flags, or control can leave the region, before another instruction
//! overwrites them. This is what makes a `mov` cheaper to translate than
//! an `add` (Sec. III-C) without sacrificing architectural correctness at
//! exits.

use crate::ir::{
    guest_fpr_reg, guest_gpr_reg, IrBlock, IrInst, IrOp, IrReg, EXIT_TARGET_REG, FLAGS_REG,
};
use darco_guest::{decode, AluOp, DecodeError, Gpr, GuestMem, Inst, MemRef, ShiftOp};
use darco_host::{Exit, FlagsKind, HAluOp, Width};

/// Longest basic block the translator will form before splitting.
pub const MAX_BB_INSTS: usize = 64;

/// One decoded guest instruction in a translation region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionInst {
    /// Guest address of the instruction.
    pub pc: u32,
    /// The instruction.
    pub inst: Inst,
    /// Encoded length in bytes.
    pub len: u32,
    /// For an internal conditional branch in a superblock: `true` if the
    /// superblock inlines the *taken* path (so the not-taken direction
    /// becomes the side exit). Ignored for other instructions.
    pub follow_taken: bool,
}

impl RegionInst {
    /// Guest address of the next sequential instruction.
    pub fn next_pc(&self) -> u32 {
        self.pc.wrapping_add(self.len)
    }
}

/// Decodes the basic block starting at `entry`: instructions up to and
/// including the first control transfer (or [`MAX_BB_INSTS`]).
///
/// # Errors
///
/// Returns a [`DecodeError`] if the bytes at some instruction boundary do
/// not decode — the interpreter surfaces the same error when reaching
/// such bytes, so callers treat this as a guest fault.
pub fn decode_bb(mem: &GuestMem, entry: u32) -> Result<Vec<RegionInst>, DecodeError> {
    let mut out = Vec::new();
    decode_bb_into(mem, entry, &mut out)?;
    Ok(out)
}

/// [`decode_bb`] into a caller-provided buffer, appending the decoded
/// block to `out`. Callers clear (or measure) the buffer themselves; on
/// a decode error the instructions decoded before the fault remain
/// appended.
pub(crate) fn decode_bb_into(
    mem: &GuestMem,
    entry: u32,
    out: &mut Vec<RegionInst>,
) -> Result<(), DecodeError> {
    let mut pc = entry;
    for _ in 0..MAX_BB_INSTS {
        let window = mem.window(pc, darco_guest::exec::MAX_INST_LEN);
        let (inst, len) = decode(&window)?;
        out.push(RegionInst { pc, inst, len: len as u32, follow_taken: false });
        pc = pc.wrapping_add(len as u32);
        if inst.is_block_end() {
            break;
        }
    }
    Ok(())
}

/// Reusable IR-side translation buffers: the op, stub and stub-count
/// vectors a translation builds its [`IrBlock`] from. A fresh
/// translation takes the (empty, but sized) buffers, and
/// [`IrScratch::recycle`] returns a finished block's allocations so the
/// next translation on the same engine starts with capacity instead of
/// `Vec::new()`.
#[derive(Debug, Default)]
pub struct IrScratch {
    ops: Vec<IrOp>,
    stubs: Vec<Exit>,
    counts: Vec<u32>,
}

impl IrScratch {
    fn take(&mut self) -> (Vec<IrOp>, Vec<Exit>, Vec<u32>) {
        (
            std::mem::take(&mut self.ops),
            std::mem::take(&mut self.stubs),
            std::mem::take(&mut self.counts),
        )
    }

    /// Reclaims a finished block's buffers, keeping whichever allocation
    /// (current or reclaimed) has more capacity.
    pub fn recycle(&mut self, block: IrBlock) {
        let IrBlock { mut ops, mut stubs, mut stub_guest_counts, .. } = block;
        ops.clear();
        stubs.clear();
        stub_guest_counts.clear();
        if ops.capacity() > self.ops.capacity() {
            self.ops = ops;
        }
        if stubs.capacity() > self.stubs.capacity() {
            self.stubs = stubs;
        }
        if stub_guest_counts.capacity() > self.counts.capacity() {
            self.counts = stub_guest_counts;
        }
    }
}

/// Reusable translation buffers for an engine's compile path: the
/// decoded-region vector, the superblock-formation visited set, the
/// IR-side [`IrScratch`] and the passes' [`OptScratch`]. One translation
/// is in flight per engine at a time, so a single arena suffices.
///
/// [`OptScratch`]: crate::opt::OptScratch
#[derive(Debug, Default)]
pub(crate) struct TranslateScratch {
    pub(crate) region: Vec<RegionInst>,
    pub(crate) visited: std::collections::HashSet<u32>,
    pub(crate) ir: IrScratch,
    pub(crate) opt: crate::opt::OptScratch,
}

/// Whether instruction `i`'s flag definition must be materialized:
/// `true` if a later instruction reads flags, or an exit point occurs,
/// before the next flag write.
fn flags_live_after(region: &[RegionInst], i: usize) -> bool {
    for r in &region[i + 1..] {
        if r.inst.reads_flags() {
            return true;
        }
        if r.inst.is_block_end() {
            // A followed unconditional jump keeps control inside the
            // superblock and is not an exit point.
            if matches!(r.inst, Inst::Jmp { .. }) && !std::ptr::eq(r, region.last().unwrap()) {
                continue;
            }
            return true;
        }
        if r.inst.writes_flags() {
            return false;
        }
    }
    true // live-out at the region end
}

fn host_alu(op: AluOp) -> HAluOp {
    match op {
        AluOp::Add => HAluOp::Add,
        AluOp::Sub => HAluOp::Sub,
        AluOp::And => HAluOp::And,
        AluOp::Or => HAluOp::Or,
        AluOp::Xor => HAluOp::Xor,
    }
}

fn arith_flags_kind(op: AluOp) -> Option<FlagsKind> {
    match op {
        AluOp::Add => Some(FlagsKind::Add),
        AluOp::Sub => Some(FlagsKind::Sub),
        AluOp::And | AluOp::Or | AluOp::Xor => None, // logic: flags from result
    }
}

fn shift_alu(op: ShiftOp) -> (HAluOp, FlagsKind) {
    match op {
        ShiftOp::Shl => (HAluOp::Shl, FlagsKind::Shl),
        ShiftOp::Shr => (HAluOp::Shr, FlagsKind::Shr),
        ShiftOp::Sar => (HAluOp::Sar, FlagsKind::Sar),
    }
}

/// Translation context for one region.
struct Ctx {
    ops: Vec<IrOp>,
    stubs: Vec<Exit>,
    stub_guest_counts: Vec<u32>,
    next_virt: u32,
    gi: u32,
}

impl Ctx {
    fn virt(&mut self) -> IrReg {
        self.next_virt += 1;
        IrReg::Virt(self.next_virt - 1)
    }

    fn emit(&mut self, inst: IrInst) {
        self.ops.push(IrOp { inst, guest_idx: self.gi });
    }

    fn stub(&mut self, exit: Exit) -> u32 {
        self.stubs.push(exit);
        // Exiting via this stub retires the guest instructions up to and
        // including the branch being translated.
        self.stub_guest_counts.push(self.gi + 1);
        (self.stubs.len() - 1) as u32
    }

    /// Materializes the effective address of `m` as `(base_reg, offset)`.
    fn ea(&mut self, m: &MemRef) -> (IrReg, i32) {
        let base = m.base.map(|b| IrReg::Phys(guest_gpr_reg(b.index())));
        let index = m.index.map(|i| IrReg::Phys(guest_gpr_reg(i.index())));
        match (base, index) {
            (None, None) => (IrReg::ZERO, m.disp),
            (Some(b), None) => (b, m.disp),
            (b, Some(ix)) => {
                let scaled = if m.scale.factor() == 1 {
                    ix
                } else {
                    let t = self.virt();
                    self.emit(IrInst::AluI {
                        op: HAluOp::Shl,
                        rd: t,
                        ra: ix,
                        imm: m.scale.factor().trailing_zeros() as i32,
                    });
                    t
                };
                match b {
                    None => (scaled, m.disp),
                    Some(b) => {
                        let t = self.virt();
                        self.emit(IrInst::Alu { op: HAluOp::Add, rd: t, ra: b, rb: scaled });
                        (t, m.disp)
                    }
                }
            }
        }
    }

    /// Copies `src` into the dedicated exit-target register.
    fn move_to_exit_reg(&mut self, src: IrReg) {
        self.emit(IrInst::AluI {
            op: HAluOp::Or,
            rd: IrReg::Phys(EXIT_TARGET_REG),
            ra: src,
            imm: 0,
        });
    }

    /// Pushes `value_reg` onto the guest stack (esp-relative).
    fn push_guest(&mut self, value: IrReg) {
        let esp = IrReg::Phys(guest_gpr_reg(Gpr::Esp.index()));
        self.emit(IrInst::AluI { op: HAluOp::Sub, rd: esp, ra: esp, imm: 4 });
        self.emit(IrInst::St { rs: value, base: esp, off: 0, width: Width::W4 });
    }
}

const FLAGS: IrReg = IrReg::Phys(FLAGS_REG);

/// Translates a region (basic block or superblock path) to IR.
///
/// The region must be non-empty; its last instruction determines the
/// fall-through exit. Internal control transfers may only be `Jcc`
/// (side exit on the non-followed direction) or `Jmp` (followed,
/// no code emitted).
///
/// # Panics
///
/// Panics if an internal instruction is a call, return or indirect jump
/// (superblock formation must stop at those).
pub fn translate_region(region: &[RegionInst]) -> IrBlock {
    translate_region_scratch(region, &mut IrScratch::default())
}

/// [`translate_region`] building the block out of `scratch`'s recycled
/// buffers instead of fresh allocations. The emitted block is identical;
/// only the allocation behavior differs.
///
/// # Panics
///
/// Same as [`translate_region`].
pub fn translate_region_scratch(region: &[RegionInst], scratch: &mut IrScratch) -> IrBlock {
    assert!(!region.is_empty(), "empty translation region");
    let (ops, stubs, stub_guest_counts) = scratch.take();
    let mut cx = Ctx { ops, stubs, stub_guest_counts, next_virt: 0, gi: 0 };
    let mut fallthrough = None;
    for (i, r) in region.iter().enumerate() {
        cx.gi = i as u32;
        let last = i == region.len() - 1;
        let flags_live = r.inst.writes_flags() && flags_live_after(region, i);
        match r.inst {
            inst if !inst.is_block_end() => emit_straightline(&mut cx, &inst, flags_live),
            Inst::Jcc { cond, target } => {
                if last {
                    let stub = cx.stub(Exit::Direct { guest_target: target, link: None });
                    cx.emit(IrInst::BrFlags { cond, flags: FLAGS, stub });
                    fallthrough = Some(Exit::Direct { guest_target: r.next_pc(), link: None });
                } else if r.follow_taken {
                    // Inline the taken path: exit on the negated condition.
                    let stub = cx.stub(Exit::Direct { guest_target: r.next_pc(), link: None });
                    cx.emit(IrInst::BrFlags { cond: cond.negated(), flags: FLAGS, stub });
                } else {
                    // Inline the fall-through: exit when taken.
                    let stub = cx.stub(Exit::Direct { guest_target: target, link: None });
                    cx.emit(IrInst::BrFlags { cond, flags: FLAGS, stub });
                }
            }
            Inst::Jmp { target } => {
                if last {
                    fallthrough = Some(Exit::Direct { guest_target: target, link: None });
                }
                // Followed internal jump: no code at all.
            }
            Inst::Call { target } => {
                assert!(last, "call inside a superblock body");
                let t = cx.virt();
                cx.emit(IrInst::Li { rd: t, imm: r.next_pc() as i64 });
                cx.push_guest(t);
                fallthrough = Some(Exit::Direct { guest_target: target, link: None });
            }
            Inst::CallInd { reg } => {
                assert!(last, "indirect call inside a superblock body");
                cx.move_to_exit_reg(IrReg::Phys(guest_gpr_reg(reg.index())));
                let t = cx.virt();
                cx.emit(IrInst::Li { rd: t, imm: r.next_pc() as i64 });
                cx.push_guest(t);
                fallthrough = Some(Exit::Indirect { reg: EXIT_TARGET_REG });
            }
            Inst::JmpInd { reg } => {
                assert!(last, "indirect jump inside a superblock body");
                cx.move_to_exit_reg(IrReg::Phys(guest_gpr_reg(reg.index())));
                fallthrough = Some(Exit::Indirect { reg: EXIT_TARGET_REG });
            }
            Inst::JmpMem { addr } => {
                assert!(last, "indirect jump inside a superblock body");
                let (base, off) = cx.ea(&addr);
                let t = cx.virt();
                cx.emit(IrInst::Ld { rd: t, base, off, width: Width::W4 });
                cx.move_to_exit_reg(t);
                fallthrough = Some(Exit::Indirect { reg: EXIT_TARGET_REG });
            }
            Inst::Ret => {
                assert!(last, "return inside a superblock body");
                let esp = IrReg::Phys(guest_gpr_reg(Gpr::Esp.index()));
                let t = cx.virt();
                cx.emit(IrInst::Ld { rd: t, base: esp, off: 0, width: Width::W4 });
                cx.emit(IrInst::AluI { op: HAluOp::Add, rd: esp, ra: esp, imm: 4 });
                cx.move_to_exit_reg(t);
                fallthrough = Some(Exit::Indirect { reg: EXIT_TARGET_REG });
            }
            Inst::Halt => {
                assert!(last, "halt inside a superblock body");
                fallthrough = Some(Exit::Halt);
            }
            other => unreachable!("unhandled terminal {other:?}"),
        }
    }
    let fallthrough = fallthrough
        .unwrap_or(Exit::Direct { guest_target: region.last().unwrap().next_pc(), link: None });
    IrBlock {
        ops: cx.ops,
        stubs: cx.stubs,
        stub_guest_counts: cx.stub_guest_counts,
        fallthrough,
        guest_len: region.len() as u32,
    }
}

/// Emits IR for a non-control-flow guest instruction.
fn emit_straightline(cx: &mut Ctx, inst: &Inst, flags_live: bool) {
    let g = |r: Gpr| IrReg::Phys(guest_gpr_reg(r.index()));
    match *inst {
        Inst::Nop | Inst::Syscall => cx.emit(IrInst::Nop),
        Inst::Halt
        | Inst::Jcc { .. }
        | Inst::Jmp { .. }
        | Inst::JmpInd { .. }
        | Inst::JmpMem { .. }
        | Inst::Call { .. }
        | Inst::CallInd { .. }
        | Inst::Ret => unreachable!("control flow handled by translate_region"),
        Inst::MovRR { dst, src } => {
            cx.emit(IrInst::AluI { op: HAluOp::Or, rd: g(dst), ra: g(src), imm: 0 });
        }
        Inst::MovRI { dst, imm } => cx.emit(IrInst::Li { rd: g(dst), imm: imm as i64 }),
        Inst::Load { dst, addr } => {
            let (base, off) = cx.ea(&addr);
            cx.emit(IrInst::Ld { rd: g(dst), base, off, width: Width::W4 });
        }
        Inst::LoadZx { dst, addr, width } => {
            let (base, off) = cx.ea(&addr);
            let w = if width == darco_guest::MemWidth::B1 { Width::W1 } else { Width::W2 };
            cx.emit(IrInst::Ld { rd: g(dst), base, off, width: w });
        }
        Inst::LoadSx { dst, addr, width } => {
            // RISC lowering: zero-extending load plus a shift pair.
            let (base, off) = cx.ea(&addr);
            let (w, sh) =
                if width == darco_guest::MemWidth::B1 { (Width::W1, 24) } else { (Width::W2, 16) };
            cx.emit(IrInst::Ld { rd: g(dst), base, off, width: w });
            cx.emit(IrInst::AluI { op: HAluOp::Shl, rd: g(dst), ra: g(dst), imm: sh });
            cx.emit(IrInst::AluI { op: HAluOp::Sar, rd: g(dst), ra: g(dst), imm: sh });
        }
        Inst::StoreN { addr, src, width } => {
            let (base, off) = cx.ea(&addr);
            let w = if width == darco_guest::MemWidth::B1 { Width::W1 } else { Width::W2 };
            cx.emit(IrInst::St { rs: g(src), base, off, width: w });
        }
        Inst::Store { addr, src } => {
            let (base, off) = cx.ea(&addr);
            cx.emit(IrInst::St { rs: g(src), base, off, width: Width::W4 });
        }
        Inst::StoreI { addr, imm } => {
            let t = cx.virt();
            cx.emit(IrInst::Li { rd: t, imm: imm as i64 });
            let (base, off) = cx.ea(&addr);
            cx.emit(IrInst::St { rs: t, base, off, width: Width::W4 });
        }
        Inst::Lea { dst, addr } => {
            let (base, off) = cx.ea(&addr);
            cx.emit(IrInst::AluI { op: HAluOp::Add, rd: g(dst), ra: base, imm: off });
        }
        Inst::AluRR { op, dst, src } => {
            emit_alu(cx, op, g(dst), AluSrc::Reg(g(src)), flags_live);
        }
        Inst::AluRI { op, dst, imm } => {
            emit_alu(cx, op, g(dst), AluSrc::Imm(imm), flags_live);
        }
        Inst::AluRM { op, dst, addr } => {
            let (base, off) = cx.ea(&addr);
            let t = cx.virt();
            cx.emit(IrInst::Ld { rd: t, base, off, width: Width::W4 });
            emit_alu(cx, op, g(dst), AluSrc::Reg(t), flags_live);
        }
        Inst::AluMR { op, addr, src } => {
            let (base, off) = cx.ea(&addr);
            let t = cx.virt();
            cx.emit(IrInst::Ld { rd: t, base, off, width: Width::W4 });
            emit_alu(cx, op, t, AluSrc::Reg(g(src)), flags_live);
            cx.emit(IrInst::St { rs: t, base, off, width: Width::W4 });
        }
        Inst::CmpRR { a, b } => {
            if flags_live {
                cx.emit(IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: g(a), rb: g(b) });
            }
        }
        Inst::CmpRI { a, imm } => {
            if flags_live {
                let t = cx.virt();
                cx.emit(IrInst::Li { rd: t, imm: imm as i64 });
                cx.emit(IrInst::FlagsArith { kind: FlagsKind::Sub, rd: FLAGS, ra: g(a), rb: t });
            }
        }
        Inst::TestRR { a, b } => {
            if flags_live {
                let t = cx.virt();
                cx.emit(IrInst::Alu { op: HAluOp::And, rd: t, ra: g(a), rb: g(b) });
                cx.emit(IrInst::FlagsArith {
                    kind: FlagsKind::Logic,
                    rd: FLAGS,
                    ra: t,
                    rb: IrReg::ZERO,
                });
            }
        }
        Inst::Shift { op, dst, amount } => {
            let amt = (amount & 31) as i32;
            if amt == 0 {
                return; // architecturally a no-op, flags preserved
            }
            let (alu, kind) = shift_alu(op);
            if flags_live {
                let t = cx.virt();
                cx.emit(IrInst::Li { rd: t, imm: amt as i64 });
                cx.emit(IrInst::FlagsArith { kind, rd: FLAGS, ra: g(dst), rb: t });
            }
            cx.emit(IrInst::AluI { op: alu, rd: g(dst), ra: g(dst), imm: amt });
        }
        Inst::ShiftCl { op, dst } => {
            let (alu, kind) = shift_alu(op);
            let amt = cx.virt();
            cx.emit(IrInst::AluI { op: HAluOp::And, rd: amt, ra: g(Gpr::Ecx), imm: 31 });
            if flags_live {
                cx.emit(IrInst::FlagsArith { kind, rd: FLAGS, ra: g(dst), rb: amt });
            }
            cx.emit(IrInst::Alu { op: alu, rd: g(dst), ra: g(dst), rb: amt });
        }
        Inst::Imul { dst, src } => {
            if flags_live {
                cx.emit(IrInst::FlagsArith {
                    kind: FlagsKind::Mul,
                    rd: FLAGS,
                    ra: g(dst),
                    rb: g(src),
                });
            }
            cx.emit(IrInst::Mul { rd: g(dst), ra: g(dst), rb: g(src) });
        }
        Inst::Idiv { dst, src } => {
            cx.emit(IrInst::Div { rd: g(dst), ra: g(dst), rb: g(src) });
            if flags_live {
                cx.emit(IrInst::FlagsArith {
                    kind: FlagsKind::Logic,
                    rd: FLAGS,
                    ra: g(dst),
                    rb: IrReg::ZERO,
                });
            }
        }
        Inst::Neg { dst } => {
            if flags_live {
                cx.emit(IrInst::FlagsArith {
                    kind: FlagsKind::Sub,
                    rd: FLAGS,
                    ra: IrReg::ZERO,
                    rb: g(dst),
                });
            }
            cx.emit(IrInst::Alu { op: HAluOp::Sub, rd: g(dst), ra: IrReg::ZERO, rb: g(dst) });
        }
        Inst::Not { dst } => {
            cx.emit(IrInst::AluI { op: HAluOp::Xor, rd: g(dst), ra: g(dst), imm: -1 });
        }
        Inst::Push { src } => cx.push_guest(g(src)),
        Inst::Pop { dst } => {
            let esp = IrReg::Phys(guest_gpr_reg(Gpr::Esp.index()));
            if dst == Gpr::Esp {
                // `pop esp`: the loaded value *is* the final stack
                // pointer (no post-increment visible), matching the
                // reference semantics.
                let t = cx.virt();
                cx.emit(IrInst::Ld { rd: t, base: esp, off: 0, width: Width::W4 });
                cx.emit(IrInst::AluI { op: HAluOp::Or, rd: esp, ra: t, imm: 0 });
            } else {
                cx.emit(IrInst::Ld { rd: g(dst), base: esp, off: 0, width: Width::W4 });
                cx.emit(IrInst::AluI { op: HAluOp::Add, rd: esp, ra: esp, imm: 4 });
            }
        }
        Inst::FMovRR { dst, src } => {
            cx.emit(IrInst::FMov {
                fd: crate::ir::IrFreg::Phys(guest_fpr_reg(dst.index())),
                fa: crate::ir::IrFreg::Phys(guest_fpr_reg(src.index())),
            });
        }
        Inst::FLoad { dst, addr } => {
            let (base, off) = cx.ea(&addr);
            cx.emit(IrInst::FLd {
                fd: crate::ir::IrFreg::Phys(guest_fpr_reg(dst.index())),
                base,
                off,
            });
        }
        Inst::FStore { addr, src } => {
            let (base, off) = cx.ea(&addr);
            cx.emit(IrInst::FSt {
                fs: crate::ir::IrFreg::Phys(guest_fpr_reg(src.index())),
                base,
                off,
            });
        }
        Inst::FArith { op, dst, src } => {
            cx.emit(IrInst::FArith {
                op,
                fd: crate::ir::IrFreg::Phys(guest_fpr_reg(dst.index())),
                fa: crate::ir::IrFreg::Phys(guest_fpr_reg(dst.index())),
                fb: crate::ir::IrFreg::Phys(guest_fpr_reg(src.index())),
            });
        }
        Inst::CvtIF { dst, src } => {
            cx.emit(IrInst::CvtIF {
                fd: crate::ir::IrFreg::Phys(guest_fpr_reg(dst.index())),
                ra: g(src),
            });
        }
        Inst::CvtFI { dst, src } => {
            cx.emit(IrInst::CvtFI {
                rd: g(dst),
                fa: crate::ir::IrFreg::Phys(guest_fpr_reg(src.index())),
            });
        }
    }
}

enum AluSrc {
    Reg(IrReg),
    Imm(i32),
}

/// Emits `dst <- dst op src` plus flags when live, preserving operand
/// order for the flags computation (which needs the pre-op values).
fn emit_alu(cx: &mut Ctx, op: AluOp, dst: IrReg, src: AluSrc, flags_live: bool) {
    let hop = host_alu(op);
    match arith_flags_kind(op) {
        Some(kind) => {
            // add/sub: flags from the original operands, computed first.
            if flags_live {
                let rb = match src {
                    AluSrc::Reg(r) => r,
                    AluSrc::Imm(imm) => {
                        let t = cx.virt();
                        cx.emit(IrInst::Li { rd: t, imm: imm as i64 });
                        t
                    }
                };
                cx.emit(IrInst::FlagsArith { kind, rd: FLAGS, ra: dst, rb });
                cx.emit(IrInst::Alu { op: hop, rd: dst, ra: dst, rb });
            } else {
                match src {
                    AluSrc::Reg(r) => cx.emit(IrInst::Alu { op: hop, rd: dst, ra: dst, rb: r }),
                    AluSrc::Imm(imm) => cx.emit(IrInst::AluI { op: hop, rd: dst, ra: dst, imm }),
                }
            }
        }
        None => {
            // logic: flags from the result, computed after.
            match src {
                AluSrc::Reg(r) => cx.emit(IrInst::Alu { op: hop, rd: dst, ra: dst, rb: r }),
                AluSrc::Imm(imm) => cx.emit(IrInst::AluI { op: hop, rd: dst, ra: dst, imm }),
            }
            if flags_live {
                cx.emit(IrInst::FlagsArith {
                    kind: FlagsKind::Logic,
                    rd: FLAGS,
                    ra: dst,
                    rb: IrReg::ZERO,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::asm::Asm;
    use darco_guest::Cond;

    fn decode_prog(insts: &[Inst]) -> (GuestMem, u32) {
        let mut a = Asm::new(0x1000);
        for i in insts {
            a.push(*i);
        }
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        (mem, p.base)
    }

    #[test]
    fn bb_decoding_stops_at_branch() {
        let (mem, base) = decode_prog(&[
            Inst::MovRI { dst: Gpr::Eax, imm: 1 },
            Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 2 },
            Inst::Jmp { target: 0x2000 },
            Inst::Nop, // unreachable, not part of the BB
        ]);
        let bb = decode_bb(&mem, base).unwrap();
        assert_eq!(bb.len(), 3);
        assert!(bb[2].inst.is_block_end());
    }

    #[test]
    fn dead_flags_are_elided() {
        // add (flags dead: overwritten by cmp) ; cmp ; jcc reads them.
        let (mem, base) = decode_prog(&[
            Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 },
            Inst::CmpRI { a: Gpr::Eax, imm: 10 },
            Inst::Jcc { cond: Cond::Ne, target: 0x1000 },
        ]);
        let bb = decode_bb(&mem, base).unwrap();
        let ir = translate_region(&bb);
        let flag_writes =
            ir.ops.iter().filter(|o| matches!(o.inst, IrInst::FlagsArith { .. })).count();
        assert_eq!(flag_writes, 1, "only the cmp materializes flags");
    }

    #[test]
    fn trailing_arith_keeps_flags_live_out() {
        let (mem, base) = decode_prog(&[
            Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 },
            Inst::Jmp { target: 0x9000 },
        ]);
        let bb = decode_bb(&mem, base).unwrap();
        let ir = translate_region(&bb);
        assert!(
            ir.ops.iter().any(|o| matches!(o.inst, IrInst::FlagsArith { .. })),
            "flags are architecturally live at the exit"
        );
    }

    #[test]
    fn conditional_branch_forms_stub_and_fallthrough() {
        let (mem, base) = decode_prog(&[
            Inst::CmpRI { a: Gpr::Eax, imm: 0 },
            Inst::Jcc { cond: Cond::E, target: 0x3000 },
        ]);
        let bb = decode_bb(&mem, base).unwrap();
        let ir = translate_region(&bb);
        assert_eq!(ir.stubs.len(), 1);
        assert_eq!(ir.stubs[0], Exit::Direct { guest_target: 0x3000, link: None });
        match ir.fallthrough {
            Exit::Direct { guest_target, .. } => assert_eq!(guest_target, bb[1].next_pc()),
            other => panic!("unexpected fallthrough {other:?}"),
        }
    }

    #[test]
    fn superblock_inlines_taken_path_with_negated_side_exit() {
        // Region: cmp; jcc (follow taken); add — as if the SB follows the
        // taken edge of the branch.
        let (mem, base) = decode_prog(&[
            Inst::CmpRI { a: Gpr::Eax, imm: 0 },
            Inst::Jcc { cond: Cond::E, target: 0x3000 },
        ]);
        let mut region = decode_bb(&mem, base).unwrap();
        region[1].follow_taken = true;
        region.push(RegionInst { pc: 0x3000, inst: Inst::Halt, len: 1, follow_taken: false });
        let ir = translate_region(&region);
        // Side exit goes to the *not-taken* successor under the negated
        // condition.
        let br = ir
            .ops
            .iter()
            .find_map(|o| match o.inst {
                IrInst::BrFlags { cond, stub, .. } => Some((cond, stub)),
                _ => None,
            })
            .expect("side exit branch");
        assert_eq!(br.0, Cond::Ne);
        assert_eq!(
            ir.stubs[br.1 as usize],
            Exit::Direct { guest_target: region[1].next_pc(), link: None }
        );
        assert_eq!(ir.fallthrough, Exit::Halt);
    }

    #[test]
    fn ret_loads_pops_and_exits_indirect() {
        let (mem, base) = decode_prog(&[Inst::Ret]);
        let bb = decode_bb(&mem, base).unwrap();
        let ir = translate_region(&bb);
        assert_eq!(ir.fallthrough, Exit::Indirect { reg: EXIT_TARGET_REG });
        assert!(ir.ops.iter().any(|o| o.inst.is_load()));
    }

    #[test]
    fn call_pushes_return_address() {
        let (mem, base) = decode_prog(&[Inst::Call { target: 0x4000 }]);
        let bb = decode_bb(&mem, base).unwrap();
        let ir = translate_region(&bb);
        assert!(ir.ops.iter().any(|o| o.inst.is_store()), "return address pushed");
        assert_eq!(ir.fallthrough, Exit::Direct { guest_target: 0x4000, link: None });
    }

    #[test]
    fn pop_esp_matches_reference_semantics() {
        use darco_host::{exec_inst, HostState, Outcome};
        // Reference: pop esp leaves esp = loaded value (not value + 4).
        let (mem, base) = decode_prog(&[Inst::Pop { dst: Gpr::Esp }, Inst::Halt]);
        let mut ref_cpu = darco_guest::CpuState::at(base);
        ref_cpu.set_gpr(Gpr::Esp, 0x5000);
        let mut ref_mem = mem.clone();
        ref_mem.write_u32(0x5000, 0x1234);
        darco_guest::exec::step(&mut ref_cpu, &mut ref_mem).unwrap();
        assert_eq!(ref_cpu.gpr(Gpr::Esp), 0x1234);

        // Translated execution must agree.
        let bb = decode_bb(&mem, base).unwrap();
        let ir = translate_region(&bb[..1]);
        let map = {
            let mut m = crate::ir::RegMap::default();
            m.int.insert(0, darco_host::HReg(11));
            m
        };
        let host = crate::ir::lower(&ir, &map);
        let mut st = HostState::new();
        st.set_reg(crate::ir::guest_gpr_reg(Gpr::Esp.index()), 0x5000);
        let mut hmem = darco_guest::GuestMem::new();
        hmem.write_u32(0x5000, 0x1234);
        for inst in &host {
            if let Outcome::Exited(_) = exec_inst(&mut st, inst, &mut hmem) {
                break;
            }
        }
        assert_eq!(st.reg(crate::ir::guest_gpr_reg(Gpr::Esp.index())), 0x1234);
    }

    #[test]
    fn mov_cheaper_than_add() {
        // The paper's Sec. III-C point: flag-writing instructions cost
        // more to translate. Compare IR lengths with flags live-out.
        let (mem_a, base_a) = decode_prog(&[Inst::MovRR { dst: Gpr::Eax, src: Gpr::Ebx }]);
        let (mem_b, base_b) =
            decode_prog(&[Inst::AluRR { op: AluOp::Add, dst: Gpr::Eax, src: Gpr::Ebx }]);
        let ir_a = translate_region(&decode_bb(&mem_a, base_a).unwrap());
        let ir_b = translate_region(&decode_bb(&mem_b, base_b).unwrap());
        assert!(ir_b.ops.len() > ir_a.ops.len());
    }
}
