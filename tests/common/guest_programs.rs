//! Random guest programs for the property tests: a seeded generator of
//! g86 instruction sequences and a builder that wraps one in a counted
//! loop, so every program terminates and is hot enough to reach IM, BBM
//! and SBM.
//!
//! Shared by `#[path]` between `tests/properties.rs` and the unit tests
//! of `darco-tol` (which compare retirement records inside the engine,
//! where an integration test cannot reach).

use darco_guest::asm::Asm;
use darco_guest::{
    AluOp, Cond, CpuState, FpOp, FpReg, Gpr, GuestMem, Inst, MemRef, MemWidth, Scale, ShiftOp,
};
use rand::rngs::SmallRng;
use rand::Rng;

pub const GPRS: [Gpr; 7] = [Gpr::Eax, Gpr::Ecx, Gpr::Edx, Gpr::Ebx, Gpr::Ebp, Gpr::Esi, Gpr::Edi];

pub fn gpr(rng: &mut SmallRng) -> Gpr {
    GPRS[rng.gen_range(0..GPRS.len())]
}

pub fn fpr(rng: &mut SmallRng) -> FpReg {
    FpReg(rng.gen_range(0u8..8))
}

pub fn memref(rng: &mut SmallRng) -> MemRef {
    // Data region: within a 64 KiB window at 0x40000 so accesses never
    // touch code or stack.
    let idx = rng.gen_bool(0.5);
    MemRef {
        base: None,
        index: if idx { Some(gpr(rng)) } else { None },
        scale: Scale::from_bits(rng.gen_range(0u8..4)),
        disp: 0x4_0000 + rng.gen_range(0i32..0x4000),
    }
}

pub fn alu_op(rng: &mut SmallRng) -> AluOp {
    [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor][rng.gen_range(0..5)]
}

pub fn shift_op(rng: &mut SmallRng) -> ShiftOp {
    [ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar][rng.gen_range(0..3)]
}

pub fn fp_op(rng: &mut SmallRng) -> FpOp {
    [FpOp::Add, FpOp::Sub, FpOp::Mul][rng.gen_range(0..3)]
}

pub fn narrow_width(rng: &mut SmallRng) -> MemWidth {
    if rng.gen_bool(0.5) {
        MemWidth::B2
    } else {
        MemWidth::B1
    }
}

/// Straight-line (non-control-flow) instructions.
pub fn straightline_inst(rng: &mut SmallRng) -> Inst {
    match rng.gen_range(0..28) {
        0 => Inst::MovRR { dst: gpr(rng), src: gpr(rng) },
        1 => Inst::MovRI { dst: gpr(rng), imm: rng.gen::<u32>() as i32 },
        2 => Inst::AluRR { op: alu_op(rng), dst: gpr(rng), src: gpr(rng) },
        3 => Inst::AluRI { op: alu_op(rng), dst: gpr(rng), imm: rng.gen_range(-1000i32..1000) },
        4 => Inst::Load { dst: gpr(rng), addr: memref(rng) },
        5 => Inst::Store { addr: memref(rng), src: gpr(rng) },
        6 => Inst::AluRM { op: alu_op(rng), dst: gpr(rng), addr: memref(rng) },
        7 => Inst::AluMR { op: alu_op(rng), addr: memref(rng), src: gpr(rng) },
        8 => Inst::Lea { dst: gpr(rng), addr: memref(rng) },
        9 => Inst::LoadZx { dst: gpr(rng), addr: memref(rng), width: narrow_width(rng) },
        10 => Inst::LoadSx { dst: gpr(rng), addr: memref(rng), width: narrow_width(rng) },
        11 => Inst::StoreN { addr: memref(rng), src: gpr(rng), width: narrow_width(rng) },
        12 => Inst::CmpRR { a: gpr(rng), b: gpr(rng) },
        13 => Inst::CmpRI { a: gpr(rng), imm: rng.gen::<u32>() as i32 },
        14 => Inst::TestRR { a: gpr(rng), b: gpr(rng) },
        15 => Inst::Shift { op: shift_op(rng), dst: gpr(rng), amount: rng.gen_range(0u8..32) },
        16 => Inst::ShiftCl { op: shift_op(rng), dst: gpr(rng) },
        17 => Inst::Imul { dst: gpr(rng), src: gpr(rng) },
        18 => Inst::Idiv { dst: gpr(rng), src: gpr(rng) },
        19 => Inst::Neg { dst: gpr(rng) },
        20 => Inst::Not { dst: gpr(rng) },
        21 => Inst::Push { src: gpr(rng) },
        22 => Inst::Pop { dst: gpr(rng) },
        23 => Inst::FMovRR { dst: fpr(rng), src: fpr(rng) },
        24 => Inst::FLoad { dst: fpr(rng), addr: memref(rng) },
        25 => Inst::FStore { addr: memref(rng), src: fpr(rng) },
        26 => Inst::FArith { op: fp_op(rng), dst: fpr(rng), src: fpr(rng) },
        _ => match rng.gen_range(0..3) {
            0 => Inst::CvtIF { dst: fpr(rng), src: gpr(rng) },
            1 => Inst::CvtFI { dst: gpr(rng), src: fpr(rng) },
            _ => Inst::Nop,
        },
    }
}

/// Any instruction, including control flow with bounded targets
/// (conditional branches are re-targeted by the program builder).
pub fn any_inst(rng: &mut SmallRng) -> Inst {
    if rng.gen_range(0..9) < 8 {
        straightline_inst(rng)
    } else {
        Inst::Jcc { cond: Cond::from_bits(rng.gen_range(0u8..12)).unwrap(), target: 0 }
    }
}

/// Builds a runnable program: a counted loop whose body is the random
/// instruction sequence (conditional branches become short forward
/// skips), so it always terminates and exercises IM, BBM and SBM.
pub fn build_program(body: &[Inst], iters: i32) -> (GuestMem, CpuState) {
    let mut a = Asm::new(0x1000);
    let top = a.fresh_label();
    a.push(Inst::MovRI { dst: Gpr::Ebp, imm: iters });
    a.bind(top);
    let mut i = 0;
    while i < body.len() {
        match body[i] {
            Inst::Jcc { cond, .. } => {
                let skip = a.fresh_label();
                a.push_jcc(cond, skip);
                // Up to two skipped instructions (must be straight-line).
                let mut skipped = 0;
                while skipped < 2 && i + 1 + skipped < body.len() {
                    if let Inst::Jcc { .. } = body[i + 1 + skipped] {
                        break;
                    }
                    a.push(sanitize_ebp(body[i + 1 + skipped]));
                    skipped += 1;
                }
                a.bind(skip);
                i += 1 + skipped;
            }
            // ebp is the loop counter: redirect writes away from it.
            inst => {
                a.push(sanitize_ebp(inst));
                i += 1;
            }
        }
    }
    a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ebp, imm: 1 });
    a.push_jcc(Cond::Ne, top);
    a.push(Inst::Halt);
    let p = a.assemble();
    let mut mem = GuestMem::new();
    mem.write_bytes(p.base, &p.bytes);
    // Seed the data window with nonzero values.
    for w in (0..0x8000u32).step_by(4) {
        mem.write_u32(0x4_0000 + w, w.wrapping_mul(2654435761));
    }
    let mut cpu = CpuState::at(p.base);
    cpu.set_gpr(Gpr::Esp, 0x9_0000);
    (mem, cpu)
}

/// Replaces writes to `ebp` (the harness loop counter) with `edx`.
pub fn sanitize_ebp(inst: Inst) -> Inst {
    let fix = |r: Gpr| if r == Gpr::Ebp { Gpr::Edx } else { r };
    use Inst::*;
    match inst {
        MovRR { dst, src } => MovRR { dst: fix(dst), src },
        MovRI { dst, imm } => MovRI { dst: fix(dst), imm },
        Load { dst, addr } => Load { dst: fix(dst), addr },
        LoadZx { dst, addr, width } => LoadZx { dst: fix(dst), addr, width },
        LoadSx { dst, addr, width } => LoadSx { dst: fix(dst), addr, width },
        Lea { dst, addr } => Lea { dst: fix(dst), addr },
        AluRR { op, dst, src } => AluRR { op, dst: fix(dst), src },
        AluRI { op, dst, imm } => AluRI { op, dst: fix(dst), imm },
        AluRM { op, dst, addr } => AluRM { op, dst: fix(dst), addr },
        Shift { op, dst, amount } => Shift { op, dst: fix(dst), amount },
        ShiftCl { op, dst } => ShiftCl { op, dst: fix(dst) },
        Imul { dst, src } => Imul { dst: fix(dst), src },
        Idiv { dst, src } => Idiv { dst: fix(dst), src },
        Neg { dst } => Neg { dst: fix(dst) },
        Not { dst } => Not { dst: fix(dst) },
        Pop { dst } => Pop { dst: fix(dst) },
        CvtFI { dst, src } => CvtFI { dst: fix(dst), src },
        other => other,
    }
}
