//! Per-opcode boundary operands, through every executor of guest code.
//!
//! The random differential tests (`tests/common/guest_programs.rs`)
//! draw mid-range operands and never produce a base register, `esp` as
//! an explicit operand, a page-crossing access, `FpOp::Div`, `StoreI`,
//! `Syscall` or any control flow but `Jcc`. This file is the directed
//! complement: for each [`Inst`] variant, the operand values on which
//! its definition turns — integer extremes, every sub-operation, shift
//! amounts at and past the register width, every condition under every
//! flag word, FP specials, every addressing form, the last byte of a
//! page, `esp` in every role.
//!
//! Each case runs as `inst; Jmp FALL` with a `Halt` at [`FALL`] — a block
//! that ends in `Halt` is never promoted to a superblock — and `Nop;
//! Nop; Halt` at [`TARGET`] for taken control flow, so that the count
//! tells the two ends apart. It goes through the independent executor
//! `exec::step`, through `ExecCtx::step` and `ExecCtx::run`, and through
//! `Tol` as basic-block translations and as superblocks. All must agree
//! on the architectural state (every flag materialized), on memory and
//! on the instruction count, and the two stepping executors on every
//! [`StepInfo`]. The interpreter's cost emitter is handed each
//! `StepInfo` as well: a shape key outside its template table panics.

use darco::guest::exec::{self, StepInfo};
use darco::guest::{
    decode, encode, AluOp, Cond, CpuState, ExecCtx, Flags, FpOp, FpReg, Gpr, GuestMem, Inst,
    MemRef, MemWidth, Scale, ShiftOp,
};
use darco::host::events::EventBuffer;
use darco::host::NullSink;
use darco::tol::emission::Emitter;
use darco::tol::{Tol, TolConfig};
use std::mem::discriminant;

/// The instruction under test, followed by `Jmp FALL`.
const CODE: u32 = 0x1000;
/// `Halt`: where falling through the instruction ends (3 retired).
const FALL: u32 = 0x1800;
/// `Nop; Nop; Halt`, on a page of its own: where taken control flow
/// ends (4 retired).
const TARGET: u32 = 0x2000;
/// Two seeded data pages; `DATA + PAGE` is the boundary accesses cross.
const DATA: u32 = 0x4_0000;
const PAGE: u32 = 0x1000;
/// Initial stack pointer; the stack page below it is seeded too.
const STACK: u32 = 0x8_0000;

const INTS: [i32; 7] = [0, 1, 31, 32, i32::MAX, i32::MIN, -1];
const FLOATS: [f64; 8] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3e9, -3e9, 1.5];
const WIDTHS: [MemWidth; 2] = [MemWidth::B1, MemWidth::B2];
const SCALES: [Scale; 4] = [Scale::S1, Scale::S2, Scale::S4, Scale::S8];

/// One program: the instruction, the state it starts from and the
/// memory words written before it runs.
#[derive(Debug, Clone)]
struct Case {
    inst: Inst,
    cpu: CpuState,
    words: Vec<(u32, u32)>,
}

impl Case {
    /// Distinct register values of both signs, and every flag set: a
    /// flag writer that fails to clear one shows, as does an instruction
    /// that must leave them alone.
    fn new(inst: Inst) -> Case {
        let mut cpu = CpuState::at(CODE);
        cpu.gprs = [0x1111_1111, 3, 0x8000_0001, 0x7FFF_FFFF, STACK, 0xFFFF_FFFE, DATA + 0x200, 5];
        cpu.fprs = [1.5, -2.25, 0.0, 1e300, -1e-300, 7.0, f64::INFINITY, -0.0];
        cpu.flags = Flags::from_word(0x1F);
        Case { inst, cpu, words: Vec::new() }
    }

    fn gpr(mut self, r: Gpr, v: u32) -> Case {
        self.cpu.set_gpr(r, v);
        self
    }

    fn fpr(mut self, r: FpReg, v: f64) -> Case {
        self.cpu.set_fpr(r, v);
        self
    }

    fn flags(mut self, word: u32) -> Case {
        self.cpu.flags = Flags::from_word(word);
        self
    }

    fn word(mut self, addr: u32, v: u32) -> Case {
        self.words.push((addr, v));
        self
    }
}

/// Every addressing form, each resolving to `at`, with the registers it
/// reads: absolute, base ± displacement, a base that wraps past 2^32,
/// base + index at every scale, an index whose high bits the scale
/// shifts out, index alone, one register as base and index, and `esp`.
fn mem_operands(at: u32) -> Vec<(MemRef, Vec<(Gpr, u32)>)> {
    let (esi, edi, esp) = (Gpr::Esi, Gpr::Edi, Gpr::Esp);
    let mut v = vec![
        (MemRef::abs(at), vec![]),
        (MemRef::base(esi, 0x40), vec![(esi, at - 0x40)]),
        (MemRef::base(esi, -16), vec![(esi, at + 16)]),
        (MemRef::base(esi, at as i32 + 0x100), vec![(esi, 0xFFFF_FF00)]),
        (MemRef::base_index(esi, edi, Scale::S8, 0), vec![(esi, at - 16), (edi, 0x8000_0002)]),
        (
            MemRef { base: None, index: Some(edi), scale: Scale::S4, disp: at as i32 - 12 },
            vec![(edi, 3)],
        ),
        (MemRef::base_index(esi, esi, Scale::S2, at as i32 - 0x300), vec![(esi, 0x100)]),
        (MemRef::base(esp, 0), vec![(esp, at)]),
        (MemRef::base(esp, 8), vec![(esp, at - 8)]),
    ];
    for s in SCALES {
        let scaled = 3 << s as u32;
        v.push((MemRef::base_index(esi, edi, s, 0x20), vec![(esi, at - scaled - 0x20), (edi, 3)]));
    }
    v
}

/// Cases of an instruction with a memory operand of `width` bytes:
/// every addressing form at an interior address, and the absolute and
/// base + displacement forms on the last byte of a page (crossing it
/// when `width > 1`) and on its last `width` bytes. `make` gets the
/// operand and the address it resolves to.
fn with_mem(out: &mut Vec<Case>, width: u32, make: impl Fn(MemRef, u32) -> Case) {
    let edge = DATA + PAGE;
    for (at, forms) in [(DATA + 0x100, usize::MAX), (edge - 1, 2), (edge - width, 2)] {
        for (m, regs) in mem_operands(at).into_iter().take(forms) {
            out.push(regs.into_iter().fold(make(m, at), |c, (r, v)| c.gpr(r, v)));
        }
    }
}

/// Cases of a two-register instruction: every pair of [`INTS`], one
/// register in both roles, and `esp` in either.
fn reg_pairs(out: &mut Vec<Case>, make: impl Fn(Gpr, Gpr) -> Inst) {
    let (a, b) = (Gpr::Eax, Gpr::Ebx);
    for x in INTS {
        for y in INTS {
            out.push(Case::new(make(a, b)).gpr(a, x as u32).gpr(b, y as u32));
        }
        out.push(Case::new(make(a, a)).gpr(a, x as u32));
    }
    out.push(Case::new(make(Gpr::Esp, a)));
    out.push(Case::new(make(a, Gpr::Esp)));
}

/// Cases of a register-immediate instruction: every pair of [`INTS`],
/// and `esp` as the register.
fn reg_imms(out: &mut Vec<Case>, make: impl Fn(Gpr, i32) -> Inst) {
    for x in INTS {
        for imm in INTS {
            out.push(Case::new(make(Gpr::Eax, imm)).gpr(Gpr::Eax, x as u32));
        }
    }
    out.push(Case::new(make(Gpr::Esp, -4)));
}

/// Register and memory-word pairs for the load-op and read-modify-write
/// forms: carries, borrows and signed overflow in both directions.
const WORD_PAIRS: [(i32, i32); 8] = [
    (0, 0),
    (1, -1),
    (-1, 1),
    (i32::MAX, 1),
    (i32::MIN, -1),
    (i32::MIN, i32::MIN),
    (i32::MAX, i32::MIN),
    (31, 32),
];

/// The cases of `template`'s variant. The `match` has no wildcard arm: a
/// new guest instruction does not compile until it has cases here.
fn cases_for(template: &Inst, out: &mut Vec<Case>) {
    use Inst::*;
    let (eax, ecx, esi, esp) = (Gpr::Eax, Gpr::Ecx, Gpr::Esi, Gpr::Esp);
    let (f0, f1) = (FpReg(0), FpReg(1));
    let abs = MemRef::abs(DATA + 0x100);
    match *template {
        Nop => out.push(Case::new(Nop)),
        Halt => out.push(Case::new(Halt)),
        Syscall => out.push(Case::new(Syscall)),
        MovRR { .. } => reg_pairs(out, |dst, src| MovRR { dst, src }),
        MovRI { .. } => reg_imms(out, |dst, imm| MovRI { dst, imm }),
        Load { .. } => {
            with_mem(out, 4, |addr, _| Case::new(Load { dst: eax, addr }));
            // The destination is also the base: the address comes first.
            out.push(Case::new(Load { dst: esi, addr: MemRef::base(esi, 4) }));
            out.push(Case::new(Load { dst: esp, addr: MemRef::base(esp, -8) }));
        }
        Store { .. } => {
            with_mem(out, 4, |addr, _| Case::new(Store { addr, src: eax }));
            for x in INTS {
                out.push(Case::new(Store { addr: abs, src: eax }).gpr(eax, x as u32));
            }
            out.push(Case::new(Store { addr: MemRef::base(esp, -4), src: esp }));
        }
        StoreI { .. } => {
            with_mem(out, 4, |addr, _| Case::new(StoreI { addr, imm: -2 }));
            for imm in INTS {
                out.push(Case::new(StoreI { addr: abs, imm }));
            }
        }
        LoadZx { .. } | LoadSx { .. } => {
            let zx = matches!(template, LoadZx { .. });
            let make = |addr, width| {
                if zx {
                    LoadZx { dst: eax, addr, width }
                } else {
                    LoadSx { dst: eax, addr, width }
                }
            };
            for width in WIDTHS {
                with_mem(out, width.bytes() as u32, |addr, _| Case::new(make(addr, width)));
                // Either side of each width's sign bit.
                for v in [0, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF, 0xFFFF_FFFF] {
                    out.push(Case::new(make(abs, width)).word(DATA + 0x100, v));
                }
            }
        }
        StoreN { .. } => {
            for width in WIDTHS {
                with_mem(out, width.bytes() as u32, |addr, _| {
                    Case::new(StoreN { addr, src: eax, width })
                });
                for v in [0x1234_5678, 0xFFFF_FFFF, 0x80, 0x8000, 0] {
                    out.push(Case::new(StoreN { addr: abs, src: eax, width }).gpr(eax, v));
                }
                out.push(Case::new(StoreN { addr: MemRef::base(esp, -4), src: esp, width }));
            }
        }
        Lea { .. } => {
            with_mem(out, 1, |addr, _| Case::new(Lea { dst: eax, addr }));
            out.push(Case::new(Lea {
                dst: esi,
                addr: MemRef::base_index(esi, esi, Scale::S8, -1),
            }));
            out.push(Case::new(Lea { dst: esp, addr: MemRef::base(esp, i32::MIN) }));
        }
        AluRR { .. } => {
            for op in AluOp::ALL {
                reg_pairs(out, |dst, src| AluRR { op, dst, src });
            }
        }
        AluRI { .. } => {
            for op in AluOp::ALL {
                reg_imms(out, |dst, imm| AluRI { op, dst, imm });
            }
        }
        AluRM { .. } => {
            for op in AluOp::ALL {
                with_mem(out, 4, |addr, _| Case::new(AluRM { op, dst: eax, addr }));
                for (x, y) in WORD_PAIRS {
                    let case = Case::new(AluRM { op, dst: eax, addr: abs });
                    out.push(case.gpr(eax, x as u32).word(DATA + 0x100, y as u32));
                }
                out.push(Case::new(AluRM { op, dst: esp, addr: MemRef::base(esp, -4) }));
            }
        }
        AluMR { .. } => {
            for op in AluOp::ALL {
                with_mem(out, 4, |addr, _| Case::new(AluMR { op, addr, src: eax }));
                for (x, y) in WORD_PAIRS {
                    let case = Case::new(AluMR { op, addr: abs, src: eax });
                    out.push(case.gpr(eax, y as u32).word(DATA + 0x100, x as u32));
                }
                out.push(Case::new(AluMR { op, addr: MemRef::base(esp, -4), src: esp }));
            }
        }
        CmpRR { .. } => reg_pairs(out, |a, b| CmpRR { a, b }),
        CmpRI { .. } => reg_imms(out, |a, imm| CmpRI { a, imm }),
        TestRR { .. } => reg_pairs(out, |a, b| TestRR { a, b }),
        Shift { .. } => {
            for op in ShiftOp::ALL {
                for amount in [0, 1, 31, 32, 33, 63, 255] {
                    for x in INTS {
                        out.push(Case::new(Shift { op, dst: eax, amount }).gpr(eax, x as u32));
                    }
                }
                // A zero amount (also 32: it is masked) keeps the flags,
                // whatever they were.
                for amount in [0, 32] {
                    out.push(Case::new(Shift { op, dst: eax, amount }).flags(0));
                    out.push(Case::new(Shift { op, dst: esp, amount: amount + 1 }));
                }
            }
        }
        ShiftCl { .. } => {
            let counts = [0, 1, 31, 32, 33, 63, 0x100, 0xFFFF_FFFF];
            for op in ShiftOp::ALL {
                for count in counts {
                    for x in INTS {
                        let case = Case::new(ShiftCl { op, dst: eax });
                        out.push(case.gpr(eax, x as u32).gpr(ecx, count));
                    }
                    // The count register shifted by itself.
                    out.push(Case::new(ShiftCl { op, dst: ecx }).gpr(ecx, count));
                }
                out.push(Case::new(ShiftCl { op, dst: eax }).gpr(ecx, 0).flags(0));
                out.push(Case::new(ShiftCl { op, dst: esp }));
            }
        }
        Imul { .. } => reg_pairs(out, |dst, src| Imul { dst, src }),
        Idiv { .. } => reg_pairs(out, |dst, src| Idiv { dst, src }),
        Neg { .. } | Not { .. } => {
            let neg = matches!(template, Neg { .. });
            let make = |dst| if neg { Neg { dst } } else { Not { dst } };
            for x in INTS {
                out.push(Case::new(make(eax)).gpr(eax, x as u32));
            }
            out.push(Case::new(make(esp)));
        }
        Push { .. } => {
            out.push(Case::new(Push { src: eax }));
            // `push esp` stores the decremented pointer.
            out.push(Case::new(Push { src: esp }));
            out.push(Case::new(Push { src: eax }).gpr(esp, STACK - PAGE + 2));
        }
        Pop { .. } => {
            out.push(Case::new(Pop { dst: eax }).gpr(esp, STACK - 16));
            // `pop esp` ends with the loaded value, not the increment.
            out.push(Case::new(Pop { dst: esp }).gpr(esp, STACK - 16));
            out.push(Case::new(Pop { dst: eax }).gpr(esp, STACK - PAGE - 2));
        }
        Jcc { .. } => {
            for cond in Cond::ALL {
                for word in 0..32 {
                    out.push(Case::new(Jcc { cond, target: TARGET }).flags(word));
                }
            }
        }
        Jmp { .. } => out.push(Case::new(Jmp { target: TARGET })),
        JmpInd { .. } => {
            out.push(Case::new(JmpInd { reg: eax }).gpr(eax, TARGET));
            out.push(Case::new(JmpInd { reg: esp }).gpr(esp, TARGET));
        }
        JmpMem { .. } => {
            with_mem(out, 4, |addr, at| Case::new(JmpMem { addr }).word(at, TARGET));
        }
        Call { .. } => {
            out.push(Case::new(Call { target: TARGET }));
            out.push(Case::new(Call { target: TARGET }).gpr(esp, STACK - PAGE + 2));
        }
        CallInd { .. } => {
            out.push(Case::new(CallInd { reg: eax }).gpr(eax, TARGET));
            // The target is read before the push moves `esp` (and the
            // return address lands at the end of the code page).
            out.push(Case::new(CallInd { reg: esp }).gpr(esp, TARGET));
            out.push(Case::new(CallInd { reg: eax }).gpr(eax, TARGET).gpr(esp, STACK - PAGE + 2));
        }
        Ret => {
            for sp in [STACK - 16, STACK - PAGE - 2] {
                out.push(Case::new(Ret).gpr(esp, sp).word(sp, TARGET));
            }
        }
        FMovRR { .. } => {
            for x in FLOATS {
                out.push(Case::new(FMovRR { dst: f0, src: f1 }).fpr(f1, x));
            }
            out.push(Case::new(FMovRR { dst: FpReg(7), src: FpReg(7) }));
        }
        FLoad { .. } => {
            with_mem(out, 8, |addr, _| Case::new(FLoad { dst: f0, addr }));
            // A NaN with a payload and the sign set travels bit for bit.
            let nan = Case::new(FLoad { dst: FpReg(7), addr: abs });
            out.push(nan.word(DATA + 0x100, 0xDEAD_BEEF).word(DATA + 0x104, 0xFFF0_0001));
        }
        FStore { .. } => {
            with_mem(out, 8, |addr, _| Case::new(FStore { addr, src: f0 }));
            for x in FLOATS {
                out.push(Case::new(FStore { addr: abs, src: f1 }).fpr(f1, x));
            }
        }
        FArith { .. } => {
            for op in FpOp::ALL {
                for x in FLOATS {
                    for y in FLOATS {
                        out.push(Case::new(FArith { op, dst: f0, src: f1 }).fpr(f0, x).fpr(f1, y));
                    }
                    out.push(Case::new(FArith { op, dst: f1, src: f1 }).fpr(f1, x));
                }
            }
        }
        CvtIF { .. } => {
            for x in INTS {
                out.push(Case::new(CvtIF { dst: f0, src: eax }).gpr(eax, x as u32));
            }
            out.push(Case::new(CvtIF { dst: FpReg(7), src: esp }));
        }
        CvtFI { .. } => {
            let edges = [
                2_147_483_647.5,
                2_147_483_648.0,
                -2_147_483_648.5,
                -2_147_483_649.0,
                0.9,
                -0.9,
                f64::MAX,
                f64::MIN_POSITIVE,
                5e-324,
            ];
            for x in FLOATS.into_iter().chain(edges) {
                out.push(Case::new(CvtFI { dst: eax, src: f1 }).fpr(f1, x));
            }
            out.push(Case::new(CvtFI { dst: esp, src: f1 }).fpr(f1, -1.0));
        }
    }
}

/// One instruction of every variant the decoder knows: each opcode byte
/// followed by zeros, first of its variant kept.
fn templates() -> Vec<Inst> {
    let mut seen: Vec<Inst> = Vec::new();
    for opcode in 0..=u8::MAX {
        let mut bytes = [0u8; exec::MAX_INST_LEN];
        bytes[0] = opcode;
        if let Ok((inst, _)) = decode(&bytes) {
            if !seen.iter().any(|s| discriminant(s) == discriminant(&inst)) {
                seen.push(inst);
            }
        }
    }
    seen
}

/// Guest memory before any case: the two ends, the data pages and the
/// stack pages, seeded so that no load reads zero.
fn base_memory() -> GuestMem {
    let mut mem = GuestMem::new();
    for (at, end) in [(FALL, &[Inst::Halt][..]), (TARGET, &[Inst::Nop, Inst::Nop, Inst::Halt])] {
        let mut bytes = Vec::new();
        for inst in end {
            encode(inst, &mut bytes);
        }
        mem.write_bytes(at, &bytes);
    }
    for (base, len) in [(DATA, 2 * PAGE), (STACK - 2 * PAGE, 2 * PAGE)] {
        for a in (base..base + len).step_by(4) {
            mem.write_u32(a, a.wrapping_mul(0x9E37_79B9) | 0x0080_8001);
        }
    }
    mem
}

fn load(case: &Case, base: &GuestMem) -> GuestMem {
    let mut mem = base.clone();
    let mut bytes = Vec::new();
    encode(&case.inst, &mut bytes);
    encode(&Inst::Jmp { target: FALL }, &mut bytes);
    mem.write_bytes(CODE, &bytes);
    for &(addr, v) in &case.words {
        mem.write_u32(addr, v);
    }
    mem
}

/// Where a run ended: state, memory, instructions retired.
struct Outcome {
    cpu: CpuState,
    mem: GuestMem,
    n: u64,
}

fn assert_agrees(who: &str, case: &Case, want: &Outcome, got: &Outcome) {
    assert!(
        want.cpu.arch_eq(&got.cpu),
        "{who}: state differs\ncase: {case:?}\nwant: {}\ngot:  {}",
        want.cpu,
        got.cpu
    );
    let at = want.mem.first_difference(&got.mem);
    assert_eq!(at, None, "{who}: memory differs\ncase: {case:?}");
    assert_eq!(want.n, got.n, "{who}: instruction count\ncase: {case:?}");
}

/// Runs `case` to `Halt` one step at a time, with the `StepInfo`s.
fn stepped(
    case: &Case,
    mem: &GuestMem,
    mut step: impl FnMut(&mut CpuState, &mut GuestMem) -> StepInfo,
) -> (Outcome, Vec<(u32, StepInfo)>) {
    let (mut cpu, mut mem) = (case.cpu.clone(), mem.clone());
    let mut infos = Vec::new();
    while !cpu.halted {
        assert!(infos.len() < 4, "no path retires more than four\ncase: {case:?}");
        let pc = cpu.eip;
        infos.push((pc, step(&mut cpu, &mut mem)));
    }
    let n = infos.len() as u64;
    (Outcome { cpu, mem, n }, infos)
}

/// Runs `case` on `tol` from a fresh copy of `mem`.
fn translated(tol: &mut Tol, case: &Case, mem: &GuestMem) -> Outcome {
    let mut mem = mem.clone();
    tol.set_state(&case.cpu);
    let n = tol.run(&mut mem, &mut NullSink, 16).expect("decodable by construction");
    Outcome { cpu: tol.emulated_state(), mem, n }
}

#[test]
fn every_opcode_agrees_across_executors_on_boundary_operands() {
    let templates = templates();
    let mut cases = Vec::new();
    for t in &templates {
        let before = cases.len();
        cases_for(t, &mut cases);
        assert!(
            cases[before..].iter().all(|c| discriminant(&c.inst) == discriminant(t)),
            "cases_for({t:?}) built another variant's cases"
        );
    }

    let base = base_memory();
    let mut em = Emitter::new();
    let mut sink = NullSink;
    let mut ev = EventBuffer::new(4096, &mut sink);
    let mut superblocks = 0;
    for case in &cases {
        let mem = load(case, &base);
        let (want, want_infos) = stepped(case, &mem, |cpu, mem| exec::step(cpu, mem).unwrap());

        let mut ctx = ExecCtx::new();
        let (mut got, infos) = stepped(case, &mem, |cpu, mem| ctx.step(cpu, mem).unwrap());
        ctx.force_flags(&mut got.cpu);
        assert_eq!(want_infos, infos, "ExecCtx::step: StepInfo\ncase: {case:?}");
        assert_agrees("ExecCtx::step", case, &want, &got);
        for (pc, info) in &infos {
            em.interp_step(&mut ev, *pc, info);
        }

        let mut ctx = ExecCtx::new();
        let mut got = Outcome { cpu: case.cpu.clone(), mem: mem.clone(), n: 0 };
        ctx.run(&mut got.cpu, &mut got.mem, u64::MAX, &mut got.n).unwrap();
        ctx.force_flags(&mut got.cpu);
        assert_agrees("ExecCtx::run", case, &want, &got);

        // Translated on first sight, never promoted.
        let bbm = TolConfig { im_bb_threshold: 0, bb_sb_threshold: u32::MAX, ..Default::default() };
        let got = translated(&mut Tol::new(bbm, CODE), case, &mem);
        assert_agrees("Tol (BBM)", case, &want, &got);

        // Promoted after its second execution: the third runs the
        // superblock.
        let sbm = TolConfig { im_bb_threshold: 0, bb_sb_threshold: 2, ..Default::default() };
        let mut tol = Tol::new(sbm, CODE);
        for round in ["Tol (SBM, run 1)", "Tol (SBM, run 2)", "Tol (SBM, run 3)"] {
            assert_agrees(round, case, &want, &translated(&mut tol, case, &mem));
        }
        superblocks += tol.summary().counters.sbm_invocations;
    }
    ev.flush();
    assert_eq!(
        superblocks,
        cases.len() as u64 - 1,
        "every case but `Halt` itself runs as a superblock in its third round"
    );
}
