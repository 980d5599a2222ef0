//! The random blocks the integration tests share: straight-line guest
//! basic blocks for the translator, and well-formed [`IrBlock`]s built
//! directly at the IR level (not through the guest decoder), in the
//! shapes the translator emits.

use darco_guest::asm::Asm;
use darco_guest::{AluOp, Cond, FpOp, Gpr, GuestMem, Inst, MemRef, MemWidth, ShiftOp};
use darco_host::{Exit, FlagsKind, HAluOp, HFreg, Width};
use darco_tol::ir::{self, IrBlock, IrFreg, IrInst, IrOp, IrReg};
use darco_tol::translate::{decode_bb, RegionInst};
use rand::rngs::SmallRng;
use rand::Rng;

const GPRS: [Gpr; 6] = [Gpr::Eax, Gpr::Ecx, Gpr::Edx, Gpr::Ebx, Gpr::Esi, Gpr::Edi];

fn gpr(rng: &mut SmallRng) -> Gpr {
    GPRS[rng.gen_range(0..GPRS.len())]
}

fn data_ref(rng: &mut SmallRng) -> MemRef {
    MemRef {
        base: None,
        index: None,
        scale: darco_guest::Scale::S1,
        disp: 0x4_0000 + rng.gen_range(0i32..0x1000),
    }
}

fn narrow_width(rng: &mut SmallRng) -> MemWidth {
    if rng.gen_bool(0.5) {
        MemWidth::B2
    } else {
        MemWidth::B1
    }
}

/// One random straight-line guest instruction.
pub fn straightline(rng: &mut SmallRng) -> Inst {
    match rng.gen_range(0..11) {
        0 => Inst::MovRR { dst: gpr(rng), src: gpr(rng) },
        1 => Inst::MovRI { dst: gpr(rng), imm: rng.gen_range(-0x8000i32..0x8000) },
        2 => Inst::AluRR { op: AluOp::Add, dst: gpr(rng), src: gpr(rng) },
        3 => Inst::AluRI { op: AluOp::Xor, dst: gpr(rng), imm: rng.gen_range(-100i32..100) },
        4 => Inst::Shift { op: ShiftOp::Shr, dst: gpr(rng), amount: rng.gen_range(0u8..31) },
        5 => Inst::Load { dst: gpr(rng), addr: data_ref(rng) },
        6 => Inst::Store { addr: data_ref(rng), src: gpr(rng) },
        7 => Inst::Imul { dst: gpr(rng), src: gpr(rng) },
        8 => Inst::LoadSx { dst: gpr(rng), addr: data_ref(rng), width: narrow_width(rng) },
        9 => Inst::StoreN { addr: data_ref(rng), src: gpr(rng), width: narrow_width(rng) },
        _ => Inst::Neg { dst: gpr(rng) },
    }
}

/// Assembles `body` + `halt` into guest memory and returns the decoded
/// basic block region.
pub fn make_bb(body: &[Inst]) -> (GuestMem, Vec<RegionInst>) {
    let mut a = Asm::new(0x1000);
    for i in body {
        a.push(*i);
    }
    a.push(Inst::Halt);
    let p = a.assemble();
    let mut mem = GuestMem::new();
    mem.write_bytes(p.base, &p.bytes);
    let bb = decode_bb(&mem, p.base).expect("decode");
    (mem, bb)
}

const ALUS: [HAluOp; 7] =
    [HAluOp::Add, HAluOp::Sub, HAluOp::And, HAluOp::Or, HAluOp::Xor, HAluOp::Shl, HAluOp::Shr];
const FLAG_KINDS: [FlagsKind; 6] = [
    FlagsKind::Add,
    FlagsKind::Sub,
    FlagsKind::Logic,
    FlagsKind::Shl,
    FlagsKind::Shr,
    FlagsKind::Sar,
];

/// An integer source: a previously defined virtual, a pinned guest
/// register, or the hard zero.
fn isrc(rng: &mut SmallRng, pool: &[IrReg]) -> IrReg {
    if !pool.is_empty() && rng.gen_bool(0.5) {
        pool[rng.gen_range(0..pool.len())]
    } else if rng.gen_bool(0.1) {
        IrReg::ZERO
    } else {
        IrReg::Phys(ir::guest_gpr_reg(rng.gen_range(0usize..8)))
    }
}

fn fsrc(rng: &mut SmallRng, pool: &[IrFreg]) -> IrFreg {
    if !pool.is_empty() && rng.gen_bool(0.5) {
        pool[rng.gen_range(0..pool.len())]
    } else {
        IrFreg::Phys(HFreg(rng.gen_range(0u8..8)))
    }
}

fn mem_width(rng: &mut SmallRng) -> Width {
    match rng.gen_range(0..3) {
        0 => Width::W1,
        1 => Width::W2,
        _ => Width::W4,
    }
}

/// A memory operand confined to a small data region so loads observe
/// values the test seeded and constprop can fold absolute addresses.
fn mem_operand(rng: &mut SmallRng, pool: &[IrReg]) -> (IrReg, i32) {
    if rng.gen_bool(0.5) {
        (IrReg::ZERO, 0x4_0000 + 4 * rng.gen_range(0i32..256))
    } else {
        (isrc(rng, pool), 4 * rng.gen_range(0i32..64))
    }
}

/// Generates a well-formed random [`IrBlock`]: virtual registers are in
/// SSA form (defined once, before every use), branch stubs are valid,
/// and the shape mirrors what the translator emits.
pub fn random_ir_block(rng: &mut SmallRng) -> IrBlock {
    let n_stubs = rng.gen_range(0u32..3);
    let len = rng.gen_range(4usize..28);
    let mut next_virt = 0u32;
    let mut next_fvirt = 0u32;
    let mut ipool: Vec<IrReg> = Vec::new();
    let mut fpool: Vec<IrFreg> = Vec::new();
    let mut ops = Vec::new();

    for i in 0..len {
        // Destinations: fresh virtual (single assignment) or a pinned
        // guest register, as the translator produces.
        let mut idst = |rng: &mut SmallRng, ipool: &mut Vec<IrReg>| {
            if rng.gen_bool(0.6) {
                let r = IrReg::Virt(next_virt);
                next_virt += 1;
                ipool.push(r);
                r
            } else {
                IrReg::Phys(ir::guest_gpr_reg(rng.gen_range(0usize..8)))
            }
        };
        let inst = match rng.gen_range(0..14) {
            0 | 1 => {
                IrInst::Li { rd: idst(rng, &mut ipool), imm: rng.gen_range(-0x8000i32..0x8000) }
            }
            2 | 3 => {
                // Pick sources before the destination: `idst` may mint a
                // fresh virtual, which must not be readable yet.
                let (ra, rb) = (isrc(rng, &ipool), isrc(rng, &ipool));
                IrInst::Alu {
                    op: ALUS[rng.gen_range(0..ALUS.len())],
                    rd: idst(rng, &mut ipool),
                    ra,
                    rb,
                }
            }
            4 => {
                let ra = isrc(rng, &ipool);
                IrInst::AluI {
                    op: ALUS[rng.gen_range(0..ALUS.len())],
                    rd: idst(rng, &mut ipool),
                    ra,
                    imm: rng.gen_range(-100i32..100),
                }
            }
            5 => {
                let (ra, rb) = (isrc(rng, &ipool), isrc(rng, &ipool));
                IrInst::Mul { rd: idst(rng, &mut ipool), ra, rb }
            }
            6 => {
                let (base, off) = mem_operand(rng, &ipool);
                IrInst::Ld { rd: idst(rng, &mut ipool), base, off, width: mem_width(rng) }
            }
            7 => {
                let (base, off) = mem_operand(rng, &ipool);
                IrInst::St { rs: isrc(rng, &ipool), base, off, width: mem_width(rng) }
            }
            8 => {
                let (ra, rb) = (isrc(rng, &ipool), isrc(rng, &ipool));
                IrInst::FlagsArith {
                    kind: FLAG_KINDS[rng.gen_range(0..FLAG_KINDS.len())],
                    rd: if rng.gen_bool(0.5) {
                        idst(rng, &mut ipool)
                    } else {
                        IrReg::Phys(ir::FLAGS_REG)
                    },
                    ra,
                    rb,
                }
            }
            9 if n_stubs > 0 => IrInst::BrFlags {
                cond: Cond::ALL[rng.gen_range(0..Cond::ALL.len())],
                flags: isrc(rng, &ipool),
                target: rng.gen_range(0..n_stubs),
            },
            10 => IrInst::CvtIF {
                fd: {
                    let f = IrFreg::Virt(next_fvirt);
                    next_fvirt += 1;
                    fpool.push(f);
                    f
                },
                ra: isrc(rng, &ipool),
            },
            11 => IrInst::FArith {
                op: FpOp::ALL[rng.gen_range(0..FpOp::ALL.len())],
                fd: IrFreg::Phys(HFreg(rng.gen_range(0u8..8))),
                fa: fsrc(rng, &fpool),
                fb: fsrc(rng, &fpool),
            },
            12 => {
                let (base, off) = mem_operand(rng, &ipool);
                IrInst::FSt { fs: fsrc(rng, &fpool), base, off }
            }
            _ => IrInst::CvtFI { rd: idst(rng, &mut ipool), fa: fsrc(rng, &fpool) },
        };
        ops.push(IrOp { inst, guest_idx: i as u32 });
    }

    IrBlock {
        ops,
        stubs: (0..n_stubs)
            .map(|i| Exit::Direct { guest_target: 0x5000 + i * 16, link: None })
            .collect(),
        stub_guest_counts: (1..=n_stubs).collect(),
        fallthrough: Exit::Direct { guest_target: 0x2000, link: None },
        guest_len: len as u32,
    }
}
