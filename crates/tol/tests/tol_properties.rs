//! Property tests for the software layer's compilation pipeline:
//! lowering shape, register-allocation validity and optimizer
//! semantic preservation on random basic blocks. Driven by a seeded
//! deterministic generator (no crates.io access, so `proptest` is
//! replaced by case loops over a `SmallRng`).

use darco_guest::asm::Asm;
use darco_guest::{AluOp, CpuState, Gpr, GuestMem, Inst, MemRef, MemWidth, ShiftOp};
use darco_host::{exec_inst, HostState, Outcome};
use darco_tol::config::TolConfig;
use darco_tol::ir::{self, lower};
use darco_tol::opt;
use darco_tol::translate::{decode_bb, translate_region};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

fn straightline(rng: &mut SmallRng) -> Inst {
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
fn make_bb(body: &[Inst]) -> (GuestMem, u32, Vec<darco_tol::translate::RegionInst>) {
    let mut a = Asm::new(0x1000);
    for i in body {
        a.push(*i);
    }
    a.push(Inst::Halt);
    let p = a.assemble();
    let mut mem = GuestMem::new();
    mem.write_bytes(p.base, &p.bytes);
    let bb = decode_bb(&mem, p.base).expect("decode");
    (mem, p.base, bb)
}

/// Runs lowered host code for a one-exit block, returning the final
/// host state.
fn run_lowered(host: &[darco_host::HInst], mem: &mut GuestMem, init: &CpuState) -> HostState {
    let mut st = HostState::new();
    for (i, g) in darco_guest::Gpr::ALL.iter().enumerate() {
        st.set_reg(ir::guest_gpr_reg(i), init.gpr(*g));
    }
    st.set_reg(ir::FLAGS_REG, init.flags.to_word());
    let mut idx = 0usize;
    loop {
        match exec_inst(&mut st, &host[idx], mem) {
            Outcome::Next => idx += 1,
            Outcome::Taken(t) => idx = t as usize,
            Outcome::Exited(_) => return st,
        }
    }
}

/// The optimizer never changes what a basic block computes: the
/// unoptimized and fully optimized lowerings finish in identical
/// pinned guest state and identical memory.
#[test]
fn optimizer_preserves_block_semantics() {
    for case in 0u64..32 {
        let mut rng = SmallRng::seed_from_u64(0x70_0001 + case);
        let len = rng.gen_range(1usize..25);
        let body: Vec<Inst> = (0..len).map(|_| straightline(&mut rng)).collect();
        let seed: u32 = rng.gen();

        let (mem0, _, bb) = make_bb(&body);
        let ir_block = translate_region(&bb);

        // Baseline: no passes, trivial allocation via the optimizer with
        // everything off.
        let off = TolConfig::no_optimization();
        let (plain_block, plain_map) = opt::optimize(ir_block.clone(), &off).expect("alloc");
        let plain = lower(&plain_block, &plain_map);

        // Full pipeline (including the software-prefetch pass).
        let on = TolConfig { opt_sw_prefetch: true, ..TolConfig::default() };
        let (opt_block, opt_map) = opt::optimize(ir_block, &on).expect("alloc");
        let optimized = lower(&opt_block, &opt_map);

        let mut init = CpuState::at(0x1000);
        let mut x = seed | 1;
        for g in darco_guest::Gpr::ALL {
            x = x.wrapping_mul(2654435761).wrapping_add(12345);
            if g != Gpr::Esp {
                init.set_gpr(g, x);
            }
        }
        init.set_gpr(Gpr::Esp, 0x8_0000);

        let mut mem_a = mem0.clone();
        let sa = run_lowered(&plain, &mut mem_a, &init);
        let mut mem_b = mem0.clone();
        let sb = run_lowered(&optimized, &mut mem_b, &init);

        for i in 0..8 {
            assert_eq!(
                sa.reg(ir::guest_gpr_reg(i)),
                sb.reg(ir::guest_gpr_reg(i)),
                "case {case}: guest register {i} differs"
            );
        }
        assert_eq!(sa.reg(ir::FLAGS_REG), sb.reg(ir::FLAGS_REG), "case {case}: flags differ");
        assert_eq!(mem_a.first_difference(&mem_b), None, "case {case}: memory differs");
    }
}

/// Register allocation keeps every assignment inside the scratch
/// window of the application register half.
#[test]
fn regalloc_stays_in_scratch_range() {
    for case in 0u64..32 {
        let mut rng = SmallRng::seed_from_u64(0x70_1001 + case);
        let len = rng.gen_range(1usize..25);
        let body: Vec<Inst> = (0..len).map(|_| straightline(&mut rng)).collect();

        let (_, _, bb) = make_bb(&body);
        let block = translate_region(&bb);
        let (block, map) = opt::optimize(block, &TolConfig::default()).expect("alloc");
        for (_, r) in map.int.iter() {
            assert!((ir::SCRATCH_BASE..ir::SCRATCH_END).contains(&r.0), "case {case}");
        }
        for (_, f) in map.fp.iter() {
            assert!((ir::FSCRATCH_BASE..ir::FSCRATCH_END).contains(&f.0), "case {case}");
        }
        // Lowering covers the whole block: body + fallthrough + stubs.
        let host = lower(&block, &map);
        let live_ops = block.ops.iter().filter(|o| o.inst != darco_tol::ir::IrInst::Nop).count();
        assert_eq!(host.len(), live_ops + 1 + block.stubs.len(), "case {case}");
    }
}

// --------------------------------------------------------------------
// Random IR blocks, generated directly at the IR level (not through the
// guest decoder), exercising the verifier layer: the full pipeline with
// verification forced on must never reject a legal block (no false
// positives), and the optimized result must match a reference execution
// of the unoptimized block instruction-for-instruction in observable
// state.

mod common;

use common::random_ir_block;
use darco_host::{Exit, HFreg, HInst};

/// Deterministic pinned host state for a differential run.
fn seeded_state(seed: u32) -> HostState {
    let mut st = HostState::new();
    let mut x = seed | 1;
    for i in 0..8 {
        x = x.wrapping_mul(2654435761).wrapping_add(97);
        st.set_reg(ir::guest_gpr_reg(i), x);
    }
    st.set_reg(ir::FLAGS_REG, 0x46);
    for i in 0..8u8 {
        st.set_freg(HFreg(i), f64::from(i) * 1.25 - 3.0);
    }
    st
}

/// Interprets lowered host code until it exits, returning the final
/// state and the exit taken.
fn run_host(host: &[HInst], mem: &mut GuestMem, mut st: HostState) -> (HostState, Exit) {
    let mut idx = 0usize;
    loop {
        match exec_inst(&mut st, &host[idx], mem) {
            Outcome::Next => idx += 1,
            Outcome::Taken(t) => idx = t as usize,
            Outcome::Exited(e) => return (st, e),
        }
    }
}

/// The verifier never rejects a legal block: the full pipeline with
/// verification forced on succeeds on random well-formed IR (zero false
/// positives) and reports one verified block each time.
#[test]
fn random_ir_blocks_pass_the_verifier() {
    let cfg = TolConfig { verify: true, opt_sw_prefetch: true, ..TolConfig::default() };
    let mut verified = 0u32;
    for case in 0u64..64 {
        let mut rng = SmallRng::seed_from_u64(0x70_2001 + case);
        let block = random_ir_block(&mut rng);
        match opt::optimize_stats(block, &cfg) {
            Ok((_, _, stats)) => {
                assert_eq!(stats.blocks_verified, 1, "case {case}");
                verified += 1;
            }
            // Register-pressure bailouts are legal, just rare.
            Err(opt::OptError::OutOfRegisters) => {}
            Err(opt::OptError::Miscompile(f)) => panic!("case {case}: false positive:\n{f}"),
        }
    }
    assert!(verified >= 48, "too many pressure bailouts: {verified}/64 verified");
}

/// The optimized lowering of a random IR block takes the same exit and
/// leaves identical pinned registers and memory as a reference
/// interpretation of the unoptimized block.
#[test]
fn optimized_random_ir_matches_reference_execution() {
    for case in 0u64..48 {
        let mut rng = SmallRng::seed_from_u64(0x70_3001 + case);
        let block = random_ir_block(&mut rng);
        let seed: u32 = rng.gen();

        let off = TolConfig::no_optimization();
        let Ok((plain_block, plain_map)) = opt::optimize(block.clone(), &off) else {
            continue;
        };
        let cfg = TolConfig { verify: true, opt_sw_prefetch: true, ..TolConfig::default() };
        let (opt_block, opt_map) = match opt::optimize(block, &cfg) {
            Ok(v) => v,
            Err(opt::OptError::OutOfRegisters) => continue,
            Err(opt::OptError::Miscompile(f)) => panic!("case {case}:\n{f}"),
        };
        let plain = lower(&plain_block, &plain_map);
        let optimized = lower(&opt_block, &opt_map);

        let mut mem0 = GuestMem::new();
        for i in 0..256u32 {
            mem0.write_u32(0x4_0000 + 4 * i, i.wrapping_mul(2654435761) ^ seed);
        }

        let mut mem_a = mem0.clone();
        let (sa, ea) = run_host(&plain, &mut mem_a, seeded_state(seed));
        let mut mem_b = mem0.clone();
        let (sb, eb) = run_host(&optimized, &mut mem_b, seeded_state(seed));

        assert_eq!(ea, eb, "case {case}: exits differ");
        for i in 0..8 {
            assert_eq!(
                sa.reg(ir::guest_gpr_reg(i)),
                sb.reg(ir::guest_gpr_reg(i)),
                "case {case}: guest register {i} differs"
            );
        }
        assert_eq!(sa.reg(ir::FLAGS_REG), sb.reg(ir::FLAGS_REG), "case {case}: flags differ");
        for i in 0..8u8 {
            assert_eq!(
                sa.freg(HFreg(i)).to_bits(),
                sb.freg(HFreg(i)).to_bits(),
                "case {case}: fp register {i} differs"
            );
        }
        assert_eq!(mem_a.first_difference(&mem_b), None, "case {case}: memory differs");
    }
}
