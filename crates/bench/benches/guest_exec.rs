//! Functional-emulation throughput: guest MIPS through the block
//! executor, `ExecCtx` (DESIGN.md §16), versus the independent
//! decode-per-step executor, `exec::step`.
//!
//! Two workloads, each run to `Halt` three ways — `oracle`
//! (`exec::step`), `fast` (`ExecCtx::step` per instruction, what the
//! repository benchmark reports as `guest.exec_mips`) and `run` (one
//! `ExecCtx::run` call: the block-granular loop the state checker and
//! the interpreter sit on, without a `StepInfo` per instruction):
//!
//! * `guest_exec/{fast,run,oracle}_mixed_loop` — a hand-built counted loop
//!   mixing ALU, narrow/wide memory, flag-producing and branching
//!   instructions, hot enough that the block cache and lazy-flag
//!   elision dominate. The `oracle` row is `decode` + `exec_decoded`
//!   per step.
//! * `guest_exec/{fast,run,oracle}_quicktest` — the generated quicktest
//!   workload, with realistic mode and instruction mixes.
//!
//! Plus the interpreter inside the full TOL engine:
//!
//! * `guest_interp/tol_im` — the whole TOL (null sink, promotion
//!   disabled so every instruction goes through the interpreter).
//!
//! And the layer under all of them, [`GuestMem`], on its own — every
//! row is 10^6 accesses to pages already written, so ns/iter ÷ 10^6 is
//! ns per access:
//!
//! * `guest_mem/store_stream` — `write_u32` at ascending addresses over
//!   4 MiB (a page-table walk, a generation stamp and the store).
//! * `guest_mem/load_same_page` — `read_u32` within one page.
//! * `guest_mem/load_random_16mib` — `read_u32` at random addresses
//!   over 16 MiB (4 096 pages, four leaves).
//! * `guest_mem/page_gen` — the SMC stamp read, cycling over 1 024 pages.
//!
//! Architectural equality of the executors is asserted before timing;
//! throughput is guest instructions per iteration. Results land in
//! EXPERIMENTS.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use darco_guest::asm::Asm;
use darco_guest::{
    exec, AluOp, Cond, CpuState, ExecCtx, Gpr, GuestMem, Inst, MemRef, MemWidth, Scale, ShiftOp,
};
use darco_tol::{Tol, TolConfig};
use darco_workloads::{generate, suites};

const SCALE: f64 = 0.05;

/// A counted loop mixing ALU, memory and branch work: every iteration
/// defines flags several times (only the loop branch consumes them),
/// loads and stores at width 1/2/4, and takes a conditional skip.
fn mixed_loop() -> (GuestMem, CpuState) {
    let mut a = Asm::new(0x1000);
    let slot = MemRef { base: None, index: Some(Gpr::Esi), scale: Scale::S4, disp: 0x4_0000 };
    let byte_slot = MemRef { base: None, index: Some(Gpr::Esi), scale: Scale::S1, disp: 0x5_0000 };
    a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 40_000 });
    a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0 });
    let top = a.fresh_label();
    a.bind(top);
    a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 7 });
    a.push(Inst::Load { dst: Gpr::Edx, addr: slot });
    a.push(Inst::AluRR { op: AluOp::Xor, dst: Gpr::Eax, src: Gpr::Edx });
    a.push(Inst::Shift { op: ShiftOp::Shl, dst: Gpr::Edx, amount: 3 });
    a.push(Inst::StoreN { addr: byte_slot, src: Gpr::Eax, width: MemWidth::B1 });
    a.push(Inst::AluMR { op: AluOp::Add, addr: slot, src: Gpr::Eax });
    a.push(Inst::CmpRI { a: Gpr::Eax, imm: 0 });
    let skip = a.fresh_label();
    a.push_jcc(Cond::L, skip);
    a.push(Inst::Not { dst: Gpr::Ebx });
    a.bind(skip);
    a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Esi, imm: 0xFF });
    a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
    a.push_jcc(Cond::Ne, top);
    a.push(Inst::Halt);
    let p = a.assemble();
    let mut mem = GuestMem::new();
    mem.write_bytes(p.base, &p.bytes);
    let mut cpu = CpuState::at(p.base);
    cpu.set_gpr(Gpr::Esp, 0x9_0000);
    (mem, cpu)
}

/// Runs to `Halt` through the decode-per-step executor.
fn run_oracle(mem: &GuestMem, cpu: &CpuState) -> (CpuState, u64) {
    let mut mem = mem.clone();
    let mut cpu = cpu.clone();
    let mut n = 0u64;
    while !cpu.halted {
        exec::step(&mut cpu, &mut mem).expect("oracle decode");
        n += 1;
    }
    (cpu, n)
}

/// Runs to `Halt` one `ExecCtx::step` at a time, forcing lazy flags at
/// the end so the final state is comparable.
fn run_fast(mem: &GuestMem, cpu: &CpuState) -> (CpuState, u64) {
    let mut mem = mem.clone();
    let mut cpu = cpu.clone();
    let mut ctx = ExecCtx::new();
    let mut n = 0u64;
    while !cpu.halted {
        ctx.step(&mut cpu, &mut mem).expect("fast decode");
        n += 1;
    }
    ctx.force_flags(&mut cpu);
    (cpu, n)
}

/// Runs to `Halt` in one block-granular `ExecCtx::run` call.
fn run_blocks(mem: &GuestMem, cpu: &CpuState) -> (CpuState, u64) {
    let mut mem = mem.clone();
    let mut cpu = cpu.clone();
    let mut ctx = ExecCtx::new();
    let mut n = 0u64;
    ctx.run(&mut cpu, &mut mem, u64::MAX, &mut n).expect("fast decode");
    ctx.force_flags(&mut cpu);
    (cpu, n)
}

/// The whole TOL engine, promotion disabled (interpreter only).
fn tol_interp_run(mem: &GuestMem, cpu: &CpuState) -> u64 {
    let mut mem = mem.clone();
    let cfg = TolConfig { im_bb_threshold: u32::MAX, ..TolConfig::default() };
    let mut tol = Tol::new(cfg, cpu.eip);
    tol.set_state(cpu);
    let mut sink = darco_host::NullSink;
    tol.run(&mut mem, &mut sink, u64::MAX).expect("tol run")
}

/// Accesses per iteration of every `guest_mem` row.
const MEM_ACCESSES: u32 = 1_000_000;

fn bench_mem(c: &mut Criterion) {
    const BASE: u32 = 0x1000_0000;
    let mut mem = GuestMem::new();
    mem.write_bytes(BASE, &vec![0x5A; 16 << 20]);
    let mut x = 0x2545_F491u32;
    let random: Vec<u32> = (0..MEM_ACCESSES)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            BASE + ((x >> 8) & 0x00FF_FFFC)
        })
        .collect();

    let mut g = c.benchmark_group("guest_mem");
    g.throughput(Throughput::Elements(u64::from(MEM_ACCESSES)));
    g.bench_function("store_stream", |b| {
        b.iter(|| {
            for i in 0..MEM_ACCESSES {
                mem.write_u32(black_box(BASE + 4 * i), i);
            }
        })
    });
    g.bench_function("load_same_page", |b| {
        b.iter(|| {
            (0..MEM_ACCESSES).fold(0, |s, i| s ^ mem.read_u32(black_box(BASE + ((4 * i) & 0xFFC))))
        })
    });
    g.bench_function("load_random_16mib", |b| {
        b.iter(|| random.iter().fold(0, |s, &a| s ^ mem.read_u32(black_box(a))))
    });
    g.bench_function("page_gen", |b| {
        b.iter(|| {
            (0..MEM_ACCESSES).fold(0, |s, i| s ^ mem.page_gen(black_box(BASE + ((i % 1024) << 12))))
        })
    });
    g.finish();
}

fn bench(c: &mut Criterion) {
    let (mem, cpu) = mixed_loop();
    let (oracle_cpu, insts) = run_oracle(&mem, &cpu);
    let (fast_cpu, fast_insts) = run_fast(&mem, &cpu);
    let (run_cpu, run_insts) = run_blocks(&mem, &cpu);
    assert!(oracle_cpu.arch_eq(&fast_cpu), "paths must halt in the same state");
    assert!(oracle_cpu.arch_eq(&run_cpu), "paths must halt in the same state");
    assert_eq!((insts, insts), (fast_insts, run_insts), "paths must retire identically");

    let mut g = c.benchmark_group("guest_exec");
    g.throughput(Throughput::Elements(insts));
    g.bench_function("fast_mixed_loop", |b| b.iter(|| black_box(run_fast(&mem, &cpu))));
    g.bench_function("run_mixed_loop", |b| b.iter(|| black_box(run_blocks(&mem, &cpu))));
    g.bench_function("oracle_mixed_loop", |b| b.iter(|| black_box(run_oracle(&mem, &cpu))));

    let w = generate(&suites::quicktest_profile(), SCALE);
    let (q_oracle, q_insts) = run_oracle(&w.mem, &w.initial);
    let (q_fast, q_fast_insts) = run_fast(&w.mem, &w.initial);
    let (q_run, q_run_insts) = run_blocks(&w.mem, &w.initial);
    assert!(q_oracle.arch_eq(&q_fast) && q_oracle.arch_eq(&q_run), "quicktest paths must agree");
    assert_eq!((q_insts, q_insts), (q_fast_insts, q_run_insts));
    g.throughput(Throughput::Elements(q_insts));
    g.bench_function("fast_quicktest", |b| b.iter(|| black_box(run_fast(&w.mem, &w.initial))));
    g.bench_function("run_quicktest", |b| b.iter(|| black_box(run_blocks(&w.mem, &w.initial))));
    g.bench_function("oracle_quicktest", |b| b.iter(|| black_box(run_oracle(&w.mem, &w.initial))));
    g.finish();

    let engine_insts = tol_interp_run(&mem, &cpu);
    assert_eq!(engine_insts, insts, "the interpreter retires what the executors do");
    let mut g = c.benchmark_group("guest_interp");
    g.throughput(Throughput::Elements(engine_insts));
    g.bench_function("tol_im", |b| b.iter(|| black_box(tol_interp_run(&mem, &cpu))));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench, bench_mem
}
criterion_main!(benches);
