//! Retirement-path throughput: how fast the system moves host events
//! from the functional emulation loop into the timing pipelines.
//!
//! Three delivery schedules over the identical workload:
//!
//! * `inline_batched`   — default batch size, timing consumed inline,
//! * `inline_per_inst`  — `event_batch = 1`, reproducing the old
//!   one-callback-per-retired-instruction delivery,
//! * `fanout_batched`   — default batch size, one worker per timing
//!   pipeline fed by the zero-copy `Arc` broadcast.
//!
//! Plus the template ablation, twice:
//!
//! * `retire_templates/{templates,rederive}_translated_block` — the
//!   translated-block schedule: replay one block's retirement stream
//!   (template copy + dynamic-field patch vs full per-retire metadata
//!   derivation) into a null-sinked event buffer, with no functional
//!   execution. This isolates exactly the code the templates replaced.
//! * `retire_templates/{templates,rederive}_engine` — the whole TOL
//!   engine (exec + retire, null sink) on a hot translated loop, where
//!   the derivation win is diluted by guest emulation itself.
//!
//! Plus the translation scratch-arena ablation:
//!
//! * `translate_scratch/{scratch_reuse,fresh_alloc}` — repeatedly
//!   translate the same decoded region to IR, either recycling one
//!   [`IrScratch`] arena (what the engine does) or allocating fresh
//!   vectors per translation (the old behavior). The emitted IR is pinned
//!   identical; only allocator traffic differs.
//!
//! Plus the event bus by itself:
//!
//! * `event_bus/{retire_by_value,in_place_single,in_place_stream}` — the
//!   three ways of appending to an [`EventBuffer`], over the same
//!   16-event template into a `NullSink`: a stack copy patched and
//!   pushed, a slot written and then patched, a block copy with five
//!   patches. No execution, no timing: the layer number of the bus.
//!
//! Throughput is host events retired per iteration; results land in
//! EXPERIMENTS.md.
//!
//! [`IrScratch`]: darco_tol::translate::IrScratch

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use darco_core::{System, SystemConfig, TimingBackendKind};
use darco_guest::asm::Asm;
use darco_guest::{AluOp, Cond, Gpr, GuestMem, Inst, MemRef, Scale};
use darco_host::events::EventBuffer;
use darco_host::layout::guest_to_host;
use darco_host::stream::{fp_reg, int_reg, NO_REG};
use darco_host::{
    compile_block, BranchKind, Component, DynInst, ExecClass, Exit, HAluOp, HCond, HFreg, HInst,
    HReg, RetireDyn, Width,
};
use darco_tol::{Tol, TolConfig};
use darco_workloads::{generate, suites};

const SCALE: f64 = 0.05;

/// A counted loop whose body stays hot: after a few iterations all
/// retirement comes from translated blocks, so this isolates the
/// per-retire cost of `exec_block` itself.
fn hot_loop() -> (GuestMem, u32) {
    let mut a = Asm::new(0x1000);
    let slot = MemRef { base: None, index: Some(Gpr::Esi), scale: Scale::S4, disp: 0x4_0000 };
    a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 60_000 });
    a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0 });
    let top = a.here();
    a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 3 });
    a.push(Inst::AluRR { op: AluOp::Xor, dst: Gpr::Eax, src: Gpr::Edx });
    a.push(Inst::Load { dst: Gpr::Edx, addr: slot });
    a.push(Inst::AluRR { op: AluOp::Or, dst: Gpr::Edx, src: Gpr::Eax });
    a.push(Inst::MovRR { dst: Gpr::Ebx, src: Gpr::Eax });
    a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Esi, imm: 0xFF });
    a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
    a.push(Inst::Jcc { cond: Cond::Ne, target: top });
    a.push(Inst::Halt);
    let p = a.assemble();
    let mut mem = GuestMem::new();
    mem.write_bytes(p.base, &p.bytes);
    (mem, p.base)
}

/// A varied translated-block population, like a warm code cache: many
/// distinct instruction sequences, so the per-retire metadata match in
/// the re-derivation path sees realistic (unpredictable) control flow
/// rather than one trained pattern.
fn block_insts() -> Vec<HInst> {
    use darco_guest::FpOp;
    let r = HReg;
    let mut insts = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..512 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = r(8 + (x >> 8) as u8 % 24);
        let b = r(8 + (x >> 16) as u8 % 24);
        let d = r(8 + (x >> 24) as u8 % 24);
        let f = HFreg((x >> 32) as u8 % 16);
        let off = ((x >> 40) & 0xFFF) as i32;
        insts.push(match x % 11 {
            0 => HInst::Alu { op: HAluOp::Add, rd: d, ra: a, rb: b },
            1 => HInst::AluI { op: HAluOp::Xor, rd: d, ra: a, imm: off },
            2 => HInst::Li { rd: d, imm: off as i64 },
            3 => HInst::Ld { rd: d, base: a, off, width: Width::W4 },
            4 => HInst::St { rs: a, base: b, off, width: Width::W4 },
            5 => HInst::Mul { rd: d, ra: a, rb: b },
            6 => HInst::FLd { fd: f, base: a, off },
            7 => HInst::FSt { fs: f, base: a, off },
            8 => HInst::FArith { op: FpOp::Mul, fd: f, fa: f, fb: f },
            9 => HInst::Br { cond: HCond::Ne, ra: a, rb: b, target: 0 },
            _ => HInst::Exit(Exit::Direct { guest_target: 0x1000, link: None }),
        });
    }
    insts
}

const BLOCK_BASE: u64 = 0x2_0000_0000;
const BLOCK_REPLAYS: usize = 1_000;

/// The translated-block schedule, template path: copy the prebuilt
/// record into the buffer and patch only the dynamic fields there —
/// what `exec_block` does per retire, minus the functional execution.
fn replay_templates(insts: &[HInst], regs: &[u32; 64], replays: usize, ev: &mut EventBuffer<'_>) {
    let templates = compile_block(insts, BLOCK_BASE);
    for _ in 0..replays {
        for tpl in &templates {
            let d = ev.retire_in_place(&tpl.inst);
            if let RetireDyn::Mem { base, off } = tpl.dyn_kind {
                let addr = guest_to_host(regs[base.0 as usize].wrapping_add(off as u32));
                if let Some(m) = d.mem.as_mut() {
                    m.addr = addr;
                }
            }
            match tpl.dyn_kind {
                RetireDyn::CondBranch => {
                    if let Some(b) = d.branch.as_mut() {
                        b.2 = false;
                    }
                }
                RetireDyn::DirectExit => {
                    d.branch =
                        Some((BranchKind::UncondDirect, darco_host::layout::TOL_CODE_BASE, true));
                }
                RetireDyn::Fixed | RetireDyn::Mem { .. } => {}
            }
        }
    }
}

/// The translated-block schedule, re-derivation oracle: build every
/// record from the instruction's own metadata, exactly like the
/// pre-template `exec_block`.
fn replay_rederive(insts: &[HInst], regs: &[u32; 64], replays: usize, ev: &mut EventBuffer<'_>) {
    let reg = |r: HReg| regs[r.0 as usize];
    for _ in 0..replays {
        for (idx, inst) in insts.iter().enumerate() {
            let pc = BLOCK_BASE + 4 * idx as u64;
            let mem_event = match *inst {
                HInst::Prefetch { base, off } => {
                    Some((guest_to_host(reg(base).wrapping_add(off as u32)), 64, false))
                }
                HInst::Ld { base, off, width, .. } => {
                    Some((guest_to_host(reg(base).wrapping_add(off as u32)), width.bytes(), false))
                }
                HInst::St { base, off, width, .. } => {
                    Some((guest_to_host(reg(base).wrapping_add(off as u32)), width.bytes(), true))
                }
                HInst::FLd { base, off, .. } => {
                    Some((guest_to_host(reg(base).wrapping_add(off as u32)), 8, false))
                }
                HInst::FSt { base, off, .. } => {
                    Some((guest_to_host(reg(base).wrapping_add(off as u32)), 8, true))
                }
                _ => None,
            };
            let mut d = DynInst::plain(pc, inst.class(), Component::AppCode);
            if let Some((addr, size, is_store)) = mem_event {
                if matches!(inst, HInst::Prefetch { .. }) {
                    d = d.with_prefetch(addr);
                } else {
                    d = d.with_mem(addr, size, is_store);
                }
            }
            if let Some(r) = inst.dst() {
                d.dst = int_reg(r.0);
            } else if let Some(f) = inst.fdst() {
                d.dst = fp_reg(f.0);
            }
            let mut srcs = [NO_REG; 2];
            let mut si = 0;
            for s in inst.srcs().into_iter().flatten() {
                if si < 2 {
                    srcs[si] = int_reg(s.0);
                    si += 1;
                }
            }
            for s in inst.fsrcs().into_iter().flatten() {
                if si < 2 {
                    srcs[si] = fp_reg(s.0);
                    si += 1;
                }
            }
            d.srcs = srcs;
            match *inst {
                HInst::Br { target, .. } | HInst::BrFlags { target, .. } => {
                    d = d.with_branch(
                        BranchKind::CondDirect,
                        BLOCK_BASE + 4 * target as u64,
                        false,
                    );
                }
                HInst::Jump { target } => {
                    d = d.with_branch(
                        BranchKind::UncondDirect,
                        BLOCK_BASE + 4 * target as u64,
                        true,
                    );
                }
                HInst::Exit(Exit::Direct { .. }) => {
                    d = d.with_branch(
                        BranchKind::UncondDirect,
                        darco_host::layout::TOL_CODE_BASE,
                        true,
                    );
                }
                _ => {}
            }
            ev.retire(d);
        }
    }
}

fn replay_regs() -> [u32; 64] {
    let mut regs = [0u32; 64];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = 0x4_0000 + (i as u32) * 0x100;
    }
    regs
}

/// Runs one replay schedule into a null-sinked event buffer.
fn replay_run(f: impl Fn(&[HInst], &[u32; 64], usize, &mut EventBuffer<'_>)) -> u64 {
    let insts = block_insts();
    let regs = replay_regs();
    let mut sink = darco_host::NullSink;
    let mut ev = EventBuffer::new(darco_host::events::EVENT_BATCH, &mut sink);
    f(&insts, &regs, BLOCK_REPLAYS, &mut ev);
    ev.flush();
    (insts.len() * BLOCK_REPLAYS) as u64
}

/// One collected pass of each replay schedule, to pin that the bench's
/// two paths emit the same stream.
fn replay_streams_match() {
    let insts = block_insts();
    let regs = replay_regs();
    let t = collect_replay(&insts, &regs, replay_templates);
    let o = collect_replay(&insts, &regs, replay_rederive);
    assert_eq!(t, o, "replay schedules diverged");
}

fn collect_replay(
    insts: &[HInst],
    regs: &[u32; 64],
    f: impl Fn(&[HInst], &[u32; 64], usize, &mut EventBuffer<'_>),
) -> Vec<DynInst> {
    let mut v: Vec<DynInst> = Vec::new();
    let mut sink = darco_host::events::RetireSink(|d: &DynInst| v.push(*d));
    let mut ev = EventBuffer::new(darco_host::events::EVENT_BATCH, &mut sink);
    f(insts, regs, 1, &mut ev);
    ev.flush();
    v
}

/// Replays of the 16-event template per iteration of the bus group.
const BUS_REPLAYS: usize = 50_000;

/// Where the per-replay address goes in [`bus_template`].
const BUS_PATCHES: [usize; 5] = [0, 3, 6, 9, 12];

/// An interpreter-like stream: loads at the five patch points, ALU work
/// between them.
fn bus_template() -> Vec<DynInst> {
    (0..16usize)
        .map(|i| {
            let d = DynInst::plain(0x1_0000 + 4 * i as u64, ExecClass::SimpleInt, Component::TolIm);
            if BUS_PATCHES.contains(&i) {
                d.with_mem(0x4_0000, 8, false)
            } else {
                d.with_dst(int_reg(8 + i as u8))
            }
        })
        .collect()
}

fn set_addr(d: &mut DynInst, addr: u64) {
    d.mem.as_mut().expect("patch points are loads").addr = addr;
}

/// Runs one way of appending [`bus_template`] `BUS_REPLAYS` times, with
/// the five patch points given a per-replay address.
fn bus_run(append: impl Fn(&mut EventBuffer<'_>, &[DynInst], u64)) -> u64 {
    let tpl = bus_template();
    let mut sink = darco_host::NullSink;
    let mut ev = EventBuffer::new(darco_host::events::EVENT_BATCH, &mut sink);
    for r in 0..BUS_REPLAYS as u64 {
        append(&mut ev, black_box(&tpl), 0x4_0000 + 8 * r);
    }
    ev.flush();
    (tpl.len() * BUS_REPLAYS) as u64
}

/// The pre-rewrite producer: copy to the stack, patch, push by value.
fn bus_by_value(ev: &mut EventBuffer<'_>, tpl: &[DynInst], addr: u64) {
    for (i, t) in tpl.iter().enumerate() {
        let mut d = *t;
        if BUS_PATCHES.contains(&i) {
            set_addr(&mut d, addr);
        }
        ev.retire(d);
    }
}

/// What `exec_block_templates` does: write the slot, patch the slot.
fn bus_in_place_single(ev: &mut EventBuffer<'_>, tpl: &[DynInst], addr: u64) {
    for (i, t) in tpl.iter().enumerate() {
        let d = ev.retire_in_place(t);
        if BUS_PATCHES.contains(&i) {
            set_addr(d, addr);
        }
    }
}

/// What `interp_step_keyed` does: one block copy, five patches.
fn bus_in_place_stream(ev: &mut EventBuffer<'_>, tpl: &[DynInst], addr: u64) {
    ev.retire_stream(tpl, |evs| {
        for i in BUS_PATCHES {
            set_addr(evs[i].as_retire_mut().expect("retire_stream stages retirements"), addr);
        }
    });
}

/// Translations per iteration of the scratch-arena ablation.
const TRANSLATE_REPLAYS: usize = 2_000;

/// Repeatedly lowers the same region to IR, recycling one arena.
fn translate_scratch_reuse(region: &[darco_tol::translate::RegionInst]) -> usize {
    use darco_tol::translate::{translate_region_scratch, IrScratch};
    let mut scratch = IrScratch::default();
    let mut ops = 0usize;
    for _ in 0..TRANSLATE_REPLAYS {
        let block = translate_region_scratch(black_box(region), true, &mut scratch);
        ops += block.ops.len();
        scratch.recycle(block);
    }
    ops
}

/// The fresh-allocation oracle: every translation starts from
/// `Vec::new()`, like the engine before the arena existed.
fn translate_fresh_alloc(region: &[darco_tol::translate::RegionInst]) -> usize {
    use darco_tol::translate::translate_region_with;
    let mut ops = 0usize;
    for _ in 0..TRANSLATE_REPLAYS {
        ops += translate_region_with(black_box(region), true).ops.len();
    }
    ops
}

fn tol_run(mem: &GuestMem, entry: u32, templates: bool) -> u64 {
    let mut mem = mem.clone();
    let cfg = TolConfig {
        im_bb_threshold: 1,
        bb_sb_threshold: 16,
        retire_templates: templates,
        ..TolConfig::default()
    };
    let mut tol = Tol::new(cfg, entry);
    let mut sink = darco_host::NullSink;
    tol.run(&mut mem, &mut sink, u64::MAX).expect("tol run")
}

fn run_once(event_batch: usize, backend: TimingBackendKind) -> u64 {
    let mut cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        timing_backend: backend,
        ..SystemConfig::default()
    };
    cfg.tol.event_batch = event_batch;
    let w = generate(&suites::quicktest_profile(), SCALE);
    let mut sys = System::new(w, cfg);
    sys.run_to_completion().trace.retired
}

fn bench(c: &mut Criterion) {
    // One throwaway run sizes the throughput declaration.
    let events = run_once(darco_host::events::EVENT_BATCH, TimingBackendKind::Inline);

    let mut g = c.benchmark_group("retire_throughput");
    g.throughput(Throughput::Elements(events));
    g.bench_function("inline_batched", |b| {
        b.iter(|| black_box(run_once(darco_host::events::EVENT_BATCH, TimingBackendKind::Inline)))
    });
    g.bench_function("inline_per_inst", |b| {
        b.iter(|| black_box(run_once(1, TimingBackendKind::Inline)))
    });
    g.bench_function("fanout_batched", |b| {
        b.iter(|| black_box(run_once(darco_host::events::EVENT_BATCH, TimingBackendKind::Fanout)))
    });
    g.finish();

    // The bus alone: three ways of appending the same template.
    let mut g = c.benchmark_group("event_bus");
    g.throughput(Throughput::Elements(bus_run(bus_in_place_stream)));
    g.bench_function("retire_by_value", |b| b.iter(|| black_box(bus_run(bus_by_value))));
    g.bench_function("in_place_single", |b| b.iter(|| black_box(bus_run(bus_in_place_single))));
    g.bench_function("in_place_stream", |b| b.iter(|| black_box(bus_run(bus_in_place_stream))));
    g.finish();

    // The translated-block schedule: retire-path cost in isolation.
    replay_streams_match();
    let events = replay_run(replay_templates);
    let mut g = c.benchmark_group("retire_templates");
    g.throughput(Throughput::Elements(events));
    g.bench_function("templates_translated_block", |b| {
        b.iter(|| black_box(replay_run(replay_templates)))
    });
    g.bench_function("rederive_translated_block", |b| {
        b.iter(|| black_box(replay_run(replay_rederive)))
    });

    // The whole engine on a hot translated loop (exec + retire).
    let (mem, entry) = hot_loop();
    let guest = tol_run(&mem, entry, true);
    assert_eq!(guest, tol_run(&mem, entry, false), "paths must retire identically");
    g.bench_function("templates_engine", |b| b.iter(|| black_box(tol_run(&mem, entry, true))));
    g.bench_function("rederive_engine", |b| b.iter(|| black_box(tol_run(&mem, entry, false))));
    g.finish();

    // The scratch-arena ablation: identical IR, different allocations.
    let region = darco_tol::translate::decode_bb(&mem, entry).expect("decode hot-loop entry block");
    {
        use darco_tol::translate::{translate_region_scratch, translate_region_with, IrScratch};
        let mut scratch = IrScratch::default();
        let reused = translate_region_scratch(&region, true, &mut scratch);
        let fresh = translate_region_with(&region, true);
        assert_eq!(
            format!("{reused:?}"),
            format!("{fresh:?}"),
            "scratch reuse changed the emitted IR"
        );
    }
    let mut g = c.benchmark_group("translate_scratch");
    g.throughput(Throughput::Elements(TRANSLATE_REPLAYS as u64));
    g.bench_function("scratch_reuse", |b| b.iter(|| black_box(translate_scratch_reuse(&region))));
    g.bench_function("fresh_alloc", |b| b.iter(|| black_box(translate_fresh_alloc(&region))));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
