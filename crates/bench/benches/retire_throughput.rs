//! Retirement-path throughput: how fast the system moves host events
//! from the functional emulation loop into the timing pipelines.
//!
//! * `retire_throughput/inline_batched` — the whole system on
//!   quicktest with all three timing pipelines: events retired per
//!   second end to end.
//!
//! Plus the event bus by itself:
//!
//! * `event_bus/{retire_by_value,in_place_single,in_place_stream}` — the
//!   three ways of appending to an [`EventBuffer`], over the same
//!   16-event template into a `NullSink`: a stack copy patched and
//!   pushed, a slot written and then patched, a block copy with five
//!   patches. No execution, no timing: the layer number of the bus.
//!
//! Plus the translation scratch-arena ablation:
//!
//! * `translate_scratch/{scratch_reuse,fresh_alloc}` — repeatedly
//!   translate the same decoded region to IR, either recycling one
//!   [`IrScratch`] arena (what the engine does) or allocating fresh
//!   vectors per translation. The emitted IR is pinned identical; only
//!   allocator traffic differs.
//!
//! Throughput is host events (or translations) per iteration.
//!
//! [`IrScratch`]: darco_tol::translate::IrScratch

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use darco_core::{System, SystemConfig};
use darco_guest::asm::Asm;
use darco_guest::{AluOp, Cond, Gpr, GuestMem, Inst, MemRef, Scale};
use darco_host::events::{EventBuffer, EVENT_BATCH};
use darco_host::stream::int_reg;
use darco_host::{Component, DynInst, ExecClass};
use darco_workloads::{generate, suites};

const SCALE: f64 = 0.05;

/// A counted loop; its entry block is the region the scratch-arena
/// ablation translates.
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
    let mut ev = EventBuffer::new(EVENT_BATCH, &mut sink);
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

/// What `Emitter::interp_step` does: one block copy, five patches.
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
        let block = translate_region_scratch(black_box(region), &mut scratch);
        ops += block.ops.len();
        scratch.recycle(block);
    }
    ops
}

/// The fresh-allocation oracle: every translation starts from
/// `Vec::new()`, like the engine before the arena existed.
fn translate_fresh_alloc(region: &[darco_tol::translate::RegionInst]) -> usize {
    use darco_tol::translate::translate_region;
    let mut ops = 0usize;
    for _ in 0..TRANSLATE_REPLAYS {
        ops += translate_region(black_box(region)).ops.len();
    }
    ops
}

fn run_once() -> u64 {
    let cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        ..SystemConfig::default()
    };
    let w = generate(&suites::quicktest_profile(), SCALE);
    let mut sys = System::new(w, cfg);
    sys.run_to_completion().trace.retired
}

fn bench(c: &mut Criterion) {
    // One throwaway run sizes the throughput declaration.
    let events = run_once();

    let mut g = c.benchmark_group("retire_throughput");
    g.throughput(Throughput::Elements(events));
    g.bench_function("inline_batched", |b| b.iter(|| black_box(run_once())));
    g.finish();

    // The bus alone: three ways of appending the same template.
    let mut g = c.benchmark_group("event_bus");
    g.throughput(Throughput::Elements(bus_run(bus_in_place_stream)));
    g.bench_function("retire_by_value", |b| b.iter(|| black_box(bus_run(bus_by_value))));
    g.bench_function("in_place_single", |b| b.iter(|| black_box(bus_run(bus_in_place_single))));
    g.bench_function("in_place_stream", |b| b.iter(|| black_box(bus_run(bus_in_place_stream))));
    g.finish();

    let (mem, entry) = hot_loop();

    // The scratch-arena ablation: identical IR, different allocations.
    let region = darco_tol::translate::decode_bb(&mem, entry).expect("decode hot-loop entry block");
    {
        use darco_tol::translate::{translate_region, translate_region_scratch, IrScratch};
        let mut scratch = IrScratch::default();
        let reused = translate_region_scratch(&region, &mut scratch);
        let fresh = translate_region(&region);
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
