//! Dynamic-footprint cost models for the software layer's own execution.
//!
//! The paper measures TOL as *a workload running on the host*: its
//! instruction volume, mix, memory behavior and branch behavior
//! (Sec. III-C). Rather than compiling the layer itself to host code,
//! each service emits a calibrated host-instruction stream with the
//! properties that matter to the timing model:
//!
//! * **volume** — interpreting a guest instruction costs tens of host
//!   instructions; translating costs more; optimizing much more,
//! * **memory pattern** — code-cache lookups probe hash buckets spread
//!   across a large table in TOL's data region (the source of the D$
//!   "ping-pong" of Sec. III-D); decode tables are small and hot;
//!   the interpreter reads guest *code* as data,
//! * **branch pattern** — the interpreter/translator dispatch on the
//!   guest opcode through an indirect jump whose target tracks the guest
//!   instruction mix, which is exactly why TOL's branch misprediction
//!   rate varies per application (Sec. III-C),
//! * **locality of TOL's own code** — each service's PCs cycle inside a
//!   small footprint, so TOL mostly hits in the L1 I-cache, as the paper
//!   observes.
//!
//! The calibration constants are collected in [`costs`] and justified in
//! DESIGN.md §2.

use crate::profile::StaticMode;
use crate::translate::RegionInst;
use darco_guest::exec::{Control, StepInfo};
use darco_guest::GuestClass;
use darco_host::events::{EventBuffer, HostEvent};
use darco_host::layout::{guest_to_host, TOL_CODE_BASE, TOL_DATA_BASE};
use darco_host::stream::int_reg;
use darco_host::{BranchKind, Component, DynInst, ExecClass};

/// Cost-model constants (host instructions per activity, table sizes).
pub mod costs {
    /// ALU work in one interpreter handler for a simple integer guest
    /// instruction; other classes scale from this.
    pub const INTERP_BASE_ALU: usize = 8;
    /// Host instructions of translator work per guest instruction.
    pub const TRANSLATE_PER_INST_ALU: usize = 14;
    /// Optimizer ALU work per IR instruction (all passes together).
    pub const OPTIMIZE_PER_INST_ALU: usize = 26;
    /// Translation-map buckets (spread over 256 KiB of TOL data — large
    /// enough to contend with the application in L1/L2).
    pub const MAP_BUCKETS: u64 = 8192;
    /// Bytes per map bucket.
    pub const MAP_BUCKET_BYTES: u64 = 32;
}

/// TOL data-region layout (offsets from [`TOL_DATA_BASE`]).
mod data {
    pub const MAP: u64 = 0x0;
    pub const IBTC: u64 = 0x10_0000;
    pub const PROFILE: u64 = 0x20_0000;
    pub const DECODE_TABLE: u64 = 0x30_0000;
    pub const WORKSPACE: u64 = 0x40_0000;
    pub const CONTEXT: u64 = 0x50_0000;
    /// Block descriptors (entry metadata read on every successful
    /// lookup), indexed by a block hash.
    pub const DESCRIPTORS: u64 = 0x60_0000;
    /// Edge-profile records updated by BBM instrumentation.
    pub const EDGES: u64 = 0x70_0000;
    /// Dead-space list (the extent record an SMC eviction pushes).
    pub const FREELIST: u64 = 0x80_0000;
}

/// TOL code-region layout (offsets from [`TOL_CODE_BASE`]).
mod code {
    pub const DISPATCH: u64 = 0x0;
    pub const INTERP: u64 = 0x1000;
    pub const HANDLERS: u64 = 0x2000;
    pub const TRANSLATOR: u64 = 0x8000;
    pub const OPTIMIZER: u64 = 0xC000;
    pub const CHAINER: u64 = 0x1_0000;
    pub const LOOKUP: u64 = 0x1_4000;
    pub const TRANSITION: u64 = 0x1_8000;
    pub const EVICTOR: u64 = 0x1_C000;
}

/// Emits the host-instruction streams of TOL services into a sink.
#[derive(Debug)]
pub struct Emitter {
    /// Cursor for code-cache writes performed by the translator.
    emit_cursor: u64,
    /// Per-component dynamic instruction counters (for reports that do
    /// not involve the timing simulator).
    pub emitted: [u64; 7],
    /// Per-shape interpreter stream templates, indexed by
    /// [`shape_key`]. Filled lazily on first encounter of a shape.
    interp_tpl: Vec<Option<InterpTemplate>>,
}

/// A recorded interpreter stream for one step shape, plus the indices of
/// the instructions whose fields vary per step. Immutable once recorded:
/// it is the stream at the patch values of the step that recorded it,
/// and every replay overwrites each marked field in the event buffer,
/// never here.
#[derive(Debug)]
struct InterpTemplate {
    insts: Vec<DynInst>,
    marks: InterpMarks,
}

/// Patch points of an [`InterpTemplate`]: indices into its `insts`.
#[derive(Debug, Clone, Copy, Default)]
struct InterpMarks {
    /// First guest-code fetch (mem addr tracks the guest pc).
    fetch0: usize,
    /// Second guest-code fetch (guest pc + 4).
    fetch1: usize,
    /// The dispatch branch (its *own* pc is hashed from the guest pc;
    /// the handler target is shape-static).
    dispatch: usize,
    /// Guest data accesses (mem addrs are per-step).
    acc: [usize; 2],
    /// The guest-direction conditional branch (taken bit is per-step).
    jump: usize,
}

/// Number of distinct interpreter step shapes: opcode (11) × writes-flags
/// (2) × access pattern (none/load/store per slot, order-preserving: 9)
/// × has-control-jump (2).
const INTERP_SHAPES: usize = 11 * 2 * 9 * 2;

/// Flat index of a step's emission shape. Two steps with the same key
/// emit identical streams up to the fields recorded in [`InterpMarks`]:
/// the handler body depends only on the class (determined by the
/// opcode), and every pc and scratch register in the sequence is reset
/// per call.
fn shape_key(info: &StepInfo) -> usize {
    let opcode = info.inst.class() as usize;
    let wf = usize::from(info.inst.writes_flags());
    let mut acc = 0usize;
    for (i, a) in info.accesses.iter().enumerate() {
        let kind = if a.is_store { 2 } else { 1 };
        acc += kind * 3usize.pow(i as u32);
    }
    let jump = usize::from(matches!(info.control, Control::Jump { .. }));
    ((opcode * 2 + wf) * 9 + acc) * 2 + jump
}

/// The single implementation of the interpreter's per-step host-cost
/// stream, recorded once per shape into a template. The indices of the
/// per-step-variable instructions are recorded into `marks`.
fn emit_interp(
    c: &mut Cur<'_, Vec<DynInst>>,
    guest_pc: u32,
    info: &StepInfo,
    marks: &mut InterpMarks,
) {
    let comp = c.comp;
    let opcode = info.inst.class() as u64;
    // Fetch guest code bytes as data (variable length: two probes).
    marks.fetch0 = c.count as usize;
    c.ld(guest_to_host(guest_pc));
    c.use_load();
    marks.fetch1 = c.count as usize;
    c.ld(guest_to_host(guest_pc.wrapping_add(4)));
    c.alu(2);
    // Decode-table lookup (small, hot table).
    c.ld(TOL_DATA_BASE + data::DECODE_TABLE + opcode * 64);
    c.use_load();
    // Dispatch: indirect jump to the handler for this opcode. The
    // interpreter is context-threaded — the dispatch point is
    // replicated per guest instruction (hashed), so the BTB learns
    // per-site targets on repeats; predictability still tracks the
    // guest instruction mix and footprint (the Sec. III-C effect).
    let handler = TOL_CODE_BASE + code::HANDLERS + opcode * 0x80;
    c.pc = TOL_CODE_BASE + code::INTERP + 0x400 + ((guest_pc as u64 >> 1) & 0xFF) * 4;
    marks.dispatch = c.count as usize;
    c.br(BranchKind::Indirect, handler, true);
    // Handler body.
    c.pc = handler;
    match info.inst.class() {
        GuestClass::Int | GuestClass::Other => c.alu(costs::INTERP_BASE_ALU),
        GuestClass::IntComplex => {
            c.alu(costs::INTERP_BASE_ALU);
            let d = DynInst::plain(c.pc, ExecClass::ComplexInt, comp).with_dst(int_reg(c.reg()));
            c.push(d);
        }
        GuestClass::Fp | GuestClass::FpComplex => {
            c.alu(costs::INTERP_BASE_ALU - 2);
            let class = if info.inst.class() == GuestClass::Fp {
                ExecClass::SimpleFp
            } else {
                ExecClass::ComplexFp
            };
            c.push(DynInst::plain(c.pc, class, comp));
        }
        GuestClass::Load | GuestClass::Store => c.alu(3), // EA computation
        GuestClass::Branch | GuestClass::Call | GuestClass::Ret | GuestClass::IndirectBranch => {
            c.alu(4) // target computation
        }
    }
    // The emulated guest data accesses, at their real addresses.
    for (i, a) in info.accesses.iter().enumerate() {
        let addr = guest_to_host(a.addr);
        marks.acc[i] = c.count as usize;
        if a.is_store {
            c.st(addr);
        } else {
            c.ld(addr);
            c.use_load();
        }
    }
    // Flag emulation.
    if info.inst.writes_flags() {
        c.alu(2);
    }
    // Guest branch direction decided by a TOL-side conditional branch
    // whose outcome follows the guest's — one shared static branch
    // for all guest branches, hence poorly predictable guests hurt.
    if let Control::Jump { taken, .. } = info.control {
        marks.jump = c.count as usize;
        c.br(BranchKind::CondDirect, TOL_CODE_BASE + code::INTERP + 0x200, taken);
    }
    // Loop back to the interpreter top.
    c.br(BranchKind::UncondDirect, TOL_CODE_BASE + code::INTERP, true);
}

/// The retirement staged in a slot that [`EventBuffer::retire_stream`]
/// has just filled.
fn retired(e: &mut HostEvent) -> &mut DynInst {
    e.as_retire_mut().expect("retire_stream stages retirements only")
}

/// Where a stream-building cursor retires to: the live event buffer, or
/// a plain vector when recording an interpreter template.
trait RetireTarget {
    fn retire(&mut self, d: DynInst);
}

impl RetireTarget for EventBuffer<'_> {
    #[inline]
    fn retire(&mut self, d: DynInst) {
        EventBuffer::retire(self, d);
    }
}

impl RetireTarget for Vec<DynInst> {
    #[inline]
    fn retire(&mut self, d: DynInst) {
        self.push(d);
    }
}

/// Stream-building cursor: sequential PCs, cycling TOL scratch registers,
/// one-deep load-use chaining.
struct Cur<'a, T: RetireTarget> {
    pc: u64,
    comp: Component,
    ev: &'a mut T,
    next_reg: u8,
    last_load: u8,
    count: u64,
}

impl<'a, T: RetireTarget> Cur<'a, T> {
    fn new(pc: u64, comp: Component, ev: &'a mut T) -> Self {
        Cur { pc, comp, ev, next_reg: 48, last_load: 40, count: 0 }
    }

    fn reg(&mut self) -> u8 {
        self.next_reg = if self.next_reg >= 62 { 48 } else { self.next_reg + 1 };
        self.next_reg
    }

    fn push(&mut self, d: DynInst) {
        self.pc += 4;
        self.count += 1;
        self.ev.retire(d);
    }

    fn alu(&mut self, n: usize) {
        // Two interleaved dependence chains: real compiled code has
        // instruction-level parallelism, so the layer sustains close to
        // the 2-wide issue rate on ALU stretches.
        for i in 0..n {
            let dst = self.reg();
            let src = if dst >= 50 { dst - 2 } else { 48 + (i as u8 & 1) };
            let d = DynInst::plain(self.pc, ExecClass::SimpleInt, self.comp)
                .with_dst(int_reg(dst))
                .with_srcs(int_reg(src), u8::MAX);
            self.push(d);
        }
    }

    /// A load into a fresh register; remembered for [`Cur::use_load`].
    fn ld(&mut self, addr: u64) {
        let dst = self.reg();
        self.last_load = dst;
        let d = DynInst::plain(self.pc, ExecClass::Load, self.comp)
            .with_dst(int_reg(dst))
            .with_mem(addr, 8, false);
        self.push(d);
    }

    /// An ALU op consuming the last load (creates the load-use edge the
    /// scoreboard stalls on when the load missed).
    fn use_load(&mut self) {
        let dst = self.reg();
        let src = self.last_load;
        let d = DynInst::plain(self.pc, ExecClass::SimpleInt, self.comp)
            .with_dst(int_reg(dst))
            .with_srcs(int_reg(src), u8::MAX);
        self.push(d);
    }

    fn st(&mut self, addr: u64) {
        let d = DynInst::plain(self.pc, ExecClass::Store, self.comp).with_mem(addr, 8, true);
        self.push(d);
    }

    fn br(&mut self, kind: BranchKind, target: u64, taken: bool) {
        let class =
            if kind == BranchKind::CondDirect { ExecClass::Branch } else { ExecClass::Jump };
        let d = DynInst::plain(self.pc, class, self.comp).with_branch(kind, target, taken);
        self.push(d);
    }
}

/// Hash used for map buckets and profile slots.
fn bucket_of(pc: u32) -> u64 {
    (pc.wrapping_mul(0x9E37_79B9) as u64 >> 13) % costs::MAP_BUCKETS
}

impl Default for Emitter {
    fn default() -> Emitter {
        Emitter::new()
    }
}

impl Emitter {
    /// Creates an emitter.
    pub fn new() -> Emitter {
        Emitter {
            emit_cursor: darco_host::layout::CODE_CACHE_BASE,
            emitted: [0; 7],
            interp_tpl: std::iter::repeat_with(|| None).take(INTERP_SHAPES).collect(),
        }
    }

    fn track<T: RetireTarget>(&mut self, comp: Component, cur: Cur<'_, T>) {
        self.emitted[comp.index()] += cur.count;
    }

    /// One interpreted guest instruction (IM): dispatch, decode, handler
    /// body, guest data accesses, loop back.
    ///
    /// The stream for this step's shape is recorded once, through
    /// `emit_interp`, and replayed with only the per-step fields patched.
    pub fn interp_step(&mut self, ev: &mut EventBuffer<'_>, guest_pc: u32, info: &StepInfo) {
        let comp = Component::TolIm;
        let key = shape_key(info);
        if self.interp_tpl[key].is_none() {
            let mut insts = Vec::new();
            let mut marks = InterpMarks::default();
            let mut c = Cur::new(TOL_CODE_BASE + code::INTERP, comp, &mut insts);
            emit_interp(&mut c, guest_pc, info, &mut marks);
            self.interp_tpl[key] = Some(InterpTemplate { insts, marks });
        }
        let tpl = self.interp_tpl[key].as_ref().expect("template just ensured");
        let m = tpl.marks;
        ev.retire_stream(&tpl.insts, |evs| {
            let mem_at = |evs: &mut [HostEvent], i: usize, addr: u64| {
                retired(&mut evs[i]).mem.as_mut().expect("marked slot is a memory access").addr =
                    addr;
            };
            mem_at(evs, m.fetch0, guest_to_host(guest_pc));
            mem_at(evs, m.fetch1, guest_to_host(guest_pc.wrapping_add(4)));
            retired(&mut evs[m.dispatch]).pc =
                TOL_CODE_BASE + code::INTERP + 0x400 + ((guest_pc as u64 >> 1) & 0xFF) * 4;
            for (i, a) in info.accesses.iter().enumerate() {
                mem_at(evs, m.acc[i], guest_to_host(a.addr));
            }
            if let Control::Jump { taken, .. } = info.control {
                retired(&mut evs[m.jump]).branch.as_mut().expect("jump has a branch").2 = taken;
            }
        });
        self.emitted[comp.index()] += tpl.insts.len() as u64;
    }

    /// Basic-block translation (BBM): decode each guest instruction and
    /// emit host code into the code cache, then insert into the map.
    pub fn bb_translate(
        &mut self,
        ev: &mut EventBuffer<'_>,
        guest_entry: u32,
        insts: &[RegionInst],
        host_len: usize,
    ) {
        let comp = Component::TolBbm;
        let mut c = Cur::new(TOL_CODE_BASE + code::TRANSLATOR, comp, ev);
        for r in insts {
            let opcode = r.inst.class() as u64;
            c.ld(guest_to_host(r.pc)); // read guest code
            c.use_load();
            c.ld(TOL_DATA_BASE + data::DECODE_TABLE + opcode * 64);
            c.use_load();
            // Table-driven translation: one mostly-biased class check per
            // instruction (Gshare learns the dominant class), not an
            // indirect dispatch — translators are batchy, unlike the
            // interpreter's per-instruction dispatch loop.
            c.br(
                BranchKind::CondDirect,
                TOL_CODE_BASE + code::TRANSLATOR + 0x100,
                // "needs indirect-branch handling?" — rare
                r.inst.class() != GuestClass::IndirectBranch,
            );
            c.alu(costs::TRANSLATE_PER_INST_ALU);
            // Flag-writing guests need the EFLAGS emulation path too.
            if r.inst.writes_flags() {
                c.alu(4);
                c.br(BranchKind::CondDirect, TOL_CODE_BASE + code::TRANSLATOR + 0x800, true);
            }
        }
        // Write the produced host code into the code cache.
        for _ in 0..host_len {
            c.st(self.emit_cursor);
            self.emit_cursor += 4;
        }
        // Map insertion: hash, bucket read-modify-write.
        c.alu(4);
        let bucket = TOL_DATA_BASE + data::MAP + bucket_of(guest_entry) * costs::MAP_BUCKET_BYTES;
        c.ld(bucket);
        c.use_load();
        c.st(bucket);
        c.st(bucket + 8);
        self.track(comp, c);
    }

    /// Superblock formation and optimization (SBM).
    pub fn sb_optimize(
        &mut self,
        ev: &mut EventBuffer<'_>,
        bbs_followed: usize,
        ir_len: usize,
        host_len: usize,
    ) {
        let comp = Component::TolSbm;
        let mut c = Cur::new(TOL_CODE_BASE + code::OPTIMIZER, comp, ev);
        // Formation: read edge profiles of the followed blocks.
        for i in 0..bbs_followed.max(1) {
            c.ld(TOL_DATA_BASE + data::PROFILE + ((i as u64 * 37) % 512) * 16);
            c.use_load();
            c.alu(6);
            c.br(BranchKind::CondDirect, c.pc + 64, i % 2 == 0);
        }
        // Passes: per-IR-instruction work over workspace arrays.
        for i in 0..ir_len {
            let slot = TOL_DATA_BASE + data::WORKSPACE + (i as u64 % 4096) * 16;
            c.ld(slot);
            c.use_load();
            c.alu(costs::OPTIMIZE_PER_INST_ALU);
            c.st(slot);
            if i % 4 == 0 {
                c.br(BranchKind::CondDirect, c.pc + 32, i % 8 == 0);
            }
        }
        // Code emission and map update.
        for _ in 0..host_len {
            c.st(self.emit_cursor);
            self.emit_cursor += 4;
        }
        c.alu(6);
        self.track(comp, c);
    }

    /// Chaining: patch a direct exit to its successor translation.
    pub fn chain(&mut self, ev: &mut EventBuffer<'_>, exit_host_pc: u64) {
        let comp = Component::TolChaining;
        let mut c = Cur::new(TOL_CODE_BASE + code::CHAINER, comp, ev);
        c.alu(4);
        c.ld(exit_host_pc); // read the exit instruction
        c.use_load();
        c.st(exit_host_pc); // patch it
        c.alu(2);
        self.track(comp, c);
    }

    /// Unchaining: restore a direct exit whose target is being evicted
    /// to its dispatcher-bound form (read-modify-write of the patched
    /// site, like [`Emitter::chain`] in reverse).
    pub fn unchain(&mut self, ev: &mut EventBuffer<'_>, exit_host_pc: u64) {
        let comp = Component::TolChaining;
        let mut c = Cur::new(TOL_CODE_BASE + code::CHAINER + 0x400, comp, ev);
        c.alu(3);
        c.ld(exit_host_pc); // read the patched exit
        c.use_load();
        c.st(exit_host_pc); // restore it
        self.track(comp, c);
    }

    /// Bookkeeping of an SMC eviction: remove the victim from the
    /// translation map and record its storage extent as dead. Per-site
    /// unchaining is charged separately via [`Emitter::unchain`].
    pub fn evict(&mut self, ev: &mut EventBuffer<'_>, guest_entry: u32) {
        let comp = Component::TolOthers;
        let mut c = Cur::new(TOL_CODE_BASE + code::EVICTOR, comp, ev);
        c.alu(5);
        let bucket = TOL_DATA_BASE + data::MAP + bucket_of(guest_entry) * costs::MAP_BUCKET_BYTES;
        c.ld(bucket);
        c.use_load();
        c.st(bucket); // clear the map entry
        c.ld(TOL_DATA_BASE + data::FREELIST);
        c.use_load();
        c.st(TOL_DATA_BASE + data::FREELIST); // dead-extent push
        c.alu(2);
        self.track(comp, c);
    }

    /// Full translation-map lookup (the data-intensive probe of
    /// Sec. III-D).
    pub fn map_lookup(&mut self, ev: &mut EventBuffer<'_>, guest_pc: u32, found: bool) {
        let comp = Component::TolLookup;
        let mut c = Cur::new(TOL_CODE_BASE + code::LOOKUP, comp, ev);
        c.alu(4); // hash
                  // Open-addressed probe sequence: two buckets on distinct lines.
        let b0 = TOL_DATA_BASE + data::MAP + bucket_of(guest_pc) * costs::MAP_BUCKET_BYTES;
        let b1 = TOL_DATA_BASE
            + data::MAP
            + bucket_of(guest_pc.rotate_left(13) ^ 0x5bd1_e995) * costs::MAP_BUCKET_BYTES;
        c.ld(b0);
        c.use_load();
        c.br(BranchKind::CondDirect, c.pc + 32, found);
        c.ld(b1);
        c.use_load();
        c.alu(2);
        if found {
            // Block descriptor (separate array) plus a lookup-stats bump.
            let desc = TOL_DATA_BASE + data::DESCRIPTORS + (bucket_of(guest_pc) % 4096) * 64;
            c.ld(desc);
            c.use_load();
            c.st(desc + 8);
        } else {
            c.br(BranchKind::CondDirect, c.pc + 48, true); // chain walk ends
        }
        c.alu(3);
        self.track(comp, c);
    }

    /// IBTC entry update after a miss (two stores into the table).
    pub fn ibtc_update(&mut self, ev: &mut EventBuffer<'_>, slot: u32) {
        let comp = Component::TolLookup;
        let mut c = Cur::new(TOL_CODE_BASE + code::LOOKUP + 0x400, comp, ev);
        let e = TOL_DATA_BASE + data::IBTC + slot as u64 * 16;
        c.st(e);
        c.st(e + 8);
        self.track(comp, c);
    }

    /// Transition between translated code and the software layer
    /// (context save or restore): the cost reflected in "TOL others".
    pub fn transition(&mut self, ev: &mut EventBuffer<'_>) {
        let comp = Component::TolOthers;
        let mut c = Cur::new(TOL_CODE_BASE + code::TRANSITION, comp, ev);
        for i in 0..6u64 {
            c.st(TOL_DATA_BASE + data::CONTEXT + i * 8);
        }
        for i in 0..6u64 {
            c.ld(TOL_DATA_BASE + data::CONTEXT + 64 + i * 8);
        }
        c.alu(4);
        c.br(BranchKind::UncondDirect, TOL_CODE_BASE + code::DISPATCH, true);
        self.track(comp, c);
    }

    /// The dispatcher's decision work per TOL entry.
    pub fn dispatch(&mut self, ev: &mut EventBuffer<'_>, mode: StaticMode) {
        let comp = Component::TolOthers;
        let mut c = Cur::new(TOL_CODE_BASE + code::DISPATCH, comp, ev);
        c.alu(5);
        c.ld(TOL_DATA_BASE + data::CONTEXT + 128);
        c.use_load();
        // Mode decision branch: its direction tracks the execution phase.
        c.br(BranchKind::CondDirect, TOL_CODE_BASE + code::DISPATCH + 0x80, mode != StaticMode::Im);
        self.track(comp, c);
    }

    /// The inline IBTC probe executed *by translated code* (application
    /// side) at an indirect-branch exit.
    #[allow(clippy::too_many_arguments)]
    pub fn ibtc_probe_inline(
        &mut self,
        ev: &mut EventBuffer<'_>,
        site_pc: u64,
        slot: u32,
        hit: bool,
        target_host: u64,
    ) {
        let comp = Component::AppCode;
        let mut c = Cur::new(site_pc, comp, ev);
        c.alu(2); // hash of the guest target
        c.ld(TOL_DATA_BASE + data::IBTC + slot as u64 * 16);
        c.use_load(); // compare
        c.br(BranchKind::CondDirect, site_pc + 24, hit);
        if hit {
            // Jump straight to the cached translation.
            c.br(BranchKind::Indirect, target_host, true);
        }
        self.track(comp, c);
    }

    /// Inline speculative indirect-branch check (optional feature,
    /// Sec. III-E): compare the computed guest target against the
    /// hard-coded last target and jump straight to its translation on a
    /// match. Application-side cost: one compare plus one well-biased
    /// conditional branch, plus the direct jump on a hit.
    pub fn spec_check(
        &mut self,
        ev: &mut EventBuffer<'_>,
        site_pc: u64,
        hit: bool,
        target_host: u64,
    ) {
        let comp = Component::AppCode;
        let mut c = Cur::new(site_pc, comp, ev);
        c.alu(1); // compare against the inlined constant
        c.br(BranchKind::CondDirect, site_pc + 16, hit);
        if hit {
            c.br(BranchKind::UncondDirect, target_host, true);
        }
        self.track(comp, c);
    }

    /// BBM edge-profiling instrumentation executed per block run
    /// (application-side counter update).
    pub fn bbm_instrumentation(&mut self, ev: &mut EventBuffer<'_>, host_pc: u64, bb_entry: u32) {
        let comp = Component::AppCode;
        let mut c = Cur::new(host_pc, comp, ev);
        let slot = TOL_DATA_BASE + data::PROFILE + (bucket_of(bb_entry) % 4096) * 16;
        c.ld(slot);
        c.use_load();
        c.st(slot);
        // Edge-profile record on its own line (read-modify-write).
        let edge = TOL_DATA_BASE + data::EDGES + (bucket_of(bb_entry ^ 0x9e37) % 2048) * 64;
        c.ld(edge);
        c.st(edge);
        self.track(comp, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_guest::exec::{AccessList, Control};
    use darco_guest::{Gpr, Inst};
    use darco_host::events::RetireSink;
    use darco_host::Owner;

    fn collect(f: impl FnOnce(&mut Emitter, &mut EventBuffer<'_>)) -> Vec<DynInst> {
        let mut v = Vec::new();
        let mut e = Emitter::new();
        let mut sink = RetireSink(|d: &DynInst| v.push(*d));
        let mut ev = EventBuffer::new(64, &mut sink);
        f(&mut e, &mut ev);
        ev.flush();
        v
    }

    fn step_info(inst: Inst) -> StepInfo {
        StepInfo { inst, len: 2, control: Control::Next, accesses: AccessList::default() }
    }

    fn ri(pc: u32, inst: Inst) -> RegionInst {
        RegionInst { pc, inst, len: 2, follow_taken: false }
    }

    #[test]
    fn interp_step_costs_tens_of_instructions() {
        let v = collect(|e, s| {
            e.interp_step(s, 0x1000, &step_info(Inst::MovRR { dst: Gpr::Eax, src: Gpr::Ebx }))
        });
        assert!((8..40).contains(&v.len()), "got {}", v.len());
        assert!(v.iter().all(|d| d.owner() == Owner::Tol));
        assert!(v.iter().any(|d| d.component == Component::TolIm));
        // The interpreter reads guest code as data.
        assert!(v.iter().any(|d| d.mem.is_some_and(|m| m.addr == 0x1000)));
        // Dispatch is an indirect branch.
        assert!(v.iter().any(|d| matches!(d.branch, Some((BranchKind::Indirect, _, _)))));
    }

    #[test]
    fn flag_writers_cost_more_to_interpret_and_translate() {
        let mov = collect(|e, s| {
            e.interp_step(s, 0, &step_info(Inst::MovRR { dst: Gpr::Eax, src: Gpr::Ebx }))
        });
        let add = collect(|e, s| {
            e.interp_step(
                s,
                0,
                &step_info(Inst::AluRR {
                    op: darco_guest::AluOp::Add,
                    dst: Gpr::Eax,
                    src: Gpr::Ebx,
                }),
            )
        });
        assert!(add.len() > mov.len());

        let t_mov = collect(|e, s| {
            e.bb_translate(s, 0, &[ri(0, Inst::MovRR { dst: Gpr::Eax, src: Gpr::Ebx })], 2)
        });
        let t_add = collect(|e, s| {
            e.bb_translate(
                s,
                0,
                &[ri(0, Inst::AluRR { op: darco_guest::AluOp::Add, dst: Gpr::Eax, src: Gpr::Ebx })],
                3,
            )
        });
        assert!(t_add.len() > t_mov.len());
    }

    #[test]
    fn optimization_costs_dominate_translation() {
        let t = collect(|e, s| e.bb_translate(s, 0, &[ri(0, Inst::Nop); 8], 16));
        let o = collect(|e, s| e.sb_optimize(s, 4, 32, 40));
        assert!(o.len() > 3 * t.len(), "SBM {} vs BBM {}", o.len(), t.len());
        assert!(o.iter().all(|d| d.component == Component::TolSbm));
    }

    #[test]
    fn map_lookup_is_data_intensive() {
        let v = collect(|e, s| e.map_lookup(s, 0x1234, true));
        let loads = v.iter().filter(|d| d.mem.is_some_and(|m| !m.is_store)).count();
        assert!(loads >= 3);
        assert!(v.iter().all(|d| d.component == Component::TolLookup));
        // Probes land in the TOL data region.
        assert!(v.iter().filter_map(|d| d.mem).all(|m| m.addr >= TOL_DATA_BASE));
    }

    #[test]
    fn ibtc_inline_probe_is_application_side() {
        let v = collect(|e, s| e.ibtc_probe_inline(s, 0x2_0000_1000, 17, true, 0x2_0000_4000));
        assert!(v.iter().all(|d| d.owner() == Owner::App));
        assert!(v.iter().any(
            |d| matches!(d.branch, Some((BranchKind::Indirect, t, true)) if t == 0x2_0000_4000)
        ));
        let miss = collect(|e, s| e.ibtc_probe_inline(s, 0x2_0000_1000, 17, false, 0));
        assert!(miss.len() < v.len());
    }

    #[test]
    fn spec_check_costs_two_or_three_app_instructions() {
        let hit = collect(|e, s| e.spec_check(s, 0x2_0000_0000, true, 0x2_0000_4000));
        assert_eq!(hit.len(), 3, "compare + branch + direct jump");
        assert!(hit.iter().all(|d| d.owner() == Owner::App));
        assert!(hit.iter().any(
            |d| matches!(d.branch, Some((BranchKind::UncondDirect, t, true)) if t == 0x2_0000_4000)
        ));
        let miss = collect(|e, s| e.spec_check(s, 0x2_0000_0000, false, 0));
        assert_eq!(miss.len(), 2, "compare + fall-through branch only");
    }

    #[test]
    fn emitted_counters_accumulate() {
        let mut e = Emitter::new();
        let mut n = 0u64;
        let mut sink = RetireSink(|_: &DynInst| n += 1);
        let mut ev = EventBuffer::new(64, &mut sink);
        e.transition(&mut ev);
        e.dispatch(&mut ev, StaticMode::Bbm);
        ev.flush();
        let others = e.emitted[Component::TolOthers.index()];
        assert_eq!(others, n);
        assert!(others > 10);
    }

    #[test]
    fn tol_code_footprint_is_small() {
        // All emitted TOL pcs must stay within a 128 KiB window, so the
        // layer's code largely fits in the L1 I-cache (paper Sec. III-C).
        let mut pcs = Vec::new();
        let mut e = Emitter::new();
        let mut sink = RetireSink(|d: &DynInst| pcs.push(d.pc));
        let mut ev = EventBuffer::new(64, &mut sink);
        e.interp_step(&mut ev, 0, &step_info(Inst::Ret));
        e.map_lookup(&mut ev, 77, false);
        e.transition(&mut ev);
        e.dispatch(&mut ev, StaticMode::Im);
        e.chain(&mut ev, darco_host::layout::CODE_CACHE_BASE);
        ev.flush();
        for pc in pcs {
            if pc >= TOL_CODE_BASE {
                assert!(pc < TOL_CODE_BASE + 0x2_0000, "pc {pc:#x} outside TOL code window");
            }
        }
    }
}
