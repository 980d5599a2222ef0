//! The synthetic guest program generator.
//!
//! Produces a complete, halting g86 program from a
//! [`BenchProfile`]. The program has the structure
//! the paper's analysis cares about:
//!
//! * **cold** functions executed once from the entry prologue (stay in
//!   IM under the `IM/BBth = 5` threshold),
//! * **warm** functions executed a few dozen times from a warm-up loop
//!   (translated in BBM, never promoted),
//! * **hot** kernels — counted loops over the data arrays — called from
//!   the main loop often enough to cross the superblock threshold,
//! * **indirect control flow**: jump-table dispatches (inside hot loops
//!   and at the top level) and function-pointer calls, at the profile's
//!   density, plus the returns of every call,
//! * memory accesses split between sequential streams and pseudo-random
//!   probes (an in-program LCG) over the footprint, and FP work at the
//!   profile's fraction.
//!
//! Generation is deterministic per seed. Jump and function-pointer
//! tables are materialized directly in guest memory by the loader, like
//! a linker would.

use crate::profile::BenchProfile;
use darco_guest::asm::{Asm, Label, Program};
use darco_guest::{
    AluOp, Cond, CpuState, FpOp, FpReg, Gpr, GuestMem, Inst, MemRef, MemWidth, Scale, ShiftOp,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Guest address the code is loaded at.
pub const CODE_BASE: u32 = 0x1000;
/// Base of the data arrays.
pub const DATA_BASE: u32 = 0x0100_0000;
/// Base of the jump tables (filled by the loader).
pub const TABLE_BASE: u32 = 0x0080_0000;
/// Base of the function-pointer table.
pub const FUNC_TABLE: u32 = 0x0090_0000;
/// Initial stack pointer.
pub const STACK_TOP: u32 = 0x00F0_0000;

/// Smallest `mem_footprint` the generator can use: cold functions store
/// to a word picked from `0..mem_footprint / 4`, which must not be empty.
pub(crate) const MIN_MEM_FOOTPRINT: u32 = 4;
/// Largest `static_insts` whose code fits between [`CODE_BASE`] and the
/// jump tables the loader writes at [`TABLE_BASE`], every instruction
/// taken at the longest encoding (the generator's are a third of that,
/// which covers its overshoot of the target).
pub(crate) const MAX_STATIC_INSTS: u32 =
    (TABLE_BASE - CODE_BASE) / darco_guest::exec::MAX_INST_LEN as u32;

/// A ready-to-run generated workload.
#[derive(Debug)]
pub struct Workload {
    /// Benchmark name.
    pub name: String,
    /// Guest memory with code, tables and initialized data.
    pub mem: GuestMem,
    /// Entry point.
    pub entry: u32,
    /// Initial architectural state (stack pointer set).
    pub initial: CpuState,
    /// Static instructions emitted.
    pub static_insts: u32,
    /// Rough dynamic instruction estimate at the requested scale.
    pub dyn_estimate: u64,
}

struct Gen<'a> {
    a: Asm,
    rng: SmallRng,
    p: &'a BenchProfile,
    foot_mask: i32,
    /// Probability that a streaming access is sub-word (byte/halfword):
    /// media codecs move pixels and samples, not just words.
    subword_prob: f64,
    /// Mask for pseudo-random accesses: a hot window of the footprint
    /// (real pointer-chasing has locality; uniform access over many
    /// megabytes would make every load a TLB walk plus memory miss and
    /// drown every other effect).
    rand_mask: i32,
    /// Jump tables to materialize: (table address, entry labels).
    tables: Vec<(u32, Vec<Label>)>,
    next_table: u32,
}

const LCG_A: i32 = 1_103_515_245;
const LCG_C: i32 = 12_345;

impl<'a> Gen<'a> {
    fn new(p: &'a BenchProfile) -> Gen<'a> {
        Gen {
            a: Asm::new(CODE_BASE),
            rng: SmallRng::seed_from_u64(p.seed),
            p,
            subword_prob: if p.suite == crate::profile::Suite::Media { 0.35 } else { 0.08 },
            foot_mask: (p.mem_footprint - 1) as i32 & !3,
            rand_mask: ((p.mem_footprint / 8).clamp(1 << 12, 1 << 20) - 1) as i32 & !3,
            tables: Vec::new(),
            next_table: TABLE_BASE,
        }
    }

    /// Advances the in-program LCG held in `eax`.
    fn emit_lcg(&mut self) {
        self.a.push(Inst::MovRI { dst: Gpr::Edx, imm: LCG_A });
        self.a.push(Inst::Imul { dst: Gpr::Eax, src: Gpr::Edx });
        self.a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: LCG_C });
    }

    /// One streaming access: load (or read-modify) at `[DATA + esi]`,
    /// advance, wrap.
    fn emit_stream_access(&mut self, store: bool) {
        let m =
            MemRef { base: Some(Gpr::Esi), index: None, scale: Scale::S1, disp: DATA_BASE as i32 };
        if store {
            self.a.push(Inst::Store { addr: m, src: Gpr::Ebx });
        } else {
            self.a.push(Inst::AluRM { op: AluOp::Add, dst: Gpr::Ebx, addr: m });
        }
        self.a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Esi, imm: 4 });
        self.a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Esi, imm: self.foot_mask });
    }

    /// A sub-word access over the stream pointer (media-style pixel and
    /// sample traffic).
    fn emit_subword_access(&mut self) {
        let m =
            MemRef { base: Some(Gpr::Esi), index: None, scale: Scale::S1, disp: DATA_BASE as i32 };
        let width = if self.rng.gen_bool(0.6) { MemWidth::B1 } else { MemWidth::B2 };
        if self.rng.gen_bool(0.5) {
            self.a.push(Inst::LoadZx { dst: Gpr::Edx, addr: m, width });
            self.a.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Ebx, src: Gpr::Edx });
        } else {
            self.a.push(Inst::LoadSx { dst: Gpr::Edx, addr: m, width });
            self.a.push(Inst::StoreN {
                addr: MemRef {
                    base: Some(Gpr::Esi),
                    index: None,
                    scale: Scale::S1,
                    disp: DATA_BASE as i32 + 4,
                },
                src: Gpr::Edx,
                width,
            });
        }
        self.a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Esi, imm: 4 });
        self.a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Esi, imm: self.foot_mask });
    }

    /// One pseudo-random access derived from the LCG, within the hot
    /// window.
    fn emit_random_access(&mut self, store: bool) {
        self.a.push(Inst::MovRR { dst: Gpr::Edi, src: Gpr::Eax });
        self.a.push(Inst::Shift { op: ShiftOp::Shr, dst: Gpr::Edi, amount: 7 });
        self.a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Edi, imm: self.rand_mask });
        let m =
            MemRef { base: Some(Gpr::Edi), index: None, scale: Scale::S1, disp: DATA_BASE as i32 };
        if store {
            self.a.push(Inst::Store { addr: m, src: Gpr::Ebx });
        } else {
            self.a.push(Inst::AluRM { op: AluOp::Xor, dst: Gpr::Ebx, addr: m });
        }
    }

    /// A short FP sequence over the stream location.
    fn emit_fp_work(&mut self) {
        let m =
            MemRef { base: Some(Gpr::Esi), index: None, scale: Scale::S1, disp: DATA_BASE as i32 };
        self.a.push(Inst::FLoad { dst: FpReg(0), addr: m });
        self.a.push(Inst::FArith { op: FpOp::Mul, dst: FpReg(0), src: FpReg(1) });
        self.a.push(Inst::FArith { op: FpOp::Add, dst: FpReg(2), src: FpReg(0) });
        if self.rng.gen_bool(0.3) {
            self.a.push(Inst::FArith { op: FpOp::Sub, dst: FpReg(3), src: FpReg(2) });
        }
        if self.rng.gen_bool(0.2) {
            self.a.push(Inst::FStore { addr: m, src: FpReg(2) });
        }
    }

    /// A conditional branch site: data-dependent (entropy) or biased.
    fn emit_branch_site(&mut self) {
        let skip = self.a.fresh_label();
        if self.rng.gen_bool(self.p.branch_entropy) {
            // Data-dependent: test an LCG bit.
            let bit = 1 << self.rng.gen_range(3..9);
            self.a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Eax });
            self.a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Edx, imm: bit });
            self.a.push_jcc(Cond::E, skip);
        } else {
            // Strongly biased: almost never taken.
            self.a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Eax });
            self.a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Edx, imm: 0xFF });
            self.a.push(Inst::CmpRI { a: Gpr::Edx, imm: 0 });
            self.a.push_jcc(Cond::E, skip);
        }
        // A couple of conditionally-skipped instructions.
        self.a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ebx, imm: 7 });
        self.a.push(Inst::Not { dst: Gpr::Ebx });
        self.a.bind(skip);
    }

    /// An in-line jump-table dispatch with `n` targets rejoining at the
    /// end. `n` must be a power of two.
    fn emit_dispatch(&mut self, n: u32) {
        debug_assert!(n.is_power_of_two());
        let table = self.next_table;
        self.next_table += n * 4;
        let join = self.a.fresh_label();
        self.a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Eax });
        self.a.push(Inst::Shift { op: ShiftOp::Shr, dst: Gpr::Edx, amount: 5 });
        self.a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Edx, imm: (n - 1) as i32 });
        self.a.push(Inst::JmpMem {
            addr: MemRef {
                base: None,
                index: Some(Gpr::Edx),
                scale: Scale::S4,
                disp: table as i32,
            },
        });
        let mut labels = Vec::new();
        for i in 0..n {
            let l = self.a.fresh_label();
            self.a.bind(l);
            labels.push(l);
            self.a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ebx, imm: i as i32 + 1 });
            if i + 1 == n {
                // Fall through to join.
            } else {
                self.a.push_jmp(join);
            }
        }
        self.a.bind(join);
        self.tables.push((table, labels));
    }

    /// The body of a hot kernel loop: `len`-ish instructions of mixed
    /// work, with the profile's memory/FP/branch mix, plus
    /// `dispatch_sites` jump-table dispatches (indirect branches executed
    /// once per loop iteration).
    fn emit_kernel_body(&mut self, target_len: usize, dispatch_sites: u32) {
        let start = self.a.here();
        let _ = start;
        let mut emitted = 0usize;
        while emitted < target_len {
            let before = self.static_count();
            let roll: f64 = self.rng.gen();
            if roll < self.p.fp_fraction {
                self.emit_fp_work();
            } else if roll < self.p.fp_fraction + 0.35 {
                let stream = self.rng.gen_bool(self.p.stream_fraction);
                let store = self.rng.gen_bool(0.3);
                if stream && self.rng.gen_bool(self.subword_prob) {
                    self.emit_subword_access();
                } else if stream {
                    self.emit_stream_access(store);
                } else {
                    self.emit_random_access(store);
                }
            } else if roll < self.p.fp_fraction + 0.45 {
                self.emit_branch_site();
            } else if roll < self.p.fp_fraction + 0.50 {
                self.emit_lcg();
            } else {
                // Plain integer work with varied flag behavior.
                match self.rng.gen_range(0..6) {
                    0 => self.a.push(Inst::AluRI {
                        op: AluOp::Add,
                        dst: Gpr::Ebx,
                        imm: self.rng.gen_range(-100..100),
                    }),
                    1 => self.a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Ebx }),
                    2 => self.a.push(Inst::Shift { op: ShiftOp::Sar, dst: Gpr::Ebx, amount: 1 }),
                    3 => self.a.push(Inst::AluRR { op: AluOp::Xor, dst: Gpr::Ebx, src: Gpr::Eax }),
                    4 => self.a.push(Inst::Lea {
                        dst: Gpr::Edx,
                        addr: MemRef::base_index(Gpr::Ebx, Gpr::Esi, Scale::S2, 12),
                    }),
                    _ => self.a.push(Inst::Imul { dst: Gpr::Ebx, src: Gpr::Edx }),
                }
            }
            emitted += self.static_count() - before;
        }
        for _ in 0..dispatch_sites {
            self.emit_dispatch(4);
        }
    }

    fn static_count(&self) -> usize {
        self.a.inst_count()
    }

    fn asm_len(&self) -> usize {
        self.a.inst_count()
    }

    /// A hot kernel: `inner`-iteration counted loop around a mixed body.
    /// Returns its entry label.
    fn emit_hot_kernel(&mut self, inner: u32, body_len: usize, dispatch_sites: u32) -> Label {
        let f = self.a.fresh_label();
        self.a.bind(f);
        let top = self.a.fresh_label();
        self.a.push(Inst::MovRI { dst: Gpr::Ecx, imm: inner as i32 });
        self.a.bind(top);
        self.emit_kernel_body(body_len, dispatch_sites);
        self.a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
        self.a.push_jcc(Cond::Ne, top);
        self.a.push(Inst::Ret);
        f
    }

    /// A warm or cold function: straight-line work, no loop.
    fn emit_plain_func(&mut self, len: usize, with_stores: bool) -> Label {
        let f = self.a.fresh_label();
        self.a.bind(f);
        let target = self.asm_len() + len;
        while self.asm_len() < target {
            match self.rng.gen_range(0..8) {
                0 => {
                    self.a.push(Inst::MovRI { dst: Gpr::Edx, imm: self.rng.gen_range(0..1 << 20) })
                }
                1 => self.a.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Ebx, src: Gpr::Edx }),
                2 => self.a.push(Inst::AluRI { op: AluOp::Or, dst: Gpr::Edx, imm: 3 }),
                3 if with_stores => {
                    let off = (self.rng.gen_range(0..self.p.mem_footprint / 4) * 4) as i32;
                    self.a.push(Inst::StoreI {
                        addr: MemRef::abs((DATA_BASE as i32 + off) as u32),
                        imm: self.rng.gen_range(1..1000),
                    });
                }
                3 => self.a.push(Inst::Neg { dst: Gpr::Edx }),
                4 => self.emit_lcg(),
                5 => self.a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Ebx }),
                6 => self.emit_branch_site(),
                _ => self.a.push(Inst::TestRR { a: Gpr::Ebx, b: Gpr::Ebx }),
            }
        }
        self.a.push(Inst::Ret);
        f
    }
}

/// Generates the workload for `profile` at a dynamic-length scale
/// (1.0 = the profile's `dyn_base`).
///
/// # Panics
///
/// Panics if the profile fails [`BenchProfile::validate`].
pub fn generate(profile: &BenchProfile, scale: f64) -> Workload {
    profile.validate().unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
    let dyn_target = profile.dyn_target(scale);
    let mut g = Gen::new(profile);

    let s = profile.static_insts as usize;
    let hot_budget = (s as f64 * profile.hot_fraction) as usize;
    let warm_budget = (s as f64 * profile.warm_fraction) as usize;
    let cold_budget = s.saturating_sub(hot_budget + warm_budget);

    // --- Entry jumps over the function bodies to the driver. ---
    let driver = g.a.fresh_label();
    g.a.push_jmp(driver);

    // --- Hot kernels. ---
    let kernel_static = 45usize;
    let n_kernels = (hot_budget / kernel_static).max(1);
    // Loop depth controls the *return* density floor (one return per
    // kernel invocation): low-indirect benchmarks get deep loops, while
    // indirect-heavy ones get shallow loops plus in-body dispatches.
    let inner: u32 =
        ((3.0 / (profile.indirect_freq.max(1e-5) * kernel_static as f64)) as u32).clamp(16, 256);
    // Expected in-body dispatch sites per kernel: each site fires once
    // per loop iteration, so the per-instruction indirect density a body
    // contributes is sites / body_len; returns supply the rest.
    let sites_expect = 0.7 * profile.indirect_freq * kernel_static as f64;
    let mut kernels = Vec::new();
    for _ in 0..n_kernels {
        let body = g.rng.gen_range(kernel_static - 15..kernel_static + 10);
        let mut sites = sites_expect.floor() as u32;
        if g.rng.gen_bool(sites_expect.fract().clamp(0.0, 1.0)) {
            sites += 1;
        }
        kernels.push(g.emit_hot_kernel(inner, body, sites.min(3)));
    }

    // --- Virtual functions (function-pointer targets), hot. ---
    let n_virtual = 4u32;
    let mut vfuncs = Vec::new();
    for _ in 0..n_virtual {
        vfuncs.push(g.emit_plain_func(8, false));
    }

    // --- Warm functions. ---
    let warm_func_len = 26usize;
    let n_warm = (warm_budget / (warm_func_len + 1)).max(1);
    let warm_funcs: Vec<Label> =
        (0..n_warm).map(|_| g.emit_plain_func(warm_func_len, false)).collect();

    // --- Cold functions (also initialize data). ---
    let cold_func_len = 38usize;
    let n_cold = (cold_budget / (cold_func_len + 1)).max(1);
    let cold_funcs: Vec<Label> =
        (0..n_cold).map(|_| g.emit_plain_func(cold_func_len, true)).collect();

    // --- Driver. ---
    g.a.bind(driver);
    g.a.push(Inst::MovRI { dst: Gpr::Eax, imm: profile.seed as i32 | 1 });
    g.a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 0 });
    g.a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0 });
    g.a.push(Inst::MovRI { dst: Gpr::Edi, imm: 0 });
    // FP seed registers.
    g.a.push(Inst::MovRI { dst: Gpr::Edx, imm: 3 });
    g.a.push(Inst::CvtIF { dst: FpReg(1), src: Gpr::Edx });
    g.a.push(Inst::CvtIF { dst: FpReg(2), src: Gpr::Edx });
    g.a.push(Inst::CvtIF { dst: FpReg(3), src: Gpr::Edx });
    // Cold prologue: every cold function exactly once.
    for f in &cold_funcs {
        g.a.push_call(*f);
    }
    // Warm-up loop.
    // Warm executions sit between the promotion thresholds (above
    // IM/BBth = 5, well below the scaled BB/SBth), scaled down like the
    // dynamic length so BBM's dynamic share stays small (paper Fig. 5b).
    let warm_iters = g.rng.gen_range(7..14);
    let wl = g.a.fresh_label();
    g.a.push(Inst::MovRI { dst: Gpr::Ebp, imm: warm_iters });
    g.a.bind(wl);
    for f in &warm_funcs {
        g.a.push_call(*f);
    }
    g.a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ebp, imm: 1 });
    g.a.push_jcc(Cond::Ne, wl);

    // Main hot loop: estimate per-iteration cost, solve for the count.
    let per_iter_est: u64 = n_kernels as u64 * (inner as u64 * (kernel_static as u64 + 4) + 4)
        + n_virtual as u64 * 16
        + 24;
    let warm_est = warm_iters as u64 * n_warm as u64 * (warm_func_len as u64 + 3);
    let cold_est = n_cold as u64 * (cold_func_len as u64 + 3);
    let outer = (dyn_target.saturating_sub(warm_est + cold_est) / per_iter_est).max(4);

    let hl = g.a.fresh_label();
    g.a.push(Inst::MovRI { dst: Gpr::Ebp, imm: outer.min(i32::MAX as u64) as i32 });
    g.a.bind(hl);
    for f in &kernels {
        g.a.push_call(*f);
    }
    // Function-pointer dispatch through the loader-filled table.
    g.a.push(Inst::MovRR { dst: Gpr::Edx, src: Gpr::Eax });
    g.a.push(Inst::Shift { op: ShiftOp::Shr, dst: Gpr::Edx, amount: 9 });
    g.a.push(Inst::AluRI { op: AluOp::And, dst: Gpr::Edx, imm: (n_virtual - 1) as i32 });
    g.a.push(Inst::Load {
        dst: Gpr::Edx,
        addr: MemRef {
            base: None,
            index: Some(Gpr::Edx),
            scale: Scale::S4,
            disp: FUNC_TABLE as i32,
        },
    });
    g.a.push(Inst::CallInd { reg: Gpr::Edx });
    // One top-level jump-table dispatch.
    g.emit_dispatch(8);
    g.a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ebp, imm: 1 });
    g.a.push_jcc(Cond::Ne, hl);
    g.a.push(Inst::Halt);

    let static_insts = g.asm_len() as u32;
    let tables = std::mem::take(&mut g.tables);
    let program: Program = g.a.assemble();
    debug_assert!(
        program.bytes.len() <= (TABLE_BASE - CODE_BASE) as usize,
        "{} bytes of code from {CODE_BASE:#x} reach the jump tables at {TABLE_BASE:#x}",
        program.bytes.len()
    );

    // --- Load into guest memory. ---
    let mut mem = GuestMem::new();
    mem.write_bytes(program.base, &program.bytes);
    for (table, labels) in &tables {
        for (i, l) in labels.iter().enumerate() {
            mem.write_u32(table + 4 * i as u32, program.label_addr(*l));
        }
    }
    for (i, f) in vfuncs.iter().enumerate() {
        mem.write_u32(FUNC_TABLE + 4 * i as u32, program.label_addr(*f));
    }
    prefill_data(&mut mem, profile.seed, profile.mem_footprint);

    let mut initial = CpuState::at(program.base);
    initial.set_gpr(Gpr::Esp, STACK_TOP);

    Workload {
        name: profile.name.clone(),
        mem,
        entry: program.base,
        initial,
        static_insts,
        dyn_estimate: outer * per_iter_est + warm_est + cold_est,
    }
}

/// Bytes of the data region [`prefill_data`] writes per `write_bytes`
/// call: one guest-memory frame, so each call is one page-table walk.
const PREFILL_CHUNK: usize = 1024;

/// The prefill LCG is `x ↦ LCG_MUL·x + LCG_ADD`, and each word is the
/// state's low 32 bits. Those depend only on the state's low 32 bits,
/// so a `u32` state gives the same words for every seed.
const LCG_MUL: u32 = 0x9E37_79B9;
const LCG_ADD: u32 = 12345;

/// Independent LCG lanes [`prefill_data`] steps side by side.
const LANES: usize = 16;

/// `(A, C)` of `x ↦ A·x + C`, the LCG step composed `LANES` times: the
/// step of one lane from word `n` to word `n + LANES`.
const LANE_STEP: (u32, u32) = {
    let (mut a, mut c) = (1u32, 0u32);
    let mut i = 0;
    while i < LANES {
        a = a.wrapping_mul(LCG_MUL);
        c = c.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        i += 1;
    }
    (a, c)
};

/// Pre-fills a slice of the data region so loads see varied values: the
/// first `min(footprint, 64 KiB)` bytes from [`DATA_BASE`], rounded up to
/// a word, hold consecutive words of an LCG seeded by `seed`. The words
/// go in one frame at a time; with `DATA_BASE` frame-aligned, the
/// contents, page generations and write counter are those of one
/// `write_u32` per word in address order.
///
/// One LCG is a chain of dependent multiply-adds, bound by their latency
/// (about 4 cycles a word). So the frame is filled from [`LANES`]
/// independent chains instead: lane `i` holds word `n + i` and steps by
/// [`LANE_STEP`], and a group's trailing part takes the first lanes.
fn prefill_data(mem: &mut GuestMem, seed: u64, footprint: u32) {
    let (a, c) = LANE_STEP;
    let mut lanes = [0u32; LANES];
    let mut x = (seed | 1) as u32;
    for lane in &mut lanes {
        x = x.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        *lane = x;
    }
    let mut chunk = [0u8; PREFILL_CHUNK];
    let len = footprint.min(1 << 16).next_multiple_of(4) as usize;
    for start in (0..len).step_by(PREFILL_CHUNK) {
        let bytes = &mut chunk[..(len - start).min(PREFILL_CHUNK)];
        for group in bytes.chunks_mut(4 * LANES) {
            for (word, lane) in group.chunks_exact_mut(4).zip(&mut lanes) {
                word.copy_from_slice(&lane.to_le_bytes());
                *lane = lane.wrapping_mul(a).wrapping_add(c);
            }
        }
        mem.write_bytes(DATA_BASE + start as u32, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;
    use darco_guest::exec;

    fn run_to_halt(w: &Workload, cap: u64) -> (CpuState, u64) {
        let mut mem = w.mem.clone();
        let mut cpu = w.initial.clone();
        let mut n = 0u64;
        while !cpu.halted && n < cap {
            exec::step(&mut cpu, &mut mem)
                .unwrap_or_else(|e| panic!("decode fault at {:#x} after {n} insts: {e}", cpu.eip));
            n += 1;
        }
        (cpu, n)
    }

    /// The reference for [`prefill_data`]: one `write_u32` per word, in
    /// address order.
    fn prefill_by_word(mem: &mut GuestMem, seed: u64, footprint: u32) {
        let mut lcg = seed | 1;
        for w in (0..footprint.min(1 << 16)).step_by(4) {
            lcg = lcg.wrapping_mul(0x9E37_79B9).wrapping_add(12345);
            mem.write_u32(DATA_BASE + w, lcg as u32);
        }
    }

    #[test]
    fn prefill_matches_one_store_per_word() {
        let fresh = GuestMem::new();
        let mut with_code = GuestMem::new();
        let code: Vec<u8> = (0..5_000u32).map(|i| (i * 7) as u8).collect();
        with_code.write_bytes(CODE_BASE, &code);
        with_code.write_u32(TABLE_BASE, 0xDEAD_BEEF);
        let last_page = (DATA_BASE + (1 << 16)) >> 12;
        for base in [fresh, with_code] {
            // One word before, at and after a full group of lanes.
            let group = 4 * LANES as u32;
            for footprint in
                [4, 6, group - 4, group, group + 4, 1 << 10, 1_030, 1 << 12, 1 << 16, 1 << 24]
            {
                for seed in [0, 42, u64::MAX] {
                    let (mut fast, mut slow) = (base.clone(), base.clone());
                    prefill_data(&mut fast, seed, footprint);
                    prefill_by_word(&mut slow, seed, footprint);
                    let case = format!("footprint {footprint}, seed {seed}");
                    assert_eq!(fast.first_difference(&slow), None, "contents, {case}");
                    assert_eq!(fast.write_gen(), slow.write_gen(), "write_gen, {case}");
                    assert_eq!(fast.frame_bytes(), slow.frame_bytes(), "frame_bytes, {case}");
                    assert_eq!(fast.resident_pages(), slow.resident_pages(), "pages, {case}");
                    for pn in 0..=last_page {
                        let a = pn << 12;
                        assert_eq!(fast.page_gen(a), slow.page_gen(a), "page_gen {a:#x}, {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn quicktest_program_runs_and_halts() {
        let p = suites::quicktest_profile();
        let w = generate(&p, 1.0);
        let (cpu, n) = run_to_halt(&w, 10_000_000);
        assert!(cpu.halted, "program must halt (ran {n})");
        // Dynamic length within a factor of 4 of the estimate.
        assert!(n as f64 > w.dyn_estimate as f64 / 4.0, "{n} vs est {}", w.dyn_estimate);
        assert!((n as f64) < w.dyn_estimate as f64 * 4.0, "{n} vs est {}", w.dyn_estimate);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = suites::quicktest_profile();
        let a = generate(&p, 1.0);
        let b = generate(&p, 1.0);
        assert_eq!(a.static_insts, b.static_insts);
        assert_eq!(a.entry, b.entry);
        let (ca, na) = run_to_halt(&a, 10_000_000);
        let (cb, nb) = run_to_halt(&b, 10_000_000);
        assert_eq!(na, nb);
        assert!(ca.arch_eq(&cb));
    }

    #[test]
    fn static_size_tracks_profile() {
        let p = suites::quicktest_profile();
        let w = generate(&p, 1.0);
        let ratio = w.static_insts as f64 / p.static_insts as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "static {} vs target {}",
            w.static_insts,
            p.static_insts
        );
    }

    #[test]
    fn scale_changes_dynamic_not_static() {
        let p = suites::quicktest_profile();
        let small = generate(&p, 0.5);
        let big = generate(&p, 2.0);
        assert_eq!(small.static_insts, big.static_insts);
        let (_, ns) = run_to_halt(&small, 20_000_000);
        let (_, nb) = run_to_halt(&big, 20_000_000);
        assert!(nb > ns * 2, "dynamic length must scale: {ns} vs {nb}");
    }

    #[test]
    fn indirect_profiles_generate_indirect_branches() {
        let mut p = suites::quicktest_profile();
        p.indirect_freq = 0.01;
        let w = generate(&p, 1.0);
        let mut mem = w.mem.clone();
        let mut cpu = w.initial.clone();
        let mut indirect = 0u64;
        let mut n = 0u64;
        while !cpu.halted && n < 5_000_000 {
            let info = exec::step(&mut cpu, &mut mem).unwrap();
            if info.inst.is_indirect() {
                indirect += 1;
            }
            n += 1;
        }
        assert!(cpu.halted);
        let freq = indirect as f64 / n as f64;
        assert!(freq > 0.003, "indirect frequency too low: {freq}");
    }

    #[test]
    fn fp_profiles_generate_fp_work() {
        let mut p = suites::quicktest_profile();
        p.fp_fraction = 0.4;
        p.seed = 99;
        let w = generate(&p, 1.0);
        let mut mem = w.mem.clone();
        let mut cpu = w.initial.clone();
        let mut fp = 0u64;
        let mut n = 0u64;
        while !cpu.halted && n < 5_000_000 {
            let info = exec::step(&mut cpu, &mut mem).unwrap();
            if matches!(
                info.inst.class(),
                darco_guest::GuestClass::Fp | darco_guest::GuestClass::FpComplex
            ) {
                fp += 1;
            }
            n += 1;
        }
        assert!(cpu.halted);
        assert!(fp as f64 / n as f64 > 0.05, "fp share too low: {}", fp as f64 / n as f64);
    }
}
