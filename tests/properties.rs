//! Property-based tests on the core invariants of the infrastructure,
//! driven by a seeded deterministic generator (the environment has no
//! crates.io access, so `proptest` is replaced by explicit case loops
//! over a `SmallRng`; failures print the seed for replay).
//!
//! The heavyweight property here mirrors DARCO's reason for existing:
//! *any* guest program must execute identically under the functional
//! reference, the interpreter, plain BBM translation, and the full SBM
//! optimization pipeline.

use darco::guest::asm::Asm;
use darco::guest::{exec, AluOp, Cond, CpuState, Gpr, GuestMem, Inst, MemRef, MemWidth, Scale};
use darco::host::NullSink;
use darco::tol::{Tol, TolConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[path = "common/guest_programs.rs"]
mod guest_programs;
use guest_programs::*;

fn run_reference(mem: &GuestMem, cpu: &CpuState) -> (CpuState, u64) {
    let mut mem = mem.clone();
    let mut cpu = cpu.clone();
    let mut n = 0;
    while !cpu.halted {
        exec::step(&mut cpu, &mut mem).expect("reference decode");
        n += 1;
        assert!(n < 10_000_000, "reference runaway");
    }
    (cpu, n)
}

fn run_tol(mem: &GuestMem, cpu: &CpuState, cfg: TolConfig) -> (CpuState, u64) {
    let mut mem = mem.clone();
    let mut tol = Tol::new(cfg, cpu.eip);
    tol.set_state(cpu);
    let mut sink = NullSink;
    let n = tol.run(&mut mem, &mut sink, 10_000_000).expect("tol run");
    (tol.emulated_state(), n)
}

// ---------------------------------------------------------------- properties

/// The co-simulation invariant, as a property over random programs:
/// interpreter-only, BBM-only and full-SBM executions all match the
/// functional reference bit-for-bit, at every threshold setting.
#[test]
fn translation_preserves_architecture() {
    for case in 0u64..24 {
        let mut rng = SmallRng::seed_from_u64(0xDA_0001 + case);
        let len = rng.gen_range(4usize..40);
        let body: Vec<Inst> = (0..len).map(|_| any_inst(&mut rng)).collect();
        let iters = rng.gen_range(3i32..40);
        let (mem, cpu) = build_program(&body, iters);
        let (ref_cpu, ref_n) = run_reference(&mem, &cpu);

        for cfg in [
            // Interpreter only (promotion unreachable).
            TolConfig { im_bb_threshold: u32::MAX, ..TolConfig::default() },
            // BBM only.
            TolConfig { im_bb_threshold: 1, bb_sb_threshold: u32::MAX, ..TolConfig::default() },
            // Aggressive SBM.
            TolConfig { im_bb_threshold: 1, bb_sb_threshold: 2, ..TolConfig::default() },
            // SBM with no optimization passes.
            TolConfig { im_bb_threshold: 1, bb_sb_threshold: 2, ..TolConfig::no_optimization() },
        ] {
            let (emu_cpu, emu_n) = run_tol(&mem, &cpu, cfg.clone());
            assert_eq!(emu_n, ref_n, "case {case}: instruction count under {cfg:?}");
            assert!(
                ref_cpu.arch_eq(&emu_cpu),
                "case {case}: state mismatch\nref: {ref_cpu}\nemu: {emu_cpu}"
            );
        }
    }
}

/// The guest-layer fast path (pre-decoded micro-op buffers, lazy flag
/// materialization, width-native memory access) against the
/// decode-per-step byte oracle, compared at *every step*: full
/// architectural state including every EFLAGS bit. The running fast
/// context keeps its lazy state — flags are forced on a probe clone so
/// the comparison cannot mask an elision bug by materializing early.
#[test]
fn guest_fast_path_matches_oracle_per_step() {
    use darco::guest::ExecCtx;
    for case in 0u64..16 {
        let mut rng = SmallRng::seed_from_u64(0xDA_0009 + case);
        let len = rng.gen_range(4usize..40);
        let body: Vec<Inst> = (0..len).map(|_| any_inst(&mut rng)).collect();
        let iters = rng.gen_range(3i32..20);
        let (mem, cpu) = build_program(&body, iters);

        let mut oracle_mem = mem.clone();
        let mut oracle_cpu = cpu.clone();
        let mut fast_mem = mem;
        let mut fast_cpu = cpu;
        let mut ctx = ExecCtx::new();

        let mut steps = 0u64;
        while !oracle_cpu.halted {
            let o = exec::step(&mut oracle_cpu, &mut oracle_mem).expect("oracle decode");
            let f = ctx.step(&mut fast_cpu, &mut fast_mem).expect("fast decode");
            assert_eq!(o, f, "case {case} step {steps}: StepInfo mismatch");
            let mut probe_cpu = fast_cpu.clone();
            let mut probe_ctx = ctx.clone();
            probe_ctx.force_flags(&mut probe_cpu);
            assert!(
                oracle_cpu.arch_eq(&probe_cpu),
                "case {case} step {steps}: state mismatch\noracle: {oracle_cpu}\nfast:   {probe_cpu}"
            );
            steps += 1;
            assert!(steps < 10_000_000, "runaway");
        }
        assert!(fast_cpu.halted, "case {case}: fast path must halt with the oracle");
        assert_eq!(
            oracle_mem.first_difference(&fast_mem),
            None,
            "case {case}: guest memory diverged"
        );
        assert!(ctx.stats.uop_hits > 0, "case {case}: micro-op cache never engaged");
    }
}

/// `ExecCtx::run` in any chunking against the same context stepped one
/// instruction at a time. After every chunk: the count it reports, how
/// it ended (fault or not), the architectural state (flags forced on a
/// probe clone), and every [`FastStats`] field — the cursor a chunk
/// leaves behind shows up there, as a block built twice. Memory is
/// compared at the end.
///
/// [`FastStats`]: darco::guest::uops::FastStats
fn assert_run_matches_steps(label: &str, mem: &GuestMem, cpu: &CpuState, chunks: &[u64]) {
    use darco::guest::ExecCtx;
    let (mut step_mem, mut step_cpu, mut step_ctx) = (mem.clone(), cpu.clone(), ExecCtx::new());
    let (mut run_mem, mut run_cpu, mut run_ctx) = (mem.clone(), cpu.clone(), ExecCtx::new());
    let (mut step_total, mut run_total) = (0u64, 0u64);
    for (i, &chunk) in chunks.iter().enumerate() {
        let at = format!("{label}, chunk {i} (of {chunk})");
        let mut stepped = Ok(());
        for _ in 0..chunk {
            if step_cpu.halted {
                break;
            }
            match step_ctx.step(&mut step_cpu, &mut step_mem) {
                Ok(_) => step_total += 1,
                Err(e) => {
                    stepped = Err(e);
                    break;
                }
            }
        }
        let ran = run_ctx.run(&mut run_cpu, &mut run_mem, chunk, &mut run_total);
        assert_eq!(ran, stepped, "{at}: how the chunk ended");
        assert_eq!(run_total, step_total, "{at}: instructions executed");

        let mut probe_cpu = run_cpu.clone();
        run_ctx.clone().force_flags(&mut probe_cpu);
        let mut want_cpu = step_cpu.clone();
        step_ctx.clone().force_flags(&mut want_cpu);
        assert!(
            want_cpu.arch_eq(&probe_cpu) && want_cpu.halted == probe_cpu.halted,
            "{at}: state mismatch\nstep: {want_cpu}\nrun:  {probe_cpu}"
        );

        let (r, w) = (run_ctx.stats, step_ctx.stats);
        assert_eq!(r.uop_hits, w.uop_hits, "{at}: uop_hits");
        assert_eq!(r.blocks_built, w.blocks_built, "{at}: blocks_built");
        assert_eq!(r.invalidations, w.invalidations, "{at}: invalidations");
        assert_eq!(r.flag_defs, w.flag_defs, "{at}: flag_defs");
        assert_eq!(r.flag_forces, w.flag_forces, "{at}: flag_forces");

        if stepped.is_err() || step_cpu.halted {
            break;
        }
    }
    assert_eq!(step_mem.first_difference(&run_mem), None, "{label}: guest memory diverged");
}

/// Random chunk sizes around the interesting boundaries (one op, the
/// block cap and one past it, many blocks), always ending "to halt".
fn chunk_plan(rng: &mut SmallRng) -> Vec<u64> {
    const SIZES: [u64; 6] = [1, 2, 7, 48, 49, 1_000];
    let mut plan: Vec<u64> =
        (0..rng.gen_range(4usize..40)).map(|_| SIZES[rng.gen_range(0..SIZES.len())]).collect();
    plan.push(u64::MAX);
    plan
}

/// Block-granular execution is n × `step`: see
/// [`assert_run_matches_steps`] for what is compared. Covers chunks
/// that end inside a block and resume there, straight-line code longer
/// than `UOP_BLOCK_CAP`, `Halt` inside a chunk, a decode fault as the
/// first and as a later instruction of a chunk, and a store that
/// rewrites a later instruction of the block it runs in.
#[test]
fn block_run_matches_per_step_execution_in_any_chunking() {
    for case in 0u64..16 {
        let mut rng = SmallRng::seed_from_u64(0xDA_0012 + case);

        // Branchy bodies (short blocks) and, every other case, one
        // straight-line body that overflows the block cap.
        let (mem, cpu) = if case % 2 == 0 {
            let body: Vec<Inst> =
                (0..rng.gen_range(4usize..40)).map(|_| any_inst(&mut rng)).collect();
            build_program(&body, rng.gen_range(3i32..20))
        } else {
            let body: Vec<Inst> =
                (0..rng.gen_range(60usize..130)).map(|_| straightline_inst(&mut rng)).collect();
            build_program(&body, rng.gen_range(2i32..6))
        };
        for plan in 0..3 {
            assert_run_matches_steps(
                &format!("case {case} plan {plan}"),
                &mem,
                &cpu,
                &chunk_plan(&mut rng),
            );
        }

        // The same program with its `Halt` made undecodable: the fault
        // arrives after `before` instructions, once as the first
        // instruction of a chunk and once further into one.
        let (halt_cpu, halt_n) = run_reference(&mem, &cpu);
        let before = halt_n - 1;
        let mut faulty = mem.clone();
        faulty.write_u8(halt_cpu.eip, 0xFF);
        assert_run_matches_steps(&format!("case {case} fault first"), &faulty, &cpu, &[before, 7]);
        let split = rng.gen_range(0..before);
        assert_run_matches_steps(
            &format!("case {case} fault later"),
            &faulty,
            &cpu,
            &[split, before - split + 7],
        );
        assert_run_matches_steps(
            &format!("case {case} fault random"),
            &faulty,
            &cpu,
            &chunk_plan(&mut rng),
        );
    }

    // A loop whose store bumps the imm8 of a `MovRI` *further down the
    // same block* every iteration: the running block goes stale under
    // the loop's feet, in every chunking.
    for case in 0u64..8 {
        let mut rng = SmallRng::seed_from_u64(0xDA_0013 + case);
        let iters = rng.gen_range(4i32..30);
        let seed_imm = rng.gen_range(1i32..80); // seed + iters < 128: stays a positive imm8
        let pad = rng.gen_range(0usize..4);
        let base = 0x1000u32;
        let build = |patch_at: u32| {
            let patch = MemRef {
                base: None,
                index: None,
                scale: Scale::from_bits(0),
                disp: patch_at as i32,
            };
            let mut a = Asm::new(base);
            let top = a.fresh_label();
            a.push(Inst::MovRI { dst: Gpr::Ebp, imm: iters });
            a.bind(top);
            a.push(Inst::LoadZx { dst: Gpr::Ecx, addr: patch, width: MemWidth::B1 });
            a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ecx, imm: 1 });
            a.push(Inst::StoreN { addr: patch, src: Gpr::Ecx, width: MemWidth::B1 });
            for _ in 0..pad {
                a.push(Inst::Nop);
            }
            let target = a.here();
            a.push(Inst::MovRI { dst: Gpr::Edx, imm: seed_imm });
            a.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Eax, src: Gpr::Edx });
            a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ebp, imm: 1 });
            a.push_jcc(Cond::Ne, top);
            a.push(Inst::Halt);
            (a.assemble(), target)
        };
        // The absolute `patch` operand has the same encoded length
        // wherever it points, so one trial build fixes the layout.
        let (_, target) = build(base);
        let (p, _) = build(target + 2); // short MovRI: opcode, reg, imm8
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        let cpu = CpuState::at(p.base);

        let (ref_cpu, _) = run_reference(&mem, &cpu);
        let expect: i64 = (1..=iters as i64).map(|i| seed_imm as i64 + i).sum();
        assert_eq!(ref_cpu.gpr(Gpr::Eax) as i64, expect, "smc case {case}: oracle sees each patch");
        for plan in 0..4 {
            assert_run_matches_steps(
                &format!("smc case {case} plan {plan}"),
                &mem,
                &cpu,
                &chunk_plan(&mut rng),
            );
        }
        let mut n = 0;
        let (mut m, mut c, mut ctx) = (mem.clone(), cpu.clone(), darco::guest::ExecCtx::new());
        ctx.run(&mut c, &mut m, u64::MAX, &mut n).expect("decodes");
        assert_eq!(c.gpr(Gpr::Eax) as i64, expect, "smc case {case}: a stale micro-op ran");
        assert!(ctx.stats.invalidations >= iters as u64, "smc case {case}: one per iteration");
    }
}

/// Self-modifying code invalidates the generation-stamped pre-decoded
/// micro-op buffers: a program that patches an immediate byte inside
/// its own loop body every iteration must converge to the reference
/// result under the plain interpreter and the fast path alike.
#[test]
fn smc_invalidates_uop_buffers() {
    use darco::guest::ExecCtx;
    for case in 0u64..8 {
        let mut rng = SmallRng::seed_from_u64(0xDA_000A + case);
        let iters = rng.gen_range(8i32..40);
        // seed + iters stays below 128 so the patched byte always
        // decodes as the same positive imm8 the accumulator expects.
        let seed_imm = rng.gen_range(1i32..80);

        // base:      MovRI Ebp, iters         ; loop counter
        // top:       MovRI Edx, seed_imm      ; patch target
        //            AluRR Add Eax, Edx       ; accumulate the patched imm
        //            LoadZx Ecx, [patch], B1  ; read the imm byte,
        //            AluRI Add Ecx, 1         ; bump it,
        //            StoreN [patch], Ecx, B1  ; write it back (SMC)
        //            AluRI Sub Ebp, 1
        //            Jcc Ne top
        //            Halt
        // The short MovRI encoding places the imm8 at offset +2, so the
        // store rewrites a byte inside an already-cached block, which
        // must observe the new generation stamp next iteration.
        let base = 0x1000u32;
        let head = darco::guest::encode::encode_to_vec(&Inst::MovRI { dst: Gpr::Ebp, imm: iters });
        let patch = MemRef {
            base: None,
            index: None,
            scale: Scale::from_bits(0),
            disp: (base + head.len() as u32 + 2) as i32,
        };
        let mut a = Asm::new(base);
        let top = a.fresh_label();
        a.push(Inst::MovRI { dst: Gpr::Ebp, imm: iters });
        a.bind(top);
        a.push(Inst::MovRI { dst: Gpr::Edx, imm: seed_imm });
        a.push(Inst::AluRR { op: AluOp::Add, dst: Gpr::Eax, src: Gpr::Edx });
        a.push(Inst::LoadZx { dst: Gpr::Ecx, addr: patch, width: MemWidth::B1 });
        a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ecx, imm: 1 });
        a.push(Inst::StoreN { addr: patch, src: Gpr::Ecx, width: MemWidth::B1 });
        a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ebp, imm: 1 });
        a.push_jcc(Cond::Ne, top);
        a.push(Inst::Halt);
        let p = a.assemble();
        let mut mem = GuestMem::new();
        mem.write_bytes(p.base, &p.bytes);
        let mut cpu = CpuState::at(p.base);
        cpu.set_gpr(Gpr::Esp, 0x9_0000);

        // The accumulator must see a *different* imm every iteration:
        // seed, seed+1, ... — only true if caches revalidate.
        let expect: i64 = (0..iters as i64).map(|i| seed_imm as i64 + i).sum();

        let (ref_cpu, ref_n) = run_reference(&mem, &cpu);
        assert_eq!(
            ref_cpu.gpr(Gpr::Eax) as i32 as i64,
            expect,
            "case {case}: reference must accumulate the patched immediates"
        );

        // Micro-op fast path, stepped directly so invalidations are
        // observable.
        {
            let mut m = mem.clone();
            let mut c = cpu.clone();
            let mut ctx = ExecCtx::new();
            let mut n = 0u64;
            while !c.halted {
                ctx.step(&mut c, &mut m).expect("fast decode");
                n += 1;
                assert!(n < 10_000_000, "runaway");
            }
            ctx.force_flags(&mut c);
            assert_eq!(n, ref_n, "case {case}: fast-path instruction count");
            assert!(ref_cpu.arch_eq(&c), "case {case}: fast path missed the patch");
            assert!(
                ctx.stats.invalidations > 0,
                "case {case}: SMC must invalidate cached micro-op blocks"
            );
        }

        // The full TOL, interpreting only, must land on the reference
        // state too.
        let cfg = TolConfig { im_bb_threshold: u32::MAX, ..TolConfig::default() };
        let (emu_cpu, emu_n) = run_tol(&mem, &cpu, cfg);
        assert_eq!(emu_n, ref_n, "case {case}: interpreter instruction count");
        assert!(
            ref_cpu.arch_eq(&emu_cpu),
            "case {case}: the interpreter missed the patch\nref: {ref_cpu}\nemu: {emu_cpu}"
        );
    }
}

/// Decoder round-trip on random straight-line instructions.
#[test]
fn encode_decode_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xDA_0002);
    for case in 0..512 {
        let inst = straightline_inst(&mut rng);
        let bytes = darco::guest::encode::encode_to_vec(&inst);
        let (back, len) = darco::guest::decode(&bytes).expect("decode");
        assert_eq!(back, inst, "case {case}");
        assert_eq!(len, bytes.len(), "case {case}");
    }
}

/// The decoder never panics on arbitrary bytes and never reads past
/// the declared instruction length.
#[test]
fn decoder_is_total() {
    let mut rng = SmallRng::seed_from_u64(0xDA_0003);
    for _ in 0..2048 {
        let len = rng.gen_range(1usize..16);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u16..256) as u8).collect();
        if let Ok((_, len)) = darco::guest::decode(&bytes) {
            assert!(len <= bytes.len());
            assert!(len <= darco::guest::exec::MAX_INST_LEN);
        }
    }
}

/// Flag algebra matches two's-complement arithmetic.
#[test]
fn flag_semantics() {
    use darco::guest::Flags;
    let mut rng = SmallRng::seed_from_u64(0xDA_0004);
    for _ in 0..4096 {
        let a: u32 = rng.gen();
        let b: u32 = rng.gen();
        let add = Flags::add(a, b);
        assert_eq!(add.zf, a.wrapping_add(b) == 0);
        assert_eq!(add.cf, a.checked_add(b).is_none());
        assert_eq!(add.sf, (a.wrapping_add(b) as i32) < 0);
        assert_eq!(add.of, (a as i32).checked_add(b as i32).is_none());
        let sub = Flags::sub(a, b);
        assert_eq!(sub.zf, a == b);
        assert_eq!(sub.cf, a < b);
        assert_eq!(sub.of, (a as i32).checked_sub(b as i32).is_none());
    }
}

/// The flattened cache layout against an *independent* reference model:
/// a plain per-set `Vec<Option<u64>>` tag array with a hand-rolled
/// tree-PLRU (re-derived from the replacement-policy spec, not reusing
/// the crate's `PlruSet`). For random streams of demand accesses,
/// prefetch fills and presence probes, every hit/miss outcome, every
/// victim (observed through `contains`) and the final counters must
/// agree at each of Table I's five levels (the TLBs as caches of pages).
#[test]
fn flat_cache_matches_reference_plru_model() {
    use darco::timing::config::{L1D, L1I, L2, TLB1, TLB2};
    use darco::timing::tlb::pages;
    use darco::timing::{Cache, CacheParams, Lookup};

    /// Textbook tree-PLRU over a `u64` bit heap: node 0 is the root,
    /// children of `n` are `2n+1` / `2n+2`; a set bit points left.
    struct RefSet {
        tags: Vec<Option<u64>>,
        bits: u64,
    }

    impl RefSet {
        fn touch(&mut self, way: usize) {
            let ways = self.tags.len();
            let (mut lo, mut hi, mut node) = (0usize, ways, 0usize);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if way < mid {
                    self.bits |= 1 << node;
                    node = 2 * node + 1;
                    hi = mid;
                } else {
                    self.bits &= !(1 << node);
                    node = 2 * node + 2;
                    lo = mid;
                }
            }
        }

        fn victim(&self) -> usize {
            let ways = self.tags.len();
            let (mut lo, mut hi, mut node) = (0usize, ways, 0usize);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.bits & (1 << node) != 0 {
                    node = 2 * node + 2;
                    lo = mid;
                } else {
                    node = 2 * node + 1;
                    hi = mid;
                }
            }
            lo
        }

        fn probe_fill(&mut self, tag: u64) -> Lookup {
            if let Some(w) = self.tags.iter().position(|&t| t == Some(tag)) {
                self.touch(w);
                return Lookup::Hit;
            }
            let w = self.tags.iter().position(Option::is_none).unwrap_or_else(|| self.victim());
            self.tags[w] = Some(tag);
            self.touch(w);
            Lookup::Miss
        }
    }

    struct RefCache {
        sets: Vec<RefSet>,
        block: u64,
        accesses: u64,
        misses: u64,
    }

    impl RefCache {
        fn new(p: CacheParams) -> RefCache {
            let sets = (p.size / (p.block * p.ways)) as usize;
            RefCache {
                sets: (0..sets)
                    .map(|_| RefSet { tags: vec![None; p.ways as usize], bits: 0 })
                    .collect(),
                block: p.block as u64,
                accesses: 0,
                misses: 0,
            }
        }

        fn index(&self, addr: u64) -> (usize, u64) {
            let line = addr / self.block;
            ((line % self.sets.len() as u64) as usize, line / self.sets.len() as u64)
        }

        fn access(&mut self, addr: u64) -> Lookup {
            self.accesses += 1;
            let (s, tag) = self.index(addr);
            let r = self.sets[s].probe_fill(tag);
            if r == Lookup::Miss {
                self.misses += 1;
            }
            r
        }

        fn fill(&mut self, addr: u64) {
            let (s, tag) = self.index(addr);
            let _ = self.sets[s].probe_fill(tag);
        }

        fn contains(&self, addr: u64) -> bool {
            let (s, tag) = self.index(addr);
            self.sets[s].tags.contains(&Some(tag))
        }
    }

    let mut rng = SmallRng::seed_from_u64(0xDA_0008);
    for p in [L1I, L1D, L2, pages(TLB1), pages(TLB2)] {
        let CacheParams { size, block, ways, .. } = p;
        for case in 0..4 {
            let mut dut = Cache::new(p);
            let mut model = RefCache::new(p);
            // 6x capacity in lines, each line of the cache about 12
            // times over, keeps every set contended so PLRU victims are
            // exercised, not just cold fills.
            let span = 6 * size as u64;
            let (mut accesses, mut misses) = (0, 0);
            for i in 0..12 * u64::from(size / block) {
                let addr = rng.gen_range(0u64..span);
                if rng.gen_range(0u32..5) == 0 {
                    dut.fill(addr);
                    model.fill(addr);
                } else {
                    let r = dut.access(addr);
                    assert_eq!(
                        r,
                        model.access(addr),
                        "shape {size}/{block}/{ways} case {case}: access {i} @{addr:#x}"
                    );
                    accesses += 1;
                    misses += u64::from(r == Lookup::Miss);
                }
                // Presence of the touched line and of a same-set rival
                // (victim visibility): the model and the cache must agree
                // on exactly which lines survived.
                let rival = addr ^ (size as u64);
                assert_eq!(dut.contains(addr), model.contains(addr), "touched line");
                assert_eq!(
                    dut.contains(rival),
                    model.contains(rival),
                    "shape {size}/{block}/{ways} case {case}: victim mismatch @{rival:#x}"
                );
            }
            assert_eq!(accesses, model.accesses, "demand access count");
            assert_eq!(misses, model.misses, "demand miss count");
        }
    }
}

/// Timing monotonicity: extending an instruction stream never
/// reduces total cycles, and cycles always cover insts/width.
#[test]
fn pipeline_monotone() {
    use darco::host::stream::{int_reg, DynInst};
    use darco::host::{Component, ExecClass};
    use darco::timing::Pipeline;
    let mut rng = SmallRng::seed_from_u64(0xDA_0006);
    for _ in 0..16 {
        let n = rng.gen_range(1usize..400);
        let seed: u64 = rng.gen();
        let mut p = Pipeline::new();
        let mut x = seed | 1;
        let mut prev = 0;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            let d = if x & 3 == 0 {
                DynInst::plain(i as u64 * 4, ExecClass::Load, Component::AppCode)
                    .with_dst(int_reg(2))
                    .with_mem((x >> 8) % (1 << 20), 4, false)
            } else {
                DynInst::plain(i as u64 * 4, ExecClass::SimpleInt, Component::AppCode)
                    .with_dst(int_reg(3))
                    .with_srcs(int_reg(2), u8::MAX)
            };
            p.retire(&d);
            let s = p.snapshot();
            assert!(s.total_cycles >= prev, "cycles must be monotone");
            prev = s.total_cycles;
        }
        let s = p.snapshot();
        assert!(s.total_cycles as f64 >= n as f64 / 2.0);
        assert_eq!(s.total_insts(), n as u64);
    }
}
