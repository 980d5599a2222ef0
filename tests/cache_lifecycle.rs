//! Code-cache lifecycle integration tests: self-modifying code through
//! the *translated* path, and the FIFO partial-eviction policy exercised
//! across the full system (DESIGN.md §14).
//!
//! The SMC tests hand-assemble a guest program whose hot inner loop is
//! promoted all the way to SBM and then patched by the program itself
//! (the immediate of an `add` flips from 1 to 5). The architecturally
//! exact outcome is pinned against the reference functional emulator,
//! co-simulation checks every dispatch boundary, and the report must
//! show the translation being evicted for SMC and re-translated.

use darco::core::{Report, System, SystemConfig};
use darco::guest::asm::Asm;
use darco::guest::encode::encode_to_vec;
use darco::guest::{exec, AluOp, Cond, CpuState, Gpr, GuestMem, Inst, MemRef, MemWidth};
use darco::tol::codecache::CachePolicy;
use darco::tol::TolConfig;
use darco::workloads::gen::Workload;
use darco::workloads::{generate, suites};

const CODE_BASE: u32 = 0x1000;
/// Inner-loop trip count (hot enough to promote IM → BBM → SBM).
const INNER: i32 = 40;
/// Outer-loop trip count.
const OUTER: i32 = 60;
/// Outer iteration after which the program patches its own code.
const TRIGGER: i32 = 30;

/// Builds a guest program that overwrites the immediate byte of the hot
/// inner loop's `add eax, 1`, turning it into `add eax, 5` mid-run:
///
/// ```text
/// entry:  eax = 0; ebx = 0
/// outer:  ecx = 0
/// inner:  add eax, 1        <- patched to `add eax, 5` (same length)
///         add ecx, 1
///         cmp ecx, INNER; jne inner
///         cmp ebx, TRIGGER; jne skip
///         edx = 5; store.b [imm byte of the add] <- dl
/// skip:   add ebx, 1
///         cmp ebx, OUTER; jne outer
///         halt
/// ```
///
/// Both immediates fit a signed byte, so the canonical encoding length
/// is identical and the patch never shifts later instructions.
fn smc_workload() -> Workload {
    // Locate the byte that differs between the two encodings.
    let old = encode_to_vec(&Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
    let new = encode_to_vec(&Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 5 });
    assert_eq!(old.len(), new.len(), "patch must not change instruction length");
    let diff: Vec<usize> =
        old.iter().zip(&new).enumerate().filter(|(_, (a, b))| a != b).map(|(i, _)| i).collect();
    assert_eq!(diff.len(), 1, "encodings differ in exactly the immediate byte");

    let mut a = Asm::new(CODE_BASE);
    a.push(Inst::MovRI { dst: Gpr::Eax, imm: 0 });
    a.push(Inst::MovRI { dst: Gpr::Ebx, imm: 0 });
    let outer = a.fresh_label();
    a.bind(outer);
    a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 0 });
    let inner = a.fresh_label();
    a.bind(inner);
    let site = a.here() + diff[0] as u32;
    a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 1 });
    a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ecx, imm: 1 });
    a.push(Inst::CmpRI { a: Gpr::Ecx, imm: INNER });
    a.push_jcc(Cond::Ne, inner);
    a.push(Inst::CmpRI { a: Gpr::Ebx, imm: TRIGGER });
    let skip = a.fresh_label();
    a.push_jcc(Cond::Ne, skip);
    // Executed exactly once: store the new immediate over the old one.
    a.push(Inst::MovRI { dst: Gpr::Edx, imm: 5 });
    a.push(Inst::StoreN { addr: MemRef::abs(site), src: Gpr::Edx, width: MemWidth::B1 });
    a.bind(skip);
    a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Ebx, imm: 1 });
    a.push(Inst::CmpRI { a: Gpr::Ebx, imm: OUTER });
    a.push_jcc(Cond::Ne, outer);
    a.push(Inst::Halt);
    let p = a.assemble();

    let mut mem = GuestMem::new();
    mem.write_bytes(p.base, &p.bytes);
    let mut initial = CpuState::at(p.base);
    initial.set_gpr(Gpr::Esp, 0x00F0_0000);
    Workload {
        name: "smc-patch".into(),
        mem,
        entry: p.base,
        initial,
        static_insts: p.static_len() as u32,
        dyn_estimate: (OUTER as u64) * (INNER as u64) * 4,
    }
}

/// Final accumulator value if — and only if — the patch takes effect at
/// the architecturally correct iteration.
fn smc_expected_eax() -> u32 {
    (INNER * (TRIGGER + 1) + 5 * INNER * (OUTER - 1 - TRIGGER)) as u32
}

/// The reference functional emulator honours the self-modification.
#[test]
fn smc_reference_execution_sees_the_patch() {
    let w = smc_workload();
    let mut cpu = w.initial.clone();
    let mut mem = w.mem.clone();
    while !cpu.halted {
        exec::step(&mut cpu, &mut mem).unwrap();
    }
    assert_eq!(cpu.gpr(Gpr::Eax), smc_expected_eax());
}

/// Satellite (c): SMC through the *translated* path. The inner loop is
/// promoted to SBM long before the patch lands (2400 executions against
/// a BB/SB threshold of 50), so the store hits a page backing live
/// translations. The run must stay architecturally exact (co-simulation
/// checks every dispatch; the final instruction count is pinned against
/// the reference emulator) and the report must show the SMC eviction
/// plus the re-translation of the patched entry.
#[test]
fn smc_invalidates_translated_code_exactly() {
    let w = smc_workload();
    let mut ref_cpu = w.initial.clone();
    let mut ref_mem = w.mem.clone();
    let mut ref_n = 0u64;
    while !ref_cpu.halted {
        exec::step(&mut ref_cpu, &mut ref_mem).unwrap();
        ref_n += 1;
    }

    for policy in [CachePolicy::Flush, CachePolicy::Fifo] {
        let tol = TolConfig { bb_sb_threshold: 50, cache_policy: policy, ..TolConfig::default() };
        let cfg = SystemConfig { tol, cosim: true, ..SystemConfig::default() };
        let mut sys = System::new(smc_workload(), cfg);
        let r = sys.run_to_completion(); // co-sim panics on divergence
        assert_eq!(r.guest_insts, ref_n, "{policy:?}: instruction counts must match");
        assert!(r.cosim_checks > 0, "{policy:?}: checker ran");
        assert!(r.tol.dyn_dist[2] > 0, "{policy:?}: the hot loop reached SBM");
        assert!(
            r.tol.cache.smc_evictions >= 1,
            "{policy:?}: the code write must evict stale translations"
        );
        assert!(
            r.tol.cache.retranslations >= 1,
            "{policy:?}: the patched entry must be re-translated"
        );
    }
}

// ---------------------------------------------------------------------
// FIFO partial eviction across the full system.
// ---------------------------------------------------------------------

/// Capacity small enough that the quicktest working set churns the
/// cache — evicted hot translations actually come back rather than
/// just cold code falling off the FIFO end.
const TIGHT_CAPACITY: u32 = 600;

fn run_fifo(cosim: bool) -> Report {
    let profile = suites::quicktest_profile();
    let mut cfg = SystemConfig {
        cosim,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        ..SystemConfig::default()
    };
    cfg.tol.code_cache_capacity = TIGHT_CAPACITY;
    cfg.tol.cache_policy = CachePolicy::Fifo;
    let mut sys = System::new(generate(&profile, 0.2), cfg);
    sys.run_to_completion()
}

fn fingerprint<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

/// FIFO under pressure evicts instead of flushing, keeps the guest run
/// architecturally identical to an unconstrained run, and re-translates
/// evicted entries when they come back.
#[test]
fn fifo_pressure_preserves_architectural_results() {
    let r = run_fifo(true);
    assert!(r.tol.cache.evictions > 0, "capacity {TIGHT_CAPACITY} must force evictions");
    assert_eq!(r.tol.flushes, 0, "fifo evicts instead of flushing");
    assert!(r.tol.cache.retranslations > 0, "evicted hot code comes back");
    assert!(r.tol.cache.unchains > 0, "evictions unlink incoming chains");
    assert!(r.tol.cache.used <= r.tol.cache.capacity, "allocator respects capacity");

    let profile = suites::quicktest_profile();
    let mut base = System::new(
        generate(&profile, 0.2),
        SystemConfig { cosim: true, ..SystemConfig::default() },
    );
    let rb = base.run_to_completion();
    assert_eq!(r.guest_insts, rb.guest_insts, "partial eviction is performance-only");
}

/// Co-simulation only observes: under FIFO pressure the report with the
/// checker running as a sink is the report without it, byte for byte,
/// apart from the checks it counts and the step boundaries it is sent —
/// eviction and unchain events ride the same deterministic retire-order
/// stream as everything else.
#[test]
fn fifo_reports_are_bit_identical_with_cosim() {
    let plain = run_fifo(false);
    let mut checked = run_fifo(true);
    assert!(plain.tol.cache.evictions > 0, "the comparison must exercise eviction");
    assert!(checked.cosim_checks > 0, "checker must run as a sink");
    assert_eq!(checked.trace.step_boundaries, checked.cosim_checks);
    checked.cosim_checks = plain.cosim_checks;
    checked.trace.step_boundaries = plain.trace.step_boundaries;
    assert_eq!(fingerprint(&plain), fingerprint(&checked));
}

/// With ample capacity neither policy runs out of space, yet they stay
/// distinguishable in the lifecycle accounting: flush leaves a replaced
/// BBM translation as dead space (a redirect), while FIFO eagerly
/// reclaims it as a `Replaced` eviction. Guest-architectural execution
/// must be identical either way.
#[test]
fn policies_agree_architecturally_without_pressure() {
    let profile = suites::quicktest_profile();
    let run_policy = |policy: CachePolicy| {
        let mut cfg = SystemConfig {
            cosim: false,
            app_only_pipeline: true,
            tol_only_pipeline: true,
            window_guest_insts: 20_000,
            ..SystemConfig::default()
        };
        cfg.tol.cache_policy = policy;
        let mut sys = System::new(generate(&profile, 0.1), cfg);
        sys.run_to_completion()
    };
    let flush = run_policy(CachePolicy::Flush);
    let fifo = run_policy(CachePolicy::Fifo);
    assert_eq!(flush.tol.flushes, 0, "ample capacity: no flushes");
    assert_eq!(fifo.tol.flushes, 0, "fifo never flushes");
    assert_eq!(fifo.tol.cache.smc_evictions, 0, "no code writes in generated workloads");
    // Promotion replaces the BBM entry: flush keeps it as dead space,
    // fifo reclaims it immediately.
    assert!(flush.tol.cache.dead_space_ratio() > 0.0, "flush accumulates dead space");
    assert_eq!(fifo.tol.cache.live_used, fifo.tol.cache.used, "fifo carries no dead space");
    assert_eq!(flush.guest_insts, fifo.guest_insts, "the policy is performance-only");
    assert_eq!(flush.tol.static_dist, fifo.tol.static_dist);
    assert_eq!(flush.tol.dyn_dist, fifo.tol.dyn_dist);
}
