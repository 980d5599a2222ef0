//! Code-cache lifecycle integration tests: self-modifying code through
//! the *translated* path (DESIGN.md §14).
//!
//! The tests hand-assemble a guest program whose hot inner loop is
//! promoted all the way to SBM and then patched by the program itself
//! (the immediate of an `add` flips from 1 to 5). The architecturally
//! exact outcome is pinned against the reference functional emulator,
//! co-simulation checks every dispatch boundary, and the report must
//! show the translation being evicted for SMC and re-translated.

use darco::core::{System, SystemConfig};
use darco::guest::asm::Asm;
use darco::guest::encode::encode_to_vec;
use darco::guest::{exec, AluOp, Cond, CpuState, Gpr, GuestMem, Inst, MemRef, MemWidth};
use darco::tol::TolConfig;
use darco::workloads::gen::Workload;

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

/// SMC through the *translated* path. The inner loop is
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

    let tol = TolConfig { bb_sb_threshold: 50, ..TolConfig::default() };
    let cfg = SystemConfig { tol, cosim: true, ..SystemConfig::default() };
    let mut sys = System::new(smc_workload(), cfg);
    let r = sys.run_to_completion(); // co-sim panics on divergence
    assert_eq!(r.guest_insts, ref_n, "instruction counts must match");
    assert!(r.cosim_checks > 0, "checker ran");
    assert!(r.tol.dyn_dist[2] > 0, "the hot loop reached SBM");
    assert!(r.tol.cache.smc_evictions >= 1, "the code write must evict stale translations");
    assert!(r.tol.cache.retranslations >= 1, "the patched entry must be re-translated");
}
