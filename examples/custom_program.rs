//! Run your *own* guest program through the co-designed processor.
//!
//! The roster in `darco_workloads` covers the paper's benchmarks, but the
//! stack is a library: write guest assembly with [`darco::guest::asm::Asm`],
//! run it as a [`System`] — software layer, timing model and state checker
//! — and watch it move through the three execution modes.
//!
//! The program below fills a table once, then computes a checksum over
//! it in a hot inner loop (promoted to an optimized superblock), with a
//! function call per outer iteration (exercising the IBTC on returns).
//! Every block starts in the interpreter and leaves it after `IM/BBth`
//! (5) visits, so the interpreter runs the smallest share.
//!
//! ```text
//! cargo run --release --example custom_program
//! cargo test --example custom_program   # checks what it prints
//! ```

use darco::core::{Report, System, SystemConfig};
use darco::guest::asm::Asm;
use darco::guest::{AluOp, Cond, CpuState, Gpr, GuestMem, Inst, MemRef};
use darco::tol::TolConfig;
use darco::workloads::Workload;

fn build_program() -> Workload {
    let mut a = Asm::new(0x1000);
    let table = 0x10_0000u32;

    let sum_fn = a.fresh_label();
    let start = a.fresh_label();
    a.push_jmp(start);

    // u32 sum_fn(): checksum 256 table entries into ebx.
    a.bind(sum_fn);
    let loop_top = a.fresh_label();
    a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0 });
    a.push(Inst::MovRI { dst: Gpr::Ecx, imm: 256 });
    a.bind(loop_top);
    a.push(Inst::AluRM {
        op: AluOp::Add,
        dst: Gpr::Ebx,
        addr: MemRef::base(Gpr::Esi, table as i32),
    });
    a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Esi, imm: 4 });
    a.push(Inst::Shift { op: darco::guest::ShiftOp::Shl, dst: Gpr::Ebx, amount: 1 });
    a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ecx, imm: 1 });
    a.push_jcc(Cond::Ne, loop_top);
    a.push(Inst::Ret);

    // Setup: fill the table once.
    a.bind(start);
    let fill_top = a.fresh_label();
    a.push(Inst::MovRI { dst: Gpr::Esi, imm: 0 });
    a.push(Inst::MovRI { dst: Gpr::Eax, imm: 0x1234_5678u32 as i32 });
    a.bind(fill_top);
    a.push(Inst::Store { addr: MemRef::base(Gpr::Esi, table as i32), src: Gpr::Eax });
    a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Eax, imm: 0x9E37 });
    a.push(Inst::AluRI { op: AluOp::Add, dst: Gpr::Esi, imm: 4 });
    a.push(Inst::CmpRI { a: Gpr::Esi, imm: 1024 });
    a.push_jcc(Cond::Ne, fill_top);

    // Hot phase: call the checksum 400 times.
    let outer = a.fresh_label();
    a.push(Inst::MovRI { dst: Gpr::Ebp, imm: 400 });
    a.bind(outer);
    a.push_call(sum_fn);
    a.push(Inst::AluRI { op: AluOp::Sub, dst: Gpr::Ebp, imm: 1 });
    a.push_jcc(Cond::Ne, outer);
    a.push(Inst::Halt);

    let p = a.assemble();
    let mut mem = GuestMem::new();
    mem.write_bytes(p.base, &p.bytes);
    let mut initial = CpuState::at(p.base);
    initial.set_gpr(Gpr::Esp, 0x20_0000);
    let static_insts = p.inst_offsets.len() as u32;
    Workload { name: "custom".into(), mem, entry: p.base, initial, static_insts, dyn_estimate: 0 }
}

/// Runs the program through the co-designed stack, co-simulated (a
/// divergence panics); returns the report and the checksum in `ebx`.
fn run() -> (Report, u32) {
    let tol = TolConfig { bb_sb_threshold: 100, ..TolConfig::default() };
    let mut sys = System::new(build_program(), SystemConfig { tol, ..SystemConfig::default() });
    let report = sys.run_to_completion();
    (report, sys.tol().emulated_state().gpr(Gpr::Ebx))
}

fn main() {
    let (r, checksum) = run();
    let stats = &r.timing;
    println!("checksum (ebx)      : {checksum:#010x}");
    println!("guest instructions  : {}", r.guest_insts);
    println!("host cycles         : {}", stats.total_cycles);
    println!("IPC                 : {:.3}", stats.ipc());
    println!("TOL overhead        : {:.1}%", stats.tol_overhead_share() * 100.0);
    println!("co-sim checks       : {} (all passed)", r.cosim_checks);
    let s = &r.tol;
    println!(
        "modes (dyn insts)   : IM {} / BBM {} / SBM {}",
        s.dyn_dist[0], s.dyn_dist[1], s.dyn_dist[2]
    );
    println!("superblocks formed  : {}", s.counters.sbm_invocations);
    println!("returns through IBTC: {} hits / {} misses", s.ibtc_hits, s.ibtc_misses);
    println!("\nThe hot checksum loop was promoted to an optimized superblock; each block");
    println!("left the interpreter after its first visits; the call's returns went");
    println!("through the IBTC — the same staged pipeline the paper characterizes.");
}

#[test]
fn the_program_moves_through_the_stages_it_describes() {
    // `run` has checked the architectural state against the reference.
    let (r, _) = run();
    assert!(r.cosim_checks > 0, "the run was co-simulated");
    let (s, guest_insts) = (&r.tol, r.guest_insts);
    assert!(s.counters.sbm_invocations > 0, "no superblock formed");
    assert!(s.ibtc_hits > 0, "no return went through the IBTC");
    let [im, bbm, sbm] = s.dyn_dist;
    assert!(im < bbm && bbm < sbm, "IM {im} / BBM {bbm} / SBM {sbm}");
    assert_eq!(im + bbm + sbm, guest_insts);
}
