//! Integration tests for the implemented Sec. III-E proposals: each
//! extension must (a) keep emulation architecturally exact and (b) move
//! the microarchitectural needle in the direction the paper predicts.
//! And no switch of the software layer may be a dead knob.

use darco::core::experiments::run_bench;
use darco::core::{System, SystemConfig};
use darco::host::Owner;
use darco::tol::TolConfig;
use darco::workloads::{generate, suites};

fn run_with(tol: TolConfig, scale: f64) -> darco::core::BenchRun {
    let profile = suites::quicktest_profile();
    // Co-simulation on: any functional deviation panics.
    let cfg = SystemConfig { tol, cosim: true, ..SystemConfig::default() };
    run_bench(&profile, scale, &cfg)
}

fn base_tol() -> TolConfig {
    darco::core::scaled_tol_config()
}

#[test]
fn software_prefetching_reduces_app_dcache_misses() {
    let base = run_with(base_tol(), 1.0);
    let pf = run_with(TolConfig { opt_sw_prefetch: true, ..base_tol() }, 1.0);
    // Same functional run (co-sim checked in both); misses must not grow
    // meaningfully and should typically shrink.
    let b = base.report.timing.d_miss_rate(Owner::App);
    let p = pf.report.timing.d_miss_rate(Owner::App);
    assert!(p <= b * 1.02, "prefetching must not increase the app D$ miss rate: {p} vs {b}");
    assert_eq!(base.report.guest_insts, pf.report.guest_insts);
}

#[test]
fn speculative_indirect_resolution_pays_off_on_stable_targets() {
    let base = run_with(base_tol(), 1.0);
    let spec = run_with(TolConfig { speculate_indirect: true, ..base_tol() }, 1.0);
    let c = spec.report.tol.counters;
    assert!(c.spec_hits > 0, "stable return sites must speculate");
    assert!(c.spec_hits > c.spec_misses, "hits {} must beat misses {}", c.spec_hits, c.spec_misses);
    // Fewer IBTC probes: speculation short-circuits them.
    assert!(
        spec.report.tol.ibtc_hits + spec.report.tol.ibtc_misses
            < base.report.tol.ibtc_hits + base.report.tol.ibtc_misses,
        "speculation must shed IBTC traffic"
    );
    assert_eq!(base.report.guest_insts, spec.report.guest_insts);
}

#[test]
fn scattered_code_placement_costs_icache_misses_and_cycles() {
    let packed = run_with(base_tol(), 1.0);
    let scattered = run_with(TolConfig { codecache_scattered: true, ..base_tol() }, 1.0);
    let pi = packed.report.timing.i_miss_rate(Owner::App);
    let si = scattered.report.timing.i_miss_rate(Owner::App);
    assert!(si > pi * 1.5, "page-aligned placement must inflate I$ misses: {si} vs {pi}");
    assert!(
        scattered.report.timing.total_cycles > packed.report.timing.total_cycles,
        "and that must cost cycles: {} vs {}",
        scattered.report.timing.total_cycles,
        packed.report.timing.total_cycles
    );
    assert_eq!(packed.report.guest_insts, scattered.report.guest_insts);
}

#[test]
fn all_extensions_together_remain_exact() {
    // Everything on at once, co-sim checked.
    let all = run_with(
        TolConfig {
            opt_sw_prefetch: true,
            speculate_indirect: true,
            codecache_scattered: true,
            ..base_tol()
        },
        0.5,
    );
    assert!(all.report.cosim_checks > 0);
    assert!(all.report.guest_insts > 0);
}

/// Every `bool` of [`TolConfig`], flipped alone, moves the simulated
/// cycle count of 400.perlbench at quick scale — a switch that moves
/// nothing is a dead knob (as one of the two constant-propagation
/// switches was before they were merged: the pipeline ran `constprop`
/// whenever *either* was on).
#[test]
fn every_tol_switch_moves_the_cycle_count() {
    // Exhaustive on purpose: a new field does not compile until it is
    // listed here and, if it is a `bool`, in `SWITCHES` below.
    let TolConfig {
        im_bb_threshold: _,
        bb_sb_threshold: _,
        code_cache_capacity: _,
        ibtc_entries: _,
        chaining: _,
        bbm_peephole: _,
        opt_constprop: _,
        opt_cse: _,
        opt_dce: _,
        opt_schedule: _,
        opt_sw_prefetch: _,
        speculate_indirect: _,
        codecache_scattered: _,
    } = base_tol();
    type Flip = fn(&mut TolConfig);
    const SWITCHES: [(&str, Flip); 9] = [
        ("chaining", |c| c.chaining ^= true),
        ("bbm_peephole", |c| c.bbm_peephole ^= true),
        ("opt_constprop", |c| c.opt_constprop ^= true),
        ("opt_cse", |c| c.opt_cse ^= true),
        ("opt_dce", |c| c.opt_dce ^= true),
        ("opt_schedule", |c| c.opt_schedule ^= true),
        ("opt_sw_prefetch", |c| c.opt_sw_prefetch ^= true),
        ("speculate_indirect", |c| c.speculate_indirect ^= true),
        ("codecache_scattered", |c| c.codecache_scattered ^= true),
    ];
    let profile = &suites::all_profiles()[0];
    assert_eq!(profile.name, "400.perlbench");
    let cycles = |tol: TolConfig| {
        let cfg = SystemConfig { tol, cosim: false, ..SystemConfig::default() };
        System::new(generate(profile, 0.05), cfg).run_to_completion().timing.total_cycles
    };
    let base = cycles(base_tol());
    for (name, flip) in SWITCHES {
        let mut tol = base_tol();
        flip(&mut tol);
        assert_ne!(cycles(tol), base, "{name} flipped alone is a dead knob ({base} cycles)");
    }
}
