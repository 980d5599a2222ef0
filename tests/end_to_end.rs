//! Integration tests spanning the whole stack: workload generation →
//! software layer → timing → experiment reduction, with co-simulation
//! (the authoritative emulator) checking architectural state throughout.

use darco::core::experiments;
use darco::core::{scaled_tol_config, System, SystemConfig};
use darco::guest::{exec, CpuState};
use darco::host::{Component, Owner};
use darco::tol::TolConfig;
use darco::workloads::{generate, suites};

fn quick_cfg() -> SystemConfig {
    SystemConfig { cosim: true, ..SystemConfig::default() }
}

/// The figures' configuration: co-simulation off, as the tests above
/// have already held the layer to the reference.
fn unchecked() -> SystemConfig {
    SystemConfig { cosim: false, ..SystemConfig::default() }
}

/// The central correctness claim: the software layer emulates the guest
/// *exactly* — same final state, same instruction count — across all
/// three execution modes and their transitions.
#[test]
fn tol_execution_is_architecturally_exact_across_modes() {
    let profile = suites::quicktest_profile();
    let w = generate(&profile, 0.4);

    // Reference: pure functional execution.
    let mut ref_cpu = w.initial.clone();
    let mut ref_mem = w.mem.clone();
    let mut ref_n = 0u64;
    while !ref_cpu.halted {
        exec::step(&mut ref_cpu, &mut ref_mem).unwrap();
        ref_n += 1;
    }

    // Full system with co-simulation enabled (every dispatch boundary
    // checked internally).
    let mut sys = System::new(generate(&profile, 0.4), quick_cfg());
    let report = sys.run_to_completion();
    assert_eq!(report.guest_insts, ref_n, "instruction counts must match");
    assert!(report.cosim_checks > 100, "checker ran at dispatch granularity");

    // All three modes actually ran.
    assert!(report.tol.dyn_dist.iter().all(|&d| d > 0), "IM, BBM and SBM all executed");
}

/// `darco verify`'s configuration — the independent `exec::step` rather
/// than the interpreter's own executor on the checking side — must
/// observe, not perturb: its report is the default configuration's, byte
/// for byte. (A divergence between the two executors would panic inside
/// the run.)
#[test]
fn independent_checker_reports_what_the_default_does() {
    let report = |independent_checker: bool| {
        let cfg = SystemConfig { independent_checker, ..quick_cfg() };
        let r = System::new(generate(&suites::quicktest_profile(), 0.1), cfg).run_to_completion();
        assert!(r.cosim_checks > 0, "checker ran");
        serde_json::to_string(&r).expect("serialize")
    };
    assert_eq!(report(true), report(false));
}

/// Co-simulation must also hold under unusual configurations: ablated
/// optimizations, tiny code cache (frequent flushes), tiny IBTC.
#[test]
fn cosimulation_holds_under_stress_configs() {
    let profile = suites::quicktest_profile();
    for (label, tol) in [
        ("no optimization", TolConfig::no_optimization()),
        ("tiny code cache", TolConfig { code_cache_capacity: 4_000, ..scaled_tol_config() }),
        ("tiny ibtc", TolConfig { ibtc_entries: 2, ..scaled_tol_config() }),
        ("no chaining", TolConfig { chaining: false, ..scaled_tol_config() }),
        (
            "eager promotion",
            TolConfig { im_bb_threshold: 1, bb_sb_threshold: 2, ..scaled_tol_config() },
        ),
    ] {
        let cfg = SystemConfig { tol, cosim: true, ..SystemConfig::default() };
        let mut sys = System::new(generate(&profile, 0.15), cfg);
        let r = sys.run_to_completion(); // panics on divergence
        assert!(r.guest_insts > 0, "{label}: made progress");
    }
}

/// The tiny-code-cache configuration must actually flush, and flushing
/// must not perturb architectural results.
#[test]
fn code_cache_flushes_preserve_results() {
    let profile = suites::quicktest_profile();
    let tol = TolConfig { code_cache_capacity: 1_200, ..scaled_tol_config() };
    let cfg = SystemConfig { tol, cosim: true, ..SystemConfig::default() };
    let mut sys = System::new(generate(&profile, 0.2), cfg);
    let r = sys.run_to_completion();
    assert!(r.tol.flushes > 0, "capacity 1200 must force flushes");

    let mut base = System::new(generate(&profile, 0.2), quick_cfg());
    let rb = base.run_to_completion();
    assert_eq!(r.guest_insts, rb.guest_insts, "flushing is performance-only");
}

/// Every figure builder runs end to end on a real (small) run and
/// produces internally consistent data.
#[test]
fn experiment_pipeline_end_to_end() {
    let mut profiles = vec![suites::quicktest_profile()];
    profiles[0].name = "it-a".into();
    let mut b = suites::quicktest_profile();
    b.name = "it-b".into();
    b.suite = darco::workloads::Suite::Media;
    b.seed = 1234;
    b.indirect_freq = 0.004;
    profiles.push(b);

    let runs = experiments::run_set(&profiles, 0.05, &unchecked(), 1);

    let f5 = experiments::fig5(&runs);
    let f6 = experiments::fig6(&runs);
    let f7 = experiments::fig7(&runs);
    let f8 = experiments::fig8(&runs);
    let f9 = experiments::fig9(&runs);
    let f10 = experiments::fig10(&runs);
    let f11a = experiments::fig11_tol(&runs);
    let f11b = experiments::fig11_app(&runs);
    assert_eq!(
        [f5.len(), f6.len(), f7.len(), f8.len(), f9.len(), f10.len(), f11a.len(), f11b.len()],
        [2; 8]
    );

    // Cross-figure consistency: Fig 7 decomposes Fig 6's overhead.
    for (r6, r7) in f6.iter().zip(f7.iter()) {
        let s: f64 = r7.shares.iter().sum();
        assert!((s - r6.overhead).abs() < 1e-6);
    }
    // Fig 9 stacks to 100%.
    for r in &f9 {
        assert!((r.categories.iter().sum::<f64>() - 1.0).abs() < 0.02);
    }
    // The indirect-heavy profile does more lookups and transitions.
    let lookup = |i: usize| f7[i].shares[5];
    assert!(
        lookup(1) > lookup(0),
        "indirect-heavy profile must spend more in Code$ look-up: {} vs {}",
        lookup(1),
        lookup(0)
    );
}

/// Interaction on shared resources hurts; filtered pipelines partition
/// the stream exactly.
#[test]
fn interaction_analysis_is_consistent() {
    let profile = suites::quicktest_profile();
    let runs = experiments::run_set(&[profile], 0.05, &unchecked(), 1);
    let r = &runs[0].report;

    let app = r.app_only.as_ref().unwrap();
    let tol = r.tol_only.as_ref().unwrap();
    assert_eq!(
        app.total_insts() + tol.total_insts(),
        r.timing.total_insts(),
        "filtered pipelines partition the stream"
    );
    assert_eq!(app.owner_insts(Owner::Tol), 0);
    assert_eq!(tol.owner_insts(Owner::App), 0);
    assert!(app.total_cycles <= r.timing.total_cycles);
}

/// Determinism: two identical systems produce identical reports.
#[test]
fn full_system_is_deterministic() {
    let profile = suites::quicktest_profile();
    let run_once = || {
        let mut sys = System::new(
            generate(&profile, 0.15),
            SystemConfig { cosim: false, ..SystemConfig::default() },
        );
        sys.run_to_completion()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.guest_insts, b.guest_insts);
    assert_eq!(a.timing.total_cycles, b.timing.total_cycles);
    assert_eq!(a.timing.total_insts(), b.timing.total_insts());
    assert_eq!(a.tol.static_dist, b.tol.static_dist);
    for c in Component::ALL {
        assert_eq!(a.timing.component_insts(c), b.timing.component_insts(c));
    }
}

/// The final guest state of the emulated run matches a fresh functional
/// run even when the timing configuration changes (timing never affects
/// functional behavior).
#[test]
fn timing_configuration_never_affects_function() {
    let profile = suites::quicktest_profile();
    let small_caches = darco::timing::TimingConfig {
        l1d: darco::timing::config::CacheParams { size: 1024, block: 64, ways: 2, hit_latency: 1 },
        ..darco::timing::TimingConfig::default()
    };
    let mut a = System::new(
        generate(&profile, 0.15),
        SystemConfig { cosim: true, ..SystemConfig::default() },
    );
    let mut b = System::new(
        generate(&profile, 0.15),
        SystemConfig { cosim: true, timing: small_caches, ..SystemConfig::default() },
    );
    let ra = a.run_to_completion();
    let rb = b.run_to_completion();
    assert_eq!(ra.guest_insts, rb.guest_insts);
    assert!(rb.timing.total_cycles > ra.timing.total_cycles, "tiny caches must cost cycles");
}

/// Paper sanity: a high-repetition profile amortizes TOL overhead far
/// better than a low-repetition one (the Fig. 6 gradient).
#[test]
fn overhead_tracks_repetition() {
    let mut hot = suites::quicktest_profile();
    hot.name = "hot".into();
    hot.static_insts = 600;
    hot.dyn_base = 400_000;

    let mut cold = suites::quicktest_profile();
    cold.name = "cold".into();
    cold.static_insts = 6_000;
    cold.dyn_base = 400_000;
    cold.seed = 5;

    let runs = experiments::run_set(&[hot, cold], 1.0, &unchecked(), 1);
    let f6 = experiments::fig6(&runs);
    assert!(
        f6[1].overhead > 1.5 * f6[0].overhead,
        "low repetition must cost more: {} vs {}",
        f6[1].overhead,
        f6[0].overhead
    );
}

/// `CpuState` exposed by the system equals what the checker tracked.
#[test]
fn reported_state_is_final() {
    let profile = suites::quicktest_profile();
    let w = generate(&profile, 0.1);
    let mut ref_cpu: CpuState = w.initial.clone();
    let mut ref_mem = w.mem.clone();
    while !ref_cpu.halted {
        exec::step(&mut ref_cpu, &mut ref_mem).unwrap();
    }
    // Run the system on an identical workload; co-sim internally asserts
    // equality at every step, so completing at all proves the final
    // state matched.
    let mut sys = System::new(generate(&profile, 0.1), quick_cfg());
    let r = sys.run_to_completion();
    assert!(r.guest_insts > 0);
}
