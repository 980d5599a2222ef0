//! Calibration regression tests: the cross-benchmark *orderings* the
//! paper's analysis rests on must hold whenever the workload generator or
//! the cost models change. These run at a reduced scale, so they check
//! ordering, not magnitude (magnitudes are EXPERIMENTS.md's job).

use darco::core::experiments::{fig6, run_bench, run_set};
use darco::core::SystemConfig;
use darco::host::{Component, Owner};
use darco::workloads::suites;

const SCALE: f64 = 0.35;

fn cfg() -> SystemConfig {
    SystemConfig { cosim: false, ..SystemConfig::default() }
}

fn named(names: &[&str]) -> Vec<darco::workloads::BenchProfile> {
    names.iter().map(|n| suites::by_name(n).expect("known benchmark")).collect()
}

#[test]
fn repetition_gradient_drives_overhead() {
    // Paper Sec. III-B: 462.libquantum (385K dyn/static) amortizes the
    // layer; 000.cjpeg (low repetition) does not. 433.milc shares
    // cjpeg's footprint but not its dynamic length.
    let runs = run_set(&named(&["462.libquantum", "433.milc", "000.cjpeg"]), SCALE, &cfg(), 3);
    let f6 = fig6(&runs);
    let by = |n: &str| f6.iter().find(|r| r.name == n).unwrap().overhead;
    assert!(
        by("462.libquantum") < by("433.milc"),
        "libquantum {} !< milc {}",
        by("462.libquantum"),
        by("433.milc")
    );
    assert!(
        by("433.milc") < by("000.cjpeg"),
        "milc {} !< cjpeg {}",
        by("433.milc"),
        by("000.cjpeg")
    );
    // And the dynamic/static ratios line up the same way, inverted.
    let ratio = |n: &str| runs.iter().find(|r| r.name == n).unwrap().dyn_static_ratio;
    assert!(ratio("462.libquantum") > ratio("433.milc"));
    assert!(ratio("433.milc") > ratio("000.cjpeg"));
}

#[test]
fn indirect_branches_drive_lookup_time() {
    // Paper Sec. III-B: 400.perlbench (22.7M indirect branches) vs
    // 401.bzip2 (1933): code-cache lookups and transitions must differ
    // accordingly.
    let runs = run_set(&named(&["400.perlbench", "401.bzip2"]), SCALE, &cfg(), 2);
    let perl = &runs[0];
    let bzip = &runs[1];

    let ind_rate = |r: &darco::core::BenchRun| {
        r.report.tol.counters.indirect_branches as f64 / r.report.guest_insts as f64
    };
    // At this reduced scale bzip2's warm-up calls inflate its density
    // floor; the full-scale separation is an order of magnitude
    // (EXPERIMENTS.md).
    assert!(
        ind_rate(perl) > 2.5 * ind_rate(bzip),
        "indirect density must separate the two: {} vs {}",
        ind_rate(perl),
        ind_rate(bzip)
    );

    let lookup_share =
        |r: &darco::core::BenchRun| r.report.timing.component_share(Component::TolLookup);
    // At this reduced scale both pay start-up lookup costs, so the gap
    // is a factor, not an order of magnitude (the full-scale gap is in
    // EXPERIMENTS.md).
    assert!(
        lookup_share(perl) > 1.3 * lookup_share(bzip),
        "perlbench must pay more in Code$ look-up: {} vs {}",
        lookup_share(perl),
        lookup_share(bzip)
    );
    assert!(
        perl.report.tol.counters.tol_entries > 2 * bzip.report.tol.counters.tol_entries,
        "perlbench transitions into the layer more"
    );
}

#[test]
fn fp_suite_character() {
    // SPEC FP profiles produce FP-heavy, streaming, low-overhead runs
    // relative to a branchy INT profile.
    let runs = run_set(&named(&["436.cactusADM", "445.gobmk"]), SCALE, &cfg(), 2);
    let fp = &runs[0].report;
    let int = &runs[1].report;
    assert!(
        fp.timing.tol_overhead_share() < int.timing.tol_overhead_share(),
        "FP overhead {} !< INT overhead {}",
        fp.timing.tol_overhead_share(),
        int.timing.tol_overhead_share()
    );
    // Streaming FP code predicts better than branchy game-tree code.
    assert!(
        fp.timing.mispredict_rate(Owner::App) < int.timing.mispredict_rate(Owner::App),
        "FP mispredicts {} !< INT {}",
        fp.timing.mispredict_rate(Owner::App),
        int.timing.mispredict_rate(Owner::App)
    );
}

#[test]
fn concentrated_vs_spread_superblocks() {
    // Paper Sec. III-B: 006.jpg2000dec concentrates execution in few
    // blocks; 007.jpg2000enc spreads it near the promotion threshold,
    // creating far more superblocks (96 vs 450 in the paper).
    let runs = run_set(&named(&["006.jpg2000dec", "007.jpg2000enc"]), SCALE, &cfg(), 2);
    let dec = runs[0].report.tol.counters.sbm_invocations;
    let enc = runs[1].report.tol.counters.sbm_invocations;
    assert!(enc > 2 * dec, "spread execution must create more superblocks: {enc} vs {dec}");
}

#[test]
fn interaction_worst_case_is_perlbench_class() {
    // Paper Sec. III-D / Fig. 10: frequent TOL transitions (perlbench)
    // produce a clearly larger interaction penalty than the amortized
    // case (lbm).
    let runs = run_set(&named(&["400.perlbench", "470.lbm"]), SCALE, &cfg(), 2);
    let f10 = darco::core::experiments::fig10(&runs);
    let penalty = |i: usize| 1.0 - (f10[i].app_rel + f10[i].tol_rel) / 2.0;
    assert!(
        penalty(0) > penalty(1),
        "perlbench penalty {} !> lbm penalty {}",
        penalty(0),
        penalty(1)
    );
}

#[test]
fn quicktest_overhead_stable_band() {
    // A coarse tripwire against accidental cost-model drift: the
    // quicktest profile's overhead at a fixed scale stays within a wide
    // band. If this fails after an intentional recalibration, update the
    // band and EXPERIMENTS.md together.
    let run = run_bench(&suites::quicktest_profile(), 1.0, &cfg());
    let ov = run.report.timing.tol_overhead_share();
    assert!((0.05..0.45).contains(&ov), "quicktest overhead drifted: {ov}");
}
