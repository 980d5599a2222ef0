//! Experiment drivers: one run per benchmark feeds every figure.
//!
//! The paper's evaluation (Sec. III) derives all of Figs. 5–11 from
//! instrumented runs of the 48 benchmarks. Here one *functional* run per
//! benchmark drives three timing pipelines at once — the shared (real)
//! machine, an application-only pipeline and a TOL-only pipeline — which
//! is exactly the methodology of Sec. III-C/III-D: "we ignore the
//! instruction stream of TOL in the timing simulator, thus devoting all
//! resources to the application. We repeat the same for TOL."
//!
//! Each `figN` function reduces [`BenchRun`]s to the rows/series the
//! corresponding figure plots.

use crate::system::{Report, System, SystemConfig};
use darco_host::{Component, Owner};
use darco_timing::config::ISSUE_WIDTH;
use darco_timing::{BubbleCause, Stats};
use darco_workloads::{generate, BenchProfile, Suite};
use serde::Serialize;

/// One benchmark's complete measurement set.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRun {
    /// Owning suite.
    pub suite: Suite,
    /// The system report (benchmark name, shared + filtered pipelines,
    /// TOL summary).
    pub report: Report,
}

/// Runs one benchmark at `scale` (relative to its `dyn_base`) under
/// `cfg`. The application-only and TOL-only pipelines are attached only
/// when `cfg` asks for them: Figs. 8, 10 and 11 read them, and a caller
/// that reads only the shared pipeline should not pay for them.
pub fn run_bench(profile: &BenchProfile, scale: f64, cfg: &SystemConfig) -> BenchRun {
    let w = generate(profile, scale);
    let mut sys = System::new(w, cfg.clone());
    BenchRun { suite: profile.suite, report: sys.run_to_completion() }
}

/// Worker threads [`run_set`] uses for `threads` requested and `n`
/// benchmarks: at least one, and no more than there are benchmarks.
pub fn workers(threads: usize, n: usize) -> usize {
    threads.clamp(1, n.max(1))
}

/// Runs [`run_bench`] on each profile across [`workers`]`(threads,
/// profiles.len())` worker threads (each benchmark is an independent
/// system, so this is embarrassingly parallel). Results keep `profiles`
/// order and do not depend on `threads`.
pub fn run_set(
    profiles: &[BenchProfile],
    scale: f64,
    cfg: &SystemConfig,
    threads: usize,
) -> Vec<BenchRun> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<BenchRun>>> = profiles.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers(threads, profiles.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(p) = profiles.get(i) else { break };
                let run = run_bench(p, scale, cfg);
                *results[i].lock().expect("poisoned result slot") = Some(run);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("poisoned").expect("worker filled every slot"))
        .collect()
}

/// The mean of `value` over each suite's items, in [`Suite::ALL`] order;
/// a suite with no items is left out. Each element is summed in item
/// order, then divided by the item count.
pub fn suite_means<T, const N: usize>(
    items: &[T],
    suite: impl Fn(&T) -> Suite,
    value: impl Fn(&T) -> [f64; N],
) -> Vec<(Suite, [f64; N])> {
    Suite::ALL
        .into_iter()
        .filter_map(|s| {
            let mut sum = [0.0; N];
            let mut n = 0usize;
            for item in items.iter().filter(|i| suite(i) == s) {
                for (a, v) in sum.iter_mut().zip(value(item)) {
                    *a += v;
                }
                n += 1;
            }
            (n > 0).then(|| (s, sum.map(|a| a / n as f64)))
        })
        .collect()
}

// --------------------------------------------------------------------
// Figure 5: static and dynamic guest-code distribution across modes.
// --------------------------------------------------------------------

/// One bar of Fig. 5a/5b.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: Suite,
    /// Static share per mode `[IM, BBM, SBM]`, summing to 1.
    pub static_pct: [f64; 3],
    /// Dynamic share per mode `[IM, BBM, SBM]`, summing to 1.
    pub dyn_pct: [f64; 3],
}

fn normalize3(v: [u64; 3]) -> [f64; 3] {
    let t: u64 = v.iter().sum();
    if t == 0 {
        return [0.0; 3];
    }
    [v[0] as f64 / t as f64, v[1] as f64 / t as f64, v[2] as f64 / t as f64]
}

/// Builds Fig. 5 rows.
pub fn fig5(runs: &[BenchRun]) -> Vec<Fig5Row> {
    runs.iter()
        .map(|r| Fig5Row {
            name: r.report.name.clone(),
            suite: r.suite,
            static_pct: normalize3(r.report.tol.static_dist),
            dyn_pct: normalize3(r.report.tol.dyn_dist),
        })
        .collect()
}

// --------------------------------------------------------------------
// Figure 6: execution time split into TOL and application.
// --------------------------------------------------------------------

/// One bar of Fig. 6 with its overlays.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: Suite,
    /// Fraction of execution time that is TOL overhead (IM included, as
    /// in the paper); the rest is application progress.
    pub overhead: f64,
    /// Dynamic/static instruction ratio (log-scale overlay).
    pub dyn_static_ratio: f64,
    /// Superblocks created (log-scale overlay).
    pub sbm_invocations: u64,
}

/// Builds Fig. 6 rows.
pub fn fig6(runs: &[BenchRun]) -> Vec<Fig6Row> {
    runs.iter()
        .map(|r| Fig6Row {
            name: r.report.name.clone(),
            suite: r.suite,
            overhead: r.report.timing.tol_overhead_share(),
            dyn_static_ratio: r.report.guest_insts as f64 / r.report.static_insts.max(1) as f64,
            sbm_invocations: r.report.tol.counters.sbm_invocations,
        })
        .collect()
}

// --------------------------------------------------------------------
// Figure 7: TOL time split into its modules.
// --------------------------------------------------------------------

/// The TOL components of Fig. 7, in legend order.
pub const FIG7_COMPONENTS: [Component; 6] = [
    Component::TolOthers,
    Component::TolIm,
    Component::TolBbm,
    Component::TolSbm,
    Component::TolChaining,
    Component::TolLookup,
];

/// One bar of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: Suite,
    /// Share of *total execution time* per TOL component, in
    /// [`FIG7_COMPONENTS`] order (sums to the Fig. 6 overhead).
    pub shares: [f64; 6],
    /// Dynamic guest indirect branches (log-scale overlay).
    pub indirect_branches: u64,
}

/// Builds Fig. 7 rows.
pub fn fig7(runs: &[BenchRun]) -> Vec<Fig7Row> {
    runs.iter()
        .map(|r| {
            let mut shares = [0.0; 6];
            for (i, c) in FIG7_COMPONENTS.iter().enumerate() {
                shares[i] = r.report.timing.component_share(*c);
            }
            Fig7Row {
                name: r.report.name.clone(),
                suite: r.suite,
                shares,
                indirect_branches: r.report.tol.counters.indirect_branches,
            }
        })
        .collect()
}

// --------------------------------------------------------------------
// Figure 8: TOL performance characteristics in isolation.
// --------------------------------------------------------------------

/// One point set of Fig. 8 (from the TOL-only pipeline).
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub name: String,
    /// Suite.
    pub suite: Suite,
    /// TOL instructions per cycle.
    pub ipc: f64,
    /// TOL L1-D miss rate.
    pub d_miss_rate: f64,
    /// TOL L1-I miss rate.
    pub i_miss_rate: f64,
    /// TOL branch misprediction rate.
    pub mispredict_rate: f64,
    /// Control transfers per component, in [`Component::ALL`] order.
    pub branches: [u64; 7],
    /// Mispredicted control transfers per component.
    pub mispredicts: [u64; 7],
}

/// Builds Fig. 8 rows.
///
/// # Panics
///
/// Panics if the runs were produced without a TOL-only pipeline.
pub fn fig8(runs: &[BenchRun]) -> Vec<Fig8Row> {
    runs.iter()
        .map(|r| {
            let s = r.report.tol_only.as_ref().expect("TOL-only pipeline attached");
            Fig8Row {
                name: r.report.name.clone(),
                suite: r.suite,
                ipc: s.ipc(),
                d_miss_rate: s.d_miss_rate(Owner::Tol),
                i_miss_rate: s.i_miss_rate(Owner::Tol),
                mispredict_rate: s.mispredict_rate(Owner::Tol),
                branches: s.branches,
                mispredicts: s.mispredicts,
            }
        })
        .collect()
}

// --------------------------------------------------------------------
// Figure 9: cycle breakdown into instructions and bubble sources,
// split between TOL and the application.
// --------------------------------------------------------------------

/// One stacked bar of Fig. 9: ten categories as fractions of execution
/// time, bottom-to-top in the paper's legend order.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Bar label (benchmark or suite average).
    pub label: String,
    /// `[TOL D$, APP D$, TOL I$, APP I$, TOL branch, APP branch,
    ///   TOL sched, APP sched, TOL insts, APP insts]`.
    pub categories: [f64; 10],
}

fn fig9_categories(s: &Stats) -> [f64; 10] {
    let t = s.attributed_time().max(1e-9);
    let b = |o: Owner, c: BubbleCause| s.owner_bubbles(o, c) / t;
    let insts = |o: Owner| s.owner_insts(o) as f64 / ISSUE_WIDTH as f64 / t;
    [
        b(Owner::Tol, BubbleCause::DCacheMiss),
        b(Owner::App, BubbleCause::DCacheMiss),
        b(Owner::Tol, BubbleCause::ICacheMiss),
        b(Owner::App, BubbleCause::ICacheMiss),
        b(Owner::Tol, BubbleCause::Branch),
        b(Owner::App, BubbleCause::Branch),
        b(Owner::Tol, BubbleCause::Scheduling),
        b(Owner::App, BubbleCause::Scheduling),
        insts(Owner::Tol),
        insts(Owner::App),
    ]
}

/// Builds Fig. 9 rows for the given runs (callers pass the four outliers
/// and/or whole suites).
pub fn fig9(runs: &[BenchRun]) -> Vec<Fig9Row> {
    runs.iter()
        .map(|r| Fig9Row {
            label: r.report.name.clone(),
            categories: fig9_categories(&r.report.timing),
        })
        .collect()
}

/// Suite-average Fig. 9 bars.
pub fn fig9_suite_averages(runs: &[BenchRun]) -> Vec<Fig9Row> {
    suite_means(runs, |r| r.suite, |r| fig9_categories(&r.report.timing))
        .into_iter()
        .map(|(s, categories)| Fig9Row { label: s.label().to_owned(), categories })
        .collect()
}

// --------------------------------------------------------------------
// Figure 10: performance without interaction, relative to with.
// --------------------------------------------------------------------

/// One bar pair of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Bar label.
    pub label: String,
    /// Application cycles without interaction ÷ with (≤ 1).
    pub app_rel: f64,
    /// TOL cycles without interaction ÷ with (≤ 1).
    pub tol_rel: f64,
}

/// Execution time attributed to one owner in the shared run.
fn owner_time(s: &Stats, o: Owner) -> f64 {
    s.owner_insts(o) as f64 / ISSUE_WIDTH as f64 + s.owner_bubble_total(o)
}

fn fig10_row(label: String, r: &Report) -> Fig10Row {
    let app_alone = r.app_only.as_ref().expect("app-only pipeline attached");
    let tol_alone = r.tol_only.as_ref().expect("TOL-only pipeline attached");
    let shared_app = owner_time(&r.timing, Owner::App).max(1e-9);
    let shared_tol = owner_time(&r.timing, Owner::Tol).max(1e-9);
    Fig10Row {
        label,
        app_rel: (owner_time(app_alone, Owner::App) / shared_app).min(1.5),
        tol_rel: (owner_time(tol_alone, Owner::Tol) / shared_tol).min(1.5),
    }
}

/// Builds per-benchmark Fig. 10 rows.
pub fn fig10(runs: &[BenchRun]) -> Vec<Fig10Row> {
    runs.iter().map(|r| fig10_row(r.report.name.clone(), &r.report)).collect()
}

/// Suite-average Fig. 10 rows.
pub fn fig10_suite_averages(runs: &[BenchRun]) -> Vec<Fig10Row> {
    let rel = |r: &BenchRun| {
        let row = fig10_row(String::new(), &r.report);
        [row.app_rel, row.tol_rel]
    };
    suite_means(runs, |r| r.suite, rel)
        .into_iter()
        .map(|(s, [app_rel, tol_rel])| Fig10Row { label: s.label().to_owned(), app_rel, tol_rel })
        .collect()
}

// --------------------------------------------------------------------
// Figure 11: potential gains per resource if interaction vanished.
// --------------------------------------------------------------------

/// One bar group of Fig. 11 (for one owner).
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Bar label.
    pub label: String,
    /// Potential improvement per cause `[D$, I$, sched, branch]` as a
    /// fraction of the shared run's total time (can be slightly negative
    /// when isolation costs locality, as in the paper's plots).
    pub gains: [f64; 4],
}

const FIG11_CAUSES: [BubbleCause; 4] = [
    BubbleCause::DCacheMiss,
    BubbleCause::ICacheMiss,
    BubbleCause::Scheduling,
    BubbleCause::Branch,
];

fn fig11_row(label: String, shared: &Stats, alone: &Stats, owner: Owner) -> Fig11Row {
    let total = shared.attributed_time().max(1e-9);
    let mut gains = [0.0; 4];
    for (i, c) in FIG11_CAUSES.iter().enumerate() {
        gains[i] = (shared.owner_bubbles(owner, *c) - alone.owner_bubbles(owner, *c)) / total;
    }
    Fig11Row { label, gains }
}

/// Builds Fig. 11a (TOL side) rows.
pub fn fig11_tol(runs: &[BenchRun]) -> Vec<Fig11Row> {
    runs.iter()
        .map(|r| {
            fig11_row(
                r.report.name.clone(),
                &r.report.timing,
                r.report.tol_only.as_ref().expect("TOL-only pipeline"),
                Owner::Tol,
            )
        })
        .collect()
}

/// Builds Fig. 11b (application side) rows.
pub fn fig11_app(runs: &[BenchRun]) -> Vec<Fig11Row> {
    runs.iter()
        .map(|r| {
            fig11_row(
                r.report.name.clone(),
                &r.report.timing,
                r.report.app_only.as_ref().expect("app-only pipeline"),
                Owner::App,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darco_workloads::suites;

    fn quick_runs() -> Vec<BenchRun> {
        let mut p1 = suites::quicktest_profile();
        p1.name = "q1".into();
        let mut p2 = suites::quicktest_profile();
        p2.name = "q2".into();
        p2.suite = Suite::SpecFp;
        p2.fp_fraction = 0.4;
        p2.seed = 11;
        run_set(&[p1, p2], 0.05, &quick(), 1)
    }

    fn quick() -> SystemConfig {
        SystemConfig {
            cosim: false,
            app_only_pipeline: true,
            tol_only_pipeline: true,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn run_bench_attaches_the_pipelines_cfg_asks_for() {
        for (app, tol) in [(false, false), (true, false), (false, true)] {
            let cfg = SystemConfig { app_only_pipeline: app, tol_only_pipeline: tol, ..quick() };
            let r = run_bench(&suites::quicktest_profile(), 0.05, &cfg).report;
            assert_eq!((r.app_only.is_some(), r.tol_only.is_some()), (app, tol));
        }
    }

    #[test]
    fn workers_are_at_least_one_and_at_most_one_per_benchmark() {
        assert_eq!(workers(0, 48), 1);
        assert_eq!(workers(1, 48), 1);
        assert_eq!(workers(2, 48), 2);
        assert_eq!(workers(48, 48), 48);
        assert_eq!(workers(100_000, 48), 48);
        assert_eq!(workers(usize::MAX, 3), 3);
        assert_eq!(workers(4, 0), 1);
    }

    #[test]
    fn figure_builders_produce_consistent_shares() {
        let runs = quick_runs();
        assert_eq!(runs.len(), 2);

        let f5 = fig5(&runs);
        for row in &f5 {
            let s: f64 = row.static_pct.iter().sum();
            let d: f64 = row.dyn_pct.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "static shares sum to 1");
            assert!((d - 1.0).abs() < 1e-9, "dynamic shares sum to 1");
        }

        let f6 = fig6(&runs);
        for row in &f6 {
            assert!(row.overhead > 0.0 && row.overhead < 1.0);
        }
        assert_eq!(suite_means(&f6, |r| r.suite, |r| [r.overhead]).len(), 2);

        let f7 = fig7(&runs);
        for (r7, r6) in f7.iter().zip(f6.iter()) {
            let tol_sum: f64 = r7.shares.iter().sum();
            assert!(
                (tol_sum - r6.overhead).abs() < 1e-6,
                "Fig 7 shares must sum to the Fig 6 overhead"
            );
        }

        let f8 = fig8(&runs);
        for row in &f8 {
            assert!(row.ipc > 0.3 && row.ipc < 2.0, "TOL ipc {}", row.ipc);
            assert!(row.d_miss_rate >= 0.0 && row.d_miss_rate <= 1.0);
        }

        let f9 = fig9(&runs);
        for row in &f9 {
            let total: f64 = row.categories.iter().sum();
            assert!((total - 1.0).abs() < 0.02, "Fig 9 stacks to ~100%: {total}");
        }
        assert_eq!(fig9_suite_averages(&runs).len(), 2);

        let f10 = fig10(&runs);
        for row in &f10 {
            assert!(row.app_rel > 0.3 && row.app_rel <= 1.5, "{}", row.app_rel);
            assert!(row.tol_rel > 0.3 && row.tol_rel <= 1.5, "{}", row.tol_rel);
        }

        let f11a = fig11_tol(&runs);
        let f11b = fig11_app(&runs);
        for row in f11a.iter().chain(f11b.iter()) {
            for g in row.gains {
                assert!(g.abs() < 0.6, "gain out of plausible range: {g}");
            }
        }
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let mut a = suites::quicktest_profile();
        a.name = "p1".into();
        let mut b = suites::quicktest_profile();
        b.name = "p2".into();
        b.seed = 77;
        let profiles = vec![a, b];
        let seq = run_set(&profiles, 0.05, &quick(), 1);
        let par = run_set(&profiles, 0.05, &quick(), 3);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(par.iter()) {
            assert_eq!(s.report.name, p.report.name, "order preserved");
            assert_eq!(s.report.guest_insts, p.report.guest_insts);
            assert_eq!(s.report.timing.total_cycles, p.report.timing.total_cycles);
        }
    }

    #[test]
    fn suite_means_sum_in_item_order_per_suite() {
        let items = [
            (Suite::SpecFp, [0.1, 1.0]),
            (Suite::SpecInt, [4.0, 2.0]),
            (Suite::SpecFp, [0.2, 3.0]),
            (Suite::SpecFp, [0.3, 5.0]),
        ];
        let means = suite_means(&items, |i| i.0, |i| i.1);
        let order: Vec<Suite> = means.iter().map(|m| m.0).collect();
        let expected: Vec<Suite> = Suite::ALL
            .into_iter()
            .filter(|s| matches!(s, Suite::SpecInt | Suite::SpecFp))
            .collect();
        assert_eq!(order, expected, "Suite::ALL order, empty suites left out");
        let fp = means.iter().find(|m| m.0 == Suite::SpecFp).expect("SPEC FP present").1;
        assert_eq!(fp, [(0.1 + 0.2 + 0.3) / 3.0, 3.0], "summed in item order, bit for bit");
        assert_eq!(means.iter().find(|m| m.0 == Suite::SpecInt).expect("INT").1, [4.0, 2.0]);
    }

    #[test]
    fn interaction_hurts_at_least_somewhere() {
        let runs = quick_runs();
        let f10 = fig10(&runs);
        // Isolation helps on average; at the tiny test scale the
        // attribution split is noisy, so allow a margin.
        let mean: f64 =
            f10.iter().map(|r| (r.app_rel + r.tol_rel) / 2.0).sum::<f64>() / f10.len() as f64;
        assert!(mean <= 1.10, "isolated runs should not be slower on average: {mean}");
    }
}
