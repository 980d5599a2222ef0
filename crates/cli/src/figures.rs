//! `darco figures`: regenerates every figure and table of the paper's
//! evaluation section.
//!
//! ```text
//! darco figures [command] [--scale S] [--jobs N]
//!
//! commands:
//!   all        every figure below (the default)
//!   table1     the host processor configuration (the paper's only table)
//!   fig5a      static guest-code distribution across IM/BBM/SBM
//!   fig5b      dynamic guest-code distribution across IM/BBM/SBM
//!   fig6       execution-time split TOL vs application (+ overlays)
//!   fig7       TOL time split into its modules (+ indirect overlay)
//!   fig8       TOL-in-isolation IPC / miss rates / mispredictions
//!   fig9       cycle breakdown into bubbles, TOL vs APP
//!   fig10      relative cycles without interaction
//!   fig11      potential gains per resource (TOL and APP)
//!   startup    start-up vs steady-state timeline (Sec. II-B)
//!   ablate-thresholds   IM/BBth and BB/SBth sweep (paper assumes 5/10K)
//!   ablate-ibtc         IBTC size sweep (Sec. III-E, indirect branches)
//!   ablate-passes       SBM optimization-pass ablation
//!   ablate-codecache    code-cache capacity sweep (flushes on overflow)
//!   ablate-future       the paper's Sec. III-E proposals, implemented:
//!                       software prefetching, speculative indirect
//!                       resolution, code placement
//! ```
//!
//! Every run behind a figure is co-simulated (`SystemConfig::default()`):
//! the software layer's guest state is checked against the authoritative
//! emulator at every step boundary, so no printed number comes from an
//! unchecked run.

use crate::{bail, parse, run_batch, Opts};
use darco_core::experiments::{self, BenchRun};
use darco_core::report::{pct, render_table};
use darco_core::SystemConfig;
use darco_host::{Component, Owner};
use darco_tol::TolConfig;
use darco_workloads::{suites, BenchProfile};

/// The default `--scale` of `darco figures`: the run length the scaled
/// `BB/SBth` threshold is sized for (DESIGN.md §12).
const SCALE: f64 = 2.0;

/// Prints one figure from the runs of the whole roster.
type Printer = fn(&[BenchRun]);

/// The figures drawn from one run of the whole roster, in `all` order.
const ROSTER_FIGURES: [(&str, Printer); 8] = [
    ("fig5a", |runs| fig5(runs, false)),
    ("fig5b", |runs| fig5(runs, true)),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
];

/// `darco figures`: the command comes first and defaults to `all`; only
/// `--scale` and `--jobs` follow it, checked before anything runs.
pub fn figures(rest: &[String]) {
    let (command, flags) = match rest.split_first() {
        Some((c, flags)) if !c.starts_with('-') => (c.as_str(), flags),
        _ => ("all", rest),
    };
    let mut words = flags.iter();
    while let Some(w) = words.next() {
        match w.as_str() {
            "--scale" | "--jobs" => {
                words.next();
            }
            "--json" => bail("--json: use `darco run-set --scale 2 --json`"),
            "--quick" => bail("--quick: use --scale 0.05"),
            flag if flag.starts_with('-') => {
                bail(&format!("{flag}: figures takes only --scale S and --jobs N"))
            }
            name => bail(&format!(
                "{name}: name one figure, first: `darco figures <command> [--scale S] [--jobs N]`"
            )),
        }
    }
    let o = parse("figures", flags, &["--scale", "--jobs"], SCALE);
    let cfg = SystemConfig::default();
    match command {
        "table1" => table1(),
        "startup" => startup(&o, &cfg),
        "ablate-thresholds" => ablate_thresholds(&o, &cfg),
        "ablate-ibtc" => ablate_ibtc(&o, &cfg),
        "ablate-passes" => ablate_passes(&o, &cfg),
        "ablate-codecache" => ablate_codecache(&o, &cfg),
        "ablate-future" => ablate_future(&o, &cfg),
        _ => {
            let selected: Vec<Printer> = ROSTER_FIGURES
                .iter()
                .filter(|(name, _)| command == "all" || *name == command)
                .map(|&(_, print)| print)
                .collect();
            if selected.is_empty() {
                bail(&format!("unknown figure {command}; try `darco --help`"));
            }
            // Figs. 8, 10 and 11 read the filtered pipelines.
            let cfg = SystemConfig { app_only_pipeline: true, tol_only_pipeline: true, ..cfg };
            let runs = run_batch(&suites::all_profiles(), &o, &cfg);
            for print in selected {
                print(&runs);
            }
        }
    }
}

fn heading(title: &str) {
    println!("\n=== {title} ===\n");
}

// ------------------------------------------------------------------ Fig 5

/// Fig. 5a, or 5b if `dynamic`: each benchmark's static (dynamic)
/// guest code per mode, then the suite means.
fn fig5(runs: &[BenchRun], dynamic: bool) {
    let (title, anchor) = if dynamic {
        (
            "Figure 5b: dynamic guest code distribution (IM / BBM / SBM)",
            "paper anchor: ~97% of the dynamic stream comes from SBM code (14% of static)",
        )
    } else {
        (
            "Figure 5a: static guest code distribution (IM / BBM / SBM)",
            "paper anchors: on average ~36% of static code stays in IM, ~50% in BBM, ~14% in SBM",
        )
    };
    heading(title);
    let rows = experiments::fig5(runs);
    let shares = |r: &experiments::Fig5Row| if dynamic { r.dyn_pct } else { r.static_pct };
    let line = |label: String, s: [f64; 3]| vec![label, pct(s[0]), pct(s[1]), pct(s[2])];
    let table: Vec<Vec<String>> = rows.iter().map(|r| line(r.name.clone(), shares(r))).collect();
    println!("{}", render_table(&["benchmark", "IM", "BBM", "SBM"], &table));
    let avg: Vec<Vec<String>> = experiments::suite_means(&rows, |r| r.suite, shares)
        .into_iter()
        .map(|(s, m)| line(s.label().to_owned(), m))
        .collect();
    println!("{}", render_table(&["suite average", "IM", "BBM", "SBM"], &avg));
    println!("{anchor}");
}

// ------------------------------------------------------------------ Fig 6

fn fig6(runs: &[BenchRun]) {
    heading("Figure 6: execution time breakdown - TOL overhead vs application");
    let rows = experiments::fig6(runs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                pct(r.overhead),
                pct(1.0 - r.overhead),
                format!("{:.0}", r.dyn_static_ratio),
                r.sbm_invocations.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["benchmark", "overhead", "application", "dyn/static", "SBM invocations"],
            &table
        )
    );
    let avg: Vec<Vec<String>> = experiments::suite_means(&rows, |r| r.suite, |r| [r.overhead])
        .into_iter()
        .map(|(s, [o])| vec![s.label().to_owned(), pct(o)])
        .collect();
    println!("{}", render_table(&["suite average", "overhead"], &avg));
    println!("paper anchors: Mediabench 28%, Physicsbench 22%, SPEC INT 22%, SPEC FP 12%");
}

// ------------------------------------------------------------------ Fig 7

fn fig7(runs: &[BenchRun]) {
    heading("Figure 7: TOL execution time split into modules");
    let rows = experiments::fig7(runs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut v = vec![r.name.clone()];
            v.extend(r.shares.iter().map(|s| pct(*s)));
            v.push(r.indirect_branches.to_string());
            v
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "TOL others",
                "IM",
                "BBM",
                "SBM",
                "Chaining",
                "Code$ look-up",
                "indirect branches"
            ],
            &table
        )
    );
    println!("paper anchor: code-cache look-ups and transitions dominate for indirect-branch-heavy guests (perlbench-class)");
}

// ------------------------------------------------------------------ Fig 8

fn fig8(runs: &[BenchRun]) {
    heading("Figure 8: TOL performance characteristics (TOL stream in isolation)");
    let rows = experiments::fig8(runs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}", r.ipc),
                pct(r.d_miss_rate),
                pct(r.i_miss_rate),
                pct(r.mispredict_rate),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["benchmark", "TOL IPC", "D$ miss", "I$ miss", "BP miss"], &table)
    );
    let (lo, hi) = rows.iter().fold((f64::MAX, 0f64), |(lo, hi), r| (lo.min(r.ipc), hi.max(r.ipc)));
    println!("TOL IPC range: {lo:.2} .. {hi:.2} (paper: 0.85 for 445.gobmk .. 1.48 for 433.milc)");
    // Where the mispredictions come from: each TOL module's branches.
    let modules: Vec<Component> =
        Component::ALL.into_iter().filter(|c| c.owner() == Owner::Tol).collect();
    let headers: Vec<&str> =
        std::iter::once("benchmark").chain(modules.iter().map(|c| c.label())).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let cells = modules.iter().map(|c| {
                let i = c.index();
                format!("{}/{}", r.mispredicts[i], r.branches[i])
            });
            std::iter::once(r.name.clone()).chain(cells).collect()
        })
        .collect();
    println!("\nTOL branches per module, mispredicted/executed:\n");
    println!("{}", render_table(&headers, &table));
}

// ------------------------------------------------------------------ Fig 9

fn outlier_runs(runs: &[BenchRun]) -> Vec<BenchRun> {
    suites::outliers()
        .iter()
        .filter_map(|p| runs.iter().find(|r| r.report.name == p.name))
        .cloned()
        .collect()
}

fn fig9(runs: &[BenchRun]) {
    heading("Figure 9: cycle breakdown into bubbles and instructions, TOL vs APP");
    let outs = outlier_runs(runs);
    let mut rows = experiments::fig9(&outs);
    rows.extend(experiments::fig9_suite_averages(runs));
    let headers = [
        "bar",
        "TOL D$",
        "APP D$",
        "TOL I$",
        "APP I$",
        "TOL br",
        "APP br",
        "TOL sched",
        "APP sched",
        "TOL insts",
        "APP insts",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut v = vec![r.label.clone()];
            v.extend(r.categories.iter().map(|c| pct(*c)));
            v
        })
        .collect();
    println!("{}", render_table(&headers, &table));
    // The paper's aggregate: bubbles ~48% of time (26% D$, 6% I$,
    // 4% branch, 12% scheduling).
    let mut agg = [0.0; 10];
    let all = experiments::fig9(runs);
    for r in &all {
        for (a, c) in agg.iter_mut().zip(r.categories.iter()) {
            *a += c / all.len() as f64;
        }
    }
    println!(
        "overall: bubbles {} (D$ {}, I$ {}, branch {}, scheduling {})",
        pct(agg[..8].iter().sum::<f64>()),
        pct(agg[0] + agg[1]),
        pct(agg[2] + agg[3]),
        pct(agg[4] + agg[5]),
        pct(agg[6] + agg[7]),
    );
    println!("paper anchors: bubbles 48% of time: D$ 26%, I$ 6%, branch 4%, scheduling 12%");
}

// ------------------------------------------------------------------ Fig 10

fn fig10(runs: &[BenchRun]) {
    heading("Figure 10: relative cycles when TOL and APP do not interact (w/o / w/)");
    let outs = outlier_runs(runs);
    let mut rows = experiments::fig10(&outs);
    rows.extend(experiments::fig10_suite_averages(runs));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.3}", r.app_rel),
                format!("{:.3}", r.tol_rel),
                pct(1.0 - (r.app_rel + r.tol_rel) / 2.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["bar", "APP w/o / w/", "TOL w/o / w/", "interaction penalty"], &table)
    );
    println!(
        "paper anchors: SPEC INT ~10% degradation, SPEC FP ~3%, 400.perlbench ~20%, 470.lbm ~0%"
    );
}

// ------------------------------------------------------------------ Fig 11

fn fig11(runs: &[BenchRun]) {
    heading("Figure 11: potential improvement if interaction were eliminated");
    let outs = outlier_runs(runs);
    for (title, rows) in [
        ("(a) for TOL", experiments::fig11_tol(&outs)),
        ("(b) for APP", experiments::fig11_app(&outs)),
    ] {
        println!("{title}:");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                let mut v = vec![r.label.clone()];
                v.extend(r.gains.iter().map(|g| pct(*g)));
                v
            })
            .collect();
        println!(
            "{}",
            render_table(&["benchmark", "D$ miss", "I$ miss", "scheduling", "branch"], &table)
        );
    }
    println!("paper anchor: the data cache is the component with the largest potential gain");
}

// --------------------------------------------------------------- ablations

/// The roster benchmarks named.
fn roster(names: &[&str]) -> Vec<BenchProfile> {
    names.iter().map(|n| suites::by_name(n).expect("profile")).collect()
}

/// The benchmarks every ablation sweeps.
const SWEEP: [&str; 4] = ["400.perlbench", "401.bzip2", "433.milc", "007.jpg2000enc"];

/// Runs `profiles` under each labelled variant of `base`'s TOL
/// configuration through [`run_batch`], so `--jobs` spreads the runs of
/// every variant. Each row is the variant's label, the benchmark and then
/// `cells` of its run, variants in order and benchmarks in `profiles`
/// order.
fn sweep(
    o: &Opts,
    base: &SystemConfig,
    profiles: &[BenchProfile],
    variants: Vec<(String, TolConfig)>,
    cells: impl Fn(&BenchRun) -> Vec<String>,
) -> Vec<Vec<String>> {
    let mut table = Vec::new();
    for (label, tol) in variants {
        for r in run_batch(profiles, o, &SystemConfig { tol, ..base.clone() }) {
            table.push([vec![label.clone(), r.report.name.clone()], cells(&r)].concat());
        }
    }
    table
}

fn ablate_thresholds(o: &Opts, base: &SystemConfig) {
    heading(
        "Ablation: promotion thresholds (the paper assumes IM/BBth=5, BB/SBth=10K scaled to 50)",
    );
    let variants = [(2u32, 50u32), (5, 50), (20, 50), (5, 10), (5, 200), (5, 1000)]
        .map(|(im, sb)| {
            let tol = TolConfig { im_bb_threshold: im, bb_sb_threshold: sb, ..base.tol.clone() };
            (format!("{im}/{sb}"), tol)
        })
        .to_vec();
    let table = sweep(o, base, &roster(&SWEEP), variants, |r| {
        vec![pct(r.report.timing.tol_overhead_share())]
    });
    println!("{}", render_table(&["IM/BBth / BB/SBth", "benchmark", "overhead"], &table));
}

fn ablate_ibtc(o: &Opts, base: &SystemConfig) {
    heading("Ablation: IBTC size (indirect-branch handling, Sec. III-E)");
    let variants = [16u32, 64, 512, 4096]
        .map(|entries| {
            (entries.to_string(), TolConfig { ibtc_entries: entries, ..base.tol.clone() })
        })
        .to_vec();
    let table = sweep(o, base, &roster(&SWEEP), variants, |r| {
        let hits = r.report.tol.ibtc_hits;
        let total = hits + r.report.tol.ibtc_misses;
        vec![
            pct(r.report.timing.tol_overhead_share()),
            if total > 0 { pct(hits as f64 / total as f64) } else { "-".into() },
        ]
    });
    println!(
        "{}",
        render_table(&["IBTC entries", "benchmark", "overhead", "IBTC hit rate"], &table)
    );
}

fn ablate_passes(o: &Opts, base: &SystemConfig) {
    heading("Ablation: SBM optimization passes");
    let variants = vec![
        ("all passes".into(), base.tol.clone()),
        ("no scheduling".into(), TolConfig { opt_schedule: false, ..base.tol.clone() }),
        (
            "none (translate only)".into(),
            TolConfig { optimize: false, opt_schedule: false, ..base.tol.clone() },
        ),
    ];
    let table = sweep(o, base, &roster(&SWEEP), variants, |r| {
        vec![r.report.timing.total_cycles.to_string(), format!("{:.3}", r.report.timing.ipc())]
    });
    println!("{}", render_table(&["passes", "benchmark", "cycles", "IPC"], &table));
}

fn ablate_codecache(o: &Opts, base: &SystemConfig) {
    heading("Ablation: code cache capacity (bounded cache with flush, cf. [33])");
    let variants = [1u32 << 14, 1 << 16, 1 << 18, 1 << 20]
        .map(|cap| {
            let tol = TolConfig { code_cache_capacity: cap, ..base.tol.clone() };
            (format!("{}Ki insts", cap >> 10), tol)
        })
        .to_vec();
    let table = sweep(o, base, &roster(&SWEEP), variants, |r| {
        vec![pct(r.report.timing.tol_overhead_share()), r.report.tol.flushes.to_string()]
    });
    println!("{}", render_table(&["capacity", "benchmark", "overhead", "flushes"], &table));
}

fn startup(o: &Opts, base: &SystemConfig) {
    heading("Start-up vs steady state (Sec. II-B transitional effects)");
    let profiles = roster(&["462.libquantum", "400.perlbench", "000.cjpeg"]);
    let cfg = SystemConfig { window_guest_insts: 100_000, ..base.clone() };
    for r in run_batch(&profiles, o, &cfg) {
        println!(
            "{}: TOL share of host instructions per 100K-guest-instruction window",
            r.report.name
        );
        let mut line = String::from("  ");
        for w in r.report.timeline.iter().take(30) {
            line.push_str(&format!("{:4.0}% ", w.overhead_share() * 100.0));
        }
        println!("{line}");
    }
    println!(
        "\nThe paper's point: a heavy interpreter or translator makes this start-up\n\
         transient a first-order effect, which is why simulation must start from the\n\
         first instruction rather than fast-forwarding to steady state."
    );
}

fn ablate_future(o: &Opts, base: &SystemConfig) {
    heading("Ablation: the paper's Sec. III-E proposals, implemented");
    let variants = vec![
        ("baseline".into(), base.tol.clone()),
        ("+ software prefetching".into(), TolConfig { opt_sw_prefetch: true, ..base.tol.clone() }),
        (
            "+ speculative indirect".into(),
            TolConfig { speculate_indirect: true, ..base.tol.clone() },
        ),
        (
            "scattered code placement".into(),
            TolConfig { codecache_scattered: true, ..base.tol.clone() },
        ),
    ];
    let table = sweep(o, base, &roster(&SWEEP), variants, |r| {
        let t = &r.report.timing;
        vec![
            t.total_cycles.to_string(),
            format!("{:.3}", t.ipc()),
            pct(t.d_miss_rate(Owner::App)),
            pct(t.i_miss_rate(Owner::App)),
            format!("{}/{}", r.report.tol.counters.spec_hits, r.report.tol.counters.spec_misses),
        ]
    });
    println!(
        "{}",
        render_table(
            &[
                "variant",
                "benchmark",
                "cycles",
                "IPC",
                "APP D$ miss",
                "APP I$ miss",
                "spec hit/miss"
            ],
            &table
        )
    );
    println!(
        "expected: prefetching trims D$ misses; speculation pays off for stable indirect\n\
              targets; scattered placement inflates I$ misses (why code placement matters)."
    );
}

fn table1() {
    use darco_timing::config::{
        BP_HISTORY_BITS, IQ_SIZE, ISSUE_WIDTH, L1I, L2, MEM_LATENCY, PREFETCHER_ENTRIES, TLB1, TLB2,
    };
    heading("Table I: host processor microarchitectural parameters");
    let rows: Vec<Vec<String>> = vec![
        vec!["General".into(), "Issue width".into(), ISSUE_WIDTH.to_string()],
        vec!["Instruction queue".into(), "Size".into(), IQ_SIZE.to_string()],
        vec![
            "Branch predictor".into(),
            "Size of history register".into(),
            BP_HISTORY_BITS.to_string(),
        ],
        vec!["L1 I-Cache / D-Cache".into(), "Size".into(), format!("{}KB", L1I.size / 1024)],
        vec!["".into(), "Block size/Associativity".into(), format!("{}B/{}", L1I.block, L1I.ways)],
        vec!["".into(), "Replacement policy".into(), "PLRU".into()],
        vec!["".into(), "Hit latency".into(), L1I.hit_latency.to_string()],
        vec![
            "Stride prefetcher".into(),
            "Number of entries".into(),
            PREFETCHER_ENTRIES.to_string(),
        ],
        vec!["L2 U-Cache".into(), "Size".into(), format!("{}KB", L2.size / 1024)],
        vec!["".into(), "Block size/Associativity".into(), format!("{}B/{}", L2.block, L2.ways)],
        vec!["".into(), "Replacement policy".into(), "PLRU".into()],
        vec!["".into(), "Hit latency".into(), L2.hit_latency.to_string()],
        vec!["Main memory".into(), "Hit latency".into(), MEM_LATENCY.to_string()],
        vec!["L1 TLB".into(), "Entries".into(), format!("{}/{} way", TLB1.entries, TLB1.ways)],
        vec!["".into(), "Hit latency".into(), TLB1.hit_latency.to_string()],
        vec!["L2 TLB".into(), "Entries".into(), format!("{}/{} way", TLB2.entries, TLB2.ways)],
        vec!["".into(), "Hit latency".into(), TLB2.hit_latency.to_string()],
    ];
    println!("{}", render_table(&["Component", "Parameter", "Value"], &rows));
    println!("matches the paper's Table I exactly (the constants of darco_timing::config).");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep's table does not depend on `--jobs`: each run is
    /// independent of the threads beside it.
    #[test]
    fn sweeps_do_not_depend_on_the_job_count() {
        let quick = suites::quicktest_profile();
        let profiles = [quick.clone(), BenchProfile { seed: 2, ..quick }];
        let base = SystemConfig::default();
        let unscheduled = TolConfig { opt_schedule: false, ..base.tol.clone() };
        let variants = vec![("all".into(), base.tol.clone()), ("unscheduled".into(), unscheduled)];
        let table = |jobs| {
            let o = Opts { scale: 0.02, jobs: Some(jobs), ..Opts::default() };
            let cells = |r: &BenchRun| vec![r.report.timing.total_cycles.to_string()];
            sweep(&o, &base, &profiles, variants.clone(), cells)
        };
        let one = table(1);
        // Two variants x two programs, four different runs.
        assert!(one.len() == 4 && one[0][2] != one[1][2] && one[0][2] != one[2][2], "{one:?}");
        assert_eq!(one, table(2));
    }
}
