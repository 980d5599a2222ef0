//! Regenerates every figure of the paper's evaluation section.
//!
//! ```text
//! figures <command> [--scale S] [--quick] [--jobs N] [--json FILE]
//!
//! commands:
//!   all        every figure below
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
//!   ablate-codecache    code-cache capacity / flush-policy sweep
//!   ablate-future       the paper's Sec. III-E proposals, implemented:
//!                       software prefetching, speculative indirect
//!                       resolution, code placement
//! ```

use darco_core::experiments::{self, BenchRun, RunConfig};
use darco_core::report::{pct, render_table};
use darco_tol::TolConfig;
use darco_workloads::suites;
use std::collections::BTreeMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut scale: Option<f64> = None;
    let mut quick = false;
    let mut jobs: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let s: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                // The generator turns the scale into loop trip counts:
                // `inf` never halts; `nan`, 0 and negatives silently run
                // some other length.
                if !(s.is_finite() && s > 0.0) {
                    die("--scale must be finite and greater than 0");
                }
                scale = Some(s);
            }
            "--quick" => quick = true,
            "--jobs" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a thread count"));
                if n == 0 {
                    die("--jobs must be at least 1");
                }
                jobs = Some(n);
            }
            "--json" => {
                json_path = Some(it.next().unwrap_or_else(|| die("--json needs a path")).clone());
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                return;
            }
            c if !c.starts_with('-') => command = c.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
    }

    let mut cfg = if quick { RunConfig::quick() } else { RunConfig::default() };
    if let Some(s) = scale {
        cfg.scale = s;
    }

    match command.as_str() {
        "ablate-thresholds" => return ablate_thresholds(&cfg),
        "ablate-ibtc" => return ablate_ibtc(&cfg),
        "ablate-passes" => return ablate_passes(&cfg),
        "ablate-codecache" => return ablate_codecache(&cfg),
        "ablate-future" => return ablate_future(&cfg),
        "startup" => return startup(&cfg),
        "table1" => return table1(&cfg),
        _ => {}
    }

    eprintln!("running {} benchmarks at scale {} ...", suites::all_profiles().len(), cfg.scale);
    let runs = run_all(&cfg, jobs);
    if let Some(path) = &json_path {
        let json = serde_json::to_string_pretty(&runs).expect("serialize runs");
        std::fs::write(path, json).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote raw results to {path}");
    }

    match command.as_str() {
        "all" => {
            fig5a(&runs);
            fig5b(&runs);
            fig6(&runs);
            fig7(&runs);
            fig8(&runs);
            fig9(&runs);
            fig10(&runs);
            fig11(&runs);
        }
        "fig5a" => fig5a(&runs),
        "fig5b" => fig5b(&runs),
        "fig6" => fig6(&runs),
        "fig7" => fig7(&runs),
        "fig8" => fig8(&runs),
        "fig9" => fig9(&runs),
        "fig10" => fig10(&runs),
        "fig11" => fig11(&runs),
        other => die(&format!("unknown command {other}")),
    }
}

const HELP: &str = "figures <all|table1|fig5a|fig5b|fig6|fig7|fig8|fig9|fig10|fig11|startup|\
ablate-thresholds|ablate-ibtc|ablate-passes|ablate-codecache|ablate-future> \
[--scale S] [--quick] [--jobs N] [--json FILE]";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{HELP}");
    std::process::exit(2)
}

fn run_all(cfg: &RunConfig, jobs: Option<usize>) -> Vec<BenchRun> {
    let profiles = suites::all_profiles();
    let threads =
        jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    eprintln!("  using {threads} worker threads");
    let t0 = std::time::Instant::now();
    let runs = experiments::run_set_parallel(&profiles, cfg, threads);
    eprintln!("  {} runs in {:.2?} with --jobs {threads}", runs.len(), t0.elapsed());
    runs
}

fn heading(title: &str) {
    println!("\n=== {title} ===\n");
}

// ------------------------------------------------------------------ Fig 5

fn fig5a(runs: &[BenchRun]) {
    heading("Figure 5a: static guest code distribution (IM / BBM / SBM)");
    let rows = experiments::fig5(runs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![r.name.clone(), pct(r.static_pct[0]), pct(r.static_pct[1]), pct(r.static_pct[2])]
        })
        .collect();
    println!("{}", render_table(&["benchmark", "IM", "BBM", "SBM"], &table));
    let avg: Vec<Vec<String>> = experiments::fig5_suite_averages(&rows)
        .into_iter()
        .map(|(label, st, _)| vec![label, pct(st[0]), pct(st[1]), pct(st[2])])
        .collect();
    println!("{}", render_table(&["suite average", "IM", "BBM", "SBM"], &avg));
    println!("paper anchors: on average ~36% of static code stays in IM, ~50% in BBM, ~14% in SBM");
}

fn fig5b(runs: &[BenchRun]) {
    heading("Figure 5b: dynamic guest code distribution (IM / BBM / SBM)");
    let rows = experiments::fig5(runs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.name.clone(), pct(r.dyn_pct[0]), pct(r.dyn_pct[1]), pct(r.dyn_pct[2])])
        .collect();
    println!("{}", render_table(&["benchmark", "IM", "BBM", "SBM"], &table));
    let avg: Vec<Vec<String>> = experiments::fig5_suite_averages(&rows)
        .into_iter()
        .map(|(label, _, dy)| vec![label, pct(dy[0]), pct(dy[1]), pct(dy[2])])
        .collect();
    println!("{}", render_table(&["suite average", "IM", "BBM", "SBM"], &avg));
    println!("paper anchor: ~97% of the dynamic stream comes from SBM code (14% of static)");
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
                pct(r.application),
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
    let avg: Vec<Vec<String>> = experiments::fig6_suite_averages(&rows)
        .into_iter()
        .map(|(s, o)| vec![s.label().to_owned(), pct(o)])
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
}

// ------------------------------------------------------------------ Fig 9

fn outlier_runs(runs: &[BenchRun]) -> Vec<BenchRun> {
    suites::outliers()
        .iter()
        .filter_map(|p| runs.iter().find(|r| r.name == p.name))
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

/// A small representative subset for the sweeps.
fn ablation_profiles() -> Vec<darco_workloads::BenchProfile> {
    ["400.perlbench", "401.bzip2", "433.milc", "007.jpg2000enc"]
        .iter()
        .map(|n| suites::by_name(n).expect("profile"))
        .collect()
}

fn overhead_of(
    cfg: &RunConfig,
    profiles: &[darco_workloads::BenchProfile],
) -> BTreeMap<String, f64> {
    profiles
        .iter()
        .map(|p| {
            let r = experiments::run_bench(p, cfg);
            (p.name.clone(), r.report.timing.tol_overhead_share())
        })
        .collect()
}

fn ablate_thresholds(base: &RunConfig) {
    heading(
        "Ablation: promotion thresholds (the paper assumes IM/BBth=5, BB/SBth=10K scaled to 50)",
    );
    let mut table = Vec::new();
    for (im, sb) in [(2u32, 50u32), (5, 50), (20, 50), (5, 10), (5, 200), (5, 1000)] {
        let cfg = RunConfig {
            tol: TolConfig { im_bb_threshold: im, bb_sb_threshold: sb, ..base.tol.clone() },
            ..base.clone()
        };
        for (name, ov) in overhead_of(&cfg, &ablation_profiles()) {
            table.push(vec![format!("{im}/{sb}"), name, pct(ov)]);
        }
    }
    println!("{}", render_table(&["IM/BBth / BB/SBth", "benchmark", "overhead"], &table));
}

fn ablate_ibtc(base: &RunConfig) {
    heading("Ablation: IBTC size (indirect-branch handling, Sec. III-E)");
    let mut table = Vec::new();
    for entries in [16u32, 64, 512, 4096] {
        let cfg = RunConfig {
            tol: TolConfig { ibtc_entries: entries, ..base.tol.clone() },
            ..base.clone()
        };
        for p in ablation_profiles() {
            let r = experiments::run_bench(&p, &cfg);
            let hits = r.report.tol.ibtc_hits;
            let total = hits + r.report.tol.ibtc_misses;
            table.push(vec![
                entries.to_string(),
                p.name.clone(),
                pct(r.report.timing.tol_overhead_share()),
                if total > 0 { pct(hits as f64 / total as f64) } else { "-".into() },
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["IBTC entries", "benchmark", "overhead", "IBTC hit rate"], &table)
    );
}

fn ablate_passes(base: &RunConfig) {
    heading("Ablation: SBM optimization passes");
    let variants: Vec<(&str, TolConfig)> = vec![
        ("all passes", base.tol.clone()),
        ("no scheduling", TolConfig { opt_schedule: false, ..base.tol.clone() }),
        ("no CSE", TolConfig { opt_cse: false, ..base.tol.clone() }),
        ("no const prop/fold", TolConfig { opt_constprop: false, ..base.tol.clone() }),
        ("no DCE", TolConfig { opt_dce: false, ..base.tol.clone() }),
        (
            "none (translate only)",
            TolConfig {
                opt_schedule: false,
                opt_cse: false,
                opt_constprop: false,
                opt_dce: false,
                bbm_peephole: false,
                ..base.tol.clone()
            },
        ),
    ];
    let mut table = Vec::new();
    for (label, tol) in variants {
        let cfg = RunConfig { tol, ..base.clone() };
        for p in ablation_profiles() {
            let r = experiments::run_bench(&p, &cfg);
            table.push(vec![
                label.to_string(),
                p.name.clone(),
                r.report.timing.total_cycles.to_string(),
                format!("{:.3}", r.report.timing.ipc()),
            ]);
        }
    }
    println!("{}", render_table(&["passes", "benchmark", "cycles", "IPC"], &table));
}

fn ablate_codecache(base: &RunConfig) {
    heading("Ablation: code cache capacity (bounded cache with flush, cf. [33])");
    let mut table = Vec::new();
    for cap in [1u32 << 14, 1 << 16, 1 << 18, 1 << 20] {
        let cfg = RunConfig {
            tol: TolConfig { code_cache_capacity: cap, ..base.tol.clone() },
            ..base.clone()
        };
        for p in ablation_profiles() {
            let r = experiments::run_bench(&p, &cfg);
            table.push(vec![
                format!("{}Ki insts", cap >> 10),
                p.name.clone(),
                pct(r.report.timing.tol_overhead_share()),
                r.report.tol.flushes.to_string(),
            ]);
        }
    }
    println!("{}", render_table(&["capacity", "benchmark", "overhead", "flushes"], &table));
}

fn startup(base: &RunConfig) {
    heading("Start-up vs steady state (Sec. II-B transitional effects)");
    use darco_core::{System, SystemConfig};
    use darco_workloads::generate;
    for name in ["462.libquantum", "400.perlbench", "000.cjpeg"] {
        let p = suites::by_name(name).expect("profile");
        let cfg = SystemConfig {
            tol: base.tol.clone(),
            timing: base.timing.clone(),
            cosim: false,
            window_guest_insts: 100_000,
            ..SystemConfig::default()
        };
        let mut sys = System::new(generate(&p, base.scale), cfg);
        let r = sys.run_to_completion();
        println!("{name}: TOL share of host instructions per 100K-guest-instruction window");
        let mut line = String::from("  ");
        for w in r.timeline.iter().take(30) {
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

fn ablate_future(base: &RunConfig) {
    heading("Ablation: the paper's Sec. III-E proposals, implemented");
    let variants: Vec<(&str, TolConfig)> = vec![
        ("baseline", base.tol.clone()),
        ("+ software prefetching", TolConfig { opt_sw_prefetch: true, ..base.tol.clone() }),
        ("+ speculative indirect", TolConfig { speculate_indirect: true, ..base.tol.clone() }),
        ("scattered code placement", TolConfig { codecache_scattered: true, ..base.tol.clone() }),
    ];
    let mut table = Vec::new();
    for (label, tol) in variants {
        let cfg = RunConfig { tol, ..base.clone() };
        for p in ablation_profiles() {
            let r = experiments::run_bench(&p, &cfg);
            let t = &r.report.timing;
            table.push(vec![
                label.to_string(),
                p.name.clone(),
                t.total_cycles.to_string(),
                format!("{:.3}", t.ipc()),
                pct(t.d_miss_rate(darco_host::Owner::App)),
                pct(t.i_miss_rate(darco_host::Owner::App)),
                format!(
                    "{}/{}",
                    r.report.tol.counters.spec_hits, r.report.tol.counters.spec_misses
                ),
            ]);
        }
    }
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

fn table1(cfg: &RunConfig) {
    heading("Table I: host processor microarchitectural parameters");
    let t = &cfg.timing;
    let rows: Vec<Vec<String>> = vec![
        vec!["General".into(), "Issue width".into(), t.issue_width.to_string()],
        vec!["Instruction queue".into(), "Size".into(), t.iq_size.to_string()],
        vec![
            "Branch predictor".into(),
            "Size of history register".into(),
            t.bp_history_bits.to_string(),
        ],
        vec!["L1 I-Cache / D-Cache".into(), "Size".into(), format!("{}KB", t.l1i.size / 1024)],
        vec![
            "".into(),
            "Block size/Associativity".into(),
            format!("{}B/{}", t.l1i.block, t.l1i.ways),
        ],
        vec!["".into(), "Replacement policy".into(), "PLRU".into()],
        vec!["".into(), "Hit latency".into(), t.l1i.hit_latency.to_string()],
        vec![
            "Stride prefetcher".into(),
            "Number of entries".into(),
            t.prefetcher_entries.to_string(),
        ],
        vec!["L2 U-Cache".into(), "Size".into(), format!("{}KB", t.l2.size / 1024)],
        vec![
            "".into(),
            "Block size/Associativity".into(),
            format!("{}B/{}", t.l2.block, t.l2.ways),
        ],
        vec!["".into(), "Replacement policy".into(), "PLRU".into()],
        vec!["".into(), "Hit latency".into(), t.l2.hit_latency.to_string()],
        vec!["Main memory".into(), "Hit latency".into(), t.mem_latency.to_string()],
        vec!["L1 TLB".into(), "Entries".into(), format!("{}/{} way", t.tlb1.entries, t.tlb1.ways)],
        vec!["".into(), "Hit latency".into(), t.tlb1.hit_latency.to_string()],
        vec!["L2 TLB".into(), "Entries".into(), format!("{}/{} way", t.tlb2.entries, t.tlb2.ways)],
        vec!["".into(), "Hit latency".into(), t.tlb2.hit_latency.to_string()],
    ];
    println!("{}", render_table(&["Component", "Parameter", "Value"], &rows));
    println!("matches the paper's Table I exactly (TimingConfig::default()).");
}
