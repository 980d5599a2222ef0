//! `darco` — the controller CLI (the paper's Fig. 2 *Controller*:
//! "the main interface of DARCO with the user. It provides full control
//! over the execution of the application, as well as debugging
//! utilities").
//!
//! ```text
//! darco list                         # the 48-benchmark roster
//! darco run <benchmark> [opts]      # full system run + report
//! darco run-set [benchmark ...]     # batch of runs across worker
//!                                    # threads (default: whole roster)
//! darco verify <benchmark> [opts]   # run with the IR verifier forced on
//! darco analyze <benchmark> [opts]  # hot-region IR + compile-path report
//! darco trace <benchmark> [opts]    # guest instruction trace
//! darco disasm <benchmark> [opts]   # hottest translations, disassembled
//! darco timeline <benchmark> [opts] # start-up/steady-state windows
//! darco export-profile <benchmark> <file.json>
//!                                    # dump a profile for editing
//! darco run --profile <file.json>   # run a custom edited profile
//!
//! options: --profile FILE       load a custom profile (JSON) as the next
//!                               benchmark
//!          --scale S            dynamic-length scale, finite and > 0
//!                               (default 0.5)
//!          --cosim              enable co-simulation checking (run,
//!                               run-set, analyze)
//!          --jobs N             worker threads for run-set (default:
//!                               all available cores)
//!          --n N                rows/instructions to print (trace,
//!                               disasm, analyze, timeline)
//!          --json               machine-readable output (run, run-set,
//!                               verify, analyze)
//! ```

use darco_core::{Report, System, SystemConfig};
use darco_host::{Component, HInst, Owner};
use darco_tol::codecache::BlockKind;
use darco_tol::translate::{decode_bb, translate_region};
use darco_tol::{Tol, TolConfig};
use darco_workloads::{generate, suites, BenchProfile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return;
    };
    let rest = &args[1..];
    match command.as_str() {
        "list" => list(),
        "run" => run(rest),
        "run-set" => run_set(rest),
        "verify" => verify(rest),
        "analyze" => analyze(rest),
        "trace" => trace(rest),
        "disasm" => disasm(rest),
        "timeline" => timeline(rest),
        "export-profile" => export_profile(rest),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "darco <list|run|run-set|verify|analyze|trace|disasm|timeline|export-profile> [benchmark ...] \
         [--profile FILE] [--scale S] [--cosim] [--jobs N] [--n N] [--json]"
    );
}

/// The flags every subcommand shares, parsed by one loop. A subcommand
/// reads the ones that apply to it: `run-set` runs all of `profiles`
/// across `jobs` threads, the others run [`Opts::profile`].
struct Opts {
    /// Benchmarks named on the command line or loaded with `--profile`,
    /// in order.
    profiles: Vec<BenchProfile>,
    scale: f64,
    cosim: bool,
    /// `None` means all available cores.
    jobs: Option<usize>,
    n: usize,
    json: bool,
}

impl Opts {
    /// The benchmark a single-run subcommand works on: the last one
    /// given, `quicktest` when none was.
    fn profile(&self) -> BenchProfile {
        self.profiles.last().cloned().unwrap_or_else(suites::quicktest_profile)
    }
}

/// A roster benchmark (or `quicktest`) by name.
fn named_profile(name: &str) -> BenchProfile {
    suites::by_name(name).unwrap_or_else(|| {
        if name == "quicktest" {
            suites::quicktest_profile()
        } else {
            bail(&format!("unknown benchmark {name}; try `darco list`"))
        }
    })
}

fn parse(rest: &[String]) -> Opts {
    let mut o =
        Opts { profiles: Vec::new(), scale: 0.5, cosim: false, jobs: None, n: 20, json: false };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value =
            |what: &str| it.next().unwrap_or_else(|| bail(&format!("{a} needs {what}")));
        match a.as_str() {
            "--profile" => {
                let path = value("a path");
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| bail(&format!("read {path}: {e}")));
                let p: BenchProfile = serde_json::from_str(&text)
                    .unwrap_or_else(|e| bail(&format!("parse {path}: {e}")));
                p.validate().unwrap_or_else(|e| bail(&format!("invalid profile: {e}")));
                o.profiles.push(p);
            }
            "--scale" => {
                o.scale =
                    value("a number").parse().unwrap_or_else(|_| bail("--scale needs a number"));
                // The generator turns the scale into loop trip counts:
                // `inf` never halts; `nan`, 0 and negatives silently run
                // some other length.
                if !(o.scale.is_finite() && o.scale > 0.0) {
                    bail("--scale must be finite and greater than 0");
                }
            }
            "--cosim" => o.cosim = true,
            "--jobs" => {
                let n: usize = value("a thread count")
                    .parse()
                    .unwrap_or_else(|_| bail("--jobs needs a thread count"));
                if n == 0 {
                    bail("--jobs must be at least 1");
                }
                o.jobs = Some(n);
            }
            "--n" => o.n = value("a count").parse().unwrap_or_else(|_| bail("--n needs a count")),
            "--json" => o.json = true,
            name if !name.starts_with('-') => o.profiles.push(named_profile(name)),
            other => bail(&format!("unknown flag {other}")),
        }
    }
    o
}

fn bail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

// ----------------------------------------------------------------- list

fn list() {
    println!(
        "{:22} {:18} {:>8} {:>12} {:>6} {:>9}",
        "benchmark", "suite", "static", "dyn (base)", "fp%", "indirect"
    );
    for p in suites::all_profiles() {
        println!(
            "{:22} {:18} {:>8} {:>12} {:>5.0}% {:>9.5}",
            p.name,
            p.suite.label(),
            p.static_insts,
            p.dyn_base,
            p.fp_fraction * 100.0,
            p.indirect_freq,
        );
    }
    println!("\nplus `quicktest`, a small profile for experiments");
}

// ------------------------------------------------------------------ run

fn run(rest: &[String]) {
    let o = parse(rest);
    let profile = o.profile();
    eprintln!("running {} at scale {} ...", profile.name, o.scale);
    let cfg = SystemConfig { cosim: o.cosim, ..SystemConfig::default() };
    let mut sys = System::new(generate(&profile, o.scale), cfg);
    let report = sys.run_to_completion();
    if o.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize"));
        return;
    }
    print_report(&report);
}

// -------------------------------------------------------------- run-set

/// `darco run-set`: runs a batch of benchmarks (the whole roster when
/// none are named) across `--jobs` worker threads. Each benchmark is an
/// independent system, so results are identical at any thread count;
/// only the wall-clock changes.
fn run_set(rest: &[String]) {
    let o = parse(rest);
    let jobs =
        o.jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let cfg = darco_core::RunConfig { scale: o.scale, cosim: o.cosim, ..Default::default() };
    let profiles = if o.profiles.is_empty() { suites::all_profiles() } else { o.profiles };
    eprintln!(
        "running {} benchmark(s) at scale {} on {jobs} thread(s) ...",
        profiles.len(),
        o.scale
    );
    let t0 = std::time::Instant::now();
    let runs = darco_core::experiments::run_set_parallel(&profiles, &cfg, jobs);
    let elapsed = t0.elapsed();
    if o.json {
        println!("{}", serde_json::to_string_pretty(&runs).expect("serialize"));
    } else {
        println!(
            "{:22} {:>14} {:>14} {:>7} {:>9}",
            "benchmark", "guest insts", "host cycles", "IPC", "TOL ovh"
        );
        for r in &runs {
            println!(
                "{:22} {:>14} {:>14} {:>7.3} {:>8.1}%",
                r.name,
                r.report.guest_insts,
                r.report.timing.total_cycles,
                r.report.timing.ipc(),
                r.report.timing.tol_overhead_share() * 100.0,
            );
        }
    }
    eprintln!("run-set: {} benchmark(s) in {:.2?} with --jobs {jobs}", runs.len(), elapsed);
}

// --------------------------------------------------------------- verify

/// `darco verify`: a full run with co-simulation on and the IR verifier
/// forced on (structural invariants plus translation validation after
/// every optimization pass), even in release builds. Exits nonzero if
/// any superblock failed verification.
fn verify(rest: &[String]) {
    let o = parse(rest);
    let profile = o.profile();
    eprintln!("verifying {} at scale {} ...", profile.name, o.scale);
    let mut cfg = SystemConfig { cosim: true, ..SystemConfig::default() };
    cfg.tol.verify = true;
    let mut sys = System::new(generate(&profile, o.scale), cfg);
    let report = sys.run_to_completion();
    if o.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize"));
    } else {
        print_report(&report);
    }
    let c = &report.tol.counters;
    if c.verify_failures > 0 {
        eprintln!(
            "verify: FAIL — {} superblock(s) rejected by the verifier \
             (miscompiling pass reported above)",
            c.verify_failures
        );
        std::process::exit(1);
    }
    eprintln!(
        "verify: OK — {} superblock(s) verified, {} co-sim checks passed",
        c.verified_blocks, report.cosim_checks
    );
}

// -------------------------------------------------------------- analyze

/// `darco analyze`: a full run followed by the compile-path report —
/// the IR the translator emitted for the hottest translated regions
/// (dead flag definitions already elided), the per-pass instruction
/// deltas, the compile path stage by stage and the host-per-guest
/// split. `--n` bounds how many regions are dumped.
fn analyze(rest: &[String]) {
    let o = parse(rest);
    let profile = o.profile();
    eprintln!("analyzing {} at scale {} ...", profile.name, o.scale);
    let w = generate(&profile, o.scale);
    // Pre-execution snapshot of guest memory, for re-decoding the
    // regions the layer translated (workload code is not self-modifying)
    // and for the functional rerun below.
    let analysis_mem = w.mem.clone();
    let (entry, initial) = (w.entry, w.initial.clone());
    let cfg = SystemConfig { cosim: o.cosim, ..SystemConfig::default() };
    let tol_cfg = cfg.tol.clone();
    let mut sys = System::new(w, cfg);
    let report = sys.run_to_completion();
    if o.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize"));
        return;
    }
    let tol = sys.tol();

    // Hottest translated regions, deduplicated by guest entry.
    let mut blocks: Vec<(u32, u64)> =
        tol.cc.blocks().map(|(_, b)| (b.guest_entry, b.exec_count)).collect();
    blocks.sort_by_key(|&(entry, execs)| (std::cmp::Reverse(execs), entry));
    let mut seen = std::collections::HashSet::new();
    let mut dumped = 0usize;
    for &(entry, _) in &blocks {
        if dumped >= o.n {
            break;
        }
        if !seen.insert(entry) {
            continue;
        }
        match decode_bb(&analysis_mem, entry) {
            Ok(region) => {
                let block = translate_region(&region);
                println!(
                    "region @ {entry:#x}: {} guest insts, {} IR ops\n{}",
                    region.len(),
                    block.ops.len(),
                    darco_tol::ir::pretty(&block)
                );
                dumped += 1;
            }
            Err(e) => eprintln!("region {entry:#x}: decode fault: {e}"),
        }
    }

    // Wall-clock of the compile path, which the serialized report
    // deliberately omits, from a rerun of the software layer alone with
    // its events discarded: stage times and the `Tol::run` wall they are
    // a share of then come from one and the same run.
    let mut rerun = Tol::new(tol_cfg, entry);
    rerun.set_state(&initial);
    let started = std::time::Instant::now();
    rerun.run(&mut analysis_mem.clone(), &mut darco_host::NullSink, u64::MAX).expect("ran above");
    let run_ns = started.elapsed().as_nanos() as f64;
    let nanos = rerun.pass_nanos();

    println!("{:18} {:>7} {:>14} {:>10}", "pass", "runs", "insts removed", "time");
    for d in &report.tol.pass_deltas {
        let ns = nanos.iter().find(|(p, _)| *p == d.pass).map_or(0, |(_, n)| *n);
        println!("{:18} {:>7} {:>14} {:>9.2}ms", d.pass, d.runs, d.insts_removed, ns as f64 / 1e6);
    }
    // The whole compile path, not just the passes that report deltas.
    println!("\n{:18} {:>10} {:>22}", "compile stage", "time", "share of Tol::run wall");
    let stage_row = |stage: &str, ns: u64| {
        let ns = ns as f64;
        println!("{stage:18} {:>8.2}ms {:>21.1}%", ns / 1e6, ns / run_ns * 100.0);
    };
    for &(stage, ns) in nanos {
        stage_row(stage, ns);
    }
    stage_row("total", nanos.iter().map(|&(_, ns)| ns).sum());
    println!("(Tol::run alone, events discarded: {:.2}ms)", run_ns / 1e6);

    println!(
        "\nhost insts {} over {} guest insts ({:.3} host/guest)",
        report.timing.total_insts(),
        report.guest_insts,
        report.timing.total_insts() as f64 / report.guest_insts.max(1) as f64,
    );
    // The owner split separates translated-code quality (App) from the
    // software layer's own modeled execution (Tol).
    let guests = report.guest_insts.max(1) as f64;
    println!(
        "  app-owned {:.3} host/guest, tol-owned {:.3} host/guest",
        report.timing.owner_insts(Owner::App) as f64 / guests,
        report.timing.owner_insts(Owner::Tol) as f64 / guests,
    );
}

fn print_report(r: &Report) {
    println!("benchmark          : {}", r.name);
    println!("guest instructions : {}", r.guest_insts);
    println!("host instructions  : {}", r.timing.total_insts());
    println!("host cycles        : {}", r.timing.total_cycles);
    println!("IPC                : {:.3}", r.timing.ipc());
    println!("TOL overhead       : {:.1}%", r.timing.tol_overhead_share() * 100.0);
    if r.cosim_checks > 0 {
        println!("co-sim checks      : {} (all passed)", r.cosim_checks);
    }
    println!(
        "event stream       : {} events in {} batches (largest {})",
        r.trace.retired, r.trace.batches, r.trace.max_batch
    );
    println!("\ntime by component:");
    for c in Component::ALL {
        println!("  {:14} {:6.2}%", c.label(), r.timing.component_share(c) * 100.0);
    }
    println!("\nsoftware layer:");
    let s = &r.tol;
    println!("  static  [IM,BBM,SBM]: {:?}", s.static_dist);
    println!("  dynamic [IM,BBM,SBM]: {:?}", s.dyn_dist);
    println!(
        "  translations {} / superblocks {} / chains {} / flushes {}",
        s.installed, s.counters.sbm_invocations, s.chains, s.flushes
    );
    println!(
        "  cache: {:.1}% occupied ({:.1}% dead) / {} evictions ({} smc) / {} unchains / {} retranslations",
        s.cache.occupancy() * 100.0,
        s.cache.dead_space_ratio() * 100.0,
        s.cache.evictions,
        s.cache.smc_evictions,
        s.cache.unchains,
        s.cache.retranslations
    );
    println!(
        "  indirect branches {} / IBTC {} hits {} misses",
        s.counters.indirect_branches, s.ibtc_hits, s.ibtc_misses
    );
    if s.counters.verified_blocks > 0 || s.counters.verify_failures > 0 {
        println!(
            "  verifier: {} blocks verified / {} differential fallbacks / {} failures",
            s.counters.verified_blocks, s.counters.tv_differential, s.counters.verify_failures
        );
    }
    println!(
        "\ncaches: APP D$ miss {:.2}%  APP I$ miss {:.2}%  TOL D$ miss {:.2}%  BP miss {:.2}%",
        r.timing.d_miss_rate(Owner::App) * 100.0,
        r.timing.i_miss_rate(Owner::App) * 100.0,
        r.timing.d_miss_rate(Owner::Tol) * 100.0,
        r.timing.mispredict_rate(Owner::App) * 100.0,
    );
}

// ---------------------------------------------------------------- trace

fn trace(rest: &[String]) {
    let o = parse(rest);
    let w = generate(&o.profile(), o.scale);
    let mut mem = w.mem.clone();
    let mut cpu = w.initial.clone();
    println!("first {} guest instructions of {}:", o.n, w.name);
    for i in 0..o.n {
        if cpu.halted {
            println!("[halted]");
            break;
        }
        let pc = cpu.eip;
        match darco_guest::exec::step(&mut cpu, &mut mem) {
            Ok(info) => println!("{i:6}  {pc:#010x}  {}", info.inst),
            Err(e) => {
                println!("{i:6}  {pc:#010x}  <decode fault: {e}>");
                break;
            }
        }
    }
}

// --------------------------------------------------------------- disasm

fn disasm(rest: &[String]) {
    let o = parse(rest);
    let w = generate(&o.profile(), o.scale);
    let mut mem = w.mem.clone();
    let tol_cfg = TolConfig { bb_sb_threshold: 50, ..TolConfig::default() };
    let mut tol = Tol::new(tol_cfg, w.entry);
    tol.set_state(&w.initial);
    let mut sink = darco_host::NullSink;
    tol.run(&mut mem, &mut sink, u64::MAX).expect("run");

    // Rank resident translations by execution count.
    let mut blocks: Vec<darco_host::BlockId> = tol.cc.blocks().map(|(id, _)| id).collect();
    blocks.sort_by_key(|&b| {
        let blk = tol.cc.block(b).expect("resident block");
        (std::cmp::Reverse(blk.exec_count), blk.guest_entry)
    });
    println!(
        "hottest {} of {} resident translations in {}:",
        o.n.min(blocks.len()),
        tol.cc.resident(),
        w.name
    );
    for &b in blocks.iter().take(o.n) {
        let blk = tol.cc.block(b).expect("resident block");
        let kind = match blk.kind {
            BlockKind::Bb => "BBM",
            BlockKind::Sb => "SBM",
        };
        println!(
            "\nblock {b} [{kind}] guest {:#x} ({} guest insts, {} host insts, {} executions)",
            blk.guest_entry,
            blk.guest_len,
            blk.insts.len(),
            blk.exec_count
        );
        for (i, inst) in blk.insts.iter().enumerate() {
            let marker = if i as u32 == blk.body_len { "  --- exits ---\n" } else { "" };
            print!("{marker}");
            println!("  {:#010x}  {}", blk.host_base + 4 * i as u64, inst);
            if matches!(inst, HInst::Exit(_)) && i as u32 > blk.body_len + blk.stubs_len() {
                break;
            }
        }
    }
}

// ------------------------------------------------------------- timeline

fn timeline(rest: &[String]) {
    let o = parse(rest);
    let cfg = SystemConfig { cosim: false, window_guest_insts: 50_000, ..SystemConfig::default() };
    let mut sys = System::new(generate(&o.profile(), o.scale), cfg);
    let r = sys.run_to_completion();
    println!(
        "{}: per-window (50K guest insts) cycles and TOL share — the start-up transient:",
        r.name
    );
    println!("{:>12} {:>12} {:>10}", "guest insts", "cycles", "TOL share");
    for w in r.timeline.iter().take(o.n) {
        println!("{:>12} {:>12} {:>9.1}%", w.guest_insts, w.cycles, w.overhead_share() * 100.0);
    }
}

// A tiny extension trait so disasm can know where stubs end.
trait StubsLen {
    fn stubs_len(&self) -> u32;
}

impl StubsLen for darco_tol::codecache::TranslatedBlock {
    fn stubs_len(&self) -> u32 {
        self.stub_guest_counts.len() as u32
    }
}

// -------------------------------------------------------- export-profile

fn export_profile(rest: &[String]) {
    let (Some(name), Some(path)) = (rest.first(), rest.get(1)) else {
        bail("usage: darco export-profile <benchmark> <file.json>")
    };
    let json = serde_json::to_string_pretty(&named_profile(name)).expect("serialize profile");
    std::fs::write(path, json).unwrap_or_else(|e| bail(&format!("write {path}: {e}")));
    eprintln!("wrote {path}; edit it and run `darco run --profile {path}`");
}
