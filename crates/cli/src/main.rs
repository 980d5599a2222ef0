//! `darco` — the controller CLI (the paper's Fig. 2 *Controller*:
//! "the main interface of DARCO with the user. It provides full control
//! over the execution of the application, as well as debugging
//! utilities").
//!
//! `darco --help` prints every command and the flags each one takes
//! (`USAGE` below); `figures.rs` lists the figures. A flag a command
//! does not read exits 2 instead of being ignored.

mod figures;

use darco_core::experiments::{self, BenchRun};
use darco_core::{Report, System, SystemConfig};
use darco_host::{BlockId, Component, Owner};
use darco_tol::codecache::{BlockKind, TranslatedBlock};
use darco_tol::translate::{decode_bb, translate_region};
use darco_tol::Tol;
use darco_workloads::{generate, suites, BenchProfile};

/// Runs one command on the arguments after its name.
type Command = fn(&[String]);

/// Every command, in `darco --help` order.
const COMMANDS: [(&str, Command); 8] = [
    ("list", list),
    ("run", run),
    ("run-set", run_set),
    ("figures", figures::figures),
    ("verify", verify),
    ("analyze", analyze),
    ("disasm", disasm),
    ("export-profile", export_profile),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        return;
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        return usage();
    }
    let Some(&(_, handler)) = COMMANDS.iter().find(|(name, _)| name == command) else {
        eprintln!("unknown command: {command}");
        usage();
        std::process::exit(2);
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    handler(rest);
}

/// What `darco --help` prints. Each flag names the commands that read it,
/// exactly the ones that pass it to [`parse`] (the CLI tests hold the
/// two together).
const USAGE: &str = "\
darco <command> [benchmark ...] [flags]

commands:
  list                      the 48-benchmark roster
  run [benchmark]           full system run + report (default: quicktest)
  run-set [benchmark ...]   runs across worker threads (default: the roster)
  figures [figure]          the paper's tables and figures (default: all)
  verify [benchmark]        run co-simulated against the independent exec::step
  analyze [benchmark]       hot-region IR + compile-path report
  disasm [benchmark]        hottest translations, disassembled
  export-profile <benchmark> <file.json>
                            dump a profile to edit and run with --profile

flags:
  --profile FILE   run, run-set, verify, analyze, disasm: load a custom
                   profile (JSON) as the next benchmark
  --scale S        run, run-set, figures, verify, analyze, disasm: dynamic-length
                   scale, finite and > 0 (default 0.5; 2.0 for figures)
  --jobs N         run-set, figures: worker threads (default: all cores)
  --n N            analyze, disasm: regions/translations to print (default 20)
  --json           run, run-set, verify: the full report(s) on stdout
  --profile-host   run: live heap bytes per holder after the report
                   (on stderr with --json)
  --help, -h       this text

darco figures [all|table1|fig5a|fig5b|fig6|fig7|fig8|fig9|fig10|fig11|startup|\
ablate-thresholds|ablate-ibtc|ablate-passes|ablate-codecache|ablate-future] \
[--scale S] [--jobs N]";

fn usage() {
    eprintln!("{USAGE}");
}

/// The flags every subcommand shares, parsed by one loop. A subcommand
/// reads the ones it passes to [`parse`]: `run-set` runs all of
/// `profiles` across `jobs` threads, `figures` its own benchmark sets,
/// the others run [`Opts::profile`].
struct Opts {
    /// Benchmarks named on the command line or loaded with `--profile`,
    /// in order.
    profiles: Vec<BenchProfile>,
    scale: f64,
    /// `None` means all available cores.
    jobs: Option<usize>,
    n: usize,
    json: bool,
    profile_host: bool,
}

impl Opts {
    /// The benchmark a single-run subcommand works on: the last one
    /// given, `quicktest` when none was.
    fn profile(&self) -> BenchProfile {
        self.profiles.last().cloned().unwrap_or_else(suites::quicktest_profile)
    }
}

/// `--scale` when none is given, for every subcommand but `figures`.
const SCALE: f64 = 0.5;

/// Every flag [`parse`] knows.
const FLAGS: [&str; 6] = ["--profile", "--scale", "--jobs", "--n", "--json", "--profile-host"];

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

/// Parses the arguments of `darco <command>`, which reads the flags in
/// `takes` (and benchmark names if it takes `--profile`) and whose
/// `--scale` defaults to `scale`. Any other flag or name exits 2.
fn parse(command: &str, rest: &[String], takes: &[&str], scale: f64) -> Opts {
    let mut o =
        Opts { profiles: Vec::new(), scale, jobs: None, n: 20, json: false, profile_host: false };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let word = a.as_str();
        if FLAGS.contains(&word) && !takes.contains(&word) {
            bail(&format!("{word}: `darco {command}` does not take it; see `darco --help`"));
        }
        if !word.starts_with('-') && !takes.contains(&"--profile") {
            bail(&format!("{word}: `darco {command}` takes no benchmark"));
        }
        let mut value =
            |what: &str| it.next().unwrap_or_else(|| bail(&format!("{a} needs {what}")));
        match word {
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
            "--profile-host" => o.profile_host = true,
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

fn list(rest: &[String]) {
    parse("list", rest, &[], SCALE);
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
    let takes = ["--profile", "--scale", "--json", "--profile-host"];
    let o = parse("run", rest, &takes, SCALE);
    let profile = o.profile();
    eprintln!("running {} at scale {} ...", profile.name, o.scale);
    let mut sys = System::new(generate(&profile, o.scale), SystemConfig::default());
    print_report(&sys.run_to_completion(), o.json);
    if o.profile_host {
        let table = host_memory_table(&sys.live_bytes());
        if o.json {
            eprint!("{table}");
        } else {
            print!("\n{table}");
        }
    }
}

/// The `--profile-host` table: live heap bytes per holder at the end of
/// the run, and their total.
fn host_memory_table(holders: &[(&str, usize)]) -> String {
    let kib = |b: usize| b as f64 / 1024.0;
    let mut out = String::from("host memory (live heap bytes at the end of the run):\n");
    for (name, bytes) in holders {
        out += &format!("  {name:24} {bytes:>12} B {:>10.1} KiB\n", kib(*bytes));
    }
    let total: usize = holders.iter().map(|(_, b)| b).sum();
    out += &format!("  {:24} {total:>12} B {:>10.1} KiB\n", "total", kib(total));
    out
}

// -------------------------------------------------------------- run-set

/// `darco run-set`: runs a batch of benchmarks (the whole roster when
/// none are named) across `--jobs` worker threads. Each benchmark is an
/// independent system, so results are identical at any thread count;
/// only the wall-clock changes.
fn run_set(rest: &[String]) {
    let o = parse("run-set", rest, &["--profile", "--scale", "--jobs", "--json"], SCALE);
    let profiles = if o.profiles.is_empty() { suites::all_profiles() } else { o.profiles.clone() };
    let runs = run_batch(&profiles, &o, &SystemConfig::default());
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
}

/// Runs `profiles` under `cfg` at `--scale` across `--jobs` threads, the
/// batch driver of `run-set` and `figures`, timing it on stderr.
fn run_batch(profiles: &[BenchProfile], o: &Opts, cfg: &SystemConfig) -> Vec<BenchRun> {
    let jobs =
        o.jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    eprintln!(
        "running {} benchmark(s) at scale {} on {jobs} thread(s) ...",
        profiles.len(),
        o.scale
    );
    let t0 = std::time::Instant::now();
    let runs = experiments::run_set(profiles, o.scale, cfg, jobs);
    eprintln!("{} benchmark(s) in {:.2?} with --jobs {jobs}", runs.len(), t0.elapsed());
    runs
}

// --------------------------------------------------------------- verify

/// `darco verify`: a full run co-simulated against the independent
/// decode-per-step `exec::step` rather than the micro-op executor the
/// interpreter shares (DESIGN.md §16). A divergence panics inside the
/// run, so reaching the end is the pass; the report is the one
/// `darco run` prints.
fn verify(rest: &[String]) {
    let o = parse("verify", rest, &["--profile", "--scale", "--json"], SCALE);
    let profile = o.profile();
    eprintln!("verifying {} at scale {} ...", profile.name, o.scale);
    let cfg = SystemConfig { independent_checker: true, ..SystemConfig::default() };
    let mut sys = System::new(generate(&profile, o.scale), cfg);
    let report = sys.run_to_completion();
    print_report(&report, o.json);
    eprintln!(
        "verify: OK — {} co-sim checks against the independent exec::step passed",
        report.cosim_checks
    );
}

// -------------------------------------------------------------- analyze

/// `darco analyze`: a full run followed by the compile-path report —
/// the IR the translator emitted for the hottest translated regions
/// (dead flag definitions already elided), the per-pass instruction
/// deltas, the compile path stage by stage and the host-per-guest
/// split. `--n` bounds how many regions are dumped.
fn analyze(rest: &[String]) {
    if rest.iter().any(|a| a == "--json") {
        bail("--json: use `darco run --json`, which prints the same report");
    }
    let o = parse("analyze", rest, &["--profile", "--scale", "--n"], SCALE);
    let profile = o.profile();
    eprintln!("analyzing {} at scale {} ...", profile.name, o.scale);
    let w = generate(&profile, o.scale);
    // Pre-execution snapshot of guest memory, for re-decoding the
    // regions the layer translated (workload code is not self-modifying)
    // and for the functional rerun below.
    let analysis_mem = w.mem.clone();
    let (entry, initial) = (w.entry, w.initial.clone());
    let cfg = SystemConfig::default();
    let tol_cfg = cfg.tol.clone();
    let mut sys = System::new(w, cfg);
    let report = sys.run_to_completion();
    let tol = sys.tol();

    // Hottest translated regions, deduplicated by guest entry.
    let mut seen = std::collections::HashSet::new();
    let entries = hottest(tol).into_iter().map(|(_, b)| b.guest_entry).filter(|&e| seen.insert(e));
    for entry in entries.take(o.n) {
        match decode_bb(&analysis_mem, entry) {
            Ok(region) => {
                let block = translate_region(&region);
                println!(
                    "region @ {entry:#x}: {} guest insts, {} IR ops\n{}",
                    region.len(),
                    block.ops.len(),
                    darco_tol::ir::pretty(&block)
                );
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

/// Prints `r` as `darco run` does: the serialized report on `--json`,
/// its headline numbers otherwise.
fn print_report(r: &Report, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(r).expect("serialize"));
        return;
    }
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
        r.trace.events, r.trace.batches, r.trace.max_batch
    );
    println!("\ntime by component, then its branches (mispredicted / executed):");
    for c in Component::ALL {
        let (share, i) = (r.timing.component_share(c) * 100.0, c.index());
        let (mispredicts, branches) = (r.timing.mispredicts[i], r.timing.branches[i]);
        println!("  {:14} {share:6.2}%  {mispredicts:>10} / {branches:>10}", c.label());
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
        "  cache: {:.1}% occupied ({:.1}% dead) / {} smc flushes / {} retranslations",
        s.cache.occupancy() * 100.0,
        s.cache.dead_space_ratio() * 100.0,
        s.counters.smc_flushes,
        s.cache.retranslations
    );
    println!(
        "  indirect branches {} / IBTC {} hits {} misses",
        s.counters.indirect_branches, s.ibtc_hits, s.ibtc_misses
    );
    println!(
        "\ncaches: APP D$ miss {:.2}%  APP I$ miss {:.2}%  TOL D$ miss {:.2}%  BP miss {:.2}%",
        r.timing.d_miss_rate(Owner::App) * 100.0,
        r.timing.i_miss_rate(Owner::App) * 100.0,
        r.timing.d_miss_rate(Owner::Tol) * 100.0,
        r.timing.mispredict_rate(Owner::App) * 100.0,
    );
}

// --------------------------------------------------------------- disasm

fn disasm(rest: &[String]) {
    let o = parse("disasm", rest, &["--profile", "--scale", "--n"], SCALE);
    let w = generate(&o.profile(), o.scale);
    let mut mem = w.mem.clone();
    let mut tol = Tol::new(SystemConfig::default().tol, w.entry);
    tol.set_state(&w.initial);
    let mut sink = darco_host::NullSink;
    tol.run(&mut mem, &mut sink, u64::MAX).expect("run");

    let blocks = hottest(&tol);
    println!(
        "hottest {} of {} resident translations in {}:",
        o.n.min(blocks.len()),
        tol.cc.resident(),
        w.name
    );
    for &(b, blk) in blocks.iter().take(o.n) {
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
        }
    }
}

/// The resident translations, most executed first (ties by guest entry):
/// a block replaced by its superblock never runs again and is left out.
fn hottest(tol: &Tol) -> Vec<(BlockId, &TranslatedBlock)> {
    let mut blocks: Vec<_> = tol.cc.blocks().filter(|(_, b)| b.redirect.is_none()).collect();
    blocks.sort_by_key(|(_, b)| (std::cmp::Reverse(b.exec_count), b.guest_entry));
    blocks
}

// -------------------------------------------------------- export-profile

fn export_profile(rest: &[String]) {
    if let Some(flag) = rest.iter().find(|a| a.starts_with('-')) {
        bail(&format!("unknown flag {flag}"));
    }
    let [name, path] = rest else { bail("usage: darco export-profile <benchmark> <file.json>") };
    let json = serde_json::to_string_pretty(&named_profile(name)).expect("serialize profile");
    std::fs::write(path, json).unwrap_or_else(|e| bail(&format!("write {path}: {e}")));
    eprintln!("wrote {path}; edit it and run `darco run --profile {path}`");
}
