//! Argument handling of the `darco` binary, driven as a subprocess.

use std::process::{Command, Output};

fn darco(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_darco")).args(args).output().expect("spawn darco")
}

/// Runs `darco args`, which must succeed, and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = darco(args);
    assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// What `darco --help` prints, with exit 0, on stderr.
fn usage() -> String {
    let out = darco(&["--help"]);
    assert!(out.status.success(), "darco --help must exit 0");
    String::from_utf8(out.stderr).expect("utf-8 usage")
}

/// Exit status 2 and a message on stderr containing `needle`.
fn rejected(args: &[&str], needle: &str) {
    let out = darco(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr lacks `{needle}`: {stderr}");
}

#[test]
fn scale_must_be_finite_and_positive() {
    // `inf` used to run forever; `nan`, `-1` and `0` ran some other length.
    for bad in ["inf", "nan", "-1", "0"] {
        for command in [["run", "quicktest"], ["figures", "table1"]] {
            rejected(
                &[&command[..], &["--scale", bad]].concat(),
                "--scale must be finite and greater than 0",
            );
        }
    }
    let ok = darco(&["run", "quicktest", "--scale", "0.05"]);
    assert!(ok.status.success(), "a valid scale runs: {}", String::from_utf8_lossy(&ok.stderr));
}

#[test]
fn figures_prints_table_one() {
    use darco_timing::config::{
        BP_HISTORY_BITS, IQ_SIZE, ISSUE_WIDTH, L1D, L1I, L2, MEM_LATENCY, PREFETCHER_ENTRIES, TLB1,
        TLB2,
    };
    let stdout = stdout_of(&["figures", "table1"]);
    assert!(
        stdout.contains("=== Table I: host processor microarchitectural parameters ==="),
        "{stdout}"
    );
    // One row per parameter, in order: its name, then the constant it
    // prints. The L1 row stands for both L1s.
    assert_eq!(L1I, L1D);
    let expected = [
        ("Issue width", ISSUE_WIDTH.to_string()),
        ("Size", IQ_SIZE.to_string()),
        ("Size of history register", BP_HISTORY_BITS.to_string()),
        ("Size", format!("{}KB", L1I.size / 1024)),
        ("Block size/Associativity", format!("{}B/{}", L1I.block, L1I.ways)),
        ("Replacement policy", "PLRU".into()),
        ("Hit latency", L1I.hit_latency.to_string()),
        ("Number of entries", PREFETCHER_ENTRIES.to_string()),
        ("Size", format!("{}KB", L2.size / 1024)),
        ("Block size/Associativity", format!("{}B/{}", L2.block, L2.ways)),
        ("Replacement policy", "PLRU".into()),
        ("Hit latency", L2.hit_latency.to_string()),
        ("Hit latency", MEM_LATENCY.to_string()),
        ("Entries", format!("{}/{} way", TLB1.entries, TLB1.ways)),
        ("Hit latency", TLB1.hit_latency.to_string()),
        ("Entries", format!("{}/{} way", TLB2.entries, TLB2.ways)),
        ("Hit latency", TLB2.hit_latency.to_string()),
    ];
    let rows: Vec<(&str, &str)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let cells: Vec<&str> = l.split("  ").map(str::trim).filter(|c| !c.is_empty()).collect();
            (cells[cells.len() - 2], cells[cells.len() - 1])
        })
        .collect();
    let expected: Vec<(&str, &str)> = expected.iter().map(|(p, v)| (*p, v.as_str())).collect();
    assert_eq!(rows, expected, "{stdout}");
}

#[test]
fn figures_rejects_an_unknown_figure_and_the_removed_quick_flag() {
    // All are refused before any benchmark runs, with the form that works.
    rejected(&["figures", "bogus"], "unknown figure bogus");
    rejected(&["figures", "all", "--quick"], "--quick: use --scale 0.05");
    rejected(&["figures", "all", "--json", "out.json"], "`darco run-set --scale 2 --json`");
    rejected(&["figures", "--scale", "0.2", "table1"], "table1: name one figure, first");
    for flag in ["--json", "--n", "--profile", "--cosim"] {
        rejected(&["figures", "table1", flag], flag);
    }
}

#[test]
fn removed_switches_and_commands_are_unknown() {
    rejected(&["run", "quicktest", "--timing-backend", "inline"], "unknown flag --timing-backend");
    rejected(&["run", "quicktest", "--guest-fast-path", "off"], "unknown flag --guest-fast-path");
    rejected(&["run", "quicktest", "--cache-policy", "fifo"], "unknown flag --cache-policy");
    // Every run is co-simulated: there is no switch to turn the checker on.
    for command in ["run", "run-set", "analyze"] {
        rejected(&[command, "quicktest", "--cosim"], "unknown flag --cosim");
    }
    rejected(&["trace", "quicktest"], "unknown command: trace");
    rejected(&["timeline", "quicktest"], "unknown command: timeline");
}

/// `darco run --profile` on the exported quicktest profile with `from`
/// replaced by `to` must be rejected with `needle`.
fn edited_profile_rejected(tag: &str, from: &str, to: &str, needle: &str) {
    let path = std::env::temp_dir().join(format!("darco-cli-{tag}-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    assert!(darco(&["export-profile", "quicktest", path]).status.success());
    let text = std::fs::read_to_string(path).expect("exported profile");
    assert!(text.contains(from), "{text}");
    std::fs::write(path, text.replace(from, to)).expect("rewrite profile");
    rejected(&["run", "--profile", path, "--scale", "0.05"], needle);
    std::fs::remove_file(path).expect("clean up");
}

#[test]
fn out_of_range_profile_integer_is_rejected_with_its_type() {
    // 2^32 + 1200 used to be narrowed to 1200 and run as quicktest.
    edited_profile_rejected(
        "test",
        "\"static_insts\": 1200",
        "\"static_insts\": 4294968496",
        "UInt(4294968496) out of range for u32",
    );
}

#[test]
fn footprint_smaller_than_a_word_is_rejected_not_an_empty_range_panic() {
    // A power of two, so it validated; the generator then drew from 0..0.
    edited_profile_rejected(
        "footprint",
        "\"mem_footprint\": 262144",
        "\"mem_footprint\": 1",
        "invalid profile: mem_footprint below the 4-byte word",
    );
}

#[test]
fn code_that_would_reach_the_jump_tables_is_rejected_not_a_decode_panic() {
    // The loader wrote the jump tables over the tail of the code.
    edited_profile_rejected(
        "static",
        "\"static_insts\": 1200",
        "\"static_insts\": 2500000",
        "invalid profile: static_insts above 698709",
    );
}

#[test]
fn deeply_nested_profile_is_rejected_not_a_stack_overflow() {
    // One parser frame per `[`: 50 000 of them used to abort the process.
    let path = std::env::temp_dir().join(format!("darco-cli-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(50_000)).expect("write profile");
    rejected(
        &["run", "--profile", path.to_str().expect("utf-8 temp path")],
        "recursion limit exceeded at byte 128",
    );
    std::fs::remove_file(path).expect("clean up");
}

#[test]
fn disasm_prints_the_hottest_translations() {
    let stdout = stdout_of(&["disasm", "quicktest", "--scale", "0.05", "--n", "2"]);
    assert!(stdout.contains("hottest 2 of ") && stdout.contains("--- exits ---"), "{stdout}");
}

/// `disasm` lists exactly the translations its header counts as
/// resident: a BBM block replaced by its superblock is not among them.
#[test]
fn disasm_lists_only_resident_translations() {
    let stdout = stdout_of(&["disasm", "quicktest", "--n", "1000"]);
    let header = stdout.lines().next().expect("a header line");
    let counts: Vec<usize> = header.split_whitespace().filter_map(|w| w.parse().ok()).collect();
    let listed = stdout.lines().filter(|l| l.starts_with("block ")).count();
    assert_eq!(counts, [listed, listed], "{header}");
}

#[test]
fn verify_co_simulates_and_reports_what_run_does() {
    let verify = darco(&["verify", "quicktest", "--scale", "0.05", "--json"]);
    let stderr = String::from_utf8_lossy(&verify.stderr);
    assert!(verify.status.success(), "darco verify failed: {stderr}");
    assert!(stderr.contains("verify: OK — ") && stderr.contains("the independent exec::step"));
    let run = stdout_of(&["run", "quicktest", "--scale", "0.05", "--json"]);
    assert!(run.contains("\"cosim_checks\": ") && !run.contains("\"cosim_checks\": 0,"), "{run}");
    assert_eq!(verify.stdout, run.as_bytes(), "the checker's authority changes no reported number");
}

/// The commands `darco --help` lists, each run by a test of this file.
const COMMANDS: [&str; 8] =
    ["list", "run", "run-set", "figures", "verify", "analyze", "disasm", "export-profile"];

#[test]
fn help_lists_every_command_and_works_after_each() {
    let usage = usage();
    let listed: Vec<&str> = usage
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .map(|l| l.split_whitespace().next().expect("command name"))
        .collect();
    assert_eq!(listed, COMMANDS, "{usage}");
    for command in COMMANDS {
        for help in ["--help", "-h"] {
            let out = darco(&[command, "quicktest", help]);
            assert!(out.status.success(), "{command} {help} must exit 0");
            assert_eq!(String::from_utf8_lossy(&out.stderr), usage, "{command} {help}");
        }
    }
}

#[test]
fn a_command_refuses_each_flag_the_usage_does_not_list_for_it() {
    // `darco disasm quicktest --cosim --json --jobs 3` and
    // `darco run --jobs 9 --n 3` used to exit 0, the flags ignored.
    let usage = usage();
    let flags = usage.lines().skip_while(|l| *l != "flags:").filter(|l| l.starts_with("  --"));
    let mut refused = 0;
    for (head, _meaning) in flags.filter_map(|l| l.split_once(':')) {
        let (flag, takers) = head.trim().split_once(' ').expect("flag, then its commands");
        let takers: Vec<&str> = takers.split([' ', ',']).filter(|w| !w.is_empty()).collect();
        // `figures` refuses with its own messages (pinned above),
        // `export-profile` takes no flag, and `analyze --json` below.
        for command in ["list", "run", "run-set", "verify", "analyze", "disasm"] {
            if !takers.contains(&command) && (command, flag) != ("analyze", "--json") {
                rejected(&[command, flag], &format!("{flag}: `darco {command}` does not take it"));
                refused += 1;
            }
        }
    }
    assert_eq!(refused, 18, "{usage}");
}

#[test]
fn a_command_refuses_words_it_does_not_read() {
    for (args, needle) in [
        (&["analyze", "quicktest", "--json"][..], "--json: use `darco run --json`"),
        (&["list", "quicktest"], "quicktest: `darco list` takes no benchmark"),
        (&["export-profile", "quicktest", "f.json", "junk"], "usage: darco export-profile"),
        (&["export-profile", "quicktest"], "usage: darco export-profile"),
        (&["export-profile", "quicktest", "--cosim"], "unknown flag --cosim"),
        (&["bogus", "--help"], "unknown command: bogus"),
    ] {
        rejected(args, needle);
    }
}

#[test]
fn list_prints_the_roster() {
    let stdout = stdout_of(&["list"]);
    assert!(stdout.starts_with("benchmark "), "{stdout}");
    assert!(stdout.contains("\n400.perlbench ") && stdout.contains("plus `quicktest`"), "{stdout}");
    // A header, the 48 benchmarks, a blank line and the quicktest note.
    assert_eq!(stdout.lines().count(), 1 + 48 + 2, "{stdout}");
}

#[test]
fn run_set_output_does_not_depend_on_the_job_count() {
    let set = ["run-set", "quicktest", "000.cjpeg", "--scale", "0.05", "--json"];
    let one = stdout_of(&[&set[..], &["--jobs", "1"]].concat());
    let two = stdout_of(&[&set[..], &["--jobs", "2"]].concat());
    assert!(one.contains("\"name\": \"000.cjpeg\""), "{one}");
    assert_eq!(one, two, "a run is independent of the threads beside it");
    let table = stdout_of(&["run-set", "quicktest", "--scale", "0.05"]);
    assert!(table.starts_with("benchmark ") && table.contains("\nquicktest "), "{table}");
}

/// The `--profile-host` rows of `text`: holder name and bytes.
fn host_memory_rows(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .skip_while(|l| !l.starts_with("host memory "))
        .skip(1)
        .map_while(|l| {
            let (name, rest) = l.trim().rsplit_once(" B ")?.0.rsplit_once(' ')?;
            Some((name.trim().to_string(), rest.parse().ok()?))
        })
        .collect()
}

#[test]
fn run_profile_host_prints_live_bytes_per_holder_outside_the_report() {
    let holders = [
        "code cache insts",
        "code cache templates",
        "code cache blocks",
        "profiler pages",
        "interpreter uop cache",
        "event buffer",
        "guest memory frames",
        "checker memory frames",
        "checker uop cache",
        "total",
    ];
    let run = ["run", "quicktest", "--scale", "0.05"];
    let plain = stdout_of(&run);
    let profiled = stdout_of(&[&run[..], &["--profile-host"]].concat());
    assert!(profiled.starts_with(&plain), "the report comes first, unchanged: {profiled}");
    let rows = host_memory_rows(&profiled);
    let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, holders, "{profiled}");
    let (total, parts) = rows.split_last().expect("a total row");
    assert_eq!(parts.iter().map(|(_, b)| b).sum::<u64>(), total.1, "{profiled}");
    // The checker counts only the frames it does not share with guest
    // memory: after a passing run, next to none.
    let bytes = |name: &str| rows.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
    assert!(
        bytes("checker memory frames") < bytes("guest memory frames"),
        "the checker holds a second copy of guest memory: {profiled}"
    );
    let mut others = parts.iter().filter(|(n, _)| n != "checker memory frames");
    assert!(others.all(|(_, b)| *b > 0), "every other holder holds something: {profiled}");

    // With `--json` the table goes to stderr and stdout is the report alone.
    let json = [&run[..], &["--json"]].concat();
    let out = darco(&[&json[..], &["--profile-host"]].concat());
    assert!(out.status.success());
    assert_eq!(out.stdout, stdout_of(&json).as_bytes(), "the table stays out of --json");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(host_memory_rows(&stderr), rows, "{stderr}");
}

#[test]
fn analyze_prints_the_ir_and_the_compile_path() {
    let stdout = stdout_of(&["analyze", "quicktest", "--scale", "0.05", "--n", "1"]);
    assert_eq!(stdout.matches("region @ ").count(), 1, "{stdout}");
    for row in [
        "compile stage",
        "\nregalloc ",
        "\ntotal ",
        "share of Tol::run wall",
        "app-owned",
        "exit -> 0x",
    ] {
        assert!(stdout.contains(row), "analyze lacks `{row}`: {stdout}");
    }
}

#[test]
fn figures_startup_prints_one_transient_per_benchmark() {
    let stdout = stdout_of(&["figures", "startup", "--scale", "0.05"]);
    assert!(stdout.contains("=== Start-up vs steady state"), "{stdout}");
    for name in ["462.libquantum", "400.perlbench", "000.cjpeg"] {
        assert!(stdout.contains(&format!("{name}: TOL share of host instructions")), "{stdout}");
    }
}

#[test]
fn figures_sweeps_do_not_depend_on_the_job_count() {
    let sweep = ["figures", "ablate-passes", "--scale", "0.02"];
    let one = stdout_of(&[&sweep[..], &["--jobs", "1"]].concat());
    let two = stdout_of(&[&sweep[..], &["--jobs", "2"]].concat());
    assert!(
        one.contains("=== Ablation: SBM optimization passes") && one.contains("433.milc"),
        "{one}"
    );
    assert_eq!(one, two, "the sweep's runs are independent of the threads beside them");
}

#[test]
fn an_exported_profile_runs_like_the_benchmark_it_came_from() {
    let path = std::env::temp_dir().join(format!("darco-cli-export-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    stdout_of(&["export-profile", "quicktest", path]);
    let exported = stdout_of(&["run", "--profile", path, "--scale", "0.05", "--json"]);
    let named = stdout_of(&["run", "quicktest", "--scale", "0.05", "--json"]);
    assert_eq!(exported, named);
    std::fs::remove_file(path).expect("clean up");
}
