//! Argument handling of the `darco` binary, driven as a subprocess.

use std::process::{Command, Output};

fn darco(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_darco")).args(args).output().expect("spawn darco")
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
        rejected(
            &["run", "quicktest", "--scale", bad],
            "--scale must be finite and greater than 0",
        );
    }
    let ok = darco(&["run", "quicktest", "--scale", "0.05"]);
    assert!(ok.status.success(), "a valid scale runs: {}", String::from_utf8_lossy(&ok.stderr));
}

#[test]
fn removed_switches_are_unknown_flags() {
    rejected(&["run", "quicktest", "--timing-backend", "inline"], "unknown flag --timing-backend");
    rejected(&["run", "quicktest", "--guest-fast-path", "off"], "unknown flag --guest-fast-path");
    rejected(&["run", "quicktest", "--cache-policy", "fifo"], "unknown flag --cache-policy");
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
fn verify_co_simulates_against_the_independent_executor() {
    let out = darco(&["verify", "quicktest", "--scale", "0.05"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "darco verify failed: {stderr}");
    assert!(
        stderr.contains("verify: OK — ") && stderr.contains("against the independent exec::step"),
        "{stderr}"
    );
}

#[test]
fn disasm_prints_the_hottest_translations() {
    let out = darco(&["disasm", "quicktest", "--scale", "0.05", "--n", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "darco disasm failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("hottest 2 of ") && stdout.contains("--- exits ---"), "{stdout}");
}

#[test]
fn verify_reports_what_run_with_cosim_does() {
    let verify = darco(&["verify", "quicktest", "--scale", "0.05", "--json"]);
    let run = darco(&["run", "quicktest", "--scale", "0.05", "--cosim", "--json"]);
    assert!(verify.status.success() && run.status.success());
    assert!(!verify.stdout.is_empty());
    assert_eq!(verify.stdout, run.stdout, "the checker's authority changes no reported number");
}
