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
}
