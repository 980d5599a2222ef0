//! Argument handling of the `figures` binary, driven as a subprocess.

use std::process::Command;

#[test]
fn scale_must_be_finite_and_positive() {
    // `inf` used to run forever; `nan`, `-1` and `0` ran some other length.
    for bad in ["inf", "nan", "-1", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["table1", "--scale", bad])
            .output()
            .expect("spawn figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--scale {bad} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains("--scale must be finite and greater than 0"),
            "--scale {bad}: {stderr}"
        );
    }
}
