//! Serialized reports, pinned as golden text (`tests/common/golden.rs`).
//!
//! `event_stream_golden.rs` pins what `Tol::run` puts on the bus; this
//! file pins what comes out at the far end: the pretty-printed
//! `serde_json` text of the whole [`Report`] (all three timing
//! pipelines, the TOL summary, the event-delivery accounting and, in one
//! run, the timeline windows) of a co-simulated run on three workloads,
//! with the default code cache and with one small enough to flush and
//! retranslate. Each run's unchecked twin must be the same report less
//! the checker's own work. A pin moves only with an explanation of which
//! field moved and why; DESIGN.md §15 and git hold the moves so far.

#[path = "common/golden.rs"]
mod golden;

use darco::core::{Report, System, SystemConfig};
use darco::workloads::{generate, suites, BenchProfile};

const SCALE: f64 = 0.05;

/// Small enough that every workload here overflows the code cache.
const SMALL_CAPACITY: u32 = 600;

/// One run with all three pipelines, adjusted by `set`.
fn report(profile: &BenchProfile, set: impl Fn(&mut SystemConfig)) -> Report {
    let mut cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        ..SystemConfig::default()
    };
    set(&mut cfg);
    System::new(generate(profile, SCALE), cfg).run_to_completion()
}

fn pretty(r: &Report) -> String {
    serde_json::to_string_pretty(r).expect("serialize") + "\n"
}

/// Pins the co-simulated run of `profile` under `set` as `case`, and
/// checks that the unchecked run differs from it only by the checker's
/// work: its comparisons, and the one `StepBoundary` event, delivered in
/// a batch of its own, that each comparison takes.
fn check(case: &str, profile: &BenchProfile, set: fn(&mut SystemConfig)) -> Report {
    let checked = report(profile, |c| {
        set(c);
        c.cosim = true;
    });
    let unchecked = report(profile, set);
    assert!(checked.cosim_checks > 0, "{case}: the checker must run");
    let mut twin = checked.clone();
    twin.cosim_checks = 0;
    twin.trace.events -= checked.cosim_checks;
    twin.trace.batches -= checked.cosim_checks;
    if let Some(difference) = golden::first_difference(&pretty(&twin), &pretty(&unchecked)) {
        panic!("{case}: the unchecked run moved beyond the checker's work: {difference}");
    }
    golden::assert_golden(&format!("report/{case}.json"), &pretty(&checked));
    checked
}

fn check_workload(profile: &BenchProfile) {
    let r = check(&profile.name, profile, |_| {});
    assert!(
        r.tol.dyn_dist.iter().all(|&n| n > 0) && r.app_only.is_some() && r.tol_only.is_some(),
        "{}: the pinned run must cover all three modes and pipelines: {:?}",
        profile.name,
        r.tol.dyn_dist
    );
    let small = |c: &mut SystemConfig| c.tol.code_cache_capacity = SMALL_CAPACITY;
    let r = check(&format!("{}-cache600", profile.name), profile, small);
    assert!(
        r.tol.flushes > 0 && r.tol.cache.retranslations > 0,
        "{}: the small cache must flush ({}) and retranslate: {:?}",
        profile.name,
        r.tol.flushes,
        r.tol.cache
    );
}

#[test]
fn reports_are_pinned_on_quicktest() {
    check_workload(&suites::quicktest_profile());
}

#[test]
fn reports_are_pinned_on_perlbench() {
    check_workload(&suites::all_profiles()[0]);
}

#[test]
fn reports_are_pinned_on_bzip2() {
    check_workload(&suites::all_profiles()[1]);
}

#[test]
fn reports_are_pinned_with_timeline_windows() {
    let r = report(&suites::quicktest_profile(), |c| c.window_guest_insts = 5_000);
    assert!(r.timeline.len() > 3, "windows sampled: {}", r.timeline.len());
    golden::assert_golden("report/quicktest-timeline.json", &pretty(&r));
}

#[test]
fn a_moved_counter_is_named_by_its_key_path() {
    let text = |n: u64| {
        format!(
            "{{\n  \"name\": \"quicktest\",\n  \"tol_only\": {{\n    \"cycles\": 9,\n    \
             \"mispredicts\": [\n      0,\n      1,\n      2,\n      3,\n      {n},\n      5\n    \
             ]\n  }},\n  \"timeline\": []\n}}"
        )
    };
    let parsed = serde_json::parse_value(&text(4)).expect("valid JSON");
    assert_eq!(
        serde_json::to_string_pretty(&parsed).expect("serialize"),
        text(4),
        "the printer's layout"
    );
    assert_eq!(golden::first_difference(&text(4), &text(4)), None);
    assert_eq!(
        golden::first_difference(&text(4), &text(5)).as_deref(),
        Some("tol_only.mispredicts[4] (line 10): expected `4`, found `5`")
    );
    let moved = text(4).replace("\"cycles\": 9", "\"cycles\": 10");
    assert_eq!(
        golden::first_difference(&text(4), &moved).as_deref(),
        Some("tol_only.cycles (line 4): expected `9`, found `10`")
    );
}
