//! Serialized reports, pinned by digest.
//!
//! `event_stream_golden.rs` pins what `Tol::run` puts on the bus; this
//! file pins what comes out at the far end: the `serde_json` text of the
//! whole [`Report`] — the statistics of all three timing pipelines, the
//! TOL summary, the trace statistics and, in one run, the timeline
//! windows — with and without co-simulation, with the default code
//! cache and with one small enough to flush and retranslate, on three
//! workloads. A change that moves one counter of one pipeline moves a
//! digest.
//!
//! The constants must only ever change together with an explanation of
//! which field of the report moved and why. They were taken on the
//! parent of the audit that touched the path they cover (the default
//! cases before the second switch audit, the small-cache cases before
//! the third deleted the FIFO policy) and moved twice with the fourth
//! (DESIGN.md §15): once when the two IR-analysis passes were turned
//! off — every timing field downstream of the shorter TOL cost streams,
//! the two passes' rows in `pass_deltas` and their two counters — and
//! once more, with no measured value moving, when those two counters
//! and the same two columns of every `pass_deltas` row left the schema.

use darco::core::{Report, System, SystemConfig};
use darco::workloads::{generate, suites, BenchProfile};

const SCALE: f64 = 0.05;

/// Small enough that every workload here overflows the code cache.
const SMALL_CAPACITY: u32 = 600;

/// FNV-1a, 64 bit: stable across Rust releases, unlike `DefaultHasher`.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

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

/// Digest of the serialized report. Debug builds verify every
/// optimization pass whatever `TolConfig::verify` says, so the two
/// counters of that work are the one thing a report may not be hashed
/// with; `verify_failures` stays in.
fn digest(mut r: Report) -> u64 {
    r.tol.counters.verified_blocks = 0;
    r.tol.counters.tv_differential = 0;
    fnv(&serde_json::to_string(&r).expect("serialize"))
}

fn small(c: &mut SystemConfig) {
    c.tol.code_cache_capacity = SMALL_CAPACITY;
}

/// A named adjustment of the base configuration.
type Case = (&'static str, fn(&mut SystemConfig));

/// The configurations every workload is pinned under.
const CASES: [Case; 4] = [
    ("flush", |_| {}),
    ("flush + cosim", |c| c.cosim = true),
    ("flush, capacity 600", small),
    ("flush, capacity 600 + cosim", |c| {
        small(c);
        c.cosim = true;
    }),
];

fn check(profile: &BenchProfile, expected: [u64; 4]) {
    let reports = CASES.map(|(_, set)| report(profile, set));
    let [flush, _, small, _] = &reports;
    assert!(
        flush.tol.dyn_dist.iter().all(|&n| n > 0)
            && flush.app_only.is_some()
            && flush.tol_only.is_some(),
        "{}: the pinned run must cover all three modes and pipelines: {:?}",
        profile.name,
        flush.tol.dyn_dist
    );
    assert!(
        small.tol.flushes > 0 && small.tol.cache.retranslations > 0,
        "{}: the small cache must flush ({}) and retranslate: {:?}",
        profile.name,
        small.tol.flushes,
        small.tol.cache
    );
    for ((case, _), r) in CASES.iter().zip(&reports) {
        assert_eq!(r.cosim_checks > 0, case.ends_with("cosim"), "{}: {case}", profile.name);
    }
    assert_eq!(
        reports.map(digest),
        expected,
        "{}: a report moved (cases: {:?})",
        profile.name,
        CASES.map(|c| c.0)
    );
}

#[test]
fn reports_are_pinned_on_quicktest() {
    check(
        &suites::quicktest_profile(),
        [269876647418093258, 10266062189112927830, 12825119221372453348, 13090931762434820144],
    );
}

#[test]
fn reports_are_pinned_on_perlbench() {
    check(
        &suites::all_profiles()[0],
        [3011218359952951628, 5708420919831365516, 11915113578123443819, 6373085333351495779],
    );
}

#[test]
fn reports_are_pinned_on_bzip2() {
    check(
        &suites::all_profiles()[1],
        [2628624827568564815, 9508392611373963799, 12519851749784143889, 1615652463180804817],
    );
}

#[test]
fn reports_are_pinned_with_timeline_windows() {
    let r = report(&suites::quicktest_profile(), |c| c.window_guest_insts = 5_000);
    assert!(r.timeline.len() > 3, "windows sampled: {}", r.timeline.len());
    assert_eq!(digest(r), 2809019259254624932, "quicktest: report moved with timeline windows on");
}
