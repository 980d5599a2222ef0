//! Serialized reports, pinned by digest.
//!
//! `event_stream_golden.rs` pins what `Tol::run` puts on the bus; this
//! file pins what comes out at the far end: the `serde_json` text of the
//! whole [`Report`] — the statistics of all three timing pipelines, the
//! TOL summary, the trace statistics and, in one run, the timeline
//! windows — with and without co-simulation, under both code-cache
//! policies, on three workloads. A change that moves one counter of one
//! pipeline moves a digest.
//!
//! The constants were taken before the second switch audit deleted the
//! fan-out backend, the batch-size knob and four fast-path switches,
//! and must only ever change together with an explanation of which
//! field of the report moved and why.

use darco::core::{Report, System, SystemConfig, TimingBackendKind};
use darco::tol::codecache::CachePolicy;
use darco::workloads::{generate, suites, BenchProfile};

const SCALE: f64 = 0.05;

/// Small enough that every workload here evicts under FIFO.
const FIFO_CAPACITY: u32 = 600;

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

fn fifo(c: &mut SystemConfig) {
    c.tol.cache_policy = CachePolicy::Fifo;
    c.tol.code_cache_capacity = FIFO_CAPACITY;
}

/// The configurations every workload is pinned under.
const CASES: [(&str, fn(&mut SystemConfig)); 4] = [
    ("flush", |_| {}),
    ("flush + cosim", |c| c.cosim = true),
    ("fifo", fifo),
    ("fifo + cosim", |c| {
        fifo(c);
        c.cosim = true;
    }),
];

/// Every independently settable value the switch audit is about to
/// delete, at its other setting(s): none of them may move a byte of
/// any report. (Deleted together with the axes.)
const AXES: [(&str, fn(&mut SystemConfig)); 7] = [
    ("timing_backend inline", |c| c.timing_backend = TimingBackendKind::Inline),
    ("timing_backend fanout", |c| c.timing_backend = TimingBackendKind::Fanout),
    ("event_batch 64", |c| c.tol.event_batch = 64),
    ("event_batch 1", |c| c.tol.event_batch = 1),
    ("retire_templates off", |c| c.tol.retire_templates = false),
    ("guest_fast_path off", |c| c.tol.guest_fast_path = false),
    ("flat_mem + mem_shortcuts off", |c| {
        c.timing.flat_mem = false;
        c.timing.mem_shortcuts = false;
    }),
];

/// Asserts that `want` is the digest at every other setting of every
/// axis in [`AXES`], one axis at a time.
fn check_axes(profile: &BenchProfile, case: &str, set: impl Fn(&mut SystemConfig), want: u64) {
    let d = SystemConfig::default();
    assert!(
        d.tol.event_batch == 4096
            && d.tol.retire_templates
            && d.tol.guest_fast_path
            && d.timing.flat_mem
            && d.timing.mem_shortcuts,
        "the pinned reports are the default configuration's"
    );
    for (axis, flip) in AXES {
        let r = report(profile, |c| {
            set(c);
            flip(c);
        });
        assert_eq!(digest(r), want, "{}: `{case}` diverged at {axis}", profile.name);
    }
}

fn check(profile: &BenchProfile, expected: [u64; 4]) {
    let reports = CASES.map(|(_, set)| report(profile, set));
    let [flush, _, fifo, _] = &reports;
    assert!(
        flush.tol.dyn_dist.iter().all(|&n| n > 0)
            && flush.app_only.is_some()
            && flush.tol_only.is_some(),
        "{}: the pinned run must cover all three modes and pipelines: {:?}",
        profile.name,
        flush.tol.dyn_dist
    );
    assert!(fifo.tol.cache.evictions > 0, "{}: fifo must evict", profile.name);
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
    for ((case, set), want) in CASES.iter().zip(expected) {
        check_axes(profile, case, set, want);
    }
}

#[test]
fn quicktest_reports_are_pinned() {
    check(
        &suites::quicktest_profile(),
        [14616705520837596232, 2904960229666022204, 6066489547262142418, 3723775410834023480],
    );
}

#[test]
fn perlbench_reports_are_pinned() {
    check(
        &suites::all_profiles()[0],
        [5745746681081316861, 10038273098040521257, 5311168094360441364, 5247879392756852060],
    );
}

#[test]
fn bzip2_reports_are_pinned() {
    check(
        &suites::all_profiles()[1],
        [13509794238309198752, 3556272081580281162, 12969402876718016657, 16355283914845883039],
    );
}

#[test]
fn timeline_windows_are_pinned() {
    let r = report(&suites::quicktest_profile(), |c| c.window_guest_insts = 5_000);
    assert!(r.timeline.len() > 3, "windows sampled: {}", r.timeline.len());
    let want = 18239012498791250267;
    assert_eq!(digest(r), want, "quicktest: report moved with timeline windows on");
    check_axes(&suites::quicktest_profile(), "windows", |c| c.window_guest_insts = 5_000, want);
}
