//! The host-event stream, pinned by digest.
//!
//! Every `HostEvent` `Tol::run` delivers is a pure function of
//! `(workload, TolConfig)`, and every one is a retirement. The report
//! digests of `report_golden.rs` notice a moved event only through the
//! timing model; this test looks at the stream itself — every event, in
//! order, through its `Debug` text — in about a second, in debug and
//! release.
//!
//! The constants must only ever change together with an explanation of
//! which event moved and why. They moved twice since the bus was rebuilt
//! around in-place appends: the fourth switch audit (DESIGN.md §15) made
//! the translator's own flag elision the only one, which shortened the
//! simulated TOL cost streams — the SBM optimize stream had been sized
//! by the IR length before the dead flag definitions were removed — and
//! nothing else: the resident code digests of `translation_golden.rs`
//! did not move. The seventh took the module markers off the bus; the
//! constants became the digest and length of the parent's `Retire`
//! events alone, pinned on the parent first, so every retirement, in
//! order, is unchanged.

use darco::core::SystemConfig;
use darco::host::events::EVENT_BATCH;
use darco::host::{HostEvent, HostEventSink};
use darco::tol::{RunSummary, Tol, TolConfig};
use darco::workloads::{generate, suites, BenchProfile, Suite, Workload};
use std::fmt::Write;

/// FNV-1a, 64 bit: stable across Rust releases, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Collects the stream and remembers the longest batch it was handed.
#[derive(Default)]
struct Collect {
    events: Vec<HostEvent>,
    max_batch: usize,
}

impl HostEventSink for Collect {
    fn consume(&mut self, batch: &[HostEvent]) {
        self.max_batch = self.max_batch.max(batch.len());
        self.events.consume(batch);
    }
}

/// The benchmark's `startup_churn` shape, small: kernels that each leave
/// BBM for SBM shortly before they finish, so interpreter streams, both
/// translators, translated blocks and every TOL module's cost stream are
/// all in the stream.
fn churn_profile() -> BenchProfile {
    BenchProfile {
        name: "startup_churn_tiny".into(),
        suite: Suite::SpecInt,
        static_insts: 800,
        dyn_base: 12_000,
        fp_fraction: 0.02,
        indirect_freq: 0.005,
        hot_fraction: 0.45,
        warm_fraction: 0.10,
        mem_footprint: 1 << 22,
        stream_fraction: 0.40,
        branch_entropy: 0.50,
        seed: 1,
    }
}

/// Every event of one `Tol::run`, in delivery order, and the run's
/// summary.
fn stream(w: &Workload, cfg: TolConfig) -> (Vec<HostEvent>, RunSummary) {
    let mut mem = w.mem.clone();
    let mut tol = Tol::new(cfg, w.entry);
    tol.set_state(&w.initial);
    let mut sink = Collect::default();
    tol.run(&mut mem, &mut sink, u64::MAX).expect("generated workloads decode");
    assert!(tol.is_done(), "{}: guest must halt", w.name);
    assert!(sink.max_batch <= EVENT_BATCH, "batch of {} exceeds EVENT_BATCH", sink.max_batch);
    (sink.events, tol.summary())
}

/// FNV-1a over one `Debug` line per event.
fn digest(events: &[HostEvent]) -> u64 {
    let mut h = Fnv::new();
    for e in events {
        writeln!(h, "{e:?}").expect("hashing cannot fail");
    }
    h.0
}

/// The default configuration must deliver the pinned stream, all of it
/// retirements.
fn check(profile: &BenchProfile, scale: f64, expected: (u64, usize)) {
    let w = generate(profile, scale);
    let (pinned, s) = stream(&w, SystemConfig::default().tol);
    assert_eq!(
        (digest(&pinned), pinned.len()),
        expected,
        "{}: event stream moved under the default configuration",
        profile.name
    );
    assert!(
        pinned.iter().all(|e| matches!(e, HostEvent::Retire(_))),
        "{}: the software layer puts only retirements on the bus",
        profile.name
    );
    assert!(
        s.dyn_dist.iter().all(|&n| n > 0)
            && s.installed > s.counters.sbm_invocations
            && s.counters.sbm_invocations > 0,
        "{}: the pinned stream must cover all three modes and both translators: {:?}, \
         {} installed, {} superblocks",
        profile.name,
        s.dyn_dist,
        s.installed,
        s.counters.sbm_invocations
    );
}

#[test]
fn quicktest_event_stream_is_pinned() {
    check(&suites::quicktest_profile(), 0.5, (14793490206031887413, 332095));
}

#[test]
fn startup_churn_event_stream_is_pinned() {
    check(&churn_profile(), 1.0, (1088690868817475787, 151924));
}
