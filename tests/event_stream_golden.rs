//! The host-event stream, pinned as golden text (`tests/common/golden.rs`).
//!
//! Every `HostEvent` `Tol::run` delivers is a pure function of
//! `(workload, TolConfig)`, and every one is a retirement. The report
//! pins of `report_golden.rs` notice a moved event only through the
//! timing model; this test looks at the stream itself, in about a second
//! in debug and release: the digest of every event's `Debug` text, in
//! order (the stream is too long to commit), its length, and the
//! retirements per `Component` and `ExecClass`, so that a moved stream
//! says which module moved. A pin moves only with an explanation of
//! which event moved and why.

#[path = "common/fnv.rs"]
mod fnv;
#[path = "common/golden.rs"]
mod golden;

use darco::core::SystemConfig;
use darco::host::events::EVENT_BATCH;
use darco::host::{HostEvent, HostEventSink};
use darco::tol::{RunSummary, Tol, TolConfig};
use darco::workloads::{generate, suites, BenchProfile, Suite, Workload};
use std::collections::BTreeMap;
use std::fmt::Write;

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

/// The default configuration must deliver the pinned stream, all of it
/// retirements.
fn check(profile: &BenchProfile, scale: f64) {
    let w = generate(profile, scale);
    let (events, s) = stream(&w, SystemConfig::default().tol);
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
    let mut digest = fnv::Fnv::default();
    let mut retired = BTreeMap::new();
    for e in &events {
        writeln!(digest, "{e:?}").expect("hashing cannot fail");
        let HostEvent::Retire(d) = e else {
            panic!("{}: the software layer puts only retirements on the bus: {e:?}", profile.name);
        };
        *retired.entry((d.component, format!("{:?}", d.class))).or_insert(0u64) += 1;
    }
    let mut text =
        format!("digest of every event's Debug line: {}\nevents: {}\n", digest.0, events.len());
    text += "retired per component and class:\n";
    for ((component, class), n) in retired {
        writeln!(text, "  {component:?} {class}: {n}").expect("writing to a String cannot fail");
    }
    golden::assert_golden(&format!("event_stream/{}.txt", profile.name), &text);
}

#[test]
fn quicktest_event_stream_is_pinned() {
    check(&suites::quicktest_profile(), 0.5);
}

#[test]
fn startup_churn_event_stream_is_pinned() {
    check(&churn_profile(), 1.0);
}
