//! Determinism of the host-event stream across timing-sink schedules.
//!
//! The contract of the event bus (DESIGN.md §9) is that consumers see
//! the exact retire-order stream in the exact same batches regardless of
//! where they run. These tests pin the strongest observable consequence:
//! a run with the timing pipelines fanned out one worker per pipeline
//! (`Fanout`) produces a byte-identical [`Report`] to the inline run —
//! at any event-batch size — and so does every fast path against its
//! reference twin.
//!
//! [`Report`]: darco::core::Report

use darco::core::{Report, System, SystemConfig, TimingBackendKind};
use darco::workloads::{generate, suites};

const BACKENDS: [TimingBackendKind; 2] = [TimingBackendKind::Inline, TimingBackendKind::Fanout];

/// The configuration every test here starts from: all three timing
/// pipelines and timeline sampling, so a [`Report`] carries everything
/// that could diverge.
fn base_cfg() -> SystemConfig {
    SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        ..SystemConfig::default()
    }
}

/// Runs roster profile `profile_idx` at `scale` under [`base_cfg`] as
/// adjusted by `set` (the axis a test varies: backend, cosim, batch
/// size, a fast-path switch).
fn run_cfg(profile_idx: usize, scale: f64, set: impl FnOnce(&mut SystemConfig)) -> Report {
    let mut cfg = base_cfg();
    set(&mut cfg);
    let mut sys = System::new(generate(&suites::all_profiles()[profile_idx], scale), cfg);
    sys.run_to_completion()
}

/// Serializes a value (for a whole [`Report`]: timing stats, filtered
/// pipelines, timeline windows, TOL summary, trace statistics) so any
/// divergence anywhere fails the comparison.
fn fingerprint<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serialize")
}

#[test]
fn fanout_timing_is_bit_identical_across_profiles() {
    for idx in 0..3 {
        let inline = run_cfg(idx, 0.05, |c| c.timing_backend = TimingBackendKind::Inline);
        let fanout = run_cfg(idx, 0.05, |c| c.timing_backend = TimingBackendKind::Fanout);
        assert!(inline.timing.total_cycles > 0);
        assert!(inline.trace.batches > 0, "event stream must be batched");
        assert!(inline.app_only.is_some() && inline.tol_only.is_some());
        assert_eq!(
            fingerprint(&inline),
            fingerprint(&fanout),
            "profile {} diverged between inline and fan-out timing",
            inline.name
        );
    }
}

#[test]
fn all_backends_agree_at_extreme_batch_sizes() {
    // The acceptance matrix: every backend, at per-instruction delivery
    // (batch 1), a mid batch and the default-sized 4096 batch, produces
    // the same report byte for byte. Only trace batch *accounting*
    // (batches/max_batch) legitimately differs across batch sizes, so
    // compare fingerprints within one batch size across backends.
    for &batch in &[1usize, 64, 4096] {
        let at = |backend| {
            run_cfg(0, 0.04, |c| {
                c.timing_backend = backend;
                c.tol.event_batch = batch;
            })
        };
        let reference = at(TimingBackendKind::Inline);
        for &backend in &BACKENDS[1..] {
            let other = at(backend);
            assert_eq!(
                fingerprint(&reference),
                fingerprint(&other),
                "backend {backend:?} diverged at event_batch {batch}"
            );
        }
    }
}

#[test]
fn fanout_timing_is_bit_identical_with_cosim() {
    let on = |backend| {
        run_cfg(0, 0.03, |c| {
            c.timing_backend = backend;
            c.cosim = true;
        })
    };
    let inline = on(TimingBackendKind::Inline);
    let fanout = on(TimingBackendKind::Fanout);
    assert!(fanout.cosim_checks > 0, "checker stays inline under fan-out");
    assert_eq!(fingerprint(&inline), fingerprint(&fanout));
}

#[test]
fn retirement_templates_are_bit_identical_across_profiles() {
    // The precomputed-template exec path is a pure simulator-speed
    // optimization: the whole Report (timing, filtered pipelines,
    // timeline, TOL summary, trace) must match the re-derivation oracle
    // byte for byte.
    for idx in 0..3 {
        let fast = run_cfg(idx, 0.05, |c| c.tol.retire_templates = true);
        let oracle = run_cfg(idx, 0.05, |c| c.tol.retire_templates = false);
        assert!(fast.timing.total_cycles > 0);
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&oracle),
            "profile {} diverged between template and re-derivation paths",
            fast.name
        );
    }
}

#[test]
fn retirement_templates_are_bit_identical_with_cosim() {
    let templates = |fast| {
        run_cfg(0, 0.03, |c| {
            c.cosim = true;
            c.tol.retire_templates = fast;
        })
    };
    let fast = templates(true);
    let oracle = templates(false);
    assert!(fast.cosim_checks > 0, "checker must run as a sink");
    assert_eq!(fast.cosim_checks, oracle.cosim_checks);
    assert_eq!(fingerprint(&fast), fingerprint(&oracle));
}

#[test]
fn memory_fast_paths_are_bit_identical_across_profiles() {
    // The flattened cache/TLB layout and the last-line/last-page hit
    // shortcuts are pure simulator-speed optimizations: same hits, same
    // victims, same counters, same cycles — the whole Report must match
    // the full-probe legacy-layout oracle byte for byte.
    let mem_paths = |idx, fast| {
        run_cfg(idx, 0.05, |c| {
            c.timing.flat_mem = fast;
            c.timing.mem_shortcuts = fast;
        })
    };
    for idx in 0..3 {
        let fast = mem_paths(idx, true);
        let oracle = mem_paths(idx, false);
        assert!(fast.timing.total_cycles > 0);
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&oracle),
            "profile {} diverged between flat/shortcut and legacy memory paths",
            fast.name
        );
    }
}

#[test]
fn guest_fast_path_is_bit_identical_across_backends_and_batches() {
    // The acceptance matrix for the guest-layer fast path: against the
    // decode-per-step byte oracle, every timing backend at
    // per-instruction delivery (batch 1), a mid batch and the
    // default-sized 4096 batch produces a byte-identical report with
    // the micro-op buffers and lazy flags on.
    for &batch in &[1usize, 64, 4096] {
        let at = |backend, fast| {
            run_cfg(0, 0.04, |c| {
                c.timing_backend = backend;
                c.tol.event_batch = batch;
                c.tol.guest_fast_path = fast;
            })
        };
        let oracle = at(TimingBackendKind::Inline, false);
        for &backend in &BACKENDS {
            let fast = at(backend, true);
            assert_eq!(
                fingerprint(&oracle),
                fingerprint(&fast),
                "guest fast path diverged on backend {backend:?} at event_batch {batch}"
            );
        }
    }
}

#[test]
fn guest_fast_path_is_bit_identical_across_profiles() {
    // Cross-profile sweep (different instruction mixes stress different
    // micro-op handlers and flag producers/consumers).
    for idx in 0..3 {
        let on = |fast| {
            run_cfg(idx, 0.05, |c| {
                c.timing_backend = TimingBackendKind::Inline;
                c.tol.guest_fast_path = fast;
            })
        };
        let fast = on(true);
        let oracle = on(false);
        assert!(fast.timing.total_cycles > 0);
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&oracle),
            "profile {} diverged between micro-op and byte-oracle guest paths",
            fast.name
        );
    }
}

#[test]
fn guest_fast_path_threaded_and_fanout_with_cosim() {
    // The guest fast path switch spans the engine and the cosim
    // checker's private authoritative emulator (its own ExecCtx on its
    // own memory copy), so this exercises two independent fast paths
    // against one oracle run, under the thread-spawning backend. The
    // name predates the removal of the single-worker backend; it still
    // says "fanout", which is what the ThreadSanitizer gate filters on.
    let on = |backend, fast| {
        run_cfg(0, 0.03, |c| {
            c.timing_backend = backend;
            c.cosim = true;
            c.tol.guest_fast_path = fast;
        })
    };
    let oracle = on(TimingBackendKind::Inline, false);
    let fast = on(TimingBackendKind::Fanout, true);
    assert!(fast.cosim_checks > 0, "checker must run as a sink");
    assert_eq!(fast.cosim_checks, oracle.cosim_checks);
    assert_eq!(fingerprint(&oracle), fingerprint(&fast), "guest fast path diverged under cosim");
}

#[test]
fn guest_fast_path_actually_engages() {
    // Guard that the equalities above are not vacuous: under the
    // default (fast-path-on) configuration the interpreter must hit the
    // pre-decoded micro-op buffers and elide flag materializations.
    let mut sys = System::new(generate(&suites::all_profiles()[0], 0.05), base_cfg());
    sys.run_to_completion();
    let stats = sys.tol().fast_stats();
    assert!(stats.uop_hits > 0, "interpreter must execute from cached micro-op buffers");
    assert!(stats.blocks_built > 0);
    assert!(
        stats.flag_forces < stats.flag_defs,
        "lazy flags must elide some materializations ({} forces / {} defs)",
        stats.flag_forces,
        stats.flag_defs
    );
}

#[test]
fn per_instruction_batching_matches_default() {
    // `event_batch = 1` degenerates to per-instruction delivery; the
    // stream contents (and thus the report) must not depend on the
    // batch size, only the batch structure does.
    let batched = run_cfg(0, 0.05, |_| {});
    let per_inst = run_cfg(0, 0.05, |c| c.tol.event_batch = 1);
    assert!(batched.trace.max_batch > 1);
    assert_eq!(per_inst.trace.max_batch, 1);
    // Everything except the batch accounting is identical.
    assert_eq!(batched.timing.total_cycles, per_inst.timing.total_cycles);
    assert_eq!(batched.guest_insts, per_inst.guest_insts);
    assert_eq!(batched.trace.retired, per_inst.trace.retired);
    assert_eq!(batched.trace.component_insts, per_inst.trace.component_insts);
    assert_eq!(fingerprint(&batched.timeline), fingerprint(&per_inst.timeline));
}
