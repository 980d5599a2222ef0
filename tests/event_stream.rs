//! The interpreter's executor, seen from a whole-system run.
//!
//! The byte-equality of serialized reports is pinned by digest in
//! `report_golden.rs` and the host-event stream itself in
//! `event_stream_golden.rs`; what is left here is the guard that the
//! mechanisms those digests were taken with are actually at work.

use darco::core::{System, SystemConfig};
use darco::workloads::{generate, suites};

#[test]
fn micro_op_buffers_and_lazy_flags_engage() {
    // Under the default configuration the interpreter must hit the
    // pre-decoded micro-op buffers and elide flag materializations.
    let cfg = SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        window_guest_insts: 20_000,
        ..SystemConfig::default()
    };
    let mut sys = System::new(generate(&suites::all_profiles()[0], 0.05), cfg);
    let report = sys.run_to_completion();
    assert!(report.trace.batches > 0 && report.trace.max_batch > 1, "the stream is batched");
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
