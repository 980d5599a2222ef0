//! The metric tables: names, units and directions. `BENCHMARK.json` at
//! the repository root lists the same metrics; a test keeps the two in
//! step.

/// The `--seconds` a run measures for when the flag is absent; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 28.0;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the base median by which the metric may worsen before
    /// the change counts as a regression.
    pub bound: f64,
}

/// What a user of the simulator sees, per workload, tracing off.
///
/// Throughput is one rate, measured with each rep confined to one CPU
/// (`measure::run` says why). What the default multi-threaded backend
/// makes of a run on all CPUs is in the layer metrics
/// `core.system_wall_s`, `core.system_cpu_s`, `core.backend_overlap_ratio`
/// and `core.cpu_per_wall`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "guest_mips", unit: "MIPS", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count or simulated statistic that repeats exactly for a given
    /// seed: two commits that differ only in speed must agree on it.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

/// Single-layer metrics, named `<crate>.<metric>`.
pub const PER_LAYER: [PerLayer; 51] = [
    timed("workloads.generate_s", "s", "lower"),
    exact("workloads.static_insts", "count", "lower"),
    exact("workloads.guest_insts", "count", "lower"),
    timed("guest.exec_s", "s", "lower"),
    timed("guest.exec_mips", "MIPS", "higher"),
    timed("tol.func_s", "s", "lower"),
    timed("tol.func_mips", "MIPS", "higher"),
    timed("tol.step_im_self_s", "s", "lower"),
    timed("tol.step_bbm_self_s", "s", "lower"),
    timed("tol.step_sbm_self_s", "s", "lower"),
    exact("tol.steps_im", "count", "lower"),
    exact("tol.steps_bbm", "count", "lower"),
    exact("tol.steps_sbm", "count", "lower"),
    exact("tol.dyn_share_im", "ratio", "lower"),
    exact("tol.dyn_share_bbm", "ratio", "lower"),
    exact("tol.dyn_share_sbm", "ratio", "higher"),
    exact("tol.translations", "count", "lower"),
    exact("tol.superblocks", "count", "lower"),
    exact("tol.chains", "count", "higher"),
    exact("tol.indirect_branches", "count", "lower"),
    exact("tol.ibtc_hit_ratio", "ratio", "higher"),
    exact("tol.cache_flushes", "count", "lower"),
    exact("tol.retranslations", "count", "lower"),
    exact("tol.opt_bailouts", "count", "lower"),
    exact("host.events", "count", "lower"),
    exact("host.batches", "count", "lower"),
    exact("host.events_per_guest_inst", "ratio", "lower"),
    exact("host.event_bytes", "B", "lower"),
    timed("host.trace_consume_s", "s", "lower"),
    timed("timing.consume_s", "s", "lower"),
    timed("timing.ns_per_event", "ns", "lower"),
    timed("timing.finish_s", "s", "lower"),
    exact("timing.sim_cycles", "cycles", "lower"),
    exact("timing.sim_host_insts", "count", "lower"),
    exact("timing.sim_ipc", "ratio", "higher"),
    exact("timing.sim_tol_overhead_share", "ratio", "lower"),
    exact("timing.sim_dmiss_rate_app", "ratio", "lower"),
    exact("timing.sim_mispredict_rate", "ratio", "lower"),
    timed("core.checker_consume_s", "s", "lower"),
    exact("core.cosim_checks", "count", "higher"),
    timed("core.boundary_s", "s", "lower"),
    timed("core.loop_other_s", "s", "lower"),
    timed("core.inline_wall_s", "s", "lower"),
    timed("core.system_wall_s", "s", "lower"),
    timed("core.system_cpu_s", "s", "lower"),
    timed("core.backend_overlap_ratio", "ratio", "higher"),
    timed("core.cpu_per_wall", "ratio", "lower"),
    timed("trace.wall_s", "s", "lower"),
    exact("trace.spans", "count", "lower"),
    timed("trace.span_cost_ns", "ns", "lower"),
    timed("trace.overhead_pct", "%", "lower"),
];
