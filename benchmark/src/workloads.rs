//! The four benchmark workloads: a generator profile seeded from
//! `--seed` plus the behaviour fields of the system configuration.
//!
//! Two constraints shape them. A rep lasts 0.6-0.8 s on one CPU of the
//! reference host, so that a run holds some thirty of them and the best
//! one ran undisturbed (README, "Noise policy"). And each workload keeps
//! its character on any seed: the generator draws every kernel body at
//! random, so a program of a handful of kernels changes speed and length
//! by 10-20 % with the seed, and each profile below therefore spreads its
//! hot code over 40 to 400 kernels, which averages the draw out (README,
//! "Seed check").

use darco_core::SystemConfig;
use darco_workloads::{BenchProfile, Suite};

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line, also in
    /// `BENCHMARK.json`).
    pub why: &'static str,
    pub profile: fn(u64) -> BenchProfile,
    pub config: fn() -> SystemConfig,
}

/// The Fig. 8-11 methodology: shared, application-only and TOL-only
/// pipelines fed from one functional run.
fn three_pipelines() -> SystemConfig {
    SystemConfig {
        cosim: false,
        app_only_pipeline: true,
        tol_only_pipeline: true,
        ..SystemConfig::default()
    }
}

fn one_pipeline() -> SystemConfig {
    SystemConfig { cosim: false, ..SystemConfig::default() }
}

/// `--smoke`: a tenth of the work, for checking the harness itself.
pub fn shrink_for_smoke(p: &mut BenchProfile) {
    p.dyn_base /= 10;
    p.static_insts = (p.static_insts / 10).max(500);
}

pub const ALL: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "steady_sbm",
        why: "The paper's steady state: >99 % of guest instructions retire from superblocks, \
              so the timing pipelines and translated-block retirement do nearly all the work \
              and translation almost none.",
        // 40 kernels: few enough that promotion is over within 2 % of
        // the run's instructions, enough to average the per-kernel draw.
        profile: |seed| BenchProfile {
            name: "steady_sbm".into(),
            suite: Suite::SpecInt,
            static_insts: 2_000,
            dyn_base: 10_000_000,
            fp_fraction: 0.08,
            indirect_freq: 0.0003,
            hot_fraction: 0.90,
            warm_fraction: 0.05,
            mem_footprint: 1 << 22,
            stream_fraction: 0.85,
            branch_entropy: 0.20,
            seed,
        },
        config: three_pipelines,
    },
    WorkloadSpec {
        name: "startup_churn",
        why: "The paper's worst case (perlbench, gcc): dynamic/static ratio near BB/SBth, so \
              interpretation, BBM and SBM translation, code-cache installs and the IBTC carry \
              the run instead of idling.",
        // 400 kernels that each run ~80 times: 50 executions in BBM,
        // then promotion, then a short SBM tail. Warm code is kept
        // small because its repeat count is a single draw per program.
        profile: |seed| BenchProfile {
            name: "startup_churn".into(),
            suite: Suite::SpecInt,
            static_insts: 40_000,
            dyn_base: 1_800_000,
            fp_fraction: 0.02,
            indirect_freq: 0.005,
            hot_fraction: 0.45,
            warm_fraction: 0.10,
            mem_footprint: 1 << 22,
            stream_fraction: 0.40,
            branch_entropy: 0.50,
            seed,
        },
        config: one_pipeline,
    },
    WorkloadSpec {
        name: "mem_irregular",
        why: "Same timing layer as steady_sbm, used differently: random probes over 16 MiB and \
              data-dependent branches keep cache and predictor state from repeating, so each \
              event costs the timing model more.",
        profile: |seed| BenchProfile {
            name: "mem_irregular".into(),
            suite: Suite::SpecInt,
            static_insts: 2_500,
            dyn_base: 7_000_000,
            fp_fraction: 0.02,
            indirect_freq: 0.0008,
            hot_fraction: 0.90,
            warm_fraction: 0.05,
            mem_footprint: 1 << 24,
            stream_fraction: 0.10,
            branch_entropy: 0.60,
            seed,
        },
        config: three_pipelines,
    },
    WorkloadSpec {
        name: "cosim_checked",
        why: "SystemConfig::default() untouched, as System::from_profile and the tests run it: \
              the authoritative guest emulator and the state checker execute every guest \
              instruction, which no other workload does.",
        profile: |seed| BenchProfile {
            name: "cosim_checked".into(),
            suite: Suite::SpecFp,
            static_insts: 5_000,
            dyn_base: 7_000_000,
            fp_fraction: 0.15,
            indirect_freq: 0.001,
            hot_fraction: 0.60,
            warm_fraction: 0.25,
            mem_footprint: 1 << 22,
            stream_fraction: 0.60,
            branch_entropy: 0.40,
            seed,
        },
        config: SystemConfig::default,
    },
];
