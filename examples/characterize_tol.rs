//! Characterize the software layer across contrasting workloads — a
//! miniature of the paper's Sec. III analysis.
//!
//! Picks the benchmarks the paper keeps returning to (the high-repetition
//! 462.libquantum and 470.lbm, the indirect-branch-heavy 400.perlbench,
//! and the interpreter-bound 000.cjpeg / 107.novis_ragdoll), runs each at
//! a reduced scale, and prints the TOL-centric view: overhead, module
//! split, and the TOL-in-isolation performance characteristics of Fig. 8.
//!
//! ```text
//! cargo run --release --example characterize_tol
//! ```

use darco::core::experiments::run_bench;
use darco::core::SystemConfig;
use darco::host::{Component, Owner};
use darco::workloads::suites;

const PICKS: [&str; 5] =
    ["462.libquantum", "470.lbm", "400.perlbench", "000.cjpeg", "107.novis_ragdoll"];

fn main() {
    let cfg = SystemConfig { cosim: false, ..SystemConfig::default() };
    println!(
        "{:18} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>9}",
        "benchmark", "dyn/stat", "ovhd%", "IM%", "SBM%", "look%", "TOL IPC", "TOL D$%", "TOL bp%"
    );
    for name in PICKS {
        let profile = suites::by_name(name).expect("known benchmark");
        let run = run_bench(&profile, 0.5, &cfg);
        let t = &run.report.timing;
        let tol = run.report.tol_only.as_ref().expect("TOL pipeline");
        println!(
            "{:18} {:>9.0} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>8.2} {:>7.2}% {:>8.2}%",
            run.name,
            run.dyn_static_ratio,
            t.tol_overhead_share() * 100.0,
            t.component_share(Component::TolIm) * 100.0,
            t.component_share(Component::TolSbm) * 100.0,
            t.component_share(Component::TolLookup) * 100.0,
            tol.ipc(),
            tol.d_miss_rate(Owner::Tol) * 100.0,
            tol.mispredict_rate(Owner::Tol) * 100.0,
        );
    }
    println!(
        "\nReading the table the paper's way: high dyn/static ratio amortizes the layer \
         (libquantum, lbm); indirect branches inflate look-ups and transitions (perlbench); \
         low-repetition code leans on the interpreter (cjpeg, ragdoll). TOL's own IPC and \
         miss rates vary with the guest — it is not a constant-cost layer (Sec. III-C)."
    );
}
