//! Reproduce the paper's Sec. III-D interaction study on one benchmark:
//! how much does sharing the core's caches, predictor and prefetcher
//! between the software layer and the application cost each of them?
//!
//! One functional run feeds three timing pipelines (shared, APP-only,
//! TOL-only) — the same methodology as Figs. 10 and 11.
//!
//! ```text
//! cargo run --release --example interaction_study [benchmark-name]
//! ```

use darco::core::experiments::{fig10, fig11_app, fig11_tol, run_bench};
use darco::core::SystemConfig;
use darco::timing::BubbleCause;
use darco::workloads::suites;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "400.perlbench".to_string());
    let profile = suites::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name}; try e.g. 400.perlbench or 470.lbm");
        std::process::exit(2);
    });

    println!("running {name} with shared and isolated timing pipelines ...");
    let cfg = SystemConfig { cosim: false, ..SystemConfig::default() };
    let runs = vec![run_bench(&profile, 1.0, &cfg)];

    let f10 = fig10(&runs);
    let row = &f10[0];
    println!("\nFig. 10 view (cycles without interaction / with):");
    println!(
        "  application : {:.3}  ({:.1}% faster alone)",
        row.app_rel,
        (1.0 - row.app_rel) * 100.0
    );
    println!(
        "  TOL         : {:.3}  ({:.1}% faster alone)",
        row.tol_rel,
        (1.0 - row.tol_rel) * 100.0
    );

    let labels = ["D$ miss", "I$ miss", "scheduling", "branch"];
    println!("\nFig. 11 view (potential gain per resource, % of execution time):");
    let tol = &fig11_tol(&runs)[0];
    let app = &fig11_app(&runs)[0];
    println!("  {:12} {:>8} {:>8}", "resource", "TOL", "APP");
    for (label, (t, a)) in labels.iter().zip(tol.gains.iter().zip(app.gains.iter())) {
        println!("  {label:12} {:>7.2}% {:>7.2}%", t * 100.0, a * 100.0);
    }

    let shared = &runs[0].report.timing;
    println!("\nshared-run bubble profile (of total time):");
    for c in BubbleCause::ALL {
        let t = (shared.owner_bubbles(darco::host::Owner::App, c)
            + shared.owner_bubbles(darco::host::Owner::Tol, c))
            / shared.attributed_time();
        println!("  {:24} {:5.1}%", c.label(), t * 100.0);
    }
    println!(
        "\nThe paper's conclusion holds when the data-cache row dominates: the \
         code-cache lookup tables and the guest's working set evict each other \
         (the 'ping-pong' of Sec. III-D)."
    );
}
