//! The repository benchmark. See `README.md` beside this package.
//!
//! ```text
//! darco-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--detail FILE]
//! darco-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
//! darco-benchmark --compare BASE.json NEW.json
//! ```
//!
//! The first form measures one workload and prints one JSON object as
//! the last line of standard output (the contract of `BENCHMARK.json`).
//! The second runs every workload, each in a process of its own, with
//! tracing off and then on, and writes one result file. The third
//! compares two result files.

mod compare;
mod env;
mod layers;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use serde::{Serialize, Value};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Reps of a `--smoke` run, whatever `--seconds` says.
const SMOKE_REPS: usize = 2;
/// Fewest timed reps a full run makes, however slow the host.
const MIN_REPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    detail: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        detail: None,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--detail" => a.detail = Some(value()?),
            "--out" => a.out = Some(value()?),
            "--compare" => a.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Measures one workload and prints the contract's result line.
fn single(a: &Args, name: &str) -> Result<(), String> {
    let spec = workloads::ALL
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    // A suite child leaves the environment block and the noise guard to
    // its parent: by then the load average is the suite's own doing.
    if a.detail.is_none() {
        let e = env::probe();
        eprintln!(
            "host: {} x {}, {}, commit {}, load {}",
            e.nproc, e.cpu_model, e.rustc, e.git_commit, e.loadavg_1m
        );
    }
    let mut profile = (spec.profile)(a.seed);
    if a.smoke {
        workloads::shrink_for_smoke(&mut profile);
    }

    let mut metrics = Vec::new();
    let mut detail = vec![
        ("workload".to_owned(), Value::Str(name.to_owned())),
        ("seed".to_owned(), Value::UInt(a.seed)),
        ("smoke".to_owned(), Value::Bool(a.smoke)),
    ];
    let (attempted, failures) = if a.trace {
        let l = layers::run(spec, &profile, if a.smoke { 0.0 } else { a.seconds })?;
        let mut per_layer = Vec::new();
        for m in &PER_LAYER {
            let v = *l.values.get(m.name).ok_or_else(|| format!("{} not measured", m.name))?;
            eprintln!("{name:14} {:32} {v:>16.6} {}", m.name, m.unit);
            metrics.push((m.name, v, m.unit));
            per_layer.push((
                m.name.to_owned(),
                obj([
                    ("value", Value::Float(v)),
                    ("unit", Value::Str(m.unit.to_owned())),
                    ("better", Value::Str(m.better.to_owned())),
                    ("exact", Value::Bool(m.exact)),
                ]),
            ));
        }
        let spans = l.spans.iter().map(|(n, t)| {
            let span = obj([
                ("count", Value::UInt(t.count)),
                ("total_s", Value::Float(t.total_ns as f64 / 1e9)),
                ("self_s", Value::Float(t.self_ns as f64 / 1e9)),
            ]);
            ((*n).to_owned(), span)
        });
        detail.push(("per_layer".to_owned(), Value::Obj(per_layer)));
        detail.push(("spans".to_owned(), Value::Obj(spans.collect())));
        (l.attempted, l.failures)
    } else {
        let (seconds, min_reps) = if a.smoke { (0.0, SMOKE_REPS) } else { (a.seconds, MIN_REPS) };
        let run = measure::run(spec, &profile, seconds, min_reps)?;
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let s = run.values.get(m.name).ok_or_else(|| format!("{} not measured", m.name))?;
            let value = s.best(m.better);
            eprintln!(
                "{name:14} {:18} {value:>12.6} {:5} (best of {}: min {:.6}, q1 {:.6}, median {:.6}, \
                 q3 {:.6}, max {:.6}, spread {:.1} %)",
                m.name,
                m.unit,
                s.n,
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max,
                s.spread() * 100.0
            );
            metrics.push((m.name, value, m.unit));
            let Value::Obj(mut entry) = s.to_value() else { unreachable!("Summary is a struct") };
            entry.insert(0, ("value".to_owned(), Value::Float(value)));
            entry.push(("unit".to_owned(), Value::Str(m.unit.to_owned())));
            entry.push(("better".to_owned(), Value::Str(m.better.to_owned())));
            entry.push(("bound".to_owned(), Value::Float(m.bound)));
            e2e.push((m.name.to_owned(), Value::Obj(entry)));
        }
        detail.push(("end_to_end".to_owned(), Value::Obj(e2e)));
        (run.attempted, run.failures)
    };

    let verdict = [
        ("correct", Value::Bool(failures.is_empty())),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failures.len() as u64)),
    ];
    if let Some(path) = &a.detail {
        detail.extend(verdict.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
        detail.push((
            "failures".to_owned(),
            Value::Arr(failures.iter().cloned().map(Value::Str).collect()),
        ));
        let json = serde_json::to_string_pretty(&Value::Obj(detail)).expect("values serialize");
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    let metrics = metrics.into_iter().map(|(n, v, u)| {
        (n.to_owned(), obj([("value", Value::Float(v)), ("unit", Value::Str(u.to_owned()))]))
    });
    let [correct, attempted, failed] = verdict;
    let line = obj([correct, attempted, failed, ("metrics", Value::Obj(metrics.collect()))]);
    println!("{}", serde_json::to_string(&line).expect("values serialize"));
    Ok(())
}

/// Runs every workload in a child process each, tracing off then on,
/// and writes the merged result file.
fn suite(a: &Args) -> Result<(), String> {
    let environment = env::probe();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let tag = if a.smoke { "smoke".to_owned() } else { format!("seed{}", a.seed) };
    let out = a.out.clone().unwrap_or_else(|| format!("benchmark/out/result-{tag}.json"));

    let started = Instant::now();
    let mut workloads = Vec::new();
    for spec in &workloads::ALL {
        let mut merged = vec![("why".to_owned(), Value::Str(spec.why.to_owned()))];
        let mut correct = true;
        let mut attempted = 0;
        let mut failed = 0;
        let mut failures = Vec::new();
        for trace in ["0", "1"] {
            let detail = out_dir.join(format!("detail-{}-{trace}.json", spec.name));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &a.seed.to_string(), "--seconds", &a.seconds.to_string()])
                .arg("--detail")
                .arg(&detail);
            if a.smoke {
                cmd.arg("--smoke");
            }
            // The child's table goes to the terminal; its result comes
            // back through the detail file.
            let status = cmd
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let parsed = std::fs::read_to_string(&detail)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::parse_value(&s).map_err(|e| e.to_string()));
            let _ = std::fs::remove_file(&detail);
            match parsed {
                Ok(Value::Obj(fields)) if status.success() => {
                    for (k, v) in fields {
                        match (k.as_str(), v) {
                            ("correct", Value::Bool(c)) => correct &= c,
                            ("attempted", Value::UInt(n)) => attempted += n,
                            ("failed", Value::UInt(n)) => failed += n,
                            ("failures", Value::Arr(f)) => failures.extend(f),
                            ("end_to_end" | "per_layer" | "spans", v) => merged.push((k, v)),
                            _ => {}
                        }
                    }
                }
                _ => {
                    // A run that died is a failed run, never a dropped one.
                    eprintln!("FAILED {} --trace {trace}: {status}", spec.name);
                    correct = false;
                    attempted += 1;
                    failed += 1;
                    failures.push(Value::Str(format!("--trace {trace}: {status}")));
                }
            }
        }
        merged.push(("correct".to_owned(), Value::Bool(correct)));
        merged.push(("attempted".to_owned(), Value::UInt(attempted)));
        merged.push(("failed".to_owned(), Value::UInt(failed)));
        merged.push(("failures".to_owned(), Value::Arr(failures)));
        workloads.push((spec.name.to_owned(), Value::Obj(merged)));
    }

    let result = obj([
        ("env", environment.to_value()),
        ("seed", Value::UInt(a.seed)),
        ("seconds", Value::Float(a.seconds)),
        ("smoke", Value::Bool(a.smoke)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let json = serde_json::to_string_pretty(&result).expect("values serialize");
    std::fs::write(&out, json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out} after {:.0} s", started.elapsed().as_secs_f64());
    if a.smoke {
        // A result compared with itself exercises the compare tool.
        if compare::run(&out, &out)? {
            return Err("a result file compared worse than itself".to_owned());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| match (&a.compare, &a.workload) {
        (Some((base, new)), _) => compare::run(base, new).map(|worse| !worse),
        (None, Some(name)) => single(&a, name).map(|()| true),
        (None, None) => suite(&a).map(|()| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` is what the driver reads and the tables in
    /// `metrics.rs` and `workloads.rs` are what the harness emits: they
    /// must name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let b = serde_json::parse_value(&json).expect("BENCHMARK.json parses");
        let list = |key: &str| match b.get(key) {
            Some(Value::Arr(xs)) => xs.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };

        assert_eq!(b.get("run_seconds"), Some(&Value::UInt(RUN_SECONDS as u64)));

        let workloads = list("workloads");
        assert_eq!(workloads.len(), workloads::ALL.len());
        for (w, spec) in workloads.iter().zip(&workloads::ALL) {
            assert_eq!(text(w, "name"), spec.name);
            assert_eq!(text(w, "why"), spec.why);
        }

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (m.name, m.unit, m.better)
            );
            assert_eq!(j.get("bound"), Some(&Value::Float(m.bound)), "{}", m.name);
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (j, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (m.name, m.unit, m.better)
            );
        }
    }
}
