//! Compares two result files of the suite, base against new.

use serde::Value;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [(String, Value)] {
    match v.get(key) {
        Some(Value::Obj(pairs)) => pairs,
        _ => &[],
    }
}

fn number(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::Float(x) => Some(*x),
        Value::Int(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

/// How a new median stands against its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// a change of the bound's size cannot be told from noise.
    Unresolved,
}

/// Judges one end-to-end metric. `spread` is the wider of the two
/// interquartile ranges, as a share of its median.
pub fn verdict(base: f64, new: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let worsening = if higher_is_better { (base - new) / base } else { (new - base) / base };
    if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn spread(entry: &Value) -> Option<f64> {
    Some((number(entry, "q3")? - number(entry, "q1")?) / number(entry, "median")?)
}

/// Prints one row per workload and end-to-end metric, then every
/// exact-count layer metric that differs. Returns whether any row is
/// `worse`.
///
/// # Errors
///
/// Fails when a file is unreadable or the two do not hold the same
/// workloads and metrics.
pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut worse = 0;
    let mut unresolved = 0;
    let mut differing = 0;
    let mut failed_runs = 0.0;
    println!(
        "{:14} {:18} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    for (name, b) in entries(&base, "workloads") {
        let n = new
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("{new_path} has no workload {name}"))?;
        failed_runs += number(b, "failed").unwrap_or(0.0) + number(n, "failed").unwrap_or(0.0);
        for (metric, be) in entries(b, "end_to_end") {
            let ne = n
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .ok_or_else(|| format!("{new_path}: {name} has no {metric}"))?;
            let field = |e: &Value, k: &str| {
                number(e, k).ok_or_else(|| format!("{name}.{metric}: no number `{k}`"))
            };
            let (bm, nm, bound) = (field(be, "value")?, field(ne, "value")?, field(be, "bound")?);
            let higher = matches!(be.get("better"), Some(Value::Str(s)) if s == "higher");
            let widest = spread(be).into_iter().chain(spread(ne)).fold(0.0, f64::max);
            let v = verdict(bm, nm, higher, bound, widest);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{name:14} {metric:18} {bm:>12.5} {nm:>12.5} {:>7.4} {bound:>6.2}  {}",
                nm / bm,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (metric, be) in entries(b, "per_layer") {
            if be.get("exact") != Some(&Value::Bool(true)) {
                continue;
            }
            let bv = number(be, "value");
            let nv =
                n.get("per_layer").and_then(|l| l.get(metric)).and_then(|e| number(e, "value"));
            if bv != nv {
                differing += 1;
                println!("{name:14} {metric:32} differs: base {bv:?}, new {nv:?}");
            }
        }
    }
    println!(
        "{worse} worse, {unresolved} unresolved, {differing} exact-count layer metrics differ, \
         {failed_runs} failed runs"
    );
    Ok(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_the_metric_direction() {
        // Lower is better: 10 % slower is inside a 12 % bound, 13 % is not.
        assert_eq!(verdict(2.0, 2.2, false, 0.12, 0.01), Verdict::Ok);
        assert_eq!(verdict(2.0, 2.26, false, 0.12, 0.01), Verdict::Worse);
        // Getting better is never worse, however large the step.
        assert_eq!(verdict(2.0, 1.0, false, 0.12, 0.01), Verdict::Ok);
        // Higher is better: the worsening is measured downwards.
        assert_eq!(verdict(10.0, 9.0, true, 0.12, 0.01), Verdict::Ok);
        assert_eq!(verdict(10.0, 8.7, true, 0.12, 0.01), Verdict::Worse);
        assert_eq!(verdict(10.0, 20.0, true, 0.12, 0.01), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        assert_eq!(verdict(2.0, 2.0, false, 0.12, 0.13), Verdict::Unresolved);
        assert_eq!(verdict(2.0, 3.0, false, 0.12, 0.13), Verdict::Unresolved);
    }
}
