//! Compares two sets of `perfbench` result files.
//!
//! ```text
//! compare <set-a-dir> <set-b-dir> [--benchmark BENCHMARK.json]
//! ```
//!
//! Reads every `*.json` result file (written by `perfbench --out <dir>`)
//! in each directory, and prints per workload and metric each set's run
//! count, median and quartiles (as Python's `statistics.quantiles(v,
//! n=4)`), the spread `(q3 − q1) / median`, and the change of B's median
//! against A's. An end-to-end metric is flagged `WORSE` when B's median is
//! worse than A's by more than its `BENCHMARK.json` bound, `better` when
//! it improved by more than the bound, and `noisy` when either set's
//! spread exceeds the bound. A differing share of failed operations is
//! flagged too. Exits 1 if anything is flagged `WORSE` or the failed
//! shares differ, 2 on unreadable input.

use perfbench::json::{parse, Json};
use perfbench::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One end-to-end metric's contract from `BENCHMARK.json`.
struct Bound {
    bound: f64,
    lower_is_better: bool,
}

/// Metric values of one set, keyed by (workload, traced, metric).
#[derive(Default)]
struct Set {
    values: BTreeMap<(String, bool, String), Vec<f64>>,
    units: BTreeMap<String, String>,
    /// (workload, traced) → (attempted, failed) summed over runs.
    ops: BTreeMap<(String, bool), (f64, f64)>,
}

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir:?}: {e}"))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths.iter().filter(|p| p.extension().is_some_and(|x| x == "json")) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
        let workload =
            doc.get("workload").and_then(Json::as_str).ok_or(format!("{path:?}: no workload"))?;
        let traced = matches!(doc.get("trace"), Some(Json::Bool(true)));
        let result = doc.get("result").ok_or(format!("{path:?}: no result"))?;
        let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let ops = set.ops.entry((workload.to_string(), traced)).or_default();
        ops.0 += num("attempted");
        ops.1 += num("failed");
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{path:?}: no metrics"))?;
        for (name, m) in metrics {
            let Some(v) = m.get("value").and_then(Json::as_f64) else { continue };
            set.values.entry((workload.to_string(), traced, name.clone())).or_default().push(v);
            if let Some(unit) = m.get("unit").and_then(Json::as_str) {
                set.units.insert(name.clone(), unit.to_string());
            }
        }
    }
    if set.values.is_empty() {
        return Err(format!("{dir:?}: no result files"));
    }
    Ok(set)
}

fn load_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    let list =
        doc.get("end_to_end").and_then(Json::as_array).ok_or("BENCHMARK.json: no end_to_end")?;
    let mut bounds = BTreeMap::new();
    for m in list {
        let name = m.get("name").and_then(Json::as_str).ok_or("end_to_end metric without name")?;
        let bound = m.get("bound").and_then(Json::as_f64).ok_or(format!("{name}: no bound"))?;
        let lower_is_better = m.get("better").and_then(Json::as_str) == Some("lower");
        bounds.insert(name.to_string(), Bound { bound, lower_is_better });
    }
    Ok(bounds)
}

fn describe(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, _, q3)) => format!("{:>12.4} [{:.4}, {:.4}]", median(v), q1, q3),
        None => format!("{:>12.4} [n<2]", median(v)),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = String::from("BENCHMARK.json");
    if let Some(i) = args.iter().position(|a| a == "--benchmark") {
        if i + 1 >= args.len() {
            eprintln!("compare: --benchmark needs a path");
            return ExitCode::from(2);
        }
        bench = args.remove(i + 1);
        args.remove(i);
    }
    let [a, b] = args.as_slice() else {
        eprintln!("usage: compare <set-a-dir> <set-b-dir> [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let loaded = (|| {
        Ok::<_, String>((
            load_set(Path::new(a))?,
            load_set(Path::new(b))?,
            load_bounds(Path::new(&bench))?,
        ))
    })();
    let (set_a, set_b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failing = false;
    let mut workload = None;
    for (key, va) in &set_a.values {
        let (w, traced, metric) = key;
        if workload.as_ref() != Some(&(w, traced)) {
            workload = Some((w, traced));
            let kind = if *traced { "per-layer (traced)" } else { "end-to-end" };
            println!("\n== {w} — {kind}");
            let ops = |s: &Set| s.ops.get(&(w.clone(), *traced)).copied().unwrap_or_default();
            let (oa, ob) = (ops(&set_a), ops(&set_b));
            let share = |o: (f64, f64)| if o.0 > 0.0 { o.1 / o.0 } else { 0.0 };
            let flag = if share(oa) != share(ob) {
                failing = true;
                "  FAILED SHARES DIFFER"
            } else {
                ""
            };
            println!("   failed/attempted: A {}/{}  B {}/{}{flag}", oa.1, oa.0, ob.1, ob.0);
            println!(
                "   {:<32} {:>4} {:>34} {:>7} {:>4} {:>34} {:>7} {:>8} {:>6}",
                "metric",
                "nA",
                "A median [q1, q3]",
                "spreadA",
                "nB",
                "B median [q1, q3]",
                "spreadB",
                "change",
                "bound"
            );
        }
        let Some(vb) = set_b.values.get(key) else {
            println!("   {metric:<32} missing from set B");
            failing |= !traced;
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
        let spread =
            |v: &[f64]| relative_spread(v).map_or("-".into(), |s| format!("{:.2}%", 100.0 * s));
        let mut line = format!(
            "   {:<32} {:>4} {} {:>7} {:>4} {} {:>7} {:>7.2}%",
            format!("{metric} ({})", set_a.units.get(metric).map_or("", String::as_str)),
            va.len(),
            describe(va),
            spread(va),
            vb.len(),
            describe(vb),
            spread(vb),
            100.0 * change
        );
        if let (false, Some(b)) = (*traced, bounds.get(metric)) {
            line.push_str(&format!(" {:>5.1}%", 100.0 * b.bound));
            let worse = if b.lower_is_better { change } else { -change };
            if worse > b.bound {
                line.push_str("  WORSE");
                failing = true;
            } else if -worse > b.bound {
                line.push_str("  better");
            }
            let noisy = [va, vb].iter().any(|v| relative_spread(v).is_some_and(|s| s > b.bound));
            if noisy && metric != "setup_s" {
                line.push_str("  noisy");
            }
        }
        println!("{line}");
    }
    if failing {
        println!("\nflagged: see WORSE / FAILED SHARES DIFFER / missing rows above");
        ExitCode::from(1)
    } else {
        println!("\nno end-to-end metric differs by more than its bound");
        ExitCode::SUCCESS
    }
}
