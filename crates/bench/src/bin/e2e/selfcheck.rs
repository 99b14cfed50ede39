//! `--selfcheck`: does the benchmark agree with itself? Two interleaved
//! sets of runs of this same binary, each run a fresh process as the
//! driver's are, compared metric by metric the way the driver compares a
//! change with its parent.

use crate::report::median;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// `(first quartile, third quartile)` as Python's
/// `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Reads `"name": {"value": x, ...}` pairs out of a result line.
pub fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    const MARK: &str = "\": {\"value\": ";
    let mut out = BTreeMap::new();
    let mut rest = line;
    while let Some(at) = rest.find(MARK) {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let after = &rest[at + MARK.len()..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse::<f64>() {
            out.insert(rest[name_start..at].to_string(), v);
        }
        rest = &after[end..];
    }
    out
}

fn one_run(workload: &str, seed: u64, args: &Args) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} failed:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(parse_metrics(last))
}

pub fn run(args: &Args, runs: usize) -> ExitCode {
    let runs = runs.max(2);
    // [set][workload][metric] -> one value per run. Both sets use the
    // same seeds, so everything counted must come out identical.
    let mut sets: [BTreeMap<(&str, &str), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for i in 0..runs {
        for (s, set) in sets.iter_mut().enumerate() {
            for w in &WORKLOADS {
                eprintln!(
                    "selfcheck: run {} of {runs}, set {}, {}",
                    i + 1,
                    ["A", "B"][s],
                    w.name
                );
                match one_run(w.name, args.seed + i as u64, args) {
                    Ok(metrics) => {
                        for m in &END_TO_END {
                            let v = metrics.get(m.name).copied().unwrap_or(f64::NAN);
                            set.entry((w.name, m.name)).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("selfcheck: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    println!(
        "e2e selfcheck: 2 sets x {runs} runs, seeds {}..{}, --seconds {}{}",
        args.seed,
        args.seed + runs as u64 - 1,
        args.seconds,
        if args.quick { ", QUICK sizes" } else { "" }
    );
    println!(
        "{:<10} {:<16} {:>12} {:>24} {:>12} {:>24} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "gap",
        "spread",
        "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (&sets[0][&(w.name, m.name)], &sets[1][&(w.name, m.name)]);
            let (ma, mb) = (median(a), median(b));
            let (qa, qb) = (quartiles(a), quartiles(b));
            // How much worse the second set reads than the first.
            let worse = if m.better == "lower" {
                mb - ma
            } else {
                ma - mb
            };
            let gap = worse / ma;
            let spread = ((qa.1 - qa.0) / ma).max((qb.1 - qb.0) / mb);
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let verdict = if !(ma > 0.0 && mb > 0.0) {
                ok = false;
                "FAIL: zero or missing"
            } else if gap.abs() > bound {
                ok = false;
                "FAIL: gap over bound"
            } else if m.name != "setup_s" && spread > bound {
                ok = false;
                "FAIL: spread over bound"
            } else if m.name != "setup_s" && spread > bound / 3.0 {
                "ok (spread over a third of the bound)"
            } else {
                "ok"
            };
            println!(
                "{:<10} {:<16} {:>12.5} {:>24} {:>12.5} {:>24} {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}",
                w.name,
                m.name,
                ma,
                format!("{:.5}..{:.5}", qa.0, qa.1),
                mb,
                format!("{:.5}..{:.5}", qb.0, qb.1),
                gap * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"a.b\": {\"value\": 12, \"unit\": \"1/s\"}}}";
        let m = parse_metrics(line);
        assert_eq!(m.len(), 2);
        assert_eq!(m["setup_s"], 0.8127);
        assert_eq!(m["a.b"], 12.0);
    }
}
