//! `e2e`: the repository's one benchmark. Four workloads, the same
//! end-to-end metrics on each, and a traced run that yields a per-layer
//! ledger on two clocks (wall/CPU and the simulated disk's virtual time).
//! See README.md beside this file.
//!
//! ```text
//! e2e --seed N                      every workload, untraced, checked
//! e2e --seed N --trace              every workload traced: per-layer metrics
//! e2e --workload W --seed N --seconds S --trace 0|1     one run, as the driver calls it
//! e2e --selfcheck [RUNS]            two interleaved sets of runs compared
//! e2e --quick ...                   small sizes; results stamped "quick": true
//! ```

mod data;
mod env;
mod ops;
mod oracle;
mod report;
mod run;
mod selfcheck;
mod side;
mod spec;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use report::Metrics;
use spec::{RUN_SECONDS, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Params;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub selfcheck: Option<usize>,
    pub print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        selfcheck: None,
        print_benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    // A flag's value, when the next word is not another flag.
    fn value<'a>(it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>) -> Option<&'a String> {
        it.next_if(|v| !v.starts_with("--"))
    }
    while let Some(flag) = it.next() {
        let number = |v: Option<&String>| -> Result<u64, String> {
            v.and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it).ok_or("--workload needs a name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = number(value(&mut it))?,
            "--seconds" => args.seconds = number(value(&mut it))?.clamp(1, 60),
            "--trace" => args.trace = value(&mut it).is_none_or(|v| v != "0"),
            "--quick" => args.quick = true,
            "--selfcheck" => {
                args.selfcheck = Some(match value(&mut it) {
                    Some(v) => number(Some(v))? as usize,
                    None => 5,
                })
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One workload's run, ready to print.
pub struct Outcome {
    pub workload: &'static str,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub meta: String,
}

fn trace_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target).join("e2e")
}

pub fn run_workload(name: &str, p: Params, trace: bool) -> Outcome {
    let w = workloads::build(name, p).expect("workload names are checked when parsed");
    let mut tr = trace::Tracer::new(false);
    let r = run::run(w.as_ref(), trace, p.quick, &mut tr);
    let metrics = if trace {
        let mut side = side::SidePasses::default();
        side::compress_pass(w.grid(), &mut side);
        if w.name() == "ingest" {
            side::socket_ingest(w.as_ref(), w.ops().len() / 4, &mut side);
        }
        let dir = trace_dir();
        let file = dir.join(format!("trace-{}.json", w.name()));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tr.to_json()))
        {
            eprintln!("e2e: cannot write {}: {e}", file.display());
        } else {
            eprintln!(
                "e2e: {} spans written to {}",
                tr.spans.len(),
                file.display()
            );
        }
        report::per_layer(&r, &tr, &side)
    } else {
        report::end_to_end(&r)
    };
    print_classes(w.name(), &r.segments[0]);
    let mut problems = r.failures.clone();
    problems.extend(r.shape_errors.iter().map(|e| format!("shape: {e}")));
    let mut meta = String::new();
    let samples = r.segments[0].ops();
    let _ = write!(
        meta,
        "{{\"workload\":\"{}\",\"op_stream_hash\":\"{:016x}\",\"ops_attempted\":{},\"window_ops\":{},\
         \"latency_samples\":{samples},\"samples_beyond_p99\":{},\"setups\":{:?},\"user_bytes\":{},\
         \"options\":\"{:?}\"}}",
        w.name(),
        workloads::stream_hash(w.as_ref()),
        r.attempted,
        r.window_ops(),
        samples / 100,
        r.setup_secs,
        r.books.user_bytes,
        w.options(),
    );
    Outcome {
        workload: w.name(),
        metrics,
        attempted: r.attempted,
        failed: r.failed,
        problems,
        meta,
    }
}

fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The line every output carries: what ran, where, and on which clocks.
fn meta_line(args: &Args, outcomes: &[Outcome]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut clocks = String::new();
    for m in outcomes.first().map_or(&[][..], |o| o.metrics.specs) {
        let _ = write!(
            clocks,
            "{}\"{}\":\"{}\"",
            if clocks.is_empty() { "" } else { "," },
            m.name,
            m.clock.name()
        );
    }
    let runs: Vec<&str> = outcomes.iter().map(|o| o.meta.as_str()).collect();
    format!(
        "{{\"meta\":{{\"git_sha\":\"{}\",\"nproc\":{nproc},\"rustc\":\"{}\",\"seed\":{},\"seconds\":{},\
         \"quick\":{},\"trace\":{},\"server_config\":\"dashboard: workers 1, commit_shards 1; socket ingest side pass: default\",\
         \"clock\":{{{clocks}}},\"runs\":[{}]}}}}",
        git_sha(),
        rustc_version(),
        args.seed,
        args.seconds,
        args.quick,
        args.trace,
        runs.join(",")
    )
}

/// The result line: the last line of standard output.
fn result_line(outcomes: &[Outcome], qualify: bool, quick: bool) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let correct = outcomes
        .iter()
        .all(|o| o.failed == 0 && o.problems.is_empty());
    let mut metrics = String::new();
    for o in outcomes {
        for (m, v) in o.metrics.specs.iter().zip(&o.metrics.values) {
            let prefix = if qualify {
                format!("{}/", o.workload)
            } else {
                String::new()
            };
            let _ = write!(
                metrics,
                "{}\"{prefix}{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                if metrics.is_empty() { "" } else { ", " },
                m.name,
                m.unit
            );
        }
    }
    // Consumers of BENCHMARK.json must reject a line that says "quick".
    let quick = if quick { "\"quick\": true, " } else { "" };
    format!("{{{quick}\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}")
}

/// Latency by kind of op, over the first segment of the window.
fn print_classes(workload: &str, seg: &run::Segment) {
    let mut classes: Vec<&str> = seg.classes.clone();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let of_class = seg
            .classes
            .iter()
            .zip(&seg.latencies_ns)
            .filter(|(c, _)| **c == class);
        let mut ms: Vec<f64> = of_class.map(|(_, &n)| n as f64 / 1e6).collect();
        println!(
            "{workload:<10} {:<38} n {:>6}  p50 {:>10.4} ms  p99 {:>10.4} ms",
            format!("latency of {class}"),
            ms.len(),
            report::quantile(&mut ms, 0.50),
            report::quantile(&mut ms, 0.99)
        );
    }
}

fn print_table(o: &Outcome) {
    println!(
        "{:<10} {:<38} {:>16} {:<6} {:<7} {:<6} clock",
        "workload", "metric", "value", "unit", "better", "bound"
    );
    for (m, v) in o.metrics.specs.iter().zip(&o.metrics.values) {
        let bound = m
            .bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "{:<10} {:<38} {:>16.6} {:<6} {:<7} {:<6} {}",
            o.workload,
            m.name,
            v,
            m.unit,
            m.better,
            bound,
            m.clock.name()
        );
    }
    for p in &o.problems {
        println!("{:<10} PROBLEM {p}", o.workload);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(runs) = args.selfcheck {
        return selfcheck::run(&args, runs);
    }
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let outcomes: Vec<Outcome> = names
        .iter()
        .map(|name| {
            let o = run_workload(name, params, args.trace);
            print_table(&o);
            o
        })
        .collect();
    println!("{}", meta_line(&args, &outcomes));
    println!(
        "{}",
        result_line(&outcomes, args.workload.is_none(), args.quick)
    );
    if outcomes
        .iter()
        .all(|o| o.failed == 0 && o.problems.is_empty())
    {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
