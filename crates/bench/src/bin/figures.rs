//! Regenerates the paper's tables and figures, and this implementation's
//! ingest figure, by name: `figures fig2 fig9`, `figures ingest`,
//! `figures all`; `--quick` for a reduced, CI-sized run.
use littletable_bench::figures::{
    ablations, applog, fig2, fig3, fig4, fig5, fig6, fig9, fleetfigs, headline, ingestfig,
};
use littletable_bench::report::FigureResult;

/// Runs one name's figures; `true` asks for the quick sizes.
type Run = fn(bool) -> Vec<FigureResult>;

/// Every figure under the name the command line takes, in the order
/// `all` runs them.
const FIGURES: &[(&str, Run)] = &[
    ("fig2", |q| vec![fig2::run(q)]),
    ("fig3", |q| vec![fig3::run(q)]),
    ("fig4", |q| vec![fig4::run(q)]),
    ("fig5", |q| vec![fig5::run(q)]),
    ("fig6", |q| vec![fig6::run(q)]),
    ("fig7", |q| vec![fleetfigs::run_fig7(q)]),
    ("fig8", |q| vec![fleetfigs::run_fig8(q)]),
    ("fig9", |q| vec![fig9::run(q)]),
    ("fig10", |q| vec![fleetfigs::run_fig10(q)]),
    ("rates", |q| vec![fleetfigs::run_rates(q)]),
    ("headline", |q| vec![headline::run(q)]),
    ("applog", |q| vec![applog::run(q)]),
    ("ablations", |q| {
        vec![
            ablations::run_bloom(q),
            ablations::run_periods(q),
            ablations::run_unique(q),
        ]
    }),
    ("ingest", |q| vec![ingestfig::run(q)]),
];

fn main() {
    let quick = littletable_bench::quick_flag();
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let known = |name: &str| name == "all" || FIGURES.iter().any(|(n, _)| *n == name);
    if names.is_empty() || !names.iter().all(|n| known(n)) {
        let list: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: figures [--quick] <name>...");
        eprintln!("names: all {}", list.join(" "));
        std::process::exit(2);
    }
    for name in &names {
        for (_, run) in FIGURES.iter().filter(|(n, _)| name == "all" || n == name) {
            for fig in run(quick) {
                fig.emit();
            }
        }
    }
}
