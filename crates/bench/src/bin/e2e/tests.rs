//! Determinism of the workloads, at quick sizes. `run::run` already
//! makes three passes on fresh disks and refuses a run whose passes
//! counted different work, so one run per workload is the comparison.

use crate::report::end_to_end;
use crate::trace::Tracer;
use crate::workloads::{build, stream_hash, Params};
use crate::{result_line, run, run_workload};

fn quick(seed: u64) -> Params {
    Params {
        seed,
        seconds: 1,
        quick: true,
    }
}

#[test]
fn one_seed_gives_one_stream_and_another_seed_another() {
    for name in ["ingest", "dashboard", "sql_agg", "mixed"] {
        let hash = |seed| stream_hash(build(name, quick(seed)).unwrap().as_ref());
        assert_eq!(hash(5), hash(5), "{name}");
        assert_ne!(hash(5), hash(6), "{name}");
    }
}

#[test]
fn in_process_workloads_count_the_same_work_every_time() {
    for name in ["ingest", "sql_agg", "mixed"] {
        let w = build(name, quick(5)).unwrap();
        let counted = |r: &run::Report| {
            let m = end_to_end(r);
            let pick = |n: &str| m.values[m.specs.iter().position(|s| s.name == n).unwrap()];
            let table = r.books.end.table;
            (
                [
                    pick("write_amp"),
                    pick("space_amp"),
                    pick("vdisk_ms_per_op"),
                    pick("read_kb_per_op"),
                ],
                (table.tablets_flushed, table.merges),
            )
        };
        let a = run::run(w.as_ref(), false, true, &mut Tracer::new(false));
        assert_eq!(
            (a.failed, &a.failures, &a.shape_errors),
            (0, &vec![], &vec![]),
            "{name}"
        );
        let b = run::run(w.as_ref(), false, true, &mut Tracer::new(false));
        let ((ma, ca), (mb, cb)) = (counted(&a), counted(&b));
        assert_eq!(ca, cb, "{name}: flush and merge counts");
        assert!(ca.0 > 0, "{name}: a quick run still flushes");
        for (x, y) in ma.iter().zip(&mb) {
            if w.repeats_exactly() {
                assert_eq!(x, y, "{name}");
            } else {
                assert!((x - y).abs() <= 0.01 * x.abs(), "{name}: {x} against {y}");
            }
        }
    }
}

#[test]
fn quick_runs_are_stamped_and_the_socket_workload_checks_out() {
    let o = run_workload("dashboard", quick(7), false);
    assert_eq!((o.failed, &o.problems), (0, &vec![]));
    assert!(o.metrics.values.iter().all(|v| v.is_finite() && *v > 0.0));
    let line = result_line(&[o], false, true);
    assert!(
        line.starts_with("{\"quick\": true, \"correct\": true"),
        "{line}"
    );
}

#[test]
fn the_traced_run_reports_every_layer() {
    let o = run_workload("mixed", quick(7), true);
    assert_eq!((o.failed, &o.problems), (0, &vec![]));
    assert_eq!(o.metrics.values.len(), crate::spec::PER_LAYER.len());
    assert!(o.metrics.values.iter().all(|v| v.is_finite()));
    let value =
        |n: &str| o.metrics.values[o.metrics.specs.iter().position(|s| s.name == n).unwrap()];
    for name in [
        "proto.encode_request_us",
        "server.handle_insert_us",
        "core.write.insert_us_per_row",
        "core.read.first_row_p50_us",
        "core.maintenance.busy_ms",
        "sql.execute_rollup_us",
        "vfs.io_ops_per_op",
    ] {
        assert!(value(name) > 0.0, "{name}");
    }
}
