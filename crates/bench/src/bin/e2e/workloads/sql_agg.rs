//! `sql_agg`: dashboard-panel SQL on a table that fits in the block
//! cache, so that only `sql` and `core.colscan` are on the clock.

use super::{bulk_preload, distinct, window_units, Bed, Params, WindowFacts, Workload};
use crate::data::{Grid, HOUR, MINUTE, T0};
use crate::env::Env;
use crate::ops::{Op, Path, Shape};
use littletable_core::{Options, Query};

/// Statements per cycle: six pushdown panels over distinct windows, two
/// rollup-served hourly panels, one footer-statistics count, and one
/// verbatim repeat for the result cache.
const CYCLE: usize = 10;
const MIX_SEED: u64 = 0x5a1_a99;
/// Set-up is quick here and this is the workload the neighbours move
/// most, so seven repetitions where the others make four.
const REPS: usize = 7;
/// Cycles in a window at the default `--seconds`: two seconds on the
/// reference box, seven times over.
const WINDOW_CYCLES: usize = 200;

pub struct SqlAgg {
    grid: Grid,
    ticks: i64,
    warmup: usize,
    ops: Vec<Op>,
}

impl SqlAgg {
    pub fn new(p: Params) -> SqlAgg {
        let (devices, ticks, warm_cycles, cycles) = if p.quick {
            (64, 1024, 2, 20)
        } else {
            (32, 2048, 10, window_units(WINDOW_CYCLES, p.seconds))
        };
        let grid = Grid {
            seed: p.seed,
            devices,
            start: T0,
            step: MINUTE,
        };
        let networks = grid.networks() as u64;
        // A panel covers 5 000 rows: a network's four devices for 1250
        // minutes (half that in a quick run), starting at any minute
        // that leaves room for them.
        let span = if p.quick { 600 } else { 1250 };
        let starts = (ticks - span) as u64;
        let hours = ticks / 60;
        let lengths = (hours / 2) as u64;
        // No two statements of an op list may ask the same question (the
        // result cache would answer the second), and a network has only
        // so many windows: beyond 19 `--seconds` the list stops growing.
        let visits = ((starts - 1) / 6).min((lengths * lengths - 1) / 2);
        let cycles = cycles.min((networks * visits) as usize - warm_cycles);
        // A cycle is one page of panels about one network, and the
        // networks take turns: a page's statements share the network's
        // rows, under a megabyte decoded, as a dashboard's panels do. As
        // in `dashboard`, `--seed` decides the data and not the
        // questions. `n` counts a network's statements of each shape.
        let mut n = vec![[0u64; 3]; networks as usize];
        let mut window = |cycle: usize, shape: Shape| {
            let network = cycle as u64 % networks;
            let i = &mut n[network as usize][shape as usize];
            *i += 1;
            let salt = MIX_SEED ^ (network << 8) ^ shape as u64;
            match shape {
                Shape::Pushdown | Shape::Stats => {
                    let lo = grid.ts(distinct(salt, *i, starts) as i64);
                    (network as i64, lo, lo + span * MINUTE)
                }
                // Whole hours below the last full one, so the rollup
                // answers without touching the base table.
                Shape::Rollup => {
                    let v = distinct(salt, *i, lengths * lengths);
                    let first = (v % lengths) as i64;
                    let len = hours / 2 - (v / lengths) as i64;
                    let lo = T0 + first * HOUR;
                    (network as i64, lo, lo + len.min(hours - 1 - first) * HOUR)
                }
            }
        };
        use Shape::{Pushdown, Rollup, Stats};
        let slots = [
            Pushdown, Pushdown, Rollup, Pushdown, Pushdown, Stats, Pushdown, Rollup, Pushdown,
        ];
        let mut ops = Vec::with_capacity((warm_cycles + cycles) * CYCLE);
        for cycle in 0..warm_cycles + cycles {
            for shape in slots {
                let (network, lo, hi) = window(cycle, shape);
                ops.push(Op::Sql {
                    shape,
                    repeat: false,
                    network,
                    lo,
                    hi,
                    ticks,
                });
            }
            let Some(Op::Sql {
                shape,
                network,
                lo,
                hi,
                ..
            }) = ops.last().cloned()
            else {
                unreachable!("the cycle ends with a statement")
            };
            ops.push(Op::Sql {
                shape,
                repeat: true,
                network,
                lo,
                hi,
                ticks,
            });
        }
        SqlAgg {
            grid,
            ticks,
            warmup: warm_cycles * CYCLE,
            ops,
        }
    }
}

pub const CREATE_ROLLUP: &str =
    "CREATE ROLLUP usage_1h ON usage PERIOD '1h' AGGREGATE (up, down) DISTINCT (device)";

impl Workload for SqlAgg {
    fn name(&self) -> &'static str {
        "sql_agg"
    }
    fn path(&self) -> Path {
        Path::Wire
    }
    fn grid(&self) -> &Grid {
        &self.grid
    }
    fn options(&self) -> Options {
        Options::default()
    }
    fn preloaded_ticks(&self) -> i64 {
        self.ticks
    }
    fn setup(&self) -> Bed {
        let env = Env::new(self.options());
        let table = env.create_usage(None);
        bulk_preload(&env, &table, &self.grid, self.ticks);
        env.settle();
        let bed = Bed::new(env);
        bed.session
            .execute(CREATE_ROLLUP)
            .expect("create the rollup");
        bed.env.settle();
        // Read every block of both tables once, so the window starts
        // with all of them in the cache.
        for name in ["usage", "usage_1h"] {
            let t = bed.env.db.table(name).expect("table exists");
            let rows = t.query_all(&Query::all()).expect("warming scan");
            std::hint::black_box(rows.len());
        }
        bed
    }
    fn ops(&self) -> &[Op] {
        &self.ops
    }
    fn warmup_ops(&self) -> usize {
        self.warmup
    }
    fn chunk(&self) -> usize {
        CYCLE
    }
    fn unit(&self) -> usize {
        CYCLE
    }
    fn reps(&self) -> usize {
        REPS
    }
    fn shape_errors(&self, f: &WindowFacts) -> Vec<String> {
        let (a, b) = (&f.before.table, &f.after.table);
        let cycles = f.ops / CYCLE as u64;
        let mut errors = Vec::new();
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                errors.push(format!("{what}: {got}, the schedule has {want}"));
            }
        };
        expect(
            "cache misses in the window",
            b.cache_misses - a.cache_misses,
            0,
        );
        if !f.traced {
            expect(
                "pushdown scans",
                b.pushdown_scans - a.pushdown_scans,
                7 * cycles,
            );
        }
        expect(
            "rollup-served statements",
            b.rollup_hits - a.rollup_hits,
            2 * cycles,
        );
        expect(
            "result-cache hits",
            b.result_cache_hits - a.result_cache_hits,
            cycles,
        );
        errors
    }
}
