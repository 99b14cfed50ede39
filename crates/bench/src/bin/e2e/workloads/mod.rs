//! The four workloads: what each preloads, its fixed op stream, and the
//! shape it must have for its numbers to mean what the README says.

mod dashboard;
mod ingest;
mod mixed;
mod sql_agg;

use crate::data::{Grid, Rng};
use crate::env::{Counters, Env};
use crate::ops::{Op, Path};
use crate::run::SEGMENTS;
use crate::spec::RUN_SECONDS;
use littletable_client::Client;
use littletable_core::{Options, Table};
use littletable_server::Server;
use littletable_sql::Session;
use littletable_vfs::Micros;

/// How long and how large; everything else about a workload is fixed.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Seconds' worth of ops in the window (see [`crate::spec::RUN_SECONDS`]).
    pub seconds: u64,
    /// Small sizes for smoke runs and unit tests; results are stamped
    /// `"quick": true` and are not comparable with full runs.
    pub quick: bool,
}

/// A workload's pre-state: the engine, and for the socket workload the
/// server and its one client.
pub struct Bed {
    pub env: Env,
    pub session: Session,
    pub client: Option<Client>,
    /// Dropped after the client; its `Drop` joins every server thread.
    pub server: Option<Server>,
}

impl Bed {
    pub fn new(env: Env) -> Bed {
        let session = Session::new(env.db.clone());
        Bed {
            env,
            session,
            client: None,
            server: None,
        }
    }
}

/// Counter deltas of the measured window, for the shape assertions.
pub struct WindowFacts {
    pub before: Counters,
    pub after: Counters,
    pub ops: u64,
    pub live_bytes: u64,
    /// The traced run's engine segment issues scans of its own.
    pub traced: bool,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// How ops reach the engine in the untraced run.
    fn path(&self) -> Path;
    fn grid(&self) -> &Grid;
    fn options(&self) -> Options;
    fn ttl(&self) -> Option<Micros> {
        None
    }
    /// Ticks inserted by [`Workload::setup`].
    fn preloaded_ticks(&self) -> i64;
    /// Builds the pre-state on an empty disk.
    fn setup(&self) -> Bed;
    /// Warm-up ops, then the window's.
    fn ops(&self) -> &[Op];
    fn warmup_ops(&self) -> usize;
    /// Ops are prepared, timed and verified this many at a time.
    fn chunk(&self) -> usize;
    /// The traced run cuts the window into equal segments of whole
    /// units, so that every segment holds the same mix.
    fn unit(&self) -> usize;
    /// How many times an untraced run repeats set-up, warm-up and window
    /// (see [`crate::run::DEFAULT_REPS`]).
    fn reps(&self) -> usize {
        crate::run::DEFAULT_REPS
    }
    /// Whether two passes on the same seed count exactly the same work.
    /// Only a single table filling one period at a time does: the
    /// engine's rollup fold and its map of filling tablets iterate
    /// `HashMap`s, whose order differs from one map to the next, and
    /// with it a few seeks and descriptor bytes (under 1 % of any
    /// count). Those workloads are held to that 1 % instead.
    fn repeats_exactly(&self) -> bool {
        false
    }
    /// Reasons the window did not have the shape the workload is meant
    /// to have; a mis-sized workload fails instead of reporting.
    fn shape_errors(&self, facts: &WindowFacts) -> Vec<String>;
}

pub fn build(name: &str, p: Params) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ingest" => Box::new(ingest::Ingest::new(p)),
        "dashboard" => Box::new(dashboard::Dashboard::new(p)),
        "sql_agg" => Box::new(sql_agg::SqlAgg::new(p)),
        "mixed" => Box::new(mixed::Mixed::new(p)),
        _ => return None,
    })
}

/// Units (cycles, batches) in the windows of an op list: `per_window`
/// of them in each of [`SEGMENTS`] windows when `--seconds` is
/// [`RUN_SECONDS`], and in proportion otherwise.
fn window_units(per_window: usize, seconds: u64) -> usize {
    (per_window * seconds as usize / RUN_SECONDS as usize).max(1) * SEGMENTS
}

/// Inserts ticks `0..ticks` of every device in time order with the clock
/// parked at the end of history, flushing sealed tablets as it goes.
fn bulk_preload(env: &Env, table: &Table, grid: &Grid, ticks: i64) {
    env.advance_to(grid.ts(ticks));
    let mut batch = Vec::with_capacity(512);
    let mut batches = 0u64;
    for tick in 0..ticks {
        for device in 0..grid.devices {
            batch.push(grid.row(device, tick));
            if batch.len() == 512 {
                table
                    .insert(std::mem::replace(&mut batch, Vec::with_capacity(512)))
                    .expect("preload insert");
                batches += 1;
                if batches.is_multiple_of(64) {
                    env.maintain().expect("preload maintain");
                }
            }
        }
    }
    if !batch.is_empty() {
        table.insert(batch).expect("preload insert");
    }
}

/// Picks `0..n` with a skew towards low ranks: the lowest tenth gets
/// nearly half of the picks.
fn skewed(rng: &mut Rng, n: i64) -> i64 {
    let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    ((u * u * u) * n as f64) as i64
}

/// Maps popularity ranks to ids `0..n`: the same permutation for every
/// `--seed`. Which series are popular decides which blocks stay cached;
/// letting the seed pick them moved `read_kb_per_op` by 4 % from seed to
/// seed, for no gain in coverage.
fn popularity(fixed: u64, n: i64) -> Vec<i64> {
    let mut ids: Vec<i64> = (0..n).collect();
    Rng::new(fixed).shuffle(&mut ids);
    ids
}

/// The `n`-th of `total` distinct values in a seeded order: a bijection
/// on `0..total`, so no two statements of a run share a window.
fn distinct(seed: u64, n: u64, total: u64) -> u64 {
    const STEP: u64 = 7919;
    debug_assert!(!total.is_multiple_of(STEP) && n < total);
    (seed % total + n * STEP) % total
}

/// A fingerprint of everything a run will ask of the engine: a row of
/// its data, every op, and for every insert the first row it carries.
pub fn stream_hash(w: &dyn Workload) -> u64 {
    use crate::data::splitmix;
    let mut h = 0u64;
    let mut eat = |text: String| {
        for b in text.bytes() {
            h = splitmix(h ^ b as u64);
        }
    };
    eat(format!("{:?}", w.grid().row(0, 0)));
    for op in w.ops() {
        eat(format!("{op:?}"));
        if let Op::Insert { tick, first, .. } = op {
            eat(format!("{:?}", w.grid().row(*first, *tick)));
        }
    }
    h
}
