//! `ingest`: the paper's peak-rate regime (§5.1.2–3). 512-row batches
//! through the request path, a maintenance pass every eighth batch (the
//! server's `group_commit_rows` of 4096), virtual time +1 s per batch, so
//! tablets flush by size and merge after the merge delay. All of it on
//! this one thread: flushes and merges are charged to the batch whose
//! maintenance pass ran them, as stalls.

use super::{window_units, Bed, Params, WindowFacts, Workload};
use crate::data::{Grid, SECOND, T0};
use crate::env::Env;
use crate::ops::{Op, Path};
use littletable_core::Options;

const BATCH: i64 = 512;
const MAINTAIN_EVERY: usize = 8;
/// Batches in a window at the default `--seconds`: three and a half
/// seconds on the reference box, four times over.
const WINDOW_BATCHES: usize = 768;

pub struct Ingest {
    grid: Grid,
    quick: bool,
    warmup: usize,
    ops: Vec<Op>,
}

impl Ingest {
    pub fn new(p: Params) -> Ingest {
        let (warmup, window) = if p.quick {
            (40, 400)
        } else {
            (600, window_units(WINDOW_BATCHES, p.seconds))
        };
        let ops = (0..warmup + window)
            .map(|i| Op::Insert {
                tick: i as i64,
                first: 0,
                count: BATCH,
                maintain: (i + 1) % MAINTAIN_EVERY == 0,
                then: T0 + (i as i64 + 1) * SECOND,
            })
            .collect();
        Ingest {
            grid: Grid {
                seed: p.seed,
                devices: BATCH,
                start: T0,
                step: SECOND,
            },
            quick: p.quick,
            warmup,
            ops,
        }
    }
}

impl Workload for Ingest {
    fn name(&self) -> &'static str {
        "ingest"
    }
    fn path(&self) -> Path {
        Path::Wire
    }
    fn grid(&self) -> &Grid {
        &self.grid
    }
    fn options(&self) -> Options {
        // An eighth of the production 16 MB flush size (a sixteenth in a
        // quick run), so that a five-second window holds some twenty
        // flushes and a dozen merges and write amplification has
        // levelled off; the default would fit two flushes.
        Options {
            flush_size: if self.quick { 1 << 20 } else { 2 << 20 },
            ..Options::default()
        }
    }
    fn preloaded_ticks(&self) -> i64 {
        0
    }
    fn repeats_exactly(&self) -> bool {
        true
    }
    fn setup(&self) -> Bed {
        let env = Env::new(self.options());
        env.create_usage(None);
        Bed::new(env)
    }
    fn ops(&self) -> &[Op] {
        &self.ops
    }
    fn warmup_ops(&self) -> usize {
        self.warmup
    }
    fn chunk(&self) -> usize {
        32
    }
    fn unit(&self) -> usize {
        MAINTAIN_EVERY
    }
    fn shape_errors(&self, f: &WindowFacts) -> Vec<String> {
        // One flush per ~27 k rows at this flush size and two merges per
        // three flushes; demand half of that (7 and 3 in a pass).
        let rows = f.ops * BATCH as u64;
        let (min_flushes, min_merges) = (rows / 54_000, rows / 110_000);
        let flushes = f.after.table.tablets_flushed - f.before.table.tablets_flushed;
        let merges = f.after.table.merges - f.before.table.merges;
        let mut errors = Vec::new();
        if flushes < min_flushes {
            errors.push(format!(
                "{flushes} flushes in the window, expected at least {min_flushes}"
            ));
        }
        if merges < min_merges {
            errors.push(format!(
                "{merges} merges in the window, expected at least {min_merges}"
            ));
        }
        errors
    }
}
