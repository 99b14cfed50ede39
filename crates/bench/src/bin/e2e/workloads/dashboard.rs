//! `dashboard`: the production read mix of §5.2.4 over a real socket, on
//! a table about four times the block cache.

use super::{bulk_preload, popularity, skewed, window_units, Bed, Params, WindowFacts, Workload};
use crate::data::{Grid, Rng, MINUTE, T0};
use crate::env::Env;
use crate::ops::{Op, Path};
use littletable_client::Client;
use littletable_core::Options;
use littletable_server::{Server, ServerConfig};
use littletable_workload::{sample_lookback, sample_query_kind, QueryKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Ops per cycle. The mix — which (kind, lookback) pairs a cycle holds,
/// in which order, asking for which devices — is drawn once from
/// `workload::queries` with a constant seed. `--seed` decides every value
/// in the table (and through them every compressed size), not the
/// questions: runs with different seeds measure the same work, to within
/// half a percent even in what they read from disk.
const CYCLE: usize = 400;
const MIX_SEED: u64 = 0x11771e7ab1e;
/// Cycles in a window at the default `--seconds`: three seconds on the
/// reference box, four times over.
const WINDOW_CYCLES: usize = 4;

pub struct Dashboard {
    grid: Grid,
    ticks: i64,
    quick: bool,
    warmup: usize,
    ops: Vec<Op>,
}

impl Dashboard {
    pub fn new(p: Params) -> Dashboard {
        let (devices, ticks, warm_cycles, cycles) = if p.quick {
            (64, 256, 1, 4)
        } else {
            (512, 1024, 1, window_units(WINDOW_CYCLES, p.seconds))
        };
        let grid = Grid {
            seed: p.seed,
            devices,
            start: T0,
            step: MINUTE,
        };
        let now = grid.ts(ticks);
        let mut mix_rng = SmallRng::seed_from_u64(MIX_SEED);
        let mix: Vec<(QueryKind, i64)> = (0..CYCLE)
            .map(|_| {
                (
                    sample_query_kind(&mut mix_rng),
                    sample_lookback(&mut mix_rng),
                )
            })
            .collect();
        let device_of = popularity(MIX_SEED ^ 0xd, devices);
        let network_of = popularity(MIX_SEED ^ 0xe, grid.networks());
        let mut ranks = Rng::new(MIX_SEED);
        let mut order = Rng::new(MIX_SEED);
        let mut ops = Vec::with_capacity((warm_cycles + cycles) * CYCLE);
        for _ in 0..warm_cycles + cycles {
            let mut cycle: Vec<Op> = mix
                .iter()
                .map(|&(kind, lookback)| {
                    let device = device_of[skewed(&mut ranks, devices) as usize];
                    let network = network_of[skewed(&mut ranks, grid.networks()) as usize];
                    match kind {
                        QueryKind::DeviceScan => Op::Scan {
                            network: Grid::network(device),
                            device: Some(device),
                            lo: now - lookback,
                            hi: now,
                            ticks,
                        },
                        QueryKind::NetworkScan => Op::Scan {
                            network,
                            device: None,
                            lo: now - lookback,
                            hi: now,
                            ticks,
                        },
                        QueryKind::LatestForPrefix => Op::Latest { device, ticks },
                    }
                })
                .collect();
            order.shuffle(&mut cycle);
            ops.extend(cycle);
        }
        Dashboard {
            grid,
            ticks,
            quick: p.quick,
            warmup: warm_cycles * CYCLE,
            ops,
        }
    }
}

impl Workload for Dashboard {
    fn name(&self) -> &'static str {
        "dashboard"
    }
    fn path(&self) -> Path {
        Path::Socket
    }
    fn grid(&self) -> &Grid {
        &self.grid
    }
    fn options(&self) -> Options {
        // An eighth of the 4 M rows the issue sized for the default
        // 64 MB cache, so that four set-ups fit the driver's time
        // budget, under an eighth of the cache: the table is still ~4x
        // the cache and four block reads in ten miss. Two shards, not
        // eight, keep a shard's slice large enough for a tablet footer,
        // which is not cached at all otherwise
        // (`BlockCache::insert_footer`).
        Options {
            block_cache_bytes: if self.quick { 1 << 20 } else { 8 << 20 },
            block_cache_shards: 2,
            ..Options::default()
        }
    }
    fn preloaded_ticks(&self) -> i64 {
        self.ticks
    }
    fn setup(&self) -> Bed {
        let env = Env::new(self.options());
        let table = env.create_usage(None);
        bulk_preload(&env, &table, &self.grid, self.ticks);
        env.settle();
        // One event-loop worker and one commit shard: the load is one
        // closed-loop connection and this box has two cores.
        let config = ServerConfig {
            workers: 1,
            commit_shards: 1,
            ..ServerConfig::default()
        };
        let mut server =
            Server::bind_with(env.db.clone(), "127.0.0.1:0", config).expect("bind the server");
        server.start().expect("start the server");
        let client = Client::connect(server.local_addr()).expect("connect");
        let mut bed = Bed::new(env);
        bed.client = Some(client);
        bed.server = Some(server);
        bed
    }
    fn ops(&self) -> &[Op] {
        &self.ops
    }
    fn warmup_ops(&self) -> usize {
        self.warmup
    }
    fn chunk(&self) -> usize {
        8
    }
    fn unit(&self) -> usize {
        CYCLE
    }
    fn shape_errors(&self, f: &WindowFacts) -> Vec<String> {
        let (a, b) = (&f.before.table, &f.after.table);
        let served =
            (b.cache_hits - a.cache_hits) + (b.cache_compressed_hits - a.cache_compressed_hits);
        let total = served + (b.cache_misses - a.cache_misses);
        let hit_frac = served as f64 / total.max(1) as f64;
        let mut errors = Vec::new();
        if !(0.3..=0.9).contains(&hit_frac) {
            errors.push(format!(
                "cache hit fraction {hit_frac:.3} is outside [0.3, 0.9]"
            ));
        }
        let decoded = self.ticks as u64 * Grid::user_bytes_of(0, self.grid.devices);
        let budget = self.options().block_cache_bytes as u64;
        let compressed_tier = self.options().cache_tier_budgets().1 as u64;
        if decoded < 3 * budget || f.live_bytes < 3 * compressed_tier {
            errors.push(format!(
                "{decoded} user bytes, {} on disk: not larger than the {budget}-byte cache",
                f.live_bytes
            ));
        }
        errors
    }
}
