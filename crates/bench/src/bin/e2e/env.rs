//! The engine under test on the simulated paper disk, the counters the
//! benchmark reads from it, and the process's own CPU and memory.

use crate::data::{self, SECOND, T0};
use littletable_core::stats::StatsSnapshot;
use littletable_core::{Db, DbStatsSnapshot, Options, Table};
use littletable_vfs::{Clock, DiskParams, DiskStats, Micros, SimClock, SimVfs};
use std::sync::Arc;

/// One engine on its own simulated disk and virtual clock. The bench is
/// the only driver of the clock (besides the disk model's own charges)
/// and of maintenance: `Options::default()` has `background: false`.
pub struct Env {
    pub vfs: SimVfs,
    pub clock: SimClock,
    pub db: Db,
}

impl Env {
    pub fn new(opts: Options) -> Env {
        let clock = SimClock::new(T0);
        let vfs = SimVfs::new(DiskParams::paper_disk(), clock.clone());
        let db = Db::open(Arc::new(vfs.clone()), Arc::new(clock.clone()), opts)
            .expect("open an empty database");
        Env { vfs, clock, db }
    }

    pub fn now(&self) -> Micros {
        self.clock.now_micros()
    }

    /// Moves virtual time to `target` unless disk charges already
    /// carried it past (`SimClock::set` would panic there).
    pub fn advance_to(&self, target: Micros) {
        self.clock.advance((target - self.now()).max(0));
    }

    pub fn create_usage(&self, ttl: Option<Micros>) -> Arc<Table> {
        self.db
            .create_table(data::TABLE, data::schema(), ttl)
            .expect("create the usage table")
    }

    pub fn usage(&self) -> Arc<Table> {
        self.db.table(data::TABLE).expect("the usage table exists")
    }

    /// One maintenance pass the way the server's group committer makes
    /// it: table by table in name order, then the cache split. (`Db::
    /// maintain` walks a `HashMap` of tables, whose order differs from
    /// process to process and with it the disk's seeks and the
    /// descriptors' bytes.) Returns whether any table had work.
    pub fn maintain(&self) -> littletable_core::Result<bool> {
        let mut worked = false;
        for name in self.db.list_tables() {
            let r = self.db.maintain_table(&name)?;
            worked |= r != littletable_core::MaintenanceReport::default();
        }
        self.db.rebalance_cache();
        Ok(worked)
    }

    /// Flushes every table, in name order.
    pub fn flush_all(&self) {
        for name in self.db.list_tables() {
            let table = self.db.table(&name).expect("listed tables exist");
            table.flush_all().expect("flush");
        }
    }

    /// Flushes everything and merges until a pass after the merge delay
    /// finds nothing left to do.
    pub fn settle(&self) {
        self.flush_all();
        loop {
            self.clock.advance(self.db.options().merge_delay + SECOND);
            if !self.maintain().expect("maintain") {
                return;
            }
            while self.maintain().expect("maintain") {}
        }
    }

    pub fn counters(&self) -> Counters {
        Counters {
            table: self
                .db
                .table(data::TABLE)
                .map(|t| t.stats().snapshot())
                .unwrap_or_default(),
            db: self.db.stats(),
            disk: self.vfs.model().stats(),
            io_ops: self.vfs.op_count(),
        }
    }
}

/// Everything counted, read at one boundary. Deltas of two of these
/// bracket a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub table: StatsSnapshot,
    pub db: DbStatsSnapshot,
    pub disk: DiskStats,
    pub io_ops: u64,
}

/// CPU nanoseconds this process has used, all threads, user and system:
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, read straight from libc,
/// which `std` links anyway. (`/proc/self/task/*/schedstat` is only
/// brought up to date at scheduler ticks, milliseconds apart: on chunks
/// of ten milliseconds that made `cpu_ms_per_op` twice as noisy as the
/// wall clock.)
pub fn cpu_nanos() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// `(VmHWM, VmRSS)` in MB from `/proc/self/status`.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}
