//! Group commit over per-table write shards: seal/flush/merge work is
//! coalesced across connections, and distinct tables commit on distinct
//! shards.
//!
//! Workers record how many rows each insert landed *and for which
//! table*; the table name hashes to one of a small fixed set of commit
//! shards, each with its own scheduler thread. A shard sleeps until its
//! slice has dirty work, lets a short coalescing window pass (or a row
//! threshold trip), then runs maintenance over just the tables that hash
//! to it. A hundred connections inserting concurrently therefore share
//! one seal/flush cycle per shard instead of racing per-insert — and two
//! hot tables on different shards seal and flush in parallel instead of
//! queueing behind one whole-catalog sweep. The sweep resolves its
//! tables through the Db's published catalog snapshots, so shards never
//! wait on each other's flush I/O (or on DDL) to resolve a table.

use crate::ServerConfig;
use littletable_core::db::Db;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

#[derive(Default)]
struct ShardState {
    /// Rows inserted into this shard's tables since its last commit pass.
    dirty_rows: u64,
    /// Set once; the shard's scheduler drains and exits.
    stopped: bool,
}

struct CommitShard {
    state: Mutex<ShardState>,
    cv: Condvar,
    /// Commit passes this shard has run (observability + tests).
    commits: AtomicU64,
}

/// Shared handle between the workers (producers of per-table dirty-row
/// counts) and the commit shard threads (consumers).
pub(crate) struct GroupCommit {
    shards: Vec<CommitShard>,
}

impl GroupCommit {
    /// Builds `shards` commit shards (at least one).
    pub fn new(shards: usize) -> GroupCommit {
        GroupCommit {
            shards: (0..shards.max(1))
                .map(|_| CommitShard {
                    state: Mutex::new(ShardState::default()),
                    cv: Condvar::new(),
                    commits: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Number of commit shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `table`: a stable hash of the name, so every
    /// insert into a table lands on the same shard and distinct tables
    /// spread across shards.
    pub fn shard_of(&self, table: &str) -> usize {
        let mut h = DefaultHasher::new();
        table.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Commit passes run so far, per shard.
    pub fn commit_counts(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.commits.load(Ordering::Relaxed))
            .collect()
    }

    /// Records `n` freshly inserted rows against `table`'s shard and
    /// nudges that shard's scheduler.
    pub fn note_rows(&self, table: &str, n: u64) {
        if n == 0 {
            return;
        }
        let shard = &self.shards[self.shard_of(table)];
        let mut st = shard.state.lock().unwrap();
        st.dirty_rows += n;
        shard.cv.notify_all();
    }

    /// Asks every shard's scheduler to run one final pass and exit.
    pub fn stop(&self) {
        for shard in &self.shards {
            let mut st = shard.state.lock().unwrap();
            st.stopped = true;
            shard.cv.notify_all();
        }
    }

    /// One shard's committer body; runs on its own thread until [`stop`].
    ///
    /// Each cycle: block until the shard's tables have dirty rows,
    /// coalesce further arrivals for up to
    /// [`ServerConfig::GROUP_COMMIT_INTERVAL`] (cut short when
    /// [`ServerConfig::GROUP_COMMIT_ROWS`] accumulate), then run one
    /// maintenance pass over the tables that hash to this shard. Errors
    /// are retried implicitly by the next cycle.
    ///
    /// [`stop`]: GroupCommit::stop
    pub fn run_shard(&self, idx: usize, db: &Db) {
        let shard = &self.shards[idx];
        loop {
            let mut st = shard.state.lock().unwrap();
            while st.dirty_rows == 0 && !st.stopped {
                st = shard.cv.wait(st).unwrap();
            }
            if st.dirty_rows == 0 && st.stopped {
                return;
            }
            let deadline = Instant::now() + ServerConfig::GROUP_COMMIT_INTERVAL;
            while st.dirty_rows < ServerConfig::GROUP_COMMIT_ROWS && !st.stopped {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                st = shard.cv.wait_timeout(st, left).unwrap().0;
            }
            st.dirty_rows = 0;
            let stopped = st.stopped;
            drop(st);
            // Sweep this shard's slice of the catalog. `list_tables` and
            // `maintain_table` resolve names against a loaded snapshot,
            // so a sweep costs nothing on other shards' tables beyond
            // the hash.
            for name in db.list_tables() {
                if self.shard_of(&name) == idx {
                    let _ = db.maintain_table(&name);
                }
            }
            shard.commits.fetch_add(1, Ordering::Relaxed);
            if stopped {
                return;
            }
        }
    }
}
