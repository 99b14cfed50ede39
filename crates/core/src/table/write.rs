//! The insert path: per-row uniqueness enforcement with the §3.4.4
//! fast paths, time-period binning, flush-dependency tracking, and
//! size-triggered sealing.
//!
//! Inserts serialize on the state mutex only for bookkeeping (period
//! lookup, dependency edges, max-timestamp tracking); the row itself
//! lands under the target memtablet's own write lock, so reader
//! snapshots of *other* tablets are never blocked by an insert.

use super::state::{DiskHandle, SharedMemTablet, TableState};
use super::{InsertReport, Table};
use crate::error::{Error, Result};
use crate::memtable::{MemTablet, MemTabletId};
use crate::period::{period_for, Period, PeriodKind};
use crate::row::Row;
use crate::stats::TableStats;
use crate::util::hash_bytes;
use crate::value::Value;
use littletable_vfs::Micros;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Table {
    /// Inserts a batch of rows. Each row must match the current schema;
    /// rows whose primary key already exists are counted as duplicates and
    /// skipped. Returns how many were inserted and how many were
    /// duplicates.
    pub fn insert(&self, rows: Vec<Vec<Value>>) -> Result<InsertReport> {
        let mut report = InsertReport::default();
        for values in rows {
            if self.insert_one(values)? {
                report.inserted += 1;
            } else {
                report.duplicates += 1;
            }
        }
        TableStats::add(&self.stats.rows_inserted, report.inserted as u64);
        TableStats::add(&self.stats.duplicate_keys, report.duplicates as u64);
        self.enforce_backlog()?;
        Ok(report)
    }

    fn insert_one(&self, values: Vec<Value>) -> Result<bool> {
        let now = self.clock.now_micros();
        let mut st = self.state.lock();
        if st.dropped {
            return Err(Error::NoSuchTable(self.name().to_string()));
        }
        let schema = st.schema.clone();
        let values = schema.check_row(values)?;
        let row = Row::new(values);
        let ts = row.ts(&schema)?;
        let key = row.encode_key(&schema)?;

        if st.mem_contains(&key, ts) {
            return Ok(false);
        }
        if self.opts.uniqueness_fast_paths && ts > st.max_ts {
            // Fast path 1 (§3.4.4): strictly newer than every existing
            // timestamp, so the key (which embeds the timestamp) is new.
            TableStats::add(&self.stats.unique_fast_ts, 1);
            self.do_insert(&mut st, key, row, ts, now);
            return Ok(true);
        }
        // Only tablets whose timespan contains `ts` can hold a duplicate.
        let candidates: Vec<DiskHandle> = st
            .disk
            .iter()
            .filter(|h| h.meta.min_ts <= ts && ts <= h.meta.max_ts)
            .cloned()
            .collect();
        if candidates.is_empty() {
            self.do_insert(&mut st, key, row, ts, now);
            return Ok(true);
        }
        if self.opts.uniqueness_fast_paths {
            // Fast path 2 (§3.4.4): larger key than any other in the
            // relevant tablets, checked against the cached indexes.
            let mut all_below = true;
            for h in &candidates {
                let footer = h.reader.footer()?;
                let max_key = footer.blocks.last().map(|b| b.last_key.as_slice());
                if max_key.is_some_and(|mk| key.as_slice() <= mk) {
                    all_below = false;
                    break;
                }
            }
            if all_below {
                TableStats::add(&self.stats.unique_fast_key, 1);
                self.do_insert(&mut st, key, row, ts, now);
                return Ok(true);
            }
        }
        // Slow path: a point query that may block on disk. Drop the state
        // mutex and serialize on the insert lock table instead, so queries
        // proceed unencumbered (§3.4.4).
        drop(st);
        TableStats::add(&self.stats.unique_slow, 1);
        let _slow = self.insert_lock.lock();
        for h in &candidates {
            if self.tablet_contains_key(h, &key)? {
                return Ok(false);
            }
        }
        let mut st = self.state.lock();
        // Re-check memory: another insert may have landed the key while we
        // were reading disk.
        if st.mem_contains(&key, ts) {
            return Ok(false);
        }
        self.do_insert(&mut st, key, row, ts, now);
        Ok(true)
    }

    pub(super) fn tablet_contains_key(&self, h: &DiskHandle, key: &[u8]) -> Result<bool> {
        let footer = h.reader.footer()?;
        if let Some(bloom) = &footer.bloom {
            if !bloom.may_contain(hash_bytes(key)) {
                return Ok(false);
            }
        }
        let bi = h.reader.seek_block(key)?;
        if bi >= footer.blocks.len() {
            return Ok(false);
        }
        h.reader.read_block(bi)?.contains_key(key)
    }

    fn bin(&self, ts: Micros, now: Micros) -> Period {
        if self.opts.respect_periods {
            period_for(ts, now)
        } else {
            // Ablation: a single global bin.
            Period {
                kind: PeriodKind::Week,
                start: 0,
            }
        }
    }

    fn do_insert(&self, st: &mut TableState, key: Vec<u8>, row: Row, ts: Micros, now: Micros) {
        let period = self.bin(ts, now);
        let tablet = match st.filling.get(&period) {
            Some(t) => t.clone(),
            None => {
                let id = MemTabletId(st.next_mem_id);
                st.next_mem_id += 1;
                let t = Arc::new(SharedMemTablet::new(MemTablet::new(
                    id,
                    now,
                    st.schema.clone(),
                )));
                st.filling.insert(period, t.clone());
                // Readers must learn about the new tablet before any row
                // can be stamped into it: read_view() loads its cutoff
                // before the snapshot, so a row visible under the cutoff
                // must sit in a tablet the snapshot already lists.
                self.publish_locked(st);
                t
            }
        };
        // Flush-ordering dependency (§3.4.3): the previously-written tablet
        // must flush before this one.
        if let Some(last) = st.last_insert {
            if last != tablet.id() {
                st.deps.add_edge(last, tablet.id());
            }
        }
        st.last_insert = Some(tablet.id());
        st.max_ts = st.max_ts.max(ts);
        let full = {
            let mut mem = tablet.write();
            // The sequence stamp is allocated inside the tablet's write
            // lock: a reader that loads cutoff C and later read-locks
            // this tablet is guaranteed to find every row stamped below
            // C fully inserted (the stamping critical section finished
            // before the reader's lock was granted).
            let seq = self.insert_seq.fetch_add(1, Ordering::SeqCst);
            mem.insert(key, row, ts, seq);
            mem.bytes() >= self.opts.flush_size
        };
        if full {
            self.seal_locked(st, tablet.id());
        }
    }

    /// Seals `target` together with its flush-dependency closure into one
    /// atomic group. Sealing moves tablets between writer-side sets only
    /// — the published snapshot's membership is unchanged, so no
    /// republish happens here.
    pub(super) fn seal_locked(&self, st: &mut TableState, target: MemTabletId) {
        let mut group_ids = st.deps.closure_before(target);
        group_ids.insert(target);
        // Only tablets still filling can be sealed now; earlier members of
        // the closure may already sit in earlier groups, which flush first
        // anyway (FIFO).
        let filling_ids: std::collections::HashSet<MemTabletId> =
            st.filling.values().map(|t| t.id()).collect();
        group_ids.retain(|id| filling_ids.contains(id));
        if group_ids.is_empty() {
            return;
        }
        let order = st.deps.order_group(&group_ids);
        let mut tablets = Vec::with_capacity(order.len());
        for id in order {
            let period = *st
                .filling
                .iter()
                .find(|(_, t)| t.id() == id)
                .map(|(p, _)| p)
                .expect("sealed tablet must be filling");
            let t = st.filling.remove(&period).expect("present");
            tablets.push(t);
        }
        st.deps.remove(&group_ids);
        if st.last_insert.is_some_and(|l| group_ids.contains(&l)) {
            st.last_insert = None;
        }
        let id = st.next_group_id;
        st.next_group_id += 1;
        st.sealed
            .push_back(super::state::SealedGroup { id, tablets });
    }

    /// Inline-flushes oldest groups while the sealed backlog exceeds the
    /// configured cap, bounding memory (§5.1.3's 100-tablet limit).
    fn enforce_backlog(&self) -> Result<()> {
        while self.state.lock().sealed_tablet_count() > self.opts.max_sealed_backlog {
            if !self.flush_next_group()? {
                break;
            }
        }
        Ok(())
    }
}
