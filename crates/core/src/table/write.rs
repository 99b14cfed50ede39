//! The insert path: a batch validated whole, then applied under one hold
//! of the state mutex, dropped only around the slow path's disk probe —
//! uniqueness with the §3.4.4 fast paths, time-period binning, insert
//! stamps and size-triggered sealing. Rows land under their memtablet's
//! own write lock, taken once per run of rows bound for it, so reader
//! snapshots of *other* tablets are never blocked.

use super::state::{DiskHandle, SharedMemTablet, TableState};
use super::{InsertReport, Table};
use crate::block::BlobColumn;
use crate::error::{Error, Result};
use crate::keyenc::encode_component;
use crate::memtable::{hash_key, MemTablet, MemTabletId};
use crate::period::{period_for, Period, PeriodKind};
use crate::schema::SchemaRef;
use crate::stats::TableStats;
use crate::util::hash_bytes;
use crate::value::Value;
use littletable_vfs::Micros;
use parking_lot::MutexGuard;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// An insert batch, validated whole before its first row is applied: each
/// row checked against the schema, its timestamp read, its key encoded
/// into one arena.
struct Batch {
    schema: SchemaRef,
    rows: Vec<Vec<Value>>,
    ts: Vec<Micros>,
    keys: BlobColumn,
}

impl Batch {
    fn new(schema: &SchemaRef, rows: Vec<Vec<Value>>) -> Result<Batch> {
        let (mut ts, mut keys, mut key) = (vec![], BlobColumn::default(), vec![]);
        let rows = rows.into_iter().map(|values| {
            let values = schema.check_row(values)?;
            key.clear();
            for &c in schema.key_indices() {
                encode_component(&mut key, &values[c])?;
            }
            ts.push(values[schema.ts_index()].as_timestamp()?);
            keys.push(&key)?;
            Ok(values)
        });
        Ok(Batch {
            rows: rows.collect::<Result<_>>()?,
            schema: schema.clone(),
            ts,
            keys,
        })
    }

    /// Carries rows `from..` over to `schema` if it is a newer version of
    /// the batch's, which evolved while the state mutex was down: added
    /// columns take their defaults, widened ones are coerced, and keys stay
    /// as they are (`int32` and `int64` encode alike).
    fn evolve(&mut self, schema: &SchemaRef, from: usize) -> Result<()> {
        if schema.version() != self.schema.version() {
            for values in &mut self.rows[from..] {
                let added = &schema.columns()[values.len()..];
                values.extend(added.iter().map(|c| c.default.clone()));
                *values = schema.check_row(std::mem::take(values))?;
            }
            self.schema = schema.clone();
        }
        Ok(())
    }
}

impl Table {
    /// Inserts a batch of rows. Each row must match the current schema; the
    /// whole batch is checked before any row is applied, so a batch holding
    /// a bad row changes nothing. Rows whose primary key already exists, in
    /// the table or earlier in the batch, are counted as duplicates and
    /// skipped. Returns how many were inserted and how many were duplicates.
    pub fn insert(&self, rows: Vec<Vec<Value>>) -> Result<InsertReport> {
        let mut report = InsertReport::default();
        let applied = self.apply(rows, &mut report);
        TableStats::add(&self.stats.rows_inserted, report.inserted as u64);
        TableStats::add(&self.stats.duplicate_keys, report.duplicates as u64);
        applied?;
        self.enforce_backlog()?;
        Ok(report)
    }

    /// Applies a batch under one hold of the state mutex, reading the clock
    /// once.
    fn apply(&self, rows: Vec<Vec<Value>>, report: &mut InsertReport) -> Result<()> {
        let now = self.clock.now_micros();
        let mut st = self.state.lock();
        if st.dropped {
            return Err(Error::NoSuchTable(self.name().to_string()));
        }
        let mut batch = Batch::new(&st.schema, rows)?;
        // Fast path 1 (§3.4.4) for the batch: a row strictly newer than every
        // timestamp the table held at some point of this hold after its last
        // seal can only collide — the key embeds the timestamp — with a row
        // inserted since, which sits in the filling tablet of its period. So
        // `fresh_above` is re-read whenever the hold may have been re-taken.
        let mut fresh_above = st.max_ts;
        let mut i = 0;
        while i < batch.rows.len() {
            if !(self.opts.uniqueness_fast_paths && batch.ts[i] > fresh_above) {
                let new;
                (st, new) = self.is_new(st, &batch, i)?;
                batch.evolve(&st.schema, i)?;
                fresh_above = st.max_ts;
                if !new {
                    report.duplicates += 1;
                    i += 1;
                    continue;
                }
            }
            i = self.append_run(&mut st, &batch, i, now, &mut fresh_above, report)?;
        }
        Ok(())
    }

    /// Whether row `i`, which fast path 1 cannot vouch for, is new: its key
    /// is not in memory, and no on-disk tablet whose timespan holds its
    /// timestamp has it — known from their indexes when it sorts after all
    /// their keys (fast path 2), else probed with the state mutex dropped
    /// (the slow path; tablets committed meanwhile are probed too, and
    /// memory again). Returns the state mutex, re-taken if it was dropped.
    fn is_new<'a>(
        &'a self,
        st: MutexGuard<'a, TableState>,
        batch: &Batch,
        i: usize,
    ) -> Result<(MutexGuard<'a, TableState>, bool)> {
        let (key, ts) = (batch.keys.bytes(i), batch.ts[i]);
        let hash = hash_key(key);
        if st.mem_contains(key, hash, ts) {
            return Ok((st, false));
        }
        let mut candidates: Vec<DiskHandle> = st.covering(ts).cloned().collect();
        if candidates.is_empty() {
            return Ok((st, true));
        }
        if self.opts.uniqueness_fast_paths {
            let mut after_all = true;
            for h in &candidates {
                let footer = h.reader.footer()?;
                after_all = footer
                    .blocks
                    .last()
                    .is_none_or(|b| key > b.last_key.as_slice());
                if !after_all {
                    break;
                }
            }
            if after_all {
                TableStats::add(&self.stats.unique_fast_key, 1);
                return Ok((st, true));
            }
        }
        // The point queries may block on disk: they serialize on the insert
        // lock instead, so queries proceed unencumbered.
        drop(st);
        TableStats::add(&self.stats.unique_slow, 1);
        let _slow = self.insert_lock.lock();
        let mut probed = Vec::new();
        loop {
            for h in &candidates {
                if self.tablet_contains_key(h, key)? {
                    return Ok((self.state.lock(), false));
                }
                probed.push(h.meta.id);
            }
            let st = self.state.lock();
            let unprobed = st.covering(ts).filter(|h| !probed.contains(&h.meta.id));
            candidates = unprobed.cloned().collect();
            if candidates.is_empty() {
                let new = !st.mem_contains(key, hash, ts);
                return Ok((st, new));
            }
        }
    }

    pub(super) fn tablet_contains_key(&self, h: &DiskHandle, key: &[u8]) -> Result<bool> {
        let footer = h.reader.footer()?;
        if let Some(bloom) = &footer.bloom {
            if !bloom.may_contain(hash_bytes(key)) {
                return Ok(false);
            }
        }
        let bi = footer
            .blocks
            .partition_point(|b| b.last_key.as_slice() < key);
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

    /// Appends row `first`, known new or fresh, and every fresh row after
    /// it that bins into the same period, to that period's filling tablet
    /// under one hold of its write lock; a fresh row is checked against
    /// that tablet's key index alone. Seals the tablet once a row fills it.
    /// Returns the index of the first row not taken.
    fn append_run(
        &self,
        st: &mut TableState,
        batch: &Batch,
        first: usize,
        now: Micros,
        fresh_above: &mut Micros,
        report: &mut InsertReport,
    ) -> Result<usize> {
        let period = self.bin(batch.ts[first], now);
        let tablet = self.filling_tablet(st, period, now);
        let mut mem = tablet.write();
        let (mut seq, mut fresh_rows, mut i) = (None, 0, first);
        while i < batch.rows.len() && mem.bytes() < self.opts.flush_size {
            let (ts, key) = (batch.ts[i], batch.keys.bytes(i));
            let hash = hash_key(key);
            let fresh = self.opts.uniqueness_fast_paths && ts > *fresh_above;
            if i > first && !(fresh && self.bin(ts, now) == period) {
                break;
            }
            i += 1;
            if fresh && mem.contains(key, hash) {
                report.duplicates += 1;
                continue;
            }
            // Stamped inside the tablet's write lock: a reader that loads
            // cutoff C and later read-locks this tablet finds every row
            // stamped below C fully inserted. The run shares the stamp, so
            // a reader sees all of it or none.
            let seq = *seq.get_or_insert_with(|| self.insert_seq.fetch_add(1, Ordering::SeqCst));
            mem.append(key, hash, &batch.rows[i - 1], ts, seq)?;
            st.max_ts = st.max_ts.max(ts);
            report.inserted += 1;
            fresh_rows += fresh as u64;
        }
        let full = mem.bytes() >= self.opts.flush_size;
        drop(mem);
        TableStats::add(&self.stats.unique_fast_ts, fresh_rows);
        if full {
            self.seal_locked(st, tablet.id());
            // The sealed rows are in no filling tablet any more.
            *fresh_above = st.max_ts;
        }
        Ok(i)
    }

    /// The filling tablet of `period`, created when there is none.
    fn filling_tablet(
        &self,
        st: &mut TableState,
        period: Period,
        now: Micros,
    ) -> Arc<SharedMemTablet> {
        if let Some(t) = st.filling.get(&period) {
            return t.clone();
        }
        let id = MemTabletId(st.next_mem_id);
        st.next_mem_id += 1;
        let t = MemTablet::new(id, now, st.schema.clone());
        let t = Arc::new(SharedMemTablet::new(t));
        st.filling.insert(period, t.clone());
        // Readers must learn about the new tablet before any row can be
        // stamped into it: read_view() loads its cutoff before the
        // snapshot, so a row visible under the cutoff must sit in a tablet
        // the snapshot already lists.
        self.publish_locked(st);
        t
    }

    /// Seals `target`, if it is still filling, into one group with every
    /// filling tablet whose first row was stamped before the group's last
    /// row, in first-insert order. That is the flush-dependency closure of
    /// §3.4.3: a tablet whose row precedes a row of the group must flush
    /// no later than it, and one that takes only later rows need not. The
    /// group commits in one descriptor update, so a crash keeps all of it
    /// or none. Sealing moves tablets between writer-side sets only — the
    /// published snapshot's membership is unchanged, so no republish
    /// happens here.
    pub(super) fn seal_locked(&self, st: &mut TableState, target: MemTabletId) {
        let mut filling: Vec<_> = st
            .filling
            .iter()
            .map(|(&period, t)| {
                // A tablet whose only append failed holds no row to order.
                let (first, last) = t.read().stamps().unwrap_or((u64::MAX, 0));
                (first, last, t.id(), period)
            })
            .collect();
        filling.sort_unstable();
        let Some(&(_, mut reach, ..)) = filling.iter().find(|f| f.2 == target) else {
            return;
        };
        let mut group = Vec::new();
        for (first, last, id, period) in filling {
            if id == target || first < reach {
                reach = reach.max(last);
                group.extend(st.filling.remove(&period));
            }
        }
        st.sealed.push_back(group);
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
