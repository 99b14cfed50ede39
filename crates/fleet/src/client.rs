//! The application-side fleet adaptor.

use crate::sim::{ArchiveOutcome, FleetError, FleetSim};
use littletable_client::{query_paged, Backoff};
use littletable_core::query::Query;
use littletable_core::row::Row;
use littletable_core::schema::{encode_value, Schema};
use littletable_core::value::Value;
use littletable_proto::{ErrorKind, Request, Response};
use littletable_vfs::Micros;
use std::collections::{HashMap, VecDeque};

/// One acknowledged operation kept for idempotent re-send: until an
/// archive tick proves the data reached the spare, a failover would
/// lose it, so the client — which *is* the durability story in this
/// design (§4) — holds enough to replay.
struct ReplayOp {
    req: Request,
}

/// A fleet-aware client: routes rows to shards by rendezvous hash of the
/// first key column, retries through failovers with bounded backoff,
/// re-sends acknowledged-but-unarchived batches to promoted spares, and
/// scatter-gathers queries across shards.
///
/// Re-sends are idempotent because the engine deduplicates on primary
/// key: a batch that was durable on the old primary *and* archived comes
/// back as `duplicates`, a batch that died with the memtable inserts
/// fresh — either way every acknowledged row is present exactly once.
pub struct FleetClient {
    schemas: HashMap<String, Schema>,
    /// Per shard, in acknowledgement order.
    replay: Vec<VecDeque<ReplayOp>>,
    /// Retry budget per logical operation.
    attempts: u32,
}

impl FleetClient {
    /// A client for a fleet of `shards` shards.
    pub fn new(shards: u32) -> FleetClient {
        FleetClient {
            schemas: HashMap::new(),
            replay: (0..shards).map(|_| VecDeque::new()).collect(),
            attempts: 8,
        }
    }

    /// Acknowledged operations not yet known to be archived for `shard`
    /// — the client's own durability exposure gauge.
    pub fn replay_len(&self, shard: u32) -> usize {
        self.replay[shard as usize].len()
    }

    /// Sends `req` to `shard`'s primary, failing over to the spare (and
    /// replaying unarchived acknowledged operations onto it) when the
    /// primary is dead. Backoff is bounded: when the budget runs out the
    /// shard is reported down.
    fn send_with_failover(
        &mut self,
        sim: &mut FleetSim,
        shard: u32,
        req: &Request,
    ) -> Result<Response, FleetError> {
        let mut backoff = Backoff::new(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(50),
            self.attempts,
        );
        loop {
            let primary = sim.map().route(shard).primary;
            match sim.node(primary).handle(req.clone()) {
                Some(Response::Error {
                    kind: ErrorKind::NotPrimary,
                    ..
                }) => {
                    // Stale routing (a role changed under us). The map is
                    // refreshed on every loop iteration; just back off.
                }
                Some(Response::Error { kind, message }) => {
                    return Err(FleetError::Remote { kind, message });
                }
                Some(resp) => return Ok(resp),
                None => {
                    // Primary is dead. Promote the spare if it is alive;
                    // otherwise the shard is genuinely down.
                    let spare = sim.map().route(shard).spare;
                    if sim.node_down(spare) {
                        return Err(FleetError::ShardDown(shard));
                    }
                    sim.failover(shard)?;
                    self.replay_to_primary(sim, shard)?;
                }
            }
            match backoff.next_delay() {
                // The sim has no wall clock to sleep on; charge the
                // delay to simulated time instead.
                Some(d) => sim.clock().advance(d.as_micros() as Micros),
                None => return Err(FleetError::ShardDown(shard)),
            }
        }
    }

    /// Replays this shard's acknowledged-but-unarchived operations onto
    /// the (just promoted) primary, oldest first.
    fn replay_to_primary(&mut self, sim: &mut FleetSim, shard: u32) -> Result<(), FleetError> {
        let primary = sim.map().route(shard).primary;
        for op in &self.replay[shard as usize] {
            match sim.node(primary).handle(op.req.clone()) {
                None => return Err(FleetError::ShardDown(shard)),
                Some(Response::Error {
                    kind: ErrorKind::TableExists,
                    ..
                }) => {} // CreateTable replay onto an archived table.
                Some(Response::Error { kind, message }) => {
                    return Err(FleetError::Remote { kind, message });
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Creates `table` on every shard (each shard holds a slice of every
    /// table) and caches its schema for routing.
    pub fn create_table(
        &mut self,
        sim: &mut FleetSim,
        table: &str,
        schema: Schema,
        ttl: Option<Micros>,
    ) -> Result<(), FleetError> {
        for shard in 0..sim.shards() {
            let req = Request::CreateTable {
                table: table.to_string(),
                schema: schema.clone(),
                ttl,
            };
            match self.send_with_failover(sim, shard, &req)? {
                Response::Ok => {}
                r => {
                    return Err(FleetError::Engine(format!(
                        "create_table: unexpected response {r:?}"
                    )))
                }
            }
            self.replay[shard as usize].push_back(ReplayOp { req });
        }
        self.schemas.insert(table.to_string(), schema);
        Ok(())
    }

    /// Fetches (and caches) a table's schema from shard 0.
    pub fn schema(&mut self, sim: &mut FleetSim, table: &str) -> Result<Schema, FleetError> {
        if let Some(s) = self.schemas.get(table) {
            return Ok(s.clone());
        }
        let req = Request::GetSchema {
            table: table.to_string(),
        };
        match self.send_with_failover(sim, 0, &req)? {
            Response::SchemaInfo { schema, .. } => {
                self.schemas.insert(table.to_string(), schema.clone());
                Ok(schema)
            }
            r => Err(FleetError::Engine(format!(
                "schema: unexpected response {r:?}"
            ))),
        }
    }

    /// The shard a row lives on: rendezvous hash of the *first* key
    /// column only, so one device's whole history colocates (§2.2) while
    /// devices spread across shards.
    pub fn shard_for_row(
        &mut self,
        sim: &mut FleetSim,
        table: &str,
        row: &[Value],
    ) -> Result<u32, FleetError> {
        let schema = self.schema(sim, table)?;
        let first_key = schema.key_indices()[0];
        let mut bytes = Vec::new();
        encode_value(&mut bytes, row[first_key].as_ref());
        Ok(sim.map().shard_for_key(&bytes))
    }

    /// Inserts rows, routing each to its shard and acknowledging only
    /// when every involved shard has acknowledged. Returns fleet-wide
    /// `(inserted, duplicates)`.
    pub fn insert(
        &mut self,
        sim: &mut FleetSim,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<(u64, u64), FleetError> {
        let mut by_shard: HashMap<u32, Vec<Vec<Option<Value>>>> = HashMap::new();
        for row in rows {
            let shard = self.shard_for_row(sim, table, &row)?;
            by_shard
                .entry(shard)
                .or_default()
                .push(row.into_iter().map(Some).collect());
        }
        let mut shards: Vec<u32> = by_shard.keys().copied().collect();
        shards.sort_unstable();
        let (mut inserted, mut duplicates) = (0u64, 0u64);
        for shard in shards {
            let req = Request::Insert {
                table: table.to_string(),
                rows: by_shard.remove(&shard).unwrap(),
            };
            match self.send_with_failover(sim, shard, &req)? {
                Response::InsertResult {
                    inserted: i,
                    duplicates: d,
                } => {
                    inserted += i;
                    duplicates += d;
                }
                r => {
                    return Err(FleetError::Engine(format!(
                        "insert: unexpected response {r:?}"
                    )))
                }
            }
            self.replay[shard as usize].push_back(ReplayOp { req });
        }
        Ok((inserted, duplicates))
    }

    /// Runs `query` on every shard, paging each one past its server row
    /// limit through [`query_paged`], then merges the streams in
    /// primary-key order and applies the limit fleet-wide.
    pub fn query(
        &mut self,
        sim: &mut FleetSim,
        table: &str,
        query: &Query,
    ) -> Result<Vec<Vec<Value>>, FleetError> {
        let schema = self.schema(sim, table)?;
        let mut all: Vec<Vec<Value>> = Vec::new();
        for shard in 0..sim.shards() {
            all.extend(query_paged(&schema, table, query, |req| {
                self.send_with_failover(sim, shard, req)
            })?);
        }
        // Merge the per-shard streams into one key-ordered result.
        let mut keyed: Vec<(Vec<u8>, Vec<Value>)> = Vec::with_capacity(all.len());
        for row in all {
            let key = Row::new(row.clone())
                .encode_key(&schema)
                .map_err(|e| FleetError::Engine(e.to_string()))?;
            keyed.push((key, row));
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        if query.descending {
            keyed.reverse();
        }
        let mut out: Vec<Vec<Value>> = keyed.into_iter().map(|(_, r)| r).collect();
        if let Some(limit) = query.limit {
            out.truncate(limit);
        }
        Ok(out)
    }

    /// Repairs routing after node deaths: any shard whose mapped primary
    /// is down but whose spare is alive fails over *through the client*,
    /// so the acknowledged-but-unarchived tail is replayed onto the
    /// promoted node. Restarting a dead mapped primary without this step
    /// would silently drop its memtable — the harness calls `repair`
    /// before any `restart_node`.
    pub fn repair(&mut self, sim: &mut FleetSim) -> Result<(), FleetError> {
        for shard in 0..sim.shards() {
            let route = sim.map().route(shard).clone();
            if sim.node_down(route.primary) && !sim.node_down(route.spare) {
                sim.failover(shard)?;
                self.replay_to_primary(sim, shard)?;
            }
        }
        Ok(())
    }

    /// One archive tick across the fleet, trimming each shard's replay
    /// buffer when — and only when — its tick came back clean: data
    /// proven on the spare no longer needs the client to remember it.
    pub fn archive(&mut self, sim: &mut FleetSim) -> Vec<ArchiveOutcome> {
        let mut outcomes = Vec::with_capacity(sim.shards() as usize);
        for shard in 0..sim.shards() {
            let mark = self.replay[shard as usize].len();
            let outcome = sim.archive_shard(shard);
            if outcome.is_clean() {
                self.replay[shard as usize].drain(..mark);
            }
            outcomes.push(outcome);
        }
        outcomes
    }
}
