//! Request and response messages.

use crate::valuecodec::{
    get_insert_rows, get_query, get_rows, get_tagged_value, get_values, put_insert_rows, put_query,
    put_rows, put_run, put_tagged_value, put_values,
};
use littletable_core::error::{Error, Result};
use littletable_core::query::Query;
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::stats::StatsSnapshot;
use littletable_core::util::{put_string, put_varint, unzigzag, zigzag, Reader};
use littletable_core::value::{ColumnType, Value};
use littletable_core::RowRun;
use littletable_vfs::Micros;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// List table names.
    ListTables,
    /// Fetch a table's schema and TTL.
    GetSchema {
        /// Table name.
        table: String,
    },
    /// Create a table.
    CreateTable {
        /// Table name.
        table: String,
        /// Schema.
        schema: Schema,
        /// Optional row TTL in micros.
        ttl: Option<Micros>,
    },
    /// Drop a table and delete its data.
    DropTable {
        /// Table name.
        table: String,
    },
    /// Append a column (§3.5).
    AddColumn {
        /// Table name.
        table: String,
        /// New column.
        column: ColumnDef,
    },
    /// Widen an `int32` column to `int64` (§3.5).
    WidenColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// Change a table's TTL.
    SetTtl {
        /// Table name.
        table: String,
        /// New TTL, or `None` for unlimited.
        ttl: Option<Micros>,
    },
    /// Insert a batch of rows.
    Insert {
        /// Table name.
        table: String,
        /// Rows in schema order. A `None` cell is NULL on the wire and is
        /// legal only in the timestamp column: it marks a row whose client
        /// omitted the timestamp, which the server stamps with its current
        /// time (§3.1). Rows with explicit timestamps keep them, even in
        /// the same batch.
        rows: Vec<Vec<Option<Value>>>,
    },
    /// Run a bounded query.
    Query {
        /// Table name.
        table: String,
        /// The bounding box, direction, and limit.
        query: Query,
    },
    /// Find the most recent row for a key prefix (§3.4.5).
    Latest {
        /// Table name.
        table: String,
        /// Strict prefix of the key columns.
        prefix: Vec<Value>,
    },
    /// Liveness check.
    Ping,
    /// Fetch a table's operational counters.
    Stats {
        /// Table name.
        table: String,
    },
    /// Create a rollup table over a base table.
    CreateRollup {
        /// Rollup table name.
        name: String,
        /// Base table name.
        base: String,
        /// Bucket period in micros.
        period: Micros,
        /// Columns given SUM/MIN/MAX stats.
        value_cols: Vec<String>,
        /// Columns given HyperLogLog distinct sketches.
        distinct_cols: Vec<String>,
    },
    /// Drop a rollup table and its maintenance spec.
    DropRollup {
        /// Rollup name.
        name: String,
    },
    /// Ask a node where it stands in the fleet: which shard it serves,
    /// its fencing epoch, and whether it believes it is the primary.
    /// Clients use this to refresh a stale shard map after a
    /// [`ErrorKind::NotPrimary`] rejection.
    NodeStatus,
}

/// Error categories carried over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// No such table.
    NoSuchTable,
    /// Table already exists.
    TableExists,
    /// Malformed request or row.
    Invalid,
    /// Unsupported schema change.
    SchemaChange,
    /// Anything else (I/O, corruption).
    Internal,
    /// The node is not the primary for its shard (it is a warm spare, or
    /// was fenced after a failover) and refuses writes. The client should
    /// refresh its shard map and re-send to the current primary.
    NotPrimary,
}

impl ErrorKind {
    fn tag(self) -> u8 {
        match self {
            ErrorKind::NoSuchTable => 0,
            ErrorKind::TableExists => 1,
            ErrorKind::Invalid => 2,
            ErrorKind::SchemaChange => 3,
            ErrorKind::Internal => 4,
            ErrorKind::NotPrimary => 5,
        }
    }

    fn from_tag(t: u8) -> Result<Self> {
        Ok(match t {
            0 => ErrorKind::NoSuchTable,
            1 => ErrorKind::TableExists,
            2 => ErrorKind::Invalid,
            3 => ErrorKind::SchemaChange,
            4 => ErrorKind::Internal,
            5 => ErrorKind::NotPrimary,
            t => return Err(Error::corrupt(format!("bad error kind {t}"))),
        })
    }

    /// Classifies an engine error for the wire.
    pub fn of(e: &Error) -> Self {
        match e {
            Error::NoSuchTable(_) => ErrorKind::NoSuchTable,
            Error::TableExists(_) => ErrorKind::TableExists,
            Error::Invalid(_) | Error::DuplicateKey(_) => ErrorKind::Invalid,
            Error::SchemaChange(_) => ErrorKind::SchemaChange,
            _ => ErrorKind::Internal,
        }
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with no payload.
    Ok,
    /// Failure.
    Error {
        /// Category.
        kind: ErrorKind,
        /// Human-readable description.
        message: String,
    },
    /// Table names.
    Tables {
        /// Sorted names.
        names: Vec<String>,
    },
    /// A table's schema and TTL.
    SchemaInfo {
        /// Current schema.
        schema: Schema,
        /// Row TTL.
        ttl: Option<Micros>,
    },
    /// Insert outcome.
    InsertResult {
        /// Rows accepted.
        inserted: u64,
        /// Rows rejected as duplicate keys.
        duplicates: u64,
    },
    /// Query results (one response per query; the server caps row count
    /// and sets `more_available` when it does, §3.5).
    Rows {
        /// Matching rows in requested order.
        rows: Vec<Vec<Value>>,
        /// True when the server row limit truncated the result.
        more_available: bool,
    },
    /// Query results as the server answers them: the frame payload a
    /// [`Response::Rows`] of the same rows encodes to, written from
    /// decoded column slices ([`Response::rows_from_runs`]) without the
    /// rows having been built. [`Response::encode`] writes it verbatim
    /// and [`Response::decode`] never yields it — a client sees `Rows`.
    /// A caller in the server's own process turns it into `Rows` with
    /// [`Response::into_rows`].
    EncodedRows {
        /// The encoded payload, response tag included.
        payload: Vec<u8>,
    },
    /// Latest-row result.
    LatestRow {
        /// The row, if any key with the prefix exists.
        row: Option<Vec<Value>>,
    },
    /// Liveness reply.
    Pong,
    /// A table's operational counters, every one the engine declares
    /// (§5.2's metrics), and two gauges of its size on disk.
    Stats {
        /// Sent as each counter's varint, in declaration order.
        counters: Box<StatsSnapshot>,
        /// On-disk tablet count right now.
        disk_tablets: u64,
        /// On-disk bytes right now.
        disk_bytes: u64,
    },
    /// A node's fleet position, answering [`Request::NodeStatus`].
    NodeStatus {
        /// Stable node identifier within the fleet.
        node: u64,
        /// The shard this node serves.
        shard: u32,
        /// Fencing epoch: bumped on every promotion/demotion, so a
        /// response from an older epoch is recognizably stale.
        epoch: u64,
        /// True when the node believes it is its shard's primary.
        primary: bool,
    },
}

fn put_opt_micros(out: &mut Vec<u8>, v: Option<Micros>) {
    match v {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            put_varint(out, zigzag(m));
        }
    }
}

fn get_opt_micros(r: &mut Reader<'_>) -> Result<Option<Micros>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(unzigzag(r.varint()?))),
        t => Err(Error::corrupt(format!("bad optional tag {t}"))),
    }
}

fn put_string_list(out: &mut Vec<u8>, items: &[String]) {
    put_varint(out, items.len() as u64);
    for s in items {
        put_string(out, s);
    }
}

/// Reads a list of at most `max` strings; `what` names the list in the
/// error for a longer one.
fn get_string_list(r: &mut Reader<'_>, max: usize, what: &str) -> Result<Vec<String>> {
    let n = r.varint()? as usize;
    if n > max {
        return Err(Error::corrupt(format!("implausible {what}")));
    }
    // Every string takes a byte at least, so the count cannot outrun them.
    let mut items = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        items.push(r.string()?);
    }
    Ok(items)
}

fn put_column(out: &mut Vec<u8>, c: &ColumnDef) {
    put_string(out, &c.name);
    out.push(c.ty.tag());
    put_tagged_value(out, c.default.as_ref());
}

fn get_column(r: &mut Reader<'_>) -> Result<ColumnDef> {
    let name = r.string()?;
    let ty = ColumnType::from_tag(r.u8()?)?;
    let default = get_tagged_value(r)?;
    if !default.fits(ty) {
        return Err(Error::corrupt("column default has wrong type"));
    }
    Ok(ColumnDef { name, ty, default })
}

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::ListTables => out.push(0),
            Request::GetSchema { table } => {
                out.push(1);
                put_string(&mut out, table);
            }
            Request::CreateTable { table, schema, ttl } => {
                out.push(2);
                put_string(&mut out, table);
                schema.encode(&mut out);
                put_opt_micros(&mut out, *ttl);
            }
            Request::DropTable { table } => {
                out.push(3);
                put_string(&mut out, table);
            }
            Request::AddColumn { table, column } => {
                out.push(4);
                put_string(&mut out, table);
                put_column(&mut out, column);
            }
            Request::WidenColumn { table, column } => {
                out.push(5);
                put_string(&mut out, table);
                put_string(&mut out, column);
            }
            Request::SetTtl { table, ttl } => {
                out.push(6);
                put_string(&mut out, table);
                put_opt_micros(&mut out, *ttl);
            }
            Request::Insert { table, rows } => {
                out.push(7);
                put_string(&mut out, table);
                put_insert_rows(&mut out, rows);
            }
            Request::Query { table, query } => {
                out.push(8);
                put_string(&mut out, table);
                put_query(&mut out, query);
            }
            Request::Latest { table, prefix } => {
                out.push(9);
                put_string(&mut out, table);
                put_values(&mut out, prefix);
            }
            Request::Ping => out.push(10),
            Request::Stats { table } => {
                out.push(11);
                put_string(&mut out, table);
            }
            Request::CreateRollup {
                name,
                base,
                period,
                value_cols,
                distinct_cols,
            } => {
                out.push(12);
                put_string(&mut out, name);
                put_string(&mut out, base);
                put_varint(&mut out, zigzag(*period));
                put_string_list(&mut out, value_cols);
                put_string_list(&mut out, distinct_cols);
            }
            Request::DropRollup { name } => {
                out.push(13);
                put_string(&mut out, name);
            }
            Request::NodeStatus => out.push(14),
        }
        out
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let req = match tag {
            0 => Request::ListTables,
            1 => Request::GetSchema { table: r.string()? },
            2 => Request::CreateTable {
                table: r.string()?,
                schema: Schema::decode(&mut r)?,
                ttl: get_opt_micros(&mut r)?,
            },
            3 => Request::DropTable { table: r.string()? },
            4 => Request::AddColumn {
                table: r.string()?,
                column: get_column(&mut r)?,
            },
            5 => Request::WidenColumn {
                table: r.string()?,
                column: r.string()?,
            },
            6 => Request::SetTtl {
                table: r.string()?,
                ttl: get_opt_micros(&mut r)?,
            },
            7 => Request::Insert {
                table: r.string()?,
                rows: get_insert_rows(&mut r)?,
            },
            8 => Request::Query {
                table: r.string()?,
                query: get_query(&mut r)?,
            },
            9 => Request::Latest {
                table: r.string()?,
                prefix: get_values(&mut r)?,
            },
            10 => Request::Ping,
            11 => Request::Stats { table: r.string()? },
            12 => Request::CreateRollup {
                name: r.string()?,
                base: r.string()?,
                period: unzigzag(r.varint()?),
                value_cols: get_string_list(&mut r, 1 << 16, "column-list length")?,
                distinct_cols: get_string_list(&mut r, 1 << 16, "column-list length")?,
            },
            13 => Request::DropRollup { name: r.string()? },
            14 => Request::NodeStatus,
            t => return Err(Error::corrupt(format!("unknown request tag {t}"))),
        };
        if !r.is_empty() {
            return Err(Error::corrupt("trailing bytes after request"));
        }
        Ok(req)
    }
}

impl Response {
    /// The answer to a query whose result is `runs`, in order: byte for
    /// byte the payload of `Response::Rows { rows, more_available }` for
    /// the rows the runs hold, encoded cell by cell from the runs' blocks.
    pub fn rows_from_runs(runs: &[RowRun], more_available: bool) -> Response {
        let mut payload = vec![5, more_available as u8];
        put_varint(&mut payload, runs.iter().map(|r| r.len() as u64).sum());
        for run in runs {
            put_run(&mut payload, run);
        }
        Response::EncodedRows { payload }
    }

    /// What a client would have received: [`Response::EncodedRows`]
    /// decoded to the [`Response::Rows`] it stands for, any other
    /// response as it is.
    pub fn into_rows(self) -> Response {
        match self {
            Response::EncodedRows { payload } => {
                Response::decode(&payload).unwrap_or_else(|e| Response::Error {
                    kind: ErrorKind::Internal,
                    message: format!("undecodable query response: {e}"),
                })
            }
            other => other,
        }
    }

    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the response's frame payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(0),
            Response::Error { kind, message } => {
                out.push(1);
                out.push(kind.tag());
                put_string(out, message);
            }
            Response::Tables { names } => {
                out.push(2);
                put_string_list(out, names);
            }
            Response::SchemaInfo { schema, ttl } => {
                out.push(3);
                schema.encode(out);
                put_opt_micros(out, *ttl);
            }
            Response::InsertResult {
                inserted,
                duplicates,
            } => {
                out.push(4);
                put_varint(out, *inserted);
                put_varint(out, *duplicates);
            }
            Response::Rows {
                rows,
                more_available,
            } => {
                out.push(5);
                out.push(*more_available as u8);
                put_rows(out, rows);
            }
            Response::EncodedRows { payload } => out.extend_from_slice(payload),
            Response::LatestRow { row } => {
                out.push(6);
                match row {
                    None => out.push(0),
                    Some(values) => {
                        out.push(1);
                        put_values(out, values);
                    }
                }
            }
            Response::Pong => out.push(7),
            Response::Stats {
                counters,
                disk_tablets,
                disk_bytes,
            } => {
                out.push(8);
                let gauges = [*disk_tablets, *disk_bytes];
                for v in counters.values().into_iter().chain(gauges) {
                    put_varint(out, v);
                }
            }
            Response::NodeStatus {
                node,
                shard,
                epoch,
                primary,
            } => {
                out.push(9);
                put_varint(out, *node);
                put_varint(out, *shard as u64);
                put_varint(out, *epoch);
                out.push(*primary as u8);
            }
        }
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let resp = match tag {
            0 => Response::Ok,
            1 => Response::Error {
                kind: ErrorKind::from_tag(r.u8()?)?,
                message: r.string()?,
            },
            2 => Response::Tables {
                names: get_string_list(&mut r, 1 << 20, "table count")?,
            },
            3 => Response::SchemaInfo {
                schema: Schema::decode(&mut r)?,
                ttl: get_opt_micros(&mut r)?,
            },
            4 => Response::InsertResult {
                inserted: r.varint()?,
                duplicates: r.varint()?,
            },
            5 => {
                let more_available = r.u8()? != 0;
                Response::Rows {
                    rows: get_rows(&mut r)?,
                    more_available,
                }
            }
            6 => Response::LatestRow {
                row: match r.u8()? {
                    0 => None,
                    1 => Some(get_values(&mut r)?),
                    t => return Err(Error::corrupt(format!("bad row tag {t}"))),
                },
            },
            7 => Response::Pong,
            8 => {
                let mut counters = Box::<StatsSnapshot>::default();
                for v in counters.values_mut() {
                    *v = r.varint()?;
                }
                Response::Stats {
                    counters,
                    disk_tablets: r.varint()?,
                    disk_bytes: r.varint()?,
                }
            }
            9 => Response::NodeStatus {
                node: r.varint()?,
                shard: u32::try_from(r.varint()?)
                    .map_err(|_| Error::corrupt("implausible shard id"))?,
                epoch: r.varint()?,
                primary: match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(Error::corrupt(format!("bad primary flag {t}"))),
                },
            },
            t => return Err(Error::corrupt(format!("unknown response tag {t}"))),
        };
        if !r.is_empty() {
            return Err(Error::corrupt("trailing bytes after response"));
        }
        Ok(resp)
    }
}

// ---- pipelining envelopes ----
//
// A connection may have many requests in flight (the client writes
// several frames before reading any response), so every frame carries a
// request id: `[id: varint][message body]`. The server guarantees that
// responses on a connection are sent in the order the requests arrived,
// so ids on one connection come back in FIFO order; the id lets the
// client assert that invariant and match acks to in-flight batches.

/// Encodes a request frame payload: varint `id` followed by the request
/// body.
pub fn encode_request_frame(id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, id);
    out.extend_from_slice(&req.encode());
    out
}

/// Decodes a request frame payload into `(id, request)`.
pub fn decode_request_frame(payload: &[u8]) -> Result<(u64, Request)> {
    let mut r = Reader::new(payload);
    let id = r.varint()?;
    let req = Request::decode(&payload[r.pos()..])?;
    Ok((id, req))
}

/// Best-effort extraction of a request frame's id, for error responses
/// to frames whose body fails to decode. `None` when even the id is
/// unreadable.
pub fn request_frame_id(payload: &[u8]) -> Option<u64> {
    Reader::new(payload).varint().ok()
}

/// Encodes a response frame payload: varint `id` (echoing the request's)
/// followed by the response body.
pub fn encode_response_frame(id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, id);
    resp.encode_into(&mut out);
    out
}

/// Decodes a response frame payload into `(id, response)`.
pub fn decode_response_frame(payload: &[u8]) -> Result<(u64, Response)> {
    let mut r = Reader::new(payload);
    let id = r.varint()?;
    let resp = Response::decode(&payload[r.pos()..])?;
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("n", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("v", ColumnType::Str),
            ],
            &["n", "ts"],
        )
        .unwrap()
    }

    /// One or two instances of every request.
    fn requests() -> Vec<Request> {
        vec![
            Request::ListTables,
            Request::GetSchema { table: "t".into() },
            Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: Some(3_600_000_000),
            },
            Request::DropTable { table: "t".into() },
            Request::AddColumn {
                table: "t".into(),
                column: ColumnDef::with_default("x", ColumnType::I64, Value::I64(-1)),
            },
            Request::WidenColumn {
                table: "t".into(),
                column: "x".into(),
            },
            Request::SetTtl {
                table: "t".into(),
                ttl: None,
            },
            Request::Insert {
                table: "t".into(),
                rows: vec![
                    vec![
                        Some(Value::I64(1)),
                        Some(Value::Timestamp(2)),
                        Some(Value::Str("a".into())),
                    ],
                    // A row whose client omitted the timestamp.
                    vec![Some(Value::I64(2)), None, Some(Value::Str("b".into()))],
                ],
            },
            Request::Query {
                table: "t".into(),
                query: Query::all().with_limit(10).descending(),
            },
            Request::Query {
                table: "t".into(),
                query: Query::all()
                    .with_key_min(vec![Value::I64(-3)], true)
                    .with_key_max(vec![Value::I64(9), Value::Timestamp(7)], false)
                    .with_ts_min(-5, false)
                    .with_ts_max(1 << 50, true),
            },
            Request::Latest {
                table: "t".into(),
                prefix: vec![Value::I64(1)],
            },
            Request::Ping,
            Request::Stats { table: "t".into() },
            Request::CreateRollup {
                name: "t_1h".into(),
                base: "t".into(),
                period: 3_600_000_000,
                value_cols: vec!["v".into()],
                distinct_cols: vec!["u".into(), "w".into()],
            },
            Request::CreateRollup {
                name: "t_1d".into(),
                base: "t".into(),
                period: 86_400_000_000,
                value_cols: vec![],
                distinct_cols: vec![],
            },
            Request::DropRollup {
                name: "t_1h".into(),
            },
            Request::NodeStatus,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req, "{req:?}");
        }
    }

    /// One or two instances of every response a client can receive.
    fn responses() -> Vec<Response> {
        vec![
            Response::Ok,
            Response::Error {
                kind: ErrorKind::NoSuchTable,
                message: "no such table: t".into(),
            },
            Response::Tables {
                names: vec!["a".into(), "b".into()],
            },
            Response::SchemaInfo {
                schema: schema(),
                ttl: Some(1),
            },
            Response::InsertResult {
                inserted: 10,
                duplicates: 2,
            },
            Response::Rows {
                rows: vec![vec![
                    Value::I64(1),
                    Value::Timestamp(2),
                    Value::Str("x".into()),
                ]],
                more_available: true,
            },
            Response::LatestRow { row: None },
            Response::LatestRow {
                row: Some(vec![Value::I64(1)]),
            },
            Response::Pong,
            Response::Stats {
                counters: Box::new(StatsSnapshot {
                    rows_inserted: 1,
                    duplicate_keys: 2,
                    rows_scanned: 3,
                    rows_returned: 4,
                    tablets_flushed: 5,
                    merges: 6,
                    ..StatsSnapshot::default()
                }),
                disk_tablets: 7,
                disk_bytes: 8,
            },
            Response::NodeStatus {
                node: 11,
                shard: 3,
                epoch: 7,
                primary: true,
            },
            Response::NodeStatus {
                node: 0,
                shard: 0,
                epoch: 0,
                primary: false,
            },
            Response::Error {
                kind: ErrorKind::NotPrimary,
                message: "shard 3 is served by node 11 (epoch 7)".into(),
            },
        ]
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).unwrap(), resp, "{resp:?}");
        }
    }

    /// A response encoded from column runs is, byte for byte, the `Rows`
    /// response of the same rows — for every column type at its extremes,
    /// runs in both directions, and the empty result.
    #[test]
    fn runs_encode_to_the_bytes_their_rows_encode_to() {
        use littletable_core::block::BlockEncoder;
        use littletable_core::Row;
        use std::sync::Arc;

        let schema = Schema::new(
            vec![
                ColumnDef::new("k", ColumnType::Str),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("n", ColumnType::I32),
                ColumnDef::new("i", ColumnType::I64),
                ColumnDef::new("f", ColumnType::F64),
                ColumnDef::new("b", ColumnType::Blob),
            ],
            &["k", "ts"],
        )
        .unwrap();
        let payload_nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let row = |k: &str, ts: i64, n: i32, i: i64, f: f64, b: &[u8]| {
            vec![
                Value::Str(k.into()),
                Value::Timestamp(ts),
                Value::I32(n),
                Value::I64(i),
                Value::F64(f),
                Value::Blob(b.to_vec()),
            ]
        };
        let rows = [
            row("", i64::MIN, i32::MIN, i64::MIN, -0.0, &[]),
            row("a\0b", -1, -1, -1, f64::NAN, &[0]),
            row("é", 0, 0, 0, payload_nan, &[0xFF; 300]),
            row(
                &"long ".repeat(60),
                1,
                i32::MAX,
                i64::MAX,
                f64::INFINITY,
                &[7],
            ),
            row("z", i64::MAX, 1, 1, f64::MIN_POSITIVE, b"\x00\xFF\x00"),
        ];
        let mut encoder = BlockEncoder::new(&schema);
        for row in &rows {
            encoder.add(&Row::new(row.clone())).unwrap();
        }
        let block = Arc::new(encoder.into_block(&schema));
        let run = |rows: std::ops::Range<usize>, descending| RowRun {
            block: block.clone(),
            rows,
            descending,
        };
        let picked = |idx: &[usize]| idx.iter().map(|&i| rows[i].clone()).collect::<Vec<_>>();
        let cases = [
            (vec![run(0..5, false)], picked(&[0, 1, 2, 3, 4]), false),
            (vec![run(0..5, true)], picked(&[4, 3, 2, 1, 0]), true),
            (
                vec![run(3..5, false), run(0..2, false), run(2..3, false)],
                picked(&[3, 4, 0, 1, 2]),
                false,
            ),
            (
                vec![run(1..4, true), run(0..1, true)],
                picked(&[3, 2, 1, 0]),
                true,
            ),
            (vec![], vec![], false),
            (vec![], vec![], true),
        ];
        for (runs, rows, more_available) in cases {
            let want = Response::Rows {
                rows,
                more_available,
            }
            .encode();
            let got = Response::rows_from_runs(&runs, more_available);
            assert_eq!(got.encode(), want);
            assert_eq!(encode_response_frame(9, &got), {
                let mut frame = vec![9];
                frame.extend_from_slice(&want);
                frame
            });
            // NaN is not equal to itself: compare what the decoded
            // response encodes to.
            let decoded = got.into_rows();
            assert!(matches!(decoded, Response::Rows { .. }));
            assert_eq!(decoded.encode(), want);
        }
        // A payload that is not a response decodes to an error, not a
        // panic, and every other response passes through.
        let garbage = Response::EncodedRows {
            payload: vec![5, 0, 200],
        };
        assert!(matches!(
            garbage.into_rows(),
            Response::Error {
                kind: ErrorKind::Internal,
                ..
            }
        ));
        assert_eq!(Response::Pong.into_rows(), Response::Pong);
    }

    #[test]
    fn envelopes_round_trip_and_carry_ids() {
        let req = Request::GetSchema { table: "t".into() };
        for id in [0u64, 1, 300, u64::MAX] {
            let frame = encode_request_frame(id, &req);
            assert_eq!(decode_request_frame(&frame).unwrap(), (id, req.clone()));
            assert_eq!(request_frame_id(&frame), Some(id));
        }
        let resp = Response::Pong;
        let frame = encode_response_frame(42, &resp);
        assert_eq!(decode_response_frame(&frame).unwrap(), (42, resp));
        // A readable id with a garbage body still yields the id.
        let mut bad = Vec::new();
        put_varint(&mut bad, 7);
        bad.push(99);
        assert!(decode_request_frame(&bad).is_err());
        assert_eq!(request_frame_id(&bad), Some(7));
        assert_eq!(request_frame_id(&[]), None);
    }

    #[test]
    fn a_varint_spilling_past_bit_63_is_corrupt() {
        // Ten bytes whose last carries bits above bit 63: read as 0 once.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        let req = Request::Latest {
            table: "t".into(),
            prefix: vec![Value::I64(0)],
        };
        let mut frame = encode_request_frame(7, &req);
        assert_eq!(
            frame.pop(),
            Some(0),
            "the prefix cell's zigzag 0 ends the frame"
        );
        frame.extend_from_slice(&overflow);
        assert!(matches!(
            decode_request_frame(&frame),
            Err(Error::Corrupt(_))
        ));
        // The same bytes as the frame's request id.
        let frame = [&overflow[..], &req.encode()].concat();
        assert!(matches!(
            decode_request_frame(&frame),
            Err(Error::Corrupt(_))
        ));
        assert_eq!(request_frame_id(&frame), None);
    }

    /// The list entries and cells a decoded request holds.
    fn request_counts(req: &Request) -> usize {
        let bound = |b: &Option<littletable_core::query::PrefixBound>| {
            b.as_ref().map_or(0, |b| b.values.len())
        };
        match req {
            Request::CreateTable { schema, .. } => 2 * schema.columns().len(),
            Request::AddColumn { .. } => 1,
            Request::Insert { rows, .. } => rows.len() + rows.iter().map(Vec::len).sum::<usize>(),
            Request::Query { query, .. } => bound(&query.key_min) + bound(&query.key_max),
            Request::Latest { prefix, .. } => prefix.len(),
            Request::CreateRollup {
                value_cols,
                distinct_cols,
                ..
            } => value_cols.len() + distinct_cols.len(),
            _ => 0,
        }
    }

    /// The list entries and cells a decoded response holds.
    fn response_counts(resp: &Response) -> usize {
        match resp {
            Response::Tables { names } => names.len(),
            Response::SchemaInfo { schema, .. } => 2 * schema.columns().len(),
            Response::Rows { rows, .. } => rows.len() + rows.iter().map(Vec::len).sum::<usize>(),
            Response::LatestRow { row } => row.as_ref().map_or(0, Vec::len),
            _ => 0,
        }
    }

    /// Every truncation and every single-bit flip of `bytes`.
    fn hostile(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let cuts = (0..bytes.len()).map(|n| bytes[..n].to_vec());
        let flips = (0..bytes.len() * 8).map(|bit| {
            let mut b = bytes.to_vec();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        });
        cuts.chain(flips)
    }

    /// Each truncation and bit flip of every message, bare and in its
    /// envelope, decodes to an error or to a message — never a panic —
    /// and a message holds no more entries than its input has bytes.
    #[test]
    fn hostile_bytes_give_errors_or_messages_never_panics() {
        let (mut messages, mut errors) = (0, 0);
        for req in requests() {
            for bytes in hostile(&req.encode()) {
                match Request::decode(&bytes) {
                    Ok(got) => {
                        assert!(
                            request_counts(&got) <= bytes.len(),
                            "{got:?} from {bytes:?}"
                        );
                        messages += 1;
                    }
                    Err(_) => errors += 1,
                }
            }
            for bytes in hostile(&encode_request_frame(300, &req)) {
                if let Ok((_, got)) = decode_request_frame(&bytes) {
                    assert!(
                        request_counts(&got) <= bytes.len(),
                        "{got:?} from {bytes:?}"
                    );
                }
                let _ = request_frame_id(&bytes);
            }
        }
        for resp in responses() {
            for bytes in hostile(&resp.encode()) {
                match Response::decode(&bytes) {
                    Ok(got) => {
                        assert!(
                            response_counts(&got) <= bytes.len(),
                            "{got:?} from {bytes:?}"
                        );
                        messages += 1;
                    }
                    Err(_) => errors += 1,
                }
            }
            for bytes in hostile(&encode_response_frame(300, &resp)) {
                if let Ok((_, got)) = decode_response_frame(&bytes) {
                    assert!(
                        response_counts(&got) <= bytes.len(),
                        "{got:?} from {bytes:?}"
                    );
                }
            }
        }
        // Both outcomes are reached: flips of tags and counts are
        // refused, flips inside names and numbers still decode.
        assert!(messages >= 500 && errors >= 500, "{messages} {errors}");
    }

    #[test]
    fn garbage_is_rejected_without_panic() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[99]).is_err());
        let mut enc = Request::Ping.encode();
        enc.push(0); // trailing byte
        assert!(Request::decode(&enc).is_err());
    }

    #[test]
    fn huge_list_counts_over_a_few_bytes_are_errors() {
        let mut resp = vec![2];
        put_varint(&mut resp, u64::MAX >> 1);
        resp.extend_from_slice(&[1, b'a', 1]);
        assert!(Response::decode(&resp).is_err());
        let mut req = Request::CreateRollup {
            name: "r".into(),
            base: "t".into(),
            period: 1,
            value_cols: vec![],
            distinct_cols: vec![],
        }
        .encode();
        req.truncate(req.len() - 2);
        put_varint(&mut req, u64::MAX >> 1);
        req.extend_from_slice(&[1, b'a']);
        assert!(Request::decode(&req).is_err());

        // A column list may hold 2^16 names and no more, however many
        // bytes back it.
        let rollup = |n: usize| Request::CreateRollup {
            name: "r".into(),
            base: "t".into(),
            period: 1,
            value_cols: vec!["a".into(); n],
            distinct_cols: vec![],
        };
        assert_eq!(
            Request::decode(&rollup(1 << 16).encode()).unwrap(),
            rollup(1 << 16)
        );
        let err = Request::decode(&rollup((1 << 16) + 1).encode()).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    #[test]
    fn error_kind_classification() {
        assert_eq!(
            ErrorKind::of(&Error::NoSuchTable("x".into())),
            ErrorKind::NoSuchTable
        );
        assert_eq!(ErrorKind::of(&Error::corrupt("bad")), ErrorKind::Internal);
        assert_eq!(ErrorKind::of(&Error::invalid("bad")), ErrorKind::Invalid);
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Decoders must reject — never panic on — arbitrary bytes.
        #[test]
        fn prop_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Request::decode(&data);
            let _ = Response::decode(&data);
        }

        /// Mutating any single byte of a valid frame either still decodes
        /// (benign field change) or errors — never panics.
        #[test]
        fn prop_bitflip_never_panics(pos in 0usize..64, flip in 1u8..=255) {
            let req = Request::Insert {
                table: "usage_by_device".into(),
                rows: vec![vec![
                    Some(Value::I64(1)),
                    Some(Value::Timestamp(1_700_000_000_000_000)),
                    Some(Value::Str("payload".into())),
                ]],
            };
            let mut enc = req.encode();
            if pos < enc.len() {
                enc[pos] ^= flip;
            }
            let _ = Request::decode(&enc);
        }
    }
}
