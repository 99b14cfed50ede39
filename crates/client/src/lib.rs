//! Client adaptor for LittleTable.
//!
//! Plays the role of the paper's SQLite virtual-table adaptor (§3.1,
//! §3.5): it keeps a persistent TCP connection to the server (so it
//! notices server crashes), caches table schemas, batches inserts, and
//! transparently continues queries that hit the server's row limit.
//!
//! Each of the two adaptor rules exists once. [`query_paged`] is the
//! continuation: re-submit with the starting key bound advanced past the
//! last row returned. [`Client::query`] runs it over one connection and
//! the fleet adaptor runs it once per shard. [`PipelinedInserter`] is the
//! batcher: a window of 1 sends one batch at a time and waits for its
//! acknowledgement, a larger window keeps that many batches in flight.
//!
//! Every request carries a client-chosen id; the server answers each
//! connection's requests in FIFO order with the matching ids, which is
//! what lets [`PipelinedInserter`] keep a bounded window of insert
//! batches in flight without waiting out a round trip per batch.
//!
//! Durability is the application's problem by design: when the connection
//! drops, [`Client::request`] surfaces the error and the application
//! re-collects recent data from its devices (§4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shardmap;

pub use shardmap::{shard_for, Backoff, ShardMap, ShardRoute};

use littletable_core::query::Query;
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::stats::StatsSnapshot;
use littletable_core::value::Value;
use littletable_proto::{
    decode_response_frame, encode_request_frame, read_frame, write_frame, ErrorKind, Request,
    Response,
};
use littletable_vfs::Micros;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed; the server may have crashed. Re-establish
    /// with [`Client::reconnect`] and re-collect unacknowledged data.
    Disconnected(io::Error),
    /// The server rejected the request.
    Remote {
        /// Category.
        kind: ErrorKind,
        /// Server-provided description.
        message: String,
    },
    /// The server sent something unintelligible or unexpected.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected(e) => write!(f, "disconnected: {e}"),
            ClientError::Remote { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Disconnected(e)
    }
}

/// Result alias for client operations.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A connected LittleTable client.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    schemas: HashMap<String, Schema>,
    next_id: u64,
}

impl Client {
    /// Connects to a LittleTable server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("no address resolved".into()))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            addr,
            stream,
            reader,
            schemas: HashMap::new(),
            next_id: 1,
        })
    }

    /// Re-establishes the connection after a disconnect; cached schemas
    /// are invalidated.
    pub fn reconnect(&mut self) -> Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.stream = stream;
        self.schemas.clear();
        Ok(())
    }

    /// Writes one request frame without waiting for its response;
    /// returns the id it was sent under. Responses come back in send
    /// order — pair them up with [`Client::recv_response`].
    pub fn send_request(&mut self, req: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_request_frame(id, req))?;
        Ok(id)
    }

    /// Reads the next response frame, returning its id and body. Remote
    /// errors are returned as `Ok` here (the caller knows which request
    /// they belong to); [`Client::request`] converts them.
    pub fn recv_response(&mut self) -> Result<(u64, Response)> {
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Disconnected(io::ErrorKind::UnexpectedEof.into()))?;
        decode_response_frame(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        let id = self.send_request(req)?;
        let (got, resp) = self.recv_response()?;
        if got != id {
            return Err(ClientError::Protocol(format!(
                "response id {got} does not match request id {id}"
            )));
        }
        if let Response::Error { kind, message } = resp {
            return Err(ClientError::Remote { kind, message });
        }
        Ok(resp)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            r => Err(ClientError::Protocol(format!("expected Pong, got {r:?}"))),
        }
    }

    /// Lists table names.
    pub fn list_tables(&mut self) -> Result<Vec<String>> {
        match self.request(&Request::ListTables)? {
            Response::Tables { names } => Ok(names),
            r => Err(ClientError::Protocol(format!("expected Tables, got {r:?}"))),
        }
    }

    /// Creates a table.
    pub fn create_table(&mut self, table: &str, schema: Schema, ttl: Option<Micros>) -> Result<()> {
        match self.request(&Request::CreateTable {
            table: table.into(),
            schema,
            ttl,
        })? {
            Response::Ok => Ok(()),
            r => Err(ClientError::Protocol(format!("expected Ok, got {r:?}"))),
        }
    }

    /// Drops a table.
    pub fn drop_table(&mut self, table: &str) -> Result<()> {
        self.schemas.remove(table);
        match self.request(&Request::DropTable {
            table: table.into(),
        })? {
            Response::Ok => Ok(()),
            r => Err(ClientError::Protocol(format!("expected Ok, got {r:?}"))),
        }
    }

    /// Creates a rollup table over `base` with the given bucket period.
    /// `value_cols` get SUM/MIN/MAX stats; `distinct_cols` get
    /// HyperLogLog distinct sketches.
    pub fn create_rollup(
        &mut self,
        name: &str,
        base: &str,
        period: Micros,
        value_cols: Vec<String>,
        distinct_cols: Vec<String>,
    ) -> Result<()> {
        match self.request(&Request::CreateRollup {
            name: name.into(),
            base: base.into(),
            period,
            value_cols,
            distinct_cols,
        })? {
            Response::Ok => Ok(()),
            r => Err(ClientError::Protocol(format!("expected Ok, got {r:?}"))),
        }
    }

    /// Drops a rollup table and stops its maintenance.
    pub fn drop_rollup(&mut self, name: &str) -> Result<()> {
        self.schemas.remove(name);
        match self.request(&Request::DropRollup { name: name.into() })? {
            Response::Ok => Ok(()),
            r => Err(ClientError::Protocol(format!("expected Ok, got {r:?}"))),
        }
    }

    /// Appends a column.
    pub fn add_column(&mut self, table: &str, column: ColumnDef) -> Result<()> {
        self.schemas.remove(table);
        match self.request(&Request::AddColumn {
            table: table.into(),
            column,
        })? {
            Response::Ok => Ok(()),
            r => Err(ClientError::Protocol(format!("expected Ok, got {r:?}"))),
        }
    }

    /// Fetches (and caches) a table's schema.
    pub fn schema(&mut self, table: &str) -> Result<Schema> {
        if let Some(s) = self.schemas.get(table) {
            return Ok(s.clone());
        }
        match self.request(&Request::GetSchema {
            table: table.into(),
        })? {
            Response::SchemaInfo { schema, .. } => {
                self.schemas.insert(table.into(), schema.clone());
                Ok(schema)
            }
            r => Err(ClientError::Protocol(format!(
                "expected SchemaInfo, got {r:?}"
            ))),
        }
    }

    /// Inserts rows with explicit timestamps. Returns
    /// `(inserted, duplicates)`.
    pub fn insert(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(u64, u64)> {
        let rows = rows
            .into_iter()
            .map(|r| r.into_iter().map(Some).collect())
            .collect();
        self.insert_opt(table, rows)
    }

    /// Inserts rows, asking the server to stamp each row's `ts` column
    /// with its current time (§3.1). The value in the `ts` slot is a
    /// placeholder and is sent as absent.
    pub fn insert_stamped(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(u64, u64)> {
        let ts_index = self.schema(table)?.ts_index();
        let rows = rows
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .enumerate()
                    .map(|(i, v)| if i == ts_index { None } else { Some(v) })
                    .collect()
            })
            .collect();
        self.insert_opt(table, rows)
    }

    /// Inserts rows where each cell is optionally absent. Only the `ts`
    /// column may be absent; the server stamps those rows — and only
    /// those — with its current time, so one batch may mix explicit and
    /// server-stamped timestamps.
    pub fn insert_opt(&mut self, table: &str, rows: Vec<Vec<Option<Value>>>) -> Result<(u64, u64)> {
        match self.request(&Request::Insert {
            table: table.into(),
            rows,
        })? {
            Response::InsertResult {
                inserted,
                duplicates,
            } => Ok((inserted, duplicates)),
            r => Err(ClientError::Protocol(format!(
                "expected InsertResult, got {r:?}"
            ))),
        }
    }

    /// Runs a query, transparently re-submitting when the server's row
    /// limit truncates a response (see [`query_paged`]).
    pub fn query(&mut self, table: &str, query: &Query) -> Result<Vec<Vec<Value>>> {
        let schema = self.schema(table)?;
        query_paged(&schema, table, query, |req| self.request(req))
    }

    /// Fetches a table's operational counters, its on-disk tablet count
    /// and its on-disk bytes (see [`Response::Stats`]).
    pub fn stats(&mut self, table: &str) -> Result<(StatsSnapshot, u64, u64)> {
        let table = table.into();
        match self.request(&Request::Stats { table })? {
            Response::Stats {
                counters,
                disk_tablets,
                disk_bytes,
            } => Ok((*counters, disk_tablets, disk_bytes)),
            r => Err(ClientError::Protocol(format!("expected Stats, got {r:?}"))),
        }
    }

    /// Finds the latest row for a key prefix (§3.4.5).
    pub fn latest(&mut self, table: &str, prefix: Vec<Value>) -> Result<Option<Vec<Value>>> {
        match self.request(&Request::Latest {
            table: table.into(),
            prefix,
        })? {
            Response::LatestRow { row } => Ok(row),
            r => Err(ClientError::Protocol(format!(
                "expected LatestRow, got {r:?}"
            ))),
        }
    }
}

/// Runs `query` against one server that cuts each answer at its row
/// limit (§3.5), sending every request through `send`. Rows accumulate
/// until the query's own limit is reached or an answer is not
/// `more_available`; otherwise the query is re-submitted from just past
/// the last row's key (its upper bound when descending) with the
/// remaining limit. [`Client::query`] and the fleet adaptor (once per
/// shard) both page through here.
pub fn query_paged<E: From<ClientError>>(
    schema: &Schema,
    table: &str,
    query: &Query,
    mut send: impl FnMut(&Request) -> std::result::Result<Response, E>,
) -> std::result::Result<Vec<Vec<Value>>, E> {
    let mut q = query.clone();
    let mut out: Vec<Vec<Value>> = Vec::new();
    loop {
        let (rows, more) = match send(&Request::Query {
            table: table.into(),
            query: q.clone(),
        })? {
            Response::Rows {
                rows,
                more_available,
            } => (rows, more_available),
            r => return Err(ClientError::Protocol(format!("expected Rows, got {r:?}")).into()),
        };
        let last_key: Option<Vec<Value>> = rows.last().map(|row| {
            schema
                .key_indices()
                .iter()
                .map(|&i| row[i].clone())
                .collect()
        });
        out.extend(rows);
        if let Some(limit) = query.limit {
            if out.len() >= limit {
                out.truncate(limit);
                return Ok(out);
            }
            q.limit = Some(limit - out.len());
        }
        if !more {
            return Ok(out);
        }
        let key =
            last_key.ok_or_else(|| ClientError::Protocol("more_available with no rows".into()))?;
        q = if q.descending {
            q.with_key_max(key, false)
        } else {
            q.with_key_min(key, false)
        };
    }
}

/// Pipelined batch inserts: keeps up to `window` insert batches in
/// flight on the wire before blocking on the oldest acknowledgement.
/// Hides the per-batch round trip that serial insertion pays, which is
/// the dominant cost of high-frequency ingest over a network.
///
/// Relies on the server's FIFO-per-connection response ordering: the
/// oldest outstanding id is always the next response on the wire.
pub struct PipelinedInserter<'a> {
    client: &'a mut Client,
    table: String,
    batch_size: usize,
    window: usize,
    buffer: Vec<Vec<Option<Value>>>,
    in_flight: VecDeque<u64>,
    inserted: u64,
    duplicates: u64,
}

impl<'a> PipelinedInserter<'a> {
    /// Creates a pipelined inserter for `table`, sending every
    /// `batch_size` rows and keeping at most `window` unacknowledged
    /// batches in flight.
    pub fn new(client: &'a mut Client, table: &str, batch_size: usize, window: usize) -> Self {
        PipelinedInserter {
            client,
            table: table.to_string(),
            batch_size: batch_size.max(1),
            window: window.max(1),
            buffer: Vec::new(),
            in_flight: VecDeque::new(),
            inserted: 0,
            duplicates: 0,
        }
    }

    /// Queues a row with explicit values in every column.
    pub fn push(&mut self, row: Vec<Value>) -> Result<()> {
        self.push_opt(row.into_iter().map(Some).collect())
    }

    /// Queues a row; an absent `ts` cell asks the server to stamp it.
    pub fn push_opt(&mut self, row: Vec<Option<Value>>) -> Result<()> {
        self.buffer.push(row);
        if self.buffer.len() >= self.batch_size {
            self.send_batch()?;
        }
        Ok(())
    }

    /// Sends the buffered rows as one batch, first draining
    /// acknowledgements if the window is full.
    fn send_batch(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        while self.in_flight.len() >= self.window {
            self.recv_ack()?;
        }
        let rows = std::mem::take(&mut self.buffer);
        let id = self.client.send_request(&Request::Insert {
            table: self.table.clone(),
            rows,
        })?;
        self.in_flight.push_back(id);
        Ok(())
    }

    /// Blocks for the oldest outstanding acknowledgement.
    fn recv_ack(&mut self) -> Result<()> {
        let want = self
            .in_flight
            .pop_front()
            .expect("recv_ack with nothing in flight");
        let (id, resp) = self.client.recv_response()?;
        if id != want {
            return Err(ClientError::Protocol(format!(
                "response id {id} does not match oldest in-flight id {want}"
            )));
        }
        match resp {
            Response::InsertResult {
                inserted,
                duplicates,
            } => {
                self.inserted += inserted;
                self.duplicates += duplicates;
                Ok(())
            }
            Response::Error { kind, message } => Err(ClientError::Remote { kind, message }),
            r => Err(ClientError::Protocol(format!(
                "expected InsertResult, got {r:?}"
            ))),
        }
    }

    /// Batches currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Sends any queued rows and drains every outstanding
    /// acknowledgement, returning `(inserted, duplicates)` totals.
    pub fn finish(mut self) -> Result<(u64, u64)> {
        self.send_batch()?;
        while !self.in_flight.is_empty() {
            self.recv_ack()?;
        }
        Ok((self.inserted, self.duplicates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use littletable_core::db::Db;
    use littletable_core::value::ColumnType;
    use littletable_core::Options;
    use littletable_server::Server;
    use littletable_vfs::{SimClock, SimVfs};
    use std::sync::Arc;

    fn start_server(row_limit: usize) -> (Server, SocketAddr) {
        let mut opts = Options::small_for_tests();
        opts.server_row_limit = row_limit;
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(SimClock::new(1_700_000_000_000_000)),
            opts,
        )
        .unwrap();
        let mut server = Server::bind(db, "127.0.0.1:0").unwrap();
        server.start().unwrap();
        let addr = server.local_addr();
        (server, addr)
    }

    fn usage_schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("n", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("v", ColumnType::I64),
            ],
            &["n", "ts"],
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_with_continuation() {
        let (_server, addr) = start_server(10);
        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
        c.create_table("t", usage_schema(), None).unwrap();
        assert_eq!(c.list_tables().unwrap(), vec!["t".to_string()]);
        let rows: Vec<Vec<Value>> = (0..55)
            .map(|i| vec![Value::I64(i), Value::Timestamp(1000 + i), Value::I64(i)])
            .collect();
        assert_eq!(c.insert("t", rows).unwrap(), (55, 0));
        // 55 rows with a 10-row server cap: the client auto-continues.
        let got = c.query("t", &Query::all()).unwrap();
        assert_eq!(got.len(), 55);
        for (i, row) in got.iter().enumerate() {
            assert_eq!(row[0], Value::I64(i as i64));
        }
        // Descending continuation too.
        let got = c.query("t", &Query::all().descending()).unwrap();
        assert_eq!(got.len(), 55);
        assert_eq!(got[0][0], Value::I64(54));
        // Client-side limit caps across continuations.
        let got = c.query("t", &Query::all().with_limit(25)).unwrap();
        assert_eq!(got.len(), 25);
    }

    #[test]
    fn pipelined_inserter_overlaps_batches() {
        // (rows, batch size, window): a window of 1 is the plain batcher,
        // one batch on the wire at a time.
        for (n, batch, window) in [(100, 8, 4), (50, 16, 1)] {
            let (_server, addr) = start_server(1 << 20);
            let mut c = Client::connect(addr).unwrap();
            c.create_table("t", usage_schema(), None).unwrap();
            let mut p = PipelinedInserter::new(&mut c, "t", batch, window);
            for i in 0..n {
                p.push(vec![Value::I64(i), Value::Timestamp(i), Value::I64(i)])
                    .unwrap();
            }
            // Full batches have gone out; the newest waits on its ack,
            // and never more than `window` of them do.
            assert!((1..=window).contains(&p.in_flight()));
            let (ins, dup) = p.finish().unwrap();
            assert_eq!((ins, dup), (n as u64, 0));
            assert_eq!(c.query("t", &Query::all()).unwrap().len(), n as usize);
        }
    }

    #[test]
    fn pipelined_inserter_surfaces_remote_errors() {
        let (_server, addr) = start_server(1 << 20);
        let mut c = Client::connect(addr).unwrap();
        c.create_table("t", usage_schema(), None).unwrap();
        let mut p = PipelinedInserter::new(&mut c, "t", 2, 2);
        // Absent cell outside the ts column: the server rejects it.
        p.push_opt(vec![Some(Value::I64(1)), Some(Value::Timestamp(1)), None])
            .unwrap();
        p.push_opt(vec![Some(Value::I64(2)), Some(Value::Timestamp(2)), None])
            .unwrap();
        match p.finish() {
            Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, ErrorKind::Invalid),
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn stamped_and_mixed_inserts() {
        let (_server, addr) = start_server(1 << 20);
        let mut c = Client::connect(addr).unwrap();
        c.create_table("t", usage_schema(), None).unwrap();
        // insert_stamped replaces the ts placeholder with an absent cell.
        assert_eq!(
            c.insert_stamped(
                "t",
                vec![vec![Value::I64(1), Value::Timestamp(0), Value::I64(10)]]
            )
            .unwrap(),
            (1, 0)
        );
        // A mixed batch via insert_opt: one explicit, one stamped.
        assert_eq!(
            c.insert_opt(
                "t",
                vec![
                    vec![
                        Some(Value::I64(2)),
                        Some(Value::Timestamp(77)),
                        Some(Value::I64(20))
                    ],
                    vec![Some(Value::I64(3)), None, Some(Value::I64(30))],
                ]
            )
            .unwrap(),
            (2, 0)
        );
        let rows = c.query("t", &Query::all()).unwrap();
        assert_eq!(rows.len(), 3);
        let ts_of = |n: i64| {
            rows.iter()
                .find(|r| r[0] == Value::I64(n))
                .map(|r| r[1].clone())
                .unwrap()
        };
        assert_eq!(ts_of(1), Value::Timestamp(1_700_000_000_000_000));
        assert_eq!(ts_of(2), Value::Timestamp(77), "explicit ts clobbered");
        assert_eq!(ts_of(3), Value::Timestamp(1_700_000_000_000_000));
    }

    #[test]
    fn stats_round_trip() {
        let (_server, addr) = start_server(1 << 20);
        let mut c = Client::connect(addr).unwrap();
        c.create_table("t", usage_schema(), None).unwrap();
        c.insert(
            "t",
            vec![vec![Value::I64(1), Value::Timestamp(5), Value::I64(9)]],
        )
        .unwrap();
        let (counters, ..) = c.stats("t").unwrap();
        assert_eq!(counters.rows_inserted, 1);
        assert_eq!(counters.duplicate_keys, 0);
    }

    #[test]
    fn remote_errors_are_typed() {
        let (_server, addr) = start_server(100);
        let mut c = Client::connect(addr).unwrap();
        match c.schema("missing") {
            Err(ClientError::Remote { kind, .. }) => {
                assert_eq!(kind, ErrorKind::NoSuchTable)
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn disconnect_is_detected_and_reconnect_works() {
        let (mut server, addr) = start_server(100);
        let mut c = Client::connect(addr).unwrap();
        c.create_table("t", usage_schema(), None).unwrap();
        // Stop the server: the next request fails with Disconnected.
        server.shutdown();
        drop(server);
        let err = loop {
            match c.ping() {
                Err(e) => break e,
                Ok(()) => continue,
            }
        };
        assert!(matches!(err, ClientError::Disconnected(_)));
        // Bring up a new server on a fresh port and connect again.
        let (_server2, addr2) = start_server(100);
        let mut c2 = Client::connect(addr2).unwrap();
        c2.ping().unwrap();
    }
}
