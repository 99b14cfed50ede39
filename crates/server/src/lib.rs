//! The LittleTable server: the engine behind a framed TCP protocol.
//!
//! LittleTable runs as an independent server process; clients interact
//! with it over a persistent TCP connection (§3.1). This crate provides
//! [`handle_request`], the pure request dispatcher (which in-process
//! tests and the SQL layer reuse without a socket), and [`Server`], a
//! nonblocking readiness-loop ingest front end: a small pool of
//! shared-nothing worker shards polling their own connection sets,
//! pipelined request handling with bounded backpressure, and a
//! group-commit scheduler coalescing flush work across sessions (see
//! [`net`] for the full design).
//!
//! A query's answer never becomes rows here: the dispatcher drains the
//! engine's cursor as runs — row ranges of decoded blocks — and
//! [`Response::rows_from_runs`] encodes the frame payload straight from
//! their column slices, the bytes a [`Response::Rows`] of the same rows
//! encodes to. In-process callers of [`handle_request`] that want the
//! rows call [`Response::into_rows`] on what they get back.

#![warn(missing_docs)]

mod group_commit;
pub mod net;
mod poll;

pub use net::{Server, ServerConfig};

use littletable_core::db::Db;
use littletable_core::error::Error;
use littletable_core::value::Value;
use littletable_proto::{ErrorKind, Request, Response};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A node's position in the fleet: which shard it serves, its fencing
/// epoch, and whether it is currently the shard's primary or its warm
/// spare. Spares answer reads (possibly stale) but *fence* writes with
/// [`ErrorKind::NotPrimary`] — the invariant that makes failover safe:
/// after a promotion, the demoted/restarted old primary can no longer
/// accept inserts that would silently diverge from the new primary.
///
/// The epoch is bumped on every role change; promotion and demotion are
/// serialized by whatever coordinates the fleet (the failover driver),
/// so the two fields don't need to change atomically together — a
/// request racing a role flip either lands before it (old role, old
/// epoch) or after (new role), both of which the client handles.
#[derive(Debug)]
pub struct NodeState {
    node: u64,
    shard: u32,
    epoch: AtomicU64,
    primary: AtomicBool,
}

impl NodeState {
    /// A standalone/primary node at epoch 0 — the default for servers
    /// outside any fleet, where every request is allowed.
    pub fn primary(node: u64, shard: u32) -> NodeState {
        NodeState {
            node,
            shard,
            epoch: AtomicU64::new(0),
            primary: AtomicBool::new(true),
        }
    }

    /// A warm spare at the given epoch: serves reads, fences writes.
    pub fn spare(node: u64, shard: u32, epoch: u64) -> NodeState {
        NodeState {
            node,
            shard,
            epoch: AtomicU64::new(epoch),
            primary: AtomicBool::new(false),
        }
    }

    /// Stable node id within the fleet.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// The shard this node serves.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// True when this node is its shard's primary.
    pub fn is_primary(&self) -> bool {
        self.primary.load(Ordering::SeqCst)
    }

    /// Promotes the node to primary at `epoch` (a failover).
    pub fn promote(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
        self.primary.store(true, Ordering::SeqCst);
    }

    /// Demotes the node to spare at `epoch` (fencing an old primary).
    pub fn demote(&self, epoch: u64) {
        self.primary.store(false, Ordering::SeqCst);
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// The node's answer to [`Request::NodeStatus`].
    pub fn status(&self) -> Response {
        Response::NodeStatus {
            node: self.node,
            shard: self.shard,
            epoch: self.epoch(),
            primary: self.is_primary(),
        }
    }
}

impl Default for NodeState {
    fn default() -> NodeState {
        NodeState::primary(0, 0)
    }
}

/// True for requests that mutate the database and therefore must be
/// fenced on non-primary nodes. Reads are deliberately allowed on
/// spares — a warm spare is only as stale as the last archive pass, and
/// serving (possibly stale) reads from it matches the paper's relaxed
/// consistency stance (§2.2).
fn is_write(req: &Request) -> bool {
    matches!(
        req,
        Request::Insert { .. }
            | Request::CreateTable { .. }
            | Request::DropTable { .. }
            | Request::AddColumn { .. }
            | Request::WidenColumn { .. }
            | Request::SetTtl { .. }
            | Request::CreateRollup { .. }
            | Request::DropRollup { .. }
    )
}

/// Executes one request against the engine. This is the entire server
/// semantics; the TCP layer just frames it.
pub fn handle_request(db: &Db, req: Request) -> Response {
    match try_handle(db, req) {
        Ok(resp) => resp,
        Err(e) => Response::Error {
            kind: ErrorKind::of(&e),
            message: e.to_string(),
        },
    }
}

/// Fleet-aware dispatch: answers [`Request::NodeStatus`] from `node`,
/// fences writes on non-primary nodes with [`ErrorKind::NotPrimary`],
/// and otherwise delegates to [`handle_request`].
pub fn handle_fleet_request(db: &Db, node: &NodeState, req: Request) -> Response {
    if let Request::NodeStatus = req {
        return node.status();
    }
    if is_write(&req) && !node.is_primary() {
        return Response::Error {
            kind: ErrorKind::NotPrimary,
            message: format!(
                "node {} is a spare for shard {} (epoch {}); writes are fenced",
                node.node(),
                node.shard(),
                node.epoch()
            ),
        };
    }
    handle_request(db, req)
}

fn try_handle(db: &Db, req: Request) -> littletable_core::Result<Response> {
    Ok(match req {
        Request::Ping => Response::Pong,
        Request::ListTables => Response::Tables {
            names: db.list_tables(),
        },
        Request::GetSchema { table } => {
            let t = db.table(&table)?;
            Response::SchemaInfo {
                schema: (*t.schema()).clone(),
                ttl: t.ttl(),
            }
        }
        Request::CreateTable { table, schema, ttl } => {
            db.create_table(&table, schema, ttl)?;
            Response::Ok
        }
        Request::DropTable { table } => {
            db.drop_table(&table)?;
            Response::Ok
        }
        Request::AddColumn { table, column } => {
            db.table(&table)?.add_column(column)?;
            Response::Ok
        }
        Request::WidenColumn { table, column } => {
            db.table(&table)?.widen_column(&column)?;
            Response::Ok
        }
        Request::SetTtl { table, ttl } => {
            db.table(&table)?.set_ttl(ttl)?;
            Response::Ok
        }
        Request::Insert { table, rows } => {
            let t = db.table(&table)?;
            let ts_index = t.schema().ts_index();
            let now = t.now();
            // §3.1: only the timestamp may be omitted; the server stamps
            // it, keeping explicit timestamps in the same batch. The
            // engine itself has no NULLs (§3.5), so any other absent cell
            // is an error. Arity and types are `Table::insert`'s to check,
            // for the whole batch before any row applies.
            let mut cells = rows.iter().flat_map(|row| row.iter().enumerate());
            if let Some((i, _)) = cells.find(|(i, c)| c.is_none() && *i != ts_index) {
                return Err(Error::invalid(format!(
                    "absent value in non-timestamp column {i}"
                )));
            }
            // Each row keeps its allocation: `Option<Value>` and `Value`
            // are the same size, so the collects run in place.
            let rows = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|cell| cell.unwrap_or(Value::Timestamp(now)))
                        .collect()
                })
                .collect();
            let report = t.insert(rows)?;
            Response::InsertResult {
                inserted: report.inserted as u64,
                duplicates: report.duplicates as u64,
            }
        }
        Request::Query { table, query } => {
            let t = db.table(&table)?;
            // The result never leaves its blocks: the cursor hands over
            // row ranges and the response is encoded from their column
            // slices. No row, value or key is built here.
            let mut cur = t.query(&query)?;
            let mut runs = Vec::new();
            while let Some(run) = cur.next_run()? {
                runs.push(run);
            }
            Response::rows_from_runs(&runs, cur.more_available())
        }
        Request::Latest { table, prefix } => {
            let t = db.table(&table)?;
            Response::LatestRow {
                row: t.latest(&prefix)?.map(|r| r.values),
            }
        }
        Request::Stats { table } => {
            let t = db.table(&table)?;
            let s = t.stats().snapshot();
            Response::Stats {
                rows_inserted: s.rows_inserted,
                duplicate_keys: s.duplicate_keys,
                rows_scanned: s.rows_scanned,
                rows_returned: s.rows_returned,
                tablets_flushed: s.tablets_flushed,
                merges: s.merges,
                disk_tablets: t.num_disk_tablets() as u64,
                disk_bytes: t.disk_bytes(),
            }
        }
        Request::CreateRollup {
            name,
            base,
            period,
            value_cols,
            distinct_cols,
        } => {
            db.create_rollup(&name, &base, period, value_cols, distinct_cols)?;
            Response::Ok
        }
        Request::DropRollup { name } => {
            db.drop_rollup(&name)?;
            Response::Ok
        }
        // A server outside any fleet answers as a standalone primary;
        // fleet members answer from their real NodeState via
        // [`handle_fleet_request`] before dispatch reaches here.
        Request::NodeStatus => NodeState::default().status(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use littletable_core::schema::{ColumnDef, Schema};
    use littletable_core::value::ColumnType;
    use littletable_core::{Options, Query};
    use littletable_proto::{decode_response_frame, encode_request_frame, read_frame, write_frame};
    use littletable_vfs::{SimClock, SimVfs};
    use std::io::{self, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn test_db() -> Db {
        Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(SimClock::new(1_700_000_000_000_000)),
            Options::small_for_tests(),
        )
        .unwrap()
    }

    fn schema() -> Schema {
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

    fn some_row(vals: Vec<Value>) -> Vec<Option<Value>> {
        vals.into_iter().map(Some).collect()
    }

    /// Sends one enveloped request and reads one enveloped response.
    fn send(stream: &mut TcpStream, id: u64, req: &Request) -> (u64, Response) {
        write_frame(stream, &encode_request_frame(id, req)).unwrap();
        let mut reader = io::BufReader::new(stream.try_clone().unwrap());
        let payload = read_frame(&mut reader).unwrap().unwrap();
        decode_response_frame(&payload).unwrap()
    }

    #[test]
    fn dispatcher_full_flow() {
        let db = test_db();
        // Create.
        let resp = handle_request(
            &db,
            Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: None,
            },
        );
        assert_eq!(resp, Response::Ok);
        // Duplicate create fails with the right kind.
        match handle_request(
            &db,
            Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: None,
            },
        ) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::TableExists),
            r => panic!("unexpected {r:?}"),
        }
        // Insert with explicit timestamps.
        let resp = handle_request(
            &db,
            Request::Insert {
                table: "t".into(),
                rows: vec![
                    some_row(vec![Value::I64(1), Value::Timestamp(100), Value::I64(10)]),
                    some_row(vec![Value::I64(2), Value::Timestamp(200), Value::I64(20)]),
                ],
            },
        );
        assert_eq!(
            resp,
            Response::InsertResult {
                inserted: 2,
                duplicates: 0
            }
        );
        // Insert with a server-stamped timestamp (omitted ts cell).
        let resp = handle_request(
            &db,
            Request::Insert {
                table: "t".into(),
                rows: vec![vec![Some(Value::I64(3)), None, Some(Value::I64(30))]],
            },
        );
        assert!(matches!(resp, Response::InsertResult { inserted: 1, .. }));
        // Query everything.
        match handle_request(
            &db,
            Request::Query {
                table: "t".into(),
                query: Query::all(),
            },
        )
        .into_rows()
        {
            Response::Rows {
                rows,
                more_available,
            } => {
                assert_eq!(rows.len(), 3);
                assert!(!more_available);
                // The stamped row carries the engine clock's time.
                assert_eq!(rows[2][1], Value::Timestamp(1_700_000_000_000_000));
            }
            r => panic!("unexpected {r:?}"),
        }
        // Latest for prefix.
        match handle_request(
            &db,
            Request::Latest {
                table: "t".into(),
                prefix: vec![Value::I64(1)],
            },
        ) {
            Response::LatestRow { row: Some(row) } => assert_eq!(row[2], Value::I64(10)),
            r => panic!("unexpected {r:?}"),
        }
        // Schema info.
        match handle_request(&db, Request::GetSchema { table: "t".into() }) {
            Response::SchemaInfo { schema: s, ttl } => {
                assert_eq!(s.num_columns(), 3);
                assert_eq!(ttl, None);
            }
            r => panic!("unexpected {r:?}"),
        }
        // List and drop.
        assert_eq!(
            handle_request(&db, Request::ListTables),
            Response::Tables {
                names: vec!["t".into()]
            }
        );
        assert_eq!(
            handle_request(&db, Request::DropTable { table: "t".into() }),
            Response::Ok
        );
        match handle_request(&db, Request::GetSchema { table: "t".into() }) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::NoSuchTable),
            r => panic!("unexpected {r:?}"),
        }
    }

    /// A TTL that is not positive, off the wire, is refused: it would
    /// expire every row, and the next maintenance pass would unlink
    /// every tablet.
    #[test]
    fn a_ttl_that_is_not_positive_is_refused() {
        let db = test_db();
        let wire = |req: Request| {
            let frame = encode_request_frame(1, &req);
            let (_, req) = littletable_proto::decode_request_frame(&frame).unwrap();
            handle_request(&db, req)
        };
        let invalid = |resp: Response| match resp {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Invalid),
            r => panic!("unexpected {r:?}"),
        };
        for ttl in [0, -1] {
            invalid(wire(Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: Some(ttl),
            }));
        }
        let create = Request::CreateTable {
            table: "t".into(),
            schema: schema(),
            ttl: Some(3_600_000_000),
        };
        assert_eq!(wire(create), Response::Ok);
        let t = db.table("t").unwrap();
        let rows =
            (0..3).map(|n| vec![Value::I64(n), Value::Timestamp(t.now() - n), Value::I64(n)]);
        t.insert(rows.collect()).unwrap();
        t.flush_all().unwrap();
        let set = |ttl| Request::SetTtl {
            table: "t".into(),
            ttl: Some(ttl),
        };
        invalid(wire(set(-1)));
        invalid(wire(set(0)));
        assert_eq!(t.ttl(), Some(3_600_000_000));
        db.maintain().unwrap();
        assert_eq!(t.query_all(&Query::all()).unwrap().len(), 3);
        assert_eq!(t.num_disk_tablets(), 1);
    }

    #[test]
    fn dispatcher_rollup_lifecycle() {
        let db = test_db();
        assert_eq!(
            handle_request(
                &db,
                Request::CreateTable {
                    table: "t".into(),
                    schema: schema(),
                    ttl: None,
                },
            ),
            Response::Ok
        );
        handle_request(
            &db,
            Request::Insert {
                table: "t".into(),
                rows: vec![some_row(vec![
                    Value::I64(1),
                    Value::Timestamp(1),
                    Value::I64(10),
                ])],
            },
        );
        assert_eq!(
            handle_request(
                &db,
                Request::CreateRollup {
                    name: "t_1h".into(),
                    base: "t".into(),
                    period: 3_600_000_000,
                    value_cols: vec!["v".into()],
                    distinct_cols: vec![],
                },
            ),
            Response::Ok
        );
        // The rollup is a real table: listed and queryable.
        match handle_request(&db, Request::ListTables) {
            Response::Tables { names } => assert_eq!(names, vec!["t".to_string(), "t_1h".into()]),
            r => panic!("unexpected {r:?}"),
        }
        match handle_request(
            &db,
            Request::Query {
                table: "t_1h".into(),
                query: Query::all(),
            },
        )
        .into_rows()
        {
            Response::Rows { rows, .. } => assert_eq!(rows.len(), 1),
            r => panic!("unexpected {r:?}"),
        }
        // Rollups cannot stack, and drop removes the table.
        match handle_request(
            &db,
            Request::CreateRollup {
                name: "t_1d".into(),
                base: "t_1h".into(),
                period: 86_400_000_000,
                value_cols: vec![],
                distinct_cols: vec![],
            },
        ) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Invalid),
            r => panic!("unexpected {r:?}"),
        }
        assert_eq!(
            handle_request(
                &db,
                Request::DropRollup {
                    name: "t_1h".into()
                }
            ),
            Response::Ok
        );
        match handle_request(
            &db,
            Request::GetSchema {
                table: "t_1h".into(),
            },
        ) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::NoSuchTable),
            r => panic!("unexpected {r:?}"),
        }
    }

    /// Regression for the `server_sets_ts` clobber bug: a mixed batch
    /// keeps its explicit timestamps and stamps only the omitted ones.
    #[test]
    fn mixed_batch_stamps_only_omitted_timestamps() {
        let db = test_db();
        handle_request(
            &db,
            Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: None,
            },
        );
        let resp = handle_request(
            &db,
            Request::Insert {
                table: "t".into(),
                rows: vec![
                    some_row(vec![Value::I64(1), Value::Timestamp(42), Value::I64(1)]),
                    vec![Some(Value::I64(1)), None, Some(Value::I64(2))],
                    some_row(vec![Value::I64(1), Value::Timestamp(99), Value::I64(3)]),
                ],
            },
        );
        assert!(matches!(resp, Response::InsertResult { inserted: 3, .. }));
        match handle_request(
            &db,
            Request::Query {
                table: "t".into(),
                query: Query::all(),
            },
        )
        .into_rows()
        {
            Response::Rows { rows, .. } => {
                let ts: Vec<&Value> = rows.iter().map(|r| &r[1]).collect();
                assert!(ts.contains(&&Value::Timestamp(42)), "explicit ts clobbered");
                assert!(ts.contains(&&Value::Timestamp(99)), "explicit ts clobbered");
                assert!(
                    ts.contains(&&Value::Timestamp(1_700_000_000_000_000)),
                    "omitted ts not stamped"
                );
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    /// Malformed batches reject atomically: wrong-length rows, nulls
    /// outside the timestamp column, and type mismatches insert nothing.
    #[test]
    fn malformed_insert_batches_reject_atomically() {
        let db = test_db();
        handle_request(
            &db,
            Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: None,
            },
        );
        let bad_batches: Vec<Vec<Vec<Option<Value>>>> = vec![
            // Good row first, short row second: neither may apply.
            vec![
                some_row(vec![Value::I64(1), Value::Timestamp(1), Value::I64(1)]),
                vec![Some(Value::I64(2)), Some(Value::Timestamp(2))],
            ],
            // Row longer than the schema.
            vec![some_row(vec![
                Value::I64(1),
                Value::Timestamp(1),
                Value::I64(1),
                Value::I64(9),
            ])],
            // Null outside the timestamp column.
            vec![vec![None, Some(Value::Timestamp(1)), Some(Value::I64(1))]],
            // Type mismatch.
            vec![some_row(vec![
                Value::Str("x".into()),
                Value::Timestamp(1),
                Value::I64(1),
            ])],
        ];
        for batch in bad_batches {
            match handle_request(
                &db,
                Request::Insert {
                    table: "t".into(),
                    rows: batch,
                },
            ) {
                Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Invalid),
                r => panic!("unexpected {r:?}"),
            }
        }
        match handle_request(
            &db,
            Request::Query {
                table: "t".into(),
                query: Query::all(),
            },
        )
        .into_rows()
        {
            Response::Rows { rows, .. } => assert!(rows.is_empty(), "bad batch half-applied"),
            r => panic!("unexpected {r:?}"),
        }
    }

    /// What the server answers a query with is, byte for byte, the `Rows`
    /// response of the rows a row cursor returns — over a tablet written
    /// before the schema grew and widened, flushed tablets and a
    /// memtablet at once, in both directions, whole and paged by the
    /// server's row limit — and the server built no row to produce it.
    #[test]
    fn a_query_is_answered_in_the_bytes_its_rows_encode_to() {
        let opts = Options {
            server_row_limit: 25,
            block_size: 512,
            ..Options::small_for_tests()
        };
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(SimClock::new(1_700_000_000_000_000)),
            opts,
        )
        .unwrap();
        let wide = Schema::new(
            vec![
                ColumnDef::new("k", ColumnType::Str),
                ColumnDef::new("ts", ColumnType::Timestamp),
                ColumnDef::new("n", ColumnType::I32),
                ColumnDef::new("f", ColumnType::F64),
                ColumnDef::new("b", ColumnType::Blob),
            ],
            &["k", "ts"],
        )
        .unwrap();
        let t = db.create_table("w", wide, None).unwrap();
        let row = |i: i64, n: Value| {
            vec![
                Value::Str(format!("k{}", i % 7)),
                Value::Timestamp(i),
                n,
                Value::F64(if i % 5 == 0 { f64::NAN } else { i as f64 / 8.0 }),
                Value::Blob(vec![i as u8; (i % 4) as usize * 100]),
            ]
        };
        // Lagging tablet, then the schema moves on.
        t.insert((0..40).map(|i| row(i, Value::I32(i as i32 - 20))).collect())
            .unwrap();
        t.flush_all().unwrap();
        t.widen_column("n").unwrap();
        t.add_column(ColumnDef::with_default(
            "tag",
            ColumnType::Str,
            Value::Str("none".into()),
        ))
        .unwrap();
        let newer = |i: i64| {
            let mut r = row(i, Value::I64(i << 33));
            r.push(Value::Str(format!("tag-{}", i % 3)));
            r
        };
        t.insert((40..80).map(newer).collect()).unwrap();
        t.flush_all().unwrap();
        t.insert((80..100).map(newer).collect()).unwrap();
        assert_eq!(t.num_disk_tablets(), 2);

        let queries = [
            Query::all(),
            Query::all().descending(),
            Query::all().with_limit(10),
            Query::all().with_prefix(vec![Value::Str("k3".into())]),
            Query::all().with_ts_range(35, 85).descending(),
        ];
        for query in queries {
            let mut cur = t.query(&query).unwrap();
            let mut rows = Vec::new();
            while let Some(row) = cur.next_row().unwrap() {
                rows.push(row.values);
            }
            let want = Response::Rows {
                rows,
                more_available: cur.more_available(),
            }
            .encode();
            drop(cur);
            let built = t.stats().snapshot().rows_materialized;
            let resp = handle_request(
                &db,
                Request::Query {
                    table: "w".into(),
                    query: query.clone(),
                },
            );
            assert_eq!(t.stats().snapshot().rows_materialized, built, "{query:?}");
            assert!(matches!(resp, Response::EncodedRows { .. }), "{query:?}");
            assert_eq!(resp.encode(), want, "{query:?}");
            // NaN is not equal to itself: compare the decoded response by
            // what it encodes to.
            assert_eq!(resp.into_rows().encode(), want, "{query:?}");
        }
    }

    #[test]
    fn malformed_frames_get_error_responses_and_connection_survives() {
        let db = test_db();
        let mut server = Server::bind(db, "127.0.0.1:0").unwrap();
        server.start().unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Garbage body after a valid id: server answers with an Error
        // frame echoing the id.
        write_frame(&mut stream, &[0x07, 0xFF, 0x00, 0x13, 0x37]).unwrap();
        let mut reader = io::BufReader::new(stream.try_clone().unwrap());
        let payload = read_frame(&mut reader).unwrap().unwrap();
        let (id, resp) = decode_response_frame(&payload).unwrap();
        assert_eq!(id, 0x07);
        match resp {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Internal),
            r => panic!("unexpected {r:?}"),
        }
        // The connection still works afterwards.
        let (id, resp) = send(&mut stream, 8, &Request::Ping);
        assert_eq!((id, resp), (8, Response::Pong));
        server.shutdown();
    }

    #[test]
    fn stats_reflect_activity() {
        let db = test_db();
        handle_request(
            &db,
            Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: None,
            },
        );
        handle_request(
            &db,
            Request::Insert {
                table: "t".into(),
                rows: vec![
                    some_row(vec![Value::I64(1), Value::Timestamp(1), Value::I64(1)]),
                    some_row(vec![Value::I64(1), Value::Timestamp(1), Value::I64(1)]), // dup
                ],
            },
        );
        match handle_request(&db, Request::Stats { table: "t".into() }) {
            Response::Stats {
                rows_inserted,
                duplicate_keys,
                ..
            } => {
                assert_eq!(rows_inserted, 1);
                assert_eq!(duplicate_keys, 1);
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    /// Spares fence writes with NotPrimary, serve reads, and answer
    /// NodeStatus; promotion flips all of that at a new epoch.
    #[test]
    fn spare_fences_writes_until_promoted() {
        let db = test_db();
        handle_request(
            &db,
            Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: None,
            },
        );
        let node = NodeState::spare(7, 3, 2);
        // Status reflects the spare role.
        assert_eq!(
            handle_fleet_request(&db, &node, Request::NodeStatus),
            Response::NodeStatus {
                node: 7,
                shard: 3,
                epoch: 2,
                primary: false,
            }
        );
        // Writes are fenced...
        match handle_fleet_request(
            &db,
            &node,
            Request::Insert {
                table: "t".into(),
                rows: vec![some_row(vec![
                    Value::I64(1),
                    Value::Timestamp(1),
                    Value::I64(1),
                ])],
            },
        ) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::NotPrimary),
            r => panic!("unexpected {r:?}"),
        }
        match handle_fleet_request(&db, &node, Request::DropTable { table: "t".into() }) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::NotPrimary),
            r => panic!("unexpected {r:?}"),
        }
        // ...reads are not.
        match handle_fleet_request(
            &db,
            &node,
            Request::Query {
                table: "t".into(),
                query: Query::all(),
            },
        )
        .into_rows()
        {
            Response::Rows { rows, .. } => assert!(rows.is_empty()),
            r => panic!("unexpected {r:?}"),
        }
        // Promotion unfences at the new epoch.
        node.promote(3);
        assert!(node.is_primary());
        assert_eq!(node.epoch(), 3);
        assert!(matches!(
            handle_fleet_request(
                &db,
                &node,
                Request::Insert {
                    table: "t".into(),
                    rows: vec![some_row(vec![
                        Value::I64(1),
                        Value::Timestamp(1),
                        Value::I64(1),
                    ])],
                },
            ),
            Response::InsertResult { inserted: 1, .. }
        ));
        // Demotion fences again (failback).
        node.demote(4);
        match handle_fleet_request(
            &db,
            &node,
            Request::Insert {
                table: "t".into(),
                rows: vec![some_row(vec![
                    Value::I64(9),
                    Value::Timestamp(9),
                    Value::I64(9),
                ])],
            },
        ) {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::NotPrimary);
                assert!(message.contains("epoch 4"), "{message}");
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    /// A fleet-bound TCP server fences over the wire too, and a
    /// standalone server answers NodeStatus as a primary.
    #[test]
    fn tcp_server_respects_node_state() {
        let db = test_db();
        handle_request(
            &db,
            Request::CreateTable {
                table: "t".into(),
                schema: schema(),
                ttl: None,
            },
        );
        let node = Arc::new(NodeState::spare(1, 0, 5));
        let mut server =
            Server::bind_as(db, "127.0.0.1:0", ServerConfig::default(), node.clone()).unwrap();
        server.start().unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        match send(&mut stream, 1, &Request::NodeStatus) {
            (
                1,
                Response::NodeStatus {
                    node: 1,
                    shard: 0,
                    epoch: 5,
                    primary: false,
                },
            ) => {}
            r => panic!("unexpected {r:?}"),
        }
        match send(
            &mut stream,
            2,
            &Request::Insert {
                table: "t".into(),
                rows: vec![some_row(vec![
                    Value::I64(1),
                    Value::Timestamp(1),
                    Value::I64(1),
                ])],
            },
        ) {
            (2, Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::NotPrimary),
            r => panic!("unexpected {r:?}"),
        }
        // Promote through the shared handle: the live server unfences.
        node.promote(6);
        assert!(matches!(
            send(
                &mut stream,
                3,
                &Request::Insert {
                    table: "t".into(),
                    rows: vec![some_row(vec![
                        Value::I64(1),
                        Value::Timestamp(1),
                        Value::I64(1),
                    ])],
                },
            ),
            (3, Response::InsertResult { inserted: 1, .. })
        ));
        server.shutdown();

        // Standalone servers answer as primary without any fleet wiring.
        let db2 = test_db();
        let mut standalone = Server::bind(db2, "127.0.0.1:0").unwrap();
        standalone.start().unwrap();
        let mut s2 = TcpStream::connect(standalone.local_addr()).unwrap();
        match send(&mut s2, 1, &Request::NodeStatus) {
            (1, Response::NodeStatus { primary: true, .. }) => {}
            r => panic!("unexpected {r:?}"),
        }
        standalone.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        let db = test_db();
        let mut server = Server::bind(db, "127.0.0.1:0").unwrap();
        server.start().unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        assert_eq!(send(&mut stream, 1, &Request::Ping), (1, Response::Pong));
        assert_eq!(
            send(
                &mut stream,
                2,
                &Request::CreateTable {
                    table: "t".into(),
                    schema: schema(),
                    ttl: None,
                }
            ),
            (2, Response::Ok)
        );
        assert!(matches!(
            send(
                &mut stream,
                3,
                &Request::Insert {
                    table: "t".into(),
                    rows: vec![some_row(vec![
                        Value::I64(1),
                        Value::Timestamp(5),
                        Value::I64(50)
                    ])],
                }
            ),
            (3, Response::InsertResult { inserted: 1, .. })
        ));
        match send(
            &mut stream,
            4,
            &Request::Query {
                table: "t".into(),
                query: Query::all(),
            },
        ) {
            (4, Response::Rows { rows, .. }) => assert_eq!(rows.len(), 1),
            r => panic!("unexpected {r:?}"),
        }
        drop(stream);
        server.shutdown();
    }

    /// Pipelining: many requests written back-to-back before any response
    /// is read come back in FIFO order with matching ids.
    #[test]
    fn pipelined_requests_answer_in_fifo_order() {
        let db = test_db();
        let mut server = Server::bind(db, "127.0.0.1:0").unwrap();
        server.start().unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();

        write_frame(
            &mut stream,
            &encode_request_frame(
                1,
                &Request::CreateTable {
                    table: "t".into(),
                    schema: schema(),
                    ttl: None,
                },
            ),
        )
        .unwrap();
        for id in 2..=33u64 {
            write_frame(
                &mut stream,
                &encode_request_frame(
                    id,
                    &Request::Insert {
                        table: "t".into(),
                        rows: vec![some_row(vec![
                            Value::I64(id as i64),
                            Value::Timestamp(id as i64),
                            Value::I64(0),
                        ])],
                    },
                ),
            )
            .unwrap();
        }
        write_frame(&mut stream, &encode_request_frame(34, &Request::Ping)).unwrap();

        let mut reader = io::BufReader::new(stream.try_clone().unwrap());
        for want in 1..=34u64 {
            let payload = read_frame(&mut reader).unwrap().unwrap();
            let (id, resp) = decode_response_frame(&payload).unwrap();
            assert_eq!(id, want, "responses out of order");
            match (want, resp) {
                (1, Response::Ok) | (34, Response::Pong) => {}
                (_, Response::InsertResult { inserted: 1, .. }) => {}
                (w, r) => panic!("unexpected response {r:?} for id {w}"),
            }
        }
        server.shutdown();
    }

    /// Writes one valid frame in two halves, split mid-payload, with a
    /// pause between them.
    fn write_split_frame(stream: &mut TcpStream, payload: &[u8], pause: Duration) {
        let mut framed = Vec::new();
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(payload);
        let cut = 4 + 2; // header plus two payload bytes
        stream.write_all(&framed[..cut]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(pause);
        stream.write_all(&framed[cut..]).unwrap();
        stream.flush().unwrap();
    }

    /// Regression: a writer that pauses mid-frame once desynced the
    /// stream (a blocking loop with a 200 ms read timeout dropped the
    /// bytes it had consumed). The incremental decoder preserves partial
    /// state across arbitrarily slow writers and answers correctly.
    #[test]
    fn slow_writer_is_fine_with_incremental_decoder() {
        let db = test_db();
        let mut server = Server::bind(db, "127.0.0.1:0").unwrap();
        server.start().unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let payload = encode_request_frame(
            1,
            &Request::GetSchema {
                table: "zzzzzz".into(),
            },
        );
        write_split_frame(&mut stream, &payload, Duration::from_millis(350));
        let mut reader = io::BufReader::new(stream.try_clone().unwrap());
        let resp = read_frame(&mut reader).unwrap().unwrap();
        let (id, resp) = decode_response_frame(&resp).unwrap();
        assert_eq!(id, 1);
        match resp {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::NoSuchTable),
            r => panic!("unexpected {r:?}"),
        }
        // And the connection keeps working.
        assert_eq!(send(&mut stream, 2, &Request::Ping), (2, Response::Pong));
        server.shutdown();
    }

    /// Regression for the hung/slow shutdown: with an idle client still
    /// connected, shutdown must complete well under a second (the old
    /// accept loop joined connection threads that sat in read timeouts).
    #[test]
    fn shutdown_with_idle_client_is_prompt() {
        let db = test_db();
        let mut server = Server::bind(db, "127.0.0.1:0").unwrap();
        server.start().unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(send(&mut stream, 1, &Request::Ping), (1, Response::Pong));
        // Client now sits idle; shutdown must not wait for it.
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "shutdown took {:?} with an idle client connected",
            t0.elapsed()
        );
    }

    /// The group-commit scheduler flushes sealed work without any client
    /// asking for it.
    #[test]
    fn group_commit_flushes_in_background() {
        let db = test_db();
        let mut server = Server::bind(db, "127.0.0.1:0").unwrap();
        server.start().unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(
            send(
                &mut stream,
                1,
                &Request::CreateTable {
                    table: "t".into(),
                    schema: schema(),
                    ttl: None,
                }
            ),
            (1, Response::Ok)
        );
        // Push enough data through the server to roll the 64 kB memtable
        // over into sealed tablets; the committer must flush them.
        let rows: Vec<Vec<Option<Value>>> = (0..1000)
            .map(|i| {
                some_row(vec![
                    Value::I64(i),
                    Value::Timestamp(i),
                    Value::I64(i * 1_000_003),
                ])
            })
            .collect();
        for id in 2u64..10 {
            let resp = send(
                &mut stream,
                id,
                &Request::Insert {
                    table: "t".into(),
                    rows: rows
                        .iter()
                        .map(|r| {
                            let mut r = r.clone();
                            r[1] = Some(Value::Timestamp(id as i64 * 1_000_000));
                            r
                        })
                        .collect(),
                },
            );
            assert!(matches!(resp.1, Response::InsertResult { .. }));
        }
        let table = server.db().table("t").unwrap();
        let t0 = Instant::now();
        while table.num_disk_tablets() == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "group commit never flushed sealed tablets"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    /// Batches for distinct tables commit on distinct write shards: each
    /// table hashes to one shard, and inserting into two tables on
    /// different shards advances both shards' commit counters
    /// independently.
    #[test]
    fn distinct_tables_commit_on_distinct_shards() {
        let db = test_db();
        let mut server = Server::bind_with(
            db,
            "127.0.0.1:0",
            ServerConfig {
                commit_shards: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        server.start().unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();

        // Create tables until two land on different commit shards (the
        // hash is table-name driven, so a handful of names suffices).
        let mut picked: Vec<(String, usize)> = Vec::new();
        for i in 0.. {
            let name = format!("t{i}");
            assert_eq!(
                send(
                    &mut stream,
                    i + 1,
                    &Request::CreateTable {
                        table: name.clone(),
                        schema: schema(),
                        ttl: None,
                    }
                )
                .1,
                Response::Ok
            );
            let shard = server.commit_shard_of(&name);
            if !picked.iter().any(|(_, s)| *s == shard) {
                picked.push((name, shard));
            }
            if picked.len() == 2 {
                break;
            }
            assert!(i < 64, "never found two tables on distinct shards");
        }
        assert_ne!(picked[0].1, picked[1].1);

        let before = server.commit_shard_counts();
        for (id, (name, _)) in picked.iter().enumerate() {
            let resp = send(
                &mut stream,
                100 + id as u64,
                &Request::Insert {
                    table: name.clone(),
                    rows: (0..8)
                        .map(|i| {
                            some_row(vec![
                                Value::I64(i),
                                Value::Timestamp(i * 1_000),
                                Value::I64(i),
                            ])
                        })
                        .collect(),
                },
            );
            assert!(matches!(resp.1, Response::InsertResult { .. }));
        }
        // Each table's rows must wake its own shard: both shard counters
        // advance, and shards owning no dirty table stay untouched by
        // these inserts (they may still be zero).
        let t0 = Instant::now();
        loop {
            let now = server.commit_shard_counts();
            let woke = picked.iter().filter(|(_, s)| now[*s] > before[*s]).count();
            if woke == 2 {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "commit shards never ran: before={before:?} now={now:?} picked={picked:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }
}
