//! Operations as small descriptors, the three ways of executing one
//! (socket-less request path, real socket, engine calls), and the span
//! names each way records.

use crate::data::{self, Grid, COL_RSSI, TABLE};
use crate::env::Env;
use crate::trace::Tracer;
use littletable_client::Client;
use littletable_core::{ColumnPredicate, PredOp, PushdownRequest, Query, Value};
use littletable_proto::{
    decode_request_frame, decode_response_frame, encode_request_frame, encode_response_frame,
    Request, Response,
};
use littletable_server::handle_request;
use littletable_sql::{Session, SqlOutput};
use littletable_vfs::Micros;

/// The form of a SQL statement, named after what should serve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 5-minute buckets with a residual `rssi` predicate: columnar
    /// pushdown, the rollup cannot serve it.
    Pushdown,
    /// Hourly buckets: served from the rollup where it has folded.
    Rollup,
    /// Ungrouped COUNT/MIN/MAX: footer statistics.
    Stats,
}

/// One operation. Cheap to make from `(seed, index)`; the heavy inputs
/// are built by [`Op::prepare`] outside every timed section.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// One tick of `count` devices from `first`, then optionally a
    /// maintenance pass (charged to this op, as an ack that waits for its
    /// group commit would be), then the clock moves to `then`.
    Insert {
        tick: i64,
        first: i64,
        count: i64,
        maintain: bool,
        then: Micros,
    },
    /// Rows of one device, or of a whole network, with `lo <= ts <= hi`.
    Scan {
        network: i64,
        device: Option<i64>,
        lo: Micros,
        hi: Micros,
        /// Ticks `0..ticks` exist when this runs.
        ticks: i64,
    },
    Latest {
        device: i64,
        ticks: i64,
    },
    /// An aggregate over one network with `lo <= ts < hi`.
    Sql {
        shape: Shape,
        /// A verbatim repeat of an earlier statement, which the result
        /// cache should answer.
        repeat: bool,
        network: i64,
        lo: Micros,
        hi: Micros,
        ticks: i64,
    },
}

/// `rssi` threshold of the pushdown statements: about half the rows
/// pass, and no block's zone map can decide it.
pub const RSSI_BELOW: f64 = -60.0;

/// The concrete inputs of an op.
pub enum Prepared {
    Request(Request),
    Sql(String),
}

/// What came back, reduced to what the oracle checks.
#[derive(Debug)]
pub enum Reply {
    Inserted { inserted: u64, duplicates: u64 },
    Rows(Vec<Vec<Value>>),
    Latest(Option<Vec<Value>>),
    Error(String),
}

impl Op {
    pub fn scan_query(network: i64, device: Option<i64>, lo: Micros, hi: Micros) -> Query {
        let mut prefix = vec![Value::I64(network)];
        prefix.extend(device.map(Value::I64));
        Query::all()
            .with_prefix(prefix)
            .with_ts_min(lo, true)
            .with_ts_max(hi, true)
    }

    pub fn sql_text(shape: Shape, network: i64, lo: Micros, hi: Micros) -> String {
        let bounds = format!("network = {network} AND ts >= {lo} AND ts < {hi}");
        match shape {
            Shape::Pushdown => format!(
                "SELECT TIME_BUCKET(ts, INTERVAL '5m'), COUNT(*), SUM(up), MAX(down), AVG(rssi) \
                 FROM {TABLE} WHERE {bounds} AND rssi < {RSSI_BELOW:.1} \
                 GROUP BY TIME_BUCKET(ts, INTERVAL '5m')"
            ),
            Shape::Rollup => format!(
                "SELECT TIME_BUCKET(ts, INTERVAL '1h'), COUNT(*), SUM(up), MAX(down), \
                 COUNT(DISTINCT device) FROM {TABLE} WHERE {bounds} \
                 GROUP BY TIME_BUCKET(ts, INTERVAL '1h')"
            ),
            Shape::Stats => {
                // `clients` is not in the rollup, so this cannot be served
                // from it.
                format!("SELECT COUNT(*), MIN(clients), MAX(clients) FROM {TABLE} WHERE {bounds}")
            }
        }
    }

    pub fn prepare(&self, grid: &Grid) -> Prepared {
        match *self {
            Op::Insert {
                tick, first, count, ..
            } => Prepared::Request(Request::Insert {
                table: TABLE.into(),
                rows: (first..first + count)
                    .map(|d| grid.row(d, tick).into_iter().map(Some).collect())
                    .collect(),
            }),
            Op::Scan {
                network,
                device,
                lo,
                hi,
                ..
            } => Prepared::Request(Request::Query {
                table: TABLE.into(),
                query: Op::scan_query(network, device, lo, hi),
            }),
            Op::Latest { device, .. } => Prepared::Request(Request::Latest {
                table: TABLE.into(),
                prefix: vec![Value::I64(Grid::network(device)), Value::I64(device)],
            }),
            Op::Sql {
                shape,
                network,
                lo,
                hi,
                ..
            } => Prepared::Sql(Op::sql_text(shape, network, lo, hi)),
        }
    }

    /// Label of the op's class, used to group latencies.
    pub fn class(&self) -> &'static str {
        match self {
            Op::Insert { .. } => "insert",
            Op::Scan {
                device: Some(_), ..
            } => "device_scan",
            Op::Scan { device: None, .. } => "network_scan",
            Op::Latest { .. } => "latest",
            Op::Sql { repeat: true, .. } => "sql_cached",
            Op::Sql { shape, .. } => match shape {
                Shape::Pushdown => "sql_pushdown",
                Shape::Rollup => "sql_rollup",
                Shape::Stats => "sql_stats",
            },
        }
    }
}

/// How an op reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `encode_request_frame → decode_request_frame → handle_request →
    /// encode_response_frame → decode_response_frame`, no socket.
    Wire,
    /// `Client` over TCP to a `Server`.
    Socket,
    /// `Table` / `Db` / `sql::parse` calls, one span each.
    Engine,
}

/// Byte counts of the frames of one [`Path::Wire`] op.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireBytes {
    pub request: u64,
    pub response: u64,
}

pub struct Executor<'a> {
    pub env: &'a Env,
    pub session: &'a Session,
    pub client: Option<&'a mut Client>,
    pub wire: WireBytes,
}

fn response_to_reply(resp: Response) -> Reply {
    match resp {
        Response::InsertResult {
            inserted,
            duplicates,
        } => Reply::Inserted {
            inserted,
            duplicates,
        },
        Response::Rows {
            rows,
            more_available: false,
        } => Reply::Rows(rows),
        Response::LatestRow { row } => Reply::Latest(row),
        other => Reply::Error(format!("unexpected response {other:?}")),
    }
}

fn sql_reply(result: littletable_core::Result<SqlOutput>) -> Reply {
    match result {
        Ok(SqlOutput::Rows { rows, .. }) => Reply::Rows(rows),
        Ok(other) => Reply::Error(format!("unexpected SQL output {other:?}")),
        Err(e) => Reply::Error(e.to_string()),
    }
}

impl Executor<'_> {
    /// Executes one op; the caller times this call. SQL always goes
    /// through `Session::execute` (it is not on the wire: `Request` has
    /// no SQL variant), except on [`Path::Engine`], which times the
    /// parser and the pushdown scan on their own.
    pub fn run(&mut self, op: &Op, input: Prepared, path: Path, tr: &mut Tracer) -> Reply {
        let reply = match (input, path) {
            (Prepared::Sql(text), Path::Engine) => self.sql_engine(op, &text, tr),
            (Prepared::Sql(text), _) => {
                let name = match op {
                    Op::Sql { repeat: true, .. } => "sql.execute_cached",
                    Op::Sql {
                        shape: Shape::Pushdown,
                        ..
                    } => "sql.execute_pushdown",
                    Op::Sql {
                        shape: Shape::Rollup,
                        ..
                    } => "sql.execute_rollup",
                    _ => "sql.execute_stats",
                };
                sql_reply(tr.span(name, || self.session.execute(&text)))
            }
            (Prepared::Request(req), Path::Wire) => self.wire(req, tr),
            (Prepared::Request(req), Path::Socket) => self.socket(req, tr),
            (Prepared::Request(req), Path::Engine) => self.engine(req, tr),
        };
        if let Op::Insert { maintain, then, .. } = *op {
            if maintain {
                if let Err(e) = tr.span("core.maintenance.maintain", || self.env.maintain()) {
                    return Reply::Error(format!("maintain: {e}"));
                }
            }
            self.env.advance_to(then);
        }
        reply
    }

    fn wire(&mut self, req: Request, tr: &mut Tracer) -> Reply {
        let insert = matches!(req, Request::Insert { .. });
        let frame = tr.span("proto.encode_request", || encode_request_frame(1, &req));
        drop(req);
        self.wire.request += frame.len() as u64;
        let decoded = tr.span("proto.decode_request", || decode_request_frame(&frame));
        let (id, req) = match decoded {
            Ok(x) => x,
            Err(e) => return Reply::Error(format!("decode request: {e}")),
        };
        let name = if insert {
            "server.handle_insert"
        } else {
            "server.handle_query"
        };
        let resp = tr.span(name, || handle_request(&self.env.db, req));
        let frame = tr.span("proto.encode_response", || encode_response_frame(id, &resp));
        drop(resp);
        self.wire.response += frame.len() as u64;
        match tr.span("proto.decode_response", || decode_response_frame(&frame)) {
            Ok((_, resp)) => response_to_reply(resp),
            Err(e) => Reply::Error(format!("decode response: {e}")),
        }
    }

    fn socket(&mut self, req: Request, tr: &mut Tracer) -> Reply {
        let client = self.client.as_mut().expect("a socket op needs a client");
        match req {
            Request::Query { table, query } => {
                match tr.span("client.query", || client.query(&table, &query)) {
                    Ok(rows) => Reply::Rows(rows),
                    Err(e) => Reply::Error(e.to_string()),
                }
            }
            Request::Latest { table, prefix } => {
                match tr.span("client.latest", || client.latest(&table, prefix)) {
                    Ok(row) => Reply::Latest(row),
                    Err(e) => Reply::Error(e.to_string()),
                }
            }
            other => match client.request(&other) {
                Ok(resp) => response_to_reply(resp),
                Err(e) => Reply::Error(e.to_string()),
            },
        }
    }

    fn engine(&mut self, req: Request, tr: &mut Tracer) -> Reply {
        let db = &self.env.db;
        let table = match tr.span("core.db.table", || db.table(TABLE)) {
            Ok(t) => t,
            Err(e) => return Reply::Error(e.to_string()),
        };
        match req {
            Request::Insert { rows, .. } => {
                let rows: Vec<Vec<Value>> = rows
                    .into_iter()
                    .map(|r| r.into_iter().flatten().collect())
                    .collect();
                match tr.span("core.write.insert", || table.insert(rows)) {
                    Ok(r) => Reply::Inserted {
                        inserted: r.inserted as u64,
                        duplicates: r.duplicates as u64,
                    },
                    Err(e) => Reply::Error(e.to_string()),
                }
            }
            Request::Query { query, .. } => {
                let mut cursor = match tr.span("core.read.open", || table.query(&query)) {
                    Ok(c) => c,
                    Err(e) => return Reply::Error(e.to_string()),
                };
                let mut rows = Vec::new();
                // Paper Fig. 6: time to the first row, then the drain.
                match tr.span("core.read.first_row", || cursor.next_row()) {
                    Ok(Some(row)) => rows.push(row.values),
                    Ok(None) => return Reply::Rows(rows),
                    Err(e) => return Reply::Error(e.to_string()),
                }
                let drained = tr.span("core.read.drain", || {
                    while let Some(row) = cursor.next_row()? {
                        rows.push(row.values);
                    }
                    Ok::<(), littletable_core::Error>(())
                });
                match drained {
                    Ok(()) => Reply::Rows(rows),
                    Err(e) => Reply::Error(e.to_string()),
                }
            }
            Request::Latest { prefix, .. } => {
                match tr.span("core.read.latest", || table.latest(&prefix)) {
                    Ok(row) => Reply::Latest(row.map(|r| r.values)),
                    Err(e) => Reply::Error(e.to_string()),
                }
            }
            other => Reply::Error(format!("no engine path for {other:?}")),
        }
    }

    /// The parser and the columnar scan under a pushdown statement,
    /// each on its own; the statement itself then runs as usual so the
    /// reply can still be checked.
    fn sql_engine(&mut self, op: &Op, text: &str, tr: &mut Tracer) -> Reply {
        if let Err(e) = tr.span("sql.parse", || littletable_sql::parse(text)) {
            return Reply::Error(e.to_string());
        }
        if let Op::Sql {
            shape: Shape::Pushdown,
            repeat: false,
            network,
            lo,
            hi,
            ..
        } = *op
        {
            let req = PushdownRequest {
                query: Op::scan_query(network, None, lo, hi - 1),
                predicates: vec![ColumnPredicate {
                    col: COL_RSSI,
                    op: PredOp::Lt,
                    value: Value::F64(RSSI_BELOW),
                }],
                stats_cols: None,
            };
            let table = self.env.usage();
            let scanned = tr.span("core.colscan.pushdown_scan", || {
                table.pushdown_scan(&req, &mut |unit| {
                    std::hint::black_box(&unit);
                    Ok(())
                })
            });
            if let Err(e) = scanned {
                return Reply::Error(e.to_string());
            }
        }
        sql_reply(self.session.execute(text))
    }
}

/// Rows a statement or scan covers: the devices of `network` (or the
/// one `device`) times the ticks in the time range.
pub fn rows_covered(grid: &Grid, op: &Op) -> u64 {
    match *op {
        Op::Insert { count, .. } => count as u64,
        Op::Latest { .. } => 1,
        Op::Scan {
            device,
            lo,
            hi,
            ticks,
            ..
        } => {
            let (a, b) = grid.ticks_in(lo, hi, ticks);
            let devices = device.map_or(data::DEVICES_PER_NETWORK, |_| 1);
            ((b - a) * devices) as u64
        }
        Op::Sql { lo, hi, ticks, .. } => {
            let (a, b) = grid.ticks_in(lo, hi - 1, ticks);
            ((b - a) * data::DEVICES_PER_NETWORK) as u64
        }
    }
}
