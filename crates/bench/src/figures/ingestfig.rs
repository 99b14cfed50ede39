//! BENCH_ingest: pipelined ingest throughput of the nonblocking
//! readiness-loop server.
//!
//! Not a figure from the paper — it characterises this implementation's
//! ingest front end (the paper's deployment ingests from thousands of
//! access points through a handful of collector connections per shard,
//! §4). The server fronts an engine on an instant simulated disk;
//! clients keep a bounded window of insert batches in flight and record
//! per-batch acknowledgement latency; the figure reports aggregate
//! rows/s and p99 ack latency over a connections × batch-size grid,
//! measured in wall-clock time on real sockets. It stands in for the
//! concurrent-ingest workload the `e2e` benchmark does not have yet.

use crate::report::FigureResult;
use littletable_core::db::Db;
use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::value::{ColumnType, Value};
use littletable_core::Options;
use littletable_proto::{
    decode_response_frame, encode_request_frame, read_frame, write_frame, Request, Response,
};
use littletable_server::{handle_request, Server, ServerConfig};
use littletable_vfs::{SimClock, SimVfs};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const WINDOW: usize = 8;
const TABLE: &str = "ingest";

fn ingest_schema() -> Schema {
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

fn bench_db() -> Db {
    // Instant simulated disk: the quantity under test is the front end,
    // not the storage stack. Background maintenance is off; the server's
    // group committer drives flushes.
    Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(SimClock::new(1_700_000_000_000_000)),
        Options::small_for_tests(),
    )
    .unwrap()
}

/// Drives `conns` pipelined client connections against `addr`, each
/// inserting `batches` batches of `batch` rows with up to [`WINDOW`]
/// batches in flight. Returns `(rows_per_sec, p99_ack_ms)`.
fn run_clients(addr: SocketAddr, conns: usize, batch: usize, batches: usize) -> (f64, f64) {
    let t0 = Instant::now();
    let mut lat_ms: Vec<f64> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.set_nodelay(true).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut in_flight: VecDeque<(u64, Instant)> = VecDeque::new();
                    let mut lats = Vec::with_capacity(batches);
                    let recv_one = |reader: &mut BufReader<TcpStream>,
                                    in_flight: &mut VecDeque<(u64, Instant)>,
                                    lats: &mut Vec<f64>| {
                        let (want, sent) = in_flight.pop_front().unwrap();
                        let payload = read_frame(reader).unwrap().unwrap();
                        let (id, resp) = decode_response_frame(&payload).unwrap();
                        assert_eq!(id, want);
                        assert!(
                            matches!(resp, Response::InsertResult { .. }),
                            "unexpected {resp:?}"
                        );
                        lats.push(sent.elapsed().as_secs_f64() * 1e3);
                    };
                    for b in 0..batches {
                        while in_flight.len() >= WINDOW {
                            recv_one(&mut reader, &mut in_flight, &mut lats);
                        }
                        // Disjoint keys per connection: n is the
                        // connection index, ts strictly increases.
                        let base = (b * batch) as i64;
                        let rows: Vec<Vec<Option<Value>>> = (0..batch as i64)
                            .map(|i| {
                                vec![
                                    Some(Value::I64(c as i64)),
                                    Some(Value::Timestamp(base + i)),
                                    Some(Value::I64(base + i)),
                                ]
                            })
                            .collect();
                        let id = (b + 1) as u64;
                        write_frame(
                            &mut stream,
                            &encode_request_frame(
                                id,
                                &Request::Insert {
                                    table: TABLE.into(),
                                    rows,
                                },
                            ),
                        )
                        .unwrap();
                        in_flight.push_back((id, Instant::now()));
                    }
                    while !in_flight.is_empty() {
                        recv_one(&mut reader, &mut in_flight, &mut lats);
                    }
                    lats
                })
            })
            .collect();
        for h in handles {
            lat_ms.extend(h.join().unwrap());
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let total_rows = (conns * batch * batches) as f64;
    lat_ms.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let p99 = lat_ms[((lat_ms.len() - 1) as f64 * 0.99) as usize];
    (total_rows / elapsed, p99)
}

fn measure_nonblocking(conns: usize, batch: usize, batches: usize) -> (f64, f64) {
    let db = bench_db();
    handle_request(
        &db,
        Request::CreateTable {
            table: TABLE.into(),
            schema: ingest_schema(),
            ttl: None,
        },
    );
    let mut server = Server::bind_with(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    server.start().unwrap();
    let out = run_clients(server.local_addr(), conns, batch, batches);
    server.shutdown();
    out
}

/// Runs the figure.
pub fn run(quick: bool) -> FigureResult {
    let (conn_grid, batch_grid, rows_per_cell): (&[usize], &[usize], usize) = if quick {
        (&[4, 64], &[64, 512], 1 << 17)
    } else {
        (&[1, 8, 64, 128], &[64, 512], 1 << 19)
    };

    let mut fig = FigureResult::new(
        "BENCH_ingest",
        "Pipelined ingest through the nonblocking event loop",
        "client connections",
        "rows/s (series also report p99 batch-ack ms)",
    );

    let mut summary = Vec::new();
    for &batch in batch_grid {
        let mut nb_tp = Vec::new();
        let mut nb_p99 = Vec::new();
        for &conns in conn_grid {
            let batches = (rows_per_cell / (conns * batch)).max(4);
            let (tp, p99) = measure_nonblocking(conns, batch, batches);
            nb_tp.push((conns as f64, tp));
            nb_p99.push((conns as f64, p99));
            if conns >= 64 {
                summary.push(format!(
                    "{conns} conns, batch {batch}: {tp:.0} rows/s (p99 {p99:.2} ms)"
                ));
            }
        }
        fig.push_series(&format!("nonblocking rows/s (batch {batch})"), nb_tp);
        fig.push_series(&format!("nonblocking p99 ack ms (batch {batch})"), nb_p99);
    }

    fig.paper(
        "no direct paper counterpart; §4's collectors ingest over persistent \
         connections in ~512-row batches",
    );
    for line in summary {
        fig.note(&line);
    }
    fig.note(&format!(
        "pipelined clients, window {WINDOW} batches in flight per connection; \
         wall-clock timing on real sockets; instant simulated disk"
    ));
    if quick {
        fig.note(&format!(
            "quick mode: ~{} rows per grid cell",
            rows_per_cell
        ));
    }
    fig
}

#[cfg(test)]
mod tests {
    #[test]
    fn ingest_figure_runs_smoke() {
        let dir = std::env::temp_dir().join(format!("ltingest-smoke-{}", std::process::id()));
        std::env::set_var("LITTLETABLE_FIGURE_DIR", &dir);
        // One tiny cell rather than run(true): a smoke check without a
        // multi-second perf run in unit tests.
        let (tp, p99) = super::measure_nonblocking(4, 32, 8);
        assert!(tp > 0.0 && p99 > 0.0);
        std::env::remove_var("LITTLETABLE_FIGURE_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
