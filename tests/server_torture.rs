//! Multi-connection torture test for the nonblocking ingest front end:
//! N client threads pipeline mixed insert and query requests over raw
//! sockets, writing the byte stream in random-size chunks so frames
//! routinely arrive split across reads. The surviving data is checked
//! against the `tests/common` oracle helpers.
//!
//! Every thread owns a disjoint index range, so the final table contents
//! are exact: one row per index, nothing else. Responses must come back
//! in FIFO order per connection with matching request ids — the ordering
//! guarantee the pipelined protocol documents.

mod common;

use littletable::proto::{decode_response_frame, encode_request_frame, read_frame, Response};
use littletable::server::Server;
use littletable::vfs::{SimClock, SimVfs};
use littletable::{Query, Value};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// Threads (connections). Small so the test stays tier-1 fast.
const N: u64 = 4;
/// Rows each thread inserts.
const ROWS_PER: u64 = 64;
/// Max insert batches in flight per connection.
const WINDOW: usize = 8;

/// Deterministic per-thread RNG (64-bit LCG, high bits).
fn next(rng: &mut u64) -> u64 {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *rng >> 33
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// An insert batch of this many fresh rows.
    Insert(u64),
    /// A query; rows must be sorted and belong to the table.
    Rows,
}

/// Appends `[len][payload]` for one enveloped request to `wire`.
fn frame_into(wire: &mut Vec<u8>, id: u64, req: &littletable::proto::Request) {
    let payload = encode_request_frame(id, req);
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(&payload);
}

/// Writes the whole buffer in random 1–13 byte chunks, occasionally
/// pausing, so the server sees torn length prefixes and split payloads.
fn drip(stream: &mut TcpStream, wire: &mut Vec<u8>, rng: &mut u64) {
    let mut off = 0;
    while off < wire.len() {
        let n = (1 + next(rng) as usize % 13).min(wire.len() - off);
        stream.write_all(&wire[off..off + n]).unwrap();
        off += n;
        if next(rng).is_multiple_of(29) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    wire.clear();
}

/// Reads one response and checks it against the oldest expectation.
fn check_one(
    reader: &mut BufReader<TcpStream>,
    expect: &mut VecDeque<(u64, Expect)>,
) -> (u64, u64) {
    let (want_id, want) = expect.pop_front().expect("response with nothing in flight");
    let payload = read_frame(reader).unwrap().expect("server closed early");
    let (id, resp) = decode_response_frame(&payload).unwrap();
    assert_eq!(id, want_id, "responses out of FIFO order");
    match (want, resp) {
        (
            Expect::Insert(n),
            Response::InsertResult {
                inserted,
                duplicates,
            },
        ) => {
            assert_eq!((inserted, duplicates), (n, 0), "batch of {n} mishandled");
            (n, 0)
        }
        (Expect::Rows, Response::Rows { rows, .. }) => {
            let key = |row: &[Value]| match (&row[0], &row[1]) {
                (Value::I64(n), Value::Timestamp(ts)) => (*n, *ts),
                other => panic!("unexpected key types {other:?}"),
            };
            for w in rows.windows(2) {
                assert!(
                    key(&w[0]) < key(&w[1]),
                    "query result unsorted or duplicated"
                );
            }
            (0, 0)
        }
        (want, resp) => panic!("expected {want:?}, got {resp:?}"),
    }
}

#[test]
fn torn_frames_and_pipelining_across_many_connections() {
    let vfs = SimVfs::instant();
    let clock = SimClock::new(common::START);
    let db = common::open_db(&vfs, &clock).unwrap();
    // No TTL: the oracle check below wants every index visible.
    db.create_table(common::TABLE, common::schema(), None)
        .unwrap();
    let mut server = Server::bind(db.clone(), "127.0.0.1:0").unwrap();
    server.start().unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for t in 0..N {
            s.spawn(move || {
                let mut rng = 0x9e3779b97f4a7c15u64 ^ (t + 1);
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut expect: VecDeque<(u64, Expect)> = VecDeque::new();
                let mut wire = Vec::new();
                let mut next_id = 1u64;
                let (lo, hi) = (t * ROWS_PER, (t + 1) * ROWS_PER);
                let mut i = lo;
                let mut inserted = 0;
                while i < hi {
                    let batch = (1 + next(&mut rng) % 7).min(hi - i);
                    let rows: Vec<Vec<Option<Value>>> = (i..i + batch)
                        .map(|j| common::make_row(j, 3).into_iter().map(Some).collect())
                        .collect();
                    frame_into(
                        &mut wire,
                        next_id,
                        &littletable::proto::Request::Insert {
                            table: common::TABLE.into(),
                            rows,
                        },
                    );
                    expect.push_back((next_id, Expect::Insert(batch)));
                    next_id += 1;
                    i += batch;
                    // Interleave reads: a query rides along every few
                    // batches, pipelined behind the inserts.
                    if next(&mut rng).is_multiple_of(3) {
                        frame_into(
                            &mut wire,
                            next_id,
                            &littletable::proto::Request::Query {
                                table: common::TABLE.into(),
                                query: Query::all().with_limit(50),
                            },
                        );
                        expect.push_back((next_id, Expect::Rows));
                        next_id += 1;
                    }
                    drip(&mut stream, &mut wire, &mut rng);
                    while expect.len() >= WINDOW {
                        inserted += check_one(&mut reader, &mut expect).0;
                    }
                }
                drip(&mut stream, &mut wire, &mut rng);
                while !expect.is_empty() {
                    inserted += check_one(&mut reader, &mut expect).0;
                }
                assert_eq!(inserted, ROWS_PER, "thread {t} lost acks");
            });
        }
    });

    // Oracle: exactly one row per index, contiguous, nothing invented.
    let table = db.table(common::TABLE).unwrap();
    table.flush_all().unwrap();
    let idx = common::visible_indices(&table);
    let want: Vec<u64> = (0..N * ROWS_PER).collect();
    assert_eq!(idx, want, "rows lost or duplicated under torn frames");

    server.shutdown();
}
