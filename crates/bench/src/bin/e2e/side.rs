//! Side passes of the traced run: figures for layers the main window
//! cannot isolate. None of them is gated.

use crate::data::{Grid, TABLE};
use crate::env::Env;
use crate::ops::{Op, Prepared};
use crate::report::quantile;
use crate::workloads::Workload;
use littletable_client::Client;
use littletable_proto::Response;
use littletable_server::{Server, ServerConfig};
use std::collections::VecDeque;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct SidePasses {
    /// One entry per pass of the socket ingest.
    pub ingest_rows_per_s: Vec<f64>,
    pub ingest_ack_p50_ms: Vec<f64>,
    pub ingest_ack_p99_ms: Vec<f64>,
    pub commits: Vec<f64>,
    pub rows_per_commit: Vec<f64>,
    pub compress_ns_per_byte: f64,
    pub decompress_ns_per_byte: f64,
    pub compress_ratio: f64,
}

const INGEST_PASSES: usize = 3;
/// Requests in flight on the one connection.
const PIPELINE: usize = 8;

/// The `ingest` stream over one real socket with the server's own
/// concurrent group committer. The committer thread races this thread
/// on the shared virtual clock when it judges flush age and merge delay,
/// so even the counts differ from pass to pass: the spread is part of
/// the report, and nothing here is compared against a bound.
pub fn socket_ingest(w: &dyn Workload, batches: usize, side: &mut SidePasses) {
    for _ in 0..INGEST_PASSES {
        let env = Env::new(w.options());
        env.create_usage(None);
        let mut server = Server::bind_with(env.db.clone(), "127.0.0.1:0", ServerConfig::default())
            .expect("bind the server");
        server.start().expect("start the server");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let ops = &w.ops()[..batches.min(w.ops().len())];
        let mut rows = 0u64;
        let mut acks_ms = Vec::with_capacity(ops.len());
        let mut in_flight: VecDeque<Instant> = VecDeque::new();
        let mut failed = 0u64;
        let mut ack = |client: &mut Client, in_flight: &mut VecDeque<Instant>| {
            let sent = in_flight.pop_front().expect("an ack has a request");
            match client.recv_response() {
                Ok((_, Response::InsertResult { duplicates: 0, .. })) => {}
                _ => failed += 1,
            }
            acks_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        };
        let started = Instant::now();
        for op in ops {
            let (Prepared::Request(req), Op::Insert { count, then, .. }) =
                (op.prepare(w.grid()), op)
            else {
                continue;
            };
            while in_flight.len() >= PIPELINE {
                ack(&mut client, &mut in_flight);
            }
            in_flight.push_back(Instant::now());
            client.send_request(&req).expect("send");
            rows += *count as u64;
            env.advance_to(*then);
        }
        while !in_flight.is_empty() {
            ack(&mut client, &mut in_flight);
        }
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(failed, 0, "socket ingest lost or duplicated rows");
        drop(client);
        server.shutdown();
        let commits: u64 = server.commit_shard_counts().iter().sum();
        side.ingest_rows_per_s.push(rows as f64 / secs);
        side.ingest_ack_p50_ms.push(quantile(&mut acks_ms, 0.50));
        side.ingest_ack_p99_ms.push(quantile(&mut acks_ms, 0.99));
        side.commits.push(commits as f64);
        side.rows_per_commit
            .push(rows as f64 / commits.max(1) as f64);
    }
}

/// `compress` on a 64 kB buffer of the workload's own rows, as their
/// wire encoding lays them out. (`codec` is entered only through
/// `core::tablet` and stays inside the flush and read figures.)
pub fn compress_pass(grid: &Grid, side: &mut SidePasses) {
    let mut buf = Vec::with_capacity(80 << 10);
    let mut tick = 0;
    while buf.len() < 64 << 10 {
        let op = Op::Insert {
            tick,
            first: 0,
            count: grid.devices.min(64),
            maintain: false,
            then: 0,
        };
        if let Prepared::Request(req) = op.prepare(grid) {
            buf.extend_from_slice(&req.encode());
        }
        tick += 1;
    }
    buf.truncate(64 << 10);
    debug_assert!(buf.windows(TABLE.len()).any(|w| w == TABLE.as_bytes()));
    const ROUNDS: usize = 200;
    let packed = littletable_compress::compress(&buf);
    let started = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(littletable_compress::compress(std::hint::black_box(&buf)));
    }
    let compress_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let out = littletable_compress::decompress(std::hint::black_box(&packed), buf.len());
        std::hint::black_box(out.expect("decompress what compress made"));
    }
    let decompress_ns = started.elapsed().as_nanos() as f64;
    let bytes = (ROUNDS * buf.len()) as f64;
    side.compress_ns_per_byte = compress_ns / bytes;
    side.decompress_ns_per_byte = decompress_ns / bytes;
    side.compress_ratio = buf.len() as f64 / packed.len() as f64;
}
