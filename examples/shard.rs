//! A miniature Dashboard shard over TCP: the LittleTable server fronting
//! an engine, a client adaptor connecting like the paper's SQLite
//! virtual-table layer (§3.1), batching inserts and continuing truncated
//! queries transparently.
//!
//! Run with: `cargo run --example shard`

use littletable::client::{Client, PipelinedInserter};
use littletable::server::Server;
use littletable::vfs::{SimClock, SimVfs};
use littletable::{ColumnDef, ColumnType, Db, Options, Query, Schema, Value};
use std::sync::Arc;

fn main() {
    // Server side: a LittleTable engine with a deliberately small row cap
    // per response, so the client's continuation logic is visible.
    let opts = Options {
        server_row_limit: 100,
        ..Options::default()
    };
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(SimClock::new(1_700_000_000_000_000)),
        opts,
    )
    .unwrap();
    let mut server = Server::bind(db, "127.0.0.1:0").unwrap();
    server.start().unwrap();
    let addr = server.local_addr();
    println!("littletable server on {addr}");

    // Client side: persistent connection, schema cache, batching.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let schema = Schema::new(
        vec![
            ColumnDef::new("sensor", ColumnType::Str),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("celsius", ColumnType::F64),
        ],
        &["sensor", "ts"],
    )
    .unwrap();
    client.create_table("temps", schema, None).unwrap();

    let mut batcher = PipelinedInserter::new(&mut client, "temps", 512, 1);
    for i in 0..1000i64 {
        batcher
            .push(vec![
                Value::Str(format!("sensor-{}", i % 4)),
                Value::Timestamp(1_700_000_000_000_000 + i),
                Value::F64(20.0 + (i % 10) as f64 / 10.0),
            ])
            .unwrap();
    }
    let (inserted, dups) = batcher.finish().unwrap();
    println!("batch inserter sent {inserted} rows ({dups} duplicates)");

    // 250 rows match but the server caps each response at 100; the client
    // re-submits from the last key automatically.
    let rows = client
        .query(
            "temps",
            &Query::all().with_prefix(vec![Value::Str("sensor-1".into())]),
        )
        .unwrap();
    println!("sensor-1 rows fetched across continuations: {}", rows.len());
    assert_eq!(rows.len(), 250);

    let latest = client
        .latest("temps", vec![Value::Str("sensor-3".into())])
        .unwrap()
        .unwrap();
    println!("latest sensor-3 reading: {}", latest[2]);

    server.shutdown();
}
