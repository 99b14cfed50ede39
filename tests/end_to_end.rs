//! Full-stack integration: real files (StdVfs), the TCP server, the
//! client adaptor, and the SQL session over one engine — the paper's
//! whole §3.1 deployment shape in one process.

use littletable::client::Client;
use littletable::server::Server;
use littletable::{ColumnDef, ColumnType, Db, Options, Query, Schema, Session, SqlOutput, Value};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "lt-e2e-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

fn usage_schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("network", ColumnType::I64),
            ColumnDef::new("device", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("bytes", ColumnType::I64),
        ],
        &["network", "device", "ts"],
    )
    .unwrap()
}

#[test]
fn tcp_client_sql_session_and_restart_on_real_files() {
    let dir = temp_dir("stack");
    {
        let db = Db::open_local(&dir, Options::small_for_tests()).unwrap();
        let mut server = Server::bind(db.clone(), "127.0.0.1:0").unwrap();
        server.start().unwrap();
        let addr = server.local_addr();

        // Client creates the table and streams rows over TCP.
        let mut client = Client::connect(addr).unwrap();
        client.create_table("usage", usage_schema(), None).unwrap();
        let now = 1_700_000_000_000_000i64;
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| {
                vec![
                    Value::I64(1 + i % 3),
                    Value::I64(1 + i % 7),
                    Value::Timestamp(now + i),
                    Value::I64(i),
                ]
            })
            .collect();
        let (inserted, dups) = client.insert("usage", rows).unwrap();
        assert_eq!((inserted, dups), (500, 0));

        // A SQL session against the same engine sees the data.
        let session = Session::new(db.clone());
        let SqlOutput::Rows { rows, .. } = session
            .execute("SELECT COUNT(*), SUM(bytes) FROM usage WHERE network = 1")
            .unwrap()
        else {
            panic!("expected rows")
        };
        let Value::I64(count) = rows[0][0] else {
            panic!()
        };
        assert!(count > 0);

        // The client reads its own writes through key-ordered queries.
        let got = client
            .query("usage", &Query::all().with_prefix(vec![Value::I64(2)]))
            .unwrap();
        assert!(!got.is_empty());

        db.flush_all().unwrap();
        server.shutdown();
    }
    // A new process (new Db) recovers everything from the directory.
    {
        let db = Db::open_local(&dir, Options::small_for_tests()).unwrap();
        let table = db.table("usage").unwrap();
        assert_eq!(table.query_all(&Query::all()).unwrap().len(), 500);
        let session = Session::new(db);
        let SqlOutput::Rows { rows, .. } = session
            .execute("SELECT network, COUNT(*) FROM usage GROUP BY network")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sql_ddl_dml_lifecycle_on_real_files() {
    let dir = temp_dir("sql");
    let db = Db::open_local(&dir, Options::small_for_tests()).unwrap();
    let session = Session::new(db.clone());
    session
        .execute(
            "CREATE TABLE events (net INT64, dev INT64, ts TIMESTAMP, \
             kind TEXT, PRIMARY KEY (net, dev, ts)) TTL '30d'",
        )
        .unwrap();
    session
        .execute(
            "INSERT INTO events (net, dev, kind) VALUES \
             (1, 1, 'assoc'), (1, 2, 'dhcp_lease'), (2, 1, 'disassoc')",
        )
        .unwrap();
    session
        .execute("ALTER TABLE events ADD COLUMN vlan INT64 DEFAULT -1")
        .unwrap();
    session
        .execute("INSERT INTO events (net, dev, kind, vlan) VALUES (2, 2, 'assoc', 7)")
        .unwrap();
    db.flush_all().unwrap();
    let SqlOutput::Rows { rows, .. } = session
        .execute("SELECT kind, vlan FROM events WHERE net = 2 ORDER BY net, dev")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][1], Value::I64(-1)); // pre-evolution row translated
    assert_eq!(rows[1][1], Value::I64(7));
    session.execute("DROP TABLE events").unwrap();
    assert!(session.execute("SELECT * FROM events").is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn maintenance_flushes_by_age_on_real_files() {
    let dir = temp_dir("age");
    let mut opts = Options::small_for_tests();
    opts.flush_age = 1; // everything is immediately age-due
    opts.flush_size = usize::MAX;
    let db = Db::open_local(&dir, opts.clone()).unwrap();
    let table = db.create_table("t", usage_schema(), None).unwrap();
    table
        .insert(vec![vec![
            Value::I64(1),
            Value::I64(1),
            Value::Timestamp(1_700_000_000_000_000),
            Value::I64(42),
        ]])
        .unwrap();
    // The engine flushes nothing on its own; one pass seals and flushes.
    std::thread::sleep(std::time::Duration::from_millis(1));
    let report = db.maintain().unwrap();
    assert_eq!((report.sealed_by_age, report.groups_flushed), (1, 1));
    assert_eq!(table.num_disk_tablets(), 1);
    drop((table, db));
    let db = Db::open_local(&dir, opts).unwrap();
    let rows = db.table("t").unwrap().query_all(&Query::all()).unwrap();
    assert_eq!(rows.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_writers_and_readers_do_not_interfere() {
    let dir = temp_dir("conc");
    let db = Db::open_local(&dir, Options::small_for_tests()).unwrap();
    let table = db.create_table("t", usage_schema(), None).unwrap();
    let now = 1_700_000_000_000_000i64;
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let t = table.clone();
            std::thread::spawn(move || {
                for i in 0..500i64 {
                    t.insert(vec![vec![
                        Value::I64(w),
                        Value::I64(i),
                        Value::Timestamp(now + w * 10_000 + i),
                        Value::I64(i),
                    ]])
                    .unwrap();
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let t = table.clone();
            std::thread::spawn(move || {
                let key = |r: &littletable::Row| -> (i64, i64) {
                    match (&r.values[0], &r.values[1]) {
                        (Value::I64(a), Value::I64(b)) => (*a, *b),
                        _ => panic!("unexpected key types"),
                    }
                };
                for _ in 0..50 {
                    let rows = t.query_all(&Query::all()).unwrap();
                    // Results are always sorted and duplicate-free.
                    for w in rows.windows(2) {
                        assert!(key(&w[0]) < key(&w[1]), "unsorted or duplicate");
                    }
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    for h in readers {
        h.join().unwrap();
    }
    db.flush_all().unwrap();
    assert_eq!(table.query_all(&Query::all()).unwrap().len(), 2000);
    std::fs::remove_dir_all(&dir).ok();
}
