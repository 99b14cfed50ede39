//! One shard against four: the same rows, inserted through
//! [`FleetClient`] into a 1-shard and a 4-shard fleet whose servers cut
//! every answer at a few rows, must answer every query exactly as one
//! engine's `query_all` does over those rows. Each shard pages through
//! the client's continuation and the fleet merges the shards' streams,
//! so a wrong re-submitted bound, a lost or repeated row at a page edge,
//! or a merge or limit out of key order shows here. Queries are random:
//! prefix and key-range bounds (inclusive and exclusive), time bounds,
//! both directions, and limits of 0, a few rows and more than the table.

use littletable::fleet::{FleetClient, FleetSim};
use littletable::vfs::{SimClock, SimVfs};
use littletable::{ColumnDef, ColumnType, Db, Options, Query, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const START: i64 = 1_700_000_000_000_000;
const SEC: i64 = 1_000_000;
const NETS: i64 = 6;
const DEVS: i64 = 4;
/// Below every shard's share of almost every query: each one pages.
const SERVER_ROW_LIMIT: usize = 5;
const QUERIES: usize = 400;

fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("net", ColumnType::I64),
            ColumnDef::new("dev", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::I64),
        ],
        &["net", "dev", "ts"],
    )
    .unwrap()
}

/// Every (net, dev) series gets a few readings at distinct seconds.
fn rows(rng: &mut StdRng) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for net in 0..NETS {
        for dev in 0..DEVS {
            for s in 0..20 {
                if rng.gen_bool(0.6) {
                    out.push(vec![
                        Value::I64(net),
                        Value::I64(dev),
                        Value::Timestamp(START + s * SEC),
                        Value::I64(rng.gen_range(0..1000i64)),
                    ]);
                }
            }
        }
    }
    out
}

/// A key-prefix bound of 1 to 3 components, the third a timestamp.
fn key_bound(rng: &mut StdRng) -> Vec<Value> {
    let mut key = vec![Value::I64(rng.gen_range(-1..NETS + 1))];
    if rng.gen_bool(0.6) {
        key.push(Value::I64(rng.gen_range(0..DEVS)));
        if rng.gen_bool(0.3) {
            key.push(Value::Timestamp(START + rng.gen_range(0..20i64) * SEC));
        }
    }
    key
}

fn random_query(rng: &mut StdRng, total: usize) -> Query {
    let mut q = Query::all();
    match rng.gen_range(0..3) {
        0 => {}
        1 => {
            let mut prefix = key_bound(rng);
            prefix.truncate(2);
            q = q.with_prefix(prefix);
        }
        _ => {
            if rng.gen_bool(0.7) {
                q = q.with_key_min(key_bound(rng), rng.gen_bool(0.5));
            }
            if rng.gen_bool(0.7) {
                q = q.with_key_max(key_bound(rng), rng.gen_bool(0.5));
            }
        }
    }
    let ts = |rng: &mut StdRng| START + rng.gen_range(-1..21i64) * SEC;
    if rng.gen_bool(0.4) {
        q = q.with_ts_min(ts(rng), rng.gen_bool(0.5));
    }
    if rng.gen_bool(0.4) {
        q = q.with_ts_max(ts(rng), rng.gen_bool(0.5));
    }
    if rng.gen_bool(0.5) {
        q = q.descending();
    }
    match rng.gen_range(0..4) {
        0 => q,
        1 => q.with_limit(0),
        2 => q.with_limit(rng.gen_range(1..3 * SERVER_ROW_LIMIT)),
        _ => q.with_limit(total + rng.gen_range(1..10usize)),
    }
}

/// A fleet of `shards` shards holding `rows`: the first half archived
/// (flushed to tablets and synced to the spares), the rest in memory.
fn fleet(shards: u32, rows: &[Vec<Value>]) -> (FleetSim, FleetClient) {
    let opts = Options {
        server_row_limit: SERVER_ROW_LIMIT,
        ..Options::small_for_tests()
    };
    let mut sim = FleetSim::new(shards, START, opts).unwrap();
    let mut client = FleetClient::new(shards);
    client.create_table(&mut sim, "t", schema(), None).unwrap();
    let (old, new) = rows.split_at(rows.len() / 2);
    client.insert(&mut sim, "t", old.to_vec()).unwrap();
    assert!(client.archive(&mut sim).iter().all(|o| o.is_clean()));
    client.insert(&mut sim, "t", new.to_vec()).unwrap();
    (sim, client)
}

#[test]
fn one_shard_and_four_answer_as_one_engine() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rows(&mut rng);
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(SimClock::new(START)),
            Options::small_for_tests(),
        )
        .unwrap();
        let reference = db.create_table("t", schema(), None).unwrap();
        reference.insert(rows.clone()).unwrap();
        let mut fleets = [fleet(1, &rows), fleet(4, &rows)];
        let mut paged = 0;
        for _ in 0..QUERIES {
            let q = random_query(&mut rng, rows.len());
            let want: Vec<Vec<Value>> = reference
                .query_all(&q)
                .unwrap()
                .into_iter()
                .map(|r| r.values)
                .collect();
            if want.len() > SERVER_ROW_LIMIT {
                paged += 1;
            }
            for (sim, client) in &mut fleets {
                let got = client.query(sim, "t", &q).unwrap();
                assert_eq!(got, want, "seed {seed}, {} shard(s), {q:?}", sim.shards());
            }
        }
        // The crossing means nothing unless answers span pages.
        assert!(
            paged > QUERIES / 4,
            "seed {seed}: only {paged} queries paged"
        );
    }
}
