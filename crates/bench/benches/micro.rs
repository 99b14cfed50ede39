//! Criterion microbenchmarks over the engine's hot paths, in real time on
//! the host (complementing the virtual-time figure harness): key
//! encoding, block compression, block search, memtable and engine
//! inserts, scans, HyperLogLog, SQL parsing, the maintenance kernels
//! (checksum, column codecs, k-way merge), the read path (block parse,
//! wire encode, cursor drain) and the decode kernels under it (column
//! codecs, `ltz`, the client's row decode).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use littletable_bench::env::{bench_row, bench_row_sequential, bench_schema, XorShift64};
use littletable_core::keyenc::encode_prefix;
use littletable_core::value::{ColumnType, Value};
use littletable_core::{Db, Options, Query};
use littletable_vfs::{SimClock, SimVfs};
use std::sync::Arc;

fn instant_db() -> Db {
    Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(SimClock::new(1_700_000_000_000_000)),
        Options::default(),
    )
    .unwrap()
}

fn bench_key_encoding(c: &mut Criterion) {
    let types = [ColumnType::Str, ColumnType::I64, ColumnType::Timestamp];
    let values = vec![
        Value::Str("network-000123".into()),
        Value::I64(456_789),
        Value::Timestamp(1_700_000_000_000_000),
    ];
    c.bench_function("keyenc/encode_3col", |b| {
        b.iter(|| encode_prefix(std::hint::black_box(&values), &types).unwrap())
    });
}

fn bench_compression(c: &mut Criterion) {
    let mut g = c.benchmark_group("compress");
    // Telemetry-like block: repetitive structure.
    let telemetry: Vec<u8> = (0..64 * 1024u32).map(|i| ((i / 97) % 251) as u8).collect();
    let mut rng = XorShift64::new(5);
    let mut random = vec![0u8; 64 * 1024];
    rng.fill(&mut random);
    for (name, data) in [("telemetry_64k", &telemetry), ("random_64k", &random)] {
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_function(format!("compress/{name}"), |b| {
            b.iter(|| littletable_compress::compress(std::hint::black_box(data)))
        });
        let compressed = littletable_compress::compress(data);
        g.bench_function(format!("decompress/{name}"), |b| {
            b.iter(|| {
                littletable_compress::decompress(std::hint::black_box(&compressed), data.len())
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_block_search(c: &mut Criterion) {
    use littletable_core::block::BlockEncoder;
    use littletable_core::schema::{ColumnDef, Schema};
    let schema = Schema::new(
        vec![
            ColumnDef::new("k", ColumnType::Str),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("v", ColumnType::Blob),
        ],
        &["k", "ts"],
    )
    .unwrap();
    let row = |i: u32| {
        littletable_core::Row::new(vec![
            Value::Str(format!("key-{i:06}")),
            Value::Timestamp(0),
            Value::Blob(vec![0u8; 100]),
        ])
    };
    let mut encoder = BlockEncoder::new(&schema);
    for i in 0..500 {
        encoder.add(&row(i)).unwrap();
    }
    let block = encoder.into_block(&schema);
    let target = row(250).encode_key(&schema).unwrap();
    // One bisection, the probed rows' keys encoded into a scratch buffer:
    // what a duplicate-key probe and a cursor's seek pay per block.
    assert!(block.contains_key(&target).unwrap());
    c.bench_function("block/contains_key_500rows", |b| {
        b.iter(|| block.contains_key(std::hint::black_box(&target)).unwrap())
    });
}

fn bench_engine_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_insert");
    for &batch in &[32usize, 512] {
        g.throughput(Throughput::Bytes((batch * 128) as u64));
        g.bench_function(format!("batch_{batch}x128B"), |b| {
            let db = instant_db();
            let table = db.create_table("t", bench_schema(), None).unwrap();
            let mut rng = XorShift64::new(1);
            let mut seq = 0u64;
            let mut ts = 1_700_000_000_000_000i64;
            b.iter_batched(
                || {
                    let rows: Vec<_> = (0..batch)
                        .map(|_| {
                            seq += 1;
                            ts += 1;
                            bench_row(&mut rng, seq, ts, 128)
                        })
                        .collect();
                    rows
                },
                |rows| {
                    table.insert(rows).unwrap();
                    table.flush_next_group().unwrap();
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_query_scan(c: &mut Criterion) {
    let db = instant_db();
    let table = db.create_table("t", bench_schema(), None).unwrap();
    let mut rng = XorShift64::new(2);
    let mut batch = Vec::new();
    for seq in 1..=100_000u64 {
        batch.push(bench_row(
            &mut rng,
            seq,
            1_700_000_000_000_000 + seq as i64,
            128,
        ));
        if batch.len() == 1024 {
            table.insert(std::mem::take(&mut batch)).unwrap();
        }
    }
    if !batch.is_empty() {
        table.insert(batch).unwrap();
    }
    table.flush_all().unwrap();
    let mut g = c.benchmark_group("query");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("full_scan_100k_rows", |b| {
        b.iter(|| {
            let mut cur = table.query(&Query::all()).unwrap();
            let mut n = 0u64;
            while cur.next_row().unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, 100_000);
        })
    });
    g.finish();
}

fn bench_block_cache(c: &mut Criterion) {
    // Point reads against one merged on-disk tablet, cold (cache
    // disabled: every read decompresses) versus warm (default cache:
    // repeats return the cached Arc), plus a full scan running against a
    // warm cache to show the cursor path's hit behaviour.
    let build = |cache_bytes: usize| {
        let db = Db::open(
            Arc::new(SimVfs::instant()),
            Arc::new(SimClock::new(1_700_000_000_000_000)),
            Options {
                block_cache_bytes: cache_bytes,
                ..Options::default()
            },
        )
        .unwrap();
        let table = db.create_table("t", bench_schema(), None).unwrap();
        let mut rng = XorShift64::new(3);
        let mut batch = Vec::new();
        for seq in 1..=50_000u64 {
            batch.push(bench_row_sequential(
                &mut rng,
                seq,
                1_700_000_000_000_000 + seq as i64,
                128,
            ));
            if batch.len() == 1024 {
                table.insert(std::mem::take(&mut batch)).unwrap();
            }
        }
        if !batch.is_empty() {
            table.insert(batch).unwrap();
        }
        table.flush_all().unwrap();
        while table.run_merge_once(db.now()).unwrap() {}
        (db, table)
    };
    let point_query = |table: &littletable_core::Table, rng: &mut XorShift64| {
        let seq = rng.next_u64() % 50_000 + 1;
        let q = Query::all().with_prefix(vec![Value::I64(seq as i64)]);
        let rows = table.query_all(&q).unwrap();
        assert_eq!(rows.len(), 1);
        std::hint::black_box(rows)
    };
    let mut g = c.benchmark_group("block_cache");
    g.bench_function("point_read_cold_uncached", |b| {
        let (_db, table) = build(0);
        let mut rng = XorShift64::new(7);
        b.iter(|| point_query(&table, &mut rng))
    });
    g.bench_function("point_read_warm_cached", |b| {
        let (_db, table) = build(64 << 20);
        let mut rng = XorShift64::new(7);
        // Warm every block once so the measured loop is all hits.
        let mut warm = XorShift64::new(7);
        for _ in 0..50_000 {
            point_query(&table, &mut warm);
        }
        b.iter(|| point_query(&table, &mut rng))
    });
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("full_scan_warm_cache", |b| {
        let (_db, table) = build(64 << 20);
        b.iter(|| {
            let mut cur = table.query(&Query::all()).unwrap();
            let mut n = 0u64;
            while cur.next_row().unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, 50_000);
        })
    });
    g.finish();
}

fn bench_hll(c: &mut Criterion) {
    c.bench_function("hll/add_1000", |b| {
        b.iter(|| {
            let mut h = littletable_hll::HyperLogLog::default_precision();
            for i in 0..1000u64 {
                h.add_hash(std::hint::black_box(i).wrapping_mul(0x9E3779B97F4A7C15));
            }
            h.estimate()
        })
    });
}

fn bench_sql_parse(c: &mut Criterion) {
    let sql = "SELECT device, SUM(bytes), COUNT(*) FROM usage \
               WHERE network = 7 AND ts >= NOW() - INTERVAL '1w' \
               GROUP BY device ORDER BY network DESC LIMIT 100";
    c.bench_function("sql/parse_select", |b| {
        b.iter(|| littletable_sql::parse(std::hint::black_box(sql)).unwrap())
    });
}

fn bench_fault_hook(c: &mut Criterion) {
    // Cost of the fault-injection hook on the simulated VFS's hot write
    // path: flush with no plan installed (the plain op-count bump) vs a
    // plan whose rules never match (full decide() walk on every op).
    let mut g = c.benchmark_group("fault_hook");
    for (label, with_plan) in [("no_plan", false), ("armed_no_match", true)] {
        g.bench_function(format!("insert_flush_512/{label}"), |b| {
            let vfs = SimVfs::instant();
            if with_plan {
                vfs.set_fault_plan(
                    littletable_vfs::FaultPlan::new().rule(
                        littletable_vfs::FaultRule::new(littletable_vfs::FaultKind::Eio)
                            .at_op(u64::MAX)
                            .on_path("never-matches"),
                    ),
                );
            }
            let db = Db::open(
                Arc::new(vfs),
                Arc::new(SimClock::new(1_700_000_000_000_000)),
                Options::default(),
            )
            .unwrap();
            let table = db.create_table("t", bench_schema(), None).unwrap();
            let mut rng = XorShift64::new(3);
            let mut seq = 0u64;
            let mut ts = 1_700_000_000_000_000i64;
            b.iter_batched(
                || {
                    (0..512)
                        .map(|_| {
                            seq += 1;
                            ts += 1;
                            bench_row(&mut rng, seq, ts, 128)
                        })
                        .collect::<Vec<_>>()
                },
                |rows| {
                    table.insert(rows).unwrap();
                    table.flush_next_group().unwrap();
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// The e2e benchmark's `usage` table and row generator (rows are a pure
/// function of seed, device and tick; one column per codec family), so
/// that these kernels see the column shapes that benchmark stores. The
/// dependency runs one way: the benchmark package knows nothing of this
/// file, so a change there can break this target or shift what it
/// measures — CI's `cargo bench --bench micro --no-run` step catches the
/// first, and the group's numbers are only comparable within one commit
/// of `data.rs`.
#[allow(dead_code, unused_imports)]
#[path = "../src/bin/e2e/data.rs"]
mod usage;

/// The kernels a flush or merge spends its time in: the block checksum,
/// the column codecs on the e2e benchmark's column shapes (4 096 values:
/// 16 devices' runs of 256 ticks, as a merged block holds them), and the
/// k-way merge itself over tablets of 53-row per-device runs (what the
/// e2e `ingest` workload flushes).
fn bench_maintenance_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("maintenance_kernels");

    let mut rng = XorShift64::new(11);
    let mut block = vec![0u8; 64 * 1024];
    rng.fill(&mut block);
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("crc32/64k", |b| {
        b.iter(|| littletable_core::util::crc32(std::hint::black_box(&block)))
    });

    let grid = usage::Grid {
        seed: 7,
        devices: 512,
        start: usage::T0,
        step: usage::SECOND,
    };
    let coords = (0..16i64).flat_map(|d| (0..256i64).map(move |t| (d, t)));
    let ts: Vec<i64> = coords.clone().map(|(_, t)| grid.ts(t)).collect();
    let up: Vec<i64> = coords.clone().map(|(d, t)| grid.cells(d, t).up).collect();
    let rssi: Vec<f64> = coords.map(|(d, t)| grid.cells(d, t).rssi).collect();
    g.throughput(Throughput::Elements(ts.len() as u64));
    for (name, vals) in [("ts", &ts), ("up", &up)] {
        let dod = littletable_codec::encode_delta_delta(vals);
        g.bench_function(format!("delta_delta/encode_{name}_4096"), |b| {
            b.iter(|| littletable_codec::encode_delta_delta(std::hint::black_box(vals)))
        });
        g.bench_function(format!("delta_delta/decode_{name}_4096"), |b| {
            b.iter(|| {
                littletable_codec::decode_delta_delta(std::hint::black_box(&dod), vals.len())
                    .unwrap()
            })
        });
        let zz = littletable_codec::encode_zigzag_delta(vals);
        g.bench_function(format!("zigzag_delta/encode_{name}_4096"), |b| {
            b.iter(|| littletable_codec::encode_zigzag_delta(std::hint::black_box(vals)))
        });
        g.bench_function(format!("zigzag_delta/decode_{name}_4096"), |b| {
            b.iter(|| {
                littletable_codec::decode_zigzag_delta(std::hint::black_box(&zz), vals.len())
                    .unwrap()
            })
        });
    }
    let xor = littletable_codec::encode_xor_f64(&rssi);
    g.bench_function("xor/encode_rssi_4096", |b| {
        b.iter(|| littletable_codec::encode_xor_f64(std::hint::black_box(&rssi)))
    });
    g.bench_function("xor/decode_rssi_4096", |b| {
        b.iter(|| {
            littletable_codec::decode_xor_f64(std::hint::black_box(&xor), rssi.len()).unwrap()
        })
    });

    const TICKS: i64 = 53;
    for ways in [2i64, 4] {
        g.throughput(Throughput::Elements((ways * grid.devices * TICKS) as u64));
        g.bench_function(format!("merge/{ways}way_53row_runs"), |b| {
            b.iter_batched(
                || {
                    // `ways` tablets, each every device's next 53 ticks.
                    let db = instant_db();
                    let table = db.create_table("usage", usage::schema(), None).unwrap();
                    for tick in 0..ways * TICKS {
                        let rows = (0..grid.devices).map(|d| grid.row(d, tick)).collect();
                        table.insert(rows).unwrap();
                        if (tick + 1) % TICKS == 0 {
                            table.flush_all().unwrap();
                        }
                    }
                    (db, table)
                },
                |(_db, table)| {
                    // Well past the merge delay, inside the same period.
                    assert!(table.run_merge_once(grid.ts(3600)).unwrap());
                    assert_eq!(table.num_disk_tablets(), 1);
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// A row's way back out, stage by stage on the e2e benchmark's `usage`
/// rows: decoding a block as `block_size` 64 kB cuts it (1 000 rows — with
/// its string column and without, which is what the flat string arena has
/// to be cheap against), encoding a block's rows for the wire from
/// materialized rows and straight from the column slices (the same bytes,
/// asserted), and draining a network scan — four devices' rows merged out
/// of four tablets — row by row and run by run.
fn bench_read_path(c: &mut Criterion) {
    use littletable_core::block::{Block, BlockEncoder};
    use littletable_core::schema::{ColumnDef, Schema};
    use littletable_core::{Row, RowRun};
    use littletable_proto::Response;

    let mut g = c.benchmark_group("read_path");
    let grid = usage::Grid {
        seed: 7,
        devices: 512,
        start: usage::T0,
        step: usage::SECOND,
    };
    // One network's four devices, 250 ticks each, in key order.
    const TICKS: i64 = 250;
    let rows: Vec<Vec<Value>> = (0..usage::DEVICES_PER_NETWORK)
        .flat_map(|d| (0..TICKS).map(move |t| (d, t)))
        .map(|(d, t)| grid.row(d, t))
        .collect();
    let full = usage::schema();
    let no_tag = {
        let cols = &full.columns()[..7];
        let defs = cols.iter().map(|c| ColumnDef::new(c.name.clone(), c.ty));
        Schema::new(defs.collect(), &["network", "device", "ts"]).unwrap()
    };
    g.throughput(Throughput::Elements(rows.len() as u64));
    for (name, schema) in [
        ("usage_1000rows", &full),
        ("usage_1000rows_no_tag", &no_tag),
    ] {
        let mut encoder = BlockEncoder::new(schema);
        for row in &rows {
            let values = row[..schema.num_columns()].to_vec();
            encoder.add(&Row::new(values)).unwrap();
        }
        let mut data = Vec::new();
        encoder.finish(&mut data);
        g.bench_function(format!("block_parse/{name}"), |b| {
            b.iter(|| Block::parse(std::hint::black_box(&data), schema).unwrap())
        });
    }

    let mut encoder = BlockEncoder::new(&full);
    for row in &rows {
        encoder.add(&Row::new(row.clone())).unwrap();
    }
    let run = RowRun {
        block: Arc::new(encoder.into_block(&full)),
        rows: 0..rows.len(),
        descending: false,
    };
    let by_rows = |run: &RowRun| {
        let rows = run.indices().map(|i| run.block.row(i).unwrap().values);
        Response::Rows {
            rows: rows.collect(),
            more_available: false,
        }
        .encode()
    };
    let by_runs =
        |run: &RowRun| Response::rows_from_runs(std::slice::from_ref(run), false).encode();
    assert!(by_rows(&run) == by_runs(&run));
    g.bench_function("rows_to_wire/usage_1000rows", |b| {
        b.iter(|| by_rows(std::hint::black_box(&run)))
    });
    g.bench_function("runs_to_wire/usage_1000rows", |b| {
        b.iter(|| by_runs(std::hint::black_box(&run)))
    });

    // Four tablets, each the next 250 ticks of every device.
    let db = instant_db();
    let table = db.create_table("usage", usage::schema(), None).unwrap();
    for tick in 0..4 * TICKS {
        let rows = (0..grid.devices).map(|d| grid.row(d, tick)).collect();
        table.insert(rows).unwrap();
        if (tick + 1) % TICKS == 0 {
            table.flush_all().unwrap();
        }
    }
    assert_eq!(table.num_disk_tablets(), 4);
    let scan = Query::all().with_prefix(vec![Value::I64(3)]);
    let expect = (4 * TICKS * usage::DEVICES_PER_NETWORK) as usize;
    g.throughput(Throughput::Elements(expect as u64));
    g.bench_function("network_scan_4tablets/next_row", |b| {
        b.iter(|| {
            let mut cur = table.query(&scan).unwrap();
            let mut n = 0;
            while let Some(row) = cur.next_row().unwrap() {
                std::hint::black_box(&row);
                n += 1;
            }
            assert_eq!(n, expect);
        })
    });
    g.bench_function("network_scan_4tablets/next_run", |b| {
        b.iter(|| {
            let mut cur = table.query(&scan).unwrap();
            let mut n = 0;
            while let Some(run) = cur.next_run().unwrap() {
                n += std::hint::black_box(&run).len();
            }
            assert_eq!(n, expect);
        })
    });
    g.finish();
}

/// The decode kernels on a `dashboard` op's blocking path, on the e2e
/// benchmark's `usage` rows: every column of a 1 000-row block (one
/// network's four devices, 250 ticks each, as `read_path/block_parse`
/// parses it) through the codec the writer's race picks for it; `ltz`
/// decompression of that block and of 64 kB of rows as the wire lays
/// them out (what `compress.decompress_ns_per_byte` times); and the
/// client's decode of a response of 1 367 rows, the `dashboard` mean.
fn bench_decode_kernels(c: &mut Criterion) {
    use littletable_codec as codec;
    use littletable_core::block::BlockEncoder;
    use littletable_core::util::Reader;
    use littletable_core::Row;
    use littletable_proto::valuecodec::{get_rows, put_rows};
    use std::hint::black_box;

    let codec_name = |tag| match tag {
        codec::TAG_RAW => "raw",
        codec::TAG_DELTA_DELTA => "delta_delta",
        codec::TAG_ZIGZAG_DELTA => "zigzag_delta",
        codec::TAG_XOR => "xor",
        _ => "dict_rle",
    };
    let mut g = c.benchmark_group("decode_kernels");
    let grid = usage::Grid {
        seed: 7,
        devices: 512,
        start: usage::T0,
        step: usage::SECOND,
    };
    let network_rows = |ticks: i64| {
        (0..usage::DEVICES_PER_NETWORK)
            .flat_map(move |d| (0..ticks).map(move |t| (d, t)))
            .map(|(d, t)| grid.row(d, t))
            .collect::<Vec<_>>()
    };
    let rows = network_rows(250);
    let n = rows.len();
    let schema = usage::schema();
    g.throughput(Throughput::Elements(n as u64));
    for (c, col) in schema.columns().iter().enumerate() {
        let mut data = Vec::new();
        match col.ty {
            ColumnType::F64 => {
                let vals: Vec<f64> = rows
                    .iter()
                    .map(|r| match r[c] {
                        Value::F64(v) => v,
                        ref v => unreachable!("a double column holds {v:?}"),
                    })
                    .collect();
                let tag = codec::encode_f64_column_into(&vals, &mut data);
                g.bench_function(format!("{}/{}_1000", col.name, codec_name(tag)), |b| {
                    b.iter(|| codec::decode_f64_column(tag, black_box(&data), n).unwrap())
                });
            }
            ColumnType::Str => {
                let vals: Vec<&[u8]> = rows
                    .iter()
                    .map(|r| match &r[c] {
                        Value::Str(s) => s.as_bytes(),
                        v => unreachable!("a string column holds {v:?}"),
                    })
                    .collect();
                let tag = codec::encode_bytes_column_into(vals.iter().copied(), &mut data);
                g.bench_function(format!("{}/{}_1000", col.name, codec_name(tag)), |b| {
                    b.iter(|| codec::decode_bytes_column(tag, black_box(&data), n).unwrap())
                });
            }
            _ => {
                let vals: Vec<i64> = rows.iter().map(|r| r[c].as_int().unwrap()).collect();
                let tag = codec::encode_i64_column_into(vals.iter().copied(), &mut data);
                g.bench_function(format!("{}/{}_1000", col.name, codec_name(tag)), |b| {
                    b.iter(|| codec::decode_i64_column(tag, black_box(&data), n).unwrap())
                });
            }
        }
    }

    let mut encoder = BlockEncoder::new(&schema);
    for row in &rows {
        encoder.add(&Row::new(row.clone())).unwrap();
    }
    let mut block = Vec::new();
    encoder.finish(&mut block);
    let mut wire = Vec::new();
    let mut tick = 0;
    while wire.len() < 64 << 10 {
        put_rows(
            &mut wire,
            &(0..64).map(|d| grid.row(d, tick)).collect::<Vec<_>>(),
        );
        tick += 1;
    }
    wire.truncate(64 << 10);
    for (name, raw) in [("usage_block_1000rows", &block), ("wire_rows_64k", &wire)] {
        let packed = littletable_compress::compress(raw);
        g.throughput(Throughput::Bytes(raw.len() as u64));
        g.bench_function(format!("ltz_decompress/{name}"), |b| {
            b.iter(|| littletable_compress::decompress(black_box(&packed), raw.len()).unwrap())
        });
    }

    let response: Vec<Vec<Value>> = network_rows(342).into_iter().take(1367).collect();
    let mut payload = Vec::new();
    put_rows(&mut payload, &response);
    g.throughput(Throughput::Elements(response.len() as u64));
    g.bench_function("get_rows/usage_1367rows", |b| {
        b.iter(|| get_rows(&mut Reader::new(black_box(&payload))).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_key_encoding,
    bench_compression,
    bench_block_search,
    bench_engine_insert,
    bench_query_scan,
    bench_block_cache,
    bench_hll,
    bench_sql_parse,
    bench_fault_hook,
    bench_maintenance_kernels,
    bench_read_path,
    bench_decode_kernels
);
criterion_main!(benches);
