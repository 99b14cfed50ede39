//! The result oracle: every reply is checked against what the row
//! generator says the table must hold.

use crate::data::{Grid, COL_DEVICE, COL_TS, DEVICES_PER_NETWORK, HOUR, MINUTE};
use crate::ops::{rows_covered, Op, Reply, Shape, RSSI_BELOW};
use littletable_core::Value;
use littletable_vfs::Micros;
use std::collections::BTreeMap;

/// One result in this many is compared value for value; the others by
/// row count and by their first and last rows.
pub const FULL_CHECK_EVERY: usize = 64;

pub fn verify(grid: &Grid, index: usize, op: &Op, reply: &Reply) -> Result<(), String> {
    match (op, reply) {
        (_, Reply::Error(e)) => Err(format!("op failed: {e}")),
        (
            Op::Insert { count, .. },
            Reply::Inserted {
                inserted,
                duplicates,
            },
        ) => {
            if *inserted == *count as u64 && *duplicates == 0 {
                Ok(())
            } else {
                Err(format!(
                    "insert of {count} acked {inserted} rows and {duplicates} duplicates"
                ))
            }
        }
        (Op::Scan { device, lo, hi, .. }, Reply::Rows(rows)) => {
            let expected = rows_covered(grid, op);
            if rows.len() as u64 != expected {
                return Err(format!(
                    "scan returned {} rows, expected {expected}",
                    rows.len()
                ));
            }
            let full = index.is_multiple_of(FULL_CHECK_EVERY);
            let checked: Vec<&Vec<Value>> = if full {
                rows.iter().collect()
            } else {
                rows.first().into_iter().chain(rows.last()).collect()
            };
            for row in &checked {
                let in_range =
                    matches!(row.get(COL_TS), Some(Value::Timestamp(t)) if lo <= t && t <= hi);
                let right_device =
                    device.is_none_or(|d| row.get(COL_DEVICE) == Some(&Value::I64(d)));
                if !in_range || !right_device || !grid.row_matches(row) {
                    return Err(format!(
                        "scan returned a row the generator did not make: {row:?}"
                    ));
                }
            }
            // With the right count, strictly ascending keys of generated
            // rows inside the box can only be the expected set.
            let key = |r: &Vec<Value>| match (&r[COL_DEVICE], &r[COL_TS]) {
                (Value::I64(d), Value::Timestamp(t)) => (*d, *t),
                _ => unreachable!("row_matches checked the key cells"),
            };
            if full && !rows.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
                return Err("scan rows are not in strictly ascending key order".into());
            }
            Ok(())
        }
        (Op::Latest { device, ticks }, Reply::Latest(row)) => {
            let expected = grid.row(*device, ticks - 1);
            if row.as_deref() == Some(expected.as_slice()) {
                Ok(())
            } else {
                Err(format!("latest returned {row:?}, expected {expected:?}"))
            }
        }
        (
            Op::Sql {
                shape,
                network,
                lo,
                hi,
                ticks,
                ..
            },
            Reply::Rows(rows),
        ) => {
            let expected = expected_sql(grid, *shape, *network, *lo, *hi, *ticks);
            compare_sql(rows, &expected)
        }
        (op, reply) => Err(format!(
            "{} got a reply of the wrong kind: {reply:?}",
            op.class()
        )),
    }
}

/// An expected aggregate cell and how closely the answer must match.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Exact(Value),
    /// Floating-point sums may be associated differently.
    Float(f64),
    /// `COUNT(DISTINCT)` is a HyperLogLog estimate.
    Distinct(i64),
}

#[derive(Default)]
struct Fold {
    count: i64,
    sum_up: i64,
    min_clients: i64,
    max_clients: i64,
    max_down: i64,
    sum_rssi: f64,
    devices: std::collections::BTreeSet<i64>,
}

/// Recomputes a statement's answer by folding regenerated rows.
pub fn expected_sql(
    grid: &Grid,
    shape: Shape,
    network: i64,
    lo: Micros,
    hi: Micros,
    ticks: i64,
) -> Vec<Vec<Cell>> {
    let width = match shape {
        Shape::Pushdown => Some(5 * MINUTE),
        Shape::Rollup => Some(HOUR),
        Shape::Stats => None,
    };
    let residual = shape == Shape::Pushdown;
    let (a, b) = grid.ticks_in(lo, hi - 1, ticks);
    let mut groups: BTreeMap<Micros, Fold> = BTreeMap::new();
    for device in network * DEVICES_PER_NETWORK..(network + 1) * DEVICES_PER_NETWORK {
        for tick in a..b {
            let c = grid.cells(device, tick);
            if residual && c.rssi >= RSSI_BELOW {
                continue;
            }
            let ts = grid.ts(tick);
            let bucket = width.map_or(0, |w| ts - ts.rem_euclid(w));
            let f = groups.entry(bucket).or_insert_with(|| Fold {
                min_clients: i64::MAX,
                max_clients: i64::MIN,
                max_down: i64::MIN,
                ..Fold::default()
            });
            f.count += 1;
            f.sum_up += c.up;
            f.min_clients = f.min_clients.min(c.clients);
            f.max_clients = f.max_clients.max(c.clients);
            f.max_down = f.max_down.max(c.down);
            f.sum_rssi += c.rssi;
            f.devices.insert(device);
        }
    }
    let int = |v: i64| Cell::Exact(Value::I64(v));
    groups
        .into_iter()
        .map(|(bucket, f)| match shape {
            Shape::Pushdown => vec![
                Cell::Exact(Value::Timestamp(bucket)),
                int(f.count),
                int(f.sum_up),
                int(f.max_down),
                Cell::Float(f.sum_rssi / f.count as f64),
            ],
            Shape::Rollup => vec![
                Cell::Exact(Value::Timestamp(bucket)),
                int(f.count),
                int(f.sum_up),
                int(f.max_down),
                Cell::Distinct(f.devices.len() as i64),
            ],
            Shape::Stats => vec![int(f.count), int(f.min_clients), int(f.max_clients)],
        })
        .collect()
}

pub fn compare_sql(got: &[Vec<Value>], expected: &[Vec<Cell>]) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "statement returned {} rows, expected {}",
            got.len(),
            expected.len()
        ));
    }
    for (g, e) in got.iter().zip(expected) {
        let ok = g.len() == e.len()
            && g.iter().zip(e).all(|(g, e)| match (g, e) {
                (g, Cell::Exact(v)) => g == v,
                (Value::F64(x), Cell::Float(y)) => (x - y).abs() <= 1e-9 * y.abs().max(1.0),
                // Standard error of the sketch is under 2 %; allow 10 %
                // and never less than one.
                (Value::I64(x), Cell::Distinct(n)) => (x - n).abs() <= (n / 10).max(1),
                _ => false,
            });
        if !ok {
            return Err(format!("statement returned {g:?}, expected {e:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::T0;

    fn grid() -> Grid {
        Grid {
            seed: 3,
            devices: 16,
            start: T0,
            step: MINUTE,
        }
    }

    #[test]
    fn scan_oracle_accepts_the_generated_rows_and_rejects_a_changed_one() {
        let g = grid();
        let op = Op::Scan {
            network: 1,
            device: Some(9),
            lo: T0,
            hi: T0 + 9 * MINUTE,
            ticks: 100,
        };
        let mut rows: Vec<Vec<Value>> = (0..10).map(|k| g.row(9, k)).collect();
        assert!(verify(&g, 0, &op, &Reply::Rows(rows.clone())).is_ok());
        rows[4][3] = Value::I64(-1);
        assert!(verify(&g, 0, &op, &Reply::Rows(rows.clone())).is_err());
        // A partial check still catches a wrong count.
        rows.pop();
        assert!(verify(&g, 1, &op, &Reply::Rows(rows)).is_err());
    }

    #[test]
    fn sql_oracle_counts_every_row_once() {
        let g = grid();
        let e = expected_sql(&g, Shape::Stats, 0, T0, T0 + HOUR, 1000);
        assert_eq!(e[0][0], Cell::Exact(Value::I64(60 * DEVICES_PER_NETWORK)));
        let hourly = expected_sql(&g, Shape::Rollup, 1, T0, T0 + 3 * HOUR, 1000);
        assert_eq!(hourly.len(), 3);
        assert_eq!(hourly[2][4], Cell::Distinct(DEVICES_PER_NETWORK));
        let got = vec![vec![
            Value::I64(60 * DEVICES_PER_NETWORK),
            Value::I64(0),
            Value::I64(0),
        ]];
        assert!(compare_sql(&got, &e).is_err());
    }
}
