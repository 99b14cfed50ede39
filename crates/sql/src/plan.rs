//! WHERE-clause planning: turning conjunctions into the engine's
//! two-dimensional bounding box.
//!
//! The planner mirrors what the paper's SQLite adaptor does (§3.1):
//! equality conditions on a *prefix* of the primary-key columns become the
//! key bounds, a range on the next key column tightens them, and
//! conditions on the timestamp column become the time bounds. Whatever
//! cannot be absorbed into the box is kept as a residual filter evaluated
//! per row.

use crate::ast::{PredOp, Select};
use littletable_core::error::{Error, Result};
use littletable_core::query::Query;
use littletable_core::schema::Schema;
use littletable_core::table::{cmp_values, ColumnPredicate};
use littletable_core::value::Value;
use littletable_vfs::Micros;
use std::cmp::Ordering;

/// The position in `schema` of the column a statement names.
pub(crate) fn column_index(schema: &Schema, name: &str) -> Result<usize> {
    schema
        .column_index(name)
        .ok_or_else(|| Error::invalid(format!("no column {name:?}")))
}

/// A planned SELECT scan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The bounding-box query to hand the engine.
    pub query: Query,
    /// Per-row filters the box could not express.
    pub residual: Vec<ColumnPredicate>,
}

/// Plans the FROM/WHERE/ORDER BY/LIMIT part of a SELECT against `schema`.
pub fn plan_select(sel: &Select, schema: &Schema, now: Micros) -> Result<Plan> {
    // Resolve conditions to (column index, op, typed value).
    let mut resolved: Vec<(usize, PredOp, Value)> = Vec::with_capacity(sel.conditions.len());
    for c in &sel.conditions {
        let idx = column_index(schema, &c.column)?;
        let value = c.literal.to_value(schema.columns()[idx].ty, now)?;
        resolved.push((idx, c.op, value));
    }
    let mut absorbed = vec![false; resolved.len()];

    let mut query = Query::all();

    // Timestamp conditions become the time dimension.
    let ts_idx = schema.ts_index();
    for (i, (col, op, value)) in resolved.iter().enumerate() {
        if *col != ts_idx {
            continue;
        }
        let ts = value.as_timestamp()?;
        match op {
            PredOp::Eq => {
                query = tighten_ts_max(tighten_ts_min(query, ts, true), ts, true);
                absorbed[i] = true;
            }
            PredOp::Ge => {
                query = tighten_ts_min(query, ts, true);
                absorbed[i] = true;
            }
            PredOp::Gt => {
                query = tighten_ts_min(query, ts, false);
                absorbed[i] = true;
            }
            PredOp::Le => {
                query = tighten_ts_max(query, ts, true);
                absorbed[i] = true;
            }
            PredOp::Lt => {
                query = tighten_ts_max(query, ts, false);
                absorbed[i] = true;
            }
            PredOp::Ne => {} // residual
        }
    }

    // Key-prefix conditions become the key dimension: equalities on a
    // prefix of the key columns, then at most one range on the next.
    let key_cols: Vec<usize> = schema.key_indices().to_vec();
    let mut eq_prefix: Vec<Value> = Vec::new();
    for &kc in &key_cols[..key_cols.len() - 1] {
        if let Some(i) = resolved
            .iter()
            .enumerate()
            .position(|(i, (col, op, _))| !absorbed[i] && *col == kc && *op == PredOp::Eq)
        {
            absorbed[i] = true;
            eq_prefix.push(resolved[i].2.clone());
            continue;
        }
        // No equality: look for range bounds on this column, then stop.
        let mut lo: Option<(Value, bool)> = None;
        let mut hi: Option<(Value, bool)> = None;
        for (i, (col, op, value)) in resolved.iter().enumerate() {
            if absorbed[i] || *col != kc {
                continue;
            }
            match op {
                PredOp::Ge | PredOp::Gt => {
                    let incl = *op == PredOp::Ge;
                    let tighter = match &lo {
                        None => true,
                        Some((cur, _)) => cmp_values(value, cur) == Some(Ordering::Greater),
                    };
                    if tighter {
                        lo = Some((value.clone(), incl));
                    }
                    absorbed[i] = true;
                }
                PredOp::Le | PredOp::Lt => {
                    let incl = *op == PredOp::Le;
                    let tighter = match &hi {
                        None => true,
                        Some((cur, _)) => cmp_values(value, cur) == Some(Ordering::Less),
                    };
                    if tighter {
                        hi = Some((value.clone(), incl));
                    }
                    absorbed[i] = true;
                }
                _ => {}
            }
        }
        if let Some((v, incl)) = lo {
            let mut bound = eq_prefix.clone();
            bound.push(v);
            query = query.with_key_min(bound, incl);
        } else if !eq_prefix.is_empty() {
            query = query.with_key_min(eq_prefix.clone(), true);
        }
        if let Some((v, incl)) = hi {
            let mut bound = eq_prefix.clone();
            bound.push(v);
            query = query.with_key_max(bound, incl);
        } else if !eq_prefix.is_empty() {
            query = query.with_key_max(eq_prefix.clone(), true);
        }
        eq_prefix.clear(); // bounds emitted
        break;
    }
    if !eq_prefix.is_empty() {
        // Every non-ts key column had an equality: a pure prefix query.
        query = query.with_prefix(eq_prefix);
    }

    // Everything unabsorbed is a residual filter.
    let residual: Vec<ColumnPredicate> = resolved
        .into_iter()
        .zip(absorbed)
        .filter(|(_, a)| !a)
        .map(|((col, op, value), _)| ColumnPredicate { col, op, value })
        .collect();

    // ORDER BY must follow the primary key (the only order the engine
    // produces, §3.1).
    if !sel.order_by.is_empty() {
        let key_names: Vec<&str> = schema
            .key_indices()
            .iter()
            .map(|&i| schema.columns()[i].name.as_str())
            .collect();
        if sel.order_by.len() > key_names.len()
            || !sel.order_by.iter().zip(&key_names).all(|(a, b)| a == b)
        {
            return Err(Error::invalid(
                "ORDER BY must be a prefix of the primary key columns",
            ));
        }
        if sel.order_desc {
            query = query.descending();
        }
    }
    Ok(Plan { query, residual })
}

/// Keeps the tighter of `q`'s lower time bound and `ts` (`>=` when
/// `inclusive`, else `>`); at equal timestamps the exclusive one is
/// tighter. Bounds are compared as given, never shifted by one, so
/// `ts > Micros::MAX` stays a bound that admits nothing.
fn tighten_ts_min(q: Query, ts: Micros, inclusive: bool) -> Query {
    match q.ts_min {
        Some(cur) if (cur.ts, !cur.inclusive) >= (ts, !inclusive) => q,
        _ => q.with_ts_min(ts, inclusive),
    }
}

/// The upper-bound mirror of [`tighten_ts_min`].
fn tighten_ts_max(q: Query, ts: Micros, inclusive: bool) -> Query {
    match q.ts_max {
        Some(cur) if (cur.ts, cur.inclusive) <= (ts, inclusive) => q,
        _ => q.with_ts_max(ts, inclusive),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use littletable_core::schema::ColumnDef;
    use littletable_core::value::ColumnType;

    fn schema() -> Schema {
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

    fn plan(sql: &str) -> Plan {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!("not a select");
        };
        plan_select(&sel, &schema(), 1_000_000).unwrap()
    }

    #[test]
    fn full_prefix_equalities_become_prefix_query() {
        let p = plan("SELECT * FROM t WHERE network = 7 AND device = 3");
        assert_eq!(
            p.query,
            Query::all().with_prefix(vec![Value::I64(7), Value::I64(3)])
        );
        assert!(p.residual.is_empty());
    }

    #[test]
    fn ts_conditions_become_time_bounds() {
        let p = plan("SELECT * FROM t WHERE network = 7 AND ts >= 100 AND ts < 200");
        assert_eq!(p.query.ts_interval(), (100, 199));
        assert!(p.residual.is_empty());
        assert_eq!(
            p.query.key_min.as_ref().unwrap().values,
            vec![Value::I64(7)]
        );
    }

    #[test]
    fn range_on_second_key_column() {
        let p = plan("SELECT * FROM t WHERE network = 7 AND device >= 10 AND device < 20");
        let min = p.query.key_min.unwrap();
        let max = p.query.key_max.unwrap();
        assert_eq!(min.values, vec![Value::I64(7), Value::I64(10)]);
        assert!(min.inclusive);
        assert_eq!(max.values, vec![Value::I64(7), Value::I64(20)]);
        assert!(!max.inclusive);
        assert!(p.residual.is_empty());
    }

    #[test]
    fn overlapping_ranges_take_tightest() {
        let p = plan("SELECT * FROM t WHERE network >= 5 AND network >= 8 AND network <= 20 AND network <= 12");
        assert_eq!(p.query.key_min.unwrap().values, vec![Value::I64(8)]);
        assert_eq!(p.query.key_max.unwrap().values, vec![Value::I64(12)]);
    }

    #[test]
    fn non_key_conditions_are_residual() {
        let p = plan("SELECT * FROM t WHERE network = 1 AND bytes > 100");
        assert_eq!(p.residual.len(), 1);
        assert_eq!(p.residual[0].col, 3);
        assert!(p.residual[0].matches(&Value::I64(101)));
        assert!(!p.residual[0].matches(&Value::I64(100)));
    }

    #[test]
    fn device_condition_without_network_is_residual() {
        // device is the second key column; without an equality on network
        // it cannot bound the scan.
        let p = plan("SELECT * FROM t WHERE device = 3");
        assert!(p.query.key_min.is_none());
        assert_eq!(p.residual.len(), 1);
    }

    #[test]
    fn ne_is_always_residual() {
        let p = plan("SELECT * FROM t WHERE network != 5 AND ts != 3");
        assert_eq!(p.residual.len(), 2);
        assert!(p.query.key_min.is_none());
    }

    #[test]
    fn order_by_validation() {
        let Statement::Select(sel) = parse("SELECT * FROM t ORDER BY device").unwrap() else {
            unreachable!()
        };
        assert!(plan_select(&sel, &schema(), 0).is_err());
        let p = plan("SELECT * FROM t ORDER BY network, device DESC");
        assert!(p.query.descending);
    }
}
