//! The deterministic node-kill harness (§2.2, §4): boot an in-process
//! fleet of 8 nodes (4 shards × primary + warm spare) over simulated
//! disks, drive the same scripted ingest/archive/repair workload through
//! [`FleetClient`], and kill one node per trial at a chosen disk-op
//! index — including indices *inside* an archive-sync window, where the
//! spare holds a half-copied replica. After every trial the oracle
//! recomputes ground truth and checks the fleet's whole contract at
//! once:
//!
//! 1. every acknowledged insert is readable after failover,
//! 2. no insert is duplicated by the client's idempotent re-send,
//! 3. the scatter-gather result equals a single-node reference run.
//!
//! Tier-1 samples ≥ 100 kill points; `LT_FULL_SWEEP=1` sweeps every op
//! on every node. A failing trial is replayed exactly with
//! `LT_KILL_NODE=<id> LT_KILL_OP=<k>`.

use littletable::fleet::{FleetClient, FleetError, FleetSim};
use littletable::proto::{Request, Response};
use littletable::server::handle_request;
use littletable::vfs::{Micros, SimClock, SimVfs};
use littletable::workload::FleetLoad;
use littletable::{Db, Options, Query, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

const SHARDS: u32 = 4;
const NODES: u64 = SHARDS as u64 * 2;
const SEED: u64 = 0xF1EE7;
const DEVICES: u32 = 32;
const START_US: Micros = 1_700_000_000_000_000;
const TS_BASE: i64 = 1_700_000_000_000_000;
const ROWS_PER_ROUND: usize = 25;
const ROUNDS: usize = 6;
const TOTAL: u64 = (ROWS_PER_ROUND * ROUNDS) as u64;
const TABLE: &str = "telemetry";

/// A small server row limit forces `more_available` continuations, so
/// every trial also exercises the scatter-gather merge across pages.
fn fleet_opts() -> Options {
    Options {
        server_row_limit: 16,
        ..Options::small_for_tests()
    }
}

fn full_sweep() -> bool {
    std::env::var("LT_FULL_SWEEP")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Sorts rows by `(device, ts)` — the schema's primary-key order, which
/// is also the order the fleet merge and the reference server emit.
fn sort_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_key(|r| match (&r[0], &r[1]) {
        (Value::I64(d), Value::Timestamp(t)) => (*d, *t),
        _ => panic!("unexpected row shape: {r:?}"),
    });
    rows
}

/// Everything one scripted run produces: the final scatter-gather
/// result plus the op-count geometry the kill-point planner needs.
struct Trial {
    rows: Vec<Vec<Value>>,
    /// Per node: op count right after fleet boot (a kill below this can
    /// never fire — the plan is installed post-boot).
    boot_ops: Vec<u64>,
    /// Per node: op count after the final query.
    final_ops: Vec<u64>,
    /// Per node: `(pre, post)` op windows around each archive tick that
    /// moved its disk — kill points in here land mid-archive-sync.
    windows: Vec<Vec<(u64, u64)>>,
    /// Whether the installed kill plan actually fired.
    fired: bool,
    failovers: u64,
}

/// The scripted workload, identical on every run up to the injected
/// kill: insert a batch per round, archive every other round, then
/// repair — client-driven failover for dead mapped primaries (which
/// replays the acked-but-unarchived tail), restart of every dead node
/// in its map role, and a rollback-aware re-sync for the shards that
/// took a restart. Ends with a fleet-wide scatter-gather of everything.
fn run_script(kill: Option<(u64, u64)>) -> Result<Trial, FleetError> {
    let mut sim = FleetSim::new(SHARDS, START_US, fleet_opts())?;
    let boot_ops: Vec<u64> = (0..NODES).map(|id| sim.node(id).op_count()).collect();
    if let Some((node, op)) = kill {
        sim.kill_at(node, op);
    }
    let mut client = FleetClient::new(SHARDS);
    client.create_table(&mut sim, TABLE, FleetLoad::schema(), None)?;
    let mut load = FleetLoad::new(SEED, DEVICES, TS_BASE);
    let mut windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); NODES as usize];
    for round in 0..ROUNDS {
        client.insert(&mut sim, TABLE, load.batch(ROWS_PER_ROUND))?;
        if round % 2 == 1 {
            let pre: Vec<u64> = (0..NODES).map(|id| sim.node(id).op_count()).collect();
            client.archive(&mut sim);
            for id in 0..NODES as usize {
                let post = sim.node(id as u64).op_count();
                if post > pre[id] {
                    windows[id].push((pre[id], post));
                }
            }
        }
        // Repair order matters: fail over through the client *before*
        // restarting, so the promoted spare receives the replay; a
        // restart-as-primary would silently drop the dead memtable.
        client.repair(&mut sim)?;
        let mut restarted = Vec::new();
        for id in 0..NODES {
            if sim.node_down(id) {
                sim.restart_node(id)?;
                restarted.push(sim.node(id).shard());
            }
        }
        for shard in restarted {
            sim.resync_spare(shard)?;
        }
    }
    let rows = client.query(&mut sim, TABLE, &Query::all())?;
    let final_ops = (0..NODES).map(|id| sim.node(id).op_count()).collect();
    let fired = match kill {
        Some((node, _)) => sim.node(node).vfs().faults_injected() > 0,
        None => true,
    };
    Ok(Trial {
        rows,
        boot_ops,
        final_ops,
        windows,
        fired,
        failovers: sim.failovers(),
    })
}

/// A fault-free run of the same rows on one ordinary server — the
/// ground truth the fleet's scatter-gather must be indistinguishable
/// from.
fn single_node_reference() -> Vec<Vec<Value>> {
    let db = Db::open(
        Arc::new(SimVfs::instant()),
        Arc::new(SimClock::new(START_US)),
        Options::small_for_tests(),
    )
    .expect("reference open");
    let mut load = FleetLoad::new(SEED, DEVICES, TS_BASE);
    match handle_request(
        &db,
        Request::CreateTable {
            table: TABLE.to_string(),
            schema: FleetLoad::schema(),
            ttl: None,
        },
    ) {
        Response::Ok => {}
        r => panic!("reference create failed: {r:?}"),
    }
    let rows = load
        .batch(TOTAL as usize)
        .into_iter()
        .map(|r| r.into_iter().map(Some).collect())
        .collect();
    match handle_request(
        &db,
        Request::Insert {
            table: TABLE.to_string(),
            rows,
        },
    ) {
        Response::InsertResult { inserted, .. } => assert_eq!(inserted, TOTAL),
        r => panic!("reference insert failed: {r:?}"),
    }
    match handle_request(
        &db,
        Request::Query {
            table: TABLE.to_string(),
            query: Query::all(),
        },
    )
    .into_rows()
    {
        Response::Rows {
            rows,
            more_available,
        } => {
            assert!(!more_available, "reference run must fit one page");
            rows
        }
        r => panic!("reference query failed: {r:?}"),
    }
}

/// Kill points for one node: evenly spaced across its whole op range,
/// plus two inside each archive-sync window. Returns `(op, in_window)`.
fn kill_points(baseline: &Trial, id: u64) -> Vec<(u64, bool)> {
    let lo = baseline.boot_ops[id as usize];
    let hi = baseline.final_ops[id as usize];
    if hi <= lo {
        return Vec::new();
    }
    let in_window = |op: u64| {
        baseline.windows[id as usize]
            .iter()
            .any(|&(pre, post)| op >= pre && op < post)
    };
    let mut points: BTreeMap<u64, bool> = BTreeMap::new();
    if full_sweep() {
        for op in lo..hi {
            points.insert(op, in_window(op));
        }
    } else {
        let span = hi - lo;
        for j in 0..8 {
            let op = lo + span * j / 8;
            points.insert(op, in_window(op));
        }
        for &(pre, post) in &baseline.windows[id as usize] {
            let w = post - pre;
            points.insert(pre + w / 3, true);
            points.insert(pre + 2 * w / 3, true);
        }
    }
    points.into_iter().collect()
}

/// The oracle, with replay instructions baked into every failure.
fn check_trial(
    node: u64,
    op: u64,
    trial: &Trial,
    expected: &[Vec<Value>],
    reference: &[Vec<Value>],
) {
    let replay = format!("replay with: LT_KILL_NODE={node} LT_KILL_OP={op} cargo test --test fleet_sim node_kill_sweep");
    assert!(
        trial.fired,
        "kill point never fired (node {node}, op {op}) — stale baseline? {replay}"
    );
    if trial.rows != expected {
        let diff = trial
            .rows
            .iter()
            .zip(expected.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| trial.rows.len().min(expected.len()));
        panic!(
            "acked-insert oracle violated after killing node {node} at op {op} \
             ({} failovers): got {} rows, expected {}, first divergence at row {diff}; {replay}",
            trial.failovers,
            trial.rows.len(),
            expected.len(),
        );
    }
    assert_eq!(
        trial.rows, reference,
        "fleet scatter-gather diverged from the single-node reference \
         after killing node {node} at op {op}; {replay}"
    );
}

#[test]
fn node_kill_sweep_preserves_every_acked_insert() {
    // Ground truth first: the fault-free script must already satisfy the
    // oracle, otherwise kill trials would blame crashes for a bug the
    // fleet has anyway.
    let baseline = run_script(None).expect("fault-free fleet run failed");
    let expected = sort_rows(FleetLoad::new(SEED, DEVICES, TS_BASE).expected(TOTAL));
    assert_eq!(
        baseline.rows, expected,
        "fault-free fleet run fails the oracle"
    );
    let reference = single_node_reference();
    assert_eq!(
        baseline.rows, reference,
        "fault-free fleet and single-node reference disagree"
    );
    assert!(
        baseline.windows.iter().all(|w| !w.is_empty()),
        "some node took no archive I/O — mid-sync kill coverage is gone: {:?}",
        baseline.windows
    );

    // Exact single-trial replay for debugging a sweep failure.
    if let (Some(node), Some(op)) = (env_u64("LT_KILL_NODE"), env_u64("LT_KILL_OP")) {
        let trial = run_script(Some((node, op)))
            .unwrap_or_else(|e| panic!("fleet errored after killing node {node} at op {op}: {e}"));
        check_trial(node, op, &trial, &expected, &reference);
        return;
    }

    let mut trials = 0u64;
    let mut mid_archive = 0u64;
    let mut failovers = 0u64;
    for id in 0..NODES {
        for (op, in_window) in kill_points(&baseline, id) {
            let trial = run_script(Some((id, op))).unwrap_or_else(|e| {
                panic!(
                    "fleet errored after killing node {id} at op {op}: {e}; \
                     replay with: LT_KILL_NODE={id} LT_KILL_OP={op} \
                     cargo test --test fleet_sim node_kill_sweep"
                )
            });
            check_trial(id, op, &trial, &expected, &reference);
            trials += 1;
            if in_window {
                mid_archive += 1;
            }
            failovers += trial.failovers;
        }
    }
    assert!(trials >= 100, "kill sweep ran only {trials} trials");
    assert!(
        mid_archive >= 16,
        "only {mid_archive} mid-archive-sync kill points"
    );
    assert!(
        failovers > 0,
        "no trial ever failed over — the sweep is not reaching the failover path"
    );
}

#[test]
fn double_failover_then_failback_keeps_every_ack() {
    let mut sim = FleetSim::new(2, START_US, fleet_opts()).expect("boot");
    let mut client = FleetClient::new(2);
    client
        .create_table(&mut sim, TABLE, FleetLoad::schema(), None)
        .expect("create");
    let mut load = FleetLoad::new(SEED ^ 1, DEVICES, TS_BASE);

    // 40 rows archived (replicated), 20 more acked but memtable-only.
    client
        .insert(&mut sim, TABLE, load.batch(40))
        .expect("insert");
    assert!(client.archive(&mut sim).iter().all(|o| o.is_clean()));
    client
        .insert(&mut sim, TABLE, load.batch(20))
        .expect("insert");

    // First failover: shard 0's boot primary dies holding that memtable.
    let p0 = sim.map().route(0).primary;
    sim.kill_now(p0);
    client
        .insert(&mut sim, TABLE, load.batch(20))
        .expect("insert across first failover");
    assert_eq!(sim.failovers(), 1, "first kill did not fail over");
    sim.restart_node(p0).expect("restart old primary");
    sim.resync_spare(0).expect("resync restored node");

    // Second failover: the promoted node dies too; service returns to
    // the restored original, which must now hold every acked row.
    let p1 = sim.map().route(0).primary;
    sim.kill_now(p1);
    client
        .insert(&mut sim, TABLE, load.batch(20))
        .expect("insert across second failover");
    assert_eq!(sim.failovers(), 2, "second kill did not fail over");
    assert_eq!(
        sim.map().route(0).primary,
        p0,
        "second failover must land on the restored node"
    );
    sim.restart_node(p1).expect("restart second casualty");
    sim.resync_spare(0).expect("resync second casualty");

    // Failback: roles return to the boot layout at a fresh epoch, and
    // ingest continues without the client noticing.
    let epoch = sim.failback(0).expect("failback");
    assert_eq!(epoch, 3, "two failovers + failback = epoch 3");
    assert_eq!(sim.map().route(0).primary, p1);
    client
        .insert(&mut sim, TABLE, load.batch(20))
        .expect("insert after failback");

    let got = client.query(&mut sim, TABLE, &Query::all()).expect("query");
    let expected = sort_rows(FleetLoad::new(SEED ^ 1, DEVICES, TS_BASE).expected(120));
    assert_eq!(
        got, expected,
        "acked rows lost or duplicated across double failover + failback"
    );
}
