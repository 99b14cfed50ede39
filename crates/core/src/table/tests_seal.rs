//! Sealing. `seal_locked`'s stamp rule is held to the flush-dependency
//! graph of §3.4.3 it replaced, kept here as the reference: fed the same
//! inserts and told of the same seals, the two must seal the same groups.
//! And `seal_where` visits due tablets in id order, whatever the hasher.
//!
//! The graph: with several in-memory tablets filling at once (one per
//! time period), a client's inserts may interleave between tablets, but a
//! row that survives a crash must bring every row inserted into the table
//! before it. So when an insert lands in a tablet `t'` other than the
//! tablet `t` that took the previous one, the graph records the edge
//! `t → t'` ("t must be flushed before t'"), and a seal takes the
//! transitive closure of the target's predecessors along, committing all
//! of them in one descriptor update.

use super::tests::{test_db, usage_row, usage_schema, SEC, START};
use super::*;
use crate::memtable::{MemTablet, MemTabletId};
use crate::schema::ColumnDef;
use crate::value::{ColumnType, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Directed flush-before constraints between in-memory tablets.
#[derive(Debug, Default)]
pub struct FlushDeps {
    /// `before → afters`: `before` must flush no later than each of
    /// `afters`.
    forward: HashMap<MemTabletId, HashSet<MemTabletId>>,
    /// Reverse adjacency for closure computation.
    reverse: HashMap<MemTabletId, HashSet<MemTabletId>>,
}

impl FlushDeps {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `before` must be flushed before (or with) `after`.
    pub fn add_edge(&mut self, before: MemTabletId, after: MemTabletId) {
        if before == after {
            return;
        }
        self.forward.entry(before).or_default().insert(after);
        self.reverse.entry(after).or_default().insert(before);
    }

    /// All tablets that must be flushed together with (or before) `t`:
    /// the transitive predecessors of `t`, excluding `t` itself. Cycles are
    /// handled naturally — every member of a cycle reaches the others.
    pub fn closure_before(&self, t: MemTabletId) -> HashSet<MemTabletId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(t);
        while let Some(cur) = queue.pop_front() {
            if let Some(preds) = self.reverse.get(&cur) {
                for &p in preds {
                    if p != t && seen.insert(p) {
                        queue.push_back(p);
                    }
                }
            }
        }
        seen
    }

    /// Orders `group` (which must be closed under `closure_before`) so that
    /// every edge points forward — a topological order that breaks cycles
    /// by id, which is safe because cycle members commit atomically anyway.
    pub fn order_group(&self, group: &HashSet<MemTabletId>) -> Vec<MemTabletId> {
        // Kahn's algorithm restricted to the group; ties and cycles resolve
        // by smallest id for determinism.
        let mut indegree: HashMap<MemTabletId, usize> = group.iter().map(|&t| (t, 0)).collect();
        for &t in group {
            if let Some(next) = self.forward.get(&t) {
                for n in next {
                    if let Some(d) = indegree.get_mut(n) {
                        *d += 1;
                    }
                }
            }
        }
        let mut ready: Vec<MemTabletId> = indegree
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&t, _)| t)
            .collect();
        let mut out = Vec::with_capacity(group.len());
        let mut remaining: HashSet<MemTabletId> = group.clone();
        while out.len() < group.len() {
            if ready.is_empty() {
                // Cycle: pick the smallest remaining id.
                let &min = remaining.iter().min().unwrap();
                ready.push(min);
                indegree.insert(min, 0);
            }
            ready.sort_unstable();
            let t = ready.remove(0);
            if !remaining.remove(&t) {
                continue;
            }
            out.push(t);
            if let Some(next) = self.forward.get(&t) {
                for n in next {
                    if remaining.contains(n) {
                        let d = indegree.get_mut(n).unwrap();
                        if *d > 0 {
                            *d -= 1;
                            if *d == 0 {
                                ready.push(*n);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// True when every edge between members of `order` points forward in
    /// it: when the group `order_group` ordered had no cycle to break.
    pub fn edges_forward(&self, order: &[MemTabletId]) -> bool {
        let pos = |t| order.iter().position(|&x| x == t);
        order.iter().enumerate().all(|(i, t)| {
            let next = self.forward.get(t).into_iter().flatten();
            next.filter_map(|&n| pos(n)).all(|j| i < j)
        })
    }

    /// Removes flushed tablets from the graph.
    pub fn remove(&mut self, flushed: &HashSet<MemTabletId>) {
        for t in flushed {
            if let Some(next) = self.forward.remove(t) {
                for n in next {
                    if let Some(r) = self.reverse.get_mut(&n) {
                        r.remove(t);
                    }
                }
            }
            if let Some(preds) = self.reverse.remove(t) {
                for p in preds {
                    if let Some(f) = self.forward.get_mut(&p) {
                        f.remove(t);
                    }
                }
            }
        }
    }

    /// Number of tablets with at least one recorded constraint.
    pub fn len(&self) -> usize {
        let mut ids: HashSet<MemTabletId> = self.forward.keys().copied().collect();
        ids.extend(self.reverse.keys());
        ids.len()
    }

    /// True when no constraints are recorded.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty() && self.reverse.is_empty()
    }
}

const WEEK: Micros = 7 * 24 * 3600 * SEC;

#[derive(Debug, Clone)]
enum Step {
    /// Single-row inserts, `.1` of them, into period `.0`.
    Insert(usize, usize),
    /// The clock moves on.
    Tick(Micros),
    /// A maintenance pass's age seal at this age.
    Age(Micros),
    /// `flush_before`'s seal of period `.0` and the older ones.
    Before(usize),
    /// A schema change, which seals every filling tablet.
    AddColumn,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0usize..5, 1usize..4).prop_map(|(p, n)| Step::Insert(p, n)),
        1 => (1i64..10).prop_map(|s| Step::Tick(s * SEC)),
        1 => (0i64..30).prop_map(|s| Step::Age(s * SEC)),
        1 => (0usize..5).prop_map(Step::Before),
        1 => Just(Step::AddColumn),
    ]
}

/// The graph as the engine kept it: an edge whenever the insert target
/// changes, a seal taking the target's closure that is still filling,
/// ordered by Kahn's sort with cycles broken at the smallest id.
#[derive(Default)]
struct Reference {
    deps: FlushDeps,
    last: Option<MemTabletId>,
    filling: BTreeMap<usize, MemTabletId>,
    next_id: u64,
    /// Each group sealed, and whether it was free of cycles.
    groups: Vec<(Vec<MemTabletId>, bool)>,
}

impl Reference {
    fn insert(&mut self, period: usize) -> MemTabletId {
        let id = match self.filling.get(&period) {
            Some(&id) => id,
            None => {
                self.next_id += 1;
                MemTabletId(self.next_id)
            }
        };
        self.filling.insert(period, id);
        if let Some(last) = self.last {
            self.deps.add_edge(last, id);
        }
        self.last = Some(id);
        id
    }

    fn seal(&mut self, target: MemTabletId) {
        let filling: HashSet<MemTabletId> = self.filling.values().copied().collect();
        if !filling.contains(&target) {
            return;
        }
        let mut group = self.deps.closure_before(target);
        group.insert(target);
        group.retain(|id| filling.contains(id));
        let order = self.deps.order_group(&group);
        let acyclic = self.deps.edges_forward(&order);
        self.groups.push((order, acyclic));
        self.filling.retain(|_, id| !group.contains(id));
        self.deps.remove(&group);
        if self.last.is_some_and(|l| group.contains(&l)) {
            self.last = None;
        }
    }
}

/// Seals what `due` picks in the engine, and the same in the
/// reference, in the engine's visiting order.
fn seal_where(t: &Table, reference: &mut Reference, due: impl Fn(&MemTablet) -> bool) {
    let mut st = t.state.lock();
    let picked = st.filling.values().filter(|f| due(&f.read()));
    let mut ids: Vec<MemTabletId> = picked.map(|f| f.id()).collect();
    ids.sort_unstable();
    t.seal_where(&mut st, due);
    ids.into_iter().for_each(|id| reference.seal(id));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal membership in every group; equal order wherever the
    /// graph's group had no cycle (in a cycle through three or more
    /// tablets Kahn's tie-break may pick another order, and the group
    /// commits atomically either way).
    #[test]
    fn the_stamp_rule_seals_the_flush_dependency_closure(
        periods in 2usize..=5,
        steps in proptest::collection::vec(step(), 1..120),
    ) {
        let opts = Options {
            flush_size: 1000,
            max_sealed_backlog: usize::MAX,
            ..Options::small_for_tests()
        };
        let (db, _vfs, clock) = test_db(opts);
        let t = db.create_table("usage", usage_schema(), None).unwrap();
        // Each period a week of its own, months back.
        let base = |p: usize| START - (p as i64 + 1) * 5 * WEEK;
        let mut reference = Reference::default();
        let (mut n, mut added) = (0, 0);
        for step in steps {
            match step {
                Step::Insert(p, rows) => {
                    let p = p % periods;
                    for _ in 0..rows {
                        let id = reference.insert(p);
                        let mut row = usage_row(p as i64, n, base(p) + n, n);
                        row.resize(t.schema().num_columns(), Value::I64(0));
                        t.insert(vec![row]).unwrap();
                        n += 1;
                        // A size seal: the engine's trigger, the
                        // reference's closure.
                        if !t.state.lock().filling.values().any(|f| f.id() == id) {
                            reference.seal(id);
                        }
                    }
                }
                Step::Tick(d) => clock.advance(d),
                Step::Age(age) => {
                    let now = clock.now_micros();
                    seal_where(&t, &mut reference, |mem| {
                        !mem.is_empty() && now - mem.first_insert_at() >= age
                    });
                }
                Step::Before(p) => {
                    let ts = base(p % periods);
                    seal_where(&t, &mut reference, |mem| {
                        mem.min_ts().is_some_and(|lo| lo <= ts + n)
                    });
                }
                Step::AddColumn => {
                    added += 1;
                    let col = format!("c{added}");
                    t.add_column(ColumnDef::with_default(col, ColumnType::I64, Value::I64(0)))
                        .unwrap();
                    let mut all: Vec<MemTabletId> = reference.filling.values().copied().collect();
                    all.sort_unstable();
                    all.into_iter().for_each(|id| reference.seal(id));
                }
            }
            let st = t.state.lock();
            prop_assert_eq!(st.sealed.len(), reference.groups.len());
            for (got, (want, acyclic)) in st.sealed.iter().zip(&reference.groups) {
                let got: Vec<MemTabletId> = got.iter().map(|t| t.id()).collect();
                let set = |g: &[MemTabletId]| g.iter().copied().collect::<HashSet<_>>();
                prop_assert_eq!(set(&got), set(want));
                if *acyclic {
                    prop_assert_eq!(&got, want);
                }
            }
        }
    }
}

#[test]
fn flush_all_seals_in_id_order() {
    // Two filling tablets, every row of the old week's stamped before any
    // of today's. Visited in id order each seals alone; had today's been
    // visited first it would have taken the old one along, in one group
    // and one descriptor save fewer.
    let flush = || {
        let (db, vfs, clock) = test_db(Options::small_for_tests());
        let t = db.create_table("usage", usage_schema(), None).unwrap();
        let now = clock.now_micros();
        let old = now - 30 * 24 * 3600 * SEC;
        t.insert((0..5).map(|i| usage_row(1, i, old + i, i)).collect())
            .unwrap();
        t.insert((0..5).map(|i| usage_row(2, i, now + i, i)).collect())
            .unwrap();
        let ops = vfs.op_count();
        t.flush_all().unwrap();
        let names = vfs.list_dir("usage").unwrap().into_iter();
        let mut files: Vec<(String, u64)> = names
            .filter(|f| f.ends_with(".lt"))
            .map(|f| (f.clone(), vfs.file_size(&join("usage", &f)).unwrap()))
            .collect();
        files.sort();
        (files, vfs.op_count() - ops)
    };
    let first = flush();
    assert_eq!(first.0.len(), 2);
    for _ in 1..16 {
        assert_eq!(flush(), first);
    }
}

mod reference_tests {
    use super::*;

    fn id(n: u64) -> MemTabletId {
        MemTabletId(n)
    }

    fn set(ids: &[u64]) -> HashSet<MemTabletId> {
        ids.iter().map(|&n| id(n)).collect()
    }

    #[test]
    fn simple_chain_closure() {
        let mut d = FlushDeps::new();
        d.add_edge(id(1), id(2)); // 1 before 2
        d.add_edge(id(2), id(3)); // 2 before 3
        assert_eq!(d.closure_before(id(3)), set(&[1, 2]));
        assert_eq!(d.closure_before(id(2)), set(&[1]));
        assert_eq!(d.closure_before(id(1)), set(&[]));
    }

    #[test]
    fn cycle_closure_includes_both() {
        let mut d = FlushDeps::new();
        d.add_edge(id(1), id(2));
        d.add_edge(id(2), id(1));
        assert_eq!(d.closure_before(id(1)), set(&[2]));
        assert_eq!(d.closure_before(id(2)), set(&[1]));
    }

    #[test]
    fn self_edges_are_ignored() {
        let mut d = FlushDeps::new();
        d.add_edge(id(1), id(1));
        assert!(d.is_empty());
    }

    #[test]
    fn order_respects_edges() {
        let mut d = FlushDeps::new();
        d.add_edge(id(3), id(1));
        d.add_edge(id(1), id(2));
        let mut group = d.closure_before(id(2));
        group.insert(id(2));
        let order = d.order_group(&group);
        let pos = |t: u64| order.iter().position(|&x| x == id(t)).unwrap();
        assert!(pos(3) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn order_handles_cycles_deterministically() {
        let mut d = FlushDeps::new();
        d.add_edge(id(5), id(7));
        d.add_edge(id(7), id(5));
        let group = set(&[5, 7]);
        let order = d.order_group(&group);
        assert_eq!(order.len(), 2);
        // Deterministic: smallest id first within the cycle.
        assert_eq!(order[0], id(5));
    }

    #[test]
    fn remove_clears_constraints() {
        let mut d = FlushDeps::new();
        d.add_edge(id(1), id(2));
        d.add_edge(id(2), id(3));
        d.remove(&set(&[1, 2]));
        assert_eq!(d.closure_before(id(3)), set(&[]));
        d.remove(&set(&[3]));
        assert!(d.is_empty());
    }

    #[test]
    fn diamond_closure() {
        let mut d = FlushDeps::new();
        d.add_edge(id(1), id(2));
        d.add_edge(id(1), id(3));
        d.add_edge(id(2), id(4));
        d.add_edge(id(3), id(4));
        assert_eq!(d.closure_before(id(4)), set(&[1, 2, 3]));
        assert_eq!(d.len(), 4);
    }
}
