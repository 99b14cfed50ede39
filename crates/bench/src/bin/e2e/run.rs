//! Drives one workload: set-up, warm-up, the measured window, and the
//! bookkeeping around them. The window is a fixed number of ops, never
//! adapted at run time, so that everything counted repeats exactly.

use crate::env::{cpu_nanos, rss_mb, Counters};
use crate::ops::{rows_covered, Executor, Op, Path, Reply, WireBytes};
use crate::oracle;
use crate::trace::Tracer;
use crate::workloads::{Bed, WindowFacts, Workload};
use littletable_vfs::Micros;
use std::ops::Range;
use std::time::Instant;

/// An untraced run does everything [`Workload::reps`] times over —
/// set-up, warm-up and the same window of ops — and keeps, for every
/// op's latency and every chunk's CPU time, the fastest of its
/// repetitions. Interference from other tenants of the machine only ever
/// adds time, and most of it comes in bursts of seconds: it would have to
/// hit the same op every time to show. Set-up time is the median of the
/// repetitions.
pub const DEFAULT_REPS: usize = 4;
/// Quick runs make do with three.
pub const QUICK_REPS: usize = 3;
/// An op list holds the warm-up and this many windows: an untraced pass
/// runs the first of them, the traced run one per entry of its plan.
pub const SEGMENTS: usize = 4;

/// What one stretch of ops measured.
pub struct Segment {
    pub path: Path,
    pub traced: bool,
    pub classes: Vec<&'static str>,
    pub latencies_ns: Vec<u64>,
    /// CPU time of each chunk's timed section: building inputs and
    /// checking results happen between them.
    pub chunk_cpu_ns: Vec<u64>,
    pub wire: WireBytes,
    /// Rows each op covers, by the oracle's arithmetic.
    pub op_rows: Vec<u64>,
    pub failed: u64,
}

impl Segment {
    pub fn ops(&self) -> u64 {
        self.latencies_ns.len() as u64
    }
    /// Time spent inside ops: the load is a closed loop without think
    /// time, so this is the window's wall time less the bench's own.
    pub fn wall_ns(&self) -> u64 {
        self.latencies_ns.iter().sum()
    }
    pub fn cpu_ns(&self) -> u64 {
        self.chunk_cpu_ns.iter().sum()
    }
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / (self.wall_ns() as f64 / 1e9)
    }
    /// Rows covered by the ops whose class satisfies `pick`.
    pub fn rows_of(&self, pick: impl Fn(&str) -> bool) -> f64 {
        let rows = self.classes.iter().zip(&self.op_rows);
        rows.filter(|(c, _)| pick(c)).map(|(_, &n)| n as f64).sum()
    }
}

/// The counted side of one pass, read when its books are closed.
#[derive(Clone, Copy)]
pub struct Books {
    pub window_before: Counters,
    pub window_after: Counters,
    pub end: Counters,
    pub live_bytes: u64,
    /// User bytes accepted since the disk was empty, and the part of
    /// them still inside the TTL when the pass ended.
    pub user_bytes: u64,
    pub user_bytes_live: u64,
    pub disk_rows: u64,
    pub disk_bytes: u64,
}

/// Everything a run measured, before it is turned into metrics.
pub struct Report {
    /// One per repetition.
    pub setup_secs: Vec<f64>,
    /// The window: one segment holding the best of the repetitions when
    /// untraced, the traced pass's segments otherwise.
    pub segments: Vec<Segment>,
    /// The books of the last repetition.
    pub books: Books,
    pub peak_rss_mb: f64,
    pub rss_end_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub shape_errors: Vec<String>,
}

impl Report {
    pub fn window_ops(&self) -> u64 {
        self.segments.iter().map(Segment::ops).sum()
    }
}

/// Runs `range` of the workload's ops on `path`, a chunk at a time:
/// inputs built, then the timed section, then every reply checked.
pub fn run_ops(
    w: &dyn Workload,
    bed: &mut Bed,
    range: Range<usize>,
    path: Path,
    tr: &mut Tracer,
    failures: &mut Vec<String>,
) -> Segment {
    let ops = &w.ops()[range.clone()];
    let mut seg = Segment {
        path,
        traced: false,
        classes: ops.iter().map(Op::class).collect(),
        latencies_ns: Vec::with_capacity(ops.len()),
        chunk_cpu_ns: Vec::new(),
        wire: WireBytes::default(),
        op_rows: ops.iter().map(|op| rows_covered(w.grid(), op)).collect(),
        failed: 0,
    };
    let mut exec = Executor {
        env: &bed.env,
        session: &bed.session,
        client: bed.client.as_mut(),
        wire: WireBytes::default(),
    };
    for (c, chunk) in ops.chunks(w.chunk()).enumerate() {
        let base = range.start + c * w.chunk();
        let inputs: Vec<_> = chunk.iter().map(|op| op.prepare(w.grid())).collect();
        let mut replies: Vec<Reply> = Vec::with_capacity(chunk.len());
        let cpu0 = cpu_nanos();
        for (i, (op, input)) in chunk.iter().zip(inputs).enumerate() {
            tr.set_op(base + i);
            let started = Instant::now();
            let open = tr.begin("op");
            let reply = exec.run(op, input, path, tr);
            tr.end(open);
            seg.latencies_ns.push(started.elapsed().as_nanos() as u64);
            replies.push(reply);
        }
        seg.chunk_cpu_ns.push(cpu_nanos().saturating_sub(cpu0));
        for (i, (op, reply)) in chunk.iter().zip(&replies).enumerate() {
            if let Err(why) = oracle::verify(w.grid(), base + i, op, reply) {
                seg.failed += 1;
                if failures.len() < 5 {
                    failures.push(format!("op {} ({}): {why}", base + i, op.class()));
                }
            }
        }
    }
    seg.wire = exec.wire;
    seg
}

/// How the window is cut up: `(path, traced)` per equal segment.
pub fn plan(w: &dyn Workload, trace: bool) -> Vec<(Path, bool)> {
    if !trace {
        return vec![(w.path(), false)];
    }
    // An untraced stretch first, as the reference for the tracing
    // overhead; then the same path with spans on; for the socket
    // workload the socket-less request path, to stage what the socket
    // hides; and last the engine calls on their own.
    let mut plan = vec![(w.path(), false), (w.path(), true)];
    if w.path() == Path::Socket {
        plan.push((Path::Wire, true));
    }
    plan.push((Path::Engine, true));
    plan
}

fn user_bytes_per_tick(w: &dyn Workload) -> u64 {
    crate::data::Grid::user_bytes_of(0, w.grid().devices)
}

struct Pass {
    setup_secs: f64,
    segments: Vec<Segment>,
    books: Books,
    attempted: u64,
    failed: u64,
}

/// One pass on an empty disk: set-up, warm-up, the window cut into
/// `plan`'s segments of `per_segment` ops, and the closing flush.
fn pass(
    w: &dyn Workload,
    plan: &[(Path, bool)],
    per_segment: usize,
    tr: &mut Tracer,
    failures: &mut Vec<String>,
) -> Pass {
    let warmup = w.warmup_ops();
    let started = Instant::now();
    let mut bed = w.setup();
    let warm = run_ops(
        w,
        &mut bed,
        0..warmup,
        w.path(),
        &mut Tracer::new(false),
        failures,
    );
    let setup_secs = started.elapsed().as_secs_f64();

    let window_before = bed.env.counters();
    let mut segments = Vec::new();
    for (i, &(path, traced)) in plan.iter().enumerate() {
        let first = warmup + i * per_segment;
        tr.set_enabled(traced);
        let mut seg = run_ops(w, &mut bed, first..first + per_segment, path, tr, failures);
        seg.traced = traced;
        segments.push(seg);
    }
    tr.set_enabled(false);
    let window_after = bed.env.counters();

    // Close the books with every accepted row on disk, so that write
    // and space amplification divide like by like.
    bed.env.flush_all();
    let inserted_ticks = w.ops()[..warmup + plan.len() * per_segment]
        .iter()
        .filter_map(|op| match op {
            Op::Insert { tick, .. } => Some(*tick + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
        .max(w.preloaded_ticks());
    let live_ticks = match w.ttl() {
        Some(ttl) => {
            let now: Micros = bed.env.now();
            let (a, b) = w.grid().ticks_in(now - ttl, now, inserted_ticks);
            b - a
        }
        None => inserted_ticks,
    };
    let table = bed.env.usage();
    let books = Books {
        window_before,
        window_after,
        end: bed.env.counters(),
        live_bytes: bed.env.vfs.total_live_bytes(),
        user_bytes: inserted_ticks as u64 * user_bytes_per_tick(w),
        user_bytes_live: live_ticks as u64 * user_bytes_per_tick(w),
        disk_rows: table.disk_rows(),
        disk_bytes: table.disk_bytes(),
    };
    let window_ops: u64 = segments.iter().map(Segment::ops).sum();
    Pass {
        setup_secs,
        attempted: warmup as u64 + window_ops,
        failed: warm.failed + segments.iter().map(|s| s.failed).sum::<u64>(),
        segments,
        books,
    }
}

/// Element-wise minimum of the repetitions' timings.
fn best_of(passes: &mut [Pass]) -> Segment {
    let (first, rest) = passes.split_first_mut().expect("at least one pass");
    let mut best = first.segments.remove(0);
    for pass in rest {
        let seg = &pass.segments[0];
        let min_into = |into: &mut [u64], from: &[u64]| {
            for (a, b) in into.iter_mut().zip(from) {
                *a = (*a).min(*b);
            }
        };
        min_into(&mut best.latencies_ns, &seg.latencies_ns);
        min_into(&mut best.chunk_cpu_ns, &seg.chunk_cpu_ns);
    }
    best
}

/// Runs the workload: [`Workload::reps`] identical passes over one
/// window when untraced, one pass over a window per entry of the plan
/// when traced.
pub fn run(w: &dyn Workload, trace: bool, quick: bool, tr: &mut Tracer) -> Report {
    let plan = plan(w, trace);
    let window = w.ops().len() - w.warmup_ops();
    let reps = if quick { QUICK_REPS } else { w.reps() };
    assert!(plan.len() <= SEGMENTS);
    let per_segment = window / SEGMENTS / w.unit() * w.unit();
    assert!(
        per_segment > 0,
        "the op list is shorter than {SEGMENTS} units"
    );
    let mut failures = Vec::new();
    let mut passes: Vec<Pass> = (0..if trace { 1 } else { reps })
        .map(|_| pass(w, &plan, per_segment, tr, &mut failures))
        .collect();

    let books = passes.last().expect("at least one pass").books;
    let same = |a: &Books, b: &Books| {
        if w.repeats_exactly() {
            a.end.table == b.end.table && a.end.disk == b.end.disk && a.live_bytes == b.live_bytes
        } else {
            let near = |x: u64, y: u64| x.abs_diff(y) * 100 <= x.max(y);
            let (s, t) = (&a.end.table, &b.end.table);
            (s.tablets_flushed, s.merges, s.rows_inserted)
                == (t.tablets_flushed, t.merges, t.rows_inserted)
                && near(a.end.disk.busy_micros as u64, b.end.disk.busy_micros as u64)
                && near(a.end.disk.bytes_read, b.end.disk.bytes_read)
                && near(a.end.disk.bytes_written, b.end.disk.bytes_written)
                && near(a.live_bytes, b.live_bytes)
        }
    };
    let repeatable = passes.iter().all(|p| same(&p.books, &books));
    let facts = WindowFacts {
        before: books.window_before,
        after: books.window_after,
        ops: passes[0].segments.iter().map(Segment::ops).sum(),
        live_bytes: books.live_bytes,
        traced: trace,
    };
    let mut shape_errors = if quick {
        Vec::new()
    } else {
        w.shape_errors(&facts)
    };
    if !repeatable {
        shape_errors.push("the repetitions did not count the same work".into());
    }
    let (peak_rss_mb, rss_end_mb) = rss_mb();
    Report {
        setup_secs: passes.iter().map(|p| p.setup_secs).collect(),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        segments: if trace {
            passes.remove(0).segments
        } else {
            vec![best_of(&mut passes)]
        },
        books,
        peak_rss_mb,
        rss_end_mb,
        failures,
        shape_errors,
    }
}
