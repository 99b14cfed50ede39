//! The nonblocking ingest front end: a readiness loop over a small pool
//! of shared-nothing worker shards.
//!
//! Each worker owns a set of connections outright — their sockets, their
//! incremental frame decoders, and their write buffers — and runs a
//! `poll(2)` loop over them (see `crate::poll`; no async runtime). The
//! listener lives in worker 0's poll set, so accepting never busy-polls;
//! accepted connections are dealt round-robin to workers through small
//! inbox queues, with a `UnixStream` wakeup pair per worker so a sleeping
//! poll notices new work (and shutdown) immediately.
//!
//! **Pipelining.** A connection may write any number of request frames
//! before reading responses. Requests on one connection are executed in
//! arrival order and their responses appended to the connection's write
//! buffer in that same order, so response ids per connection are FIFO —
//! the ordering guarantee clients rely on to match acks to in-flight
//! batches.
//!
//! **Backpressure.** Once a connection's unwritten response bytes exceed
//! [`ServerConfig::MAX_CONN_BUFFER`], the worker stops *reading* from
//! that socket (drops it from the poll read set) until the client drains
//! responses. Kernel TCP buffers then fill and the client's writes
//! block: a slow reader throttles only itself, and server memory per
//! connection stays bounded.
//!
//! **Group commit.** Workers execute inserts against the memtable
//! inline, but sealing and flushing are batched: each insert reports its
//! row count *and table* to the `crate::group_commit` scheduler, which
//! hashes the table onto one of [`ServerConfig::commit_shards`] per-table
//! write shards. Each shard coalesces flush/seal/merge work for its
//! tables into single maintenance passes, so batches for distinct tables
//! commit on distinct shards in parallel.

use crate::group_commit::GroupCommit;
use crate::poll::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::{handle_fleet_request, NodeState};
use littletable_core::db::Db;
use littletable_proto::{
    decode_request_frame, encode_response_frame, request_frame_id, ErrorKind, FrameDecoder,
    Response, MAX_FRAME_LEN,
};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for the ingest front end. The defaults suit tests and small
/// deployments; a paper-scale shard would raise `workers`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Event-loop worker shards. Each owns its connections exclusively.
    pub workers: usize,
    /// Per-table write shards for group commit: each table hashes to one
    /// shard, and each shard runs its own committer thread, so distinct
    /// tables' batches seal and flush in parallel.
    pub commit_shards: usize,
}

impl ServerConfig {
    /// Group commit runs as soon as this many rows are dirty, without
    /// waiting out the coalescing interval.
    pub const GROUP_COMMIT_ROWS: u64 = 4096;
    /// Group-commit coalescing window: dirty rows wait at most this long
    /// before a maintenance pass seals and flushes them.
    pub const GROUP_COMMIT_INTERVAL: Duration = Duration::from_millis(20);
    /// Per-connection cap on buffered response bytes before the worker
    /// stops reading that socket (pipelining backpressure).
    pub const MAX_CONN_BUFFER: usize = 1 << 20;
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            commit_shards: 2,
        }
    }
}

/// Worker-shared state: the shutdown flag, the group-commit handle, and
/// one inbox (connection queue + wakeup pipe) per worker.
struct Shared {
    shutdown: AtomicBool,
    group: GroupCommit,
    inboxes: Vec<Inbox>,
    /// Round-robin counter for dealing accepted connections to workers.
    next_conn: AtomicUsize,
}

struct Inbox {
    queue: Mutex<Vec<TcpStream>>,
    /// Write end of the worker's wakeup pair (nonblocking; a full pipe
    /// means a wakeup is already pending, so failed writes are ignored).
    wake_tx: UnixStream,
}

impl Shared {
    fn wake(&self, worker: usize) {
        let _ = (&self.inboxes[worker].wake_tx).write(&[1]);
    }

    fn wake_all(&self) {
        for i in 0..self.inboxes.len() {
            self.wake(i);
        }
    }
}

/// A TCP server wrapping a [`Db`]: nonblocking readiness loop, pipelined
/// request handling, group-committed flushes.
pub struct Server {
    db: Db,
    addr: SocketAddr,
    node: Arc<NodeState>,
    listener: Option<TcpListener>,
    wake_rxs: Vec<UnixStream>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    committers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with default
    /// configuration, without starting the event loop.
    pub fn bind(db: Db, addr: &str) -> io::Result<Server> {
        Server::bind_with(db, addr, ServerConfig::default())
    }

    /// Binds with explicit [`ServerConfig`], as a standalone primary.
    pub fn bind_with(db: Db, addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        Server::bind_as(db, addr, cfg, Arc::new(NodeState::default()))
    }

    /// Binds as a fleet member: the node's role decides which requests
    /// the dispatcher fences (see [`handle_fleet_request`]). The caller
    /// keeps a clone of `node` to promote/demote the server at runtime.
    pub fn bind_as(
        db: Db,
        addr: &str,
        cfg: ServerConfig,
        node: Arc<NodeState>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let mut inboxes = Vec::with_capacity(workers);
        let mut wake_rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            inboxes.push(Inbox {
                queue: Mutex::new(Vec::new()),
                wake_tx: tx,
            });
            wake_rxs.push(rx);
        }
        Ok(Server {
            db,
            addr,
            node,
            listener: Some(listener),
            wake_rxs,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                group: GroupCommit::new(cfg.commit_shards),
                inboxes,
                next_conn: AtomicUsize::new(0),
            }),
            workers: Vec::new(),
            committers: Vec::new(),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The database this server fronts.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Starts the worker shards and the group-commit scheduler.
    pub fn start(&mut self) -> io::Result<()> {
        let listener = self
            .listener
            .take()
            .ok_or_else(|| io::Error::other("server already started"))?;
        listener.set_nonblocking(true)?;
        let mut listener = Some(listener);
        for (idx, wake_rx) in self.wake_rxs.drain(..).enumerate() {
            let worker = Worker {
                idx,
                db: self.db.clone(),
                node: self.node.clone(),
                shared: self.shared.clone(),
                listener: if idx == 0 { listener.take() } else { None },
                wake_rx,
                conns: Vec::new(),
            };
            self.workers.push(
                std::thread::Builder::new()
                    .name(format!("lt-ingest-{idx}"))
                    .spawn(move || worker.run())?,
            );
        }
        for idx in 0..self.shared.group.shard_count() {
            let db = self.db.clone();
            let shared = self.shared.clone();
            self.committers.push(
                std::thread::Builder::new()
                    .name(format!("lt-commit-{idx}"))
                    .spawn(move || shared.group.run_shard(idx, &db))?,
            );
        }
        Ok(())
    }

    /// Commit passes run so far by each per-table write shard. A batch
    /// for table `t` always commits on shard `hash(t) % len`, so two
    /// tables on different shards show independent counts.
    pub fn commit_shard_counts(&self) -> Vec<u64> {
        self.shared.group.commit_counts()
    }

    /// The group-commit shard that owns `table` (for tests and
    /// observability: distinct values mean distinct committer threads).
    pub fn commit_shard_of(&self, table: &str) -> usize {
        self.shared.group.shard_of(table)
    }

    /// Stops the event loop: open connections are closed promptly (no
    /// waiting out read timeouts), the group-commit scheduler runs one
    /// final pass, and every thread is joined. Unflushed rows follow the
    /// engine's durability model — call [`Db::flush_all`] first for a
    /// polite shutdown.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.group.stop();
        self.shared.wake_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for h in self.committers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection owned by a worker: socket, partial-frame decoder, and
/// pending response bytes.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Encoded-but-unwritten response frames; `out[out_pos..]` is pending.
    out: Vec<u8>,
    out_pos: usize,
    /// The peer half-closed its write side; serve buffered requests,
    /// flush, then close.
    peer_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            peer_closed: false,
        }
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Appends one framed response. False when the response exceeds the
    /// frame limit (the connection can only be dropped).
    fn push_response(&mut self, id: u64, resp: &Response) -> bool {
        let payload = encode_response_frame(id, resp);
        if payload.len() > MAX_FRAME_LEN {
            return false;
        }
        self.out
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(&payload);
        true
    }

    /// Writes pending bytes until the socket would block. True means the
    /// connection is dead.
    fn flush_out(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return true,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos >= 1 << 16 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        false
    }
}

/// What a poll entry refers to.
enum Token {
    Wake,
    Listener,
    Conn(usize),
}

struct Worker {
    idx: usize,
    db: Db,
    node: Arc<NodeState>,
    shared: Arc<Shared>,
    /// Worker 0 owns the listener; the others only serve connections.
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
}

impl Worker {
    fn run(mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<Token> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                // Dropping `self` closes every connection (and the
                // listener) immediately — no read timeouts to wait out.
                return;
            }
            self.drain_inbox();

            fds.clear();
            tokens.clear();
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            tokens.push(Token::Wake);
            if let Some(l) = &self.listener {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
                tokens.push(Token::Listener);
            }
            for (i, slot) in self.conns.iter().enumerate() {
                let Some(c) = slot else { continue };
                let mut events = 0i16;
                if !c.peer_closed && c.pending_out() < ServerConfig::MAX_CONN_BUFFER {
                    events |= POLLIN;
                }
                if c.pending_out() > 0 {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                    tokens.push(Token::Conn(i));
                }
            }

            // The 500 ms cap is a safety net; wakeup bytes end sleeps
            // early for new connections and shutdown.
            if poll_fds(&mut fds, 500).is_err() {
                continue;
            }
            for (fd, token) in fds.iter().zip(&tokens) {
                if fd.revents == 0 {
                    continue;
                }
                match token {
                    Token::Wake => self.drain_wakeups(),
                    Token::Listener => self.accept_ready(),
                    Token::Conn(i) => self.conn_ready(*i, fd.revents),
                }
            }
        }
    }

    fn drain_wakeups(&mut self) {
        let mut scratch = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut scratch) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_inbox(&mut self) {
        let streams: Vec<TcpStream> =
            std::mem::take(&mut *self.shared.inboxes[self.idx].queue.lock());
        for s in streams {
            self.add_conn(s);
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn = Conn::new(stream);
        match self.conns.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(conn),
            None => self.conns.push(Some(conn)),
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    let n = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
                    let target = n % self.shared.inboxes.len();
                    if target == self.idx {
                        self.add_conn(stream);
                    } else {
                        self.shared.inboxes[target].queue.lock().push(stream);
                        self.shared.wake(target);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, i: usize, revents: i16) {
        let Some(conn) = self.conns[i].as_mut() else {
            return;
        };
        let mut dead = false;
        if revents & POLLNVAL != 0 {
            dead = true;
        }
        if !dead && revents & (POLLIN | POLLHUP | POLLERR) != 0 && !conn.peer_closed {
            dead = read_and_process(&self.db, &self.node, &self.shared.group, conn);
        }
        if !dead {
            dead = conn.flush_out();
        }
        if dead || (conn.peer_closed && conn.pending_out() == 0) {
            self.conns[i] = None;
        }
    }
}

/// Reads until the socket would block (or backpressure engages),
/// executing every complete frame in arrival order. True means the
/// connection is dead.
fn read_and_process(db: &Db, node: &NodeState, group: &GroupCommit, conn: &mut Conn) -> bool {
    loop {
        if conn.pending_out() >= ServerConfig::MAX_CONN_BUFFER {
            break;
        }
        match conn.dec.read_from(&mut conn.stream) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(_) => {
                if process_frames(db, node, group, conn) {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    process_frames(db, node, group, conn)
}

/// Drains complete frames from the decoder. True means the connection is
/// dead (untrustworthy length prefix or an unsendable response).
fn process_frames(db: &Db, node: &NodeState, group: &GroupCommit, conn: &mut Conn) -> bool {
    loop {
        match conn.dec.next_frame() {
            Ok(Some(payload)) => {
                let (id, resp) = execute(db, node, group, &payload);
                if !conn.push_response(id, &resp) {
                    return true;
                }
            }
            Ok(None) => return false,
            Err(_) => return true,
        }
    }
}

/// Decodes and executes one request frame; malformed bodies become typed
/// error responses carrying the frame's id when it was readable.
fn execute(db: &Db, node: &NodeState, group: &GroupCommit, payload: &[u8]) -> (u64, Response) {
    match decode_request_frame(payload) {
        Ok((id, req)) => {
            // Remember which table an insert lands in before the request
            // is consumed: the row count is credited to that table's
            // commit shard.
            let insert_table = match &req {
                littletable_proto::Request::Insert { table, .. } => Some(table.clone()),
                _ => None,
            };
            let resp = handle_fleet_request(db, node, req);
            if let Response::InsertResult { inserted, .. } = &resp {
                if let Some(table) = &insert_table {
                    group.note_rows(table, *inserted);
                }
            }
            (id, resp)
        }
        Err(e) => (
            request_frame_id(payload).unwrap_or(0),
            Response::Error {
                kind: ErrorKind::Internal,
                message: format!("malformed request: {e}"),
            },
        ),
    }
}
