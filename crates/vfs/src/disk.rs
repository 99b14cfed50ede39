//! A virtual-time model of a spinning disk.
//!
//! The paper's microbenchmarks (Figures 2–6) are experiments in disk physics:
//! seek latency versus sequential throughput, OS readahead, and the drive's
//! internal cache. Modern flash hardware cannot exhibit their shapes, so the
//! benchmark harness runs the *real engine* against [`crate::SimVfs`], which
//! charges every I/O to this model and accumulates *virtual* elapsed time on
//! a [`SimClock`].
//!
//! The model is deliberately simple but captures the effects the paper
//! depends on:
//!
//! * every discontiguous access pays one average **seek** (seek + rotational
//!   latency, 8 ms on the paper's WD2000FYYZ drives);
//! * contiguous transfers proceed at the **sequential rate** (120 MB/s);
//! * a read at a new position transfers a full **OS readahead** window
//!   (128 kB by default), and subsequent reads inside that window are free;
//! * after each transfer the drive opportunistically caches a further
//!   **drive readahead** window for free, standing in for the 64 MB on-drive
//!   cache the paper credits for its higher-than-predicted floor in Fig. 5;
//! * opening a file charges one seek for the inode read, so reading a cold
//!   tablet footer costs the three seeks described in §3.5 of the paper
//!   (inode, trailer, footer).

use crate::clock::SimClock;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Physical parameters of the modelled disk.
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Average seek plus rotational latency charged per discontiguous access.
    pub seek_micros: i64,
    /// Sequential read throughput in bytes per second.
    pub read_bytes_per_sec: u64,
    /// Sequential write throughput in bytes per second.
    pub write_bytes_per_sec: u64,
    /// OS readahead window: the minimum transfer for a read at a new position.
    pub os_readahead: u64,
    /// Bytes the drive caches for free after each charged transfer, modelling
    /// the drive's internal cache acting as additional readahead.
    pub drive_readahead: u64,
    /// Whether opening a file charges one seek (the inode read).
    pub charge_open_seek: bool,
}

impl DiskParams {
    /// The paper's experimental disk: a 7,200 RPM SATA drive with ~8 ms
    /// combined seek and rotational latency and ~120 MB/s sequential
    /// throughput, under the Linux default 128 kB readahead.
    pub fn paper_disk() -> Self {
        DiskParams {
            seek_micros: 8_000,
            read_bytes_per_sec: 120_000_000,
            write_bytes_per_sec: 120_000_000,
            os_readahead: 128 * 1024,
            drive_readahead: 128 * 1024,
            charge_open_seek: true,
        }
    }

    /// A free disk: every operation costs zero virtual time. Useful for unit
    /// tests that only care about engine behaviour.
    pub fn instant() -> Self {
        DiskParams {
            seek_micros: 0,
            read_bytes_per_sec: u64::MAX,
            write_bytes_per_sec: u64::MAX,
            os_readahead: 0,
            drive_readahead: 0,
            charge_open_seek: false,
        }
    }

    /// Returns a copy with a different OS readahead, as set via
    /// `blockdev --setra` in the paper's Figure 5 experiment.
    pub fn with_os_readahead(mut self, bytes: u64) -> Self {
        self.os_readahead = bytes;
        self
    }

    fn read_micros(&self, bytes: u64) -> i64 {
        transfer_micros(bytes, self.read_bytes_per_sec)
    }

    fn write_micros(&self, bytes: u64) -> i64 {
        transfer_micros(bytes, self.write_bytes_per_sec)
    }
}

fn transfer_micros(bytes: u64, rate: u64) -> i64 {
    if rate == u64::MAX || rate == 0 {
        return 0;
    }
    // bytes / rate seconds, in micros, rounded up.
    (bytes as u128 * 1_000_000).div_ceil(rate as u128) as i64
}

/// Counters describing everything the model has charged so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of seeks charged.
    pub seeks: u64,
    /// Bytes actually transferred from the platters (including readahead).
    pub bytes_read: u64,
    /// Bytes written to the platters.
    pub bytes_written: u64,
    /// Total virtual time charged, in micros.
    pub busy_micros: i64,
}

/// Identifies a file's extent in the model's linear block-address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtentId(pub u64);

#[derive(Debug, Clone, Copy)]
struct Window {
    /// Cached byte range within the file, [start, end).
    start: u64,
    end: u64,
}

#[derive(Debug)]
struct ModelState {
    /// Position of the head in the linear address space. Starts parked
    /// somewhere discontiguous with every extent.
    head: u64,
    /// Next free address for extent allocation.
    next_alloc: u64,
    /// Per-extent base address.
    base: HashMap<ExtentId, u64>,
    /// Per-extent cached (readahead) window, in file offsets.
    window: HashMap<ExtentId, Window>,
    /// Extents whose inode has been read since the last cache clear.
    inode_hot: HashMap<ExtentId, ()>,
    next_extent: u64,
    stats: DiskStats,
}

impl Default for ModelState {
    fn default() -> Self {
        ModelState {
            head: u64::MAX,
            next_alloc: 0,
            base: HashMap::new(),
            window: HashMap::new(),
            inode_hot: HashMap::new(),
            next_extent: 0,
            stats: DiskStats::default(),
        }
    }
}

/// The disk model proper. Shared by every file of a [`crate::SimVfs`].
///
/// All methods take `&self`; the model is internally synchronized, mirroring
/// a single spindle serving concurrent requests in arrival order.
#[derive(Clone)]
pub struct DiskModel {
    params: DiskParams,
    clock: SimClock,
    state: Arc<Mutex<ModelState>>,
}

impl DiskModel {
    /// Creates a model that advances `clock` as it charges I/O time.
    pub fn new(params: DiskParams, clock: SimClock) -> Self {
        DiskModel {
            params,
            clock,
            state: Arc::new(Mutex::new(ModelState::default())),
        }
    }

    /// The parameters this model was built with.
    pub fn params(&self) -> DiskParams {
        self.params
    }

    /// The clock this model advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> DiskStats {
        self.state.lock().stats
    }

    /// Total virtual time charged so far, in micros.
    pub fn busy_micros(&self) -> i64 {
        self.state.lock().stats.busy_micros
    }

    /// Allocates a new extent (one file). Extents are laid out contiguously
    /// in allocation order, mirroring ext4 storing each ≤1 GB tablet in a
    /// single extent.
    pub fn alloc_extent(&self, size_hint: u64) -> ExtentId {
        let mut s = self.state.lock();
        let id = ExtentId(s.next_extent);
        s.next_extent += 1;
        let base = s.next_alloc;
        s.base.insert(id, base);
        s.next_alloc = base + size_hint.max(1);
        id
    }

    /// Grows an extent's reserved address range; called as files are appended
    /// past their hint. Growth is contiguous only if nothing was allocated
    /// after it; otherwise the tail lands elsewhere, which is fine for a
    /// model of this resolution — tablets are written once, sequentially.
    pub fn grow_extent(&self, id: ExtentId, new_size: u64) {
        let mut s = self.state.lock();
        let base = *s.base.get(&id).expect("unknown extent");
        if base + new_size > s.next_alloc {
            s.next_alloc = base + new_size;
        }
    }

    /// Releases an extent's model state (file deleted).
    pub fn free_extent(&self, id: ExtentId) {
        let mut s = self.state.lock();
        s.base.remove(&id);
        s.window.remove(&id);
        s.inode_hot.remove(&id);
    }

    /// Charges the inode read for opening a file, once per file per
    /// cache-clear epoch.
    pub fn charge_open(&self, id: ExtentId) {
        if !self.params.charge_open_seek {
            return;
        }
        let mut s = self.state.lock();
        if s.inode_hot.insert(id, ()).is_none() {
            let micros = self.params.seek_micros;
            s.stats.seeks += 1;
            s.stats.busy_micros += micros;
            drop(s);
            self.clock.advance(micros);
        }
    }

    /// Charges a read of `[off, off + len)` from `id`, whose file currently
    /// holds `file_len` bytes. Returns the virtual micros charged.
    pub fn charge_read(&self, id: ExtentId, off: u64, len: u64, file_len: u64) -> i64 {
        if len == 0 {
            return 0;
        }
        let mut s = self.state.lock();
        let Some(&base) = s.base.get(&id) else {
            // The extent was freed while a reader still holds the file
            // open (POSIX unlink-while-open): the bytes remain readable
            // through the handle, but the head/window model no longer
            // tracks the extent. Charge a plain uncached transfer.
            let micros = self.params.seek_micros + self.params.read_micros(len);
            s.stats.seeks += 1;
            s.stats.bytes_read += len;
            s.stats.busy_micros += micros;
            drop(s);
            self.clock.advance(micros);
            return micros;
        };
        let win = s.window.get(&id).copied();
        // The uncovered part of the request. Windows only ever extend
        // forward, so a request overlapping the window's tail is uncovered
        // from the window end onwards.
        let (need_start, need_end) = match win {
            Some(w) if off >= w.start && off + len <= w.end => {
                s.stats.busy_micros += 0;
                return 0; // fully cached
            }
            Some(w) if off >= w.start && off < w.end => (w.end, off + len),
            _ => (off, off + len),
        };
        let mut micros = 0i64;
        if s.head != base + need_start {
            micros += self.params.seek_micros;
            s.stats.seeks += 1;
        }
        // Transfer at least the OS readahead window plus the drive's own
        // opportunistic readahead, capped at EOF. Charging the drive
        // readahead as real transfer time reproduces the throughput floors
        // the paper attributes to the drive's internal cache (Fig. 5).
        let min_xfer =
            (need_end - need_start).max(self.params.os_readahead) + self.params.drive_readahead;
        let xfer_end = (need_start + min_xfer).min(file_len.max(need_end));
        let xfer = xfer_end - need_start;
        micros += self.params.read_micros(xfer);
        s.stats.bytes_read += xfer;
        let new_window = match win {
            // Extend a window we grew off the end of; otherwise replace.
            Some(w) if need_start == w.end => Window {
                start: w.start,
                end: xfer_end,
            },
            _ => Window {
                start: off.min(need_start),
                end: xfer_end,
            },
        };
        s.window.insert(id, new_window);
        s.head = base + xfer_end;
        s.stats.busy_micros += micros;
        drop(s);
        self.clock.advance(micros);
        micros
    }

    /// Charges an append of `len` bytes at offset `off` of `id`.
    pub fn charge_write(&self, id: ExtentId, off: u64, len: u64) -> i64 {
        if len == 0 {
            return 0;
        }
        let mut s = self.state.lock();
        let Some(&base) = s.base.get(&id) else {
            // See charge_read: writes through a handle to an unlinked
            // file still cost transfer time even though the extent is
            // gone from the platter model.
            let micros = self.params.seek_micros + self.params.write_micros(len);
            s.stats.seeks += 1;
            s.stats.bytes_written += len;
            s.stats.busy_micros += micros;
            drop(s);
            self.clock.advance(micros);
            return micros;
        };
        let mut micros = 0i64;
        if s.head != base + off {
            micros += self.params.seek_micros;
            s.stats.seeks += 1;
        }
        micros += self.params.write_micros(len);
        s.stats.bytes_written += len;
        s.head = base + off + len;
        s.stats.busy_micros += micros;
        drop(s);
        self.clock.advance(micros);
        micros
    }

    /// Drops all cached state: readahead windows, drive cache, and hot
    /// inodes, and moves the head to an arbitrary position. Mirrors the
    /// paper's procedure of clearing the page cache and the drive's internal
    /// cache before each benchmark run.
    pub fn clear_caches(&self) {
        let mut s = self.state.lock();
        s.window.clear();
        s.inode_hot.clear();
        s.head = u64::MAX; // guaranteed discontiguous with any extent
    }
}

impl std::fmt::Debug for DiskModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskModel")
            .field("params", &self.params)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock as _;

    fn model() -> DiskModel {
        DiskModel::new(DiskParams::paper_disk(), SimClock::new(0))
    }

    #[test]
    fn sequential_read_pays_one_seek() {
        let m = model();
        let f = m.alloc_extent(10 << 20);
        m.grow_extent(f, 10 << 20);
        let mut total = 0;
        for i in 0..100u64 {
            total += m.charge_read(f, i * 64 * 1024, 64 * 1024, 10 << 20);
        }
        assert_eq!(m.stats().seeks, 1);
        // One seek (8 ms) plus 100 * 64 kB at 120 MB/s ≈ 54.6 ms.
        assert!((54_000..70_000).contains(&total), "total = {total}");
    }

    #[test]
    fn random_reads_pay_seek_each() {
        let m = model();
        let f = m.alloc_extent(100 << 20);
        m.grow_extent(f, 100 << 20);
        // Far-apart offsets, each outside any prior readahead window.
        for i in 0..10u64 {
            m.charge_read(f, i * (10 << 20), 4096, 100 << 20);
        }
        assert_eq!(m.stats().seeks, 10);
    }

    #[test]
    fn read_within_readahead_is_free() {
        let m = model();
        let f = m.alloc_extent(1 << 20);
        m.grow_extent(f, 1 << 20);
        let first = m.charge_read(f, 0, 4096, 1 << 20);
        assert!(first > 8_000);
        // Next 4 kB falls inside the 128 kB readahead window.
        let second = m.charge_read(f, 4096, 4096, 1 << 20);
        assert_eq!(second, 0);
    }

    #[test]
    fn interleaved_files_keep_their_windows() {
        let m = model();
        let a = m.alloc_extent(1 << 20);
        let b = m.alloc_extent(1 << 20);
        m.grow_extent(a, 1 << 20);
        m.grow_extent(b, 1 << 20);
        m.charge_read(a, 0, 65536, 1 << 20);
        m.charge_read(b, 0, 65536, 1 << 20);
        // Both second blocks are inside each file's cached window
        // (128 kB OS readahead + 128 kB drive readahead).
        assert_eq!(m.charge_read(a, 65536, 65536, 1 << 20), 0);
        assert_eq!(m.charge_read(b, 65536, 65536, 1 << 20), 0);
    }

    #[test]
    fn open_charges_inode_seek_once() {
        let m = model();
        let f = m.alloc_extent(1024);
        m.charge_open(f);
        m.charge_open(f);
        assert_eq!(m.stats().seeks, 1);
        m.clear_caches();
        m.charge_open(f);
        assert_eq!(m.stats().seeks, 2);
    }

    #[test]
    fn cold_footer_read_is_three_seeks() {
        // Mirrors §3.5: inode, trailer at EOF, footer body.
        let m = model();
        let len = 16u64 << 20;
        let f = m.alloc_extent(len);
        m.grow_extent(f, len);
        m.charge_open(f); // inode
        m.charge_read(f, len - 16, 16, len); // trailer
        m.charge_read(f, len - 100_000, 90_000, len); // footer body
        assert_eq!(m.stats().seeks, 3);
    }

    #[test]
    fn sequential_write_throughput() {
        let m = model();
        let f = m.alloc_extent(16 << 20);
        let mut micros = 0;
        for i in 0..256u64 {
            micros += m.charge_write(f, i * 65536, 65536);
        }
        assert_eq!(m.stats().seeks, 1);
        // 16 MB at 120 MB/s ≈ 140 ms.
        assert!((139_000..150_000).contains(&micros), "micros = {micros}");
    }

    #[test]
    fn instant_params_charge_nothing() {
        let m = DiskModel::new(DiskParams::instant(), SimClock::new(0));
        let f = m.alloc_extent(1024);
        m.charge_open(f);
        m.charge_write(f, 0, 1024);
        m.charge_read(f, 0, 1024, 1024);
        assert_eq!(m.busy_micros(), 0);
        assert_eq!(m.clock().now_micros(), 0);
    }

    #[test]
    fn clock_tracks_busy_time() {
        let m = model();
        let f = m.alloc_extent(1 << 20);
        m.grow_extent(f, 1 << 20);
        m.charge_read(f, 0, 4096, 1 << 20);
        assert_eq!(m.clock().now_micros(), m.busy_micros());
    }
}
