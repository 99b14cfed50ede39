//! The one table every workload uses, and its rows as a pure function
//! of `(seed, device, tick)` so that any result can be recomputed.

use littletable_core::schema::{ColumnDef, Schema};
use littletable_core::value::{ColumnType, Value};
use littletable_vfs::Micros;

pub const TABLE: &str = "usage";
pub const SECOND: Micros = 1_000_000;
pub const MINUTE: Micros = 60 * SECOND;
pub const HOUR: Micros = 60 * MINUTE;

/// Every virtual clock starts here: 2023-11-15 00:00:00 UTC, a
/// Wednesday, so that day and week period boundaries fall at the same
/// offsets in every run.
pub const T0: Micros = 1_700_006_400 * SECOND;

pub const DEVICES_PER_NETWORK: i64 = 4;

/// Column positions in [`schema`].
pub const COL_DEVICE: usize = 1;
pub const COL_TS: usize = 2;
pub const COL_RSSI: usize = 6;

/// One column per codec family: delta-of-delta (`ts`), zigzag-delta
/// (`up`, a noisy counter), near-random integers (`down`), small
/// integers (`clients`), XOR floats (`rssi`), dictionary/RLE (`tag`).
pub fn schema() -> Schema {
    Schema::new(
        vec![
            ColumnDef::new("network", ColumnType::I64),
            ColumnDef::new("device", ColumnType::I64),
            ColumnDef::new("ts", ColumnType::Timestamp),
            ColumnDef::new("up", ColumnType::I64),
            ColumnDef::new("down", ColumnType::I64),
            ColumnDef::new("clients", ColumnType::I64),
            ColumnDef::new("rssi", ColumnType::F64),
            ColumnDef::new("tag", ColumnType::Str),
        ],
        &["network", "device", "ts"],
    )
    .expect("the usage schema is valid")
}

const TAGS: [&str; 8] = [
    "ap-indoor",
    "ap-outdoor",
    "switch",
    "camera",
    "gateway",
    "sensor",
    "phone",
    "z-wave",
];

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded generator for the op streams (the data itself never uses
/// one: rows are hashed from their coordinates).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix(seed))
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The non-key cells of one row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cells {
    pub up: i64,
    pub down: i64,
    pub clients: i64,
    pub rssi: f64,
}

/// Where a workload's rows live: `devices` series, one row per device
/// per `step` starting at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    pub seed: u64,
    pub devices: i64,
    pub start: Micros,
    pub step: Micros,
}

impl Grid {
    pub fn ts(&self, tick: i64) -> Micros {
        self.start + tick * self.step
    }

    pub fn network(device: i64) -> i64 {
        device / DEVICES_PER_NETWORK
    }

    pub fn networks(&self) -> i64 {
        self.devices / DEVICES_PER_NETWORK
    }

    pub fn cells(&self, device: i64, tick: i64) -> Cells {
        let h = splitmix(self.seed ^ splitmix((device as u64) << 32 ^ tick as u64));
        Cells {
            up: tick * 1000 + (h & 0x3FF) as i64,
            down: ((h >> 10) & 0x3F_FFFF) as i64,
            clients: ((h >> 32) % 64) as i64,
            rssi: -30.0 - ((h >> 40) % 600) as f64 / 10.0,
        }
    }

    pub fn tag(device: i64) -> &'static str {
        TAGS[(device % 8) as usize]
    }

    pub fn row(&self, device: i64, tick: i64) -> Vec<Value> {
        let c = self.cells(device, tick);
        vec![
            Value::I64(Grid::network(device)),
            Value::I64(device),
            Value::Timestamp(self.ts(tick)),
            Value::I64(c.up),
            Value::I64(c.down),
            Value::I64(c.clients),
            Value::F64(c.rssi),
            Value::Str(Grid::tag(device).to_string()),
        ]
    }

    /// The payload a user hands over for one row: seven 8-byte cells
    /// and the tag's bytes.
    pub fn user_bytes(device: i64) -> u64 {
        56 + Grid::tag(device).len() as u64
    }

    /// User bytes of one tick of `count` consecutive devices from
    /// `first`.
    pub fn user_bytes_of(first: i64, count: i64) -> u64 {
        (first..first + count).map(Grid::user_bytes).sum()
    }

    /// Ticks `k` with `lo <= ts(k) <= hi`, clipped to `[0, ticks)`, as a
    /// half-open range.
    pub fn ticks_in(&self, lo: Micros, hi: Micros, ticks: i64) -> (i64, i64) {
        let first = (lo - self.start + self.step - 1)
            .div_euclid(self.step)
            .max(0);
        let last = (hi - self.start).div_euclid(self.step).min(ticks - 1);
        (first, (last + 1).max(first))
    }

    /// Whether `row` is exactly what the generator makes for its key.
    pub fn row_matches(&self, row: &[Value]) -> bool {
        let (Some(Value::I64(device)), Some(Value::Timestamp(ts))) =
            (row.get(COL_DEVICE), row.get(COL_TS))
        else {
            return false;
        };
        let off = ts - self.start;
        off >= 0 && off % self.step == 0 && row == self.row(*device, off / self.step).as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_a_pure_function_of_their_coordinates() {
        let g = Grid {
            seed: 7,
            devices: 16,
            start: T0,
            step: MINUTE,
        };
        assert_eq!(g.row(3, 10), g.row(3, 10));
        assert_ne!(g.cells(3, 10), g.cells(3, 11));
        assert_ne!(g.cells(3, 10), Grid { seed: 8, ..g }.cells(3, 10));
        assert!(g.row_matches(&g.row(5, 99)));
        schema().check_row(g.row(0, 0)).unwrap();
    }

    #[test]
    fn ticks_in_clips_to_history() {
        let g = Grid {
            seed: 1,
            devices: 8,
            start: T0,
            step: MINUTE,
        };
        assert_eq!(g.ticks_in(T0 - HOUR, T0 + 2 * MINUTE, 100), (0, 3));
        assert_eq!(g.ticks_in(T0 + 1, T0 + 24 * HOUR, 10), (1, 10));
        assert_eq!(g.ticks_in(T0 + 24 * HOUR, T0 + 48 * HOUR, 10), (1440, 1440));
    }
}
