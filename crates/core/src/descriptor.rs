//! Table descriptor files.
//!
//! Each table directory contains a `DESC` file recording the table's
//! current schema, TTL, and the list of on-disk tablets with their
//! timespans (§3.2). LittleTable rewrites the descriptor after every
//! change — flush, merge, TTL reap, schema evolution — by writing a
//! temporary file and atomically renaming it over the old one. The
//! descriptor is the *only* commitment point in the system: a tablet file
//! exists logically exactly when the descriptor lists it.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::util::{crc32, put_varint, unzigzag, zigzag, Reader};
use littletable_vfs::{join, Micros, Vfs};

/// File name of the committed descriptor within a table directory.
pub const DESC_FILE: &str = "DESC";
/// File name of the in-flight temporary descriptor.
pub const DESC_TMP: &str = "DESC.tmp";

const DESC_VERSION: u8 = 2;

/// The descriptor file: its name and magic number ("LTDE").
const DESC: DurableFile = DurableFile(DESC_FILE, 0x4C54_4445);

/// A small file a table directory replaces whole — the descriptor, a
/// rollup spec — named `.0`. Its bytes frame a body: the magic number
/// `.1`, the body's CRC32, the body. A save writes them to `<.0>.tmp`,
/// syncs it, renames it over `.0` and syncs the directory, so a crash
/// leaves the old file or the new one, and at worst a stale temporary.
pub(crate) struct DurableFile(pub(crate) &'static str, pub(crate) u32);

impl DurableFile {
    /// `body`, framed.
    pub(crate) fn frame(&self, body: &[u8]) -> Vec<u8> {
        [&self.1.to_le_bytes()[..], &crc32(body).to_le_bytes(), body].concat()
    }

    /// The body `data` frames, checked against the magic number and CRC.
    pub(crate) fn unframe<'a>(&self, data: &'a [u8]) -> Result<&'a [u8]> {
        let mut r = Reader::new(data);
        let (magic, crc) = (r.u32()?, r.u32()?);
        let body = &data[8..];
        if magic != self.1 || crc != crc32(body) {
            return Err(Error::corrupt(format!("{}: bad magic or checksum", self.0)));
        }
        Ok(body)
    }

    /// Durably replaces the file in `dir` with `data`.
    pub(crate) fn save(&self, vfs: &dyn Vfs, dir: &str, data: &[u8]) -> Result<()> {
        let tmp = join(dir, &format!("{}.tmp", self.0));
        let mut f = vfs.create(&tmp, data.len() as u64)?;
        f.append(data)?;
        f.sync()?;
        drop(f);
        vfs.rename(&tmp, &join(dir, self.0))?;
        Ok(vfs.sync_dir(dir)?)
    }

    /// The file's bytes in `dir`. With `retire`, a stale temporary a
    /// crash left is removed first; without, nothing is written.
    pub(crate) fn read(&self, vfs: &dyn Vfs, dir: &str, retire: bool) -> Result<Vec<u8>> {
        let tmp = join(dir, &format!("{}.tmp", self.0));
        if retire && vfs.exists(&tmp) && vfs.remove(&tmp).is_ok() {
            // Make the cleanup itself durable: without this, a second
            // crash can resurrect the stale tmp file and every reopen
            // repeats the removal without ever retiring it.
            let _ = vfs.sync_dir(dir);
        }
        let f = vfs.open(&join(dir, self.0))?;
        let mut data = vec![0u8; f.len()? as usize];
        f.read_exact_at(0, &mut data)?;
        Ok(data)
    }
}

/// Descriptor-level metadata for one on-disk tablet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabletMeta {
    /// Table-unique tablet id (also names the file).
    pub id: u64,
    /// Smallest row timestamp in the tablet.
    pub min_ts: Micros,
    /// Largest row timestamp in the tablet.
    pub max_ts: Micros,
    /// Row count.
    pub rows: u64,
    /// File size in bytes (compressed).
    pub bytes: u64,
    /// Clock time the tablet was written (flush or merge); the merge
    /// policy's delay is measured from here.
    pub written_at: Micros,
    /// Schema version the tablet's rows were written under.
    pub schema_version: u32,
    /// True when the tablet file lives in the cold store (§6's
    /// LHAM-inspired write-once backing store for old data) rather than
    /// the shard's local disk.
    pub cold: bool,
    /// True once the tablet's rows have been folded into every rollup
    /// table registered for this base table. On tables that feed rollups,
    /// only rolled-up tablets are merge-eligible, so a tablet's identity
    /// survives until its contribution is durably recorded.
    pub rolled_up: bool,
}

impl TabletMeta {
    /// File name of this tablet within its table directory.
    pub fn file_name(&self) -> String {
        tablet_file_name(self.id)
    }
}

/// File name for a tablet id.
pub fn tablet_file_name(id: u64) -> String {
    format!("tab-{id:016x}.lt")
}

/// Parses a tablet file name back to its id.
pub fn parse_tablet_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("tab-")?.strip_suffix(".lt")?;
    u64::from_str_radix(hex, 16).ok()
}

/// The durable state of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDescriptor {
    /// Current (newest) schema.
    pub schema: Schema,
    /// Row time-to-live; `None` keeps rows until disk runs out.
    pub ttl: Option<Micros>,
    /// Next tablet id to allocate.
    pub next_tablet_id: u64,
    /// On-disk tablets, ordered by ascending `min_ts` (ties by id).
    pub tablets: Vec<TabletMeta>,
}

impl TableDescriptor {
    /// A fresh descriptor for a new table.
    pub fn new(schema: Schema, ttl: Option<Micros>) -> Self {
        TableDescriptor {
            schema,
            ttl,
            next_tablet_id: 1,
            tablets: Vec::new(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.push(DESC_VERSION);
        self.schema.encode(&mut body);
        match self.ttl {
            Some(t) => {
                body.push(1);
                put_varint(&mut body, zigzag(t));
            }
            None => body.push(0),
        }
        put_varint(&mut body, self.next_tablet_id);
        put_varint(&mut body, self.tablets.len() as u64);
        for t in &self.tablets {
            put_varint(&mut body, t.id);
            put_varint(&mut body, zigzag(t.min_ts));
            put_varint(&mut body, zigzag(t.max_ts));
            put_varint(&mut body, t.rows);
            put_varint(&mut body, t.bytes);
            put_varint(&mut body, zigzag(t.written_at));
            put_varint(&mut body, t.schema_version as u64);
            put_varint(&mut body, t.cold as u64);
            put_varint(&mut body, t.rolled_up as u64);
        }
        DESC.frame(&body)
    }

    fn decode(data: &[u8]) -> Result<TableDescriptor> {
        let mut r = Reader::new(DESC.unframe(data)?);
        let ver = r.u8()?;
        if ver == 0 || ver > DESC_VERSION {
            return Err(Error::corrupt(format!("unknown descriptor version {ver}")));
        }
        let schema = Schema::decode(&mut r)?;
        let ttl = match r.u8()? {
            0 => None,
            1 => Some(unzigzag(r.varint()?)),
            t => return Err(Error::corrupt(format!("bad ttl tag {t}"))),
        };
        let next_tablet_id = r.varint()?;
        let n = r.varint()? as usize;
        let mut tablets = Vec::with_capacity(n.min(r.remaining()).min(1 << 20));
        for _ in 0..n {
            tablets.push(TabletMeta {
                id: r.varint()?,
                min_ts: unzigzag(r.varint()?),
                max_ts: unzigzag(r.varint()?),
                rows: r.varint()?,
                bytes: r.varint()?,
                written_at: unzigzag(r.varint()?),
                schema_version: r.varint_u32("schema version")?,
                cold: r.varint()? != 0,
                // v1 descriptors predate rollups; nothing was folded.
                rolled_up: ver >= 2 && r.varint()? != 0,
            });
        }
        if !r.is_empty() {
            return Err(Error::corrupt("trailing bytes after descriptor"));
        }
        Ok(TableDescriptor {
            schema,
            ttl,
            next_tablet_id,
            tablets,
        })
    }

    /// Durably replaces the descriptor in `dir`: write `DESC.tmp`, sync,
    /// rename over `DESC`, sync the directory.
    pub fn save(&self, vfs: &dyn Vfs, dir: &str) -> Result<()> {
        DESC.save(vfs, dir, &self.encode())
    }

    /// Loads the descriptor from `dir`, cleaning up a stale `DESC.tmp`.
    pub fn load(vfs: &dyn Vfs, dir: &str) -> Result<TableDescriptor> {
        Self::decode(&DESC.read(vfs, dir, true)?)
    }

    /// Reads and decodes the descriptor in `dir` without side effects:
    /// unlike [`TableDescriptor::load`] no stale `DESC.tmp` is cleaned
    /// up, so this is safe to run against a *live* database directory
    /// (the archiver inspects the primary's descriptor while the primary
    /// may be mid-`save`).
    pub fn peek(vfs: &dyn Vfs, dir: &str) -> Result<TableDescriptor> {
        Self::decode(&DESC.read(vfs, dir, false)?)
    }

    /// The largest row timestamp recorded across all tablets, if any.
    pub fn max_ts(&self) -> Option<Micros> {
        self.tablets.iter().map(|t| t.max_ts).max()
    }

    /// Sorts tablets by ascending timespan lower bound (ties by id), the
    /// order the merge policy operates in.
    pub fn sort_tablets(&mut self) {
        self.tablets.sort_by_key(|t| (t.min_ts, t.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;
    use littletable_vfs::SimVfs;

    fn schema() -> Schema {
        Schema::new(
            vec![
                ColumnDef::new("n", ColumnType::I64),
                ColumnDef::new("ts", ColumnType::Timestamp),
            ],
            &["n", "ts"],
        )
        .unwrap()
    }

    fn sample() -> TableDescriptor {
        let mut d = TableDescriptor::new(schema(), Some(3_600_000_000));
        d.next_tablet_id = 3;
        d.tablets = vec![
            TabletMeta {
                id: 1,
                min_ts: 100,
                max_ts: 200,
                rows: 10,
                bytes: 1000,
                written_at: 250,
                schema_version: 1,
                cold: false,
                rolled_up: false,
            },
            TabletMeta {
                id: 2,
                min_ts: 200,
                max_ts: 300,
                rows: 20,
                bytes: 2000,
                written_at: 350,
                schema_version: 1,
                cold: true,
                rolled_up: true,
            },
        ];
        d
    }

    #[test]
    fn encode_decode_round_trips() {
        let d = sample();
        let back = TableDescriptor::decode(&d.encode()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn save_load_round_trips() {
        let vfs = SimVfs::instant();
        vfs.mkdir_all("t").unwrap();
        let d = sample();
        d.save(&vfs, "t").unwrap();
        assert!(!vfs.exists("t/DESC.tmp"));
        let back = TableDescriptor::load(&vfs, "t").unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn save_survives_crash_after_sync() {
        let vfs = SimVfs::instant();
        vfs.mkdir_all("t").unwrap();
        vfs.sync_dir("").unwrap();
        let d = sample();
        d.save(&vfs, "t").unwrap();
        vfs.crash();
        let back = TableDescriptor::load(&vfs, "t").unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn replacement_is_atomic_under_crash() {
        let vfs = SimVfs::instant();
        vfs.mkdir_all("t").unwrap();
        vfs.sync_dir("").unwrap();
        let d1 = sample();
        d1.save(&vfs, "t").unwrap();
        // Second save whose rename is not yet synced: simulate by writing
        // tmp then crashing before rename.
        let mut d2 = d1.clone();
        d2.next_tablet_id = 99;
        let data = d2.encode();
        let mut f = vfs.create("t/DESC.tmp", 0).unwrap();
        f.append(&data).unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.crash();
        // The old committed descriptor must still load.
        let back = TableDescriptor::load(&vfs, "t").unwrap();
        assert_eq!(back, d1);
    }

    #[test]
    fn v1_descriptors_still_decode() {
        // Hand-roll a version-1 body (no rolled_up varint per tablet) and
        // check it decodes with rolled_up defaulting to false.
        let d = sample();
        let mut body = Vec::new();
        body.push(1u8);
        d.schema.encode(&mut body);
        body.push(1);
        put_varint(&mut body, zigzag(d.ttl.unwrap()));
        put_varint(&mut body, d.next_tablet_id);
        put_varint(&mut body, d.tablets.len() as u64);
        for t in &d.tablets {
            put_varint(&mut body, t.id);
            put_varint(&mut body, zigzag(t.min_ts));
            put_varint(&mut body, zigzag(t.max_ts));
            put_varint(&mut body, t.rows);
            put_varint(&mut body, t.bytes);
            put_varint(&mut body, zigzag(t.written_at));
            put_varint(&mut body, t.schema_version as u64);
            put_varint(&mut body, t.cold as u64);
        }
        let back = TableDescriptor::decode(&DESC.frame(&body)).unwrap();
        assert!(back.tablets.iter().all(|t| !t.rolled_up));
        assert_eq!(back.next_tablet_id, d.next_tablet_id);
        assert_eq!(back.tablets.len(), d.tablets.len());
    }

    #[test]
    fn a_huge_tablet_count_over_a_few_bytes_is_corrupt() {
        let mut body = DESC
            .unframe(&TableDescriptor::new(schema(), None).encode())
            .unwrap()
            .to_vec();
        assert_eq!(body.pop(), Some(0), "the tablet count ends the body");
        put_varint(&mut body, u64::MAX >> 1);
        body.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            TableDescriptor::decode(&DESC.frame(&body)),
            Err(Error::Corrupt(_))
        ));
    }

    /// Every truncation and bit flip of a body whose frame is rebuilt
    /// around it, so the decoder parses the damage instead of refusing
    /// the checksum.
    #[test]
    fn truncated_or_flipped_bodies_decode_or_fail_without_panicking() {
        let body = DESC.unframe(&sample().encode()).unwrap().to_vec();
        for cut in 0..body.len() {
            assert!(
                TableDescriptor::decode(&DESC.frame(&body[..cut])).is_err(),
                "cut at {cut}"
            );
        }
        let mut flipped = body.clone();
        for bit in 0..body.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = TableDescriptor::decode(&DESC.frame(&flipped));
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // A schema version past u32 is corruption, not a truncation.
        let mut d = sample();
        d.tablets.truncate(1);
        let mut body = DESC.unframe(&d.encode()).unwrap().to_vec();
        let at = body.len() - 3;
        assert_eq!(body[at..], [1, 0, 0], "schema version, cold, rolled up");
        body.splice(at..at + 1, [0x80, 0x80, 0x80, 0x80, 0x10]);
        assert!(matches!(
            TableDescriptor::decode(&DESC.frame(&body)),
            Err(Error::Corrupt(msg)) if msg.contains("schema version")
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let d = sample();
        let mut data = d.encode();
        data[10] ^= 0x40;
        assert!(TableDescriptor::decode(&data).is_err());
        assert!(TableDescriptor::decode(&data[..5]).is_err());
    }

    #[test]
    fn tablet_file_names_round_trip() {
        assert_eq!(parse_tablet_file_name(&tablet_file_name(42)), Some(42));
        assert_eq!(parse_tablet_file_name("nope"), None);
        assert_eq!(parse_tablet_file_name("tab-zz.lt"), None);
    }

    #[test]
    fn max_ts_and_sorting() {
        let mut d = sample();
        assert_eq!(d.max_ts(), Some(300));
        d.tablets.reverse();
        d.sort_tablets();
        assert_eq!(d.tablets[0].id, 1);
        assert_eq!(TableDescriptor::new(schema(), None).max_ts(), None);
    }
}
