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
use crate::rollup::RollupSpec;
use crate::schema::Schema;
use crate::util::{crc32, put_string, put_varint, unzigzag, zigzag, Reader};
use littletable_vfs::{join, Micros, Vfs};
use std::sync::Arc;

/// File name of the committed descriptor within a table directory.
pub const DESC_FILE: &str = "DESC";
/// File name of the in-flight temporary descriptor.
pub const DESC_TMP: &str = "DESC.tmp";

/// v3 adds the rollup section; v2 the `rolled_up` mark of each tablet.
const DESC_VERSION: u8 = 3;

/// The descriptor file, and its magic number ("LTDE").
const DESC: DescFile = DescFile;
const MAGIC: u32 = 0x4C54_4445;

/// The descriptor's file format. Its bytes frame a body: the magic
/// number, the body's CRC32, the body. A save writes them to
/// `DESC.tmp`, syncs it, renames it over `DESC` and syncs the directory,
/// so a crash leaves the old file or the new one, and at worst a stale
/// temporary.
struct DescFile;

impl DescFile {
    /// `body`, framed.
    fn frame(&self, body: &[u8]) -> Vec<u8> {
        [&MAGIC.to_le_bytes()[..], &crc32(body).to_le_bytes(), body].concat()
    }

    /// The body `data` frames, checked against the magic number and CRC.
    fn unframe<'a>(&self, data: &'a [u8]) -> Result<&'a [u8]> {
        let mut r = Reader::new(data);
        let (magic, crc) = (r.u32()?, r.u32()?);
        let body = &data[8..];
        if magic != MAGIC || crc != crc32(body) {
            return Err(Error::corrupt("DESC: bad magic or checksum"));
        }
        Ok(body)
    }

    /// Durably replaces the descriptor in `dir` with `data`.
    fn save(&self, vfs: &dyn Vfs, dir: &str, data: &[u8]) -> Result<()> {
        let tmp = join(dir, DESC_TMP);
        let mut f = vfs.create(&tmp, data.len() as u64)?;
        f.append(data)?;
        f.sync()?;
        drop(f);
        vfs.rename(&tmp, &join(dir, DESC_FILE))?;
        Ok(vfs.sync_dir(dir)?)
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
    /// A rollup table's definition; `None` for any other table. Its
    /// `name` is not saved: a table's directory is named after it.
    pub rollup: Option<Arc<RollupSpec>>,
    /// Whether the rollup's `CREATE ROLLUP` finished, which its last save
    /// records: `Db::open` removes a rollup without it.
    pub attached: bool,
}

impl TableDescriptor {
    /// A fresh descriptor for a new table.
    pub fn new(schema: Schema, ttl: Option<Micros>) -> Self {
        TableDescriptor {
            schema,
            ttl,
            next_tablet_id: 1,
            tablets: Vec::new(),
            rollup: None,
            attached: false,
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
        // The rollup section: 0 for a base table, else 1 + the attached
        // mark, then the spec but its name.
        match &self.rollup {
            None => body.push(0),
            Some(spec) => {
                body.push(1 + self.attached as u8);
                put_string(&mut body, &spec.base);
                put_varint(&mut body, spec.period as u64);
                for cols in [&spec.value_cols, &spec.distinct_cols] {
                    put_varint(&mut body, cols.len() as u64);
                    cols.iter().for_each(|c| put_string(&mut body, c));
                }
            }
        }
        put_varint(&mut body, self.tablets.len() as u64);
        for t in &self.tablets {
            put_varint(&mut body, t.id);
            put_varint(&mut body, zigzag(t.min_ts));
            put_varint(&mut body, zigzag(t.max_ts));
            put_varint(&mut body, t.rows);
            put_varint(&mut body, t.bytes);
            put_varint(&mut body, zigzag(t.written_at));
            put_varint(&mut body, t.schema_version as u64);
            // The retired cold-store flag: every tablet is in the one store.
            put_varint(&mut body, 0);
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
        // v2 and older descriptors predate the rollup section: a rollup
        // table of theirs also has a `ROLLUP` file, which `Db::open` refuses.
        let (rollup, attached) = match if ver >= 3 { r.u8()? } else { 0 } {
            0 => (None, false),
            tag @ (1 | 2) => (Some(Arc::new(decode_rollup(&mut r)?)), tag == 2),
            t => return Err(Error::corrupt(format!("bad rollup tag {t}"))),
        };
        let n = r.varint()? as usize;
        let mut tablets = Vec::with_capacity(n.min(r.remaining()).min(1 << 20));
        for _ in 0..n {
            let id = r.varint()?;
            let mut meta = TabletMeta {
                id,
                min_ts: unzigzag(r.varint()?),
                max_ts: unzigzag(r.varint()?),
                rows: r.varint()?,
                bytes: r.varint()?,
                written_at: unzigzag(r.varint()?),
                schema_version: r.varint_u32("schema version")?,
                rolled_up: false,
            };
            // A tablet an older engine moved to its cold store is not in
            // this one. Refused here, before an open sweeps or quarantines
            // anything: read as local, its missing file would be set aside
            // and the tablet dropped from the descriptor for good.
            if r.varint()? != 0 {
                return Err(Error::corrupt(format!(
                    "tablet {id} is in a cold store, which this engine does not have"
                )));
            }
            // v1 descriptors predate rollups; nothing was folded.
            meta.rolled_up = ver >= 2 && r.varint()? != 0;
            tablets.push(meta);
        }
        if !r.is_empty() {
            return Err(Error::corrupt("trailing bytes after descriptor"));
        }
        Ok(TableDescriptor {
            schema,
            ttl,
            next_tablet_id,
            tablets,
            rollup,
            attached,
        })
    }

    /// Durably replaces the descriptor in `dir`: write `DESC.tmp`, sync,
    /// rename over `DESC`, sync the directory.
    pub fn save(&self, vfs: &dyn Vfs, dir: &str) -> Result<()> {
        DESC.save(vfs, dir, &self.encode())
    }

    /// Loads the descriptor from `dir`, cleaning up a stale `DESC.tmp`.
    pub fn load(vfs: &dyn Vfs, dir: &str) -> Result<TableDescriptor> {
        Self::read(vfs, dir, true)
    }

    /// Reads and decodes the descriptor in `dir` without side effects:
    /// unlike [`TableDescriptor::load`] no stale `DESC.tmp` is cleaned
    /// up, so this is safe to run against a *live* database directory
    /// (the archiver inspects the primary's descriptor while the primary
    /// may be mid-`save`).
    pub fn peek(vfs: &dyn Vfs, dir: &str) -> Result<TableDescriptor> {
        Self::read(vfs, dir, false)
    }

    /// The descriptor in `dir`, its rollup spec named after the table's
    /// directory. With `retire`, a stale temporary a crash left is
    /// removed first; without, nothing is written.
    fn read(vfs: &dyn Vfs, dir: &str, retire: bool) -> Result<TableDescriptor> {
        let tmp = join(dir, DESC_TMP);
        if retire && vfs.exists(&tmp) && vfs.remove(&tmp).is_ok() {
            // Make the cleanup itself durable: without this, a second
            // crash can resurrect the stale tmp file and every reopen
            // repeats the removal without ever retiring it.
            let _ = vfs.sync_dir(dir);
        }
        let f = vfs.open(&join(dir, DESC_FILE))?;
        let mut data = vec![0u8; f.len()? as usize];
        f.read_exact_at(0, &mut data)?;
        let mut desc = Self::decode(&data)?;
        if let Some(spec) = &mut desc.rollup {
            Arc::make_mut(spec).name = dir.to_string();
        }
        Ok(desc)
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

/// A rollup section's spec, its name left for [`TableDescriptor::read`].
fn decode_rollup(r: &mut Reader) -> Result<RollupSpec> {
    let base = r.string()?;
    let period = Micros::try_from(r.varint()?).ok().filter(|&p| p > 0);
    let period = period.ok_or_else(|| Error::corrupt("rollup period out of range"))?;
    // A column name takes at least its length byte, so a count cannot
    // outrun the bytes left.
    let mut names = || -> Result<Vec<String>> {
        let n = r.varint()? as usize;
        let mut out = Vec::with_capacity(n.min(r.remaining()).min(1 << 10));
        for _ in 0..n {
            out.push(r.string()?);
        }
        Ok(out)
    };
    let (value_cols, distinct_cols) = (names()?, names()?);
    Ok(RollupSpec {
        name: String::new(),
        base,
        period,
        value_cols,
        distinct_cols,
    })
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
            put_varint(&mut body, 0);
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
        // A set cold flag is refused, naming the tablet.
        let mut cold = body.clone();
        cold[at + 1] = 1;
        assert!(matches!(
            TableDescriptor::decode(&DESC.frame(&cold)),
            Err(Error::Corrupt(msg)) if msg.contains("tablet 1 ")
        ));
        body.splice(at..at + 1, [0x80, 0x80, 0x80, 0x80, 0x10]);
        assert!(matches!(
            TableDescriptor::decode(&DESC.frame(&body)),
            Err(Error::Corrupt(msg)) if msg.contains("schema version")
        ));
    }

    /// A descriptor an older engine wrote after moving a tablet to its
    /// cold store fails `Db::open`, naming the tablet, and leaves the
    /// table directory as it found it, the tablet's file beside it
    /// included.
    #[test]
    fn a_cold_flag_fails_the_open_and_touches_no_file() {
        use crate::db::Db;
        use crate::options::Options;
        use crate::value::Value;
        use littletable_vfs::SimClock;
        use std::sync::Arc;
        let vfs = SimVfs::instant();
        let open = || {
            let clock = Arc::new(SimClock::new(1_000));
            Db::open(Arc::new(vfs.clone()), clock, Options::small_for_tests())
        };
        let t = open().unwrap().create_table("t", schema(), None).unwrap();
        t.insert(vec![vec![Value::I64(1), Value::Timestamp(100)]])
            .unwrap();
        t.flush_all().unwrap();
        drop(t);
        let desc = TableDescriptor::load(&vfs, "t").unwrap();
        let [tablet] = &desc.tablets[..] else {
            panic!("{desc:?}")
        };
        let mut body = DESC.unframe(&desc.encode()).unwrap().to_vec();
        let at = body.len() - 2;
        assert_eq!(body[at..], [0, 0], "cold, rolled up");
        body[at] = 1;
        DESC.save(&vfs, "t", &DESC.frame(&body)).unwrap();
        let listing = || {
            let mut names = vfs.list_dir("t").unwrap();
            names.sort();
            names
        };
        let before = listing();
        assert!(before.contains(&tablet.file_name()), "{before:?}");
        let err = open().err().expect("a cold tablet must fail the open");
        let named = format!("tablet {} ", tablet.id);
        assert!(err.to_string().contains(&named), "{err}");
        assert_eq!(listing(), before);
    }

    /// A directory that still holds the `ROLLUP` spec file an older engine
    /// kept beside a rollup's descriptor fails `Db::open`, naming the
    /// file, before the table's open could sweep it (or the orphan tablet
    /// beside it) away.
    #[test]
    fn a_rollup_spec_file_fails_the_open_and_touches_no_file() {
        use crate::db::Db;
        use crate::options::Options;
        use crate::value::Value;
        use littletable_vfs::SimClock;
        let vfs = SimVfs::instant();
        let open = || {
            let clock = Arc::new(SimClock::new(1_000));
            Db::open(Arc::new(vfs.clone()), clock, Options::small_for_tests())
        };
        let t = open().unwrap().create_table("t", schema(), None).unwrap();
        t.insert(vec![vec![Value::I64(1), Value::Timestamp(100)]])
            .unwrap();
        t.flush_all().unwrap();
        drop(t);
        for file in ["t/ROLLUP", &format!("t/{}", tablet_file_name(99))] {
            vfs.create(file, 0).unwrap().append(b"v2").unwrap();
        }
        vfs.sync_dir("t").unwrap();
        let listing = || {
            let mut names = vfs.list_dir("t").unwrap();
            names.sort();
            names
        };
        let before = listing();
        let err = open().err().expect("a ROLLUP file must fail the open");
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("t/ROLLUP"), "{err}");
        assert_eq!(listing(), before);
    }

    fn rollup_spec() -> RollupSpec {
        RollupSpec {
            name: "usage_1h".into(),
            base: "usage".into(),
            period: 3_600_000_000,
            value_cols: vec!["bytes".into(), "load".into()],
            distinct_cols: vec!["user".into()],
        }
    }

    /// `sample()`'s descriptor as a rollup table's, attached or not.
    fn rollup_sample(spec: RollupSpec, attached: bool) -> TableDescriptor {
        TableDescriptor {
            rollup: Some(Arc::new(spec)),
            attached,
            ..sample()
        }
    }

    /// A rollup's descriptor saves its spec and attached mark, and loads
    /// them with the spec named after the table's directory.
    #[test]
    fn a_rollup_section_round_trips() {
        let vfs = SimVfs::instant();
        vfs.mkdir_all("usage_1h").unwrap();
        for attached in [false, true] {
            let d = rollup_sample(rollup_spec(), attached);
            d.save(&vfs, "usage_1h").unwrap();
            assert_eq!(TableDescriptor::load(&vfs, "usage_1h").unwrap(), d);
            assert_eq!(TableDescriptor::peek(&vfs, "usage_1h").unwrap(), d);
            let unnamed = TableDescriptor::decode(&d.encode()).unwrap();
            assert_eq!(unnamed.rollup.unwrap().name, "");
        }
    }

    /// v2 bodies, which have no rollup section, decode as base tables.
    #[test]
    fn v2_descriptors_still_decode() {
        let d = sample();
        let mut body = DESC.unframe(&d.encode()).unwrap().to_vec();
        let untabled = TableDescriptor {
            tablets: Vec::new(),
            ..d.clone()
        };
        let at = DESC.unframe(&untabled.encode()).unwrap().len() - 2;
        assert_eq!(body[0], 3, "the version");
        assert_eq!(body[at], 0, "a base table's rollup section");
        body.remove(at);
        body[0] = 2;
        assert_eq!(TableDescriptor::decode(&DESC.frame(&body)).unwrap(), d);
    }

    /// A name count past the bytes left is corruption, and reserves for
    /// no more names than those bytes could hold.
    #[test]
    fn a_huge_rollup_name_count_over_a_few_bytes_is_corrupt() {
        let d = TableDescriptor {
            tablets: Vec::new(),
            ..rollup_sample(rollup_spec(), true)
        };
        let mut body = DESC.unframe(&d.encode()).unwrap().to_vec();
        assert_eq!(body.pop(), Some(0), "the tablet count");
        assert_eq!(body.pop(), Some(b'r'), "the last distinct column, \"user\"");
        body.truncate(body.len() - 4);
        assert_eq!(body.pop(), Some(1), "the distinct column count");
        put_varint(&mut body, u64::MAX >> 1);
        body.extend_from_slice(&[1, b'a']);
        let err = TableDescriptor::decode(&DESC.frame(&body)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    /// A period of 0 is saved as 0 and a negative one as a varint of
    /// 2^63 or more: neither is a bucket width.
    #[test]
    fn a_rollup_period_out_of_range_is_refused_on_load() {
        let vfs = SimVfs::instant();
        vfs.mkdir_all("r").unwrap();
        for period in [0, -5, Micros::MIN] {
            let spec = RollupSpec {
                period,
                ..rollup_spec()
            };
            rollup_sample(spec, true).save(&vfs, "r").unwrap();
            let err = TableDescriptor::load(&vfs, "r").unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{period}: {err:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Every truncation and every bit flip of a rollup's descriptor is
        /// an error (the frame's checksum refuses them), never a panic.
        /// With the frame rebuilt around a damaged body, so that the parser
        /// itself reads the damage, every truncation is still an error,
        /// and a flip decodes to a descriptor that round-trips or fails.
        fn prop_hostile_rollup_descriptor_bytes_are_errors(
            names in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..6),
                1..7,
            ),
            split in 0usize..7,
            period in 1i64..i64::MAX,
            attached in proptest::prelude::any::<bool>(),
        ) {
            // The spec's name is the directory's, not saved.
            let name = |b: &Vec<u8>| b.iter().map(|&c| (b'a' + c % 26) as char).collect();
            let cols: Vec<String> = names[1..].iter().map(name).collect();
            let split = split.min(cols.len());
            let spec = RollupSpec {
                name: String::new(),
                base: name(&names[0]),
                period,
                value_cols: cols[..split].to_vec(),
                distinct_cols: cols[split..].to_vec(),
            };
            let d = rollup_sample(spec, attached);
            let framed = d.encode();
            assert_eq!(TableDescriptor::decode(&framed).unwrap(), d);
            let body = DESC.unframe(&framed).unwrap().to_vec();
            for cut in 0..framed.len() {
                assert!(TableDescriptor::decode(&framed[..cut]).is_err(), "cut at {cut}");
            }
            for cut in 0..body.len() {
                let cut_body = DESC.frame(&body[..cut]);
                assert!(TableDescriptor::decode(&cut_body).is_err(), "body cut at {cut}");
            }
            let (mut framed, mut body) = (framed, body);
            for bit in 0..framed.len() * 8 {
                framed[bit / 8] ^= 1 << (bit % 8);
                assert!(TableDescriptor::decode(&framed).is_err(), "bit {bit} flipped");
                framed[bit / 8] ^= 1 << (bit % 8);
            }
            for bit in 0..body.len() * 8 {
                body[bit / 8] ^= 1 << (bit % 8);
                if let Ok(back) = TableDescriptor::decode(&DESC.frame(&body)) {
                    assert_eq!(TableDescriptor::decode(&back.encode()).unwrap(), back);
                }
                body[bit / 8] ^= 1 << (bit % 8);
            }
        }
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
