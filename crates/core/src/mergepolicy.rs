//! The tablet merge policy (§3.4.1, §3.4.2, and the appendix).
//!
//! LittleTable orders a table's on-disk tablets by the lower bounds of
//! their timespans and merges the oldest adjacent pair `(tᵢ, tᵢ₊₁)` such
//! that `|tᵢ| ≤ 2·|tᵢ₊₁|`, pulling in any newer adjacent tablets up to a
//! maximum output size. The appendix proves two properties this module's
//! property tests check directly:
//!
//! 1. when no more merges are possible, the number of remaining tablets is
//!    logarithmic in the table size, and
//! 2. no row is rewritten more than a logarithmic number of times.
//!
//! Two refinements from §3.4.2: tablets from different *time periods*
//! (4-hour / day / week bins) are never merged together, and a tablet only
//! becomes merge-eligible a fixed delay after it was written, so each merge
//! sees as many tablets as possible.

use crate::descriptor::TabletMeta;
use crate::options::Options;
use crate::period::period_for;
use littletable_vfs::Micros;

/// Finds the next merge to perform: the ids of two or more adjacent
/// tablets, in timespan order. `tablets` must already be sorted by
/// `(min_ts, id)` (see [`crate::descriptor::TableDescriptor::sort_tablets`]).
/// Returns `None` when nothing is mergeable. Reads `max_tablet_size`,
/// `merge_delay` and `respect_periods` from `opts`.
pub fn find_merge(tablets: &[TabletMeta], now: Micros, opts: &Options) -> Option<Vec<u64>> {
    let eligible = |t: &TabletMeta| now - t.written_at >= opts.merge_delay;
    let same_group = |a: &TabletMeta, b: &TabletMeta| {
        !opts.respect_periods || period_for(a.min_ts, now) == period_for(b.min_ts, now)
    };
    for i in 0..tablets.len().saturating_sub(1) {
        let a = &tablets[i];
        let b = &tablets[i + 1];
        if !eligible(a) || !eligible(b) || !same_group(a, b) {
            continue;
        }
        // Merge the oldest adjacent pair where the newer tablet is at
        // least half the size of the older.
        if a.bytes > 2 * b.bytes {
            continue;
        }
        let mut total = a.bytes + b.bytes;
        if total > opts.max_tablet_size {
            continue;
        }
        let mut ids = vec![a.id, b.id];
        // Extend with newer adjacent tablets up to the size cap. The
        // appendix notes the logarithmic bounds continue to hold for this
        // extension regardless of the extra tablets' sizes.
        for c in &tablets[i + 2..] {
            if !eligible(c) || !same_group(b, c) || total + c.bytes > opts.max_tablet_size {
                break;
            }
            total += c.bytes;
            ids.push(c.id);
        }
        return Some(ids);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::period::{DAY, WEEK};
    use proptest::prelude::*;

    fn meta(id: u64, min_ts: Micros, bytes: u64, written_at: Micros) -> TabletMeta {
        TabletMeta {
            id,
            min_ts,
            max_ts: min_ts,
            rows: bytes / 128,
            bytes,
            written_at,
            schema_version: 1,
            rolled_up: false,
        }
    }

    /// Options with no delay and no period constraint, matching the
    /// appendix's abstract setting.
    fn plain(max: u64) -> Options {
        Options {
            max_tablet_size: max,
            merge_delay: 0,
            respect_periods: false,
            ..Options::default()
        }
    }

    #[test]
    fn merges_first_eligible_pair() {
        // Sizes 100, 30, 20: 100 > 2*30, so the pair is (30, 20).
        let ts = vec![meta(1, 0, 100, 0), meta(2, 10, 30, 0), meta(3, 20, 20, 0)];
        assert_eq!(find_merge(&ts, 1000, &plain(u64::MAX)), Some(vec![2, 3]));
    }

    #[test]
    fn no_merge_when_strictly_decreasing_by_half() {
        let ts = vec![meta(1, 0, 100, 0), meta(2, 10, 40, 0), meta(3, 20, 15, 0)];
        assert_eq!(find_merge(&ts, 1000, &plain(u64::MAX)), None);
    }

    #[test]
    fn extension_includes_newer_tablets_up_to_cap() {
        let ts = vec![
            meta(1, 0, 10, 0),
            meta(2, 10, 10, 0),
            meta(3, 20, 100, 0),
            meta(4, 30, 6, 0),
        ];
        // Pair (1,2); extension adds 3 (total 120 ≤ 125) but not 4 (126).
        assert_eq!(find_merge(&ts, 1000, &plain(125)), Some(vec![1, 2, 3]));
    }

    #[test]
    fn merge_delay_blocks_young_tablets() {
        let opts = Options {
            merge_delay: 90_000_000,
            respect_periods: false,
            ..Options::default()
        };
        let ts = vec![meta(1, 0, 10, 0), meta(2, 10, 10, 50_000_000)];
        assert_eq!(find_merge(&ts, 100_000_000, &opts), None);
        assert_eq!(find_merge(&ts, 200_000_000, &opts), Some(vec![1, 2]));
    }

    #[test]
    fn period_boundaries_are_respected() {
        let opts = Options {
            merge_delay: 0,
            ..Options::default()
        };
        let now = 10 * WEEK + 3 * DAY;
        // One tablet in last week's bin, one in an old week bin.
        let ts = vec![meta(1, 8 * WEEK, 10, 0), meta(2, 10 * WEEK + DAY, 10, 0)];
        assert_eq!(find_merge(&ts, now, &opts), None);
        // Two in the same old week merge fine.
        let ts = vec![meta(1, 8 * WEEK, 10, 0), meta(2, 8 * WEEK + DAY, 10, 0)];
        assert_eq!(find_merge(&ts, now, &opts), Some(vec![1, 2]));
    }

    #[test]
    fn pair_exceeding_cap_is_skipped() {
        let ts = vec![meta(1, 0, 100, 0), meta(2, 10, 100, 0)];
        assert_eq!(find_merge(&ts, 1000, &plain(150)), None);
    }

    /// Drives the policy to a fixed point over synthetic tablets, tracking
    /// how many times each original tablet's rows are rewritten.
    fn run_to_fixpoint(sizes: &[u64]) -> (usize, u64, u64) {
        #[derive(Clone)]
        struct T {
            meta: TabletMeta,
            rewrites: u64,
        }
        let mut tablets: Vec<T> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| T {
                meta: meta(i as u64, i as i64 * 10, s.max(1), 0),
                rewrites: 0,
            })
            .collect();
        let mut next_id = sizes.len() as u64;
        let mut max_rewrites = 0u64;
        let mut merges = 0u64;
        loop {
            let metas: Vec<TabletMeta> = tablets.iter().map(|t| t.meta.clone()).collect();
            let Some(ids) = find_merge(&metas, 1_000_000, &plain(u64::MAX)) else {
                break;
            };
            merges += 1;
            let members: Vec<usize> = tablets
                .iter()
                .enumerate()
                .filter(|(_, t)| ids.contains(&t.meta.id))
                .map(|(i, _)| i)
                .collect();
            let total: u64 = members.iter().map(|&i| tablets[i].meta.bytes).sum();
            let rewrites = members.iter().map(|&i| tablets[i].rewrites).max().unwrap() + 1;
            max_rewrites = max_rewrites.max(rewrites);
            let min_ts = members
                .iter()
                .map(|&i| tablets[i].meta.min_ts)
                .min()
                .unwrap();
            let first = members[0];
            tablets[first] = T {
                meta: meta(next_id, min_ts, total, 0),
                rewrites,
            };
            next_id += 1;
            for &i in members[1..].iter().rev() {
                tablets.remove(i);
            }
            assert!(merges < 100_000, "merge loop did not converge");
        }
        let total: u64 = sizes.iter().map(|&s| s.max(1)).sum();
        (tablets.len(), max_rewrites, total)
    }

    #[test]
    fn equal_sized_tablets_collapse_logarithmically() {
        let (count, rewrites, total) = run_to_fixpoint(&vec![16 << 20; 64]);
        let log_t = (total as f64).log2();
        assert!(count as f64 <= log_t + 1.0, "count={count}, logT={log_t}");
        assert!(
            (rewrites as f64) <= 2.0 * log_t + 4.0,
            "rewrites={rewrites}, logT={log_t}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Appendix claim 1: at the fixed point, the tablet count is
        /// O(log T) — concretely, T ≥ 2ⁿ − 1 so n ≤ log₂(T+1).
        #[test]
        fn prop_fixpoint_count_is_logarithmic(
            sizes in proptest::collection::vec(1u64..1_000_000, 1..80)
        ) {
            let (count, _, total) = run_to_fixpoint(&sizes);
            let bound = ((total + 1) as f64).log2().ceil() as usize + 1;
            prop_assert!(count <= bound, "count={count} bound={bound} total={total}");
        }

        /// Appendix claim 2: each row is rewritten O(log T) times. Every
        /// merge the first tablet participates in grows it by ≥ 3/2, and
        /// non-first merges are bounded by the fixed-point argument; the
        /// combined constant is small.
        #[test]
        fn prop_row_rewrites_are_logarithmic(
            sizes in proptest::collection::vec(1u64..1_000_000, 1..80)
        ) {
            let (_, rewrites, total) = run_to_fixpoint(&sizes);
            let log_t = ((total + 1) as f64).log2();
            prop_assert!(
                (rewrites as f64) <= 4.0 * log_t + 8.0,
                "rewrites={rewrites} logT={log_t}"
            );
        }

        /// The returned candidate is always a run of adjacent, in-order
        /// tablet ids under the sorted order.
        #[test]
        fn prop_candidates_are_adjacent(
            sizes in proptest::collection::vec(1u64..1000, 2..40)
        ) {
            let metas: Vec<TabletMeta> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| meta(i as u64, i as i64 * 10, s, 0))
                .collect();
            if let Some(ids) = find_merge(&metas, 1_000, &plain(u64::MAX)) {
                prop_assert!(ids.len() >= 2);
                let first = ids[0] as usize;
                for (off, &id) in ids.iter().enumerate() {
                    prop_assert_eq!(id, (first + off) as u64);
                }
            }
        }
    }
}
