//! Application-driven time periods (§3.4.2).
//!
//! LittleTable groups time into three ranges, each measured in even
//! intervals from the Unix epoch: the six 4-hour periods of the most recent
//! day, the seven days of the most recent week, and whole weeks before
//! that. Rows are binned into filling tablets by period, and the merge
//! policy never combines tablets from different periods — keeping recent
//! data finely clustered by time while older data coarsens, matching how
//! far back queries of different ages look.

use littletable_vfs::{Micros, MICROS_PER_SEC};

/// Four hours in micros.
pub const FOUR_HOURS: Micros = 4 * 3600 * MICROS_PER_SEC;
/// One day in micros.
pub const DAY: Micros = 24 * 3600 * MICROS_PER_SEC;
/// One week in micros.
pub const WEEK: Micros = 7 * DAY;

/// Which of the three granularities a period belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PeriodKind {
    /// 4-hour bins inside the most recent day.
    FourHour,
    /// Day bins inside the most recent week.
    Day,
    /// Week bins for everything older.
    Week,
}

impl PeriodKind {
    /// The period length in micros.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> Micros {
        match self {
            PeriodKind::FourHour => FOUR_HOURS,
            PeriodKind::Day => DAY,
            PeriodKind::Week => WEEK,
        }
    }
}

/// One concrete time period: a kind plus an epoch-aligned start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Period {
    /// Granularity.
    pub kind: PeriodKind,
    /// Inclusive start, aligned to `kind.len()` from the Unix epoch.
    pub start: Micros,
}

impl Period {
    /// Exclusive end of the period.
    pub fn end(&self) -> Micros {
        self.start + self.kind.len()
    }

    /// True when `ts` falls inside the period.
    pub fn contains(&self, ts: Micros) -> bool {
        ts >= self.start && ts < self.end()
    }
}

/// Saturates: the period holding `Micros::MIN` starts at `Micros::MIN`.
fn align_down(ts: Micros, unit: Micros) -> Micros {
    ts.div_euclid(unit).saturating_mul(unit)
}

/// Maps a row timestamp to its period, relative to the current time `now`.
///
/// Timestamps in the current epoch-aligned day (or the future) use 4-hour
/// bins; timestamps earlier in the current epoch-aligned week use day bins;
/// anything older uses week bins.
pub fn period_for(ts: Micros, now: Micros) -> Period {
    let day_start = align_down(now, DAY);
    let week_start = align_down(now, WEEK);
    if ts >= day_start {
        Period {
            kind: PeriodKind::FourHour,
            start: align_down(ts, FOUR_HOURS),
        }
    } else if ts >= week_start {
        Period {
            kind: PeriodKind::Day,
            start: align_down(ts, DAY),
        }
    } else {
        Period {
            kind: PeriodKind::Week,
            start: align_down(ts, WEEK),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: Micros = 3600 * MICROS_PER_SEC;

    #[test]
    fn recent_day_uses_four_hour_bins() {
        // now = 10 days + 13h after epoch.
        let now = 10 * DAY + 13 * H;
        let p = period_for(now - 2 * H, now); // 11:00 same day
        assert_eq!(p.kind, PeriodKind::FourHour);
        assert_eq!(p.start, 10 * DAY + 8 * H); // [08:00, 12:00)
                                               // A future timestamp also bins at 4-hour granularity.
        let f = period_for(now + 6 * H, now);
        assert_eq!(f.kind, PeriodKind::FourHour);
        assert_eq!(f.start, 10 * DAY + 16 * H);
    }

    #[test]
    fn earlier_in_week_uses_day_bins() {
        let now = 10 * DAY + 13 * H; // week containing day 10 starts at day 7
        let p = period_for(8 * DAY + 3 * H, now);
        assert_eq!(p.kind, PeriodKind::Day);
        assert_eq!(p.start, 8 * DAY);
        assert!(p.contains(8 * DAY + 23 * H));
        assert!(!p.contains(9 * DAY));
    }

    #[test]
    fn older_history_uses_week_bins() {
        let now = 10 * DAY + 13 * H;
        let p = period_for(2 * DAY, now);
        assert_eq!(p.kind, PeriodKind::Week);
        assert_eq!(p.start, 0);
        let p = period_for(6 * DAY + 23 * H, now);
        assert_eq!(p.kind, PeriodKind::Week);
        assert_eq!(p.start, 0);
    }

    #[test]
    fn boundaries_are_epoch_aligned() {
        let now = 100 * WEEK + 3 * DAY + H;
        for ts in [now, now - DAY, now - 2 * WEEK] {
            let p = period_for(ts, now);
            assert_eq!(p.start % p.kind.len(), 0);
            assert!(p.contains(ts));
        }
    }

    #[test]
    fn negative_timestamps_align_correctly() {
        let now = 10 * DAY;
        let p = period_for(-1, now);
        assert_eq!(p.kind, PeriodKind::Week);
        assert_eq!(p.start, -WEEK);
        assert!(p.contains(-1));
    }

    #[test]
    fn rollover_changes_binning() {
        // The same timestamp bins more coarsely as `now` advances.
        let ts = 10 * DAY + 2 * H;
        let p1 = period_for(ts, 10 * DAY + 3 * H);
        assert_eq!(p1.kind, PeriodKind::FourHour);
        let p2 = period_for(ts, 12 * DAY);
        assert_eq!(p2.kind, PeriodKind::Day);
        let p3 = period_for(ts, 30 * DAY);
        assert_eq!(p3.kind, PeriodKind::Week);
        // All three still contain the timestamp.
        assert!(p1.contains(ts) && p2.contains(ts) && p3.contains(ts));
    }
}
