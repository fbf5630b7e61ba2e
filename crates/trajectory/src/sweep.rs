//! Streaming snapshot extraction: one time-ordered pass over all samples.
//!
//! [`TrajectoryDatabase::snapshot`] answers "where is everyone at time `t`?"
//! by binary-searching every trajectory, which costs `O(N log |o|)` per time
//! point and `O(T · N log |o|)` for a whole CMC run. A convoy query, however,
//! visits time points *in order*, so the searches are pure waste: a cursor
//! per object that only ever moves forward yields every snapshot of the
//! window in amortized `O(total samples + N · T)` — one sorted sweep, no
//! re-searching and no per-tick index rebuilds.
//!
//! [`SnapshotSweep`] is that cursor. It is an `Iterator<Item = Snapshot>`
//! producing snapshots bit-identical to per-tick
//! [`TrajectoryDatabase::snapshot`] calls (same entry order, same
//! interpolation arithmetic), which is what lets the convoy engines switch
//! between the two extraction paths freely.
//!
//! Its per-object step is the public [`ObjectCursor`], so a caller that only
//! needs *some* objects at each tick (CuTS refinement reads just the
//! filter's coverage) drives the same arithmetic one object at a time.

use crate::database::ObjectId;
use crate::database::{Snapshot, SnapshotEntry, SnapshotPolicy, TrajectoryDatabase};
use crate::point::TrajPoint;
use crate::time::{TimeInterval, TimePoint};
use crate::trajectory::Trajectory;

/// A forward-only cursor into one object's sample list: the object's
/// [`SnapshotEntry`] at successive, non-decreasing time points.
///
/// Construction seeks once (a binary search); after that every query only
/// advances, so a cursor costs `O(samples)` in total however many time
/// points it answers. Entries are bit-identical to the object's entry in
/// [`TrajectoryDatabase::snapshot`].
///
/// ```
/// use trajectory::{ObjectCursor, ObjectId, SnapshotPolicy, Trajectory};
///
/// let traj = Trajectory::from_tuples([(0.0, 0.0, 0), (2.0, 0.0, 2)]).unwrap();
/// let mut cursor = ObjectCursor::new(ObjectId(1), &traj, 0);
/// let entry = cursor.entry_at(1, SnapshotPolicy::Interpolate).unwrap();
/// assert_eq!((entry.position.x, entry.interpolated), (1.0, true));
/// assert!(cursor.entry_at(1, SnapshotPolicy::ExactOnly).is_none());
/// assert!(!cursor.entry_at(2, SnapshotPolicy::ExactOnly).unwrap().interpolated);
/// assert!(cursor.entry_at(3, SnapshotPolicy::Interpolate).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ObjectCursor<'a> {
    id: ObjectId,
    points: &'a [TrajPoint],
    /// Index of the last sample with `points[idx].t <= t` for the latest
    /// queried time `t` (only valid once `t` has reached the object's start).
    idx: usize,
}

impl<'a> ObjectCursor<'a> {
    /// A cursor over `trajectory` for object `id`, seeked to the last sample
    /// at or before `start` (one binary search, so a cursor first used deep
    /// into a long trajectory does not scan every earlier sample).
    #[inline]
    pub fn new(id: ObjectId, trajectory: &'a Trajectory, start: TimePoint) -> Self {
        let points = trajectory.points();
        let idx = points.partition_point(|p| p.t <= start).saturating_sub(1);
        ObjectCursor { id, points, idx }
    }

    /// The object's entry at `t`: `None` outside its lifetime (and between
    /// samples under [`SnapshotPolicy::ExactOnly`]); an exact sample is
    /// `interpolated: false`, anything else the virtual point of
    /// [`TrajPoint::interpolate`]. `t` must not decrease across calls.
    #[inline]
    pub fn entry_at(&mut self, t: TimePoint, policy: SnapshotPolicy) -> Option<SnapshotEntry> {
        let points = self.points;
        if t < points[0].t || t > points[points.len() - 1].t {
            return None;
        }
        // Advance to the last sample at or before `t`. Query times only move
        // forward, so across a cursor's life it advances at most
        // `points.len()` times: amortized O(1) per query.
        while self.idx + 1 < points.len() && points[self.idx + 1].t <= t {
            self.idx += 1;
        }
        let before = &points[self.idx];
        debug_assert!(before.t <= t, "cursor queried backwards in time");
        if before.t == t {
            Some(SnapshotEntry {
                id: self.id,
                position: before.position(),
                interpolated: false,
            })
        } else if policy == SnapshotPolicy::Interpolate {
            // Same virtual-point arithmetic as `Trajectory::location_at`
            // (one shared helper), so cursor and per-tick snapshots are
            // bit-identical.
            Some(SnapshotEntry {
                id: self.id,
                position: TrajPoint::interpolate(before, &points[self.idx + 1], t),
                interpolated: true,
            })
        } else {
            None
        }
    }
}

/// A streaming cursor that yields the successive [`Snapshot`]s of a time
/// window from a single time-ordered pass over all samples.
///
/// Snapshots are produced for **every** time point of the window, including
/// empty ones (an empty snapshot is what closes open convoy candidates, so
/// skipping it would change CMC semantics).
///
/// ```
/// use trajectory::{ObjectId, SnapshotPolicy, SnapshotSweep, Trajectory, TrajectoryDatabase};
///
/// let mut db = TrajectoryDatabase::new();
/// db.insert(
///     ObjectId(1),
///     Trajectory::from_tuples([(0.0, 0.0, 0), (2.0, 0.0, 2)]).unwrap(),
/// );
/// let snapshots: Vec<_> = db.sweep(SnapshotPolicy::Interpolate).collect();
/// assert_eq!(snapshots.len(), 3);
/// assert_eq!(snapshots[1].entries[0].position.x, 1.0); // interpolated at t=1
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotSweep<'a> {
    cursors: Vec<ObjectCursor<'a>>,
    next_t: TimePoint,
    end: TimePoint,
    /// Set once the snapshot at `end` has been produced. The end state is a
    /// flag rather than `next_t > end` because a window ending at
    /// `i64::MAX` has no representable "past the end" time point —
    /// incrementing there is exactly the overflow this guards against.
    finished: bool,
    policy: SnapshotPolicy,
    /// Capacity hint carried between ticks: consecutive snapshots have
    /// near-identical sizes, so the previous length avoids re-growing the
    /// entry vector at every time point.
    last_len: usize,
}

impl<'a> SnapshotSweep<'a> {
    /// Creates a sweep over `window` (clamped to nothing when the window is
    /// empty of objects — the iterator then yields empty snapshots).
    pub fn new(db: &'a TrajectoryDatabase, window: TimeInterval, policy: SnapshotPolicy) -> Self {
        let cursors = db
            .iter()
            .map(|(id, traj)| ObjectCursor::new(id, traj, window.start))
            .collect();
        SnapshotSweep {
            cursors,
            next_t: window.start,
            end: window.end,
            finished: window.start > window.end,
            policy,
            last_len: 0,
        }
    }

    /// A sweep that yields nothing (the whole-domain sweep of an empty
    /// database, whose time domain does not exist).
    pub fn empty(policy: SnapshotPolicy) -> SnapshotSweep<'static> {
        SnapshotSweep {
            cursors: Vec::new(),
            next_t: 1,
            end: 0,
            finished: true,
            policy,
            last_len: 0,
        }
    }

    /// The number of time points the sweep has not yet produced.
    pub fn remaining(&self) -> usize {
        if self.finished {
            0
        } else {
            self.end.saturating_sub(self.next_t).saturating_add(1) as usize
        }
    }
}

impl Iterator for SnapshotSweep<'_> {
    type Item = Snapshot;

    fn next(&mut self) -> Option<Snapshot> {
        if self.finished {
            return None;
        }
        let t = self.next_t;
        // Checked advance: a window ending at `i64::MAX` must flip to the
        // finished state, not wrap (release) or panic (debug) on `t + 1`.
        match t.checked_add(1) {
            Some(next) if next <= self.end => self.next_t = next,
            _ => self.finished = true,
        }

        let mut entries: Vec<SnapshotEntry> = Vec::with_capacity(self.last_len);
        // Cursors are in ascending id order (database iteration order), so
        // the entries come out sorted by id exactly like `snapshot()`.
        for cursor in &mut self.cursors {
            if let Some(entry) = cursor.entry_at(t, self.policy) {
                entries.push(entry);
            }
        }
        self.last_len = entries.len();
        Some(Snapshot { time: t, entries })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SnapshotSweep<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Trajectory;
    use proptest::prelude::*;

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::from_tuples(pts.iter().copied()).unwrap()
    }

    fn sample_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        db.insert(
            ObjectId(1),
            traj(&[
                (0.0, 0.0, 0),
                (1.0, 0.0, 1),
                (2.0, 0.0, 2),
                (3.0, 0.0, 3),
                (4.0, 0.0, 4),
            ]),
        );
        // Irregular sampling: t=2 missing.
        db.insert(
            ObjectId(2),
            traj(&[(0.0, 1.0, 0), (1.0, 1.0, 1), (3.0, 1.0, 3), (4.0, 1.0, 4)]),
        );
        // Appears late.
        db.insert(
            ObjectId(3),
            traj(&[(2.0, 5.0, 2), (3.0, 5.0, 3), (4.0, 5.0, 4)]),
        );
        db
    }

    #[test]
    fn sweep_matches_per_tick_snapshots_exactly() {
        let db = sample_db();
        for policy in [SnapshotPolicy::Interpolate, SnapshotPolicy::ExactOnly] {
            let window = db.time_domain().unwrap();
            let swept: Vec<Snapshot> = SnapshotSweep::new(&db, window, policy).collect();
            let per_tick: Vec<Snapshot> = window.iter().map(|t| db.snapshot(t, policy)).collect();
            assert_eq!(swept, per_tick);
        }
    }

    #[test]
    fn sweep_covers_sub_windows_and_out_of_range_windows() {
        let db = sample_db();
        let swept: Vec<Snapshot> =
            SnapshotSweep::new(&db, TimeInterval::new(2, 3), SnapshotPolicy::Interpolate).collect();
        assert_eq!(swept.len(), 2);
        assert_eq!(swept[0], db.snapshot(2, SnapshotPolicy::Interpolate));
        assert_eq!(swept[1], db.snapshot(3, SnapshotPolicy::Interpolate));
        // A window entirely outside the data yields empty snapshots, exactly
        // like per-tick extraction.
        let outside: Vec<Snapshot> = SnapshotSweep::new(
            &db,
            TimeInterval::new(100, 102),
            SnapshotPolicy::Interpolate,
        )
        .collect();
        assert_eq!(outside.len(), 3);
        assert!(outside.iter().all(Snapshot::is_empty));
    }

    #[test]
    fn sub_window_sweep_seeks_instead_of_scanning_the_prefix() {
        // A window deep inside a long trajectory: the constructor must seek
        // each cursor near the window start (correctness checked here; the
        // seek keeps the first tick O(log n) instead of O(n)).
        let mut db = TrajectoryDatabase::new();
        db.insert(
            ObjectId(1),
            Trajectory::from_tuples((0..10_000).map(|t| (t as f64, 0.0, t))).unwrap(),
        );
        // Irregularly sampled neighbour, also starting long before the window.
        db.insert(
            ObjectId(2),
            Trajectory::from_tuples((0..2_000).map(|t| (t as f64 * 5.0, 1.0, t * 5))).unwrap(),
        );
        let window = TimeInterval::new(9_900, 9_920);
        let swept: Vec<Snapshot> =
            SnapshotSweep::new(&db, window, SnapshotPolicy::Interpolate).collect();
        assert_eq!(swept.len(), 21);
        for (snapshot, t) in swept.iter().zip(window.iter()) {
            assert_eq!(snapshot, &db.snapshot(t, SnapshotPolicy::Interpolate));
        }
    }

    #[test]
    fn sweep_over_empty_database_yields_empty_snapshots() {
        let db = TrajectoryDatabase::new();
        let swept: Vec<Snapshot> =
            SnapshotSweep::new(&db, TimeInterval::new(0, 2), SnapshotPolicy::Interpolate).collect();
        assert_eq!(swept.len(), 3);
        assert!(swept.iter().all(Snapshot::is_empty));
        // The whole-domain sweep of an empty database yields nothing at all.
        assert_eq!(db.sweep(SnapshotPolicy::Interpolate).count(), 0);
    }

    #[test]
    fn whole_domain_sweep_uses_the_time_domain() {
        let db = sample_db();
        let swept: Vec<Snapshot> = db.sweep(SnapshotPolicy::Interpolate).collect();
        assert_eq!(swept.len(), 5);
        assert_eq!(swept[0].time, 0);
        assert_eq!(swept[4].time, 4);
    }

    #[test]
    fn window_ending_at_i64_max_terminates_and_matches_per_tick() {
        // Regression: the sweep used to advance with a bare `next_t += 1`,
        // which panics in debug (and wraps into an infinite loop in release)
        // when the window ends at `i64::MAX`.
        let mut db = TrajectoryDatabase::new();
        db.insert(
            ObjectId(1),
            traj(&[(0.0, 0.0, i64::MAX - 2), (2.0, 0.0, i64::MAX)]),
        );
        let window = TimeInterval::new(i64::MAX - 2, i64::MAX);
        let mut sweep = SnapshotSweep::new(&db, window, SnapshotPolicy::Interpolate);
        assert_eq!(sweep.remaining(), 3);
        let swept: Vec<Snapshot> = sweep.by_ref().collect();
        assert_eq!(swept.len(), 3);
        for (snapshot, t) in swept.iter().zip([i64::MAX - 2, i64::MAX - 1, i64::MAX]) {
            assert_eq!(snapshot, &db.snapshot(t, SnapshotPolicy::Interpolate));
        }
        // The exhausted sweep stays exhausted.
        assert_eq!(sweep.remaining(), 0);
        assert_eq!(sweep.next(), None);
    }

    #[test]
    fn sweep_reports_exact_size() {
        let db = sample_db();
        let mut sweep =
            SnapshotSweep::new(&db, TimeInterval::new(0, 4), SnapshotPolicy::Interpolate);
        assert_eq!(sweep.len(), 5);
        sweep.next();
        assert_eq!(sweep.remaining(), 4);
        assert_eq!(sweep.size_hint(), (4, Some(4)));
    }

    prop_compose! {
        fn arb_db()(num_objects in 1usize..6)
            (tables in proptest::collection::vec(
                (proptest::collection::btree_set(-20i64..20, 1..12),
                 proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 12)),
                num_objects..num_objects + 1))
            -> TrajectoryDatabase {
            let mut db = TrajectoryDatabase::new();
            for (i, (times, coords)) in tables.into_iter().enumerate() {
                let pts: Vec<TrajPoint> = times
                    .into_iter()
                    .zip(coords)
                    .map(|(t, (x, y))| TrajPoint::new(x, y, t))
                    .collect();
                db.insert(ObjectId(i as u64), Trajectory::from_points(pts).unwrap());
            }
            db
        }
    }

    proptest! {
        #[test]
        fn sweep_equals_per_tick_extraction_on_random_databases(db in arb_db()) {
            let window = db.time_domain().unwrap();
            for policy in [SnapshotPolicy::Interpolate, SnapshotPolicy::ExactOnly] {
                let swept: Vec<Snapshot> = SnapshotSweep::new(&db, window, policy).collect();
                prop_assert_eq!(swept.len() as i64, window.num_points());
                for (snapshot, t) in swept.iter().zip(window.iter()) {
                    prop_assert_eq!(snapshot, &db.snapshot(t, policy));
                }
            }
        }
    }
}
