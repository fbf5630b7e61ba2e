//! Pins the sub-trajectory index behind [`cluster_sub_trajectories`] and
//! [`SubTrajectoryScratch`] against a brute-force reference: every ordered
//! pair `(i, j)` tested with the filter's neighbour predicate (temporal
//! overlap, the Lemma 2 box bound, then ω ≤ e), fed to the plain DBSCAN.
//!
//! Object ids are distinct per item, so equal cluster lists mean equal
//! DBSCAN labels: same clusters, same cluster order, same noise.

use proptest::prelude::*;
use traj_cluster::dbscan::labels_to_clusters;
use traj_cluster::{
    cluster_sub_trajectories, dbscan, omega_distance, Cluster, RegionQuery, SegmentDistance,
    SubTrajectory, SubTrajectoryScratch,
};
use traj_simplify::{DouglasPeucker, DouglasPeuckerStar, Simplifier, ToleranceMode};
use trajectory::geometry::{Point, Segment, TimedSegment};
use trajectory::{ObjectId, TimeInterval, TrajPoint, Trajectory};

const DISTANCES: [SegmentDistance; 2] = [SegmentDistance::Dll, SegmentDistance::DStar];
const MODES: [ToleranceMode; 2] = [ToleranceMode::Actual, ToleranceMode::Global];

/// The all-pairs neighbourhood: `j ∈ N(i)` iff `j == i` or the filter's
/// predicate holds for the ordered pair `(i, j)`.
struct AllPairs<'a> {
    items: &'a [SubTrajectory],
    epsilon: f64,
    distance: SegmentDistance,
    mode: ToleranceMode,
}

impl AllPairs<'_> {
    fn is_neighbour(&self, i: usize, j: usize) -> bool {
        let (a, b) = (&self.items[i], &self.items[j]);
        if !a.time_interval().intersects(&b.time_interval()) {
            return false;
        }
        let bound = self.epsilon + a.max_tolerance(self.mode) + b.max_tolerance(self.mode);
        if a.bounding_box().min_distance(&b.bounding_box()) > bound {
            return false;
        }
        omega_distance(a, b, self.distance, self.mode) <= self.epsilon
    }
}

impl RegionQuery for AllPairs<'_> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&j| j == idx || self.is_neighbour(idx, j))
            .collect()
    }
}

fn reference(
    items: &[SubTrajectory],
    epsilon: f64,
    m: usize,
    distance: SegmentDistance,
    mode: ToleranceMode,
) -> Vec<Cluster> {
    if items.len() < m {
        return Vec::new();
    }
    let query = AllPairs {
        items,
        epsilon,
        distance,
        mode,
    };
    labels_to_clusters(&dbscan(&query, m))
        .into_iter()
        .map(|members| Cluster::new(members.into_iter().map(|i| items[i].object).collect()))
        .collect()
}

/// Asserts the one-shot call, a scratch reused across every case of the
/// test, and the reference agree under every distance × tolerance mode.
fn assert_matches_reference(
    scratch: &mut SubTrajectoryScratch,
    items: &[SubTrajectory],
    epsilon: f64,
    m: usize,
) {
    for distance in DISTANCES {
        for mode in MODES {
            let expected = reference(items, epsilon, m, distance, mode);
            assert_eq!(
                cluster_sub_trajectories(items, epsilon, m, distance, mode),
                expected,
                "one-shot, {distance:?} {mode:?}"
            );
            assert_eq!(
                scratch.cluster(items, epsilon, m, distance, mode),
                expected,
                "reused scratch, {distance:?} {mode:?}"
            );
        }
    }
}

/// One segment from `from` at tick `t0` to `to` at tick `t1`, with the given
/// actual and global tolerance.
fn moving(
    object: u64,
    from: (f64, f64),
    to: (f64, f64),
    (t0, t1): (i64, i64),
    tolerance: f64,
) -> SubTrajectory {
    SubTrajectory {
        object: ObjectId(object),
        segments: vec![traj_simplify::SimplifiedSegment {
            timed: TimedSegment::new(
                Segment::new(Point::new(from.0, from.1), Point::new(to.0, to.1)),
                TimeInterval::new(t0, t1),
            ),
            actual_tolerance: tolerance,
            start_index: 0,
            end_index: 1,
        }],
        global_tolerance: tolerance * 2.0,
    }
}

fn parked(object: u64, at: (f64, f64)) -> SubTrajectory {
    moving(object, at, at, (0, 10), 0.0)
}

#[test]
fn single_sample_objects_cluster_like_the_reference() {
    // Single-sample trajectories become degenerate instant segments; they
    // meet only objects alive at their instant.
    let window = TimeInterval::new(0, 10);
    let mut items = Vec::new();
    for (i, (x, t)) in [(0.0, 5), (0.5, 5), (1.0, 5), (0.2, 7), (0.4, 7), (9.0, 5)]
        .into_iter()
        .enumerate()
    {
        let traj = Trajectory::from_tuples([(x, 0.0, t)]).unwrap();
        let simplified = DouglasPeucker.simplify(&traj, 0.5);
        items.push(SubTrajectory::for_window(ObjectId(i as u64), &simplified, window).unwrap());
    }
    let traj = Trajectory::from_tuples((0..=10).map(|t| (0.3, 0.1, t))).unwrap();
    items.push(
        SubTrajectory::for_window(ObjectId(99), &DouglasPeucker.simplify(&traj, 0.5), window)
            .unwrap(),
    );
    let mut scratch = SubTrajectoryScratch::new();
    for m in 1..=4 {
        assert_matches_reference(&mut scratch, &items, 0.6, m);
    }
}

#[test]
fn zero_extent_and_duplicate_boxes_cluster_like_the_reference() {
    let mut items = Vec::new();
    for i in 0..6 {
        items.push(parked(i, (3.0, 3.0)));
    }
    items.push(parked(6, (3.0, 3.5)));
    items.push(parked(7, (3.0, 4.0)));
    items.push(parked(8, (-50.0, -50.0)));
    items.push(parked(9, (-50.0, -50.0)));
    // Exactly e apart: the boundary is inclusive.
    items.push(parked(10, (10.0, 0.0)));
    items.push(parked(11, (10.5, 0.0)));
    let mut scratch = SubTrajectoryScratch::new();
    for m in [2, 3, 7] {
        assert_matches_reference(&mut scratch, &items, 0.5, m);
    }
}

#[test]
fn items_spanning_many_cells_cluster_like_the_reference() {
    // A field of short movers plus a few long ones whose boxes cover many
    // cells at a cell size fitted to the short ones.
    let mut items = Vec::new();
    for i in 0..40u64 {
        let x = (i % 8) as f64 * 3.0;
        let y = (i / 8) as f64 * 3.0;
        items.push(moving(i, (x, y), (x + 1.0, y + 0.5), (0, 10), 0.2));
    }
    items.push(moving(100, (-5.0, -5.0), (30.0, 20.0), (0, 10), 0.4));
    items.push(moving(101, (25.0, -3.0), (-2.0, 15.0), (2, 8), 0.1));
    items.push(moving(102, (0.0, 14.0), (24.0, 14.0), (5, 20), 0.0));
    let mut scratch = SubTrajectoryScratch::new();
    for epsilon in [0.5, 1.5, 4.0] {
        for m in [2, 3, 5] {
            assert_matches_reference(&mut scratch, &items, epsilon, m);
        }
    }
}

#[test]
fn a_long_mover_clusters_like_the_reference() {
    let mut items: Vec<SubTrajectory> = (0..200u64)
        .map(|i| {
            let x = (i * 4_999) % 1_000 * 1_000;
            let y = (i * 7_919) % 1_000 * 1_000;
            parked(i, (x as f64, y as f64))
        })
        .collect();
    // Stationary objects on the mover's diagonal, some within e of it.
    for i in 0..20u64 {
        let d = i as f64 * 50_000.0;
        items.push(parked(1_000 + i, (d, d + (i % 3) as f64)));
    }
    items.push(moving(5_000, (0.0, 0.0), (1e6, 1e6), (0, 10), 0.0));
    let mut scratch = SubTrajectoryScratch::new();
    for m in [2, 3] {
        assert_matches_reference(&mut scratch, &items, 1.5, m);
    }
}

#[test]
fn temporally_disjoint_items_never_neighbour() {
    let items = vec![
        moving(1, (0.0, 0.0), (5.0, 0.0), (0, 5), 0.0),
        moving(2, (0.0, 0.2), (5.0, 0.2), (6, 11), 0.0),
        moving(3, (0.0, 0.4), (5.0, 0.4), (0, 5), 0.0),
        moving(4, (0.0, 0.6), (5.0, 0.6), (6, 11), 0.0),
    ];
    let mut scratch = SubTrajectoryScratch::new();
    assert_matches_reference(&mut scratch, &items, 0.5, 2);
    let clusters = scratch.cluster(&items, 0.5, 2, SegmentDistance::Dll, ToleranceMode::Actual);
    assert!(clusters.iter().all(|c| c.len() == 2));
}

/// A random walk over `len` ticks starting at `t0`.
fn walk(start: (f64, f64), t0: i64, steps: &[(f64, f64)]) -> Trajectory {
    let (mut x, mut y) = start;
    let mut points = Vec::with_capacity(steps.len());
    for (t, (dx, dy)) in (t0..).zip(steps) {
        x += dx;
        y += dy;
        points.push(TrajPoint::new(x, y, t));
    }
    Trajectory::from_points(points).unwrap()
}

prop_compose! {
    fn arb_walk()(start in (-30.0f64..30.0, -30.0f64..30.0),
                  t0 in 0i64..20,
                  steps in proptest::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 1..30))
        -> Trajectory {
        walk(start, t0, &steps)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_walk_partitions_cluster_like_the_reference(
        walks in proptest::collection::vec(arb_walk(), 0..40),
        window_start in 0i64..25,
        window_len in 0i64..20,
        delta in 0.05f64..3.0,
        epsilon in 0.2f64..8.0,
        m in 1usize..5,
    ) {
        let window = TimeInterval::new(window_start, window_start + window_len);
        let mut scratch = SubTrajectoryScratch::new();
        for star in [false, true] {
            let items: Vec<SubTrajectory> = walks
                .iter()
                .enumerate()
                .filter_map(|(i, traj)| {
                    let simplified = if star {
                        DouglasPeuckerStar.simplify(traj, delta)
                    } else {
                        DouglasPeucker.simplify(traj, delta)
                    };
                    SubTrajectory::for_window(ObjectId(i as u64), &simplified, window)
                })
                .collect();
            for distance in DISTANCES {
                for mode in MODES {
                    let expected = reference(&items, epsilon, m, distance, mode);
                    prop_assert_eq!(
                        &scratch.cluster(&items, epsilon, m, distance, mode),
                        &expected,
                        "{:?} {:?}", distance, mode
                    );
                }
            }
        }
    }

    #[test]
    fn cursor_collection_matches_for_window(
        walks in proptest::collection::vec(arb_walk(), 1..8),
        lambda in 1i64..8,
        delta in 0.05f64..3.0,
    ) {
        // Ascending windows with one forward-only cursor per object select
        // exactly what the one-shot `for_window` selects.
        let simplified: Vec<_> = walks.iter().map(|t| DouglasPeucker.simplify(t, delta)).collect();
        let mut cursors = vec![0usize; simplified.len()];
        let mut start = 0i64;
        while start < 60 {
            let window = TimeInterval::new(start, start + lambda);
            for (i, s) in simplified.iter().enumerate() {
                let mut sub = SubTrajectory {
                    object: ObjectId(i as u64),
                    segments: Vec::new(),
                    global_tolerance: s.global_tolerance(),
                };
                sub.extend_for_window(s, window, &mut cursors[i]);
                let expected = SubTrajectory::for_window(ObjectId(i as u64), s, window);
                prop_assert_eq!((!sub.segments.is_empty()).then_some(sub), expected);
            }
            start += lambda;
        }
    }
}
