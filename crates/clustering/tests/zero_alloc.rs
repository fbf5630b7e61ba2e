//! Allocation regression harness for the snapshot-clustering hot path and
//! the CuTS filter's sub-trajectory clustering.
//!
//! The CSR grid + scratch-reuse rewrite promises that a *warmed*
//! [`SnapshotClusterer`] — one whose buffers have grown to the working-set
//! fixpoint — performs **zero heap allocations** per
//! [`SnapshotClusterer::cluster_into`] call. This test installs a counting
//! global allocator and asserts exactly that; any future change that
//! reintroduces per-tick allocation (a fresh `Vec` per neighbourhood query,
//! a rebuilt hash map, an allocating sort) fails it immediately.
//!
//! A warmed [`SubTrajectoryScratch`] is held to the same standard, except
//! for its output: a call may allocate the cluster list and each cluster's
//! member list it returns, and nothing that grows with the items or the
//! neighbour queries.
//!
//! The counting allocator is process-global, which is why this test lives in
//! its own integration-test binary: the `#[global_allocator]` would
//! otherwise count every other test's allocations too. It counts per thread:
//! the test harness allocates on its own threads whenever a test finishes,
//! and those allocations must not land in another test's measured window.

// The counting allocator is the one place in the workspace that needs
// `unsafe`: implementing `GlobalAlloc` requires it by definition. The
// workspace-level `unsafe_code = "deny"` is relaxed here only.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use traj_cluster::{
    snapshot_clusters, SegmentDistance, SnapshotClusterer, SubTrajectory, SubTrajectoryScratch,
};
use traj_simplify::{SimplifiedSegment, ToleranceMode};
use trajectory::database::SnapshotEntry;
use trajectory::geometry::{Point, Segment, TimedSegment};
use trajectory::{ObjectId, Snapshot, TimeInterval};

/// Forwards to the system allocator, counting every allocation call of the
/// calling thread (`alloc`, `realloc` growth included — a `Vec` growing its
/// capacity is an allocation the steady state must not perform).
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator must not panic, even during thread teardown.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Deterministic xorshift64* stream, so the snapshots are reproducible
/// without pulling a RNG dependency into the measured binary.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn coord(&mut self) -> f64 {
        (self.next() % 10_000) as f64 * 0.01
    }
}

/// A "tick": `n` objects scattered over a 100×100 world, id-ordered like
/// database snapshots are.
fn snapshot(rng: &mut XorShift, time: i64, n: usize) -> Snapshot {
    Snapshot {
        time,
        entries: (0..n)
            .map(|i| SnapshotEntry {
                id: ObjectId(i as u64),
                position: Point::new(rng.coord(), rng.coord()),
                interpolated: false,
            })
            .collect(),
    }
}

#[test]
fn warmed_clusterer_performs_zero_steady_state_allocations() {
    let mut rng = XorShift(0x9e3779b97f4a7c15);
    // Steady-state workload: 60 ticks of 400 objects (dense enough for real
    // clusters — e = 3 over a 100×100 world groups most of them).
    let ticks: Vec<Snapshot> = (0..60).map(|t| snapshot(&mut rng, t, 400)).collect();

    let mut clusterer = SnapshotClusterer::new();
    // Warm-up: two full passes grow every buffer (ids, points, CSR arrays,
    // DBSCAN scratch, pair buffer, cluster pool and each pooled cluster's
    // member vec) to the workload's fixpoint.
    for pass in 0..2 {
        for snap in &ticks {
            let clusters = clusterer.cluster_into(snap, 3.0, 3);
            assert!(
                !clusters.is_empty(),
                "warm-up pass {pass} found no clusters"
            );
        }
    }

    // Measured pass: not a single heap allocation across 60 further ticks.
    let before = allocations();
    let mut total_clusters = 0usize;
    for snap in &ticks {
        total_clusters += clusterer.cluster_into(snap, 3.0, 3).len();
    }
    let after = allocations();
    assert!(total_clusters > 0, "steady state produced no clusters");
    assert_eq!(
        after - before,
        0,
        "a warmed SnapshotClusterer must not allocate in steady state \
         ({} allocations over {} ticks)",
        after - before,
        ticks.len()
    );
}

#[test]
fn warmed_clusterer_stays_allocation_free_across_varying_tick_sizes() {
    // Shrinking ticks must also be free: every buffer is sized by the
    // *largest* snapshot seen, so smaller ones fit without growth.
    let mut rng = XorShift(0x2545f4914f6cdd1d);
    let sizes = [500usize, 120, 333, 60, 499, 7, 250];
    let ticks: Vec<Snapshot> = sizes
        .iter()
        .enumerate()
        .map(|(t, &n)| snapshot(&mut rng, t as i64, n))
        .collect();

    let mut clusterer = SnapshotClusterer::new();
    for snap in &ticks {
        clusterer.cluster_into(snap, 3.0, 2);
    }
    let before = allocations();
    for snap in &ticks {
        clusterer.cluster_into(snap, 3.0, 2);
    }
    assert_eq!(
        allocations() - before,
        0,
        "shrinking or revisited ticks must reuse the grown buffers"
    );
}

#[test]
fn clusterer_output_still_matches_one_shot_clustering() {
    // Sanity inside the counting binary: the allocation-free path is the
    // same clustering, not a cheaper approximation.
    let mut rng = XorShift(0xdeadbeefcafef00d);
    let mut clusterer = SnapshotClusterer::new();
    for t in 0..10 {
        let snap = snapshot(&mut rng, t, 150);
        assert_eq!(
            clusterer.cluster_into(&snap, 2.5, 3).to_vec(),
            snapshot_clusters(&snap, 2.5, 3),
        );
    }
}

/// A λ-partition of `n` sub-trajectories, each two short segments over a
/// 100×100 world, some of them single-tick.
fn partition(rng: &mut XorShift, n: usize) -> Vec<SubTrajectory> {
    (0..n)
        .map(|i| {
            let (x, y) = (rng.coord(), rng.coord());
            let (mx, my) = (x + rng.coord() * 0.02, y + rng.coord() * 0.02);
            let (ex, ey) = (mx + rng.coord() * 0.02, my - rng.coord() * 0.02);
            let mut segment = |from: (f64, f64), to: (f64, f64), t0, t1| SimplifiedSegment {
                timed: TimedSegment::new(
                    Segment::new(Point::new(from.0, from.1), Point::new(to.0, to.1)),
                    TimeInterval::new(t0, t1),
                ),
                actual_tolerance: (rng.next() % 100) as f64 * 0.005,
                start_index: 0,
                end_index: 1,
            };
            let segments = if i % 7 == 0 {
                vec![segment((x, y), (x, y), 3, 3)]
            } else {
                vec![
                    segment((x, y), (mx, my), 0, 4),
                    segment((mx, my), (ex, ey), 4, 9),
                ]
            };
            SubTrajectory {
                object: ObjectId(i as u64),
                segments,
                global_tolerance: 0.5,
            }
        })
        .collect()
}

#[test]
fn warmed_sub_trajectory_scratch_allocates_only_its_output() {
    let mut rng = XorShift(0x853c49e6748fea9b);
    let sizes = [400usize, 90, 333, 12, 250, 2, 399];
    let partitions: Vec<Vec<SubTrajectory>> =
        sizes.iter().map(|&n| partition(&mut rng, n)).collect();
    let runs = [
        (SegmentDistance::Dll, ToleranceMode::Actual),
        (SegmentDistance::DStar, ToleranceMode::Global),
    ];

    let mut scratch = SubTrajectoryScratch::new();
    for _ in 0..2 {
        for items in &partitions {
            for (distance, mode) in runs {
                scratch.cluster(items, 2.0, 3, distance, mode);
            }
        }
    }

    let queries_before = scratch.counters().grid_candidates;
    let mut total_clusters = 0u64;
    for items in &partitions {
        for (distance, mode) in runs {
            let before = allocations();
            let clusters = scratch.cluster(items, 2.0, 3, distance, mode);
            let used = allocations() - before;
            let returned = clusters.len() as u64;
            assert!(
                used <= returned + 1,
                "{} items, {returned} clusters: {used} allocations",
                items.len()
            );
            total_clusters += returned;
        }
    }
    let candidates = scratch.counters().grid_candidates - queries_before;
    assert!(total_clusters > 0, "the partitions produced no clusters");
    assert!(
        candidates > 10 * total_clusters,
        "the workload must do far more neighbour work ({candidates} candidate pairs) \
         than it returns clusters ({total_clusters})"
    );
}
