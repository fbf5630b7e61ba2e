//! Clustering of simplified sub-trajectories — the "TRAJ-DBSCAN" used by the
//! CuTS filter step (Algorithm 2, Sections 5.2–5.3 and 6.2 of the paper).
//!
//! Within one time partition, every object contributes the portion of its
//! simplified trajectory whose segments intersect the partition (a
//! [`SubTrajectory`]). Two sub-trajectories are neighbours when their ω
//! distance does not exceed `e`:
//!
//! ```text
//! ω(o′q, o′i) = min { dist(l′q, l′i) − δ(l′q) − δ(l′i)
//!                     | l′q ∈ o′q, l′i ∈ o′i, l′q.τ ∩ l′i.τ ≠ ∅ }
//! ```
//!
//! where `dist` is `DLL` (Lemma 1, used by CuTS and CuTS+) or the tighter CPA
//! distance `D*` (Lemma 3, used by CuTS*). Lemma 2 is applied first: when the
//! minimum distance between the sub-trajectories' bounding boxes already
//! exceeds `e + δ(l′q) + δ_max`, no segment pair needs to be examined.
//!
//! ## The per-partition index
//!
//! A filter clusters hundreds of partitions, each of a few hundred
//! sub-trajectories, so the index is rebuilt per partition inside a
//! [`SubTrajectoryScratch`] that lives across partitions — the same
//! zero-allocation discipline as [`crate::GridIndex`]:
//!
//! * **CSR grid.** Each sub-trajectory's bounding box, grown by its `δ_max`
//!   and by `e / 2`, is registered in every uniform-grid cell it overlaps
//!   (cell side: the mean grown extent). One hash pass and a counting
//!   scatter group the registrations into flat `keys` / `offsets` /
//!   `entries` arrays. Two boxes that Lemma 2 cannot separate share a cell,
//!   so the candidate pairs are the pairs within each cell; a pair is taken
//!   only in the first cell its two cell ranges share, so it is tested once.
//! * **Overflow list.** A box spanning more cells than the partition has
//!   items (a long mover, when the cell side fits the typical item) or a
//!   non-finite box is not registered: it is paired with every item instead.
//!   Every item's registrations are thus bounded by the item count, where
//!   one long mover alone used to register in ~n² cells.
//! * **Adjacency rows.** Each candidate pair is tested in both directions —
//!   temporal overlap, Lemma 2, then ω — and the hits are sorted into CSR
//!   rows, so every DBSCAN neighbour query is one slice copy into the
//!   caller's buffer. The rows are exactly the neighbourhoods a per-item
//!   scan would report, in ascending order, so the labels are too.
//!
//! The caller side of the discipline is [`SubTrajectory::extend_for_window`]
//! and [`SubTrajectoryPool`]: a filter sweeping ascending windows keeps one
//! segment cursor per object and refills pooled [`SubTrajectory`] buffers,
//! touching only the objects whose time span meets the window.

use crate::cluster::Cluster;
use crate::dbscan::{dbscan_with_core_flags_into, DbscanScratch, Label, RegionQuery};
use crate::grid::GridIndex;
use serde::{Deserialize, Serialize};
use traj_simplify::{SimplifiedSegment, SimplifiedTrajectory, ToleranceMode};
use trajectory::geometry::BoundingBox;
use trajectory::{ObjectId, TimeInterval};

/// Which segment-to-segment distance the filter step uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentDistance {
    /// The spatial shortest distance `DLL` between segments (Lemma 1;
    /// CuTS and CuTS+).
    Dll,
    /// The closest-point-of-approach distance `D*` restricted to the common
    /// time interval (Lemma 3; CuTS*). Requires the segments to have been
    /// produced by a time-aware simplifier (DP*) for the bound to be tight,
    /// but is *correct* for any simplifier because `D* ≥ DLL`... it is only
    /// *safe* when the simplification error is measured synchronously, which
    /// DP* guarantees.
    DStar,
}

impl SegmentDistance {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            SegmentDistance::Dll => "DLL",
            SegmentDistance::DStar => "D*",
        }
    }

    /// The distance between two simplified segments under this function.
    /// Returns `f64::INFINITY` when `D*` is requested and the segments' time
    /// intervals do not intersect.
    pub fn distance(&self, a: &SimplifiedSegment, b: &SimplifiedSegment) -> f64 {
        match self {
            SegmentDistance::Dll => a.segment().distance_to_segment(&b.segment()),
            SegmentDistance::DStar => a.timed.cpa_distance(&b.timed),
        }
    }
}

/// The portion of one object's simplified trajectory that falls into one time
/// partition: the unit of clustering in the CuTS filter step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubTrajectory {
    /// The object the sub-trajectory belongs to.
    pub object: ObjectId,
    /// The simplified segments whose time intervals intersect the partition.
    pub segments: Vec<SimplifiedSegment>,
    /// The global simplification tolerance the segments were produced with.
    pub global_tolerance: f64,
}

impl SubTrajectory {
    /// Builds the sub-trajectory of `simplified` for the given partition
    /// window: the segments whose time interval intersects `window`.
    /// Returns `None` when no segment intersects the window (the object is
    /// absent from this partition).
    ///
    /// Single-sample simplified trajectories (no segments) are represented by
    /// a degenerate segment so that such objects can still join clusters.
    pub fn for_window(
        object: ObjectId,
        simplified: &SimplifiedTrajectory,
        window: TimeInterval,
    ) -> Option<SubTrajectory> {
        let mut sub = SubTrajectory {
            object,
            segments: Vec::new(),
            global_tolerance: simplified.global_tolerance(),
        };
        sub.extend_for_window(simplified, window, &mut 0);
        (!sub.segments.is_empty()).then_some(sub)
    }

    /// Appends the segments of `simplified` whose time interval intersects
    /// `window` — [`SubTrajectory::for_window`]'s selection, including its
    /// degenerate segment for a single-sample trajectory.
    ///
    /// `cursor` is the search start of
    /// [`SimplifiedTrajectory::segments_intersecting`]: a caller visiting
    /// ascending windows keeps one per object, so it only moves forward; a
    /// one-shot caller passes `&mut 0`.
    pub fn extend_for_window(
        &mut self,
        simplified: &SimplifiedTrajectory,
        window: TimeInterval,
        cursor: &mut usize,
    ) {
        if simplified.segments().is_empty() {
            // Single-sample trajectory: include it when its instant lies
            // inside the window.
            let only = simplified.points()[0];
            if window.contains(only.t) {
                let seg = trajectory::geometry::Segment::new(only.position(), only.position());
                self.segments.push(SimplifiedSegment {
                    timed: trajectory::geometry::segment::TimedSegment::new(
                        seg,
                        TimeInterval::instant(only.t),
                    ),
                    actual_tolerance: 0.0,
                    start_index: 0,
                    end_index: 0,
                });
            }
            return;
        }
        self.segments
            .extend_from_slice(simplified.segments_intersecting(window, cursor));
    }

    /// The time interval covered by the sub-trajectory's segments.
    pub fn time_interval(&self) -> TimeInterval {
        let first = self.segments[0].interval();
        self.segments
            .iter()
            .skip(1)
            .fold(first, |acc, s| acc.hull(&s.interval()))
    }

    /// The spatial bounding box `B(S)` of all segments (Lemma 2).
    pub fn bounding_box(&self) -> BoundingBox {
        let mut bbox = self.segments[0].bounding_box();
        for s in &self.segments[1..] {
            bbox = bbox.union(&s.bounding_box());
        }
        bbox
    }

    /// The largest per-segment tolerance, `δ_max(S)` of Lemma 2, under the
    /// chosen tolerance mode.
    pub fn max_tolerance(&self, mode: ToleranceMode) -> f64 {
        self.segments
            .iter()
            .map(|s| mode.tolerance_for(s.actual_tolerance, self.global_tolerance))
            .fold(0.0, f64::max)
    }
}

/// A pool of [`SubTrajectory`] buffers refilled partition after partition:
/// once it has grown to the largest partition, collecting one allocates
/// nothing. The batch and the streaming filter both collect through it.
#[derive(Debug, Clone, Default)]
pub struct SubTrajectoryPool {
    items: Vec<SubTrajectory>,
    len: usize,
}

impl SubTrajectoryPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the collected sub-trajectories, keeping their buffers.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Collects the sub-trajectory of `object` whose segments `fill`
    /// appends (with [`SubTrajectory::extend_for_window`]) to an emptied
    /// buffer. One left without segments — the object is absent from the
    /// window — is not kept.
    pub fn push_with(
        &mut self,
        object: ObjectId,
        global_tolerance: f64,
        fill: impl FnOnce(&mut SubTrajectory),
    ) {
        if self.len == self.items.len() {
            self.items.push(SubTrajectory {
                object,
                segments: Vec::new(),
                global_tolerance,
            });
        }
        let sub = &mut self.items[self.len];
        sub.object = object;
        sub.global_tolerance = global_tolerance;
        sub.segments.clear();
        fill(sub);
        if !sub.segments.is_empty() {
            self.len += 1;
        }
    }

    /// The sub-trajectories collected since the last
    /// [`SubTrajectoryPool::clear`], in collection order.
    pub fn items(&self) -> &[SubTrajectory] {
        &self.items[..self.len]
    }
}

/// The ω distance between two sub-trajectories (Section 5.2, "Extension for
/// trajectories"), under the chosen segment distance and tolerance mode.
///
/// Returns `f64::INFINITY` when no segment pair shares a time interval — such
/// objects can never be density-connected within the partition.
pub fn omega_distance(
    a: &SubTrajectory,
    b: &SubTrajectory,
    distance: SegmentDistance,
    mode: ToleranceMode,
) -> f64 {
    let mut best = f64::INFINITY;
    for sa in &a.segments {
        let tol_a = mode.tolerance_for(sa.actual_tolerance, a.global_tolerance);
        for sb in &b.segments {
            if !sa.interval().intersects(&sb.interval()) {
                continue;
            }
            let tol_b = mode.tolerance_for(sb.actual_tolerance, b.global_tolerance);
            let d = distance.distance(sa, sb) - tol_a - tol_b;
            if d < best {
                best = d;
            }
        }
    }
    best
}

/// Work counters of the sub-trajectory index, summed over every
/// [`SubTrajectoryScratch::cluster`] call of one scratch — the "why" behind
/// the filter step's time: how much the grid, the temporal test and Lemma 2
/// pruned before the exact ω computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubTrajectoryCounters {
    /// `(cell, item)` registrations written into the CSR grid.
    pub cells_registered: u64,
    /// Items kept out of the grid in the overflow list (boxes spanning more
    /// cells than the partition has items, or non-finite boxes).
    pub overflow_items: u64,
    /// Candidate pairs the grid and the overflow list produced, counted
    /// once per direction (a neighbourhood is not symmetric bit for bit:
    /// ω and Lemma 2 are evaluated for `(i, j)` and for `(j, i)`).
    pub grid_candidates: u64,
    /// Candidates discarded because the two time intervals are disjoint.
    pub temporal_prunes: u64,
    /// Candidates discarded by the Lemma 2 bounding-box test.
    pub lemma2_prunes: u64,
    /// Exact ω evaluations (candidates surviving both pre-filters).
    pub omega_evaluations: u64,
    /// Segment pairs those ω evaluations scanned: `|a| · |b|` per
    /// evaluation, the real cost of [`omega_distance`].
    pub segment_pairs: u64,
}

/// One partition's neighbourhood relation, built from reused buffers.
///
/// **Grid.** Every item's bounding box, grown by its `δ_max` and by half the
/// search radius, is registered in each uniform-grid cell it overlaps; two
/// items can only be neighbours (Lemma 2) when their grown boxes overlap,
/// and then they share a cell. The registrations are grouped per cell in
/// CSR form — `keys[k]` is an occupied cell and
/// `entries[offsets[k]..offsets[k + 1]]` its items, ascending — by one
/// open-addressed hash pass and a counting scatter, no sort and no per-cell
/// `Vec`. Candidate pairs are the pairs within a cell. A pair that shares
/// several cells is taken only in the first cell of the intersection of its
/// two cell ranges, so no deduplication pass is needed.
///
/// **Overflow.** An item whose grown box spans more cells than the partition
/// has items — a long mover under a cell size fitted to the typical item —
/// or whose box is not finite is not registered at all. It goes to the
/// overflow list and is paired with every other item instead, which bounds
/// every item's registrations by the item count. Since the cell side is the
/// mean grown extent, only about `√n` items can overflow.
///
/// **Adjacency.** Each candidate pair is tested in both directions exactly
/// as `neighbours(i) ∋ j ⇔ pred(i, j)` is defined (temporal test, Lemma 2,
/// ω ≤ e), and the hits are sorted into CSR rows: `links[rows[i]..
/// rows[i + 1]]` is item `i`'s neighbourhood, ascending, itself included.
/// A DBSCAN neighbour query is then one slice copy.
#[derive(Debug, Clone, Default)]
struct SubTrajectoryIndex {
    bboxes: Vec<BoundingBox>,
    max_tolerances: Vec<f64>,
    intervals: Vec<TimeInterval>,
    /// Per item: its cell range, or `None` for an overflow item.
    ranges: Vec<Option<CellRange>>,
    /// `(cell, item)` registrations, in item order.
    registrations: Vec<((i64, i64), usize)>,
    /// Per registration, the rank of its cell in `keys`.
    ranks: Vec<usize>,
    /// Open-addressed cell → rank table ([`EMPTY`] marks a free slot).
    table: Vec<usize>,
    keys: Vec<(i64, i64)>,
    offsets: Vec<usize>,
    entries: Vec<usize>,
    overflow: Vec<usize>,
    /// `(item, neighbour)` pairs, sorted: the CSR rows of the relation.
    links: Vec<(usize, usize)>,
    /// `links[rows[i]..rows[i + 1]]` is item `i`'s row.
    rows: Vec<usize>,
    counters: SubTrajectoryCounters,
}

/// Marks a free slot of [`SubTrajectoryIndex::table`].
const EMPTY: usize = usize::MAX;

/// An inclusive rectangle of grid cells.
#[derive(Debug, Clone, Copy)]
struct CellRange {
    x0: i64,
    y0: i64,
    x1: i64,
    y1: i64,
}

impl CellRange {
    /// The cells `bbox` overlaps, or `None` when the box is not finite.
    fn of(bbox: &BoundingBox, cell_size: f64) -> Option<CellRange> {
        let finite = [bbox.min.x, bbox.min.y, bbox.max.x, bbox.max.y]
            .iter()
            .all(|v| v.is_finite());
        finite.then(|| CellRange {
            x0: GridIndex::cell_coord(bbox.min.x, cell_size),
            y0: GridIndex::cell_coord(bbox.min.y, cell_size),
            x1: GridIndex::cell_coord(bbox.max.x, cell_size),
            y1: GridIndex::cell_coord(bbox.max.y, cell_size),
        })
    }

    fn cells(&self) -> i128 {
        (i128::from(self.x1) - i128::from(self.x0) + 1)
            * (i128::from(self.y1) - i128::from(self.y0) + 1)
    }
}

impl SubTrajectoryIndex {
    // lint: hot-path — the per-partition build and pair loop; every buffer is reused
    fn build(
        &mut self,
        items: &[SubTrajectory],
        epsilon: f64,
        distance: SegmentDistance,
        mode: ToleranceMode,
    ) {
        let n = items.len();
        self.bboxes.clear();
        self.max_tolerances.clear();
        self.intervals.clear();
        for item in items {
            self.bboxes.push(item.bounding_box());
            self.max_tolerances.push(item.max_tolerance(mode));
            self.intervals.push(item.time_interval());
        }

        // Cell side: the average grown-box extent, so a typical box
        // overlaps only a handful of cells. Boxes with a non-finite extent
        // overflow and stay out of the mean.
        let mut extent_sum = 0.0f64;
        let mut finite = 0usize;
        for (bbox, tol) in self.bboxes.iter().zip(&self.max_tolerances) {
            let extent = (bbox.width() + bbox.height()) * 0.5 + 2.0 * tol;
            if extent.is_finite() {
                extent_sum += extent;
                finite += 1;
            }
        }
        let mean_extent = if finite == 0 {
            0.0
        } else {
            extent_sum / finite as f64
        };
        let cell_size = (mean_extent + epsilon).max(epsilon).max(f64::EPSILON);

        self.ranges.clear();
        self.registrations.clear();
        self.overflow.clear();
        for i in 0..n {
            let grown = self.bboxes[i].expanded(self.max_tolerances[i] + 0.5 * epsilon);
            match CellRange::of(&grown, cell_size) {
                Some(r) if r.cells() <= n as i128 => {
                    self.ranges.push(Some(r));
                    for cx in r.x0..=r.x1 {
                        for cy in r.y0..=r.y1 {
                            self.registrations.push(((cx, cy), i));
                        }
                    }
                }
                _ => {
                    self.ranges.push(None);
                    self.overflow.push(i);
                }
            }
        }
        self.group_by_cell();
        self.counters.cells_registered += self.registrations.len() as u64;
        self.counters.overflow_items += self.overflow.len() as u64;

        self.links.clear();
        self.links.extend((0..n).map(|i| (i, i)));
        for k in 0..self.keys.len() {
            let cell = self.keys[k];
            let (start, end) = (self.offsets[k], self.offsets[k + 1]);
            for a in start..end {
                let i = self.entries[a];
                for b in a + 1..end {
                    let j = self.entries[b];
                    // Take the pair only in the first cell its two ranges
                    // share.
                    if let (Some(ri), Some(rj)) = (self.ranges[i], self.ranges[j]) {
                        if (ri.x0.max(rj.x0), ri.y0.max(rj.y0)) == cell {
                            self.test_pair(items, i, j, epsilon, distance, mode);
                        }
                    }
                }
            }
        }
        for o in 0..self.overflow.len() {
            let i = self.overflow[o];
            for j in 0..n {
                // Overflow–overflow pairs are tested once, from the smaller
                // index.
                if j != i && (self.ranges[j].is_some() || j > i) {
                    self.test_pair(items, i, j, epsilon, distance, mode);
                }
            }
        }

        self.links.sort_unstable();
        self.rows.clear();
        for (pos, &(i, _)) in self.links.iter().enumerate() {
            while self.rows.len() <= i {
                self.rows.push(pos);
            }
        }
        while self.rows.len() <= n {
            self.rows.push(self.links.len());
        }
    }

    /// Groups `registrations` into the `keys` / `offsets` / `entries` CSR:
    /// a hash pass ranks every distinct cell in first-seen order and counts
    /// its items, and a backward scatter fills each cell's extent in
    /// registration (= ascending item) order.
    // lint: hot-path — per-partition grouping into reused buffers
    fn group_by_cell(&mut self) {
        let size = (2 * self.registrations.len()).max(2).next_power_of_two();
        let shift = 64 - size.trailing_zeros();
        self.table.clear();
        self.table.resize(size, EMPTY);
        self.keys.clear();
        self.offsets.clear();
        self.ranks.clear();
        for &(cell, _) in &self.registrations {
            let mut slot = (GridIndex::hash_key(GridIndex::pack(cell)) >> shift) as usize;
            let rank = loop {
                let rank = self.table[slot];
                if rank == EMPTY {
                    self.table[slot] = self.keys.len();
                    self.keys.push(cell);
                    self.offsets.push(0);
                    break self.keys.len() - 1;
                }
                if self.keys[rank] == cell {
                    break rank;
                }
                slot = (slot + 1) & (size - 1);
            };
            self.offsets[rank] += 1;
            self.ranks.push(rank);
        }
        // Inclusive prefix sums: `offsets[k]` is the end of cell `k`'s extent
        // until the scatter below walks it back to the start.
        let mut total = 0;
        for offset in &mut self.offsets {
            total += *offset;
            *offset = total;
        }
        self.entries.clear();
        self.entries.resize(total, 0);
        for (&(_, item), &rank) in self.registrations.iter().zip(&self.ranks).rev() {
            self.offsets[rank] -= 1;
            self.entries[self.offsets[rank]] = item;
        }
        self.offsets.push(total);
    }

    /// Tests the candidate pair `{i, j}` in both directions and records
    /// each direction that is a neighbour link.
    fn test_pair(
        &mut self,
        items: &[SubTrajectory],
        i: usize,
        j: usize,
        epsilon: f64,
        distance: SegmentDistance,
        mode: ToleranceMode,
    ) {
        self.counters.grid_candidates += 2;
        // Temporal pre-filter: objects absent from each other's time range
        // cannot be neighbours.
        if !self.intervals[i].intersects(&self.intervals[j]) {
            self.counters.temporal_prunes += 2;
            return;
        }
        for (a, b) in [(i, j), (j, i)] {
            // Lemma 2: bounding-box pre-filter with δ_max values.
            let bound = epsilon + self.max_tolerances[a] + self.max_tolerances[b];
            if self.bboxes[a].min_distance(&self.bboxes[b]) > bound {
                self.counters.lemma2_prunes += 1;
                continue;
            }
            // Lemma 1 / Lemma 3: exact ω computation over segment pairs.
            self.counters.omega_evaluations += 1;
            self.counters.segment_pairs +=
                (items[a].segments.len() * items[b].segments.len()) as u64;
            if omega_distance(&items[a], &items[b], distance, mode) <= epsilon {
                self.links.push((a, b));
            }
        }
    }
}

impl RegionQuery for SubTrajectoryIndex {
    fn len(&self) -> usize {
        self.bboxes.len()
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.neighbors_into(idx, &mut out);
        out
    }

    // lint: hot-path — one call per item per partition: a row copy into the caller's buffer
    fn neighbors_into(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.links[self.rows[idx]..self.rows[idx + 1]]
                .iter()
                .map(|&(_, j)| j),
        );
    }
}

/// Reusable working state for sub-trajectory clustering: the per-partition
/// CSR index (boxes, tolerances, intervals, cell registrations, overflow
/// list), the DBSCAN working arrays and the label-grouping buffer.
///
/// One scratch lives across all partitions of a filter run (batch or
/// stream); once its buffers have grown to the largest partition, a
/// [`SubTrajectoryScratch::cluster`] call allocates only the clusters it
/// returns. It carries no result state between calls apart from its
/// [`SubTrajectoryCounters`].
#[derive(Debug, Clone, Default)]
pub struct SubTrajectoryScratch {
    index: SubTrajectoryIndex,
    dbscan: DbscanScratch,
    /// `(cluster id, item index)` pairs, sorted to group members per cluster.
    groups: Vec<(usize, usize)>,
}

impl SubTrajectoryScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The work counters summed over every call so far.
    pub fn counters(&self) -> SubTrajectoryCounters {
        self.index.counters
    }

    /// Density-clusters the sub-trajectories of one time partition
    /// (TRAJ-DBSCAN of Algorithm 2), returning clusters of object ids —
    /// exactly what [`cluster_sub_trajectories`] returns, reusing this
    /// scratch's buffers.
    pub fn cluster(
        &mut self,
        items: &[SubTrajectory],
        epsilon: f64,
        m: usize,
        distance: SegmentDistance,
        mode: ToleranceMode,
    ) -> Vec<Cluster> {
        if items.len() < m {
            return Vec::new();
        }
        self.index.build(items, epsilon, distance, mode);
        dbscan_with_core_flags_into(&self.index, m, &mut self.dbscan);

        // Group the labelled items per cluster: sorting `(cluster, item)`
        // pairs lists every cluster's members in ascending item order, as
        // `labels_to_clusters` does.
        self.groups.clear();
        for (i, label) in self.dbscan.labels().iter().enumerate() {
            if let Label::Cluster(c) = label {
                self.groups.push((*c, i));
            }
        }
        self.groups.sort_unstable();
        // Cluster ids are dense, so the last group's id sizes the output:
        // one allocation for it plus one per cluster's members.
        let mut clusters = Vec::with_capacity(self.groups.last().map_or(0, |&(c, _)| c + 1));
        for members in self.groups.chunk_by(|a, b| a.0 == b.0) {
            clusters.push(Cluster::new(
                members.iter().map(|&(_, i)| items[i].object).collect(),
            ));
        }
        clusters
    }
}

/// Density-clusters the sub-trajectories of one time partition
/// (TRAJ-DBSCAN of Algorithm 2), returning clusters of object ids.
///
/// One-shot convenience over [`SubTrajectoryScratch::cluster`] — a filter
/// that clusters partition after partition should hold a scratch instead.
pub fn cluster_sub_trajectories(
    items: &[SubTrajectory],
    epsilon: f64,
    m: usize,
    distance: SegmentDistance,
    mode: ToleranceMode,
) -> Vec<Cluster> {
    SubTrajectoryScratch::new().cluster(items, epsilon, m, distance, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use traj_simplify::{DouglasPeucker, DouglasPeuckerStar, Simplifier};
    use trajectory::{TrajPoint, Trajectory};

    fn straight_trajectory(x0: f64, y0: f64, dx: f64, dy: f64, len: i64) -> Trajectory {
        Trajectory::from_points(
            (0..len)
                .map(|t| TrajPoint::new(x0 + dx * t as f64, y0 + dy * t as f64, t))
                .collect(),
        )
        .unwrap()
    }

    fn sub(object: u64, traj: &Trajectory, delta: f64, window: TimeInterval) -> SubTrajectory {
        let simplified = DouglasPeucker.simplify(traj, delta);
        SubTrajectory::for_window(ObjectId(object), &simplified, window).unwrap()
    }

    #[test]
    fn omega_of_parallel_trajectories_is_their_gap_minus_tolerances() {
        let a = straight_trajectory(0.0, 0.0, 1.0, 0.0, 10);
        let b = straight_trajectory(0.0, 5.0, 1.0, 0.0, 10);
        let window = TimeInterval::new(0, 9);
        let sa = sub(1, &a, 0.5, window);
        let sb = sub(2, &b, 0.5, window);
        // Straight lines simplify losslessly: actual tolerances are zero, so
        // ω equals the spatial gap.
        let omega = omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Actual);
        assert!((omega - 5.0).abs() < 1e-9);
        // With the global tolerance the bound is looser by 2·δ.
        let omega_global = omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Global);
        assert!((omega_global - 4.0).abs() < 1e-9);
    }

    #[test]
    fn omega_is_infinite_for_temporally_disjoint_objects() {
        let a = Trajectory::from_tuples([(0.0, 0.0, 0), (5.0, 0.0, 5)]).unwrap();
        let b = Trajectory::from_tuples([(0.0, 0.0, 10), (5.0, 0.0, 15)]).unwrap();
        let sa = SubTrajectory::for_window(
            ObjectId(1),
            &DouglasPeucker.simplify(&a, 0.1),
            TimeInterval::new(0, 20),
        )
        .unwrap();
        let sb = SubTrajectory::for_window(
            ObjectId(2),
            &DouglasPeucker.simplify(&b, 0.1),
            TimeInterval::new(0, 20),
        )
        .unwrap();
        assert_eq!(
            omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Actual),
            f64::INFINITY
        );
    }

    #[test]
    fn dstar_distance_is_at_least_dll_distance() {
        // Two objects moving in opposite directions along nearby parallel
        // lines: spatially the segments nearly touch, but synchronously they
        // are only close in the middle.
        let a = straight_trajectory(0.0, 0.0, 1.0, 0.0, 11);
        let b = straight_trajectory(10.0, 1.0, -1.0, 0.0, 11);
        let window = TimeInterval::new(0, 10);
        let sa = sub(1, &a, 0.1, window);
        let sb = sub(2, &b, 0.1, window);
        let dll = omega_distance(&sa, &sb, SegmentDistance::Dll, ToleranceMode::Actual);
        let dstar = omega_distance(&sa, &sb, SegmentDistance::DStar, ToleranceMode::Actual);
        assert!(
            dstar >= dll - 1e-9,
            "D* ω ({dstar}) must be ≥ DLL ω ({dll})"
        );
    }

    #[test]
    fn for_window_selects_intersecting_segments_only() {
        // A trajectory with a sharp corner at t=10 so the simplification keeps
        // two segments: [0,10] and [10,20].
        let mut pts: Vec<TrajPoint> = (0..=10).map(|t| TrajPoint::new(t as f64, 0.0, t)).collect();
        pts.extend((11..=20).map(|t| TrajPoint::new(10.0, (t - 10) as f64, t)));
        let traj = Trajectory::from_points(pts).unwrap();
        let simplified = DouglasPeucker.simplify(&traj, 0.5);
        assert_eq!(simplified.segments().len(), 2);
        let early =
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(0, 5)).unwrap();
        assert_eq!(early.segments.len(), 1);
        let spanning =
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(5, 15)).unwrap();
        assert_eq!(spanning.segments.len(), 2);
        assert!(
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(30, 40))
                .is_none()
        );
    }

    #[test]
    fn single_sample_object_gets_degenerate_segment() {
        let traj = Trajectory::from_tuples([(3.0, 3.0, 5)]).unwrap();
        let simplified = DouglasPeucker.simplify(&traj, 0.5);
        let s =
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(0, 10)).unwrap();
        assert_eq!(s.segments.len(), 1);
        assert!(s.segments[0].segment().is_degenerate());
        assert!(
            SubTrajectory::for_window(ObjectId(1), &simplified, TimeInterval::new(6, 10)).is_none()
        );
    }

    #[test]
    fn clustering_groups_co_moving_objects() {
        // Three objects moving together, two moving together elsewhere, one loner.
        let window = TimeInterval::new(0, 19);
        let items: Vec<SubTrajectory> = vec![
            sub(1, &straight_trajectory(0.0, 0.0, 1.0, 0.0, 20), 0.5, window),
            sub(2, &straight_trajectory(0.0, 1.0, 1.0, 0.0, 20), 0.5, window),
            sub(3, &straight_trajectory(0.0, 2.0, 1.0, 0.0, 20), 0.5, window),
            sub(
                4,
                &straight_trajectory(100.0, 0.0, 0.0, 1.0, 20),
                0.5,
                window,
            ),
            sub(
                5,
                &straight_trajectory(101.0, 0.0, 0.0, 1.0, 20),
                0.5,
                window,
            ),
            sub(
                6,
                &straight_trajectory(500.0, 500.0, -1.0, 1.0, 20),
                0.5,
                window,
            ),
        ];
        let clusters =
            cluster_sub_trajectories(&items, 1.5, 2, SegmentDistance::Dll, ToleranceMode::Actual);
        assert_eq!(clusters.len(), 2);
        assert_eq!(
            clusters[0].members(),
            &[ObjectId(1), ObjectId(2), ObjectId(3)]
        );
        assert_eq!(clusters[1].members(), &[ObjectId(4), ObjectId(5)]);
    }

    #[test]
    fn clustering_respects_min_points() {
        let window = TimeInterval::new(0, 9);
        let items: Vec<SubTrajectory> = vec![
            sub(1, &straight_trajectory(0.0, 0.0, 1.0, 0.0, 10), 0.5, window),
            sub(2, &straight_trajectory(0.0, 1.0, 1.0, 0.0, 10), 0.5, window),
        ];
        assert!(cluster_sub_trajectories(
            &items,
            1.5,
            3,
            SegmentDistance::Dll,
            ToleranceMode::Actual
        )
        .is_empty());
        assert!(cluster_sub_trajectories(
            &items[..1],
            1.5,
            2,
            SegmentDistance::Dll,
            ToleranceMode::Actual
        )
        .is_empty());
    }

    /// A one-segment item from `from` to `to` over the ticks `0..=10`.
    fn segment_item(object: u64, from: (f64, f64), to: (f64, f64)) -> SubTrajectory {
        use trajectory::geometry::{Point, Segment, TimedSegment};
        SubTrajectory {
            object: ObjectId(object),
            segments: vec![SimplifiedSegment {
                timed: TimedSegment::new(
                    Segment::new(Point::new(from.0, from.1), Point::new(to.0, to.1)),
                    TimeInterval::new(0, 10),
                ),
                actual_tolerance: 0.0,
                start_index: 0,
                end_index: 1,
            }],
            global_tolerance: 0.0,
        }
    }

    #[test]
    fn a_long_mover_overflows_instead_of_registering_in_every_cell() {
        // n stationary objects plus one whose single segment crosses the
        // whole world. The cell side follows the mean extent, so without the
        // overflow list the mover alone registers in, and is paired through,
        // about n² cells. Asserted on work done, not on time.
        for n in [500u64, 2000, 8000] {
            let mut state = 0x2545_f491_4f6c_dd1d_u64;
            let mut coord = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000_000) as f64
            };
            let mut items: Vec<SubTrajectory> = (0..n)
                .map(|i| {
                    let p = (coord(), coord());
                    segment_item(i, p, p)
                })
                .collect();
            items.push(segment_item(n, (0.0, 0.0), (1e6, 1e6)));
            let mut scratch = SubTrajectoryScratch::new();
            scratch.cluster(&items, 5.0, 3, SegmentDistance::Dll, ToleranceMode::Actual);
            let work = scratch.counters();
            let len = items.len() as u64;
            assert_eq!(work.overflow_items, 1, "n = {n}");
            assert!(
                work.cells_registered <= 4 * len,
                "n = {n}: {} cell registrations for {len} items",
                work.cells_registered
            );
            assert!(
                work.grid_candidates <= 4 * len,
                "n = {n}: {} candidate pairs for {len} items",
                work.grid_candidates
            );
        }
    }

    #[test]
    fn non_finite_boxes_overflow_and_never_neighbour() {
        let items = vec![
            segment_item(1, (0.0, 0.0), (1.0, 0.0)),
            segment_item(2, (0.0, 0.5), (1.0, 0.5)),
            segment_item(3, (f64::INFINITY, 0.0), (f64::INFINITY, 0.0)),
            segment_item(4, (0.0, 1.0), (1.0, 1.0)),
        ];
        let mut scratch = SubTrajectoryScratch::new();
        let clusters = scratch.cluster(&items, 0.6, 2, SegmentDistance::Dll, ToleranceMode::Actual);
        assert!(scratch.counters().overflow_items >= 1);
        assert_eq!(clusters.len(), 1);
        assert_eq!(
            clusters[0].members(),
            &[ObjectId(1), ObjectId(2), ObjectId(4)]
        );
    }

    /// The filter-step soundness property behind Lemmas 1 and 3: whenever the
    /// ω distance between two objects' simplified sub-trajectories exceeds e,
    /// the true synchronous distance between the *original* objects exceeds e
    /// at every shared time point.
    fn check_pruning_soundness(
        a: &Trajectory,
        b: &Trajectory,
        delta: f64,
        e: f64,
        distance: SegmentDistance,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (sa, sb) = match distance {
            SegmentDistance::Dll => (
                DouglasPeucker.simplify(a, delta),
                DouglasPeucker.simplify(b, delta),
            ),
            SegmentDistance::DStar => (
                DouglasPeuckerStar.simplify(a, delta),
                DouglasPeuckerStar.simplify(b, delta),
            ),
        };
        let window = a.time_interval().hull(&b.time_interval());
        let (Some(sub_a), Some(sub_b)) = (
            SubTrajectory::for_window(ObjectId(1), &sa, window),
            SubTrajectory::for_window(ObjectId(2), &sb, window),
        ) else {
            return Ok(());
        };
        let omega = omega_distance(&sub_a, &sub_b, distance, ToleranceMode::Actual);
        if omega > e {
            // Pruned: verify no shared time point has the originals within e.
            if let Some(common) = a.time_interval().intersection(&b.time_interval()) {
                for t in common.iter() {
                    let (Some(pa), Some(pb)) = (a.location_at(t), b.location_at(t)) else {
                        continue;
                    };
                    prop_assert!(
                        pa.distance(&pb) > e,
                        "pruned pair is actually within e={e} at t={t} (ω={omega})"
                    );
                }
            }
        }
        Ok(())
    }

    prop_compose! {
        fn arb_walk(seed_x: f64)(len in 4usize..30)
            (steps in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), len),
             start_y in -20.0f64..20.0)
            -> Trajectory {
            let mut x = seed_x;
            let mut y = start_y;
            let mut pts = Vec::with_capacity(steps.len());
            for (t, (dx, dy)) in steps.into_iter().enumerate() {
                x += dx;
                y += dy;
                pts.push(TrajPoint::new(x, y, t as i64));
            }
            Trajectory::from_points(pts).unwrap()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lemma1_pruning_is_sound(a in arb_walk(0.0), b in arb_walk(5.0),
                                   delta in 0.1f64..3.0, e in 0.5f64..5.0) {
            check_pruning_soundness(&a, &b, delta, e, SegmentDistance::Dll)?;
        }

        #[test]
        fn lemma3_pruning_is_sound(a in arb_walk(0.0), b in arb_walk(5.0),
                                   delta in 0.1f64..3.0, e in 0.5f64..5.0) {
            check_pruning_soundness(&a, &b, delta, e, SegmentDistance::DStar)?;
        }

        #[test]
        fn lemma2_box_prefilter_never_prunes_a_true_neighbour(
            a in arb_walk(0.0), b in arb_walk(3.0),
            delta in 0.1f64..3.0, e in 0.5f64..5.0) {
            // If the Lemma 2 test would discard the pair, the exact ω distance
            // must also exceed e (the pre-filter is conservative).
            let sa = DouglasPeucker.simplify(&a, delta);
            let sb = DouglasPeucker.simplify(&b, delta);
            let window = a.time_interval().hull(&b.time_interval());
            if let (Some(sub_a), Some(sub_b)) = (
                SubTrajectory::for_window(ObjectId(1), &sa, window),
                SubTrajectory::for_window(ObjectId(2), &sb, window),
            ) {
                let mode = ToleranceMode::Actual;
                let bound = e + sub_a.max_tolerance(mode) + sub_b.max_tolerance(mode);
                let box_dist = sub_a.bounding_box().min_distance(&sub_b.bounding_box());
                if box_dist > bound {
                    let omega = omega_distance(&sub_a, &sub_b, SegmentDistance::Dll, mode);
                    prop_assert!(omega > e,
                        "Lemma 2 pruned a pair whose ω={omega} is within e={e}");
                }
            }
        }
    }
}
