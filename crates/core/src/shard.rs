//! The spatially sharded convoy discovery driver.
//!
//! Where [`CmcEngine::Parallel`] partitions *time*, this driver
//! ([`CmcEngine::Sharded`]) partitions *space*: the world bounding box
//! is grid-sharded into `S` rectangles ([`ShardGrid`]), worker threads sweep
//! the window and density-cluster each shard's objects (plus a `2e` boundary
//! halo) independently, and a coordinator merges the shard-local clusters of
//! every tick back into exactly the global clustering before folding them
//! through one [`CmcState`]. The result is bit-identical to the sequential
//! [`CmcEngine::Swept`] — same convoys, same order — because both the merge
//! (see [`traj_cluster::shard`]) and the fold reproduce the sequential
//! algorithm's semantics exactly.
//!
//! ```text
//!   shard 0 ──sweep──▶ DBSCAN(owned ∪ halo) ──┐ local clusters + cores
//!   shard 1 ──sweep──▶ DBSCAN(owned ∪ halo) ──┤     + border links
//!      ⋮                                      ├──▶ merge (union-find over
//!   shard S ──sweep──▶ DBSCAN(owned ∪ halo) ──┘     shared core objects)
//!                                                        │ per-tick clusters
//!                                                        ▼
//!                                              CmcState fold ──▶ convoys
//! ```
//!
//! This mirrors a multi-node deployment: the only data that crosses the
//! shard boundary is the per-tick cluster lists, core sets and border
//! adjacency — never raw positions of foreign shards — which is exactly the
//! seam the `CmcState::ingest_clusters` API was built for. Within one
//! process the driver composes with the time-partitioned engine conceptually
//! (shards × time partitions); the fold stays a single ordered pass for the
//! same reason it does in the parallel driver (Algorithm 1's fresh-candidate
//! rule couples chain creation across ticks).

use crate::engine::{CmcEngine, CmcState, CmcStats, MAX_PARALLEL_THREADS};
use crate::query::{Convoy, ConvoyQuery};
use convoy_obs::{Obs, SpanId};
use traj_cluster::shard::{
    merge_shard_clusters, shard_clusters_with, ShardClusters, ShardGrid, ShardScratch,
};
use trajectory::geometry::BoundingBox;
use trajectory::{Snapshot, SnapshotPolicy, SnapshotSweep, TimeInterval, TrajectoryDatabase};

/// Hard cap on the shard count. Shards beyond this add per-tick filtering
/// and merge overhead without any additional parallelism (worker threads are
/// separately capped at [`MAX_PARALLEL_THREADS`]).
pub const MAX_SHARDS: usize = 256;

/// Resolves a requested shard count: `0` means one shard per available core,
/// explicit counts are clamped to [`MAX_SHARDS`].
pub fn resolved_shard_count(requested: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    requested.min(MAX_SHARDS)
}

/// The world bounding box of every sample in the database. Interpolated
/// snapshot positions are convex combinations of samples, so they can never
/// leave this box — which makes it a valid spatial domain for the whole
/// window.
fn world_bounds(db: &TrajectoryDatabase) -> Option<BoundingBox> {
    BoundingBox::from_points(
        db.iter()
            .flat_map(|(_, traj)| traj.points().iter().map(|p| p.position())),
    )
}

/// Runs CMC over `window` with spatially sharded clustering (the
/// [`CmcEngine::Sharded`] engine).
///
/// The window is swept **once** ([`SnapshotSweep`]) and the extracted
/// snapshots are shared read-only with the worker threads (one per shard,
/// capped at [`MAX_PARALLEL_THREADS`], shards distributed round-robin), each
/// of which runs the shard-local pass of [`traj_cluster::shard`] for its
/// shards at every tick — in a multi-node deployment the sweep would happen
/// on each node over its own data instead. The per-tick partials are then
/// merged into the exact global clustering and folded through a single
/// [`CmcState`] in time order.
///
/// `shards == 0` selects one shard per available core; counts are clamped to
/// [`MAX_SHARDS`]. With one shard (or an empty database) this degrades to
/// the swept sequential engine.
///
/// Records a `cmc.sharded` root span with a real `cmc.sweep` span over the
/// shared snapshot extraction, one real `cmc.shard` span per worker thread
/// (each worker covers the shards assigned to it round-robin), and a real
/// `cmc.fold` span over the merge-and-stitch pass.
pub(crate) fn cmc_sharded(
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    window: TimeInterval,
    shards: usize,
    obs: &Obs,
    parent: SpanId,
) -> (Vec<Convoy>, CmcStats) {
    let shard_count = resolved_shard_count(shards);
    let bounds = match world_bounds(db) {
        Some(bounds) if shard_count > 1 => bounds,
        _ => return CmcEngine::Swept.run_obs(db, query, Some(window), obs, parent),
    };
    let grid = ShardGrid::new(bounds, shard_count);
    let shard_count = grid.num_shards();
    let threads = shard_count.min(MAX_PARALLEL_THREADS);
    let engine_span = obs.span_start("cmc.sharded", parent);

    // One sweep for everyone: extraction and interpolation cost is paid
    // once, not once per worker.
    let sweep_span = obs.span_start("cmc.sweep", engine_span);
    let snapshots: Vec<Snapshot> =
        SnapshotSweep::new(db, window, SnapshotPolicy::Interpolate).collect();
    obs.span_end(sweep_span);

    let per_worker: Vec<Vec<Vec<ShardClusters>>> = std::thread::scope(|scope| {
        let grid = &grid;
        let snapshots = &snapshots;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let obs = obs.clone();
                scope.spawn(move || {
                    let shard_span = obs.span_start("cmc.shard", engine_span);
                    let mine: Vec<usize> = (w..shard_count).step_by(threads).collect();
                    // One shard-clustering scratch per worker, reused across
                    // every tick and every shard the worker owns.
                    let mut scratch = ShardScratch::new();
                    let out: Vec<Vec<ShardClusters>> = snapshots
                        .iter()
                        .map(|snapshot| {
                            // Mirror the sequential < m guard: such a tick
                            // can produce no cluster, so skip the local runs.
                            if snapshot.len() < query.m {
                                Vec::new()
                            } else {
                                mine.iter()
                                    .map(|&s| {
                                        shard_clusters_with(
                                            &mut scratch,
                                            snapshot,
                                            grid,
                                            s,
                                            query.e,
                                            query.m,
                                        )
                                    })
                                    .collect()
                            }
                        })
                        .collect();
                    obs.span_end(shard_span);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(no-unwrap-in-lib) — re-raising a worker panic on the coordinating thread is the intent
            .map(|h| h.join().expect("shard-clustering worker panicked"))
            .collect()
    });

    // Coordinator: merge every tick's shard partials into the exact global
    // clustering and fold in time order, stitching candidate chains across
    // both shard edges (via the merge) and tick boundaries (via the state).
    let fold_span = obs.span_start("cmc.fold", engine_span);
    let mut state = CmcState::new(query);
    state.set_obs(obs.clone());
    for (i, snapshot) in snapshots.iter().enumerate() {
        let clusters = merge_shard_clusters(per_worker.iter().flat_map(|worker| worker[i].iter()));
        state.ingest_clusters(snapshot.time, &clusters);
    }
    let out = state.finish_with_stats();
    obs.span_end(fold_span);
    obs.span_end(engine_span);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::normalize_convoys;
    use trajectory::{ObjectId, Trajectory};

    /// Whole-domain convoys of `engine`.
    fn run(engine: CmcEngine, db: &TrajectoryDatabase, query: &ConvoyQuery) -> Vec<Convoy> {
        engine.run_with_stats(db, query).0
    }

    /// Whole-domain convoys of the sharded engine.
    fn sharded(db: &TrajectoryDatabase, query: &ConvoyQuery, shards: usize) -> Vec<Convoy> {
        run(CmcEngine::Sharded { shards }, db, query)
    }

    /// Three objects convoying along x with a diagonal spread of ~1.4 in x,
    /// so with one-unit-wide shard strips the cluster straddles an internal
    /// edge at every tick. A distant loner adds noise without making the
    /// bounding box taller than wide (the grid then splits x, not y).
    fn marching_db(ticks: i64) -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for lane in 0..3u64 {
            db.insert(
                ObjectId(lane),
                Trajectory::from_tuples(
                    (0..ticks).map(|t| (t as f64 + lane as f64 * 0.7, lane as f64 * 0.3, t)),
                )
                .unwrap(),
            );
        }
        db.insert(
            ObjectId(9),
            Trajectory::from_tuples((0..ticks).map(|t| (t as f64, 20.0, t))).unwrap(),
        );
        db
    }

    #[test]
    fn sharded_output_is_bit_identical_to_sequential() {
        let db = marching_db(30);
        let query = ConvoyQuery::new(3, 5, 1.5);
        let reference = run(CmcEngine::Swept, &db, &query);
        assert!(!reference.is_empty());
        for shards in [2, 3, 5, 16] {
            // Raw (un-normalized) equality: same convoys in the same order.
            assert_eq!(
                sharded(&db, &query, shards),
                reference,
                "{shards} shards diverged from sequential"
            );
        }
    }

    #[test]
    fn convoy_crossing_a_shard_edge_every_tick_survives() {
        // The convoy spans x ∈ [t, t+2] at tick t while strips are ~1 wide:
        // its cluster straddles an internal edge at every single tick.
        let db = marching_db(32);
        let query = ConvoyQuery::new(3, 30, 1.5);
        let convoys = normalize_convoys(sharded(&db, &query, 31), &query);
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].start, 0);
        assert_eq!(convoys[0].end, 31);
        assert_eq!(convoys[0].objects.len(), 3);
    }

    #[test]
    fn one_shard_and_empty_database_degrade_gracefully() {
        let db = marching_db(10);
        let query = ConvoyQuery::new(3, 5, 1.5);
        assert_eq!(sharded(&db, &query, 1), run(CmcEngine::Swept, &db, &query));
        assert!(sharded(&TrajectoryDatabase::new(), &query, 4).is_empty());
    }

    #[test]
    fn windowed_sharding_respects_the_window() {
        let db = marching_db(30);
        let query = ConvoyQuery::new(3, 3, 1.5);
        let window = TimeInterval::new(5, 14);
        let run_window = |engine: CmcEngine| {
            engine
                .run_obs(&db, &query, Some(window), &Obs::noop(), SpanId::NONE)
                .0
        };
        assert_eq!(
            run_window(CmcEngine::Sharded { shards: 6 }),
            run_window(CmcEngine::Swept)
        );
    }

    #[test]
    fn absurd_shard_counts_are_clamped() {
        assert_eq!(resolved_shard_count(1_000_000), MAX_SHARDS);
        assert!(resolved_shard_count(0) >= 1);
        let db = marching_db(8);
        let query = ConvoyQuery::new(3, 4, 1.5);
        assert_eq!(
            sharded(&db, &query, 1_000_000),
            run(CmcEngine::Swept, &db, &query)
        );
    }
}
