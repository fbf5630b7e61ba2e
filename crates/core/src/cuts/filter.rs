//! The CuTS filter step (Algorithm 2 of the paper).
//!
//! The filter simplifies every trajectory, partitions the time domain into
//! λ-length partitions, density-clusters the simplified sub-trajectories of
//! each partition using the Lemma 1 / Lemma 3 bounds, and chains clusters
//! across partitions into **candidate convoys** — a superset of the true
//! convoys, which the refinement step then verifies.

use crate::candidate::CandidateConvoy;
use crate::cuts::partition::{cluster_partition, CandidateChain, PartitionClusters};
use crate::cuts::CutsConfig;
use crate::params::{auto_delta, auto_lambda};
use crate::query::ConvoyQuery;
use convoy_obs::Obs;
use serde::{Deserialize, Serialize};
use traj_cluster::{SubTrajectoryPool, SubTrajectoryScratch};
use traj_simplify::SimplifiedTrajectory;
use trajectory::{ObjectId, TimeInterval, TimePartition, TrajectoryDatabase};

/// The output of the filter step: candidate convoys plus the bookkeeping the
/// refinement step and the benchmark harness need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterOutput {
    /// Candidate convoys (a superset of the true convoys, at partition
    /// granularity).
    pub candidates: Vec<CandidateConvoy>,
    /// Every λ-partition's clusters, in window order — the per-tick object
    /// coverage the refinement fold restricts its snapshots to
    /// ([`crate::cuts::refine::refine_partitions`]).
    pub partitions: Vec<PartitionClusters>,
    /// The simplification tolerance δ actually used.
    pub delta: f64,
    /// The partition length λ actually used.
    pub lambda: usize,
    /// Total number of samples before simplification.
    pub original_points: usize,
    /// Total number of samples after simplification.
    pub simplified_points: usize,
    /// What the partition loop did, and how much each pruning step saved.
    pub stats: FilterStats,
}

/// Work counters of one filter run: how many sub-trajectories the
/// partitions held and how the index, the temporal test and Lemma 2 thinned
/// the candidate pairs before the exact ω evaluation. [`crate::Discovery`]
/// and the streaming filter record them as the `cuts.*` counters
/// ([`FilterStats::record`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// λ-partitions visited.
    pub partitions: u64,
    /// Sub-trajectories collected, summed over the partitions.
    pub sub_trajectories: u64,
    /// Candidate pairs the sub-trajectory grid produced.
    pub grid_candidates: u64,
    /// Candidate pairs pruned because their time intervals are disjoint.
    pub temporal_prunes: u64,
    /// Candidate pairs pruned by the Lemma 2 bounding-box test.
    pub lemma2_prunes: u64,
    /// Exact ω evaluations (Lemma 1 / Lemma 3).
    pub omega_evaluations: u64,
    /// Segment pairs the ω evaluations scanned (ω is `O(|a| · |b|)`).
    pub segment_pairs: u64,
}

impl FilterStats {
    /// Adds these counts to `obs` as the `cuts.*` counters.
    pub fn record(&self, obs: &Obs) {
        for (name, value) in [
            ("cuts.partitions", self.partitions),
            ("cuts.sub_trajectories", self.sub_trajectories),
            ("cuts.grid_candidates", self.grid_candidates),
            ("cuts.temporal_prunes", self.temporal_prunes),
            ("cuts.lemma2_prunes", self.lemma2_prunes),
            ("cuts.omega_evaluations", self.omega_evaluations),
            ("cuts.segment_pairs", self.segment_pairs),
        ] {
            obs.counter_add(name, value);
        }
    }
}

impl FilterOutput {
    /// Vertex reduction of the simplification step, in percent.
    pub fn reduction_percent(&self) -> f64 {
        if self.original_points == 0 {
            return 0.0;
        }
        (1.0 - self.simplified_points as f64 / self.original_points as f64) * 100.0
    }
}

/// Simplifies every trajectory of `db` with the variant's simplifier and the
/// given δ. Exposed separately so the benchmark harness can time the
/// simplification stage on its own (Figure 13).
pub fn simplify_database(
    db: &TrajectoryDatabase,
    config: &CutsConfig,
    delta: f64,
) -> Vec<(ObjectId, SimplifiedTrajectory)> {
    let method = config.variant.simplification();
    db.iter()
        .map(|(id, traj)| (id, method.simplify(traj, delta)))
        .collect()
}

/// Runs the filter step on already-simplified trajectories.
///
/// This is the partition-and-cluster half of Algorithm 2; [`filter`] is the
/// convenience wrapper that also performs the simplification.
pub fn filter_simplified(
    simplified: &[(ObjectId, SimplifiedTrajectory)],
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    config: &CutsConfig,
    delta: f64,
) -> FilterOutput {
    let original_points = db.total_points();
    let simplified_points = simplified.iter().map(|(_, s)| s.num_points()).sum();

    let lambda = config
        .lambda
        .unwrap_or_else(|| auto_lambda(simplified, query, config).lambda);

    let Some(domain) = db.time_domain() else {
        return FilterOutput {
            candidates: Vec::new(),
            partitions: Vec::new(),
            delta,
            lambda,
            original_points,
            simplified_points,
            stats: FilterStats::default(),
        };
    };

    let distance = config.variant.segment_distance();
    let mode = config.tolerance_mode;
    let partition = TimePartition::new(domain, lambda as i64);

    // The partition loop proper lives in `cuts::partition`, shared with the
    // streaming filter: cluster each λ-partition's sub-trajectories, fold the
    // clusters into candidate chains.
    let mut partitions: Vec<PartitionClusters> = Vec::with_capacity(partition.len());
    let mut chain = CandidateChain::new(query);
    let spans: Vec<TimeInterval> = simplified.iter().map(|(_, s)| s.time_interval()).collect();
    let mut cursors = vec![0; simplified.len()];
    let mut pool = SubTrajectoryPool::new();
    let mut scratch = SubTrajectoryScratch::new();
    let mut sub_trajectories = 0u64;

    for window in partition.iter() {
        // Collect the sub-trajectories of every object present in this
        // partition (line 9–10 of Algorithm 2). Windows ascend, so each
        // object's segment cursor only moves forward, and an object whose
        // time span misses the window is skipped without a search.
        pool.clear();
        for (i, (id, s)) in simplified.iter().enumerate() {
            if spans[i].intersects(&window) {
                pool.push_with(*id, s.global_tolerance(), |sub| {
                    sub.extend_for_window(s, window, &mut cursors[i]);
                });
            }
        }
        let items = pool.items();
        sub_trajectories += items.len() as u64;
        let clustered = cluster_partition(window, items, query, distance, mode, &mut scratch);
        chain.fold(&clustered);
        partitions.push(clustered);
    }

    let counters = scratch.counters();
    let stats = FilterStats {
        partitions: partitions.len() as u64,
        sub_trajectories,
        grid_candidates: counters.grid_candidates,
        temporal_prunes: counters.temporal_prunes,
        lemma2_prunes: counters.lemma2_prunes,
        omega_evaluations: counters.omega_evaluations,
        segment_pairs: counters.segment_pairs,
    };
    FilterOutput {
        candidates: chain.finish(),
        partitions,
        delta,
        lambda,
        original_points,
        simplified_points,
        stats,
    }
}

/// Runs the complete filter step (simplification + partitioned clustering) of
/// Algorithm 2.
pub fn filter(db: &TrajectoryDatabase, query: &ConvoyQuery, config: &CutsConfig) -> FilterOutput {
    let delta = config.delta.unwrap_or_else(|| auto_delta(db, query.e));
    let simplified = simplify_database(db, config, delta);
    filter_simplified(&simplified, db, query, config, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::CutsVariant;
    use trajectory::{ObjectId, Trajectory};

    fn convoy_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        // Three objects moving together with a little jitter, one far away.
        for i in 0..3u64 {
            let traj = Trajectory::from_tuples((0..30).map(|t| {
                let jitter = if (t + i as i64) % 2 == 0 { 0.1 } else { -0.1 };
                (t as f64, i as f64 * 0.4 + jitter, t)
            }))
            .unwrap();
            db.insert(ObjectId(i), traj);
        }
        db.insert(
            ObjectId(9),
            Trajectory::from_tuples((0..30).map(|t| (t as f64, 400.0, t))).unwrap(),
        );
        db
    }

    #[test]
    fn filter_produces_a_candidate_covering_the_true_convoy() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 10, 1.5);
        for variant in CutsVariant::ALL {
            let output = filter(&db, &query, &CutsConfig::new(variant));
            assert!(
                !output.candidates.is_empty(),
                "{variant} filter must produce at least one candidate"
            );
            // Some candidate must contain all three convoy members over the
            // full window — the no-false-dismissal guarantee.
            let covered = output.candidates.iter().any(|c| {
                (0..3u64).all(|i| c.objects.contains(ObjectId(i))) && c.start <= 0 && c.end >= 29
            });
            assert!(covered, "{variant} filter lost the true convoy");
            // The far-away object must not force itself into every candidate.
            assert!(output
                .candidates
                .iter()
                .any(|c| !c.objects.contains(ObjectId(9))));
            assert!(output.delta > 0.0);
            assert!(output.lambda >= 2);
            assert!(output.simplified_points <= output.original_points);
        }
    }

    #[test]
    fn filter_stats_account_for_every_candidate_pair() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 10, 1.5);
        for variant in CutsVariant::ALL {
            let output = filter(&db, &query, &CutsConfig::new(variant));
            let stats = output.stats;
            assert_eq!(stats.partitions, output.partitions.len() as u64);
            // Four objects present over the whole domain.
            assert_eq!(stats.sub_trajectories, 4 * stats.partitions);
            assert!(stats.omega_evaluations > 0);
            assert_eq!(
                stats.grid_candidates,
                stats.temporal_prunes + stats.lemma2_prunes + stats.omega_evaluations,
                "{variant}: every candidate pair is pruned or evaluated exactly once"
            );
        }
    }

    #[test]
    fn filter_reduces_vertex_count_on_smooth_trajectories() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 10, 1.5);
        // With a tolerance above the ±0.1 jitter the trajectories collapse to
        // a handful of points.
        let config = CutsConfig::new(CutsVariant::Cuts).with_delta(0.5);
        let output = filter(&db, &query, &config);
        assert!(
            output.reduction_percent() > 60.0,
            "nearly-straight trajectories should simplify well, got {:.1}%",
            output.reduction_percent()
        );
    }

    #[test]
    fn explicit_parameters_are_respected() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 10, 1.5);
        let config = CutsConfig::new(CutsVariant::CutsStar)
            .with_delta(0.75)
            .with_lambda(6);
        let output = filter(&db, &query, &config);
        assert_eq!(output.delta, 0.75);
        assert_eq!(output.lambda, 6);
    }

    #[test]
    fn empty_database_produces_no_candidates() {
        let db = TrajectoryDatabase::new();
        let query = ConvoyQuery::new(2, 3, 1.0);
        let output = filter(&db, &query, &CutsConfig::new(CutsVariant::Cuts));
        assert!(output.candidates.is_empty());
        assert_eq!(output.original_points, 0);
    }

    #[test]
    fn lifetime_constraint_prunes_short_candidates() {
        let db = convoy_db();
        // k far larger than the domain: no candidate can qualify.
        let query = ConvoyQuery::new(3, 500, 1.5);
        let output = filter(&db, &query, &CutsConfig::new(CutsVariant::Cuts));
        assert!(output.candidates.is_empty());
    }
}
