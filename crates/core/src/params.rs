//! Automatic selection of the CuTS internal parameters δ and λ
//! (Section 7.4 of the paper): δ by the paper's guideline, λ by estimated
//! filter + refine cost starting from the guideline's value.

use crate::cuts::partition::cluster_partition;
use crate::cuts::CutsConfig;
use crate::query::ConvoyQuery;
use convoy_obs::Obs;
use traj_cluster::{SegmentDistance, SubTrajectoryPool, SubTrajectoryScratch};
use traj_simplify::{
    select_delta_for_database, select_lambda, SimplifiedTrajectory, ToleranceMode,
};
use trajectory::{ObjectId, TimeInterval, TrajectoryDatabase};

/// Fraction of the database's trajectories sampled by the δ guideline
/// (the paper suggests "a sufficient time (e.g. 10 % of N)").
pub const DELTA_SAMPLE_FRACTION: f64 = 0.1;

/// Selects the simplification tolerance δ for a database and a neighbourhood
/// range `e`, following the Section 7.4 guideline: run DP with δ = 0 on a
/// sample of trajectories, look for the largest gap between adjacent recorded
/// tolerances below `e`, and average the per-trajectory selections.
pub fn auto_delta(db: &TrajectoryDatabase, e: f64) -> f64 {
    select_delta_for_database(db, e, DELTA_SAMPLE_FRACTION)
}

/// Candidates whose estimated cost is not at least this fraction below the
/// current pick's end the search: the doubling only continues while it
/// clearly pays, so profiles whose cost is flat in λ keep the seed.
pub const LAMBDA_MARGIN: f64 = 0.10;

/// Standard errors of the sampled cost difference a candidate must clear
/// on top of [`LAMBDA_MARGIN`]. A saving the sampled windows cannot tell
/// from the spread between windows keeps the smaller λ, so the choice does
/// not flip between datasets of one profile (runs of one generator with
/// different seeds) whose true saving sits near the margin.
pub const LAMBDA_STANDARD_ERRORS: f64 = 1.0;

/// Windows clustered per candidate λ to estimate its ω work and refine
/// positions: the windows holding evenly spaced anchor ticks of the domain
/// (every window, when there are no more than this).
pub const LAMBDA_SAMPLE_WINDOWS: usize = 8;

/// Cost weights of the λ chooser, in nanoseconds per unit on a 2-core
/// x86-64 container. Fitted once by least squares on relative error,
/// without intercept, to the summed `discover.filter` + `discover.refine`
/// spans (the layers `e2e-bench --trace 1` reports as `filter.s` and
/// `refine.s`) of CuTS* `convoy discover --lambda L` runs: Truck, Cattle,
/// Car and Taxi at scale 1 and Taxi at scale 4 (seed 3, λ = guideline·2ⁱ
/// and a few values either side, minimum of 5 runs), regressed on the
/// runs' `cuts.sub_trajectories`, `cuts.segment_pairs` and
/// `refine.positions`. Only their ratios matter to the choice.
const NS_PER_SUB_TRAJECTORY: f64 = 330.0;
/// See [`NS_PER_SUB_TRAJECTORY`].
const NS_PER_SEGMENT_PAIR: f64 = 3.2;
/// See [`NS_PER_SUB_TRAJECTORY`].
const NS_PER_REFINE_POSITION: f64 = 480.0;

/// What [`auto_lambda`] chose, and the work it spent choosing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LambdaChoice {
    /// The chosen partition length.
    pub lambda: usize,
    /// The Section 7.4 guideline's λ ([`traj_simplify::select_lambda`]),
    /// where the search starts.
    pub seed: usize,
    /// Candidate λ values whose cost was estimated (0 when no doubling of
    /// the seed fits under `k`).
    pub probes: u64,
}

impl LambdaChoice {
    /// Adds the choice to `obs` as the `cuts.lambda_seed` and
    /// `cuts.lambda_probes` counters.
    pub fn record(&self, obs: &Obs) {
        obs.counter_add("cuts.lambda_seed", self.seed as u64);
        obs.counter_add("cuts.lambda_probes", self.probes);
    }
}

/// Selects the time-partition length λ by estimated filter + refine cost —
/// the balance Section 7.4 asks for between per-partition overhead (short
/// partitions) and a loose filter (long ones).
///
/// The search starts at the guideline λ_g of [`traj_simplify::select_lambda`]
/// and tries λ_g·2ⁱ ≤ k in ascending order, moving on only while the next
/// candidate's estimated cost is at least [`LAMBDA_MARGIN`] below the
/// current one's, plus [`LAMBDA_STANDARD_ERRORS`] standard errors of the
/// sampled part of the difference. A candidate's cost is
///
/// ```text
/// cost(λ) = a · sub-trajectories + b · ω segment pairs + c · refine positions
/// ```
///
/// The sub-trajectory count is exact (from the simplified time spans); the
/// other two terms are measured by clustering [`LAMBDA_SAMPLE_WINDOWS`]
/// windows with the filter's own [`cluster_partition`] and scaled to the
/// whole domain; their spread over the windows gives the standard error
/// (zero when every window is clustered). The choice is deterministic, so
/// the batch filter and a stream replay (`convoy_stream::replay_config`)
/// always partition alike.
pub fn auto_lambda(
    simplified: &[(ObjectId, SimplifiedTrajectory)],
    query: &ConvoyQuery,
    config: &CutsConfig,
) -> LambdaChoice {
    let seed = select_lambda(simplified.iter().map(|(_, s)| s), query.k);
    let mut choice = LambdaChoice {
        lambda: seed,
        seed,
        probes: 0,
    };
    let Some(mut next) = seed
        .checked_mul(2)
        .filter(|&l| l <= query.k && !simplified.is_empty())
    else {
        return choice;
    };
    let mut estimator = CostEstimator::new(simplified, query, config);
    let mut cost = estimator.cost(seed);
    choice.probes = 1;
    while next <= query.k {
        let next_cost = estimator.cost(next);
        choice.probes += 1;
        if !next_cost.pays_over(&cost) {
            break;
        }
        choice.lambda = next;
        cost = next_cost;
        let Some(doubled) = next.checked_mul(2) else {
            break;
        };
        next = doubled;
    }
    choice
}

/// The cost model of [`auto_lambda`] over one simplified database.
struct CostEstimator<'a> {
    simplified: &'a [(ObjectId, SimplifiedTrajectory)],
    spans: Vec<TimeInterval>,
    domain: TimeInterval,
    query: &'a ConvoyQuery,
    distance: SegmentDistance,
    mode: ToleranceMode,
    cursors: Vec<usize>,
    pool: SubTrajectoryPool,
    scratch: SubTrajectoryScratch,
}

impl<'a> CostEstimator<'a> {
    /// `simplified` must be non-empty.
    fn new(
        simplified: &'a [(ObjectId, SimplifiedTrajectory)],
        query: &'a ConvoyQuery,
        config: &CutsConfig,
    ) -> Self {
        let spans: Vec<TimeInterval> = simplified.iter().map(|(_, s)| s.time_interval()).collect();
        let domain = spans
            .iter()
            .skip(1)
            .fold(spans[0], |acc, span| acc.hull(span));
        CostEstimator {
            simplified,
            spans,
            domain,
            query,
            distance: config.variant.segment_distance(),
            mode: config.tolerance_mode,
            cursors: Vec::new(),
            pool: SubTrajectoryPool::new(),
            scratch: SubTrajectoryScratch::new(),
        }
    }

    /// The estimated filter + refine cost of partitioning with `lambda`, in
    /// nanoseconds of the reference machine.
    fn cost(&mut self, lambda: usize) -> Cost {
        let terms = self.terms(lambda);
        Cost {
            ns: NS_PER_SUB_TRAJECTORY * terms.sub_trajectories
                + NS_PER_SEGMENT_PAIR * terms.segment_pairs
                + NS_PER_REFINE_POSITION * terms.refine_positions,
            standard_error_ns: terms.standard_error_ns,
        }
    }

    /// The three cost terms of partitioning with `lambda`.
    fn terms(&mut self, lambda: usize) -> CostTerms {
        // The window grid of `trajectory::TimePartition`: window `i` is
        // `[d₀ + i·step, min(d₀ + (i+1)·step, d₁)]`, in i128 so that no
        // domain overflows.
        let step = lambda as i128 - 1;
        let (d0, d1) = (self.domain.start as i128, self.domain.end as i128);
        let windows = ((d1 - d0 + step - 1) / step).max(1);
        let window_of = |at: i128| ((at - d0) / step).min(windows - 1);

        // Exact: an object's span [a, b] meets windows first..=last, where
        // `first` is the first window ending at or after `a`.
        let sub_trajectories: f64 = self
            .spans
            .iter()
            .map(|span| {
                let (a, b) = (span.start as i128, span.end as i128);
                let first = ((a - d0 + step - 1) / step - 1).clamp(0, windows - 1);
                (window_of(b) - first + 1) as f64
            })
            .sum();

        // Sampled: every window when there are few, else the windows
        // holding evenly spaced anchor ticks (skipping a window two anchors
        // share).
        let samples = LAMBDA_SAMPLE_WINDOWS as i128;
        let indices = (0..samples.min(windows)).map(|j| {
            if windows <= samples {
                j
            } else {
                window_of(d0 + (d1 - d0) * (2 * j + 1) / (2 * samples))
            }
        });
        // Sampled windows ascend, so each object's segment cursor only
        // moves forward, as in the filter.
        self.cursors.clear();
        self.cursors.resize(self.spans.len(), 0);
        let mut sampled = 0u32;
        let mut last = None;
        let (mut pairs, mut positions) = (0u64, 0u64);
        // Sum and sum of squares of each sampled window's share of the
        // sampled cost terms, in ns.
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for index in indices {
            if last == Some(index) {
                continue;
            }
            last = Some(index);
            sampled += 1;
            let lo = d0 + index * step;
            let window = TimeInterval::new(lo as i64, (lo + step).min(d1) as i64);
            self.pool.clear();
            let objects = self.simplified.iter().zip(&self.spans);
            for (((id, s), span), cursor) in objects.zip(&mut self.cursors) {
                if span.intersects(&window) {
                    self.pool.push_with(*id, s.global_tolerance(), |sub| {
                        sub.extend_for_window(s, window, cursor);
                    });
                }
            }
            let before = self.scratch.counters().segment_pairs;
            let clustered = cluster_partition(
                window,
                self.pool.items(),
                self.query,
                self.distance,
                self.mode,
                &mut self.scratch,
            );
            let window_pairs = self.scratch.counters().segment_pairs - before;
            pairs += window_pairs;
            // The refine fold reads every clustered object at each tick the
            // window owns (its boundary tick belongs to the next window).
            let owned = window.end.saturating_sub(window.start).max(1) as u64;
            let members: usize = clustered.clusters.iter().map(|c| c.len()).sum();
            let window_positions = (members as u64).saturating_mul(owned);
            positions = positions.saturating_add(window_positions);
            let window_cost = NS_PER_SEGMENT_PAIR * window_pairs as f64
                + NS_PER_REFINE_POSITION * window_positions as f64;
            sum += window_cost;
            sum_sq += window_cost * window_cost;
        }
        let n = f64::from(sampled);
        let scale = windows as f64 / n;
        // Standard error of the scaled sum of a sample of n of the N
        // windows (finite-population corrected, so zero when n = N).
        let standard_error_ns = if sampled > 1 {
            let variance = ((sum_sq - sum * sum / n) / (n - 1.0)).max(0.0);
            let population = windows as f64;
            let correction = ((population - n) / (population - 1.0)).max(0.0);
            scale * (n * variance * correction).sqrt()
        } else {
            0.0
        };
        CostTerms {
            sub_trajectories,
            segment_pairs: scale * pairs as f64,
            refine_positions: scale * positions as f64,
            standard_error_ns,
        }
    }
}

/// The terms of [`CostEstimator::cost`], scaled to the whole domain.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CostTerms {
    /// Sub-trajectories the filter collects (exact).
    sub_trajectories: f64,
    /// Segment pairs the ω evaluations scan (sampled).
    segment_pairs: f64,
    /// Positions the refine fold reads (sampled).
    refine_positions: f64,
    /// Standard error of the two sampled terms' weighted sum, in ns.
    standard_error_ns: f64,
}

/// A candidate's estimated cost.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cost {
    /// Estimated filter + refine nanoseconds.
    ns: f64,
    /// Standard error of `ns` (its sampled part; the rest is exact).
    standard_error_ns: f64,
}

impl Cost {
    /// Returns `true` when this cost undercuts `current` by the
    /// [`LAMBDA_MARGIN`] plus [`LAMBDA_STANDARD_ERRORS`] standard errors of
    /// the difference (the two estimates' errors taken as independent).
    fn pays_over(&self, current: &Cost) -> bool {
        let error = self.standard_error_ns.hypot(current.standard_error_ns);
        (1.0 - LAMBDA_MARGIN) * current.ns - self.ns > LAMBDA_STANDARD_ERRORS * error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::filter::{filter_simplified, simplify_database};
    use crate::cuts::CutsVariant;
    use traj_simplify::{DouglasPeucker, Simplifier};
    use trajectory::{ObjectId, TrajPoint, Trajectory};

    fn wiggly(n: i64, amplitude: f64) -> Trajectory {
        Trajectory::from_points(
            (0..n)
                .map(|t| {
                    let y = if t % 2 == 0 { amplitude } else { -amplitude };
                    TrajPoint::new(t as f64, y, t)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn auto_delta_is_positive_and_below_e() {
        let mut db = TrajectoryDatabase::new();
        for i in 0..20u64 {
            db.insert(ObjectId(i), wiggly(50, 0.3 + i as f64 * 0.01));
        }
        let e = 5.0;
        let delta = auto_delta(&db, e);
        assert!(delta > 0.0);
        assert!(delta < e);
    }

    /// Objects with staggered, partly disjoint spans, a single-sample
    /// object and two that travel together.
    fn staggered() -> (TrajectoryDatabase, Vec<(ObjectId, SimplifiedTrajectory)>) {
        let mut db = TrajectoryDatabase::new();
        db.insert(ObjectId(0), wiggly(100, 0.1));
        db.insert(ObjectId(1), wiggly(100, 0.3));
        let late = (37..90).map(|t| TrajPoint::new(t as f64, 5.0 + (t % 3) as f64, t));
        db.insert(
            ObjectId(2),
            Trajectory::from_points(late.collect()).unwrap(),
        );
        let early = (0..23).map(|t| TrajPoint::new(t as f64 * 0.5, 1.0, t));
        db.insert(
            ObjectId(3),
            Trajectory::from_points(early.collect()).unwrap(),
        );
        let single = vec![TrajPoint::new(50.0, 0.0, 64)];
        db.insert(ObjectId(4), Trajectory::from_points(single).unwrap());
        let simplified = simplify_database(&db, &CutsConfig::new(CutsVariant::Cuts), 0.5);
        (db, simplified)
    }

    #[test]
    fn auto_lambda_respects_seed_and_k() {
        let traj = wiggly(100, 0.1);
        let simplified = vec![(ObjectId(0), DouglasPeucker.simplify(&traj, 1.0))];
        let config = CutsConfig::new(CutsVariant::Cuts);
        for k in [2, 3, 10, 40, 1000] {
            let choice = auto_lambda(&simplified, &ConvoyQuery::new(2, k, 1.0), &config);
            assert!(choice.seed >= 2 && choice.seed <= k.max(2));
            assert!(
                (choice.seed..=k.max(2)).contains(&choice.lambda),
                "k={k}: {choice:?}"
            );
            if choice.seed * 2 > k {
                assert_eq!((choice.lambda, choice.probes), (choice.seed, 0));
            }
        }
        let empty = auto_lambda(&[], &ConvoyQuery::new(2, 100, 1.0), &config);
        assert_eq!(
            empty,
            LambdaChoice {
                lambda: 2,
                seed: 2,
                probes: 0
            }
        );
    }

    #[test]
    fn sub_trajectory_count_is_exact() {
        let (db, simplified) = staggered();
        let query = ConvoyQuery::new(2, 10, 1.0);
        for lambda in [2, 3, 4, 5, 7, 10, 16, 33, 99, 100, 101, 500] {
            let config = CutsConfig::new(CutsVariant::Cuts).with_lambda(lambda);
            let mut estimator = CostEstimator::new(&simplified, &query, &config);
            let terms = estimator.terms(lambda);
            let output = filter_simplified(&simplified, &db, &query, &config, 0.5);
            assert_eq!(
                terms.sub_trajectories, output.stats.sub_trajectories as f64,
                "λ={lambda}"
            );
            // With no more windows than samples every window is clustered,
            // so the sampled terms are exact too.
            if output.stats.partitions <= LAMBDA_SAMPLE_WINDOWS as u64 {
                assert_eq!(
                    terms.segment_pairs, output.stats.segment_pairs as f64,
                    "λ={lambda}"
                );
                assert_eq!(terms.standard_error_ns, 0.0, "λ={lambda}");
            } else {
                assert!(
                    terms.standard_error_ns.is_finite() && terms.standard_error_ns >= 0.0,
                    "λ={lambda}: {terms:?}"
                );
            }
        }
    }

    #[test]
    fn a_saving_within_the_sampling_error_does_not_pay() {
        let cost = |ns, standard_error_ns| Cost {
            ns,
            standard_error_ns,
        };
        // Exact estimates: the plain margin (90 is exactly 10% below 100).
        assert!(cost(85.0, 0.0).pays_over(&cost(100.0, 0.0)));
        assert!(!cost(90.0, 0.0).pays_over(&cost(100.0, 0.0)));
        // A 5 ns clearance beyond the margin against errors of 3 and 4 ns
        // (5 ns combined) is not significant; against 3 and 3 it is.
        assert!(!cost(85.0, 3.0).pays_over(&cost(100.0, 4.0)));
        assert!(cost(85.0, 3.0).pays_over(&cost(100.0, 3.0)));
    }
}
