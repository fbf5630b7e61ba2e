//! Shard-equivalence property tests: the spatially sharded convoy driver
//! must produce output **bit-identical** to sequential CMC — the same
//! `Vec<Convoy>` before any normalization, convoy for convoy, in the same
//! order — and identical normalized sets to every other engine.
//!
//! Three corpus sources feed the properties:
//!
//! 1. unconstrained random walks (no planted structure: degenerate chains,
//!    gaps, partial presence);
//! 2. the paper-shaped generated dataset profiles (planted convoys, hotspot
//!    attraction, irregular sampling);
//! 3. *directed boundary-straddling* fixtures: convoys built so their
//!    clusters cross a shard edge at every tick, contested border objects
//!    sitting exactly `e` from cores in two different shards, and shard
//!    strips narrower than `e` — the cases where a sloppy halo exchange
//!    would drop, duplicate or mis-assign cluster members.
//!
//! A fixed-seed regression corpus lives in
//! `proptest-regressions/shard_equivalence.txt`; every seed recorded there
//! is replayed verbatim by `replays_checked_in_regression_seeds` (the
//! vendored proptest stand-in has no shrink-file support, so the harness
//! reads the file itself). The CI release job runs this suite under
//! `--release` to catch optimized-build divergence.

use convoy_suite::prelude::*;
use proptest::prelude::*;

/// Shard counts exercised everywhere: several co-prime counts, a count
/// typically larger than the object count, and "one per core".
const SHARD_COUNTS: [usize; 5] = [2, 3, 5, 16, 0];

/// Asserts the sharded driver is bit-identical to the sequential sweep on
/// `db` (raw, un-normalized output) and agrees with the per-tick baseline
/// after normalization.
fn assert_sharded_agrees(db: &TrajectoryDatabase, query: &ConvoyQuery, context: &str) {
    let sequential = CmcEngine::Swept.run_with_stats(db, query).0;
    for shards in SHARD_COUNTS {
        let sharded = CmcEngine::Sharded { shards }.run_with_stats(db, query).0;
        assert_eq!(
            sharded, sequential,
            "sharded ({shards} shards) not bit-identical to swept on {context}"
        );
    }
    let reference = normalize_convoys(CmcEngine::PerTick.run_with_stats(db, query).0, query);
    assert_eq!(
        normalize_convoys(sequential, query),
        reference,
        "swept diverged from per-tick on {context}"
    );
}

prop_compose! {
    /// A database of unconstrained random walks with irregular sampling
    /// (mirrors the engine-equivalence harness).
    fn arb_walk_db()(num_objects in 2usize..8)
        (tables in proptest::collection::vec(
            (proptest::collection::btree_set(0i64..25, 2..20),
             proptest::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 20)),
            num_objects..num_objects + 1))
        -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for (i, (times, coords)) in tables.into_iter().enumerate() {
            let (mut x, mut y) = (0.0, 0.0);
            let pts: Vec<TrajPoint> = times
                .into_iter()
                .zip(coords)
                .map(|(t, (dx, dy))| {
                    x += dx;
                    y += dy;
                    TrajPoint::new(x, y, t)
                })
                .collect();
            db.insert(ObjectId(i as u64), Trajectory::from_points(pts).unwrap());
        }
        db
    }
}

prop_compose! {
    /// A directed adversarial database: `lanes` objects convoy along x with
    /// a spread wider than one shard strip, so the convoy's cluster
    /// straddles an internal shard edge at (almost) every tick; extra
    /// objects wander as noise and a far anchor keeps the bounding box wide
    /// so the grid splits the x axis.
    fn arb_straddling_db()(lanes in 3usize..6, ticks in 12i64..30,
                           spread in 0.5f64..1.2, drift in 0.6f64..1.4)
        (noise in proptest::collection::vec((-5.0f64..40.0, 2.0f64..6.0), 2..5),
         lanes in lanes..lanes + 1, ticks in ticks..ticks + 1,
         spread in spread..spread + 1e-9, drift in drift..drift + 1e-9)
        -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        let mut next = 0u64;
        for lane in 0..lanes {
            db.insert(
                ObjectId(next),
                Trajectory::from_points((0..ticks).map(|t| TrajPoint::new(
                    t as f64 * drift + lane as f64 * spread,
                    lane as f64 * 0.3,
                    t,
                )).collect()).unwrap(),
            );
            next += 1;
        }
        // Wandering noise objects near (but not in) the convoy's corridor.
        for (x0, y0) in noise {
            db.insert(
                ObjectId(next),
                Trajectory::from_points((0..ticks).map(|t| TrajPoint::new(
                    x0 + t as f64 * 0.9,
                    y0 + (t % 4) as f64 * 0.5,
                    t,
                )).collect()).unwrap(),
            );
            next += 1;
        }
        // Anchor keeping the box wider than tall without joining anything.
        db.insert(
            ObjectId(next),
            Trajectory::from_points(
                (0..ticks).map(|t| TrajPoint::new(t as f64, 15.0, t)).collect(),
            ).unwrap(),
        );
        db
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn sharded_agrees_on_random_walk_databases(
        db in arb_walk_db(),
        m in 2usize..4,
        k in 2usize..6,
        e in 2.0f64..12.0,
    ) {
        let query = ConvoyQuery::new(m, k, e);
        assert_sharded_agrees(&db, &query, "a random-walk database");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_agrees_on_boundary_straddling_convoys(
        db in arb_straddling_db(),
        k in 3usize..8,
    ) {
        let query = ConvoyQuery::new(3, k, 1.5);
        assert_sharded_agrees(&db, &query, "a boundary-straddling convoy database");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_agrees_on_generated_datasets(seed in 0u64..1_000_000) {
        let profile = DatasetProfile::truck().scaled(0.02);
        let data = generate(&profile, seed);
        let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
        assert_sharded_agrees(&data.database, &query, "a generated truck dataset");
    }
}

#[test]
fn sharded_agrees_on_every_dataset_profile() {
    for name in ProfileName::ALL {
        let profile = DatasetProfile::named(name).scaled(0.02);
        let data = generate(&profile, 20080824);
        let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
        assert_sharded_agrees(&data.database, &query, name.name());
    }
}

/// The hand-built acceptance fixture: one convoy whose cluster straddles a
/// shard edge at *every* tick of the window. Three objects march along x
/// spread over ~1.4 units while 31 one-unit-wide strips cover the domain;
/// the middle object also sits exactly on an internal grid line at integer
/// ticks.
#[test]
fn convoy_crossing_a_shard_edge_every_tick_is_reported_intact() {
    let ticks = 32i64;
    let mut db = TrajectoryDatabase::new();
    for lane in 0..3u64 {
        db.insert(
            ObjectId(lane),
            Trajectory::from_points(
                (0..ticks)
                    .map(|t| TrajPoint::new(t as f64 + lane as f64 * 0.7, lane as f64 * 0.3, t))
                    .collect(),
            )
            .unwrap(),
        );
    }
    // A loner pinning the bounding box (wider than tall → vertical strips).
    db.insert(
        ObjectId(9),
        Trajectory::from_points(
            (0..ticks)
                .map(|t| TrajPoint::new(t as f64, 20.0, t))
                .collect(),
        )
        .unwrap(),
    );

    let query = ConvoyQuery::new(3, 30, 1.5);
    let sequential = CmcEngine::Swept.run_with_stats(&db, &query).0;
    for shards in [31, 16, 7] {
        let sharded = CmcEngine::Sharded { shards }.run_with_stats(&db, &query).0;
        assert_eq!(sharded, sequential, "{shards} shards broke the convoy");
    }
    let convoys = normalize_convoys(sequential, &query);
    assert_eq!(convoys.len(), 1);
    assert_eq!(convoys[0].start, 0);
    assert_eq!(convoys[0].end, ticks - 1);
    assert_eq!(convoys[0].objects.len(), 3);
}

/// Sharding must also compose with the discovery facade (timings, stats and
/// normalized output), not only with the raw engine entry point.
#[test]
fn sharded_discovery_outcome_matches_sequential_on_a_planted_dataset() {
    let profile = DatasetProfile::cattle().scaled(0.03);
    let data = generate(&profile, 99);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let sequential = Discovery::new(Method::Cmc).run(&data.database, &query);
    let sharded = Discovery::new(Method::Cmc)
        .with_cmc_engine(CmcEngine::Sharded { shards: 6 })
        .run(&data.database, &query);
    assert_eq!(sharded.convoys, sequential.convoys);
    assert_eq!(sharded.stats.num_convoys, sequential.stats.num_convoys);
}

/// Replays the fixed seeds recorded in
/// `proptest-regressions/shard_equivalence.txt` against the random-walk and
/// boundary-straddling generators. The vendored proptest stand-in derives
/// its seed from the test name and does not read shrink files, so this test
/// gives the checked-in corpus teeth: add a failing seed to the file and it
/// stays covered forever, in both debug and `--release` CI runs.
#[test]
fn replays_checked_in_regression_seeds() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/proptest-regressions/shard_equivalence.txt"
    );
    let corpus = std::fs::read_to_string(path).expect("regression corpus must be checked in");
    let mut replayed = 0u32;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed = line
            .strip_prefix("cc ")
            .and_then(|rest| {
                let token = rest.split_whitespace().next()?;
                token.strip_prefix("0x").map_or_else(
                    || token.parse().ok(),
                    |hex| u64::from_str_radix(hex, 16).ok(),
                )
            })
            .unwrap_or_else(|| panic!("malformed regression line: `{line}`"));
        let mut rng = proptest::new_rng(seed);
        // Same draw order as the proptest bodies above.
        let db = arb_walk_db().sample(&mut rng);
        let m = (2usize..4).sample(&mut rng);
        let k = (2usize..6).sample(&mut rng);
        let e = (2.0f64..12.0).sample(&mut rng);
        assert_sharded_agrees(
            &db,
            &ConvoyQuery::new(m, k, e),
            &format!("regression seed {seed:#x} (walk)"),
        );
        let db = arb_straddling_db().sample(&mut rng);
        let k = (3usize..8).sample(&mut rng);
        assert_sharded_agrees(
            &db,
            &ConvoyQuery::new(3, k, 1.5),
            &format!("regression seed {seed:#x} (straddling)"),
        );
        replayed += 1;
    }
    assert!(
        replayed >= 4,
        "regression corpus unexpectedly small: {replayed}"
    );
}
