//! A `.convoy` load is the database that was written, whatever its shape.
//!
//! The reader routes records to objects through a hash map and builds each
//! trajectory straight from the decoded order, so these properties aim at
//! the shapes that stress that routing: extreme and sparse ids (`0`,
//! `u64::MAX`, ids far apart), single-sample objects, objects that first
//! appear in late blocks, and many objects sharing a tick — under block
//! sizes from one record per block to the default. Full and windowed loads
//! must equal the database (restricted to the window), and `ReadStats` must
//! count exactly the blocks whose time range meets the window.

use proptest::prelude::*;
use std::io::Cursor;
use traj_datasets::container::{
    write_container, ContainerReader, ReadStats, DEFAULT_BLOCK_RECORDS,
};
use trajectory::{ObjectId, TimeInterval, TrajPoint, Trajectory, TrajectoryDatabase};

const BLOCK_SIZES: [usize; 4] = [1, 7, 64, DEFAULT_BLOCK_RECORDS];

prop_compose! {
    /// One object: an id drawn from the extremes, a dense low range or the
    /// whole `u64` space; a first tick that may come late; one sample or a
    /// run of them at a stride of one or two ticks.
    fn arb_object()(
        id_kind in 0u8..4,
        raw_id in 0u64..u64::MAX,
        first in -20i64..60,
        single in 0u8..4,
        samples in 2usize..24,
        stride in 1i64..3,
        x0 in -1.0e3f64..1.0e3,
        y0 in -1.0e3f64..1.0e3,
    ) -> (ObjectId, Trajectory) {
        let id = match id_kind {
            0 => [0, u64::MAX][(raw_id % 2) as usize],
            1 => raw_id % 16,
            _ => raw_id,
        };
        let samples = if single == 0 { 1 } else { samples };
        let points = (0..samples)
            .map(|i| {
                let i = i as i64;
                TrajPoint::new(x0 + 0.5 * i as f64, y0 - 0.25 * (i * i) as f64, first + i * stride)
            })
            .collect();
        (ObjectId(id), Trajectory::from_points(points).unwrap())
    }
}

prop_compose! {
    /// Up to 40 objects over a ~100-tick domain, so many share each tick.
    fn arb_database()(objects in proptest::collection::vec(arb_object(), 0..40)) -> TrajectoryDatabase {
        objects.into_iter().collect()
    }
}

/// The blocks/records a load over `window` must read, from the writer's
/// layout alone: samples sorted by `(t, id)`, cut into `block_records`-long
/// blocks, and every block whose `[first t, last t]` meets the window read
/// in full.
fn expected_stats(
    db: &TrajectoryDatabase,
    block_records: usize,
    window: Option<TimeInterval>,
) -> ReadStats {
    let mut samples = db.all_samples();
    samples.sort_by_key(|(id, p)| (p.t, id.0));
    let mut stats = ReadStats::default();
    for block in samples.chunks(block_records) {
        let (t_min, t_max) = (block[0].1.t, block[block.len() - 1].1.t);
        if window.is_none_or(|w| t_max >= w.start && t_min <= w.end) {
            stats.blocks_read += 1;
            stats.records_read += block.len() as u64;
        }
    }
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn loads_equal_the_written_database(
        db in arb_database(),
        window_start in -40i64..120,
        window_len in 0i64..80,
    ) {
        let window = TimeInterval::new(window_start, window_start + window_len);
        for block_records in BLOCK_SIZES {
            let mut bytes = Vec::new();
            write_container(&db, &mut bytes, block_records).unwrap();
            let mut reader = ContainerReader::open(Cursor::new(&bytes)).unwrap();

            let (loaded, stats) = reader.load().unwrap();
            prop_assert_eq!(&loaded, &db, "block_records={}", block_records);
            prop_assert_eq!(stats, expected_stats(&db, block_records, None));

            let (windowed, stats) = reader.load_window(window).unwrap();
            prop_assert_eq!(
                &windowed,
                &db.restrict(window),
                "block_records={} window={:?}",
                block_records,
                window
            );
            prop_assert_eq!(stats, expected_stats(&db, block_records, Some(window)));
        }
    }
}
