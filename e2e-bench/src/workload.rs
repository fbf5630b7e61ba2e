//! The workloads and their set-up: generate every input from the seed,
//! write it as `.convoy` containers, and compute the references the
//! correctness gate compares against.

use crate::stats::median;
use convoy_core::{Convoy, ConvoyQuery, CutsConfig, CutsVariant, Discovery, Method};
use convoy_stream::{feed_order_samples, replay_config, EvictionPolicy, StreamConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;
use traj_datasets::container::DEFAULT_BLOCK_RECORDS;
use traj_datasets::{generate, write_container_file, DatasetProfile, PlantedConvoy, ProfileName};
use trajectory::{ObjectId, TrajPoint, TrajectoryDatabase};

/// How often set-up runs per benchmark run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The four Table-3 profiles (Truck, Cattle, Car, Taxi) at scale 1: the
    /// paper's Figure 12 at full size. One operation queries all four.
    PaperX1,
    /// Taxi at scale 4: dense ticks, where the CuTS filter dominates. One
    /// operation is one query.
    TaxiX4,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperX1, Workload::TaxiX4];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperX1 => "paper-x1",
            Workload::TaxiX4 => "taxi-x4",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The profiles this workload generates, with their scale.
    fn profiles(self) -> Vec<(ProfileName, f64)> {
        match self {
            Workload::PaperX1 => ProfileName::ALL.iter().map(|p| (*p, 1.0)).collect(),
            Workload::TaxiX4 => vec![(ProfileName::Taxi, 4.0)],
        }
    }
}

/// One generated dataset with everything the operations need.
pub struct Dataset {
    /// Lower-case profile name (`truck`, `cattle`, `car`, `taxi`).
    pub label: &'static str,
    /// The profile's Table-3 query.
    pub query: ConvoyQuery,
    /// The `.convoy` container every batch operation reads.
    pub path: PathBuf,
    /// The planted convoys every result must cover.
    pub planted: Vec<PlantedConvoy>,
    /// Swept CMC on the in-memory database: the batch reference.
    pub cmc_reference: Vec<Convoy>,
    /// The stream replay's input; `None` for a dataset the stream skips
    /// (see [`horizon`]).
    pub stream: Option<StreamInput>,
}

/// What a stream replay of a dataset needs.
pub struct StreamInput {
    /// CuTS* with δ and λ from [`replay_config`], and a horizon.
    pub config: StreamConfig,
    /// Every sample in feed order (ascending time, then object id).
    pub feed: Vec<(ObjectId, TrajPoint)>,
    /// Half-open index ranges of `feed`, one per tick that has samples.
    pub ticks: Vec<(usize, usize)>,
    /// Batch CuTS* on the in-memory database: the stream reference.
    pub reference: Vec<Convoy>,
}

/// The datasets the stream replays, with their stream input.
pub fn streamed(datasets: &[Dataset]) -> impl Iterator<Item = (&Dataset, &StreamInput)> {
    datasets
        .iter()
        .filter_map(|d| d.stream.as_ref().map(|input| (d, input)))
}

/// The stream's eviction horizon for a profile: 1.2 × the planted convoy
/// lifetime (1440 ticks on taxi x4). `None` where the query's `m` is 2: the
/// stream skips that profile (Cattle).
///
/// Under [`EvictionPolicy::unbounded`], the replay default, a departed
/// object blocks every later partition close forever, so on Truck, Car and
/// taxi x4 no convoy is drained before `finish()` and the stream degenerates
/// into a batch run with extra bookkeeping. A horizon lets partitions close
/// once the watermark is past a silent object's last sample by more than
/// the horizon, so the drain delay stays just above it. It also caps every
/// reported convoy at `horizon` ticks, so it must exceed the longest convoy
/// for the stream to keep equalling batch CuTS*. With `m` ≥ 3 the longest
/// convoys are the planted ones. With `m` = 2 any two of Cattle's animals
/// that graze together form a convoy, and such chance pairs last up to 13k
/// ticks (measured over 40 seeds). A 2,400-tick horizon then cuts them, and
/// a 40,000-tick one makes the stream buffer ~160k samples and serialise
/// 4 MB at each of its 351 checkpoints, which swamps every stream metric
/// and varies twofold with the seed.
pub fn horizon(profile: &DatasetProfile) -> Option<i64> {
    (profile.m > 2).then(|| profile.convoy_lifetime * 6 / 5)
}

/// The workload's inputs plus the set-up timings.
pub struct Setup {
    /// The datasets, in profile order.
    pub datasets: Vec<Dataset>,
    /// Wall time of each set-up repetition (generate + write), seconds.
    pub setup_s: Vec<f64>,
    /// Container-writing time of each repetition, seconds.
    pub write_s: Vec<f64>,
}

impl Setup {
    /// Median set-up time.
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// Generates the workload's inputs from `seed` (profile sizes multiplied by
/// `scale`), writes them as containers under `dir`, repeating generation
/// and writing [`SETUP_REPS`] times, then derives the references.
pub fn set_up(workload: Workload, seed: u64, scale: f64, dir: &Path) -> Result<Setup, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let profiles: Vec<(ProfileName, DatasetProfile, u64, PathBuf)> = workload
        .profiles()
        .into_iter()
        .enumerate()
        .map(|(i, (name, profile_scale))| {
            let profile = DatasetProfile::named(name).scaled(profile_scale * scale);
            let dataset_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let path = dir.join(format!("{}.convoy", label(name)));
            (name, profile, dataset_seed, path)
        })
        .collect();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut write_s = Vec::with_capacity(SETUP_REPS);
    let mut generated = Vec::new();
    for _ in 0..SETUP_REPS {
        generated.clear();
        let started = Instant::now();
        let mut writing = 0.0;
        for (_, profile, dataset_seed, path) in &profiles {
            let data = generate(profile, *dataset_seed);
            let write_started = Instant::now();
            write_container_file(&data.database, path, DEFAULT_BLOCK_RECORDS)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            writing += write_started.elapsed().as_secs_f64();
            generated.push(data);
        }
        setup_s.push(started.elapsed().as_secs_f64());
        write_s.push(writing);
    }

    let datasets = profiles
        .into_iter()
        .zip(generated)
        .map(|((name, profile, _, path), data)| {
            let label = label(name);
            let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
            let db = &data.database;
            let stream = horizon(&profile).map(|h| {
                let config = replay_config(&CutsConfig::new(CutsVariant::CutsStar), db, &query)
                    .with_eviction(EvictionPolicy::unbounded().with_horizon(h));
                let feed = feed_order_samples(db);
                let ticks = tick_ranges(&feed);
                StreamInput {
                    config,
                    feed,
                    ticks,
                    reference: reference(Method::CutsStar, db, &query),
                }
            });
            Dataset {
                label,
                query,
                path,
                cmc_reference: reference(Method::Cmc, db, &query),
                planted: data.ground_truth,
                stream,
            }
        })
        .collect();
    Ok(Setup {
        datasets,
        setup_s,
        write_s,
    })
}

fn label(name: ProfileName) -> &'static str {
    match name {
        ProfileName::Truck => "truck",
        ProfileName::Cattle => "cattle",
        ProfileName::Car => "car",
        ProfileName::Taxi => "taxi",
    }
}

fn reference(method: Method, db: &TrajectoryDatabase, query: &ConvoyQuery) -> Vec<Convoy> {
    Discovery::new(method).run(db, query).convoys
}

fn tick_ranges(feed: &[(ObjectId, TrajPoint)]) -> Vec<(usize, usize)> {
    let mut ticks = Vec::new();
    let mut start = 0;
    while start < feed.len() {
        let t = feed[start].1.t;
        let end = start + feed[start..].partition_point(|(_, p)| p.t == t);
        ticks.push((start, end));
        start = end;
    }
    ticks
}
