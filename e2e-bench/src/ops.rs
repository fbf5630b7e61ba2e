//! The operations a workload runs, each in two forms: the one-call program
//! path the end-to-end metrics time, and a decomposition through each
//! layer's public functions that records one span per layer.
//!
//! Traced operations record into a [`convoy_obs::Registry`]: a root span
//! per operation, contiguous spans around single calls (load, simplify,
//! filter, refine, normalise, finish), and per-layer totals laid end to end
//! with `span_at` where calls interleave per tick (sweep / cluster / fold,
//! stream push / drain / checkpoint).

use crate::workload::{Dataset, StreamInput};
use convoy_core::cuts::filter::{filter_simplified, simplify_database};
use convoy_core::{
    auto_delta, normalize_convoys, refine_partitions, CmcEngine, CmcState, Convoy, CutsConfig,
    CutsVariant, Discovery, Method,
};
use convoy_obs::{Obs, SpanId};
use convoy_stream::{ConvoyStream, FeedIngest};
use std::time::Instant;
use traj_cluster::SnapshotClusterer;
use traj_datasets::open_source;
use trajectory::{SnapshotPolicy, SnapshotSweep, TrajectoryDatabase};

/// Threads (and shards) the parallel CMC engines use: the benchmark's
/// whole thread budget.
pub const ENGINE_THREADS: usize = 2;

/// The stream takes an in-memory checkpoint every this many ticks.
pub const CHECKPOINT_EVERY_TICKS: usize = 500;

/// One kind of operation. A workload cycles through all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CMC on the swept engine.
    Cmc,
    /// CMC on the time-partitioned parallel engine.
    CmcParallel,
    /// CMC on the spatially sharded engine.
    CmcSharded,
    /// CuTS.
    Cuts,
    /// CuTS+.
    CutsPlus,
    /// CuTS*.
    CutsStar,
    /// A tick-by-tick replay through `ConvoyStream`.
    Stream,
}

impl Kind {
    /// Every kind, in cycle order.
    pub const ALL: [Kind; 7] = [
        Kind::Cmc,
        Kind::CmcParallel,
        Kind::CmcSharded,
        Kind::Cuts,
        Kind::CutsPlus,
        Kind::CutsStar,
        Kind::Stream,
    ];

    /// The batch kinds.
    pub const BATCH: [Kind; 6] = [
        Kind::Cmc,
        Kind::CmcParallel,
        Kind::CmcSharded,
        Kind::Cuts,
        Kind::CutsPlus,
        Kind::CutsStar,
    ];

    /// Short name used in metric names (`query_s.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cmc => "cmc",
            Kind::CmcParallel => "cmc_parallel",
            Kind::CmcSharded => "cmc_sharded",
            Kind::Cuts => "cuts",
            Kind::CutsPlus => "cuts_plus",
            Kind::CutsStar => "cuts_star",
            Kind::Stream => "stream",
        }
    }

    /// Name of the root span of a traced operation of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Cmc => "op.cmc",
            Kind::CmcParallel => "op.cmc_parallel",
            Kind::CmcSharded => "op.cmc_sharded",
            Kind::Cuts => "op.cuts",
            Kind::CutsPlus => "op.cuts_plus",
            Kind::CutsStar => "op.cuts_star",
            Kind::Stream => "op.stream",
        }
    }

    fn method(self) -> Method {
        match self {
            Kind::Cuts => Method::Cuts,
            Kind::CutsPlus => Method::CutsPlus,
            Kind::CutsStar => Method::CutsStar,
            _ => Method::Cmc,
        }
    }

    fn engine(self) -> CmcEngine {
        match self {
            Kind::CmcParallel => CmcEngine::Parallel {
                threads: ENGINE_THREADS,
            },
            Kind::CmcSharded => CmcEngine::Sharded {
                shards: ENGINE_THREADS,
            },
            _ => CmcEngine::Swept,
        }
    }
}

/// Counts a traced batch operation reports besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCounts {
    /// Records decoded by the load.
    pub records: u64,
    /// Container blocks read by the load.
    pub blocks_read: u64,
    /// Samples before simplification.
    pub points_in: u64,
    /// Samples after simplification.
    pub points_out: u64,
    /// λ-partitions the filter clustered.
    pub partitions: u64,
    /// Candidate convoys the filter passed to refinement.
    pub candidates: u64,
    /// Ticks the refinement fold ingested.
    pub refine_ticks: u64,
    /// Raw convoys refinement produced (before normalisation).
    pub refined_convoys: u64,
    /// Snapshots the sweep produced.
    pub snapshots: u64,
    /// Points in those snapshots.
    pub sweep_points: u64,
    /// Largest open-candidate count of the CMC fold.
    pub peak_candidates: u64,
}

impl BatchCounts {
    fn add(&mut self, other: &BatchCounts) {
        self.records += other.records;
        self.blocks_read += other.blocks_read;
        self.points_in += other.points_in;
        self.points_out += other.points_out;
        self.partitions += other.partitions;
        self.candidates += other.candidates;
        self.refine_ticks += other.refine_ticks;
        self.refined_convoys += other.refined_convoys;
        self.snapshots += other.snapshots;
        self.sweep_points += other.sweep_points;
        self.peak_candidates = self.peak_candidates.max(other.peak_candidates);
    }
}

/// The one-call program path: open the container, run [`Discovery`] with
/// the kind's method and engine, return the normalised result.
pub fn discover(kind: Kind, dataset: &Dataset) -> Result<Vec<Convoy>, String> {
    let mut source = open_source(&dataset.path).map_err(|e| e.to_string())?;
    let outcome = Discovery::new(kind.method())
        .with_cmc_engine(kind.engine())
        .run_source(source.as_mut(), &dataset.query)
        .map_err(|e| e.to_string())?;
    Ok(outcome.convoys)
}

/// The same query decomposed into layer calls, recorded as a span named
/// after the dataset under the operation span `op`, with one span per
/// layer beneath it. Swept CMC is load → sweep → `cluster_into` →
/// `ingest_clusters` → normalise; the CuTS family is load → simplify →
/// filter → refine → normalise; the parallel and sharded engines run whole
/// between load and normalise.
pub fn discover_traced(
    kind: Kind,
    dataset: &Dataset,
    obs: &Obs,
    op: SpanId,
    counts: &mut BatchCounts,
) -> Result<Vec<Convoy>, String> {
    let root = obs.span_start(dataset.label, op);
    let result = discover_layers(kind, dataset, obs, root, counts);
    obs.span_end(root);
    result
}

fn discover_layers(
    kind: Kind,
    dataset: &Dataset,
    obs: &Obs,
    root: SpanId,
    counts: &mut BatchCounts,
) -> Result<Vec<Convoy>, String> {
    let query = &dataset.query;
    let span = obs.span_start("datasets.load", root);
    let mut source = open_source(&dataset.path).map_err(|e| e.to_string())?;
    let db = source.load().map_err(|e| e.to_string())?;
    let scan = source.scan_stats();
    obs.span_end(span);
    let mut op = BatchCounts {
        records: scan.records_read,
        blocks_read: scan.blocks_read as u64,
        ..BatchCounts::default()
    };

    let raw = match kind {
        Kind::Cmc => swept_cmc(
            &db,
            dataset,
            obs,
            root,
            &mut op,
            &mut SnapshotClusterer::new(),
        ),
        Kind::CmcParallel | Kind::CmcSharded => {
            let span = obs.span_start("engine", root);
            let (raw, _) = kind.engine().run_with_stats(&db, query);
            obs.span_end(span);
            raw
        }
        Kind::Cuts | Kind::CutsPlus | Kind::CutsStar => {
            let variant = kind.method().cuts_variant().unwrap_or(CutsVariant::Cuts);
            let config = CutsConfig::new(variant);

            let span = obs.span_start("simplify", root);
            let delta = auto_delta(&db, query.e);
            let simplified = simplify_database(&db, &config, delta);
            obs.span_end(span);

            let span = obs.span_start("filter", root);
            let output = filter_simplified(&simplified, &db, query, &config, delta);
            obs.span_end(span);

            let span = obs.span_start("refine", root);
            let (raw, fold) = refine_partitions(&db, query, &output.partitions);
            obs.span_end(span);

            op.points_in = output.original_points as u64;
            op.points_out = output.simplified_points as u64;
            op.partitions = output.partitions.len() as u64;
            op.candidates = output.candidates.len() as u64;
            op.refine_ticks = fold.ticks_ingested;
            op.refined_convoys = raw.len() as u64;
            raw
        }
        Kind::Stream => return Err("a stream replay is not a batch query".to_string()),
    };

    let span = obs.span_start("normalise", root);
    let convoys = normalize_convoys(raw, query);
    obs.span_end(span);
    counts.add(&op);
    Ok(convoys)
}

/// Swept CMC driven tick by tick: [`SnapshotSweep::next`], then
/// [`SnapshotClusterer::cluster_into`] (skipped, with an empty cluster list,
/// when the snapshot has fewer than `m` points), then
/// [`CmcState::ingest_clusters`]. The three per-tick totals become the
/// `sweep`, `cluster` and `fold` spans. Returns the raw convoys.
pub fn swept_cmc(
    db: &TrajectoryDatabase,
    dataset: &Dataset,
    obs: &Obs,
    root: SpanId,
    counts: &mut BatchCounts,
    clusterer: &mut SnapshotClusterer,
) -> Vec<Convoy> {
    let query = &dataset.query;
    let Some(domain) = db.time_domain() else {
        return Vec::new();
    };
    let start_ns = obs.now_ns();
    let (mut sweep_ns, mut cluster_ns, mut fold_ns) = (0u64, 0u64, 0u64);
    let mut sweep = SnapshotSweep::new(db, domain, SnapshotPolicy::Interpolate);
    let mut state = CmcState::new(query);
    let mut mark = Instant::now();
    loop {
        let next = sweep.next();
        let swept = Instant::now();
        sweep_ns += nanos(swept - mark);
        let Some(snapshot) = next else { break };
        counts.snapshots += 1;
        counts.sweep_points += snapshot.len() as u64;
        let clustered = if snapshot.len() < query.m {
            state.ingest_clusters(snapshot.time, &[]);
            swept
        } else {
            let clusters = clusterer.cluster_into(&snapshot, query.e, query.m);
            let clustered = Instant::now();
            cluster_ns += nanos(clustered - swept);
            state.ingest_clusters(snapshot.time, clusters);
            clustered
        };
        mark = Instant::now();
        fold_ns += nanos(mark - clustered);
    }
    counts.peak_candidates = counts.peak_candidates.max(state.peak_candidates() as u64);
    let raw = state.finish();
    fold_ns += nanos(mark.elapsed());
    lay_end_to_end(
        obs,
        root,
        start_ns,
        &[
            ("sweep", sweep_ns),
            ("cluster", cluster_ns),
            ("fold", fold_ns),
        ],
    );
    raw
}

/// Records accumulated per-layer totals as consecutive spans from
/// `start_ns`: the layers interleave per tick, so only the durations are
/// real, not the positions.
fn lay_end_to_end(obs: &Obs, root: SpanId, start_ns: u64, totals: &[(&'static str, u64)]) {
    let mut cursor = start_ns;
    for &(name, dur) in totals {
        obs.span_at(name, root, cursor, dur);
        cursor += dur;
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What one replay of a dataset measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Raw convoys: drained ones in drain order, then `finish()`'s.
    pub convoys: Vec<Convoy>,
    /// Samples pushed.
    pub samples: u64,
    /// Wall time from the first push to `finish()` returning, seconds.
    pub elapsed_s: f64,
    /// Largest (watermark at drain − convoy end) over all convoys; the
    /// watermark of `finish()`'s convoys is the final one.
    pub max_emit_delay: i64,
    /// Convoys drained before `finish()`.
    pub drained_early: u64,
    /// Largest checkpoint taken, bytes.
    pub checkpoint_bytes: u64,
    /// λ-partitions the stream closed.
    pub partitions_closed: u64,
    /// Largest number of samples the stream buffered at once.
    pub peak_samples_buffered: u64,
}

/// Replays `dataset` tick by tick, single producer, closed loop: push every
/// sample of a tick, then drain, and every [`CHECKPOINT_EVERY_TICKS`] ticks
/// take an in-memory checkpoint inline. Each tick's latency in nanoseconds
/// (checkpoint ticks included) is appended to `tick_ns`. With a live `obs`,
/// the replay is a span named after the dataset under the operation span
/// `op`, with push, drain and checkpoint totals and `finish()` as spans
/// beneath it.
pub fn replay(
    dataset: &Dataset,
    input: &StreamInput,
    obs: &Obs,
    op: SpanId,
    tick_ns: &mut Vec<u64>,
) -> Result<Replay, String> {
    let root = obs.span_start(dataset.label, op);
    let result = replay_layers(dataset, input, obs, root, tick_ns);
    obs.span_end(root);
    result
}

fn replay_layers(
    dataset: &Dataset,
    input: &StreamInput,
    obs: &Obs,
    root: SpanId,
    tick_ns: &mut Vec<u64>,
) -> Result<Replay, String> {
    let traced = obs.enabled();
    let start_ns = obs.now_ns();
    let (mut push_ns, mut drain_ns, mut checkpoint_ns) = (0u64, 0u64, 0u64);
    let mut out = Replay::default();
    let mut checkpoint_max = 0usize;
    let started = Instant::now();
    let mut stream = ConvoyStream::new(input.config);
    for (i, &(from, to)) in input.ticks.iter().enumerate() {
        let tick_started = Instant::now();
        let mut watermark = 0;
        for &(id, p) in &input.feed[from..to] {
            stream
                .push(id, p.t, p.x, p.y)
                .map_err(|e| format!("{}: the stream rejected a sample: {e}", dataset.label))?;
            watermark = p.t;
        }
        let pushed = if traced { Some(Instant::now()) } else { None };
        for convoy in stream.drain() {
            out.max_emit_delay = out.max_emit_delay.max(watermark - convoy.end);
            out.drained_early += 1;
            out.convoys.push(convoy);
        }
        let drained = if traced { Some(Instant::now()) } else { None };
        if (i + 1) % CHECKPOINT_EVERY_TICKS == 0 {
            let bytes = stream.checkpoint_bytes();
            checkpoint_max = checkpoint_max.max(std::hint::black_box(bytes).len());
        }
        let tick_done = Instant::now();
        tick_ns.push(nanos(tick_done - tick_started));
        if let (Some(pushed), Some(drained)) = (pushed, drained) {
            push_ns += nanos(pushed - tick_started);
            drain_ns += nanos(drained - pushed);
            checkpoint_ns += nanos(tick_done - drained);
        }
    }
    let watermark = stream.watermark();
    lay_end_to_end(
        obs,
        root,
        start_ns,
        &[
            ("stream.push", push_ns),
            ("stream.drain", drain_ns),
            ("checkpoint", checkpoint_ns),
        ],
    );
    let span = obs.span_start("stream.finish", root);
    let outcome = stream.finish();
    obs.span_end(span);
    out.elapsed_s = started.elapsed().as_secs_f64();
    for convoy in outcome.convoys {
        if let Some(watermark) = watermark {
            out.max_emit_delay = out.max_emit_delay.max(watermark - convoy.end);
        }
        out.convoys.push(convoy);
    }
    out.samples = input.feed.len() as u64;
    out.checkpoint_bytes = checkpoint_max as u64;
    out.partitions_closed = outcome.stats.partitions_closed;
    out.peak_samples_buffered = outcome.stats.peak_samples_buffered as u64;
    Ok(out)
}

/// Replays `dataset` with a checkpoint at its middle tick, restores a second
/// stream from those bytes with `from_checkpoint_bytes`, feeds it the rest
/// and finishes it. The convoys drained before the cut plus the restored
/// stream's must equal the uninterrupted replay's, in order. Returns the
/// restore time in seconds.
pub fn verify_resume(
    dataset: &Dataset,
    input: &StreamInput,
    uninterrupted: &[Convoy],
) -> Result<f64, String> {
    let cut = input.ticks.len() / 2;
    let mut stream = ConvoyStream::new(input.config);
    let mut convoys = Vec::new();
    let push_ticks = |stream: &mut ConvoyStream,
                      ticks: &[(usize, usize)],
                      convoys: &mut Vec<Convoy>|
     -> Result<(), String> {
        for &(from, to) in ticks {
            for &(id, p) in &input.feed[from..to] {
                stream.push(id, p.t, p.x, p.y).map_err(|e| e.to_string())?;
            }
            convoys.extend(stream.drain());
        }
        Ok(())
    };
    push_ticks(&mut stream, &input.ticks[..cut], &mut convoys)?;
    let bytes = stream.checkpoint_bytes();
    drop(stream);
    let started = Instant::now();
    let mut restored = ConvoyStream::from_checkpoint_bytes(&bytes).map_err(|e| e.to_string())?;
    let restore_s = started.elapsed().as_secs_f64();
    push_ticks(&mut restored, &input.ticks[cut..], &mut convoys)?;
    convoys.extend(restored.finish().convoys);
    if convoys != uninterrupted {
        return Err(format!(
            "{}: resuming from the tick-{cut} checkpoint gave {} convoys, the uninterrupted replay {}",
            dataset.label,
            convoys.len(),
            uninterrupted.len()
        ));
    }
    Ok(restore_s)
}
