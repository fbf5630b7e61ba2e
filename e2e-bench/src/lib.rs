//! End-to-end convoy discovery benchmark.
//!
//! One process runs one workload, single client, closed loop: it cycles
//! through every operation kind ([`ops::Kind`]) until the measuring time is
//! up, checks every result, and reports medians. A plain run reports the
//! end-to-end metrics; a traced run drives the same pipeline through each
//! layer's public functions and reports per-layer metrics from the spans
//! it records (see [`ops`]).

pub mod check;
pub mod ops;
pub mod stats;
pub mod workload;

use check::check_result;
use convoy_core::normalize_convoys;
use convoy_obs::{export, Obs, Registry, SpanId};
use ops::{discover, discover_traced, replay, swept_cmc, verify_resume, BatchCounts, Kind, Replay};
use stats::{median, quantile, summary, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use traj_cluster::kernel::LANE_WIDTH;
use traj_cluster::SnapshotClusterer;
use workload::{set_up, streamed, Dataset, Setup, Workload};

/// End-to-end metrics, reported by a plain run: name and unit.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("query_s.cmc", "s"),
    ("query_s.cmc_parallel", "s"),
    ("query_s.cmc_sharded", "s"),
    ("query_s.cuts", "s"),
    ("query_s.cuts_plus", "s"),
    ("query_s.cuts_star", "s"),
    ("stream_samples_per_s", "1/s"),
    ("stream_tick_p50_us", "us"),
    ("stream_tick_p99_us", "us"),
    ("stream_emit_delay_ticks.max", "ticks"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("datasets.load_s", "s"),
    ("datasets.records", "count"),
    ("datasets.blocks_read", "count"),
    ("datasets.write_s", "s"),
    ("simplify.s", "s"),
    ("simplify.points_in", "count"),
    ("simplify.points_out", "count"),
    ("filter.s", "s"),
    ("filter.partitions", "count"),
    ("filter.candidates", "count"),
    ("refine.s", "s"),
    ("refine.ticks", "count"),
    ("refine.convoys_per_candidate", "ratio"),
    ("sweep.s", "s"),
    ("sweep.snapshots", "count"),
    ("sweep.points", "count"),
    ("cluster.s", "s"),
    ("cluster.calls", "count"),
    ("cluster.points_per_call", "count"),
    ("cluster.kernel_lane_util", "ratio"),
    ("cluster.kernel_batches", "count"),
    ("cluster.kernel_lanes", "count"),
    ("fold.s", "s"),
    ("fold.peak_candidates", "count"),
    ("engine.parallel_s", "s"),
    ("engine.sharded_s", "s"),
    ("normalise.s", "s"),
    ("stream.push_s", "s"),
    ("stream.drain_s", "s"),
    ("stream.finish_s", "s"),
    ("stream.partitions_closed", "count"),
    ("stream.peak_samples_buffered", "count"),
    ("checkpoint.s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.restore_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.residual_pct", "%"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the closed loop runs, seconds. The loop stops at the first
    /// cycle boundary past this, after at least one full cycle.
    pub seconds: f64,
    /// Run the traced decomposition and report per-layer metrics.
    pub trace: bool,
    /// Multiplies every profile's scale (1 for the real workloads).
    pub scale: f64,
    /// Directory for the generated containers (created, not removed).
    pub data_dir: PathBuf,
    /// Where a traced run writes its spans as a Chrome trace.
    pub trace_path: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted (each checked).
    pub attempted: u64,
    /// Operations that failed their check or returned an error.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// The reported metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail: spreads, per-profile times, ratios.
    pub lines: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Counts one checked operation; a failure keeps its reason.
    fn checked<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += 1;
                self.failures.push(why);
                None
            }
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// True when every attempted operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line.
    pub fn json(&self) -> String {
        stats::result_json(self.correct(), self.attempted, self.failed, &self.metrics)
    }
}

/// Runs one workload: set-up, the closed loop, the checks.
pub fn run(opts: &Options) -> Result<Report, String> {
    let setup = set_up(opts.workload, opts.seed, opts.scale, &opts.data_dir)?;
    let mut report = Report::new();
    if opts.trace {
        traced(opts, &setup, &mut report)?;
    } else {
        measured(opts, &setup, &mut report);
    }
    report
        .lines
        .push(format!("error_rate {:.6}", report.error_rate()));
    Ok(report)
}

/// One batch operation over every dataset of the workload, untraced.
/// Returns its wall time (open through normalised result, summed over the
/// datasets) and each dataset's result, or why it failed.
fn batch_op(
    kind: Kind,
    datasets: &[Dataset],
    per_dataset_s: &mut [Vec<f64>],
) -> Result<(f64, Vec<Vec<convoy_core::Convoy>>), String> {
    let mut total = 0.0;
    let mut results = Vec::with_capacity(datasets.len());
    for (i, dataset) in datasets.iter().enumerate() {
        let started = Instant::now();
        let convoys = discover(kind, dataset).map_err(|e| format!("{}: {e}", dataset.label))?;
        let elapsed = started.elapsed().as_secs_f64();
        check_result(
            &convoys,
            &dataset.cmc_reference,
            &dataset.planted,
            &dataset.query,
        )
        .map_err(|e| format!("{} on {}: {e}", kind.name(), dataset.label))?;
        total += elapsed;
        per_dataset_s[i].push(elapsed);
        results.push(convoys);
    }
    Ok((total, results))
}

/// One stream operation: replay every streamed dataset. Returns the replays; their
/// summed `elapsed_s` is the operation's time.
fn stream_op(
    datasets: &[Dataset],
    obs: &Obs,
    root: SpanId,
    tick_ns: &mut Vec<u64>,
) -> Result<Vec<Replay>, String> {
    streamed(datasets)
        .map(|(dataset, input)| replay(dataset, input, obs, root, tick_ns))
        .collect()
}

/// Checks each replay's convoys, normalised, against batch CuTS*.
fn check_replays(datasets: &[Dataset], replays: &[Replay]) -> Result<(), String> {
    for ((dataset, input), replay) in streamed(datasets).zip(replays) {
        let convoys = normalize_convoys(replay.convoys.clone(), &dataset.query);
        check_result(&convoys, &input.reference, &dataset.planted, &dataset.query)
            .map_err(|e| format!("stream on {}: {e}", dataset.label))?;
    }
    Ok(())
}

fn replay_s(replays: &[Replay]) -> f64 {
    replays.iter().map(|r| r.elapsed_s).sum()
}

/// Checks checkpoint resume on every dataset against `replays` (one
/// uninterrupted replay per dataset). Returns the summed restore time.
fn resume_op(datasets: &[Dataset], replays: &[Replay]) -> Result<f64, String> {
    let mut restore_s = 0.0;
    for ((dataset, input), replay) in streamed(datasets).zip(replays) {
        restore_s += verify_resume(dataset, input, &replay.convoys)?;
    }
    Ok(restore_s)
}

/// The closed loop's schedule: every kind in turn, at least one full cycle,
/// then until `seconds` have passed.
fn schedule(seconds: f64) -> impl Iterator<Item = Kind> {
    let started = Instant::now();
    Kind::ALL
        .into_iter()
        .cycle()
        .enumerate()
        .take_while(move |(i, _)| *i < Kind::ALL.len() || started.elapsed().as_secs_f64() < seconds)
        .map(|(_, kind)| kind)
}

/// Per-kind timing samples.
#[derive(Default)]
struct Samples {
    op_s: BTreeMap<&'static str, Vec<f64>>,
    /// `[kind][dataset]` seconds.
    dataset_s: BTreeMap<&'static str, Vec<Vec<f64>>>,
}

impl Samples {
    fn new(datasets: usize) -> Self {
        let mut s = Samples::default();
        for kind in Kind::ALL {
            s.op_s.insert(kind.name(), Vec::new());
            s.dataset_s.insert(kind.name(), vec![Vec::new(); datasets]);
        }
        s
    }

    fn op(&self, kind: Kind) -> &[f64] {
        &self.op_s[kind.name()]
    }

    fn push(&mut self, kind: Kind, seconds: f64) {
        if let Some(v) = self.op_s.get_mut(kind.name()) {
            v.push(seconds);
        }
    }
}

/// The plain run: end-to-end metrics.
fn measured(opts: &Options, setup: &Setup, report: &mut Report) {
    let datasets = &setup.datasets;
    let mut samples = Samples::new(datasets.len());
    let mut tick_ns = Vec::new();
    let mut rates = Vec::new();
    let mut max_delay = 0i64;
    let mut drained_early = 0u64;
    let mut checkpoint_bytes = 0u64;
    let mut last_replays = None;
    for kind in schedule(opts.seconds) {
        if kind == Kind::Stream {
            let outcome = stream_op(datasets, &Obs::noop(), SpanId::NONE, &mut tick_ns)
                .and_then(|replays| check_replays(datasets, &replays).map(|()| replays));
            if let Some(replays) = report.checked(outcome) {
                let samples_total: u64 = replays.iter().map(|r| r.samples).sum();
                rates.push(samples_total as f64 / replay_s(&replays));
                samples.push(kind, replay_s(&replays));
                for r in &replays {
                    max_delay = max_delay.max(r.max_emit_delay);
                    checkpoint_bytes = checkpoint_bytes.max(r.checkpoint_bytes);
                }
                drained_early = replays.iter().map(|r| r.drained_early).sum();
                last_replays = Some(replays);
            }
        } else {
            let per_dataset = samples
                .dataset_s
                .get_mut(kind.name())
                .expect("every kind has samples");
            let outcome = batch_op(kind, datasets, per_dataset);
            if let Some((total, _)) = report.checked(outcome) {
                samples.push(kind, total);
            }
        }
    }
    if let Some(replays) = &last_replays {
        report.checked(resume_op(datasets, replays));
    }

    report.metric("setup_s", setup.setup_median(), "s");
    for kind in Kind::BATCH {
        let name = format!("query_s.{}", kind.name());
        report
            .lines
            .push(format!("{name} {}", summary(samples.op(kind))));
        report.metric(&name, median(samples.op(kind)), "s");
    }
    let tick_us: Vec<f64> = tick_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
    report
        .lines
        .push(format!("stream_op_s {}", summary(samples.op(Kind::Stream))));
    report
        .lines
        .push(format!("stream_samples_per_s {}", summary(&rates)));
    report.metric("stream_samples_per_s", median(&rates), "1/s");
    report.metric(
        "stream_tick_p50_us",
        quantile(&tick_us, 0.5).unwrap_or(0.0),
        "us",
    );
    report.metric(
        "stream_tick_p99_us",
        quantile(&tick_us, 0.99).unwrap_or(0.0),
        "us",
    );
    report.metric("stream_emit_delay_ticks.max", max_delay as f64, "ticks");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.lines.push(format!(
        "stream ticks {} drained_before_finish {drained_early} checkpoint_bytes.max {checkpoint_bytes}",
        tick_us.len()
    ));
    report
        .lines
        .push(format!("setup_s {}", summary(&setup.setup_s)));
    per_dataset_lines(setup, &samples, report);
}

/// Per-dataset medians (`profile_s.<profile>.<kind>`) and the derived,
/// ungated ratios: CuTS* over CMC per profile, parallel and sharded over
/// swept.
fn per_dataset_lines(setup: &Setup, samples: &Samples, report: &mut Report) {
    for (i, dataset) in setup.datasets.iter().enumerate() {
        let med = |kind: Kind| median(&samples.dataset_s[kind.name()][i]);
        for kind in Kind::BATCH {
            report.lines.push(format!(
                "profile_s.{}.{} {:.6}",
                dataset.label,
                kind.name(),
                med(kind)
            ));
        }
        let cmc = med(Kind::Cmc);
        report.lines.push(format!(
            "ratio.{}: cuts_star/cmc {:.3} cmc_parallel/cmc {:.3} cmc_sharded/cmc {:.3}",
            dataset.label,
            med(Kind::CutsStar) / cmc,
            med(Kind::CmcParallel) / cmc,
            med(Kind::CmcSharded) / cmc
        ));
    }
}

/// The traced run: every operation twice, once through the one-call path
/// (untraced) and once decomposed with spans; the two results must be
/// equal. Per-layer metrics come from the recorded spans.
fn traced(opts: &Options, setup: &Setup, report: &mut Report) -> Result<(), String> {
    let datasets = &setup.datasets;
    let registry = Arc::new(Registry::new());
    let obs = Obs::registry(Arc::clone(&registry));
    let mut samples = Samples::new(datasets.len());
    let mut counts: BTreeMap<&'static str, BatchCounts> = BTreeMap::new();
    let mut replay_counts: Option<Vec<Replay>> = None;
    let mut unused_ticks = Vec::new();
    for kind in schedule(opts.seconds) {
        if kind == Kind::Stream {
            let plain = stream_op(datasets, &Obs::noop(), SpanId::NONE, &mut unused_ticks);
            let root = obs.span_start(kind.span_name(), SpanId::NONE);
            let traced = stream_op(datasets, &obs, root, &mut unused_ticks);
            obs.span_end(root);
            unused_ticks.clear();
            let outcome = plain.and_then(|plain| {
                check_replays(datasets, &plain)?;
                let traced = traced?;
                if plain
                    .iter()
                    .zip(&traced)
                    .all(|(a, b)| a.convoys == b.convoys)
                {
                    Ok((plain, traced))
                } else {
                    Err("the traced replay differs from the plain replay".to_string())
                }
            });
            if let Some((plain, traced)) = report.checked(outcome) {
                samples.push(kind, replay_s(&plain));
                replay_counts = Some(traced);
            }
        } else {
            let per_dataset = samples
                .dataset_s
                .get_mut(kind.name())
                .expect("every kind has samples");
            let plain = batch_op(kind, datasets, per_dataset);
            let root = obs.span_start(kind.span_name(), SpanId::NONE);
            let mut op_counts = BatchCounts::default();
            let traced: Result<Vec<_>, String> = datasets
                .iter()
                .map(|d| discover_traced(kind, d, &obs, root, &mut op_counts))
                .collect();
            obs.span_end(root);
            let outcome = plain.and_then(|(total, plain)| {
                if traced? == plain {
                    Ok(total)
                } else {
                    Err(format!(
                        "{}: the decomposed pipeline differs from Discovery::run",
                        kind.name()
                    ))
                }
            });
            if let Some(total) = report.checked(outcome) {
                samples.push(kind, total);
                counts.insert(kind.name(), op_counts);
            }
        }
    }

    let mut restore_s = 0.0;
    if let Some(replays) = &replay_counts {
        if let Some(s) = report.checked(resume_op(datasets, replays)) {
            restore_s = s;
        }
    }

    // Cluster counters come from one untimed pass with the registry
    // attached to the clusterer, so their recording costs no traced time.
    let mut clusterer = SnapshotClusterer::new();
    clusterer.set_obs(obs.clone());
    for dataset in datasets {
        let mut source = traj_datasets::open_source(&dataset.path).map_err(|e| e.to_string())?;
        let db = source.load().map_err(|e| e.to_string())?;
        swept_cmc(
            &db,
            dataset,
            &Obs::noop(),
            SpanId::NONE,
            &mut BatchCounts::default(),
            &mut clusterer,
        );
    }

    let spans = registry.spans();
    if let Some(path) = &opts.trace_path {
        std::fs::write(path, export::render_trace(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report
            .lines
            .push(format!("trace written to {}", path.display()));
    }
    let ops = layer_times(&spans);

    // Overhead: median traced op against median plain op, per kind.
    let (mut traced_sum, mut plain_sum) = (0.0, 0.0);
    for kind in Kind::ALL {
        let traced_s: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind == kind.span_name())
            .map(|o| o.total_s)
            .collect();
        traced_sum += median(&traced_s);
        plain_sum += median(samples.op(kind));
        report.lines.push(format!(
            "op_s.{} plain {} | traced {}",
            kind.name(),
            summary(samples.op(kind)),
            summary(&traced_s)
        ));
    }
    let residual_s: f64 = ops
        .iter()
        .map(|o| o.total_s - o.layers.values().sum::<f64>())
        .sum();
    let total_s: f64 = ops.iter().map(|o| o.total_s).sum();

    let layer = |kind: Kind, name: &str| -> f64 {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind == kind.span_name())
            .map(|o| o.layers.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let batch_layer = |name: &str| -> f64 {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind != Kind::Stream.span_name())
            .map(|o| o.layers.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    // The stage split of each kind's traced operations, whole and per
    // dataset: median seconds per layer.
    for kind in Kind::ALL {
        let of_kind: Vec<&TracedOp> = ops.iter().filter(|o| o.kind == kind.span_name()).collect();
        let layers: Vec<&String> = of_kind
            .first()
            .map(|o| o.layers.keys().collect())
            .unwrap_or_default();
        let split = |get: &dyn Fn(&TracedOp, &str) -> f64| -> String {
            layers
                .iter()
                .map(|l| {
                    let v: Vec<f64> = of_kind.iter().map(|o| get(o, l)).collect();
                    format!("{l} {:.6}", median(&v))
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        report.lines.push(format!(
            "stages.{}: {}",
            kind.name(),
            split(&|o, l| o.layers.get(l).copied().unwrap_or(0.0))
        ));
        for dataset in &setup.datasets {
            report.lines.push(format!(
                "stages.{}.{}: {}",
                kind.name(),
                dataset.label,
                split(&|o, l| o
                    .by_dataset
                    .get(&(dataset.label.to_string(), l.to_string()))
                    .copied()
                    .unwrap_or(0.0))
            ));
        }
    }
    per_dataset_lines(setup, &samples, report);

    let c = |kind: Kind| counts.get(kind.name()).copied().unwrap_or_default();
    let (cmc, cuts_star) = (c(Kind::Cmc), c(Kind::CutsStar));
    let replays = replay_counts.unwrap_or_default();
    let calls = registry.counter("cluster.calls");
    let points = registry.counter("cluster.points");
    let kernel_batches = registry.counter("cluster.kernel_batches");
    let kernel_lanes = registry.counter("cluster.kernel_lanes");

    report.metric("datasets.load_s", batch_layer("datasets.load"), "s");
    report.metric("datasets.records", cmc.records as f64, "count");
    report.metric("datasets.blocks_read", cmc.blocks_read as f64, "count");
    report.metric("datasets.write_s", median(&setup.write_s), "s");
    report.metric("simplify.s", layer(Kind::CutsStar, "simplify"), "s");
    report.metric("simplify.points_in", cuts_star.points_in as f64, "count");
    report.metric("simplify.points_out", cuts_star.points_out as f64, "count");
    report.metric("filter.s", layer(Kind::CutsStar, "filter"), "s");
    report.metric("filter.partitions", cuts_star.partitions as f64, "count");
    report.metric("filter.candidates", cuts_star.candidates as f64, "count");
    report.metric("refine.s", layer(Kind::CutsStar, "refine"), "s");
    report.metric("refine.ticks", cuts_star.refine_ticks as f64, "count");
    report.metric(
        "refine.convoys_per_candidate",
        ratio(cuts_star.refined_convoys, cuts_star.candidates),
        "ratio",
    );
    report.metric("sweep.s", layer(Kind::Cmc, "sweep"), "s");
    report.metric("sweep.snapshots", cmc.snapshots as f64, "count");
    report.metric("sweep.points", cmc.sweep_points as f64, "count");
    report.metric("cluster.s", layer(Kind::Cmc, "cluster"), "s");
    report.metric("cluster.calls", calls as f64, "count");
    report.metric("cluster.points_per_call", ratio(points, calls), "count");
    report.metric(
        "cluster.kernel_lane_util",
        ratio(LANE_WIDTH as u64 * kernel_batches, kernel_lanes),
        "ratio",
    );
    report.metric("cluster.kernel_batches", kernel_batches as f64, "count");
    report.metric("cluster.kernel_lanes", kernel_lanes as f64, "count");
    report.metric("fold.s", layer(Kind::Cmc, "fold"), "s");
    report.metric("fold.peak_candidates", cmc.peak_candidates as f64, "count");
    report.metric("engine.parallel_s", layer(Kind::CmcParallel, "engine"), "s");
    report.metric("engine.sharded_s", layer(Kind::CmcSharded, "engine"), "s");
    report.metric("normalise.s", batch_layer("normalise"), "s");
    report.metric("stream.push_s", layer(Kind::Stream, "stream.push"), "s");
    report.metric("stream.drain_s", layer(Kind::Stream, "stream.drain"), "s");
    report.metric("stream.finish_s", layer(Kind::Stream, "stream.finish"), "s");
    report.metric(
        "stream.partitions_closed",
        replays.iter().map(|r| r.partitions_closed).sum::<u64>() as f64,
        "count",
    );
    report.metric(
        "stream.peak_samples_buffered",
        replays
            .iter()
            .map(|r| r.peak_samples_buffered)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    report.metric("checkpoint.s", layer(Kind::Stream, "checkpoint"), "s");
    report.metric(
        "checkpoint.bytes",
        replays
            .iter()
            .map(|r| r.checkpoint_bytes)
            .max()
            .unwrap_or(0) as f64,
        "bytes",
    );
    report.metric("checkpoint.restore_s", restore_s, "s");
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_sum - plain_sum) / plain_sum,
        "%",
    );
    report.metric("trace.residual_pct", 100.0 * residual_s / total_s, "%");
    report.lines.push(format!("trace.ops {}", ops.len()));
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One traced operation as its spans describe it: an `op.<kind>` root,
/// one child span per dataset, and the layer spans beneath those.
struct TracedOp {
    /// Root span name (`op.<kind>`).
    kind: String,
    /// Root span duration, seconds.
    total_s: f64,
    /// Layer span durations summed over datasets, by layer, seconds.
    layers: BTreeMap<String, f64>,
    /// Layer span durations by (dataset, layer), seconds.
    by_dataset: BTreeMap<(String, String), f64>,
}

/// Groups the layer spans under their root operation span. Spans are in
/// creation order, so a parent always precedes its children.
fn layer_times(spans: &[convoy_obs::SpanSnapshot]) -> Vec<TracedOp> {
    let mut ops: Vec<TracedOp> = Vec::new();
    // Span id → (index into `ops`, dataset name when the span is one).
    let mut place: BTreeMap<u64, (usize, Option<&str>)> = BTreeMap::new();
    for span in spans {
        let seconds = span.dur_ns as f64 / 1e9;
        if span.parent == 0 {
            place.insert(span.id, (ops.len(), None));
            ops.push(TracedOp {
                kind: span.name.clone(),
                total_s: seconds,
                layers: BTreeMap::new(),
                by_dataset: BTreeMap::new(),
            });
            continue;
        }
        match place.get(&span.parent).copied() {
            Some((op, None)) => {
                place.insert(span.id, (op, Some(span.name.as_str())));
            }
            Some((op, Some(dataset))) => {
                *ops[op].layers.entry(span.name.clone()).or_default() += seconds;
                *ops[op]
                    .by_dataset
                    .entry((dataset.to_string(), span.name.clone()))
                    .or_default() += seconds;
            }
            None => {}
        }
    }
    ops
}

/// The process's peak resident set (`VmHWM`), MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
