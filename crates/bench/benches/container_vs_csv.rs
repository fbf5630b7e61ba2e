//! Cold-start ingestion: the binary `.convoy` columnar container against
//! plain CSV, on identical databases. "Cold" means every iteration starts
//! from raw bytes — the CSV side pays text parsing per sample, the container
//! side pays one header walk plus per-block CRC + column decode — so the
//! ratio is the zero-parse dividend `convoy convert` buys. The windowed
//! group measures the other half of the trade: the block time-index lets a
//! `--from/--to` query skip non-intersecting blocks entirely, which no flat
//! text format can do without reading every line.
//!
//! Results are recorded in `BENCH_container_vs_csv.json` at the repo root,
//! next to `BENCH_baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::io::Cursor;
use traj_datasets::container::DEFAULT_BLOCK_RECORDS;
use traj_datasets::io::{read_csv, write_csv};
use traj_datasets::{generate, write_container, ContainerReader, DatasetProfile};
use trajectory::{TimeInterval, TrajectoryDatabase};

/// One prepared dataset: the same database serialized both ways.
struct Corpus {
    label: &'static str,
    db: TrajectoryDatabase,
    csv: Vec<u8>,
    convoy: Vec<u8>,
}

fn corpus(label: &'static str, scale: f64, seed: u64) -> Corpus {
    let data = generate(&DatasetProfile::truck().scaled(scale), seed);
    let mut csv = Vec::new();
    write_csv(&data.database, &mut csv).expect("CSV encode");
    let mut convoy = Vec::new();
    write_container(
        &data.database,
        &mut Cursor::new(&mut convoy),
        DEFAULT_BLOCK_RECORDS,
    )
    .expect("container encode");
    Corpus {
        label,
        db: data.database,
        csv,
        convoy,
    }
}

fn corpora() -> Vec<Corpus> {
    vec![
        corpus("truck_0.05", 0.05, 20080824),
        corpus("truck_0.20", 0.20, 20080824),
    ]
}

fn bench_cold_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/cold_load");
    for corpus in corpora() {
        let points = corpus.db.total_points();
        let id = format!("{} ({points} pts)", corpus.label);
        group.bench_with_input(BenchmarkId::new("csv", &id), &corpus, |b, corpus| {
            b.iter(|| {
                let db = read_csv(corpus.csv.as_slice()).expect("CSV parse");
                db.total_points()
            })
        });
        group.bench_with_input(BenchmarkId::new("convoy", &id), &corpus, |b, corpus| {
            b.iter(|| {
                let mut reader =
                    ContainerReader::open(Cursor::new(corpus.convoy.as_slice())).expect("open");
                let (db, _) = reader.load().expect("decode");
                db.total_points()
            })
        });
        // The steady-state container path: reader (and its block buffer)
        // survives across loads, as in `ContainerSource`.
        group.bench_with_input(
            BenchmarkId::new("convoy_warm", &id),
            &corpus,
            |b, corpus| {
                let mut reader =
                    ContainerReader::open(Cursor::new(corpus.convoy.as_slice())).expect("open");
                b.iter(|| {
                    let (db, _) = reader.load().expect("decode");
                    db.total_points()
                })
            },
        );
    }
    group.finish();
}

fn bench_windowed_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/windowed_load");
    for corpus in corpora() {
        let domain = corpus.db.time_domain().expect("non-empty");
        let third = (domain.end - domain.start) / 3;
        let window = TimeInterval::new(domain.start + third, domain.start + 2 * third);
        let id = corpus.label;
        // CSV has no index: a windowed query parses everything, then trims.
        group.bench_with_input(
            BenchmarkId::new("csv_parse_restrict", id),
            &corpus,
            |b, corpus| {
                b.iter(|| {
                    let db = read_csv(corpus.csv.as_slice()).expect("CSV parse");
                    db.restrict(window).total_points()
                })
            },
        );
        // The container prunes by block time range before decoding.
        group.bench_with_input(
            BenchmarkId::new("convoy_pruned", id),
            &corpus,
            |b, corpus| {
                let mut reader =
                    ContainerReader::open(Cursor::new(corpus.convoy.as_slice())).expect("open");
                b.iter(|| {
                    let (db, stats) = reader.load_window(window).expect("decode");
                    (db.total_points(), stats.blocks_read)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cold_load, bench_windowed_load);
criterion_main!(benches);
