//! Criterion bench for the **sharded convoy engine**: CMC runtime as the
//! spatial shard count grows, against the swept sequential baseline and the
//! time-partitioned parallel driver, on the Figure-12-scale dataset
//! profiles.
//!
//! On a single-core box the sharded driver pays the halo/merge overhead
//! without clustering speedup, so this bench primarily documents that
//! overhead; run it on a multi-core machine to measure the scaling curve
//! (shard-local DBSCAN dominates CMC runtime and parallelises cleanly).

use convoy_bench::{bench_scale, prepared};
use convoy_core::CmcEngine;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_datasets::ProfileName;

fn engines() -> Vec<(&'static str, CmcEngine)> {
    vec![
        ("swept", CmcEngine::Swept),
        ("parallel-2", CmcEngine::Parallel { threads: 2 }),
        ("sharded-2", CmcEngine::Sharded { shards: 2 }),
        ("sharded-4", CmcEngine::Sharded { shards: 4 }),
        ("sharded-all", CmcEngine::Sharded { shards: 0 }),
    ]
}

fn bench_shard_scaling(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(1));
    for name in ProfileName::ALL {
        let data = prepared(name, scale);
        for (label, engine) in engines() {
            group.bench_with_input(
                BenchmarkId::new(label, name.name()),
                &engine,
                |b, engine| b.iter(|| engine.run_with_stats(&data.dataset.database, &data.query)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
