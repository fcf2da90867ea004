//! End-to-end pipeline benchmarks: fleet generation, collector sampling,
//! server ingestion and feature extraction.

use criterion::{criterion_group, criterion_main, Criterion};
use racket_agents::{Fleet, FleetConfig};
use racket_collect::{CollectorConfig, ShardedIngest, SnapshotCollector};
use racket_features::{app_features, device_features};
use racket_types::{InstallId, ParticipantId, SimTime};

fn bench_fleet_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    g.bench_function("generate_60_devices", |b| {
        b.iter(|| Fleet::generate(FleetConfig::test_scale()))
    });
    g.finish();
}

fn bench_collection(c: &mut Criterion) {
    let fleet = Fleet::generate(FleetConfig::test_scale());
    let dev = &fleet.devices[0];
    let mut g = c.benchmark_group("collection");
    g.bench_function("fast_snapshot_sample", |b| {
        let mut collector = SnapshotCollector::new(
            CollectorConfig::default(),
            InstallId(1_000_000_000),
            ParticipantId(111_111),
        );
        let mut t = 0u64;
        b.iter(|| {
            t += 5;
            collector.sample_fast(&dev.device, SimTime::from_secs(t))
        })
    });
    g.bench_function("server_ingest_fast", |b| {
        let mut collector = SnapshotCollector::new(
            CollectorConfig::default(),
            InstallId(1_000_000_000),
            ParticipantId(111_111),
        );
        let snap = racket_types::Snapshot::Fast(collector.sample_fast(&dev.device, SimTime::EPOCH));
        let store = ShardedIngest::new(1);
        b.iter(|| store.ingest(std::hint::black_box(&snap)))
    });
    g.finish();
}

fn bench_features(c: &mut Criterion) {
    // Build one observation through a tiny study.
    let out = racketstore::study::Study::new(racketstore::study::StudyConfig::test_scale()).run();
    let obs = out
        .observations
        .iter()
        .max_by_key(|o| o.record.apps.len())
        .expect("study has observations");
    let app = *obs.record.apps.keys().next().expect("device has apps");
    let mut g = c.benchmark_group("features");
    g.bench_function("app_features", |b| {
        b.iter(|| app_features(std::hint::black_box(obs), app))
    });
    g.bench_function("device_features", |b| {
        b.iter(|| device_features(std::hint::black_box(obs), 0.5))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fleet_generation,
    bench_collection,
    bench_features
);
criterion_main!(benches);
