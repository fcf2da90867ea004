//! Microbenchmarks for the simulator hot path: the allocation-free lane
//! engine's kernels benchmarked next to the allocating baselines they
//! replaced, so the EXPERIMENTS.md before/after table can be regenerated
//! from one run.
//!
//! * `simulate/plan_day` — `plan_day_into` (reused [`LaneScratch`],
//!   incremental app indexes) vs the allocating `plan_day` wrapper
//!   (fresh scratch + full index rebuild per call, the pre-overhaul
//!   per-day cost);
//! * `simulate/poll` — steady-state `poll_into` into a pooled
//!   [`SnapshotBatch`] vs `poll` returning fresh vectors per call;
//! * `simulate/lzss` — the rotate-time compressor on a slow (≈8 KiB)
//!   and a fast (≈100 KiB) accumulation file built from real snapshot
//!   records.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use racket_agents::{DeviceAgent, IdAllocator, LaneScratch};
use racket_collect::buffer::{FAST_ROTATE_BYTES, SLOW_ROTATE_BYTES};
use racket_collect::codec::encode_record;
use racket_collect::collector::{CollectorConfig, SnapshotBatch, SnapshotCollector};
use racket_collect::lzss;
use racket_playstore::{AppCatalog, CatalogConfig, GoogleIdDirectory, ReviewStore};
use racket_types::{AndroidId, DeviceId, InstallId, ParticipantId, Persona, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A monitored-study device with realistic history: the input every lane
/// kernel below operates on.
fn study_device() -> (racket_device::Device, DeviceAgent, AppCatalog) {
    let catalog = AppCatalog::generate(&CatalogConfig::default());
    let mut store = ReviewStore::new();
    let mut directory = GoogleIdDirectory::new();
    let mut ids = IdAllocator::default();
    let mut rng = StdRng::seed_from_u64(42);
    let mut device = racket_device::Device::new(
        DeviceId(1),
        racket_device::DeviceModel::generic(),
        AndroidId(1),
    );
    let mut agent = DeviceAgent::new(Persona::OrganicWorker, &mut rng);
    agent.setup_history(
        &mut device,
        &catalog,
        &mut store,
        &mut directory,
        &mut ids,
        SimTime::from_days(30),
        SimTime::from_days(120),
        &mut rng,
    );
    (device, agent, catalog)
}

fn bench_plan_day(c: &mut Criterion) {
    let (device, mut agent, catalog) = study_device();
    let day_start = SimTime::from_days(30);
    let horizon = SimTime::from_days(120);
    let mut g = c.benchmark_group("simulate/plan_day");
    g.bench_function("scratch_reuse", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = LaneScratch::new();
        scratch.seed_indexes(&device, &catalog, Persona::OrganicWorker);
        b.iter(|| {
            agent.plan_day_into(
                &device,
                &catalog,
                day_start,
                horizon,
                &mut rng,
                &mut scratch,
            );
            scratch.actions.len()
        });
    });
    g.bench_function("alloc_per_day", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            agent
                .plan_day(&device, &catalog, day_start, horizon, &mut rng)
                .len()
        });
    });
    g.finish();
}

fn bench_poll(c: &mut Criterion) {
    let (device, _, _) = study_device();
    // One planning day of 5 s fast ticks, sampled in action-sized slices —
    // the steady state (no package churn between polls, so the stamp
    // fast-path holds and the pooled buffers are in charge).
    const SLICES: u64 = 200;
    const SLICE_SECS: u64 = 90;
    let t0 = SimTime::from_days(30);
    let mut g = c.benchmark_group("simulate/poll");
    g.throughput(Throughput::Elements(SLICES));
    g.bench_function("pooled_batch", |b| {
        let mut batch = SnapshotBatch::new();
        b.iter(|| {
            let mut collector =
                SnapshotCollector::new(CollectorConfig::default(), InstallId(1), ParticipantId(1));
            let mut n = 0usize;
            for s in 0..SLICES {
                let now = SimTime::from_secs(t0.as_secs() + (s + 1) * SLICE_SECS);
                batch.clear();
                collector.poll_into(&device, now, &mut batch);
                n += batch.len();
            }
            n
        });
    });
    g.bench_function("alloc_per_poll", |b| {
        b.iter(|| {
            let mut collector =
                SnapshotCollector::new(CollectorConfig::default(), InstallId(1), ParticipantId(1));
            let mut n = 0usize;
            for s in 0..SLICES {
                let now = SimTime::from_secs(t0.as_secs() + (s + 1) * SLICE_SECS);
                n += collector.poll(&device, now).len();
            }
            n
        });
    });
    g.finish();
}

/// The files the data buffer actually compresses: one slow and one fast
/// accumulation file, each filled with `encode_record` output from
/// polling the study device until it crosses its rotate threshold
/// (about 8 KiB and 100 KiB).
fn accumulation_files() -> [(&'static str, Vec<u8>); 2] {
    let (device, _, _) = study_device();
    let mut collector =
        SnapshotCollector::new(CollectorConfig::default(), InstallId(1), ParticipantId(1));
    let mut batch = SnapshotBatch::new();
    let (mut slow, mut fast) = (Vec::new(), Vec::new());
    let mut now = SimTime::from_days(30).as_secs();
    while slow.len() < SLOW_ROTATE_BYTES || fast.len() < FAST_ROTATE_BYTES {
        now += 90;
        batch.clear();
        collector.poll_into(&device, SimTime::from_secs(now), &mut batch);
        for snapshot in batch.snapshots() {
            let (file, threshold) = if snapshot.is_fast() {
                (&mut fast, FAST_ROTATE_BYTES)
            } else {
                (&mut slow, SLOW_ROTATE_BYTES)
            };
            if file.len() < threshold {
                encode_record(snapshot, file);
            }
        }
    }
    [("slow_file", slow), ("fast_file", fast)]
}

fn bench_lzss(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulate/lzss");
    for (name, data) in accumulation_files() {
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_function(name, |b| {
            let mut ws = lzss::Workspace::new();
            let mut out = Vec::new();
            b.iter(|| {
                ws.compress_into(std::hint::black_box(&data), &mut out);
                out.len()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_plan_day, bench_poll, bench_lzss);
criterion_main!(benches);
