//! The two study workloads: the whole pipeline from `StudyConfig` to the
//! last verdict, driven through the crates' public functions.

use crate::trace::Tracer;
use crate::{median, Metrics, Outcome};
use racket_agents::{CampaignConfig, Fleet, FleetConfig, PacingStrategy};
use racket_collect::{CollectorConfig, FaultPlan};
use racket_ml::{cross_validate, Classifier, GradientBoosting, GradientBoostingParams, Resampling};
use racket_obs::{install_global, Registry, RegistrySnapshot};
use racket_types::metrics::keys;
use racketstore::app_classifier::{AppClassifier, AppUsageDataset};
use racketstore::device_classifier::DeviceDataset;
use racketstore::labeling::{label_apps, LabelingConfig};
use racketstore::measurements::MeasurementReport;
use racketstore::scoring::DetectionService;
use racketstore::study::{CollectionPath, Study, StudyConfig, StudyOutput};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::time::Instant;

/// Quality floors for the deterministic guards: every fleet's app
/// classifier, and on `wire-text-hostile` the campaign detector averaged
/// over a pass's fleets (one fleet's recall alone swings between 0.5 and
/// 1). A run below them fails its output check: no speed-up may trade
/// accuracy away. They sit under the lowest values seen over the
/// development seeds (README.md).
const MIN_APP_CV_F1: f64 = 0.95;
const MIN_CAMPAIGN_RECALL: f64 = 0.5;
const MIN_CAMPAIGN_PRECISION: f64 = 0.75;

/// Set-up runs this many times per fleet; the median is reported. One
/// set-up is a fraction of a second, shorter than the swings in this
/// machine's speed, so it is sampled several times.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyWorkload {
    PaperDirect,
    WireTextHostile,
}

impl StudyWorkload {
    /// The workload's study configuration; `seed` drives both the fleet
    /// and the behaviour replay.
    pub fn config(self, seed: u64) -> StudyConfig {
        let mut cfg = match self {
            StudyWorkload::PaperDirect => StudyConfig::paper_scale(),
            // The 268-device mid fleet of the experiment binaries.
            StudyWorkload::WireTextHostile => StudyConfig {
                fleet: FleetConfig {
                    n_regular: 74,
                    n_organic: 134,
                    n_dedicated: 60,
                    history_days: 540,
                    max_study_days: 10,
                    no_android_id_rate: 0.06,
                    review_text: true,
                    campaigns: CampaignConfig::with(4, PacingStrategy::Burst),
                    ..FleetConfig::paper_scale()
                },
                collector: CollectorConfig {
                    fast_period_secs: 60,
                    slow_period_secs: 120,
                    collect_reviews: false,
                },
                path: CollectionPath::Wire,
                seed: 0,
                faults: FaultPlan::hostile(),
            },
        };
        cfg.seed = seed;
        cfg.fleet.seed = seed;
        cfg
    }

    fn labeling(self) -> LabelingConfig {
        match self {
            StudyWorkload::PaperDirect => LabelingConfig::default(),
            StudyWorkload::WireTextHostile => LabelingConfig {
                min_worker_installs: 3,
                ..LabelingConfig::default()
            },
        }
    }

    /// Fleets per run, each generated from its own seed derived from
    /// `--seed`. Work varies by a few percent from seed to seed (±3%
    /// snapshots at paper scale); summed over the set it varies less.
    fn fleets(self) -> u64 {
        match self {
            StudyWorkload::PaperDirect => 4,
            StudyWorkload::WireTextHostile => 3,
        }
    }

    pub fn fleet_seeds(self, seed: u64) -> Vec<u64> {
        (0..self.fleets())
            .map(|j| seed.wrapping_mul(16).wrapping_add(j))
            .collect()
    }

    /// Device-dataset cohort sizes: the paper's 178 workers + 88 regular
    /// at paper scale, every eligible device otherwise.
    fn subsample(self) -> Option<(usize, usize)> {
        match self {
            StudyWorkload::PaperDirect => Some((178, 88)),
            StudyWorkload::WireTextHostile => None,
        }
    }
}

/// What one pipeline run leaves for metrics and checks.
struct Run {
    secs: f64,
    fingerprint: u64,
    snapshots: u64,
    files: u64,
    bad_uploads: u64,
    app_cv_f1: f64,
    campaign_recall: f64,
    campaign_precision: f64,
    model_bytes: u64,
    text_reviews: u64,
    reviews_crawled: u64,
    candidate_pairs: u64,
    clusters: u64,
    /// The study registry merged with the process-global one.
    registry: RegistrySnapshot,
    failures: Vec<String>,
}

/// Run the whole pipeline once. Everything between `StudyConfig` and the
/// measurement report is timed; the output checks run afterwards.
fn pipeline(w: StudyWorkload, seed: u64, t: &mut Tracer) -> Run {
    // Fleet-generation and CV-fold spans go to the process-global
    // registry; a fresh one per run keeps runs apart.
    let previous = install_global(Registry::new());
    let start = Instant::now();
    let r = t.span("pipeline", |t| {
        let cfg = w.config(seed);
        let out = t.span("study", |_| Study::new(cfg).run());
        let labels = t.span("labeling", |_| label_apps(&out, &w.labeling()));
        let app_data = t.span("app_dataset", |_| AppUsageDataset::build(&out, &labels));
        let cv = t.span("cv", |_| {
            cross_validate(
                || {
                    Box::new(GradientBoosting::new(GradientBoostingParams::default()))
                        as Box<dyn Classifier>
                },
                &app_data.data,
                2,
                1,
                Resampling::None,
                42,
            )
        });
        let app_clf = t.span("train_app", |_| AppClassifier::train(&app_data));
        let device_data = t.span("device_dataset", |_| {
            DeviceDataset::build(&out, &app_clf, 2, w.subsample(), 7)
        });
        let trained = t.span("train_service", |_| {
            DetectionService::train(&app_clf, &device_data)
        });
        let (model, service) = t.span("model_roundtrip", |_| {
            let bytes = trained.to_bytes();
            let service = DetectionService::from_bytes(&bytes);
            (bytes, service)
        });
        let service = service.expect("the service decodes from its own bytes");
        let primed = t.span("prime", |_| service.prime(&out));
        let batch = t.span("score_batch", |_| service.score_batch(&out));
        let streaming = t.span("score_streaming", |_| {
            service.score_streaming(&out, &primed)
        });
        let campaigns = t.span("campaign_batch", |_| {
            racketstore::campaign::batch_report(&out)
        });
        let texts = match w {
            StudyWorkload::WireTextHostile => Some(t.span("text_batch", |_| {
                racketstore::text::batch_text_sketches(&out)
            })),
            StudyWorkload::PaperDirect => None,
        };
        let report = t.span("measurements", |_| MeasurementReport::compute(&out));
        (
            out, cv, model, service, batch, streaming, campaigns, texts, report,
        )
    });
    let secs = start.elapsed().as_secs_f64();
    let (out, cv, model, service, batch, streaming, campaigns, texts, report) = r;
    std::hint::black_box(&report);

    let mut failures = Vec::new();
    if streaming.len() != batch.len() || streaming.len() != out.observations.len() {
        failures.push("verdict count differs between streaming, batch and devices".into());
    }
    for (i, (s, b)) in streaming.iter().zip(&batch).enumerate() {
        if s.proba.to_bits() != b.proba.to_bits()
            || s.suspiciousness.to_bits() != b.suspiciousness.to_bits()
            || s.is_worker != b.is_worker
        {
            failures.push(format!("device {i}: streaming verdict != batch verdict"));
            break;
        }
    }
    if campaigns != out.campaigns {
        failures.push("campaign::batch_report != the study's incremental report".into());
    }
    if racketstore::text::streaming_text_fingerprint(&out)
        != racketstore::text::batch_text_fingerprint(&out)
    {
        failures.push("streaming text sketches != batch rebuild".into());
    }
    if service.to_bytes() != model {
        failures.push("RKML round-trip changed the service".into());
    }
    let eval = racketstore::campaign::evaluate(&out.campaigns, &out);
    let (f1, recall, precision) = (cv.metrics.f1, eval.recall(), eval.precision());
    if f1.is_nan() || f1 < MIN_APP_CV_F1 {
        failures.push(format!("app_cv_f1 {f1} < {MIN_APP_CV_F1}"));
    }
    if out.server_stats.snapshots == 0 {
        failures.push("no snapshots ingested".into());
    }

    let mut registry = out.obs.snapshot();
    registry.merge(&install_global(previous).snapshot());
    Run {
        secs,
        fingerprint: data_fingerprint(&out),
        snapshots: out.server_stats.snapshots,
        files: out.server_stats.files,
        bad_uploads: out.server_stats.bad_uploads,
        app_cv_f1: f1,
        campaign_recall: recall,
        campaign_precision: precision,
        model_bytes: model.len() as u64,
        text_reviews: texts
            .map(|v| v.iter().map(|(_, s)| s.n_reviews() as u64).sum())
            .unwrap_or(0),
        reviews_crawled: out.reviews_crawled as u64,
        candidate_pairs: out.campaigns.n_candidate_pairs,
        clusters: out.campaigns.campaigns.len() as u64,
        registry,
        failures,
    }
}

/// Hash of the collected data, from public fields only: every install
/// record, join and ground-truth persona, hash maps in sorted key order,
/// plus the server's data-plane counts. Wall times, fault and retry
/// counters and `dup_files` (which vary with scheduling and the fault
/// plan) stay out.
fn data_fingerprint(out: &StudyOutput) -> u64 {
    struct HashWriter(std::collections::hash_map::DefaultHasher);
    impl std::fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = HashWriter(Default::default());
    for (obs, truth) in out.observations.iter().zip(&out.truth) {
        let r = &obs.record;
        let foreground: BTreeMap<_, _> = r.foreground.iter().collect();
        let apps: BTreeMap<_, _> = r.apps.iter().collect();
        let mut installed: Vec<_> = r.installed_now.iter().collect();
        installed.sort();
        let reviews: BTreeMap<_, _> = obs.reviews_by_app.iter().collect();
        let vt: BTreeMap<_, _> = obs.vt_flags.iter().collect();
        let mut pre: Vec<_> = obs.preinstalled.iter().collect();
        pre.sort();
        writeln!(
            h,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{foreground:?}{apps:?}{installed:?}\
             {:?}{:?}{:?}{:?}{:?}{:?}{reviews:?}{vt:?}{pre:?}|{:?}",
            r.install_id,
            r.participant,
            r.android_id,
            r.first_seen,
            r.last_seen,
            r.n_fast,
            r.n_slow,
            r.snapshots_per_day,
            r.install_events,
            r.uninstall_events,
            r.accounts,
            r.stopped_apps,
            obs.monitoring,
            obs.google_ids,
            truth.persona
        )
        .expect("hashing cannot fail");
    }
    let st = &out.server_stats;
    write!(
        h,
        "crawled={} coalesced={} sign_ins={} rejected={} files={} snapshots={} bad={} \
         store_reviews={}",
        out.reviews_crawled,
        out.coalesced_devices,
        st.sign_ins,
        st.rejected_sign_ins,
        st.files,
        st.snapshots,
        st.bad_uploads,
        out.fleet.store.total_reviews()
    )
    .expect("hashing cannot fail");
    h.0.finish()
}

/// Run one study workload: set-up, then untraced passes over the run's
/// fleets for `seconds`, and with `trace` one traced pipeline of the first
/// fleet at one thread and one at `nproc`.
pub fn run(w: StudyWorkload, seed: u64, seconds: f64, trace: bool, nproc: usize) -> Outcome {
    // The timed runs pin the pool to one thread: at two threads on a
    // two-core box the spread is several times wider (README.md).
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let seeds = w.fleet_seeds(seed);

    // Set-up, for each fleet: build the configuration and generate its
    // fleet, checking its shape. `Study::run` generates the fleet again
    // inside the timed pipeline, so `pipeline_s` still counts fleet
    // generation.
    let mut setup = Vec::new();
    let mut failures = Vec::new();
    for &s in seeds.iter().cycle().take(seeds.len() * SETUP_REPEATS) {
        let t0 = Instant::now();
        let cfg = w.config(s);
        let fleet = Fleet::generate(cfg.fleet.clone());
        setup.push(t0.elapsed().as_secs_f64());
        if fleet.devices.len() != cfg.fleet.n_devices() {
            failures.push(format!(
                "fleet has {} devices, config asks for {}",
                fleet.devices.len(),
                cfg.fleet.n_devices()
            ));
        }
    }

    let mut off = Tracer::new(false);
    let mut passes: Vec<Vec<Run>> = Vec::new();
    let started = Instant::now();
    loop {
        passes.push(seeds.iter().map(|&s| pipeline(w, s, &mut off)).collect());
        let per_pass = started.elapsed().as_secs_f64() / passes.len() as f64;
        if started.elapsed().as_secs_f64() + per_pass > seconds {
            break;
        }
    }

    for pass in &passes {
        for (j, r) in pass.iter().enumerate() {
            failures.extend(r.failures.iter().cloned());
            if r.fingerprint != passes[0][j].fingerprint {
                failures.push(format!("fleet {j}: data fingerprint differs between runs"));
            }
        }
        // Only `wire-text-hostile` schedules campaigns. On `paper-direct`
        // `evaluate` reads any detected cluster as a false positive.
        if w == StudyWorkload::WireTextHostile {
            let n = pass.len() as f64;
            let recall = pass.iter().map(|r| r.campaign_recall).sum::<f64>() / n;
            let precision = pass.iter().map(|r| r.campaign_precision).sum::<f64>() / n;
            if recall.is_nan() || recall < MIN_CAMPAIGN_RECALL {
                failures.push(format!(
                    "mean campaign_recall {recall} < {MIN_CAMPAIGN_RECALL}"
                ));
            }
            if precision.is_nan() || precision < MIN_CAMPAIGN_PRECISION {
                failures.push(format!(
                    "mean campaign_precision {precision} < {MIN_CAMPAIGN_PRECISION}"
                ));
            }
        }
    }
    let per_pass = |f: &dyn Fn(&[Run]) -> f64| -> f64 {
        median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let sum = |p: &[Run], f: &dyn Fn(&Run) -> f64| -> f64 { p.iter().map(f).sum() };

    let mut metrics = Metrics::default();
    let mut trace_out = None;
    if trace {
        let mut t = Tracer::new(true);
        let traced = pipeline(w, seeds[0], &mut t);
        std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
        let wide = pipeline(w, seeds[0], &mut Tracer::new(false));
        std::env::set_var("RAYON_NUM_THREADS", "1");
        crate::alloc::set_counting(false);
        for r in [&traced, &wide] {
            failures.extend(r.failures.iter().cloned());
            if r.fingerprint != passes[0][0].fingerprint {
                failures.push("data fingerprint differs between 1 thread and nproc".into());
            }
        }
        let untraced = per_pass(&|p| p[0].secs);
        per_layer(w, &traced, &t, untraced, wide.secs, &mut metrics);
        trace_out = Some((t, traced.registry));
    } else {
        // Delivery latency over every delivery of the pass's fleets.
        let deliver_ms = |p: &[Run], q: f64| -> f64 {
            let mut h = racket_obs::HistogramSnapshot::empty();
            for d in p
                .iter()
                .filter_map(|r| r.registry.histogram("span.simulate/deliver"))
            {
                h.merge(d);
            }
            h.quantile(q) / 1e6
        };
        let snapshots = |r: &Run| r.snapshots as f64;
        metrics.put("setup_s", median(&setup), "s");
        metrics.put(
            "pipeline_s",
            per_pass(&|p| sum(p, &|r| r.secs) / p.len() as f64),
            "s",
        );
        metrics.put(
            "snapshots_per_s",
            per_pass(&|p| sum(p, &snapshots) / sum(p, &|r| r.secs)),
            "1/s",
        );
        metrics.put(
            "ingest_snapshots_per_s",
            per_pass(&|p| {
                sum(p, &snapshots) / sum(p, &|r| r.registry.span_secs("simulate/deliver"))
            }),
            "1/s",
        );
        metrics.put("ack_p50_ms", per_pass(&|p| deliver_ms(p, 0.50)), "ms");
        metrics.put("ack_p99_ms", per_pass(&|p| deliver_ms(p, 0.99)), "ms");
        metrics.put("peak_rss_mb", crate::alloc::peak_rss_mb(), "MiB");
    }

    // On the direct path there are no upload files: every snapshot is
    // handed to the sharded store, which has no rejection path, so the
    // operations counted are snapshots. On the wire path they are upload
    // files: accepted ones plus those the server rejected as bad.
    let all: Vec<&Run> = passes.iter().flatten().collect();
    let (attempted, failed): (u64, u64) = match w {
        StudyWorkload::PaperDirect => (all.iter().map(|r| r.snapshots).sum(), 0),
        StudyWorkload::WireTextHostile => (
            all.iter().map(|r| r.files + r.bad_uploads).sum(),
            all.iter().map(|r| r.bad_uploads).sum(),
        ),
    };
    if !trace {
        metrics.put(
            "delivered_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }
    let fleets: Vec<String> = passes[0]
        .iter()
        .zip(&seeds)
        .map(|(r, s)| {
            format!(
                "[seed={s} fingerprint={:016x} snapshots={} files={} pipeline_s={:.3} \
                 app_cv_f1={:.4} campaign_recall={} campaign_precision={}]",
                r.fingerprint,
                r.snapshots,
                r.files,
                r.secs,
                r.app_cv_f1,
                r.campaign_recall,
                r.campaign_precision
            )
        })
        .collect();
    Outcome {
        failures,
        attempted,
        failed,
        metrics,
        summary: format!("passes={} fleets={}", passes.len(), fleets.join(" ")),
        config_debug: seeds
            .iter()
            .map(|&s| format!("{:?}", w.config(s)))
            .collect::<Vec<_>>()
            .join("\n"),
        async_workers: 0,
        trace: trace_out,
    }
}

/// Per-layer metrics of the traced run. Span totals inside `Study::run`
/// come from the study's own registry; the rest from the benchmark's
/// spans around each public call.
fn per_layer(
    w: StudyWorkload,
    r: &Run,
    t: &Tracer,
    untraced_pipeline_s: f64,
    nproc_pipeline_s: f64,
    m: &mut Metrics,
) {
    let reg = &r.registry;
    let span = |name: &str| reg.span_secs(name);
    let count = |name: &str| {
        reg.histogram(&format!("span.{name}"))
            .map(|h| h.count)
            .unwrap_or(0) as f64
    };
    let mine = |name: &str| {
        t.find(name)
            .map(|i| t.get(i).dur_ns as f64 / 1e9)
            .unwrap_or(0.0)
    };
    let counter = |name: &str| reg.counter(name) as f64;

    let lane = span("simulate/day/lane");
    let deliver = span("simulate/deliver");
    m.put("agents.fleet_gen_s", span(keys::SPAN_FLEET_GEN), "s");
    m.put("agents.lane_self_s", lane - deliver, "s");
    m.put("agents.day_serial_s", span("simulate/day") - lane, "s");
    m.put("agents.lane_days", count("simulate/day/lane"), "count");
    m.put(
        "playstore.reviews_crawled",
        r.reviews_crawled as f64,
        "count",
    );

    let direct = matches!(w, StudyWorkload::PaperDirect);
    m.put(
        "collect.direct_ingest_s",
        if direct { deliver } else { 0.0 },
        "s",
    );
    m.put("collect.deliver_s", deliver, "s");
    m.put(
        "collect.serialize_s",
        span("simulate/deliver/serialize"),
        "s",
    );
    m.put("collect.compress_s", span("simulate/deliver/compress"), "s");
    m.put("collect.hash_s", span("simulate/deliver/hash"), "s");
    m.put("collect.frame_s", span("simulate/deliver/frame"), "s");
    m.put("collect.flush_s", span("simulate/flush"), "s");
    m.put(
        "collect.bytes_compressed",
        counter(keys::BYTES_COMPRESSED),
        "bytes",
    );
    let attempts = counter(keys::UPLOAD_ATTEMPTS);
    m.put("collect.upload_attempts", attempts, "count");
    m.put("collect.retries", counter(keys::UPLOAD_RETRIES), "count");
    m.put("collect.reconnects", counter(keys::RECONNECTS), "count");
    m.put("collect.dup_files", counter(keys::DUP_FILES), "count");
    m.put(
        "collect.useful_upload_ratio",
        if attempts > 0.0 {
            r.files as f64 / attempts
        } else {
            0.0
        },
        "ratio",
    );
    m.put("collect.shard_merge_s", span("simulate/shard_merge"), "s");
    m.put("collect.coalesce_s", span("assemble/coalesce"), "s");

    m.put("columnar.columnarize_s", span(keys::SPAN_COLUMNARIZE), "s");
    m.put("features.join_s", span("assemble/join"), "s");
    m.put("features.stream_fold_s", span(keys::SPAN_STREAM_FOLD), "s");
    m.put("features.app_dataset_s", mine("app_dataset"), "s");
    m.put("features.device_dataset_s", mine("device_dataset"), "s");

    m.put("ml.cv_s", mine("cv"), "s");
    m.put("ml.train_app_s", mine("train_app"), "s");
    m.put("ml.train_service_s", mine("train_service"), "s");
    m.put("ml.model_roundtrip_s", mine("model_roundtrip"), "s");
    m.put("ml.prime_s", mine("prime"), "s");
    m.put("ml.score_batch_s", mine("score_batch"), "s");
    m.put("ml.score_streaming_s", mine("score_streaming"), "s");
    m.put("ml.model_bytes", r.model_bytes as f64, "bytes");

    m.put(
        "campaign.incremental_s",
        span(keys::SPAN_CAMPAIGN_INCREMENTAL),
        "s",
    );
    m.put(
        "campaign.text_source_s",
        span(keys::SPAN_CAMPAIGN_TEXT),
        "s",
    );
    m.put("campaign.batch_s", mine("campaign_batch"), "s");
    m.put(
        "campaign.shingles",
        counter(keys::CAMPAIGN_SHINGLES),
        "count",
    );
    m.put(
        "campaign.candidate_pairs",
        r.candidate_pairs as f64,
        "count",
    );
    m.put("campaign.clusters", r.clusters as f64, "count");
    m.put("text.batch_rebuild_s", mine("text_batch"), "s");
    m.put("text.reviews", r.text_reviews as f64, "count");
    m.put("stats.measurements_s", mine("measurements"), "s");

    m.put("quality.app_cv_f1", r.app_cv_f1, "ratio");
    m.put("quality.campaign_recall", r.campaign_recall, "ratio");
    m.put("quality.campaign_precision", r.campaign_precision, "ratio");

    crate::harness_metrics(t, "pipeline", untraced_pipeline_s, nproc_pipeline_s, m);
}
