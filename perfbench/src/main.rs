//! RacketStore pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-direct|wire-text-hostile|ingest-closed-loop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run manifest and a summary (lines starting with `#`), then as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run also writes a Chrome trace and a
//! per-layer table under `perfbench/out/`. See README.md for the workloads
//! and the definition of every metric.

mod alloc;
mod ingest;
mod study;
mod trace;

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::process::Command;
use trace::{json_str, Tracer};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("snapshots_per_s", "1/s"),
    ("ingest_snapshots_per_s", "1/s"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("delivered_ratio", "ratio"),
];

/// Top-level spans of the traced runs, whose allocations are reported as
/// `alloc.count.<span>` and `alloc.bytes.<span>`: the pipeline's public
/// calls on the study workloads, the phases of the timed window on
/// `ingest-closed-loop`.
const TOP_LEVEL_SPANS: &[&str] = &[
    "study",
    "labeling",
    "app_dataset",
    "cv",
    "train_app",
    "device_dataset",
    "train_service",
    "model_roundtrip",
    "prime",
    "score_batch",
    "score_streaming",
    "campaign_batch",
    "text_batch",
    "measurements",
    "first_send",
    "ack_handling",
    "polling",
];

/// Per-layer metrics, reported by every traced run. A layer that does not
/// run on a workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("agents.fleet_gen_s", "s"),
    ("agents.lane_self_s", "s"),
    ("agents.day_serial_s", "s"),
    ("agents.lane_days", "count"),
    ("playstore.reviews_crawled", "count"),
    ("collect.direct_ingest_s", "s"),
    ("collect.deliver_s", "s"),
    ("collect.serialize_s", "s"),
    ("collect.compress_s", "s"),
    ("collect.hash_s", "s"),
    ("collect.frame_s", "s"),
    ("collect.flush_s", "s"),
    ("collect.bytes_compressed", "bytes"),
    ("collect.upload_attempts", "count"),
    ("collect.retries", "count"),
    ("collect.reconnects", "count"),
    ("collect.dup_files", "count"),
    ("collect.useful_upload_ratio", "ratio"),
    ("collect.shard_merge_s", "s"),
    ("collect.coalesce_s", "s"),
    ("collect.async.poll_s", "s"),
    ("collect.async.poll_rounds", "count"),
    ("collect.async.accepts", "count"),
    ("collect.async.load_shed", "count"),
    ("collect.async.stall_sweeps", "count"),
    ("collect.async.queue_depth_peak", "count"),
    ("collect.async.acks_over_deadline_ratio", "ratio"),
    ("ingest.generator_busy_s", "s"),
    ("ingest.generator_lag_ms", "ms"),
    ("ingest.ack_samples", "count"),
    ("columnar.columnarize_s", "s"),
    ("features.join_s", "s"),
    ("features.stream_fold_s", "s"),
    ("features.app_dataset_s", "s"),
    ("features.device_dataset_s", "s"),
    ("ml.cv_s", "s"),
    ("ml.train_app_s", "s"),
    ("ml.train_service_s", "s"),
    ("ml.model_roundtrip_s", "s"),
    ("ml.prime_s", "s"),
    ("ml.score_batch_s", "s"),
    ("ml.score_streaming_s", "s"),
    ("ml.model_bytes", "bytes"),
    ("campaign.incremental_s", "s"),
    ("campaign.text_source_s", "s"),
    ("campaign.batch_s", "s"),
    ("campaign.shingles", "count"),
    ("campaign.candidate_pairs", "count"),
    ("campaign.clusters", "count"),
    ("text.batch_rebuild_s", "s"),
    ("text.reviews", "count"),
    ("stats.measurements_s", "s"),
    ("quality.app_cv_f1", "ratio"),
    ("quality.campaign_recall", "ratio"),
    ("quality.campaign_precision", "ratio"),
    ("traced_pipeline_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
    ("nproc.pipeline_s", "s"),
];

/// Named metric values in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn get(&self, name: &str) -> Option<&(String, f64, &'static str)> {
        self.0.iter().find(|(n, _, _)| n == name)
    }
}

/// What a workload hands back to `main` for printing.
pub struct Outcome {
    /// Output-check failures; any makes the run count as failed in full.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// One human-readable line: sample counts, fingerprints, quality.
    pub summary: String,
    /// `Debug` rendering of the workload configuration (hashed into the
    /// manifest).
    pub config_debug: String,
    pub async_workers: usize,
    /// The traced run's spans and the program's own registries.
    pub trace: Option<(Tracer, racket_obs::RegistrySnapshot)>,
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Harness metrics shared by every traced run: the traced root span's
/// length, its unattributed self time, the tracing overhead against the
/// untraced median, the nproc run, and per-top-level-span allocations.
pub fn harness_metrics(t: &Tracer, root: &str, untraced_s: f64, nproc_s: f64, m: &mut Metrics) {
    let idx = t.find(root).expect("traced run records its root span");
    let traced_s = t.get(idx).dur_ns as f64 / 1e9;
    m.put("traced_pipeline_s", traced_s, "s");
    m.put("unattributed_s", t.self_ns(idx) as f64 / 1e9, "s");
    m.put("tracing_overhead_s", traced_s - untraced_s, "s");
    m.put("nproc.pipeline_s", nproc_s, "s");
    for name in TOP_LEVEL_SPANS {
        let child = t.children(idx).find(|&c| t.get(c).name == *name);
        let (count, bytes) = child.map_or((0, 0), |c| (t.get(c).allocs, t.get(c).bytes));
        m.put(&format!("alloc.count.{name}"), count as f64, "count");
        m.put(&format!("alloc.bytes.{name}"), bytes as f64, "bytes");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's output, or `fallback` if it cannot run.
fn command_line(cmd: &str, args: &[&str], fallback: &str) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| fallback.to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let outcome = match args.workload.as_str() {
        "paper-direct" => study::run(
            study::StudyWorkload::PaperDirect,
            args.seed,
            args.seconds,
            args.trace,
            nproc,
        ),
        "wire-text-hostile" => study::run(
            study::StudyWorkload::WireTextHostile,
            args.seed,
            args.seconds,
            args.trace,
            nproc,
        ),
        "ingest-closed-loop" => ingest::run(args.seed, args.seconds, args.trace, nproc),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let mut config_hash = std::collections::hash_map::DefaultHasher::new();
    outcome.config_debug.hash(&mut config_hash);
    let manifest = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"git_sha\":{},\
         \"rustc\":{},\"profile\":{},\"nproc\":{},\"rayon_num_threads\":{},\
         \"async_workers\":{},\"config_hash\":\"{:016x}\"}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        json_str(&command_line("git", &["rev-parse", "HEAD"], "none")),
        json_str(&command_line("rustc", &["-V"], "unknown")),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        nproc,
        json_str(&std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
        outcome.async_workers,
        config_hash.finish()
    );
    println!("# manifest {manifest}");
    println!("# summary {}", outcome.summary);
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let expected = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut expected: Vec<(String, &str)> = expected
        .into_iter()
        .map(|(n, u)| (n.to_string(), u))
        .collect();
    if args.trace {
        for name in TOP_LEVEL_SPANS {
            expected.push((format!("alloc.count.{name}"), "count"));
            expected.push((format!("alloc.bytes.{name}"), "bytes"));
        }
    }
    let mut failures = outcome.failures.len();
    let mut body = Vec::new();
    for (name, unit) in &expected {
        let value = match outcome.metrics.get(name) {
            Some((_, v, u)) if u == unit && v.is_finite() => *v,
            Some((_, v, u)) => {
                eprintln!("perfbench: metric {name} = {v} {u} (want a finite value in {unit})");
                failures += 1;
                0.0
            }
            // A layer that does not run on this workload.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} missing");
                failures += 1;
                0.0
            }
        };
        body.push(format!(
            "{}:{{\"value\":{value:?},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    if let Some((name, _, _)) = outcome
        .metrics
        .0
        .iter()
        .find(|(n, _, _)| !expected.iter().any(|(e, _)| e == n))
    {
        eprintln!("perfbench: metric {name} is not in the benchmark's list");
        failures += 1;
    }

    if let Some((tracer, registry)) = &outcome.trace {
        write_trace(&args, &manifest, &outcome.metrics, tracer, registry);
    }

    let correct = failures == 0;
    let attempted = outcome.attempted.max(1);
    let failed = if correct { outcome.failed } else { attempted };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

/// Write the traced run as a Chrome trace (`<workload>-seed<n>.trace.json`)
/// and a per-layer table (`.layers.txt`) under `perfbench/out/`, and echo
/// the table to stderr.
fn write_trace(
    args: &Args,
    manifest: &str,
    metrics: &Metrics,
    tracer: &Tracer,
    registry: &racket_obs::RegistrySnapshot,
) {
    let mut table = tracer.tree_table();
    table.push('\n');
    for (name, value, unit) in &metrics.0 {
        writeln!(table, "{name:<44} {value:>20.6} {unit}").expect("write to String");
    }
    table.push_str("\nprogram registry (spans: count, total)\n");
    table.push_str(&racket_obs::render_timing_tree(registry));

    let metric_json: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{v:?},\"unit\":{}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    let counters: Vec<String> = registry
        .counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let gauges: Vec<String> = registry
        .gauges
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let histograms: Vec<String> = registry
        .histograms
        .iter()
        .map(|(k, h)| {
            format!(
                "{}:{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{:?},\"p99_ns\":{:?}}}",
                json_str(k),
                h.count,
                h.sum,
                h.quantile(0.5),
                h.quantile(0.99)
            )
        })
        .collect();
    let metadata = format!(
        "{{\"manifest\":{manifest},\"metrics\":{{{}}},\"registry\":{{\"counters\":{{{}}},\
         \"gauges\":{{{}}},\"histograms\":{{{}}}}}}}",
        metric_json.join(","),
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                tracer.chrome_json(&metadata),
            )
        })
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.layers.txt")), &table));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write trace files: {e}");
    }
    eprintln!("{table}");
}
