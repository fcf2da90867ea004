//! `ingest-closed-loop`: the async collection plane alone, driven by 10⁴
//! in-process connections from one generator thread.
//!
//! Each connection keeps one pre-encoded upload in flight and sends its
//! next file when the `UploadAck` for the previous one arrives, as a
//! device's wire lane does. The loop is closed, so latency follows
//! connections ÷ throughput. Payloads are encoded once per run (set-up);
//! each round then starts a fresh server, signs every connection in and
//! times the window from the first upload sent to the last ack received.

use crate::trace::Tracer;
use crate::{median, Metrics, Outcome};
use racket_collect::wire::Message;
use racket_collect::{
    lzss, sha256, AsyncCollectServer, AsyncConn, AsyncServerConfig, FaultPlan, FrameCodec,
    ShardedIngest, SnapshotCollector,
};
use racket_obs::{Registry, RegistrySnapshot};
use racket_types::metrics::keys;
use racket_types::{AppId, FastSnapshot, InstallId, ParticipantId, SimTime, Snapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 10_000;
const FILES_PER_CONN: usize = 4;
const SNAPS_PER_FILE: usize = 64;
/// Pre-encoding runs in this many timed parts (divides `CONNECTIONS`).
const ENCODE_PARTS: usize = 8;
/// The first-attempt reply deadline of a device's wire lane.
const ACK_DEADLINE_NS: u64 = 4_000_000;
/// A round with no ack for this long is abandoned; its unacked uploads
/// count as failed.
const STALL_LIMIT: Duration = Duration::from_secs(30);

fn install(i: usize) -> InstallId {
    InstallId(1_000_000_000 + i as u64)
}

fn participant(i: usize) -> ParticipantId {
    ParticipantId(100_000 + i as u32)
}

/// SplitMix64: the payload generator's only randomness, seeded from
/// `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every connection's upload frames (sequence 1.., sign-in uses 0) and the
/// SHA-256 the client expects back in each ack.
struct Traffic {
    frames: Vec<Vec<Vec<u8>>>,
    digests: Vec<Vec<[u8; 32]>>,
}

/// One connection's upload frames and their payload digests.
type Encoded = (Vec<Vec<u8>>, Vec<[u8; 32]>);

/// Encode every connection's traffic; returns it with the time of each
/// of the `ENCODE_PARTS` parts.
fn encode(seed: u64, nproc: usize) -> (Traffic, Vec<f64>) {
    let encode_conn = |i: usize, ws: &mut lzss::Workspace| {
        let mut frames = Vec::with_capacity(FILES_PER_CONN);
        let mut digests = Vec::with_capacity(FILES_PER_CONN);
        let mut t = mix(seed ^ i as u64) % 3_600;
        for f in 0..FILES_PER_CONN {
            let mut raw = Vec::new();
            for s in 0..SNAPS_PER_FILE {
                let r = mix(seed.wrapping_mul(0x1_0000_0001) ^ ((i * 4096 + f * 64 + s) as u64));
                t += 1 + r % 10;
                raw.extend(SnapshotCollector::serialize(&Snapshot::Fast(
                    FastSnapshot {
                        install_id: install(i),
                        participant_id: participant(i),
                        time: SimTime::from_secs(t),
                        foreground_app: Some(AppId(1 + (r >> 8) as u32 % 40)),
                        screen_on: !(r >> 16).is_multiple_of(8),
                        battery_pct: 1 + ((r >> 24) % 100) as u8,
                        install_events: vec![],
                    },
                )));
            }
            let payload = ws.compress(&raw);
            digests.push(sha256(&payload));
            frames.push(
                Message::SnapshotUpload {
                    install: install(i),
                    file_id: 1 + f as u64,
                    fast: true,
                    payload,
                }
                .encode_seq(1 + f as u32),
            );
        }
        (frames, digests)
    };
    // Encoded in equal parts, each timed: a part is shorter than this
    // machine's speed swings, so the median part gives a steadier set-up
    // time than one measurement of the whole.
    let mut part_s = Vec::with_capacity(ENCODE_PARTS);
    let mut encoded = Vec::with_capacity(CONNECTIONS);
    let per_part = CONNECTIONS / ENCODE_PARTS;
    let chunk = per_part.div_ceil(nproc.max(1));
    for part in 0..ENCODE_PARTS {
        let t0 = Instant::now();
        let base = part * per_part;
        let chunks: Vec<Vec<Encoded>> = std::thread::scope(|s| {
            let handles: Vec<_> = (base..base + per_part)
                .step_by(chunk)
                .map(|lo| {
                    s.spawn(move || {
                        let mut ws = lzss::Workspace::new();
                        (lo..(lo + chunk).min(base + per_part))
                            .map(|i| encode_conn(i, &mut ws))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("encoder thread panicked"))
                .collect()
        });
        encoded.extend(chunks.into_iter().flatten());
        part_s.push(t0.elapsed().as_secs_f64());
    }
    let (frames, digests) = encoded.into_iter().unzip();
    (Traffic { frames, digests }, part_s)
}

struct Client {
    conn: AsyncConn,
    codec: FrameCodec,
    next: usize,
    sent_at: Instant,
}

struct Round {
    setup_s: f64,
    window_s: f64,
    sent: u64,
    acked: u64,
    latencies_ns: Vec<u64>,
    snapshots: u64,
    /// Sweep durations over the connection set (traced rounds only).
    sweeps_ns: Vec<u64>,
    registry: RegistrySnapshot,
    failures: Vec<String>,
}

/// One round: start a server with `workers` reactor threads, sign every
/// connection in (set-up), then the timed closed-loop window, then
/// shutdown and the output checks.
fn round(traffic: &Traffic, workers: usize, t: &mut Tracer) -> Round {
    let mut failures = Vec::new();
    let setup_start = Instant::now();
    let store = Arc::new(ShardedIngest::new(64));
    let srv = AsyncCollectServer::start(
        (0..CONNECTIONS).map(participant),
        Arc::clone(&store),
        AsyncServerConfig {
            workers,
            ..AsyncServerConfig::default()
        },
    );
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|i| Client {
            conn: srv.connect(FaultPlan::none(), i as u64),
            codec: FrameCodec::strict(),
            next: 0,
            sent_at: setup_start,
        })
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let msg = Message::SignIn {
            participant: participant(i),
            install: install(i),
        };
        c.conn
            .send(&msg.encode_seq(0))
            .expect("sign-in frame sends");
    }
    let mut buf = vec![0u8; 16 * 1024];
    for c in clients.iter_mut() {
        loop {
            match c.codec.try_decode_message() {
                Ok(Some(Message::SignInAck { accepted: true })) => break,
                Ok(Some(other)) => panic!("unexpected sign-in reply {other:?}"),
                Ok(None) | Err(_) => {}
            }
            match c.conn.recv_deadline(&mut buf, STALL_LIMIT) {
                Ok(n) if n > 0 => c.codec.feed(&buf[..n]),
                _ => panic!("sign-in ack did not arrive"),
            }
        }
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut latencies_ns = Vec::with_capacity(CONNECTIONS * FILES_PER_CONN);
    let mut sweeps_ns = Vec::new();
    let mut acked = 0u64;
    let mut sent = 0u64;
    let traced = t.enabled();
    let window_start = Instant::now();
    t.span("window", |t| {
        t.span("first_send", |_| {
            for (i, c) in clients.iter_mut().enumerate() {
                c.conn
                    .send(&traffic.frames[i][0])
                    .expect("upload frame sends");
                c.sent_at = Instant::now();
                c.next = 1;
            }
        });
        sent += CONNECTIONS as u64;
        let mut open: Vec<usize> = (0..CONNECTIONS).collect();
        let (mut busy_ns, mut busy_allocs, mut busy_bytes, mut busy_count) = (0u64, 0, 0, 0);
        let (mut sweep_total_ns, mut sweep_allocs, mut sweep_bytes) = (0u64, 0, 0);
        let mut last_progress = Instant::now();
        while !open.is_empty() {
            let sweep_start = Instant::now();
            let sweep_alloc = crate::alloc::totals();
            let mut progressed = false;
            open.retain(|&i| {
                let c = &mut clients[i];
                let busy_start = traced.then(|| (Instant::now(), crate::alloc::totals()));
                let mut got = false;
                while let Ok(n) = c.conn.try_recv(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    c.codec.feed(&buf[..n]);
                    got = true;
                }
                if !got {
                    return true;
                }
                progressed = true;
                let mut keep = true;
                while let Ok(Some(msg)) = c.codec.try_decode_message() {
                    let file = c.next - 1;
                    match msg {
                        Message::UploadAck { file_id, sha256 }
                            if file_id == 1 + file as u64 && sha256 == traffic.digests[i][file] =>
                        {
                            let now = Instant::now();
                            latencies_ns.push((now - c.sent_at).as_nanos() as u64);
                            acked += 1;
                        }
                        other => {
                            failures.push(format!("connection {i} file {file}: {other:?}"));
                        }
                    }
                    if c.next < FILES_PER_CONN {
                        c.conn
                            .send(&traffic.frames[i][c.next])
                            .expect("upload frame sends");
                        c.sent_at = Instant::now();
                        c.next += 1;
                        sent += 1;
                    } else {
                        keep = false;
                    }
                }
                if let Some((t0, (a0, b0))) = busy_start {
                    let (a1, b1) = crate::alloc::totals();
                    busy_ns += t0.elapsed().as_nanos() as u64;
                    busy_allocs += a1 - a0;
                    busy_bytes += b1 - b0;
                    busy_count += 1;
                }
                keep
            });
            if progressed {
                last_progress = Instant::now();
            } else {
                if last_progress.elapsed() > STALL_LIMIT {
                    failures.push(format!("{} connections never got their ack", open.len()));
                    break;
                }
                std::thread::yield_now();
            }
            if traced {
                let d = sweep_start.elapsed().as_nanos() as u64;
                let (a, b) = crate::alloc::totals();
                sweeps_ns.push(d);
                sweep_total_ns += d;
                sweep_allocs += a - sweep_alloc.0;
                sweep_bytes += b - sweep_alloc.1;
            }
        }
        t.aggregate("ack_handling", busy_ns, busy_count, busy_allocs, busy_bytes);
        t.aggregate(
            "polling",
            sweep_total_ns.saturating_sub(busy_ns),
            sweeps_ns.len() as u64,
            sweep_allocs - busy_allocs,
            sweep_bytes - busy_bytes,
        );
    });
    let window_s = window_start.elapsed().as_secs_f64();

    let registry = Registry::new();
    drop(clients);
    let stats = srv.shutdown(&registry);
    let store = Arc::try_unwrap(store).expect("workers joined at shutdown");
    let snapshots = store.snapshots_ingested();
    let snap = registry.snapshot();
    let expected_files = (CONNECTIONS * FILES_PER_CONN) as u64;
    if acked != expected_files || stats.files != expected_files {
        failures.push(format!(
            "{acked} acks and {} files ingested for {expected_files} files sent",
            stats.files
        ));
    }
    if snapshots != expected_files * SNAPS_PER_FILE as u64 {
        failures.push(format!(
            "{snapshots} snapshots ingested, {} sent",
            expected_files * SNAPS_PER_FILE as u64
        ));
    }
    if stats.bad_uploads != 0 || stats.dup_files != 0 {
        failures.push(format!(
            "{} bad and {} duplicate uploads",
            stats.bad_uploads, stats.dup_files
        ));
    }
    if stats.sign_ins != CONNECTIONS as u64 {
        failures.push(format!("{} sign-ins", stats.sign_ins));
    }
    if snap.counter(keys::SERVER_LOAD_SHED) != 0 {
        failures.push("the server shed load".into());
    }
    Round {
        setup_s,
        window_s,
        sent,
        acked,
        latencies_ns,
        snapshots,
        sweeps_ns,
        registry: snap,
        failures,
    }
}

fn quantile_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

pub fn run(seed: u64, seconds: f64, trace: bool, nproc: usize) -> Outcome {
    // One generator thread plus nproc − 1 reactor workers: nproc threads.
    let workers = nproc.saturating_sub(1).max(1);
    let (traffic, part_s) = encode(seed, nproc);
    let encode_s = median(&part_s) * ENCODE_PARTS as f64;

    let mut off = Tracer::new(false);
    let mut rounds = Vec::new();
    let started = Instant::now();
    loop {
        let mut r = round(&traffic, workers, &mut off);
        r.latencies_ns.sort_unstable();
        rounds.push(r);
        let per_round = started.elapsed().as_secs_f64() / rounds.len() as f64;
        if started.elapsed().as_secs_f64() + per_round > seconds {
            break;
        }
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let window_s = med(&|r| r.window_s);
    let mut failures: Vec<String> = rounds.iter().flat_map(|r| r.failures.clone()).collect();
    let sent: u64 = rounds.iter().map(|r| r.sent).sum();
    let acked: u64 = rounds.iter().map(|r| r.acked).sum();

    let mut metrics = Metrics::default();
    let mut trace_out = None;
    if trace {
        let mut t = Tracer::new(true);
        let traced = round(&traffic, workers, &mut t);
        let wide = round(&traffic, nproc, &mut Tracer::new(false));
        crate::alloc::set_counting(false);
        failures.extend(traced.failures.iter().cloned());
        failures.extend(wide.failures.iter().cloned());
        let reg = &traced.registry;
        let poll = reg.histogram(&format!("span.{}", keys::SPAN_SERVER_POLL));
        let accept = reg.histogram(&format!("span.{}", keys::SPAN_SERVER_ACCEPT));
        let m = &mut metrics;
        m.put(
            "collect.async.poll_s",
            reg.span_secs(keys::SPAN_SERVER_POLL),
            "s",
        );
        m.put(
            "collect.async.poll_rounds",
            poll.map_or(0, |h| h.count) as f64,
            "count",
        );
        m.put(
            "collect.async.accepts",
            accept.map_or(0, |h| h.count) as f64,
            "count",
        );
        m.put(
            "collect.async.load_shed",
            reg.counter(keys::SERVER_LOAD_SHED) as f64,
            "count",
        );
        m.put(
            "collect.async.stall_sweeps",
            reg.counter(keys::SERVER_STALL_SWEEPS) as f64,
            "count",
        );
        m.put(
            "collect.async.queue_depth_peak",
            reg.gauge(keys::SERVER_QUEUE_DEPTH_PEAK) as f64,
            "count",
        );
        let late = traced
            .latencies_ns
            .iter()
            .filter(|&&l| l > ACK_DEADLINE_NS)
            .count();
        m.put(
            "collect.async.acks_over_deadline_ratio",
            late as f64 / traced.latencies_ns.len().max(1) as f64,
            "ratio",
        );
        let window = t.find("window").expect("traced window");
        let busy: u64 = t
            .children(window)
            .filter(|&c| matches!(t.get(c).name.as_str(), "first_send" | "ack_handling"))
            .map(|c| t.get(c).dur_ns)
            .sum();
        m.put("ingest.generator_busy_s", busy as f64 / 1e9, "s");
        let sweeps: Vec<f64> = traced.sweeps_ns.iter().map(|&d| d as f64 / 1e6).collect();
        m.put("ingest.generator_lag_ms", median(&sweeps), "ms");
        m.put(
            "ingest.ack_samples",
            traced.latencies_ns.len() as f64,
            "count",
        );
        crate::harness_metrics(&t, "window", window_s, wide.window_s, m);
        trace_out = Some((t, traced.registry));
    } else {
        let snaps = (CONNECTIONS * FILES_PER_CONN * SNAPS_PER_FILE) as f64;
        let throughput = med(&|r| r.snapshots as f64 / r.window_s);
        metrics.put("setup_s", encode_s + med(&|r| r.setup_s), "s");
        metrics.put("pipeline_s", window_s, "s");
        metrics.put("snapshots_per_s", snaps / window_s, "1/s");
        metrics.put("ingest_snapshots_per_s", throughput, "1/s");
        metrics.put(
            "ack_p50_ms",
            med(&|r| quantile_ms(&r.latencies_ns, 0.50)),
            "ms",
        );
        metrics.put(
            "ack_p99_ms",
            med(&|r| quantile_ms(&r.latencies_ns, 0.99)),
            "ms",
        );
        metrics.put("peak_rss_mb", crate::alloc::peak_rss_mb(), "MiB");
        metrics.put(
            "delivered_ratio",
            acked as f64 / sent.max(1) as f64,
            "ratio",
        );
    }
    let samples: usize = rounds.iter().map(|r| r.latencies_ns.len()).sum();
    let summary = format!(
        "rounds={} window_s={:?} encode_s={encode_s:.3} ack_samples={samples} \
         ({} per round) uploads_sent={sent} acked={acked}",
        rounds.len(),
        rounds.iter().map(|r| r.window_s).collect::<Vec<_>>(),
        samples / rounds.len()
    );
    Outcome {
        failures,
        attempted: sent,
        failed: sent - acked,
        metrics,
        summary,
        config_debug: format!(
            "connections={CONNECTIONS} files_per_conn={FILES_PER_CONN} \
             snaps_per_file={SNAPS_PER_FILE} workers={workers} seed={seed}"
        ),
        async_workers: workers,
        trace: trace_out,
    }
}
