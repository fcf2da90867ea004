//! The collection server (the "web app" of Figure 3): the one protocol
//! core every collection driver feeds.
//!
//! Responsibilities, mirroring §3:
//!
//! * **Sign-in**: validate the 6-digit participant code — RacketStore
//!   collects nothing for codes the study never issued;
//! * **Snapshot ingestion**: for each upload, gate on the install's
//!   sign-in, hash the received payload, re-acknowledge replays, then
//!   decompress, parse and fold the snapshots into per-install aggregates,
//!   replying with the SHA-256 of the payload so the client can delete its
//!   local file;
//! * **Aggregation**: the real backend inserted snapshots into MongoDB and
//!   aggregated at query time; [`InstallRecord`] holds the equivalent
//!   per-install aggregate the measurement and feature pipelines read,
//!   kept in the [`ShardedIngest`] store the server folds into.
//!
//! [`CollectionServer`] works through `&self`: sign-in sets, upload dedup
//! tables and stats live in independently locked admission shards keyed
//! by install, and hashing, decompression and parsing run outside every
//! shard lock. Three thin drivers call [`CollectionServer::handle`]: the
//! loopback [`crate::retry::WireLane`], [`CollectionServer::serve_tcp`]
//! (one thread per TCP connection) and the reactor workers of
//! [`crate::async_server`].

use crate::collector::SnapshotCollector;
use crate::hash::sha256;
use crate::lzss;
use crate::shard::ShardedIngest;
use crate::stream::StreamAggregates;
use crate::wire::{FrameCodec, Message};
use parking_lot::Mutex;
use racket_types::{
    AndroidId, AppId, InstallDelta, InstallId, InstalledApp, ParticipantId, RegisteredAccount,
    ReviewEvent, SimTime, Snapshot, TimeInterval,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Number of admission shards (sign-in sets, dedup tables, stats). Sized
/// so that even a full worker pool rarely contends on one lock.
const ADMISSION_SHARDS: usize = 64;

thread_local! {
    /// Pooled decompression scratch, one per thread: every upload a thread
    /// handles inflates into this allocation instead of a fresh `Vec`.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Server-side aggregate for one RacketStore install (one install ID).
#[derive(Debug, Clone)]
pub struct InstallRecord {
    /// The reporting install.
    pub install_id: InstallId,
    /// Participant the install signed in as.
    pub participant: ParticipantId,
    /// Android ID if any slow snapshot carried one.
    pub android_id: Option<AndroidId>,
    /// First snapshot time seen.
    pub first_seen: SimTime,
    /// Last snapshot time seen.
    pub last_seen: SimTime,
    /// Fast snapshots received.
    pub n_fast: u64,
    /// Slow snapshots received.
    pub n_slow: u64,
    /// Snapshots received per calendar day.
    pub snapshots_per_day: BTreeMap<u64, u64>,
    /// Foreground observations: app → day → count of fast snapshots with
    /// the app on screen.
    pub foreground: HashMap<AppId, BTreeMap<u64, u64>>,
    /// Latest metadata for every app ever observed installed.
    pub apps: HashMap<AppId, InstalledApp>,
    /// Apps currently installed (as of the latest delta).
    pub installed_now: HashSet<AppId>,
    /// Install events observed (app, time) — *during* monitoring.
    pub install_events: Vec<(AppId, SimTime)>,
    /// Uninstall events observed (app, time).
    pub uninstall_events: Vec<(AppId, SimTime)>,
    /// Latest registered-account list.
    pub accounts: Vec<RegisteredAccount>,
    /// Latest stopped-app list.
    pub stopped_apps: Vec<AppId>,
    /// Reviews reported by slow snapshots, in arrival order (empty unless
    /// the fleet collects reviews).
    pub review_events: Vec<ReviewEvent>,
    /// Per-app streaming aggregates folded at the same program points as
    /// the batch-visible vectors above (see [`crate::stream`]).
    pub stream: StreamAggregates,
}

impl InstallRecord {
    pub(crate) fn new(install_id: InstallId, participant: ParticipantId, t: SimTime) -> Self {
        InstallRecord {
            install_id,
            participant,
            android_id: None,
            first_seen: t,
            last_seen: t,
            n_fast: 0,
            n_slow: 0,
            snapshots_per_day: BTreeMap::new(),
            foreground: HashMap::new(),
            apps: HashMap::new(),
            installed_now: HashSet::new(),
            install_events: Vec::new(),
            uninstall_events: Vec::new(),
            accounts: Vec::new(),
            stopped_apps: Vec::new(),
            review_events: Vec::new(),
            stream: StreamAggregates::new(),
        }
    }

    /// The observed monitoring interval `[first, last]` (half-open at
    /// `last + 1 s` so single-snapshot records are non-degenerate).
    pub fn observed_interval(&self) -> TimeInterval {
        TimeInterval::new(
            self.first_seen,
            self.last_seen + racket_types::SimDuration::from_secs(1),
        )
    }

    /// Days with at least one snapshot.
    pub fn active_days(&self) -> usize {
        self.snapshots_per_day.len()
    }

    /// Average snapshots per active day (Figure 4's y-axis).
    pub fn avg_snapshots_per_day(&self) -> f64 {
        if self.snapshots_per_day.is_empty() {
            return 0.0;
        }
        self.snapshots_per_day.values().sum::<u64>() as f64 / self.snapshots_per_day.len() as f64
    }

    pub(crate) fn ingest(&mut self, snapshot: &Snapshot) {
        let t = snapshot.time();
        self.first_seen = self.first_seen.min(t);
        self.last_seen = self.last_seen.max(t);
        *self.snapshots_per_day.entry(t.day_index()).or_insert(0) += 1;
        match snapshot {
            Snapshot::Fast(f) => {
                self.n_fast += 1;
                if let Some(app) = f.foreground_app {
                    *self
                        .foreground
                        .entry(app)
                        .or_default()
                        .entry(t.day_index())
                        .or_insert(0) += 1;
                    self.stream.note_foreground(app);
                }
                for delta in &f.install_events {
                    match delta {
                        InstallDelta::Installed(info) => {
                            // The very first fast snapshot reports the whole
                            // pre-existing app set; only installs observed
                            // after monitoring began count as events.
                            if info.install_time >= self.first_seen {
                                self.install_events.push((info.app, info.install_time));
                                self.stream.note_install(info.app, info.install_time);
                            }
                            self.installed_now.insert(info.app);
                            self.apps.insert(info.app, info.clone());
                        }
                        InstallDelta::Uninstalled { app } => {
                            self.uninstall_events.push((*app, t));
                            self.stream.note_uninstall(*app, t);
                            self.installed_now.remove(app);
                        }
                    }
                }
            }
            Snapshot::Slow(s) => {
                self.n_slow += 1;
                if s.android_id.is_some() {
                    self.android_id = s.android_id;
                }
                if !s.accounts.is_empty() || self.accounts.is_empty() {
                    self.accounts = s.accounts.clone();
                }
                self.stopped_apps = s.stopped_apps.clone();
                for review in &s.review_events {
                    self.review_events.push(review.clone());
                    self.stream.note_review(
                        review.app,
                        review.reviewer,
                        review.time,
                        review.rating,
                        &review.text,
                    );
                }
            }
        }
    }
}

/// Ingestion statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Installs signed in (distinct installs — a retried sign-in for an
    /// already-signed-in install is idempotent and counted once).
    pub sign_ins: u64,
    /// Sign-ins rejected (bad participant code).
    pub rejected_sign_ins: u64,
    /// Snapshot files ingested (distinct `(install, file_id)` pairs).
    pub files: u64,
    /// Snapshots ingested.
    pub snapshots: u64,
    /// Uploads rejected with a 400: the payload failed to decompress or
    /// parse, or it carried snapshots of another install.
    pub bad_uploads: u64,
    /// Replayed uploads re-acknowledged without re-ingesting: the file's
    /// `(install, file_id, sha256)` had already been ingested, so the
    /// client's ack was lost in transit. Varies with the fault plan, so it
    /// is *excluded* from the chaos determinism fingerprint.
    pub dup_files: u64,
}

impl ServerStats {
    /// Fold another stats block into this one. Every field is a plain
    /// count, so merging is commutative — the admission shards fold in
    /// any order without changing the totals.
    pub fn merge(&mut self, other: &ServerStats) {
        self.sign_ins += other.sign_ins;
        self.rejected_sign_ins += other.rejected_sign_ins;
        self.files += other.files;
        self.snapshots += other.snapshots;
        self.bad_uploads += other.bad_uploads;
        self.dup_files += other.dup_files;
    }

    /// Add these ingestion counts to a registry: the canonical
    /// `ingest.snapshots` / `ingest.dup_files` counters (see
    /// [`racket_types::metrics::keys`]) plus `server.*` counters for the
    /// remaining fields.
    pub fn record_to(&self, registry: &racket_obs::Registry) {
        use racket_types::metrics::keys;
        registry.add(keys::SNAPSHOTS_INGESTED, self.snapshots);
        registry.add(keys::DUP_FILES, self.dup_files);
        registry.add("server.sign_ins", self.sign_ins);
        registry.add("server.rejected_sign_ins", self.rejected_sign_ins);
        registry.add("server.files", self.files);
        registry.add("server.bad_uploads", self.bad_uploads);
    }
}

/// One admission shard: the sign-in set, the upload dedup table and the
/// protocol stats for the installs hashing here.
#[derive(Debug, Default)]
struct AdmissionShard {
    signed_in: HashSet<InstallId>,
    /// `(install, file_id) → sha256` of every ingested file — the dedup
    /// table that makes upload replays idempotent (PROTOCOL.md §6).
    ingested: HashMap<InstallId, HashMap<u64, [u8; 32]>>,
    stats: ServerStats,
}

impl AdmissionShard {
    /// Whether this exact file (same id, same content) was ingested before.
    fn is_replay(&self, install: InstallId, file_id: u64, digest: &[u8; 32]) -> bool {
        self.ingested
            .get(&install)
            .and_then(|files| files.get(&file_id))
            == Some(digest)
    }
}

/// The collection server: participant gating, sharded admission state and
/// the [`ShardedIngest`] store accepted snapshots fold into.
///
/// Lock discipline: hashing, decompression and parsing happen on the
/// calling thread *outside* every admission-shard lock; a shard lock is
/// held only for set/map probes, counter bumps and the final fold of an
/// accepted file, so the dedup check-then-insert is atomic even when two
/// connections of one install race.
#[derive(Debug)]
pub struct CollectionServer {
    /// Participant codes issued at recruitment.
    registered: HashSet<ParticipantId>,
    shards: Vec<Mutex<AdmissionShard>>,
    store: Arc<ShardedIngest>,
}

impl CollectionServer {
    /// Create a server recognizing the given participant codes; accepted
    /// snapshots fold into `store` (the caller keeps its own `Arc` and
    /// drains it once every driver has dropped the server).
    pub fn new(
        participants: impl IntoIterator<Item = ParticipantId>,
        store: Arc<ShardedIngest>,
    ) -> Self {
        CollectionServer {
            registered: participants.into_iter().collect(),
            shards: (0..ADMISSION_SHARDS)
                .map(|_| Mutex::new(AdmissionShard::default()))
                .collect(),
            store,
        }
    }

    fn shard(&self, install: InstallId) -> &Mutex<AdmissionShard> {
        &self.shards[install.raw() as usize % self.shards.len()]
    }

    /// Handle one protocol message, producing the reply to send (if any).
    /// Callable from any thread.
    pub fn handle(&self, msg: Message) -> Option<Message> {
        match msg {
            Message::SignIn {
                participant,
                install,
            } => {
                let accepted = participant.is_valid() && self.registered.contains(&participant);
                let mut shard = self.shard(install).lock();
                if accepted {
                    // Idempotent: a retried sign-in (lost ack) for an
                    // already-known install must not double-count.
                    if shard.signed_in.insert(install) {
                        shard.stats.sign_ins += 1;
                    }
                } else {
                    shard.stats.rejected_sign_ins += 1;
                }
                Some(Message::SignInAck { accepted })
            }
            Message::SnapshotUpload {
                install,
                file_id,
                fast: _,
                payload,
            } => Some(self.handle_upload(install, file_id, &payload)),
            // Server ignores acks/errors addressed to clients.
            Message::SignInAck { .. } | Message::UploadAck { .. } | Message::Error { .. } => None,
        }
    }

    fn handle_upload(&self, install: InstallId, file_id: u64, payload: &[u8]) -> Message {
        // Hash exactly what was received — if transit corrupted the
        // payload (and CRC somehow passed), the client's comparison fails
        // and it retries.
        let digest = sha256(payload);
        let ack = Message::UploadAck {
            file_id,
            sha256: digest,
        };
        {
            let mut shard = self.shard(install).lock();
            if !shard.signed_in.contains(&install) {
                return Message::Error {
                    code: 401,
                    detail: "install not signed in".into(),
                };
            }
            // Idempotent ingest: a file whose ack was lost gets
            // retransmitted; re-acknowledge it without folding its
            // snapshots in a second time. (A colliding file_id with
            // *different* content is processed as a new upload — client
            // file ids are monotonic, so this only happens across a
            // reinstall.)
            if shard.is_replay(install, file_id, &digest) {
                shard.stats.dup_files += 1;
                return ack;
            }
        }
        // Decompress + parse outside the lock, then check that the file
        // only speaks for the install that uploaded it: a signed-in
        // install must not write into another install's record.
        let decoded = SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            lzss::decompress_into(payload, scratch).map_err(|e| e.to_string())?;
            let snapshots =
                SnapshotCollector::deserialize_file(scratch).map_err(|e| e.to_string())?;
            if snapshots.iter().any(|s| s.install_id() != install) {
                return Err("snapshot of another install".to_string());
            }
            Ok(snapshots)
        });
        let mut shard = self.shard(install).lock();
        let snapshots = match decoded {
            Ok(snapshots) => snapshots,
            Err(detail) => {
                shard.stats.bad_uploads += 1;
                return Message::Error { code: 400, detail };
            }
        };
        if shard.is_replay(install, file_id, &digest) {
            // Another connection of this install ingested the same file
            // while this one was parsing.
            shard.stats.dup_files += 1;
            return ack;
        }
        self.store.ingest_batch(&snapshots);
        shard.stats.files += 1;
        shard
            .ingested
            .entry(install)
            .or_default()
            .insert(file_id, digest);
        ack
    }

    /// Ingestion statistics: the admission shards' protocol counts plus
    /// the snapshots held by the store (which also counts snapshots
    /// ingested into it directly, bypassing the protocol).
    pub fn stats(&self) -> ServerStats {
        let mut stats = ServerStats {
            snapshots: self.store.snapshots_ingested(),
            ..ServerStats::default()
        };
        for shard in &self.shards {
            stats.merge(&shard.lock().stats);
        }
        stats
    }

    /// Serve the wire protocol on a TCP listener until the listener errors
    /// or `max_connections` clients have been handled (tests bound this;
    /// pass `usize::MAX` to serve forever). One thread per connection,
    /// all sharing the one server.
    pub fn serve_tcp(
        server: Arc<CollectionServer>,
        listener: std::net::TcpListener,
        max_connections: usize,
    ) -> std::io::Result<()> {
        let mut handles = Vec::new();
        for stream in listener.incoming().take(max_connections) {
            let stream = stream?;
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                let mut transport = crate::transport::TcpTransport::new(stream);
                let mut codec = FrameCodec::new();
                while let Ok(Some(msg)) = crate::transport::recv_message(&mut transport, &mut codec)
                {
                    if let Some(reply) = server.handle(msg) {
                        use crate::transport::Transport;
                        if transport.send(&reply.encode()).is_err() {
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{ApkHash, FastSnapshot, PermissionProfile, SlowSnapshot};

    const P: ParticipantId = ParticipantId(123_456);
    const I: InstallId = InstallId(1_000_000_000);

    fn server() -> (CollectionServer, Arc<ShardedIngest>) {
        let store = Arc::new(ShardedIngest::new(4));
        (CollectionServer::new([P], Arc::clone(&store)), store)
    }

    fn signed_in() -> (CollectionServer, Arc<ShardedIngest>) {
        let (s, store) = server();
        s.handle(Message::SignIn {
            participant: P,
            install: I,
        });
        (s, store)
    }

    /// One compressed upload file holding `snaps`.
    fn file(snaps: &[Snapshot]) -> Vec<u8> {
        let mut raw = Vec::new();
        for snap in snaps {
            raw.extend_from_slice(&SnapshotCollector::serialize(snap));
        }
        lzss::compress(&raw)
    }

    fn upload(file_id: u64, payload: Vec<u8>) -> Message {
        Message::SnapshotUpload {
            install: I,
            file_id,
            fast: true,
            payload,
        }
    }

    fn fast_of(install: InstallId, t: u64, app: u32, installed_at: u64) -> Snapshot {
        Snapshot::Fast(FastSnapshot {
            install_id: install,
            participant_id: P,
            time: SimTime::from_secs(t),
            foreground_app: Some(AppId(app)),
            screen_on: true,
            battery_pct: 80,
            install_events: vec![InstallDelta::Installed(InstalledApp::fresh(
                AppId(app),
                SimTime::from_secs(installed_at),
                PermissionProfile::default(),
                ApkHash([app as u8; 16]),
            ))],
        })
    }

    fn fast_with_install(t: u64, app: u32, installed_at: u64) -> Snapshot {
        fast_of(I, t, app, installed_at)
    }

    /// Fold snapshots straight into a fresh store and return `I`'s record.
    fn ingested(snaps: &[Snapshot]) -> InstallRecord {
        let store = ShardedIngest::new(1);
        for snap in snaps {
            store.ingest(snap);
        }
        store.record(I).expect("record")
    }

    #[test]
    fn sign_in_gating() {
        let (s, _) = server();
        let ok = s.handle(Message::SignIn {
            participant: P,
            install: I,
        });
        assert_eq!(ok, Some(Message::SignInAck { accepted: true }));
        let bad = s.handle(Message::SignIn {
            participant: ParticipantId(999_999),
            install: InstallId(2_000_000_000),
        });
        assert_eq!(bad, Some(Message::SignInAck { accepted: false }));
        assert_eq!(s.stats().sign_ins, 1);
        assert_eq!(s.stats().rejected_sign_ins, 1);
    }

    #[test]
    fn upload_requires_sign_in() {
        let (s, _) = server();
        let reply = s.handle(upload(1, vec![]));
        assert!(matches!(reply, Some(Message::Error { code: 401, .. })));
    }

    #[test]
    fn upload_round_trip_acks_hash_and_ingests() {
        let (s, store) = signed_in();
        let payload = file(&[
            fast_with_install(100, 1, 50),
            fast_with_install(105, 2, 104),
        ]);
        let expected_hash = sha256(&payload);
        let reply = s.handle(upload(9, payload)).unwrap();
        assert_eq!(
            reply,
            Message::UploadAck {
                file_id: 9,
                sha256: expected_hash
            }
        );
        let rec = store.record(I).unwrap();
        assert_eq!(rec.n_fast, 2);
        assert_eq!(rec.apps.len(), 2);
        assert!(rec.installed_now.contains(&AppId(1)));
        assert_eq!(s.stats().snapshots, 2);
    }

    #[test]
    fn replayed_upload_is_deduped_and_reacked() {
        let (s, store) = signed_in();
        let msg = upload(3, file(&[fast_with_install(100, 1, 50)]));
        let first = s.handle(msg.clone()).unwrap();
        // Replay (the ack was "lost"): identical ack, nothing re-ingested.
        let second = s.handle(msg).unwrap();
        assert_eq!(first, second);
        assert_eq!(s.stats().snapshots, 1, "snapshot counted once");
        assert_eq!(s.stats().files, 1, "file counted once");
        assert_eq!(s.stats().dup_files, 1);
        assert_eq!(store.record(I).unwrap().n_fast, 1);
    }

    #[test]
    fn replayed_upload_folds_streaming_state_exactly_once() {
        // Regression guard for the latent double-count hazard: a replayed
        // upload chunk walks the same server batch path as the original,
        // and every per-install counter *and* streaming aggregate must
        // fold once — never per delivery attempt.
        let (s, store) = signed_in();
        // t=0 creates the record (first_seen = 0), so installed_at = 5 is
        // a monitored install event; the t=60 snapshot uninstalls it.
        let msg = upload(
            9,
            file(&[
                fast_with_install(0, 7, 5),
                Snapshot::Fast(FastSnapshot {
                    install_id: I,
                    participant_id: P,
                    time: SimTime::from_secs(60),
                    foreground_app: Some(AppId(7)),
                    screen_on: true,
                    battery_pct: 79,
                    install_events: vec![InstallDelta::Uninstalled { app: AppId(7) }],
                }),
            ]),
        );
        s.handle(msg.clone()).unwrap();
        let once = store.record(I).unwrap();
        for _ in 0..3 {
            s.handle(msg.clone()).unwrap();
        }
        let rec = store.record(I).unwrap();
        assert_eq!(s.stats().snapshots, 2, "snapshots counted once");
        assert_eq!(s.stats().dup_files, 3);
        assert_eq!(rec.n_fast, once.n_fast);
        assert_eq!(rec.snapshots_per_day, once.snapshots_per_day);
        assert_eq!(rec.install_events, once.install_events);
        assert_eq!(rec.uninstall_events, once.uninstall_events);
        let app = rec.stream.app(AppId(7)).unwrap();
        assert_eq!(app.n_installs, 1, "install folded once");
        assert_eq!(app.n_uninstalls, 1, "uninstall folded once");
        assert_eq!(app.last_uninstall, Some(SimTime::from_secs(60)));
        assert_eq!(app.fg_total, 2, "one foreground fold per snapshot");
        assert_eq!(rec.stream.n_install_events, 1);
        assert_eq!(rec.stream.n_uninstall_events, 1);
    }

    #[test]
    fn snapshots_of_another_install_are_rejected() {
        // A signed-in install must not write into another install's
        // record: a file carrying any foreign snapshot is a 400, folds
        // nothing and leaves the dedup table untouched.
        let (s, store) = signed_in();
        let other = InstallId(1_000_000_001);
        let forged = file(&[fast_with_install(100, 1, 50), fast_of(other, 101, 2, 90)]);
        let reply = s.handle(upload(4, forged)).unwrap();
        assert!(matches!(reply, Message::Error { code: 400, .. }));
        assert_eq!(s.stats().bad_uploads, 1);
        assert_eq!(s.stats().files, 0);
        assert_eq!(store.snapshots_ingested(), 0);
        assert!(store.record(I).is_none() && store.record(other).is_none());
        // The same file id with the install's own data is a fresh upload.
        let reply = s
            .handle(upload(4, file(&[fast_with_install(100, 1, 50)])))
            .unwrap();
        assert!(matches!(reply, Message::UploadAck { file_id: 4, .. }));
        assert_eq!((s.stats().files, s.stats().dup_files), (1, 0));
    }

    #[test]
    fn stream_state_mirrors_batch_event_vectors() {
        // The stream aggregate is folded at the same program points as the
        // batch-visible vectors, so counts must agree by construction.
        let rec = ingested(&[
            fast_with_install(0, 1, 0),
            fast_with_install(86_400, 2, 86_400),
            Snapshot::Fast(FastSnapshot {
                install_id: I,
                participant_id: P,
                time: SimTime::from_secs(90_000),
                foreground_app: None,
                screen_on: false,
                battery_pct: 50,
                install_events: vec![InstallDelta::Uninstalled { app: AppId(1) }],
            }),
        ]);
        assert_eq!(
            rec.stream.n_install_events as usize,
            rec.install_events.len()
        );
        assert_eq!(
            rec.stream.n_uninstall_events as usize,
            rec.uninstall_events.len()
        );
        for (app, stream) in rec.stream.apps() {
            let batch_installs = rec.install_events.iter().filter(|(a, _)| a == app).count();
            let batch_uninstalls = rec
                .uninstall_events
                .iter()
                .filter(|(a, _)| a == app)
                .count();
            let batch_fg: u64 = rec
                .foreground
                .get(app)
                .map(|days| days.values().sum())
                .unwrap_or(0);
            assert_eq!(stream.n_installs as usize, batch_installs);
            assert_eq!(stream.n_uninstalls as usize, batch_uninstalls);
            assert_eq!(stream.fg_total, batch_fg);
            assert_eq!(
                stream.last_uninstall,
                rec.uninstall_events
                    .iter()
                    .filter(|(a, _)| a == app)
                    .map(|&(_, t)| t)
                    .max()
            );
        }
    }

    #[test]
    fn repeated_sign_in_is_idempotent() {
        let (s, _) = server();
        for _ in 0..3 {
            let reply = s.handle(Message::SignIn {
                participant: P,
                install: I,
            });
            assert_eq!(reply, Some(Message::SignInAck { accepted: true }));
        }
        assert_eq!(s.stats().sign_ins, 1, "distinct installs, not messages");
    }

    #[test]
    fn malformed_upload_rejected() {
        let (s, _) = signed_in();
        // Truncated LZSS reference.
        let reply = s.handle(upload(1, vec![0b0000_0001, 0x01]));
        assert!(matches!(reply, Some(Message::Error { code: 400, .. })));
        assert_eq!(s.stats().bad_uploads, 1);
    }

    #[test]
    fn record_aggregates_days_and_foreground() {
        let rec = ingested(&[
            fast_with_install(0, 1, 0),
            fast_with_install(5, 1, 0),
            fast_with_install(86_400 + 5, 1, 0),
        ]);
        assert_eq!(rec.active_days(), 2);
        assert_eq!(rec.avg_snapshots_per_day(), 1.5);
        let fg: u64 = rec.foreground[&AppId(1)].values().sum();
        assert_eq!(fg, 3);
    }

    #[test]
    fn uninstall_event_tracked() {
        let rec = ingested(&[
            fast_with_install(10, 1, 5),
            Snapshot::Fast(FastSnapshot {
                install_id: I,
                participant_id: P,
                time: SimTime::from_secs(20),
                foreground_app: None,
                screen_on: false,
                battery_pct: 80,
                install_events: vec![InstallDelta::Uninstalled { app: AppId(1) }],
            }),
        ]);
        assert_eq!(rec.uninstall_events.len(), 1);
        assert!(!rec.installed_now.contains(&AppId(1)));
        assert!(
            rec.apps.contains_key(&AppId(1)),
            "metadata retained after uninstall"
        );
    }

    #[test]
    fn slow_snapshot_updates_accounts_and_android_id() {
        let rec = ingested(&[Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: Some(AndroidId(77)),
            time: SimTime::from_secs(10),
            accounts: vec![RegisteredAccount::gmail(
                racket_types::AccountId(1),
                racket_types::GoogleId(1),
            )],
            save_mode: false,
            stopped_apps: vec![AppId(3)],
            review_events: vec![],
        })]);
        assert_eq!(rec.android_id, Some(AndroidId(77)));
        assert_eq!(rec.accounts.len(), 1);
        assert_eq!(rec.stopped_apps, vec![AppId(3)]);
        assert_eq!(rec.n_slow, 1);
    }

    #[test]
    fn slow_snapshot_reviews_fold_into_record_and_text_sketch() {
        let review = ReviewEvent {
            app: AppId(4),
            reviewer: racket_types::GoogleId(9),
            time: SimTime::from_secs(8),
            rating: racket_types::Rating::FIVE,
            text: "great app works perfectly".to_string(),
        };
        let slow = Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: None,
            time: SimTime::from_secs(10),
            accounts: vec![],
            save_mode: false,
            stopped_apps: vec![],
            review_events: vec![review.clone()],
        });
        let rec = ingested(std::slice::from_ref(&slow));
        assert_eq!(rec.review_events, vec![review]);
        assert_eq!(rec.stream.text().n_reviews(), 1);
        let row = rec.stream.text().rows().next().unwrap();
        assert_eq!(row.app, 4);
        assert_eq!(row.rating, 5);

        // The replay path (idempotent file dedup) never re-folds text —
        // same mechanism as the campaign sketch, exercised via upload.
        let (s, store) = signed_in();
        let msg = upload(1, file(&[slow]));
        s.handle(msg.clone()).unwrap();
        let once = store.record(I).unwrap();
        s.handle(msg).unwrap();
        let rec = store.record(I).unwrap();
        assert_eq!(rec.review_events, once.review_events);
        assert_eq!(rec.stream.text(), once.stream.text());
    }

    #[test]
    fn preexisting_apps_not_counted_as_install_events() {
        // Monitoring starts at t = 100; the app was installed at t = 50.
        let rec = ingested(&[fast_with_install(100, 1, 50)]);
        assert!(
            rec.install_events.is_empty(),
            "old install is baseline, not event"
        );
        // An app installed during monitoring is an event.
        let rec = ingested(&[
            fast_with_install(100, 1, 50),
            fast_with_install(200, 2, 150),
        ]);
        assert_eq!(rec.install_events.len(), 1);
    }
}
