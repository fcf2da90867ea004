//! Streaming feature state and batch-equivalent emission (§7.1 / §8.1).
//!
//! # State ownership and the batch-equivalence contract
//!
//! The streaming engine splits feature state across two layers
//! (ARCHITECTURE.md §7):
//!
//! * **snapshot-side** state lives on the collection server's
//!   [`racket_collect::InstallRecord`] — both the latched maps the record
//!   always maintained (installed set, accounts, per-day foreground and
//!   snapshot counts) and the per-app [`racket_collect::StreamAggregates`]
//!   folded at ingest time (install/uninstall counters, last-uninstall
//!   latch, foreground totals);
//! * **review-side** state lives here in [`DeviceStreamState`], folded
//!   once per crawled review (in coalesced `posted_at` order) when the
//!   study joins reviews onto devices.
//!
//! [`DeviceStreamState::app_vector`] and
//! [`DeviceStreamState::device_vector`] then emit the Table 1 / Table 2
//! feature vectors **without scanning any event or review list** — every
//! O(n) pass of the batch extractors ([`crate::app_features`],
//! [`crate::device_features`]) is replaced by an O(1) read of streaming
//! state. The contract, enforced by `tests/streaming_equivalence.rs`, is
//! *bitwise* equality with the batch vectors: integer and set statistics
//! are exact by construction, and every emitted `f64` is produced by the
//! same operation sequence as the batch expression it replaces (sums
//! folded in the batch's canonical order, min/max latches identical to
//! the batch folds, divisions in the same order).

use crate::observation::DeviceObservation;
use crate::online::{AppReviewStream, DAY_SECS};
use racket_types::{AccountService, AppId};
use std::collections::HashMap;

/// Per-device streaming feature state: review-side aggregates for every
/// app observed installed on the device, plus device-level review totals.
///
/// Built by [`DeviceStreamState::fold`] the moment a device's reviews are
/// joined; emission needs only this state plus the observation's latched
/// snapshot-side state.
#[derive(Debug, Clone, Default)]
pub struct DeviceStreamState {
    /// Review streams, one per app in the record's metadata map (apps
    /// never observed installed have no feature instance — the batch
    /// extractor panics on them).
    app_reviews: HashMap<AppId, AppReviewStream>,
    /// Distinct apps reviewed from device accounts (installed or not).
    pub n_apps_reviewed: u64,
    /// Currently installed apps with at least one review.
    pub n_installed_and_reviewed: u64,
    /// Total reviews posted from device accounts.
    pub n_total_reviews: u64,
}

impl DeviceStreamState {
    /// Fold a device observation's reviews into streaming state.
    ///
    /// Reviews fold in the batch's canonical order (stably sorted by
    /// `posted_at`, exactly as [`DeviceObservation::reviews_for`] yields
    /// them) so the f64 sums inside each [`AppReviewStream`] accumulate
    /// add-for-add like the batch expressions.
    pub fn fold(obs: &DeviceObservation) -> Self {
        let mut state = DeviceStreamState::default();
        for (&app, info) in &obs.record.apps {
            let mut stream = AppReviewStream::new();
            for review in obs.reviews_for(app) {
                stream.fold(review, info.install_time, obs.monitoring);
            }
            state.app_reviews.insert(app, stream);
        }
        state.n_apps_reviewed = obs.total_apps_reviewed() as u64;
        state.n_installed_and_reviewed = obs.installed_and_reviewed() as u64;
        state.n_total_reviews = obs.total_reviews() as u64;
        state
    }

    /// The review stream for one observed app, if any.
    pub fn app_stream(&self, app: AppId) -> Option<&AppReviewStream> {
        self.app_reviews.get(&app)
    }

    /// Emit the §7.1 app-usage feature vector for `app` from streaming
    /// state — bitwise equal to [`crate::app_features`].
    ///
    /// # Panics
    /// If the app was never observed on the device, matching the batch
    /// extractor's contract.
    pub fn app_vector(&self, obs: &DeviceObservation, app: AppId) -> Vec<f64> {
        let info = obs
            .record
            .apps
            .get(&app)
            .unwrap_or_else(|| panic!("{app} was never observed on this device"));
        let monitoring = obs.monitoring;
        let reviews = self
            .app_reviews
            .get(&app)
            .unwrap_or_else(|| panic!("{app} was never observed on this device"));
        let snap = obs.record.stream.app(app).copied().unwrap_or_default();

        // (2)–(3) review timing, straight off the review stream.
        let (avg_delay, min_delay) = reviews.delay_features();
        let (gap_mean, gap_min, gap_max) = reviews.gap_features();

        // (4)–(5) foreground behaviour: the per-day map is snapshot-side
        // streaming state; the total comes from the ingest-time counter.
        let fg = obs.record.foreground.get(&app);
        let opened_multiple_days = fg.is_some_and(|days| days.len() > 1);
        let fg_per_day = if fg.is_some() {
            snap.fg_total as f64 / obs.record.active_days().max(1) as f64
        } else {
            0.0
        };

        // (6) device-wide snapshot rate (latched per-day counters).
        let device_rate = obs.record.avg_snapshots_per_day();

        // (7) inner retention from the last-uninstall latch.
        let installed_before = info.install_time < monitoring.start;
        let installed_at_end = obs.record.installed_now.contains(&app);
        let retention_start = info.install_time.max(monitoring.start);
        let retention_end = if installed_at_end {
            monitoring.end
        } else {
            snap.last_uninstall.unwrap_or(monitoring.start)
        };
        let retention_days = if retention_end > retention_start {
            (retention_end - retention_start).as_secs() as f64 / DAY_SECS
        } else {
            0.0
        };

        // (8)–(10) latched metadata.
        let perms = &info.permissions;
        let vt = obs.vt_flags.get(&app).copied().flatten().unwrap_or(0);

        vec![
            reviews.before.len() as f64,
            reviews.during.len() as f64,
            reviews.after.len() as f64,
            avg_delay,
            min_delay,
            gap_mean,
            gap_min,
            gap_max,
            f64::from(u8::from(opened_multiple_days)),
            fg_per_day,
            device_rate,
            retention_days,
            f64::from(u8::from(installed_before)),
            f64::from(u8::from(installed_at_end)),
            perms.normal_count() as f64,
            perms.dangerous_count() as f64,
            perms.granted.len() as f64,
            perms.denied.len() as f64,
            f64::from(vt),
            // (11) churn from the ingest-time counters.
            snap.n_installs as f64,
            snap.n_uninstalls as f64,
        ]
    }

    /// Emit the §8.1 device-usage feature vector from streaming state —
    /// bitwise equal to [`crate::device_features`].
    pub fn device_vector(&self, obs: &DeviceObservation, app_suspiciousness: f64) -> Vec<f64> {
        let record = &obs.record;
        let n_pre = record
            .installed_now
            .iter()
            .filter(|a| obs.preinstalled.contains(a))
            .count();
        let n_user = record.installed_now.len() - n_pre;

        let active_days = record.active_days().max(1) as f64;
        let daily_installs = record.stream.n_install_events as f64 / active_days;
        let daily_uninstalls = record.stream.n_uninstall_events as f64 / active_days;

        let n_gmail = record
            .accounts
            .iter()
            .filter(|a| a.service.is_gmail())
            .count();
        let n_non_gmail = record.accounts.len() - n_gmail;
        let mut services: Vec<AccountService> = record.accounts.iter().map(|a| a.service).collect();
        services.sort();
        services.dedup();

        let total_reviews = self.n_total_reviews as f64;
        let reviews_per_account = if n_gmail > 0 {
            total_reviews / n_gmail as f64
        } else {
            0.0
        };

        vec![
            n_pre as f64,
            n_user as f64,
            app_suspiciousness,
            record.stopped_apps.len() as f64,
            daily_installs,
            daily_uninstalls,
            n_gmail as f64,
            n_non_gmail as f64,
            services.len() as f64,
            self.n_installed_and_reviewed as f64,
            self.n_apps_reviewed as f64,
            reviews_per_account,
            record.avg_snapshots_per_day(),
            record.active_days() as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{app_features, device_features};
    use racket_types::{
        AccountId, ApkHash, FastSnapshot, GoogleId, InstallDelta, InstallId, InstalledApp,
        ParticipantId, Permission, PermissionProfile, Rating, RegisteredAccount, Review, SimTime,
        SlowSnapshot, Snapshot, TimeInterval,
    };
    use std::collections::HashMap;

    const P: ParticipantId = ParticipantId(111_111);
    const I: InstallId = InstallId(1);

    fn fast(t_day: u64, fg: Option<u32>, deltas: Vec<InstallDelta>) -> Snapshot {
        Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_days(t_day),
            foreground_app: fg.map(AppId),
            screen_on: fg.is_some(),
            battery_pct: 80,
            install_events: deltas,
        })
    }

    fn installed(app: u32, day: u64) -> InstallDelta {
        InstallDelta::Installed(InstalledApp::fresh(
            AppId(app),
            SimTime::from_days(day),
            PermissionProfile {
                requested: vec![Permission::Internet, Permission::Camera],
                granted: vec![Permission::Camera],
                denied: vec![],
            },
            ApkHash([app as u8; 16]),
        ))
    }

    fn observation() -> DeviceObservation {
        let store = racket_collect::ShardedIngest::new(1);
        store.ingest(&fast(10, Some(1), vec![installed(1, 2), installed(100, 0)]));
        store.ingest(&fast(11, Some(1), vec![installed(2, 11)]));
        store.ingest(&fast(
            12,
            None,
            vec![InstallDelta::Uninstalled { app: AppId(2) }],
        ));
        store.ingest(&Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: None,
            time: SimTime::from_days(12),
            accounts: vec![
                RegisteredAccount::gmail(AccountId(1), GoogleId(1)),
                RegisteredAccount::non_gmail(AccountId(2), AccountService::WhatsApp),
            ],
            save_mode: false,
            stopped_apps: vec![AppId(100)],
            review_events: vec![],
        }));
        let record = store.record(I).unwrap();
        let mut reviews_by_app = HashMap::new();
        reviews_by_app.insert(
            AppId(1),
            vec![
                Review::new(AppId(1), GoogleId(1), SimTime::from_days(3), Rating::FIVE),
                Review::new(AppId(1), GoogleId(2), SimTime::from_days(12), Rating::FIVE),
                Review::new(AppId(1), GoogleId(1), SimTime::from_days(13), Rating::FOUR),
            ],
        );
        reviews_by_app.insert(
            AppId(55), // reviewed but never installed
            vec![Review::new(
                AppId(55),
                GoogleId(1),
                SimTime::from_days(5),
                Rating::FOUR,
            )],
        );
        DeviceObservation {
            record,
            monitoring: TimeInterval::new(SimTime::from_days(10), SimTime::from_days(14)),
            google_ids: vec![GoogleId(1), GoogleId(2)],
            reviews_by_app,
            vt_flags: [(AppId(1), Some(3u8))].into_iter().collect(),
            preinstalled: [AppId(100)].into_iter().collect(),
        }
    }

    fn assert_bits_equal(streaming: &[f64], batch: &[f64], what: &str) {
        assert_eq!(streaming.len(), batch.len(), "{what} width");
        for (i, (s, b)) in streaming.iter().zip(batch).enumerate() {
            assert_eq!(
                s.to_bits(),
                b.to_bits(),
                "{what} column {i}: streaming {s} != batch {b}"
            );
        }
    }

    #[test]
    fn app_vector_is_bitwise_equal_to_batch() {
        let obs = observation();
        let state = DeviceStreamState::fold(&obs);
        let mut apps: Vec<AppId> = obs.record.apps.keys().copied().collect();
        apps.sort();
        for app in apps {
            assert_bits_equal(
                &state.app_vector(&obs, app),
                &app_features(&obs, app),
                &format!("app {app}"),
            );
        }
    }

    #[test]
    fn device_vector_is_bitwise_equal_to_batch() {
        let obs = observation();
        let state = DeviceStreamState::fold(&obs);
        for susp in [0.0, 0.5, 0.9367] {
            assert_bits_equal(
                &state.device_vector(&obs, susp),
                &device_features(&obs, susp),
                "device",
            );
        }
    }

    #[test]
    fn refold_after_mutation_tracks_batch() {
        // Observations are mutated after construction in ablations and
        // tests; a refold must track the batch extractor exactly.
        let mut obs = observation();
        obs.vt_flags.insert(AppId(1), None);
        obs.reviews_by_app
            .get_mut(&AppId(1))
            .unwrap()
            .push(Review::new(
                AppId(1),
                GoogleId(7),
                SimTime::from_days(20),
                Rating::FIVE,
            ));
        let state = DeviceStreamState::fold(&obs);
        assert_bits_equal(
            &state.app_vector(&obs, AppId(1)),
            &app_features(&obs, AppId(1)),
            "app 1 after mutation",
        );
        assert_bits_equal(
            &state.device_vector(&obs, 0.25),
            &device_features(&obs, 0.25),
            "device after mutation",
        );
    }

    #[test]
    #[should_panic(expected = "never observed")]
    fn unknown_app_panics_like_batch() {
        let obs = observation();
        DeviceStreamState::fold(&obs).app_vector(&obs, AppId(99));
    }
}
