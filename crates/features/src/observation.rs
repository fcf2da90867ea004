//! The joined per-device observation that features are extracted from.

use racket_collect::InstallRecord;
use racket_types::{AppId, GoogleId, Review, TimeInterval};
use std::collections::{HashMap, HashSet};

/// Everything the study knows about one (coalesced) physical device:
/// the server-side snapshot aggregate, joined with the crawled reviews
/// posted by the device's accounts and the VirusTotal verdicts for its
/// installed apks.
#[derive(Debug, Clone)]
pub struct DeviceObservation {
    /// Server-side snapshot aggregate (post-fingerprinting).
    pub record: InstallRecord,
    /// The monitored window (RacketStore install interval).
    pub monitoring: TimeInterval,
    /// Google IDs of the Gmail accounts registered on the device, as
    /// resolved by the Google-ID crawler (§5).
    pub google_ids: Vec<GoogleId>,
    /// Reviews posted by those Google IDs, grouped by app. Includes apps
    /// no longer (or never observed) installed — the paper's "total apps
    /// reviewed" counts these.
    pub reviews_by_app: HashMap<AppId, Vec<Review>>,
    /// VirusTotal flag counts for installed apps; `None` when VirusTotal
    /// has no report for the apk (the §6.4 coverage gap).
    pub vt_flags: HashMap<AppId, Option<u8>>,
    /// Apps that shipped with the device image.
    pub preinstalled: HashSet<AppId>,
}

impl DeviceObservation {
    /// Reviews posted by device accounts for one app, sorted by time.
    pub fn reviews_for(&self, app: AppId) -> Vec<&Review> {
        let mut reviews: Vec<&Review> = self
            .reviews_by_app
            .get(&app)
            .map(|v| v.iter().collect())
            .unwrap_or_default();
        reviews.sort_by_key(|r| r.posted_at);
        reviews
    }

    /// Number of distinct apps reviewed from device accounts, installed
    /// or not (Figure 6, right).
    pub fn total_apps_reviewed(&self) -> usize {
        self.reviews_by_app
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .count()
    }

    /// Number of *currently installed* apps reviewed from device accounts
    /// (Figure 6, center).
    pub fn installed_and_reviewed(&self) -> usize {
        self.record
            .installed_now
            .iter()
            .filter(|app| self.reviews_by_app.get(app).is_some_and(|v| !v.is_empty()))
            .count()
    }

    /// Total reviews posted from device accounts (Figure 6 right, summed).
    pub fn total_reviews(&self) -> usize {
        self.reviews_by_app.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{InstallId, ParticipantId, Rating, SimTime};

    fn observation() -> DeviceObservation {
        let store = racket_collect::ShardedIngest::new(1);
        // Seed a record through direct ingestion.
        store.ingest(&racket_types::Snapshot::Fast(racket_types::FastSnapshot {
            install_id: InstallId(1),
            participant_id: ParticipantId(111_111),
            time: SimTime::from_days(10),
            foreground_app: None,
            screen_on: false,
            battery_pct: 50,
            install_events: vec![racket_types::InstallDelta::Installed(
                racket_types::InstalledApp::fresh(
                    AppId(1),
                    SimTime::from_days(2),
                    racket_types::PermissionProfile::default(),
                    racket_types::ApkHash([1; 16]),
                ),
            )],
        }));
        let record = store.record(InstallId(1)).unwrap();
        let mut reviews_by_app = HashMap::new();
        reviews_by_app.insert(
            AppId(1),
            vec![Review::new(
                AppId(1),
                GoogleId(9),
                SimTime::from_days(3),
                Rating::FIVE,
            )],
        );
        reviews_by_app.insert(
            AppId(2), // reviewed but not installed
            vec![
                Review::new(AppId(2), GoogleId(9), SimTime::from_days(4), Rating::FIVE),
                Review::new(AppId(2), GoogleId(10), SimTime::from_days(5), Rating::FOUR),
            ],
        );
        DeviceObservation {
            record,
            monitoring: TimeInterval::new(SimTime::from_days(10), SimTime::from_days(14)),
            google_ids: vec![GoogleId(9), GoogleId(10)],
            reviews_by_app,
            vt_flags: HashMap::new(),
            preinstalled: HashSet::new(),
        }
    }

    #[test]
    fn review_accessors() {
        let obs = observation();
        assert_eq!(obs.total_apps_reviewed(), 2);
        assert_eq!(obs.installed_and_reviewed(), 1);
        assert_eq!(obs.total_reviews(), 3);
        let sorted = obs.reviews_for(AppId(2));
        assert_eq!(sorted.len(), 2);
        assert!(sorted[0].posted_at <= sorted[1].posted_at);
        assert!(obs.reviews_for(AppId(99)).is_empty());
    }
}
