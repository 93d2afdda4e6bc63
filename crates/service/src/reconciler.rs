//! The reconciler control loop: watch drift, repair placements,
//! publish [`RemapDiffResponse`] diffs.
//!
//! Everything else in this crate is request/response — a client asks,
//! the daemon answers, state only changes when someone speaks. Real
//! geo-clouds drift *between* requests: leases hit their TTL and hand
//! nodes back, capacity edits (node failures, scale-ups) move the
//! goalposts, and degraded calibration campaigns cut fresh mappings
//! against stale link estimates. The reconciler closes the loop: it
//! scores those drift signals against a threshold each tick and, when
//! the world has shifted enough, runs the bounded-migration re-solver
//! (a `remap` through [`MappingService::handle`]) for every placement it watches,
//! rebooking live leases in place and publishing the diff.
//!
//! Determinism first: [`Reconciler::tick`] is a plain function call —
//! one drift read, one decision, zero or more remaps — so tests drive
//! it directly on a [`VirtualClock`](crate::clock::VirtualClock)-backed
//! service and assert exact outcomes. [`Reconciler::spawn`] wraps the
//! same `tick` in a background thread for production daemons; nothing
//! lives in the thread that the tests can't reach.
//!
//! Federation: a reconciler only repairs placements homed on its own
//! shard. A placement whose `home_shard` differs is *deferred* — its
//! row is skipped and counted, because migrating its lease belongs to
//! the shard that granted it (the
//! [`ShardRouter`](crate::federation::ShardRouter) routes remap
//! requests there; see [`crate::federation`]).

use crate::inventory::DriftCounters;
use crate::proto::{CalibSpec, ErrorCode, RemapDiffResponse, RemapRequest, Request, Response};
use crate::service::MappingService;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`Reconciler`].
#[derive(Debug, Clone)]
pub struct ReconcilerConfig {
    /// Tick cadence of the background thread ([`Reconciler::spawn`]).
    /// Deterministic tests bypass it by calling [`Reconciler::tick`]
    /// directly.
    pub interval: Duration,
    /// Drift score at or above which a tick repairs its placements.
    /// The score is the sum of *new* drift since the last remap-
    /// triggering tick: expired leases + capacity edits + calibration
    /// staleness increases.
    pub threshold: u64,
    /// Migration budget per repair, as a fraction of the placement's
    /// ranks (rounded up, so any positive fraction allows at least one
    /// move). The SC'17 Eq. 3 objective decides *which* ranks move;
    /// this bounds *how many*.
    pub budget_frac: f64,
    /// Per-migration cost penalty α forwarded to the re-solver.
    pub alpha: f64,
    /// This daemon's shard index in a federation (`None`: unsharded).
    /// Placements homed elsewhere are deferred, never repaired here.
    pub shard: Option<usize>,
}

impl Default for ReconcilerConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(500),
            threshold: 1,
            budget_frac: 0.25,
            alpha: 0.0,
            shard: None,
        }
    }
}

/// One placement under reconciler watch: everything needed to re-issue
/// its mapping question plus where it currently runs.
#[derive(Debug, Clone)]
pub struct WatchedPlacement {
    /// Caller-chosen identity; re-watching the same key replaces the
    /// entry.
    pub key: String,
    /// The communication pattern as `src,dst,bytes,msgs` CSV.
    pub pattern_csv: String,
    /// Optional `process,site` pin constraints.
    pub constraints_csv: Option<String>,
    /// The current process → site assignment (updated in place after
    /// every accepted repair).
    pub mapping: Vec<usize>,
    /// The live inventory lease backing this placement, rebooked on
    /// repair. `None` watches advisorily (diffs published, inventory
    /// untouched).
    pub lease: Option<u64>,
    /// Calibration spec forwarded to the re-solver (cache-keyed, so
    /// repeated repairs reuse the campaign).
    pub calibration: CalibSpec,
    /// Home shard in a federation (`None`: local). A placement homed
    /// on a different shard than the reconciler's is deferred.
    pub home_shard: Option<usize>,
}

impl WatchedPlacement {
    /// A local, unconstrained, lease-less placement.
    pub fn new(
        key: impl Into<String>,
        pattern_csv: impl Into<String>,
        mapping: Vec<usize>,
    ) -> Self {
        Self {
            key: key.into(),
            pattern_csv: pattern_csv.into(),
            mapping,
            constraints_csv: None,
            lease: None,
            calibration: CalibSpec::default(),
            home_shard: None,
        }
    }
}

/// The drift levels a tick compares against the previous trigger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DriftSnapshot {
    expired_leases: u64,
    capacity_changes: u64,
    staleness: u64,
}

/// What one [`Reconciler::tick`] did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// The drift score this tick observed (new drift since the last
    /// triggering tick).
    pub drift_score: u64,
    /// Diffs published by repairs that actually moved ranks.
    pub diffs: Vec<RemapDiffResponse>,
    /// Placements skipped because they are homed on another shard.
    pub deferred: usize,
    /// Placements dropped because their lease died (expired or
    /// released) — there is nothing left to migrate.
    pub evicted: Vec<String>,
}

/// The drift-watching control loop around one [`MappingService`].
pub struct Reconciler {
    service: Arc<MappingService>,
    config: ReconcilerConfig,
    watched: Mutex<Vec<WatchedPlacement>>,
    last: Mutex<DriftSnapshot>,
    ticks: AtomicU64,
    remaps: AtomicU64,
    stopped: AtomicBool,
}

impl Reconciler {
    /// A reconciler around `service`. Nothing runs until
    /// [`Reconciler::tick`] is called (or [`Reconciler::spawn`] starts
    /// calling it).
    pub fn new(service: Arc<MappingService>, config: ReconcilerConfig) -> Arc<Self> {
        Arc::new(Self {
            service,
            config,
            watched: Mutex::new(Vec::new()),
            last: Mutex::new(DriftSnapshot::default()),
            ticks: AtomicU64::new(0),
            remaps: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
        })
    }

    /// Register (or replace, by key) a placement to watch.
    pub fn watch(&self, placement: WatchedPlacement) {
        let mut watched = self.watched.lock().expect("watch lock");
        if let Some(existing) = watched.iter_mut().find(|w| w.key == placement.key) {
            *existing = placement;
        } else {
            watched.push(placement);
        }
    }

    /// Stop watching `key`. Unknown keys are a no-op.
    pub fn unwatch(&self, key: &str) {
        self.watched
            .lock()
            .expect("watch lock")
            .retain(|w| w.key != key);
    }

    /// Snapshot of a watched placement's current assignment (tests and
    /// callers read back what the reconciler migrated to).
    pub fn watched_mapping(&self, key: &str) -> Option<Vec<usize>> {
        self.watched
            .lock()
            .expect("watch lock")
            .iter()
            .find(|w| w.key == key)
            .map(|w| w.mapping.clone())
    }

    /// Ticks run so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Repairs that moved at least one rank.
    pub fn remaps(&self) -> u64 {
        self.remaps.load(Ordering::Relaxed)
    }

    /// One deterministic control-loop iteration: read the drift
    /// signals, score them against the threshold, repair every watched
    /// placement when triggered. Everything [`Reconciler::spawn`] does,
    /// as a plain call — drive it from a test with a
    /// [`VirtualClock`](crate::clock::VirtualClock) and the outcome is
    /// a pure function of the scenario.
    pub fn tick(&self) -> TickReport {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        let drift: DriftCounters = self.service.inventory().drift_counters();
        let staleness = self.service.calibration_staleness();
        let now = DriftSnapshot {
            expired_leases: drift.expired_leases,
            capacity_changes: drift.capacity_changes,
            staleness,
        };
        let last = *self.last.lock().expect("drift lock");
        let score = (now.expired_leases - last.expired_leases)
            + (now.capacity_changes - last.capacity_changes)
            + now.staleness.saturating_sub(last.staleness);
        let mut report = TickReport {
            drift_score: score,
            ..TickReport::default()
        };
        if score < self.config.threshold {
            return report;
        }
        // The score is consumed by this trigger: the next tick measures
        // drift accumulated *after* it.
        *self.last.lock().expect("drift lock") = now;

        let snapshot: Vec<WatchedPlacement> = self.watched.lock().expect("watch lock").clone();
        for placement in snapshot {
            if placement.home_shard.is_some() && placement.home_shard != self.config.shard {
                report.deferred += 1;
                continue;
            }
            #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
            let budget =
                (placement.mapping.len() as f64 * self.config.budget_frac.max(0.0)).ceil() as u64;
            let mut request = RemapRequest::new(
                format!("reconcile-{}", placement.key),
                placement.pattern_csv.clone(),
                placement.mapping.clone(),
            );
            request.constraints_csv = placement.constraints_csv.clone();
            request.budget = Some(budget);
            request.alpha = self.config.alpha;
            request.calibration = placement.calibration.clone();
            request.lease = placement.lease;
            match self.service.handle(&Request::Remap(request)) {
                Response::RemapDiff(diff) => {
                    if !diff.moved.is_empty() {
                        self.remaps.fetch_add(1, Ordering::Relaxed);
                        let mut watched = self.watched.lock().expect("watch lock");
                        if let Some(w) = watched.iter_mut().find(|w| w.key == placement.key) {
                            w.mapping = diff.mapping.clone();
                        }
                        drop(watched);
                        report.diffs.push(diff);
                    }
                }
                Response::Error(e) if e.code == ErrorCode::UnknownLease => {
                    // The lease died under us — the placement no longer
                    // holds nodes, so there is nothing to migrate.
                    self.unwatch(&placement.key);
                    report.evicted.push(placement.key);
                }
                // Transient refusals (inventory shifted mid-repair,
                // daemon draining): leave the placement watched, the
                // next triggering tick retries against fresh state.
                Response::Error(_) => {}
                other => unreachable!("remap answered with {other:?}"),
            }
        }
        report
    }

    /// Ask the background thread (if any) to exit after its current
    /// tick.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }

    /// Run the control loop on a background thread: tick every
    /// `config.interval` until [`Reconciler::stop`]. The sleep is
    /// sliced so `stop` is honored promptly even with long intervals.
    pub fn spawn(self: &Arc<Self>) -> JoinHandle<()> {
        let this = Arc::clone(self);
        std::thread::Builder::new()
            .name("geomap-reconciler".into())
            .spawn(move || {
                while !this.stopped.load(Ordering::SeqCst) {
                    this.tick();
                    let mut slept = Duration::ZERO;
                    let slice = Duration::from_millis(20).min(this.config.interval);
                    while slept < this.config.interval && !this.stopped.load(Ordering::SeqCst) {
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
            .expect("spawn reconciler thread")
    }
}

impl std::fmt::Debug for Reconciler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reconciler")
            .field("watched", &self.watched.lock().expect("watch lock").len())
            .field("ticks", &self.ticks())
            .field("remaps", &self.remaps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::service::ServiceConfig;
    use geonet::{GeoCoord, Site, SiteNetwork, SquareMatrix};

    fn network(m: usize, cap: usize) -> SiteNetwork {
        let sites = (0..m)
            .map(|k| Site::new(format!("s{k}"), GeoCoord::new(k as f64, 0.0), cap))
            .collect();
        let lt = SquareMatrix::from_fn(m, |a, b| {
            if a == b {
                1e-5
            } else {
                1e-3 * (1 + a + b) as f64
            }
        });
        let bt = SquareMatrix::from_fn(m, |a, b| {
            if a == b {
                1e10
            } else {
                1e7 / (1 + a + b) as f64
            }
        });
        SiteNetwork::new(sites, lt, bt)
    }

    fn ring_csv(n: usize) -> String {
        let mut s = String::from("src,dst,bytes,msgs\n");
        for i in 0..n {
            s.push_str(&format!("{},{},{},8\n", i, (i + 1) % n, 64 * 1024));
        }
        s
    }

    fn harness() -> (Arc<VirtualClock>, Arc<MappingService>) {
        let clock = Arc::new(VirtualClock::new());
        let service = Arc::new(MappingService::new(
            network(3, 4),
            ServiceConfig {
                clock: Arc::clone(&clock) as Arc<dyn crate::clock::Clock>,
                record_hists: false,
                ..ServiceConfig::default()
            },
        ));
        (clock, service)
    }

    #[test]
    fn quiet_world_never_triggers() {
        let (_clock, service) = harness();
        let rec = Reconciler::new(Arc::clone(&service), ReconcilerConfig::default());
        rec.watch(WatchedPlacement::new(
            "p",
            ring_csv(6),
            vec![0, 0, 1, 1, 2, 2],
        ));
        for _ in 0..5 {
            let report = rec.tick();
            assert_eq!(report.drift_score, 0);
            assert!(report.diffs.is_empty());
        }
        assert_eq!(rec.remaps(), 0);
        assert_eq!(rec.ticks(), 5);
    }

    #[test]
    fn expired_lease_drift_triggers_a_repair() {
        let (clock, service) = harness();
        let rec = Reconciler::new(Arc::clone(&service), ReconcilerConfig::default());
        // A scattered placement the repair can improve (ring split
        // across distant sites), plus an unrelated short-TTL lease
        // whose expiry is the drift signal.
        rec.watch(WatchedPlacement::new(
            "app",
            ring_csv(6),
            vec![0, 1, 2, 0, 1, 2],
        ));
        service
            .inventory()
            .reserve(&[1, 0, 0], Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(rec.tick().drift_score, 0, "live lease is not drift");
        clock.advance_ms(60);
        let report = rec.tick();
        assert_eq!(report.drift_score, 1);
        assert_eq!(report.diffs.len(), 1);
        let diff = &report.diffs[0];
        assert!(diff.new_cost <= diff.old_cost);
        assert_eq!(diff.migrations as usize, diff.moved.len());
        // Budget: 25% of 6 ranks, rounded up = 2.
        assert!(diff.migrations <= 2, "budget violated: {}", diff.migrations);
        // The watched mapping advanced to the repaired one.
        assert_eq!(rec.watched_mapping("app").unwrap(), diff.mapping);
        assert_eq!(rec.remaps(), 1);
        // Drift consumed: the next tick is quiet.
        assert_eq!(rec.tick().drift_score, 0);
    }

    #[test]
    fn capacity_change_triggers_and_leased_placement_is_rebooked() {
        let (_clock, service) = harness();
        let rec = Reconciler::new(Arc::clone(&service), ReconcilerConfig::default());
        let mapping = vec![0, 1, 2, 0, 1, 2];
        let counts = vec![2, 2, 2];
        let lease = service.inventory().reserve(&counts, None).unwrap();
        let mut placement = WatchedPlacement::new("app", ring_csv(6), mapping);
        placement.lease = Some(lease);
        rec.watch(placement);
        service.inventory().set_capacity(0, 6);
        let report = rec.tick();
        assert_eq!(report.drift_score, 1);
        if let Some(diff) = report.diffs.first() {
            // The lease followed the migration.
            assert_eq!(diff.lease, Some(lease));
            let held = service.inventory().lease_counts(lease).unwrap();
            let mut expect = vec![0usize; 3];
            for &s in &diff.mapping {
                expect[s] += 1;
            }
            assert_eq!(held, expect);
        }
        // Conservation survives the rebook.
        let (free, leased) = service.inventory().ledger();
        for ((f, l), c) in free
            .iter()
            .zip(&leased)
            .zip(service.inventory().capacities())
        {
            assert_eq!(f + l, c);
        }
    }

    #[test]
    fn dead_lease_evicts_the_placement() {
        let (clock, service) = harness();
        let rec = Reconciler::new(Arc::clone(&service), ReconcilerConfig::default());
        let lease = service
            .inventory()
            .reserve(&[2, 2, 2], Some(Duration::from_millis(10)))
            .unwrap();
        let mut placement = WatchedPlacement::new("doomed", ring_csv(6), vec![0, 1, 2, 0, 1, 2]);
        placement.lease = Some(lease);
        rec.watch(placement);
        clock.advance_ms(20);
        let report = rec.tick();
        assert_eq!(report.evicted, vec!["doomed".to_string()]);
        assert!(rec.watched_mapping("doomed").is_none());
    }

    #[test]
    fn foreign_shard_placements_are_deferred() {
        let (_clock, service) = harness();
        let rec = Reconciler::new(
            Arc::clone(&service),
            ReconcilerConfig {
                shard: Some(0),
                ..ReconcilerConfig::default()
            },
        );
        let mut home = WatchedPlacement::new("home", ring_csv(6), vec![0, 1, 2, 0, 1, 2]);
        home.home_shard = Some(0);
        let mut foreign = WatchedPlacement::new("foreign", ring_csv(6), vec![0, 1, 2, 0, 1, 2]);
        foreign.home_shard = Some(1);
        rec.watch(home);
        rec.watch(foreign);
        service.inventory().set_capacity(0, 5);
        let report = rec.tick();
        assert_eq!(report.deferred, 1);
        // The foreign placement's mapping never changed.
        assert_eq!(
            rec.watched_mapping("foreign").unwrap(),
            vec![0, 1, 2, 0, 1, 2]
        );
    }

    #[test]
    fn rewatching_a_key_replaces_it() {
        let (_clock, service) = harness();
        let rec = Reconciler::new(service, ReconcilerConfig::default());
        rec.watch(WatchedPlacement::new("k", ring_csv(4), vec![0, 0, 1, 1]));
        rec.watch(WatchedPlacement::new("k", ring_csv(4), vec![1, 1, 0, 0]));
        assert_eq!(rec.watched_mapping("k").unwrap(), vec![1, 1, 0, 0]);
        rec.unwatch("k");
        assert!(rec.watched_mapping("k").is_none());
    }
}
