//! The mapping engine behind the daemon: request handling, the
//! two-tier cache and the inventory, independent of any transport.
//!
//! [`MappingService::handle`] is the whole service as a plain function
//! call — the **single-process in-memory mode**. The TCP front-end
//! ([`crate::server`]) adds sockets, the admission queue and the worker
//! pool around it; deterministic tests drive this type directly so no
//! scheduler interleaving can hide in the assertions.
//!
//! There is one request path. The reactor and the loopback transport
//! hand each complete wire message to [`MappingService::answer`], which
//! sniffs v1 from v2, decodes (the decoders run [`Request::validate`]),
//! serves and encodes the response in the message's own format;
//! `handle` runs the same validation on an in-process request. Both end
//! in one handler that alone applies the shutdown gate, the deadline,
//! the `request` span and the per-kind latency histogram.
//!
//! A `map` request runs the same stages as the batch pipeline
//! (`geomap_core::pipeline::run_with_pattern`) and is bit-identical to
//! it for the same seeds — verified by `tests/service_behavior.rs`:
//!
//! 1. parse + validate the embedded pattern/constraints CSV,
//! 2. **result cache**: identical `(problem, algorithm, seed)` → the
//!    stored mapping, no solve at all,
//! 3. **problem cache**: identical `(network, calibration, pattern,
//!    constraints)` → the calibrated estimate and assembled
//!    [`MappingProblem`] (with its cached partner lists) are reused, so
//!    only the solve runs — repeated topologies skip the probing
//!    campaign and everything `CostTables::build` needs rebuilt,
//! 4. full miss: calibrate, assemble, solve, populate both tiers,
//! 5. optionally reserve the placement in the [`ClusterInventory`].

use crate::cache::FingerprintCache;
use crate::clock::{Clock, WallClock};
use crate::federation::LeaseJournal;
use crate::fingerprint::Fingerprint;
use crate::frame::{self, Frame, FrameError, FrameKind, FRAME_MAGIC};
use crate::hist::{HistKind, HistSet, SCHEMA_VERSION};
use crate::inventory::{ClusterInventory, RebookError};
use crate::proto::{
    CacheTier, CalibSpec, ErrorCode, ErrorResponse, HistSummary, JournalResponse, MapRequest,
    MapResponse, RemapDiffResponse, RemapRequest, Request, Response, StatsDetail, StatsResponse,
    TraceDumpResponse, WireTraceEvent, WireTrack,
};
use crate::server::MAX_LINE_BYTES;
use baselines::{mapper_by_name, MapperSpec};
use commgraph::CommPattern;
use geomap_core::{
    cost, repair_with_tables, ConstraintVector, CostModel, CostTables, Mapping, MappingProblem,
    Metrics, MultilevelConfig, RemapConfig, RingBufferSink, Trace, TraceEventKind, TraceScope,
};
use geonet::{io as netio, Calibrator, SiteId, SiteNetwork};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads the TCP front-end runs (the in-memory mode is
    /// whatever the caller's thread structure is).
    pub workers: usize,
    /// Admission queue bound; requests beyond it are rejected with
    /// `over_capacity` (backpressure, not buffering).
    pub queue_capacity: usize,
    /// Entries held by the calibration/problem cache.
    pub problem_cache_capacity: usize,
    /// Entries held by the solved-result cache.
    pub result_cache_capacity: usize,
    /// Entries held by the idempotency-replay cache (successful `map`
    /// responses remembered per client key so retries never re-execute;
    /// 0 disables replay).
    pub idempotency_cache_capacity: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Lease TTL applied to reservations that don't carry their own
    /// (`None`: leases live until explicit teardown).
    pub default_lease_ttl: Option<Duration>,
    /// Observability: request-phase timings and cache/inventory
    /// counters land under the `service` scope.
    pub metrics: Metrics,
    /// Event tracing: the front-end opens one track per worker; the
    /// handle is also threaded into the mappers' own search spans.
    pub trace: Trace,
    /// The ring behind `trace`, when the daemon should answer
    /// [`Request::TraceDump`] — `geomap observe` collects these rings
    /// fleet-wide and merges them into one timeline. `None` (the
    /// default) rejects dump requests; the trace handle itself may
    /// still stream elsewhere.
    pub trace_ring: Option<Arc<RingBufferSink>>,
    /// Record per-request-kind latency histograms (queue wait, solve,
    /// end-to-end), sharded per worker and merged on `stats` reads.
    /// The off path is a single bool check per request — the criterion
    /// contract in `bench` pins its overhead.
    pub record_hists: bool,
    /// The clock lease expiry (inventory and journal) reads. Production
    /// is [`WallClock`]; deterministic tests inject a
    /// [`crate::clock::VirtualClock`] shared with the fault plan so
    /// chaos storms can expire leases mid-scenario on schedule.
    pub clock: Arc<dyn Clock>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(2, |p| p.get().min(8)),
            queue_capacity: 256,
            problem_cache_capacity: 64,
            result_cache_capacity: 512,
            idempotency_cache_capacity: 1024,
            default_deadline: None,
            default_lease_ttl: None,
            metrics: Metrics::off(),
            trace: Trace::off(),
            trace_ring: None,
            record_hists: true,
            clock: Arc::new(WallClock),
        }
    }
}

/// A calibrated, assembled problem shared across requests.
#[derive(Debug)]
pub struct PreparedProblem {
    /// The problem as the optimizer sees it (estimated network,
    /// partner lists built).
    pub problem: Arc<MappingProblem>,
    /// Probes the calibration campaign issued (stats surface).
    pub calibration_probes: usize,
    /// True when the campaign starved some site pair and fell back to
    /// last-known-good `LT`/`BT` entries.
    pub degraded: bool,
    /// How many calibration generations old those fallback entries are.
    pub staleness: u64,
}

/// A solved mapping shared across identical requests.
#[derive(Debug)]
pub struct SolvedResult {
    /// The mapping.
    pub mapping: Mapping,
    /// Its Eq. 3 cost under the calibrated estimate.
    pub cost: f64,
    /// Degradation carried from the problem this was solved against.
    pub degraded: bool,
    /// Staleness carried from the problem this was solved against.
    pub staleness: u64,
}

/// The last calibration that measured every pair, kept as the fallback
/// for campaigns that lose probes.
#[derive(Debug, Clone)]
struct LastGoodCalibration {
    estimated: SiteNetwork,
    generation: u64,
}

/// A remembered successful `map` response, replayed when its
/// idempotency key comes back.
#[derive(Debug)]
struct IdemEntry {
    /// Fingerprint of the request the key was first used with; a key
    /// reused with a different request is a client bug, not a retry.
    request_fp: u64,
    response: Response,
}

/// Idempotency keys with a solve currently in flight. Lookup and
/// execution must be single-flight per key: a retry that lands while
/// the original request is still solving would miss the replay cache
/// (the entry is only published after the solve), solve again, and
/// reserve a second lease. Duplicates park on the condvar until the
/// owner releases the key.
#[derive(Debug, Default)]
struct Inflight {
    keys: Mutex<HashSet<u64>>,
    done: Condvar,
}

/// Ownership of an in-flight idempotency key; dropping it (any exit
/// path out of `serve_map` — success, rejection, or solver panic)
/// releases the key and wakes parked duplicates.
struct InflightGuard<'a> {
    inflight: &'a Inflight,
    key_fp: u64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut keys = self.inflight.keys.lock().expect("inflight lock");
        keys.remove(&self.key_fp);
        drop(keys);
        self.inflight.done.notify_all();
    }
}

/// What a front-end knows about a message beyond its bytes — the
/// context [`MappingService::answer`] serves it in.
#[derive(Debug, Clone, Copy)]
pub struct Admission<'a> {
    /// Time the message waited to be admitted. The TCP front-end charges
    /// a connection's admission wait to its first message; pipelined
    /// follow-ups never waited. Checked against deadlines and recorded
    /// into the `*_e2e` histograms.
    pub queue_wait: Duration,
    /// Histogram shard to record into (the reactor's index, so
    /// recording never contends across reactors).
    pub shard: usize,
    /// True when a front-end admitted the message before shutdown
    /// began: admitted work drains, so the shutdown gate lets it pass.
    pub admitted: bool,
    /// Trace track for the request's spans.
    pub scope: TraceScope<'a>,
}

impl Admission<'_> {
    /// An in-process call: no queue wait, shard 0, not admitted (new
    /// mapping work is refused once shutdown began), untraced.
    pub fn in_process() -> Admission<'static> {
        Admission {
            queue_wait: Duration::ZERO,
            shard: 0,
            admitted: false,
            scope: TraceScope::off(),
        }
    }
}

/// The transport-independent mapping service.
pub struct MappingService {
    network: SiteNetwork,
    network_fp: u64,
    config: ServiceConfig,
    inventory: ClusterInventory,
    problems: FingerprintCache<Arc<PreparedProblem>>,
    results: FingerprintCache<Arc<SolvedResult>>,
    /// Raw-request fingerprint → `(problem_key, result_key)`. Parsing
    /// and re-canonicalizing the embedded CSV dominates a cache-hit
    /// request, so requests whose *raw text* already validated skip
    /// straight to the cache keys. Only successfully validated requests
    /// are memoized — error paths always re-derive their message.
    request_memo: FingerprintCache<(u64, u64)>,
    idempotent: FingerprintCache<Arc<IdemEntry>>,
    journal: LeaseJournal,
    inflight: Inflight,
    last_good: Mutex<Option<LastGoodCalibration>>,
    calib_generation: AtomicU64,
    metrics: Metrics,
    hists: HistSet,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    served: AtomicU64,
    result_hits: AtomicU64,
    problem_hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    replays: AtomicU64,
    shutdown: AtomicBool,
}

impl MappingService {
    /// A service fronting `network` (the ground-truth cluster whose
    /// nodes the inventory tracks and whose calibration requests see).
    pub fn new(network: SiteNetwork, config: ServiceConfig) -> Self {
        let network_fp = Fingerprint::new().str(&netio::to_csv(&network)).finish();
        Self {
            inventory: ClusterInventory::with_clock(
                network.capacities(),
                Arc::clone(&config.clock),
            ),
            problems: FingerprintCache::new(config.problem_cache_capacity),
            results: FingerprintCache::new(config.result_cache_capacity),
            request_memo: FingerprintCache::new(
                config
                    .result_cache_capacity
                    .max(config.problem_cache_capacity),
            ),
            idempotent: FingerprintCache::new(config.idempotency_cache_capacity),
            journal: LeaseJournal::new(Arc::clone(&config.clock)),
            inflight: Inflight::default(),
            last_good: Mutex::new(None),
            calib_generation: AtomicU64::new(0),
            metrics: config.metrics.scoped("service"),
            hists: if config.record_hists {
                HistSet::new(config.workers)
            } else {
                HistSet::off()
            },
            queue_depth: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            network,
            network_fp,
            config,
            served: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            problem_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The cluster this service fronts.
    pub fn network(&self) -> &SiteNetwork {
        &self.network
    }

    /// The configuration this service runs with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The inventory (tests assert conservation through this).
    pub fn inventory(&self) -> &ClusterInventory {
        &self.inventory
    }

    /// The shard-local lease journal (the federation router reconciles
    /// through [`Request::Journal`]; tests inspect it directly).
    pub fn journal(&self) -> &LeaseJournal {
        &self.journal
    }

    /// Ask the service to stop accepting new mapping work. In-flight
    /// and queued requests still complete (the front-end drains).
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once [`MappingService::begin_shutdown`] was called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handle any request in-process: the deterministic single-process
    /// mode. Runs the value checks both wire decoders run
    /// ([`Request::validate`]), then the one handler every wire message
    /// reaches too, with no queue wait and no admission — so new
    /// mapping work is refused once shutdown began.
    pub fn handle(&self, request: &Request) -> Response {
        match request.validate() {
            Ok(()) => self.serve(request, Admission::in_process()),
            Err(bad) => self.reject(&bad.id, bad.code, bad.message),
        }
    }

    /// Answer one complete wire message — a v1 JSON line (terminators
    /// stripped) or a v2 frame, told apart by the first byte — and
    /// append the encoded response to `out` in the message's own format
    /// and correlation id. A blank line appends nothing. This is the
    /// one request path: the TCP reactor and the loopback transport
    /// pass their messages here, and [`MappingService::handle`] enters
    /// the same handler after its own validation.
    ///
    /// Returns true when the connection must close once `out` is
    /// flushed: after a `shutdown`, and after a frame the byte stream
    /// cannot be resynchronized past (a broken header, or a response
    /// frame where a request belongs).
    pub fn answer(&self, msg: &[u8], at: Admission<'_>, out: &mut Vec<u8>) -> bool {
        let v2 = msg.first() == Some(&FRAME_MAGIC);
        let (corr_id, decoded) = if v2 {
            let (corr_id, decoded) = decode_frame(msg);
            (corr_id, decoded.map(Some))
        } else {
            (0, decode_line(msg))
        };
        let (response, close) = match decoded {
            Ok(None) => return false,
            Ok(Some(request)) => {
                let response = self.serve(&request, at);
                let close = matches!(response, Response::Shutdown { .. });
                (response, close)
            }
            Err(Refusal { error, fatal }) => {
                (self.reject(&error.id, error.code, error.message), fatal)
            }
        };
        if v2 {
            out.extend_from_slice(&frame::encode_response(&response, corr_id));
        } else {
            out.extend_from_slice(response.to_line().as_bytes());
            out.push(b'\n');
        }
        close
    }

    /// The one handler every validated request reaches: the `request`
    /// span (after a backdated `queue_wait` span), the admission gates,
    /// the dispatch, and one end-to-end latency sample per kind.
    fn serve(&self, request: &Request, at: Admission<'_>) -> Response {
        let start = self.hists.enabled().then(Instant::now);
        let wait_s = at.queue_wait.as_secs_f64();
        // A trace dump snapshots the ring its own spans would land in,
        // so they would be exported open; it is timed, not traced.
        let scope = match request {
            Request::TraceDump { .. } => TraceScope::off(),
            _ => at.scope,
        };
        if scope.enabled() {
            // The wait already happened (between accept and adoption),
            // so the span is backdated; the ring export sorts by
            // timestamp.
            let now = scope.trace.now();
            scope
                .trace
                .span_begin(scope.track, "queue_wait", now - wait_s);
            scope.trace.span_end(scope.track, "queue_wait", now);
        }
        scope.span_begin("request");
        let response = self.dispatch(request, at);
        scope.span_end("request");
        if let (Some(start), Some(kind)) = (start, e2e_kind(request)) {
            let e2e = wait_s + start.elapsed().as_secs_f64();
            self.hists.record_secs(kind, at.shard, e2e);
            if kind == HistKind::MapE2e {
                self.hists
                    .record_secs(HistKind::MapQueueWait, at.shard, wait_s);
            }
        }
        response
    }

    /// Apply the admission gates, then run the request. Map and remap
    /// are mapping work: only they are refused once shutdown began
    /// (unless a front-end admitted them earlier — admitted work
    /// drains) or when their queue wait outran their deadline. Release,
    /// stats, journal, trace-dump and shutdown always run.
    fn dispatch(&self, request: &Request, at: Admission<'_>) -> Response {
        if matches!(request, Request::Map(_) | Request::Remap(_)) {
            if !at.admitted && self.is_shutting_down() {
                return self.reject(
                    request.id(),
                    ErrorCode::ShuttingDown,
                    "daemon is draining; not accepting new mapping requests".into(),
                );
            }
            let own = match request {
                Request::Map(m) => m.deadline_ms.map(Duration::from_millis),
                _ => None,
            };
            if let Some(deadline) = own.or(self.config.default_deadline) {
                if at.queue_wait > deadline {
                    return self.reject(
                        request.id(),
                        ErrorCode::DeadlineExceeded,
                        format!(
                            "spent {:.0} ms in queue, deadline was {} ms",
                            at.queue_wait.as_secs_f64() * 1e3,
                            deadline.as_millis()
                        ),
                    );
                }
            }
        }
        match request {
            Request::Map(m) => self.serve_map(m, at),
            Request::Remap(r) => self.serve_remap(r, at.scope),
            Request::Release { id, lease } => self.serve_release(id, *lease),
            Request::Stats { id, detail } => Response::Stats(self.stats(id, *detail)),
            Request::Journal { id, key } => self.serve_journal(id, key),
            Request::TraceDump { id } => self.trace_dump(id),
            Request::Shutdown { id } => {
                self.begin_shutdown();
                Response::Shutdown {
                    id: id.clone(),
                    draining: self.queue_depth.load(Ordering::Relaxed),
                }
            }
        }
    }

    /// A `map` request past the gates. When it carries a sampled
    /// [`TraceContext`](crate::proto::TraceContext), the scope's track
    /// is tagged with the trace id (a `trace` counter sample) so the
    /// fleet-timeline merge can follow one request across daemons.
    fn serve_map(&self, m: &MapRequest, at: Admission<'_>) -> Response {
        let (queue_wait_s, scope) = (at.queue_wait.as_secs_f64(), at.scope);
        if scope.enabled() {
            if let Some(t) = &m.trace {
                if t.sampled {
                    #[allow(clippy::cast_precision_loss)] // trace ids are 53-bit
                    scope.counter("trace", t.trace_id as f64);
                }
            }
        }
        self.metrics.counter("requests", 1);
        self.metrics.timing("phase.queue_wait", queue_wait_s);
        // Parse + validate everything the request embeds before any
        // expensive work; every failure is a `bad_request`, never a
        // panic (this is a network-facing daemon).
        let n = m.ranks.unwrap_or_else(|| self.network.total_nodes());
        if n == 0 {
            return self.reject(
                &m.id,
                ErrorCode::BadRequest,
                "ranks must be positive".into(),
            );
        }
        if self.network.total_nodes() < n {
            return self.reject(
                &m.id,
                ErrorCode::BadRequest,
                format!(
                    "{n} processes exceed the cluster's {} nodes",
                    self.network.total_nodes()
                ),
            );
        }
        // Fast path: a request whose raw text already parsed, validated
        // and produced cache keys skips the CSV parse and the canonical
        // re-encoding entirely — on a result-cache hit the parse *was*
        // the request. Keyed over the verbatim request fields (any
        // formatting difference falls through to the slow path, whose
        // canonical keys still unify it with its equivalents).
        let raw_fp = feed_calibration(
            Fingerprint::new().u64(self.network_fp).u64(n as u64),
            &m.calibration,
        )
        .str(&m.pattern_csv)
        .u64(m.constraints_csv.is_some() as u64)
        .str(m.constraints_csv.as_deref().unwrap_or(""));
        let raw_fp = feed_solver(raw_fp, m).finish();
        let mut parsed: Option<(CommPattern, ConstraintVector)> = None;
        let (problem_key, result_key) = match self.request_memo.get(raw_fp) {
            Some(keys) => keys,
            None => {
                let (pattern, constraints) = match self.parse_and_validate(
                    &m.id,
                    n,
                    &m.pattern_csv,
                    m.constraints_csv.as_deref(),
                ) {
                    Ok(pc) => pc,
                    Err(resp) => return *resp,
                };
                let problem_key =
                    problem_key(self.network_fp, n, &m.calibration, &pattern, &constraints);
                let result_key = feed_solver(Fingerprint::new().u64(problem_key), m).finish();
                self.request_memo.insert(raw_fp, (problem_key, result_key));
                parsed = Some((pattern, constraints));
                (problem_key, result_key)
            }
        };

        // Idempotency: a key that already produced a successful response
        // replays it verbatim — same mapping, same lease — so a client
        // that lost the response can retry without re-reserving. The
        // key is bound to the request it first arrived with; reuse with
        // different content is a client bug. Lookup is single-flight:
        // a duplicate arriving while the original is still solving
        // parks until the first response is published, so even a
        // mid-solve retry can never reserve a second lease.
        let idem = m.idempotency_key.as_deref().map(|key| {
            let key_fp = Fingerprint::new().str(key).finish();
            // The TTL is fingerprinted as (presence, value): folding
            // absence into a sentinel value would make an explicit
            // `lease_ttl_ms = <sentinel>` indistinguishable from "no
            // TTL" and replay the wrong cached response.
            let request_fp = Fingerprint::new()
                .u64(result_key)
                .u64(m.reserve as u64)
                .u64(m.lease_ttl_ms.is_some() as u64)
                .u64(m.lease_ttl_ms.unwrap_or(0))
                .finish();
            (key_fp, request_fp)
        });
        let _inflight = match idem {
            Some((key_fp, request_fp)) => match self.claim_key(&m.id, key_fp, request_fp) {
                Ok(guard) => Some(guard),
                Err(response) => return *response,
            },
            None => None,
        };

        let solve_start = Instant::now();
        let (solved, tier) = if let Some(hit) = m
            .use_result_cache
            .then(|| self.results.get(result_key))
            .flatten()
        {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.counter("cache.result_hit", 1);
            scope.instant("cache.result_hit");
            (hit, CacheTier::Result)
        } else {
            // A memo hit skipped the parse; a problem-cache miss is the
            // one path that still needs the parsed pattern and
            // constraints, so they materialize here (the memo only holds
            // requests that validated, so this re-parse cannot newly
            // fail).
            let parse = || match parsed.take() {
                Some(pc) => Ok(pc),
                None => {
                    self.parse_and_validate(&m.id, n, &m.pattern_csv, m.constraints_csv.as_deref())
                }
            };
            let (prepared, tier) =
                match self.problem_tier(&m.id, problem_key, &m.calibration, scope, parse) {
                    Ok(pt) => pt,
                    Err(resp) => return *resp,
                };
            scope.span_begin("solve");
            let outcome = self.solve(m, &prepared);
            scope.span_end("solve");
            match outcome {
                Ok(solved) => {
                    let solved = Arc::new(solved);
                    self.results.insert(result_key, solved.clone());
                    (solved, tier)
                }
                Err(resp) => return *resp,
            }
        };
        let solve_s = if tier == CacheTier::Result {
            0.0
        } else {
            let s = solve_start.elapsed().as_secs_f64();
            self.hists.record_secs(HistKind::MapSolve, at.shard, s);
            s
        };
        self.metrics.timing("phase.solve", solve_s);

        // Optional placement: all-or-nothing against the inventory.
        let site_counts = solved.mapping.site_counts(self.network.num_sites());
        let lease = if m.reserve {
            let ttl = m
                .lease_ttl_ms
                .map(Duration::from_millis)
                .or(self.config.default_lease_ttl);
            scope.span_begin("reserve");
            let reserved = self.inventory.reserve(&site_counts, ttl);
            scope.span_end("reserve");
            match reserved {
                Ok(lease) => {
                    // Journal keyed reservations: the federation router
                    // reconciles cross-shard retries by asking "which
                    // lease does this key hold *here*?"
                    if let Some(key) = m.idempotency_key.as_deref() {
                        self.journal.record(key, lease, &site_counts);
                    }
                    Some(lease)
                }
                Err(e) => {
                    return self.reject(&m.id, ErrorCode::InsufficientNodes, e.to_string());
                }
            }
        } else {
            None
        };

        self.served.fetch_add(1, Ordering::Relaxed);
        let free_nodes = self.inventory.free_nodes();
        self.metrics.gauge(
            "inventory.free_total",
            free_nodes.iter().sum::<usize>() as f64,
        );
        let response = Response::Map(MapResponse {
            id: m.id.clone(),
            mapping: solved
                .mapping
                .as_slice()
                .iter()
                .map(|s| s.index())
                .collect(),
            cost: solved.cost,
            cached: tier,
            queue_wait_s,
            solve_s,
            lease,
            site_counts,
            free_nodes,
            degraded: solved.degraded,
            staleness: solved.staleness,
        });
        // Remember the success under its idempotency key so a retry of
        // the same request replays this exact response (same lease —
        // never a second reservation). Must happen before `_inflight`
        // drops: parked duplicates re-check the cache the moment the
        // key is released.
        if let Some((key_fp, request_fp)) = idem {
            if self.config.idempotency_cache_capacity > 0 {
                self.idempotent.insert(
                    key_fp,
                    Arc::new(IdemEntry {
                        request_fp,
                        response: response.clone(),
                    }),
                );
            }
        }
        response
    }

    /// Parse and validate the CSV payloads a `map` or `remap` request
    /// embeds; every failure is a `bad_request`, never a panic (this is
    /// a network-facing daemon).
    fn parse_and_validate(
        &self,
        id: &str,
        n: usize,
        pattern_csv: &str,
        constraints_csv: Option<&str>,
    ) -> Result<(CommPattern, ConstraintVector), Box<Response>> {
        let pattern = CommPattern::from_csv(n, pattern_csv).map_err(|e| {
            Box::new(self.reject(id, ErrorCode::BadRequest, format!("bad pattern CSV: {e}")))
        })?;
        let constraints = match constraints_csv {
            None => ConstraintVector::none(n),
            Some(csv) => crate::parse_constraints(n, csv).map_err(|e| {
                Box::new(self.reject(
                    id,
                    ErrorCode::BadRequest,
                    format!("bad constraints CSV: {e}"),
                ))
            })?,
        };
        if let Err(e) = self.feasible(&constraints) {
            return Err(Box::new(self.reject(id, ErrorCode::BadRequest, e)));
        }
        Ok((pattern, constraints))
    }

    /// The problem tier, shared by `map` and `remap` (both key the same
    /// cache, so a remap for a pattern the daemon already mapped skips
    /// the campaign entirely): a hit reuses the calibrated problem; a
    /// miss gets the parsed payloads from `parse`, runs a calibration
    /// campaign, assembles the [`PreparedProblem`] and caches it. Each
    /// fresh campaign is a calibration generation; lossy campaigns that
    /// starve a pair fall back to the last generation that measured
    /// everything and report how many generations old that is.
    fn problem_tier(
        &self,
        id: &str,
        key: u64,
        calibration: &CalibSpec,
        scope: TraceScope<'_>,
        parse: impl FnOnce() -> Result<(CommPattern, ConstraintVector), Box<Response>>,
    ) -> Result<(Arc<PreparedProblem>, CacheTier), Box<Response>> {
        if let Some(prepared) = self.problems.get(key) {
            self.problem_hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.counter("cache.problem_hit", 1);
            scope.instant("cache.problem_hit");
            return Ok((prepared, CacheTier::Problem));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.counter("cache.miss", 1);
        scope.instant("cache.miss");
        let (pattern, constraints) = parse()?;
        let generation = self.calib_generation.fetch_add(1, Ordering::SeqCst) + 1;
        let fallback = self.last_good.lock().expect("calibration lock").clone();
        scope.span_begin("calibrate");
        let report = self.metrics.timed("phase.calibrate", || {
            Calibrator::new(calibration.to_config())
                .calibrate_resilient(&self.network, fallback.as_ref().map(|g| &g.estimated))
        });
        scope.span_end("calibrate");
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                return Err(Box::new(self.reject(
                    id,
                    ErrorCode::Degraded,
                    format!("calibration failed: {e}"),
                )))
            }
        };
        let staleness = if report.degraded {
            self.metrics.counter("calibration.degraded", 1);
            // Saturating: a concurrent request can take a later
            // generation, finish clean, and store a last-good *newer*
            // than this thread's generation — staleness then floors at
            // 0 instead of underflowing.
            fallback
                .as_ref()
                .map_or(0, |g| generation.saturating_sub(g.generation))
        } else {
            let mut good = self.last_good.lock().expect("calibration lock");
            let fresher = good.as_ref().is_none_or(|g| g.generation < generation);
            if fresher {
                *good = Some(LastGoodCalibration {
                    estimated: report.estimated.clone(),
                    generation,
                });
            }
            0
        };
        let prepared = Arc::new(PreparedProblem {
            problem: Arc::new(MappingProblem::new(
                pattern,
                report.estimated.clone(),
                constraints,
            )),
            calibration_probes: report.probes,
            degraded: report.degraded,
            staleness,
        });
        self.problems.insert(key, prepared.clone());
        Ok((prepared, CacheTier::Miss))
    }

    /// Single-flight admission for an idempotency key: exactly one
    /// request per key may execute at a time. The first caller claims
    /// the key (guard returned); concurrent duplicates park here until
    /// the owner publishes its response and releases the key, then
    /// replay the stored response — or, if the owner failed (nothing
    /// published, nothing reserved), claim the key themselves. `Err` is
    /// the finished response to return: a replay, or a `bad_request`
    /// when the key is reused with different request content.
    fn claim_key(
        &self,
        id: &str,
        key_fp: u64,
        request_fp: u64,
    ) -> Result<InflightGuard<'_>, Box<Response>> {
        let mut keys = self.inflight.keys.lock().expect("inflight lock");
        loop {
            if !keys.contains(&key_fp) {
                // No owner in flight, so the replay cache is settled for
                // this key: an owner publishes its entry before the
                // guard releases the key.
                if let Some(entry) = self.idempotent.get(key_fp) {
                    if entry.request_fp != request_fp {
                        drop(keys);
                        return Err(Box::new(self.reject(
                            id,
                            ErrorCode::BadRequest,
                            "idempotency key reused with a different request".into(),
                        )));
                    }
                    self.replays.fetch_add(1, Ordering::Relaxed);
                    self.metrics.counter("idempotency.replay", 1);
                    return Err(Box::new(entry.response.clone()));
                }
                keys.insert(key_fp);
                return Ok(InflightGuard {
                    inflight: &self.inflight,
                    key_fp,
                });
            }
            keys = self.inflight.done.wait(keys).expect("inflight lock");
        }
    }

    /// Run the requested mapper; panics inside the solver surface as an
    /// `internal` error response instead of killing a worker thread.
    fn solve(
        &self,
        m: &MapRequest,
        prepared: &PreparedProblem,
    ) -> Result<SolvedResult, Box<Response>> {
        let problem = &*prepared.problem;
        let ml = m.multilevel.unwrap_or_default();
        let spec = MapperSpec {
            seed: m.seed,
            kappa: m.kappa,
            samples: m.samples,
            multilevel: MultilevelConfig {
                coarsen_cutoff: ml.coarsen_cutoff,
                match_rounds: ml.match_rounds,
                refine_passes: ml.refine_passes,
            },
            trace: self.config.trace.clone(),
        };
        let mapper = mapper_by_name(&m.algorithm, &spec)
            .map_err(|message| Box::new(self.reject(&m.id, ErrorCode::BadRequest, message)))?;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mapping = mapper.map(problem);
            let cost = cost(problem, &mapping);
            mapping.validate(problem).map(|()| SolvedResult {
                mapping,
                cost,
                degraded: prepared.degraded,
                staleness: prepared.staleness,
            })
        }));
        match outcome {
            Ok(Ok(solved)) => Ok(solved),
            Ok(Err(e)) => Err(Box::new(self.reject(
                &m.id,
                ErrorCode::Internal,
                format!("solver produced an infeasible mapping: {e}"),
            ))),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("unknown panic");
                Err(Box::new(self.reject(
                    &m.id,
                    ErrorCode::Internal,
                    format!("solver panicked: {what}"),
                )))
            }
        }
    }

    fn serve_release(&self, id: &str, lease: u64) -> Response {
        match self.inventory.release(lease) {
            Ok(freed) => {
                self.journal.forget_lease(lease);
                Response::Release {
                    id: id.to_string(),
                    freed,
                    free_nodes: self.inventory.free_nodes(),
                }
            }
            Err(message) => self.reject(id, ErrorCode::UnknownLease, message),
        }
    }

    /// Answer a lease-journal lookup: does this daemon hold a *live*
    /// lease granted under `key`? The journal remembers the grant, the
    /// inventory decides liveness (released or TTL-expired leases
    /// answer `held: false`, and their journal entries are evicted).
    fn serve_journal(&self, id: &str, key: &str) -> Response {
        let entry = self.journal.lookup(key);
        match entry {
            Some(e) => match self.inventory.lease_counts(e.lease) {
                Some(site_counts) => Response::Journal(JournalResponse {
                    id: id.to_string(),
                    key: key.to_string(),
                    held: true,
                    lease: Some(e.lease),
                    site_counts,
                }),
                None => {
                    // The lease died since it was journaled (expired,
                    // or released by lease id without a key in hand).
                    // Evict conditionally: a concurrent keyed
                    // re-reserve may have journaled a fresh live lease
                    // under this key since the lookup above, and that
                    // entry must stay findable.
                    self.journal.forget_if(key, e.lease);
                    Response::Journal(JournalResponse {
                        id: id.to_string(),
                        key: key.to_string(),
                        held: false,
                        lease: None,
                        site_counts: Vec::new(),
                    })
                }
            },
            None => Response::Journal(JournalResponse {
                id: id.to_string(),
                key: key.to_string(),
                held: false,
                lease: None,
                site_counts: Vec::new(),
            }),
        }
    }

    /// Repair a drifted mapping online: bounded-migration local search
    /// from the request's current assignment
    /// ([`geomap_core::remap::repair_with_tables`]) against the *live*
    /// inventory — the capacity offered to the repair at each site is
    /// the free pool plus what the caller already holds there (its
    /// named lease, or its current footprint when no lease is named),
    /// so a migration never lands on nodes another tenant has leased.
    /// When the request names a lease, the repaired placement is
    /// rebooked onto it atomically (same lease id — the exactly-once
    /// story never sees a release/reserve pair).
    fn serve_remap(&self, r: &RemapRequest, scope: TraceScope<'_>) -> Response {
        self.metrics.counter("remap.requests", 1);
        let n = r.mapping.len();
        let num_sites = self.network.num_sites();
        if let Some(&bad) = r.mapping.iter().find(|&&s| s >= num_sites) {
            return self.reject(
                &r.id,
                ErrorCode::BadRequest,
                format!("mapping references site {bad}, cluster has {num_sites} sites"),
            );
        }
        let (pattern, constraints) =
            match self.parse_and_validate(&r.id, n, &r.pattern_csv, r.constraints_csv.as_deref()) {
                Ok(pc) => pc,
                Err(resp) => return *resp,
            };
        let start_sites: Vec<SiteId> = r.mapping.iter().map(|&s| SiteId(s)).collect();
        if !constraints.satisfied_by(&start_sites) {
            return self.reject(
                &r.id,
                ErrorCode::BadRequest,
                "starting mapping violates its pin constraints".into(),
            );
        }
        let start = Mapping::new(start_sites);

        // Problem cache shared with `map`: identical key derivation, so
        // remapping a pattern the daemon already calibrated reuses the
        // estimate and the assembled problem.
        let problem_key = problem_key(self.network_fp, n, &r.calibration, &pattern, &constraints);
        let parsed = || Ok((pattern, constraints));
        let prepared = match self.problem_tier(&r.id, problem_key, &r.calibration, scope, parsed) {
            Ok((prepared, _)) => prepared,
            Err(resp) => return *resp,
        };

        // Live capacity view: the free pool plus the caller's own
        // holdings (a site that is "full" counting the caller's current
        // nodes is still a valid destination for the caller's ranks).
        let own = if let Some(lease) = r.lease {
            match self.inventory.lease_counts(lease) {
                Some(counts) => counts,
                None => {
                    return self.reject(
                        &r.id,
                        ErrorCode::UnknownLease,
                        format!("unknown lease {lease} (expired or never granted)"),
                    )
                }
            }
        } else {
            start.site_counts(num_sites)
        };
        let capacities: Vec<usize> = self
            .inventory
            .free_nodes()
            .iter()
            .zip(&own)
            .map(|(free, held)| free + held)
            .collect();

        let config = RemapConfig {
            budget: r.budget.map(|b| usize::try_from(b).unwrap_or(usize::MAX)),
            alpha: r.alpha,
            ..RemapConfig::default()
        };
        scope.span_begin("remap");
        let outcome = self.metrics.timed("phase.remap", || {
            let tables = CostTables::build(&prepared.problem, CostModel::Full);
            repair_with_tables(
                &tables,
                prepared.problem.constraints(),
                &capacities,
                &start,
                &config,
            )
        });
        scope.span_end("remap");

        let lease = if let Some(lease) = r.lease {
            let new_counts = outcome.mapping.site_counts(num_sites);
            match self.inventory.rebook(lease, &new_counts) {
                Ok(()) => Some(lease),
                Err(RebookError::UnknownLease) => {
                    return self.reject(
                        &r.id,
                        ErrorCode::UnknownLease,
                        format!("lease {lease} expired during the remap"),
                    )
                }
                Err(RebookError::Insufficient(e)) => {
                    // The free pool shifted between the capacity read
                    // and the rebook; nothing was taken, retrying sees
                    // the new inventory.
                    return self.reject(
                        &r.id,
                        ErrorCode::Retryable,
                        format!("inventory shifted during the remap: {e}"),
                    );
                }
            }
        } else {
            None
        };

        self.metrics
            .counter("remap.migrations", outcome.moved.len() as u64);
        Response::RemapDiff(RemapDiffResponse {
            id: r.id.clone(),
            mapping: outcome
                .mapping
                .as_slice()
                .iter()
                .map(|s| s.index())
                .collect(),
            moved: outcome.moved.clone(),
            old_cost: outcome.old_cost,
            new_cost: outcome.new_cost,
            migrations: outcome.moved.len() as u64,
            lease,
            free_nodes: self.inventory.free_nodes(),
        })
    }

    /// How many calibration generations the last fully-measured
    /// campaign lags the newest one — nonzero means fresh mappings are
    /// being cut against stale link estimates (a reconciler drift
    /// signal).
    pub fn calibration_staleness(&self) -> u64 {
        let generation = self.calib_generation.load(Ordering::SeqCst);
        let good = self
            .last_good
            .lock()
            .expect("calibration lock")
            .as_ref()
            .map_or(generation, |g| g.generation);
        generation.saturating_sub(good)
    }

    /// Current counters and inventory state. With `detail`, also the
    /// admission-queue watermarks, the per-site lease ledger, and every
    /// latency histogram (summaries + full bucket dumps, so a
    /// federation router can merge them exactly).
    pub fn stats(&self, id: &str, detail: bool) -> StatsResponse {
        let detail = detail.then(|| {
            let (_free, leased) = self.inventory.ledger();
            StatsDetail {
                hist_schema: SCHEMA_VERSION,
                queue_depth: self.queue_depth.load(Ordering::Relaxed),
                max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
                leased_nodes: leased,
                hists: HistKind::ALL
                    .iter()
                    .map(|k| HistSummary::from_histogram(k.label(), &self.hists.merged(*k)))
                    .collect(),
                shards: 1,
            }
        });
        StatsResponse {
            id: id.to_string(),
            served: self.served.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            problem_hits: self.problem_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            free_nodes: self.inventory.free_nodes(),
            active_leases: self.inventory.active_leases() as u64,
            detail,
        }
    }

    /// Dump the daemon's trace ring for the fleet-timeline collector.
    /// `now_s` is the daemon's trace clock at dump time — the collector
    /// brackets the request with its own clock reads and aligns tracks
    /// by the midpoint offset.
    fn trace_dump(&self, id: &str) -> Response {
        let Some(ring) = &self.config.trace_ring else {
            return self.reject(
                id,
                ErrorCode::BadRequest,
                "tracing ring is not enabled on this daemon".into(),
            );
        };
        let tracks = ring
            .tracks()
            .into_iter()
            .map(|t| WireTrack {
                track: t.id.0,
                process: t.process,
                name: t.name,
            })
            .collect();
        let events = ring
            .snapshot()
            .into_iter()
            .map(|e| WireTraceEvent {
                track: e.track.0,
                name: e.name.to_string(),
                kind: match e.kind {
                    TraceEventKind::SpanBegin => WireTraceEvent::SPAN_BEGIN,
                    TraceEventKind::SpanEnd => WireTraceEvent::SPAN_END,
                    TraceEventKind::Instant => WireTraceEvent::INSTANT,
                    TraceEventKind::Counter => WireTraceEvent::COUNTER,
                },
                ts_s: e.ts,
                value: e.value,
            })
            .collect();
        Response::TraceDump(TraceDumpResponse {
            id: id.to_string(),
            now_s: self.config.trace.now(),
            dropped: ring.dropped(),
            tracks,
            events,
        })
    }

    /// The latency histograms (bench read-back and tests).
    pub fn hists(&self) -> &HistSet {
        &self.hists
    }

    /// Note the admission queue's current depth (the TCP front-end
    /// reports after every push/pop); `stats` detail exposes the
    /// current value and the high-water mark.
    pub fn note_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record a rejection and build the error response. The TCP
    /// front-end also routes its queue-level rejections (over-capacity,
    /// deadline) through this so `stats.rejected` covers every path.
    pub fn reject(&self, id: &str, code: ErrorCode, message: String) -> Response {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .counter(&format!("rejected.{}", code.label()), 1);
        Response::Error(ErrorResponse {
            id: id.to_string(),
            code,
            message,
        })
    }

    /// The feasibility preconditions `MappingProblem::new` asserts,
    /// rephrased as recoverable errors.
    fn feasible(&self, constraints: &ConstraintVector) -> Result<(), String> {
        let caps = self.network.capacities();
        let mut used = vec![0usize; caps.len()];
        for (i, pin) in constraints.iter().enumerate() {
            if let Some(site) = pin {
                if site.index() >= caps.len() {
                    return Err(format!(
                        "process {i} constrained to {site}, cluster has {} sites",
                        caps.len()
                    ));
                }
                used[site.index()] += 1;
                if used[site.index()] > caps[site.index()] {
                    return Err(format!(
                        "constraints alone overflow {site} (capacity {})",
                        caps[site.index()]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Record the time a response spent being written back (the TCP
    /// front-end's third request phase next to queue-wait and solve).
    pub fn record_respond(&self, seconds: f64) {
        self.metrics.timing("phase.respond", seconds);
    }

    /// Flush the metrics sink (the front-end calls this on shutdown).
    pub fn flush(&self) {
        self.metrics.flush();
        self.config.trace.flush();
    }
}

impl std::fmt::Debug for MappingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingService")
            .field("network", &self.network.summary())
            .field("problems", &self.problems.len())
            .field("results", &self.results.len())
            .finish()
    }
}

/// The refusal a wire message earned before dispatch, and whether the
/// byte stream cannot continue past it.
struct Refusal {
    error: ErrorResponse,
    fatal: bool,
}

impl Refusal {
    /// A refusal the stream continues past.
    fn of(error: ErrorResponse) -> Self {
        Self {
            error,
            fatal: false,
        }
    }
}

/// Decode a v1 line (terminators stripped); `None` for a blank line,
/// which gets no answer.
fn decode_line(msg: &[u8]) -> Result<Option<Request>, Refusal> {
    if msg.len() > MAX_LINE_BYTES {
        let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
        return Err(Refusal::of(unattributed(ErrorCode::BadRequest, message)));
    }
    let line = String::from_utf8_lossy(msg);
    if line.trim().is_empty() {
        return Ok(None);
    }
    Request::from_line(&line).map(Some).map_err(Refusal::of)
}

/// Decode a v2 frame into its correlation id and request.
fn decode_frame(msg: &[u8]) -> (u64, Result<Request, Refusal>) {
    let (kind, corr_id, payload) = match Frame::split(msg) {
        Ok(parts) => parts,
        Err(e) => {
            let code = match e {
                FrameError::BadVersion(_) => ErrorCode::UnsupportedVersion,
                _ => ErrorCode::BadRequest,
            };
            let error = unattributed(code, e.to_string());
            let corr_id = Frame::peek_corr_id(msg).unwrap_or(0);
            return (corr_id, Err(Refusal { error, fatal: true }));
        }
    };
    if kind != FrameKind::Request {
        let message = "expected a request frame, got a response frame".into();
        let error = unattributed(ErrorCode::BadRequest, message);
        return (corr_id, Err(Refusal { error, fatal: true }));
    }
    (
        corr_id,
        frame::decode_request_payload(payload).map_err(Refusal::of),
    )
}

/// A refusal for a message whose request id could not be read.
fn unattributed(code: ErrorCode, message: String) -> ErrorResponse {
    ErrorResponse {
        id: String::new(),
        code,
        message,
    }
}

/// The end-to-end histogram a request kind records into (`shutdown`
/// has none).
fn e2e_kind(request: &Request) -> Option<HistKind> {
    Some(match request {
        Request::Map(_) => HistKind::MapE2e,
        Request::Remap(_) => HistKind::RemapE2e,
        Request::Release { .. } => HistKind::ReleaseE2e,
        Request::Stats { .. } => HistKind::StatsE2e,
        Request::Journal { .. } => HistKind::JournalE2e,
        Request::TraceDump { .. } => HistKind::TraceDumpE2e,
        Request::Shutdown { .. } => return None,
    })
}

/// Feed a calibration campaign into a cache key. Every key that depends
/// on the campaign feeds it through here, so they agree on the order.
fn feed_calibration(fp: Fingerprint, c: &CalibSpec) -> Fingerprint {
    fp.u64(c.days as u64)
        .u64(c.probes_per_day as u64)
        .f64(c.noise_cv)
        .f64(c.loss_rate)
        .u64(c.seed)
}

/// Feed the solver spec of a map request into a cache key. The
/// multilevel spec goes in as (presence, values): the same problem
/// solved direct and multilevel, or with different knobs, gives
/// different results that must never share a cache entry.
fn feed_solver(fp: Fingerprint, m: &MapRequest) -> Fingerprint {
    fp.str(&m.algorithm)
        .u64(m.seed)
        .u64(m.kappa as u64)
        .u64(m.samples as u64)
        .u64(m.multilevel.is_some() as u64)
        .u64(m.multilevel.map_or(0, |ml| ml.coarsen_cutoff as u64))
        .u64(m.multilevel.map_or(0, |ml| ml.match_rounds as u64))
        .u64(m.multilevel.map_or(0, |ml| ml.refine_passes as u64))
}

/// The problem-cache key shared by map and remap, over canonical
/// encodings (the parsed pattern's own CSV, not the request text, so
/// formatting differences still hit). `n` is fed explicitly: the
/// pattern CSV lists only edges and the constraints CSV only pins, so
/// neither encodes the rank count on its own.
fn problem_key(
    network_fp: u64,
    n: usize,
    calibration: &CalibSpec,
    pattern: &CommPattern,
    constraints: &ConstraintVector,
) -> u64 {
    feed_calibration(
        Fingerprint::new().u64(network_fp).u64(n as u64),
        calibration,
    )
    .str(&pattern.to_csv())
    .str(&crate::constraints_csv(constraints))
    .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MultilevelSpec;

    /// Cache keys are stable across releases: a changed feed order
    /// would silently cold-start every deployed cache and split
    /// federation affinity. Values pinned from the inline derivation
    /// the helpers replaced.
    #[test]
    fn cache_keys_are_pinned() {
        let n = 4;
        let mut m = MapRequest::new("k", "src,dst,bytes,msgs\n0,1,5,2\n1,0,7,3\n");
        m.calibration = CalibSpec {
            days: 2,
            probes_per_day: 5,
            noise_cv: 0.0625,
            loss_rate: 0.25,
            seed: 99,
        };
        m.algorithm = "multilevel".into();
        m.seed = 7;
        m.kappa = 3;
        m.samples = 500;
        m.multilevel = Some(MultilevelSpec {
            coarsen_cutoff: 256,
            match_rounds: 3,
            refine_passes: 1,
        });
        let pattern = CommPattern::from_csv(n, &m.pattern_csv).expect("valid pattern");
        let problem = problem_key(
            0x0123_4567_89AB_CDEF,
            n,
            &m.calibration,
            &pattern,
            &ConstraintVector::none(n),
        );
        assert_eq!(problem, 0xa0a8_6351_b8a4_29cc);
        let result = feed_solver(Fingerprint::new().u64(problem), &m).finish();
        assert_eq!(result, 0x746a_2a81_c229_a796);
    }
}
