//! The request side: the tenants, the traffic plan, the wire
//! connection the load generator drives, and the response checks.

use crate::schedule::{poisson_arrivals, Rng, Timing};
use crate::spans::SpanLog;
use commgraph::apps::AppKind;
use geomap_service::frame::{FRAME_HEADER_BYTES, FRAME_MAGIC};
use geomap_service::proto::{CacheTier, CalibSpec};
use geomap_service::{MapRequest, RemapRequest, Request, Response, WireFormat};
use geonet::{presets, InstanceType, SiteNetwork};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Rank counts every application is submitted at.
pub const SIZES: [usize; 3] = [16, 32, 64];
/// Nodes per region of the paper's 4-region EC2 cluster: 64 in all,
/// so a 64-rank tenant fills it and every mapping is capacity-bound.
pub const NODES_PER_REGION: usize = 16;
/// Link-noise seed of the EC2 preset (the one `service_load` uses).
const PRESET_SEED: u64 = 42;
/// Offset for fresh solver and calibration seeds, clear of the base
/// seeds and the working-set variants. Seeds stay below 2^53 so the
/// v1 JSON codec carries them exactly.
const FRESH: u64 = 1 << 32;
/// How long a reservation is held before its release is due.
const LEASE_HOLD_S: f64 = 0.02;
/// Gap after a release before the next inventory operation is due.
const LEASE_GUARD_S: f64 = 0.01;
/// A read that waits this long for a response means the daemon
/// stalled: the run fails instead of hanging.
const STALL: Duration = Duration::from_secs(30);

/// One tenant: one of the paper's applications at a rank count, with
/// its seeds.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Rank count.
    pub ranks: usize,
    /// Its communication pattern as the wire carries it.
    pub pattern_csv: String,
    /// Base solver seed.
    pub seed: u64,
    /// Base calibration-campaign seed.
    pub calib_seed: u64,
}

/// Every input the request workloads draw from: the cluster the
/// daemon fronts and the tenants that submit to it.
#[derive(Debug, Clone)]
pub struct Universe {
    /// Ground-truth network of the daemon.
    pub network: SiteNetwork,
    /// The paper's five applications at every size in [`SIZES`].
    pub tenants: Vec<Tenant>,
}

/// A solved placement a later request must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Placed {
    /// Process → site.
    pub mapping: Vec<usize>,
    /// Eq. 3 cost the daemon reported.
    pub cost: f64,
}

/// What one request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Repeat of a solved request: served from the result tier.
    Hit,
    /// Fresh solver seed on a calibrated problem: problem tier.
    Problem,
    /// Fresh calibration seed: a full miss.
    Miss,
    /// A result-tier repeat that also reserves its nodes.
    Reserve,
    /// Release of the lease the matching reserve took.
    Release,
    /// Bounded-migration repair of a drifted placement.
    Remap,
}

/// Request classes the end-to-end latencies are reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Result-tier map requests.
    Hit,
    /// Map requests the daemon had to solve (problem tier and misses).
    Solve,
    /// Reserving map requests and their releases.
    Lease,
    /// Remap requests.
    Remap,
}

impl Kind {
    /// The latency class the request is reported under.
    pub fn class(self) -> Class {
        match self {
            Kind::Hit => Class::Hit,
            Kind::Problem | Kind::Miss => Class::Solve,
            Kind::Reserve | Kind::Release => Class::Lease,
            Kind::Remap => Class::Remap,
        }
    }

    /// Stable label for request ids and messages.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Problem => "problem",
            Kind::Miss => "miss",
            Kind::Reserve => "reserve",
            Kind::Release => "release",
            Kind::Remap => "remap",
        }
    }
}

/// One planned request.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Due time, seconds from the start of the phase.
    pub at: f64,
    /// Connection that sends it.
    pub conn: usize,
    /// What it does.
    pub kind: Kind,
    /// Tenant it is about.
    pub tenant: usize,
    /// Per-request salt: fresh seeds and the remap drift.
    pub salt: u64,
    /// Lease pair number (reserve and its release share it).
    pub lease: usize,
}

/// A traffic plan: requests in due order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The requests.
    pub ops: Vec<Op>,
}

impl Plan {
    /// The mix: of every 1000 requests, 800 result-tier repeats, 60
    /// problem-tier solves, 40 misses, 25 reserves + 25 releases and 50
    /// remaps. Request classes are shuffled onto a Poisson schedule of
    /// `n` arrivals over `seconds`. Each class visits the tenants in
    /// turn, so every seed solves, leases and remaps the same tenant
    /// mix and only the order and seeds change. Every inventory
    /// operation (reserve, release, remap) goes to connection 0 and is
    /// spaced so that at most one lease is live at a time and no remap
    /// overlaps one: every response is then fixed by the seed, however
    /// the two connections interleave.
    pub fn mix(n: usize, seconds: f64, conns: usize, tenants: usize, seed: u64) -> Plan {
        let mut rng = Rng::new(seed ^ 0x9E1A_7105);
        let (problem, miss, pairs, remap) = (n * 3 / 50, n / 25, n / 40, n / 20);
        let hits = n - problem - miss - 2 * pairs - remap;
        let mut kinds = Vec::with_capacity(n - pairs);
        for (kind, count) in [
            (Kind::Hit, hits),
            (Kind::Problem, problem),
            (Kind::Miss, miss),
            (Kind::Reserve, pairs),
            (Kind::Remap, remap),
        ] {
            kinds.extend(std::iter::repeat_n(kind, count));
        }
        rng.shuffle(&mut kinds);
        let times = poisson_arrivals(kinds.len(), seconds, &mut rng);
        let mut ops = Vec::with_capacity(n);
        let mut free_at = 0.0f64;
        let mut lease = 0;
        let mut turn: BTreeMap<Kind, usize> = BTreeMap::new();
        for (i, (&kind, &at)) in kinds.iter().zip(&times).enumerate() {
            let visits = turn.entry(kind).or_default();
            let tenant = *visits % tenants;
            *visits += 1;
            let op = |at: f64, conn: usize, kind: Kind| Op {
                at,
                conn,
                kind,
                tenant,
                salt: i as u64,
                lease,
            };
            match kind {
                Kind::Reserve => {
                    let at = at.max(free_at);
                    ops.push(op(at, 0, Kind::Reserve));
                    ops.push(op(at + LEASE_HOLD_S, 0, Kind::Release));
                    free_at = at + LEASE_HOLD_S + LEASE_GUARD_S;
                    lease += 1;
                }
                Kind::Remap => ops.push(op(at.max(free_at), 0, kind)),
                _ => ops.push(op(at, rng.below(conns), kind)),
            }
        }
        // Stable: a release due with its reserve still sorts after it.
        ops.sort_by(|a, b| a.at.total_cmp(&b.at));
        Plan { ops }
    }

    /// Requests of `kind` in the plan.
    pub fn count(&self, kind: Kind) -> usize {
        self.ops.iter().filter(|o| o.kind == kind).count()
    }
}

impl Universe {
    /// The paper's five applications at 16, 32 and 64 ranks on the
    /// paper's 4-region EC2 preset. The cluster is the preset, the same
    /// for every seed; `seed` draws the tenants' solver and calibration
    /// seeds.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x7E4A_4751);
        let network =
            presets::paper_ec2_network(NODES_PER_REGION, InstanceType::M4Xlarge, PRESET_SEED);
        let mut tenants = Vec::new();
        for app in AppKind::ALL {
            for ranks in SIZES {
                tenants.push(Tenant {
                    ranks,
                    pattern_csv: app.workload(ranks).pattern().to_csv(),
                    seed: rng.next_u64() >> 32,
                    calib_seed: rng.next_u64() >> 32,
                });
            }
        }
        Universe { network, tenants }
    }

    /// Tenant `t`'s map request with solver seed offset `variant`.
    pub fn map_request(&self, id: String, t: usize, variant: u64) -> MapRequest {
        let tenant = &self.tenants[t];
        MapRequest {
            ranks: Some(tenant.ranks),
            seed: tenant.seed + variant,
            calibration: CalibSpec {
                seed: tenant.calib_seed,
                ..CalibSpec::default()
            },
            ..MapRequest::new(id, tenant.pattern_csv.clone())
        }
    }

    /// The wire request for plan op `op` (number `idx`); `lease` is the
    /// id the matching reserve was granted (releases only).
    pub fn request(&self, idx: usize, op: &Op, lease: Option<u64>, base: &[Placed]) -> Request {
        let id = format!("{}-{idx}", op.kind.label());
        let base_req = |id: String| self.map_request(id, op.tenant, 0);
        match op.kind {
            Kind::Hit => Request::Map(base_req(id)),
            Kind::Problem => Request::Map(MapRequest {
                seed: self.tenants[op.tenant].seed + FRESH + op.salt,
                ..base_req(id)
            }),
            Kind::Miss => {
                let mut m = base_req(id);
                m.calibration.seed += FRESH + op.salt;
                Request::Map(m)
            }
            Kind::Reserve => Request::Map(MapRequest {
                reserve: true,
                ..base_req(id)
            }),
            Kind::Release => Request::Release {
                id,
                lease: lease.expect("a release is sent only once its reserve was granted"),
            },
            Kind::Remap => {
                let tenant = &self.tenants[op.tenant];
                Request::Remap(RemapRequest {
                    budget: Some(remap_budget(tenant.ranks)),
                    calibration: CalibSpec {
                        seed: tenant.calib_seed,
                        ..CalibSpec::default()
                    },
                    ..RemapRequest::new(
                        id,
                        tenant.pattern_csv.clone(),
                        drift(&base[op.tenant].mapping, op.salt),
                    )
                })
            }
        }
    }

    /// Check `resp` against what op `op` must return. `base` holds each
    /// tenant's warm-up solve, which every result-tier answer must
    /// reproduce byte for byte.
    pub fn check(&self, op: &Op, resp: &Response, base: &[Placed]) -> Result<Checked, String> {
        let tenant = &self.tenants[op.tenant];
        let what = op.kind.label();
        let mut out = Checked::default();
        match (op.kind, resp) {
            (Kind::Hit | Kind::Reserve, Response::Map(m)) => {
                expect_tier(what, m.cached, CacheTier::Result)?;
                let want = &base[op.tenant];
                if m.mapping != want.mapping || m.cost != want.cost {
                    return Err(format!(
                        "{what} {}: result-tier mapping differs from the solve that produced it",
                        m.id
                    ));
                }
                if op.kind == Kind::Reserve {
                    out.lease = Some(
                        m.lease
                            .ok_or_else(|| format!("{what} {}: no lease", m.id))?,
                    );
                }
            }
            (Kind::Problem | Kind::Miss, Response::Map(m)) => {
                let tier = if op.kind == Kind::Miss {
                    CacheTier::Miss
                } else {
                    CacheTier::Problem
                };
                expect_tier(what, m.cached, tier)?;
                self.valid(tenant.ranks, &m.mapping)
                    .map_err(|e| format!("{what} {}: {e}", m.id))?;
                if !(m.cost.is_finite() && m.cost > 0.0) {
                    return Err(format!("{what} {}: cost {}", m.id, m.cost));
                }
                out.solved = Some(Placed {
                    mapping: m.mapping.clone(),
                    cost: m.cost,
                });
                out.solve_s = Some(m.solve_s);
            }
            (Kind::Release, Response::Release { freed, .. }) => {
                let want = site_counts(&base[op.tenant].mapping, self.network.num_sites());
                if *freed != want {
                    return Err(format!("release freed {freed:?}, the lease held {want:?}"));
                }
            }
            (Kind::Remap, Response::RemapDiff(r)) => {
                // An advisory remap may use the free pool plus the
                // caller's own footprint, so only the site range and
                // length are fixed.
                let m = self.network.num_sites();
                if r.mapping.len() != tenant.ranks || r.mapping.iter().any(|&s| s >= m) {
                    return Err(format!(
                        "remap {}: mapping of {} ranks",
                        r.id,
                        r.mapping.len()
                    ));
                }
                if r.new_cost > r.old_cost * (1.0 + 1e-12) {
                    return Err(format!(
                        "remap {}: repair raised the cost {} -> {}",
                        r.id, r.old_cost, r.new_cost
                    ));
                }
                if r.migrations != r.moved.len() as u64 || r.migrations > remap_budget(tenant.ranks)
                {
                    return Err(format!(
                        "remap {}: {} migrations over a budget of {}",
                        r.id,
                        r.migrations,
                        remap_budget(tenant.ranks)
                    ));
                }
                out.moved = Some(r.moved.len());
            }
            (_, Response::Error(e)) => {
                return Err(format!(
                    "{what} {} refused: {} ({})",
                    e.id,
                    e.code.label(),
                    e.message
                ))
            }
            (_, other) => {
                return Err(format!(
                    "{what} {}: wrong response kind {}",
                    other.id(),
                    response_kind(other)
                ))
            }
        }
        Ok(out)
    }

    /// A mapping of `ranks` processes that fits the cluster.
    pub fn valid(&self, ranks: usize, mapping: &[usize]) -> Result<(), String> {
        let m = self.network.num_sites();
        if mapping.len() != ranks || mapping.iter().any(|&s| s >= m) {
            return Err(format!("mapping of {} ranks onto {m} sites", mapping.len()));
        }
        let caps = self.network.capacities();
        if site_counts(mapping, m)
            .iter()
            .zip(&caps)
            .any(|(c, cap)| c > cap)
        {
            return Err("mapping overfills a site".into());
        }
        Ok(())
    }
}

/// What a checked response carried that later requests or metrics use.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Granted lease (reserves).
    pub lease: Option<u64>,
    /// The placement a solve returned.
    pub solved: Option<Placed>,
    /// Seconds the daemon reports it spent calibrating and solving.
    pub solve_s: Option<f64>,
    /// Ranks a remap moved.
    pub moved: Option<usize>,
}

fn expect_tier(what: &str, got: CacheTier, want: CacheTier) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: served from the {} tier, planned {}",
            got.label(),
            want.label()
        ))
    }
}

fn response_kind(r: &Response) -> &'static str {
    match r {
        Response::Map(_) => "map",
        Response::Release { .. } => "release",
        Response::Stats(_) => "stats",
        Response::Shutdown { .. } => "shutdown",
        Response::Journal(_) => "journal",
        Response::TraceDump(_) => "trace_dump",
        Response::RemapDiff(_) => "remap",
        Response::Error(_) => "error",
    }
}

/// Nodes per site a mapping uses.
pub fn site_counts(mapping: &[usize], sites: usize) -> Vec<usize> {
    let mut counts = vec![0; sites];
    for &s in mapping {
        counts[s] += 1;
    }
    counts
}

/// Migration budget of a remap of `ranks` processes.
pub fn remap_budget(ranks: usize) -> u64 {
    (ranks / 4) as u64
}

/// A drifted copy of `mapping`: `len / 8` seeded swaps between ranks on
/// different sites, so site loads (and feasibility) are unchanged.
pub fn drift(mapping: &[usize], salt: u64) -> Vec<usize> {
    let mut rng = Rng::new(salt ^ 0xD41F_7000);
    let mut out = mapping.to_vec();
    let n = out.len();
    let mut swaps = 0;
    for _ in 0..64 * n {
        if swaps == n / 8 {
            break;
        }
        let (i, j) = (rng.below(n), rng.below(n));
        if out[i] != out[j] {
            out.swap(i, j);
            swaps += 1;
        }
    }
    out
}

/// One client connection speaking one wire format.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    format: WireFormat,
}

impl Conn {
    /// Connect to the daemon at `addr`.
    pub fn connect(addr: SocketAddr, format: WireFormat) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            chunk: vec![0; 64 << 10],
            format,
        })
    }

    /// Encode `req` as one complete wire message (v1 lines include
    /// their newline).
    pub fn encode(&self, req: &Request, corr: u64) -> Vec<u8> {
        let mut bytes = self.format.encode_request(req, corr);
        if self.format == WireFormat::V1Json {
            bytes.push(b'\n');
        }
        bytes
    }

    /// Write one encoded message.
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// The next complete response message, waiting until `until` at
    /// most (`None`: wait up to [`STALL`], then fail). `Ok(None)` means
    /// `until` passed first.
    pub fn next_message(&mut self, until: Option<Instant>) -> Result<Option<Vec<u8>>, String> {
        loop {
            if let Some((len, skip)) = self.complete() {
                let msg = self.buf[..len].to_vec();
                self.buf.drain(..len + skip);
                return Ok(Some(msg));
            }
            let timeout = match until {
                Some(u) => match u.checked_duration_since(Instant::now()) {
                    Some(d) if d >= Duration::from_micros(20) => d,
                    _ => return Ok(None),
                },
                None => STALL,
            };
            if !readable(&self.stream, timeout).map_err(|e| format!("wait for a response: {e}"))? {
                if until.is_none() {
                    return Err(format!("no response within {STALL:?}"));
                }
                continue;
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("the daemon closed the connection".into()),
                Ok(k) => self.buf.extend_from_slice(&self.chunk[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// Length of the first complete message in the buffer and the
    /// framing bytes to drop after it. A frame starts with the v2
    /// magic; anything else is a v1 line (a daemon may answer an
    /// admission rejection in v1 before it knows the client's format).
    fn complete(&self) -> Option<(usize, usize)> {
        if self.buf.first() == Some(&FRAME_MAGIC) {
            let header = self.buf.get(..FRAME_HEADER_BYTES)?;
            let len = u32::from_le_bytes(header[11..15].try_into().expect("4 length bytes"));
            let total = FRAME_HEADER_BYTES + len as usize;
            (self.buf.len() >= total).then_some((total, 0))
        } else {
            self.buf.iter().position(|&b| b == b'\n').map(|p| (p, 1))
        }
    }
}

/// Wait until `stream` has bytes to read or `timeout` passes; `true`
/// when readable. This is `ppoll`, whose timeout has microsecond
/// resolution: a socket read timeout counts in scheduler ticks (4 ms at
/// HZ=250), which would make every open-loop send late by milliseconds.
fn readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::ffi::{c_int, c_long, c_ulong, c_void};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct TimeSpec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const POLLIN: i16 = 0x1;
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const TimeSpec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = TimeSpec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        // Below 10^9, so it fits a 32-bit `c_long` too.
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live locals laid out as Linux's
    // `struct pollfd` and `struct timespec` (`repr(C)`, same field
    // types); `nfds` is 1, matching the one entry `fds` points to; a
    // null `sigmask` leaves the signal mask unchanged. The descriptor
    // belongs to `stream`, which outlives the call.
    let r = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match r {
        0 => Ok(false),
        r if r > 0 => Ok(true),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// A saturated closed loop answers ~10^4 requests a second; it keeps
/// the full record and spans of one hit in this many (every latency is
/// kept), so its memory does not grow with the daemon's speed.
const WINDOW_SAMPLE_EVERY: u64 = 32;

/// How sends are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop: each request is due at the phase start plus its
    /// planned offset, whether or not earlier ones were answered.
    Open(Instant),
    /// Closed loop: one request in flight; the next is due about this
    /// long after the previous answer was decoded (a client that pauses
    /// between requests).
    Closed(Duration),
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Plan index (the request id spans carry).
    pub op: usize,
    /// Its latency class.
    pub class: Class,
    /// Due, sent and decoded.
    pub timing: Timing,
    /// Client-side request encode, seconds.
    pub enc_s: f64,
    /// Client-side response decode, seconds.
    pub dec_s: f64,
    /// From the start of the encode to the end of the decode, seconds.
    pub rtt_s: f64,
    /// What the response carried.
    pub checked: Checked,
}

/// Everything one connection's share of a phase produced.
#[derive(Debug)]
pub struct Driven {
    /// Answered requests that passed their check.
    pub done: Vec<Done>,
    /// Requests sent.
    pub attempted: u64,
    /// Failed checks and refusals, one line each.
    pub failures: Vec<String>,
    /// Spans of the traced pass.
    pub log: SpanLog,
}

impl Driven {
    fn new(log: SpanLog) -> Self {
        Driven {
            done: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            log,
        }
    }

    /// Fold another connection's share into this one.
    pub fn absorb(&mut self, other: Driven) {
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.log.absorb(other.log);
    }

    /// Latencies (from the due time, ms) of the requests in `class`.
    pub fn latencies_ms(&self, class: Class) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.class == class)
            .map(|d| d.timing.latency_ms())
            .collect()
    }
}

struct Pending {
    op: usize,
    corr: u64,
    due: Instant,
    t0: Instant,
    t1: Instant,
    sent: Instant,
}

/// Send connection `conn`'s share of `plan` and check every answer.
/// Releases wait for their reserve's lease id; reserves and remaps
/// wait until no lease is live (the plan spaces them so this rarely
/// delays a send, and any delay shows as lateness).
#[allow(clippy::too_many_arguments)]
pub fn drive_plan(
    addr: SocketAddr,
    format: WireFormat,
    u: &Universe,
    base: &[Placed],
    plan: &Plan,
    conn: usize,
    pace: Pace,
    log: SpanLog,
) -> Result<Driven, String> {
    let mine: Vec<usize> = (0..plan.ops.len())
        .filter(|&i| plan.ops[i].conn == conn)
        .collect();
    let mut c = Conn::connect(addr, format)?;
    let mut out = Driven::new(log);
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut leases: BTreeMap<usize, u64> = BTreeMap::new();
    let mut live_lease = false;
    let mut next = 0;
    loop {
        if next < mine.len() {
            let idx = mine[next];
            let op = &plan.ops[idx];
            let waits_on_inventory = match op.kind {
                Kind::Release => !leases.contains_key(&op.lease),
                Kind::Reserve | Kind::Remap => live_lease,
                _ => false,
            };
            let busy = matches!(pace, Pace::Closed(_)) && !inflight.is_empty();
            if waits_on_inventory && inflight.is_empty() {
                // Its reserve failed (already counted): nothing to release.
                out.failures.push(format!(
                    "{} {idx} skipped: its reserve failed",
                    op.kind.label()
                ));
                out.attempted += 1;
                next += 1;
                continue;
            }
            if !waits_on_inventory && !busy {
                let now = Instant::now();
                let due = match pace {
                    Pace::Open(start) => start + Duration::from_secs_f64(op.at),
                    // Uniform in [½, 1½] × `think`, seeded by the request:
                    // with a fixed pause every arrival would hit the same
                    // phase of the reactor's idle sleep.
                    Pace::Closed(think) => out.done.last().map_or(now, |d| {
                        d.timing.done + think.mul_f64(0.5 + Rng::new(idx as u64).unit())
                    }),
                };
                if now >= due {
                    let req = u.request(idx, op, leases.get(&op.lease).copied(), base);
                    let t0 = Instant::now();
                    let bytes = c.encode(&req, idx as u64);
                    let t1 = Instant::now();
                    c.write(&bytes)?;
                    let sent = Instant::now();
                    inflight.push_back(Pending {
                        op: idx,
                        corr: idx as u64,
                        due,
                        t0,
                        t1,
                        sent,
                    });
                    if op.kind == Kind::Reserve {
                        live_lease = true;
                    }
                    out.attempted += 1;
                    next += 1;
                    continue;
                }
                receive(
                    &mut c,
                    Some(due),
                    &mut inflight,
                    plan,
                    u,
                    base,
                    &mut out,
                    |op, ok| settle(op, ok, &mut leases, &mut live_lease),
                )?;
                continue;
            }
        } else if inflight.is_empty() {
            break;
        }
        receive(
            &mut c,
            None,
            &mut inflight,
            plan,
            u,
            base,
            &mut out,
            |op, ok| settle(op, ok, &mut leases, &mut live_lease),
        )?;
    }
    Ok(out)
}

/// Inventory bookkeeping after an answer: a granted reserve records
/// its lease; a release (or a refused reserve) ends the live lease.
fn settle(op: &Op, ok: Option<&Checked>, leases: &mut BTreeMap<usize, u64>, live: &mut bool) {
    match (op.kind, ok) {
        (Kind::Reserve, Some(c)) => {
            if let Some(l) = c.lease {
                leases.insert(op.lease, l);
            }
        }
        (Kind::Reserve, None) | (Kind::Release, _) => *live = false,
        _ => {}
    }
}

/// Take one answer off the wire (waiting until `until` at most), check
/// it and record it.
#[allow(clippy::too_many_arguments)]
fn receive(
    c: &mut Conn,
    until: Option<Instant>,
    inflight: &mut VecDeque<Pending>,
    plan: &Plan,
    u: &Universe,
    base: &[Placed],
    out: &mut Driven,
    mut settle: impl FnMut(&Op, Option<&Checked>),
) -> Result<(), String> {
    let Some(msg) = c.next_message(until)? else {
        return Ok(());
    };
    let d0 = Instant::now();
    let decoded = WireFormat::decode_response(&msg);
    let done = Instant::now();
    let p = inflight
        .pop_front()
        .ok_or("a response arrived with nothing in flight")?;
    let (corr, resp) = decoded.map_err(|e| format!("undecodable response: {e}"))?;
    if c.format == WireFormat::V2Binary && corr != p.corr {
        return Err(format!("response {corr} arrived for request {}", p.corr));
    }
    let op = &plan.ops[p.op];
    let req = p.op as u64;
    let root = out.log.record("request", None, req, p.due, done);
    out.log.record("client.encode", root, req, p.t0, p.t1);
    out.log.record("client.send", root, req, p.t1, p.sent);
    out.log.record("client.decode", root, req, d0, done);
    match u.check(op, &resp, base) {
        Ok(checked) => {
            settle(op, Some(&checked));
            out.done.push(Done {
                op: p.op,
                class: op.kind.class(),
                timing: Timing {
                    due: p.due,
                    sent: p.sent,
                    done,
                },
                enc_s: (p.t1 - p.t0).as_secs_f64(),
                dec_s: (done - d0).as_secs_f64(),
                rtt_s: (done - p.t0).as_secs_f64(),
                checked,
            });
        }
        Err(e) => {
            settle(op, None);
            out.failures.push(e);
        }
    }
    Ok(())
}

/// What a saturated closed loop measured.
#[derive(Debug)]
pub struct Saturated {
    /// Latency of every answered hit, ms.
    pub latency_ms: Vec<f64>,
    /// One answered hit in [`WINDOW_SAMPLE_EVERY`], in full (the
    /// traced run's codec split and spans come from these).
    pub sampled: Vec<Done>,
    /// Requests sent.
    pub attempted: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Spans of the sampled hits.
    pub log: SpanLog,
    /// From the first send to the last answer, seconds.
    pub elapsed_s: f64,
}

impl Saturated {
    /// Fold in another connection's loop that ran alongside this one.
    pub fn absorb(&mut self, other: Saturated) {
        let elapsed = self.elapsed_s.max(other.elapsed_s);
        self.then(other);
        self.elapsed_s = elapsed;
    }

    /// Fold in a loop that ran after this one.
    pub fn then(&mut self, other: Saturated) {
        self.elapsed_s += other.elapsed_s;
        self.latency_ms.extend(other.latency_ms);
        self.sampled.extend(other.sampled);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.log.absorb(other.log);
    }

    /// Hits answered per second.
    pub fn rate(&self) -> f64 {
        self.latency_ms.len() as f64 / self.elapsed_s
    }
}

/// A closed loop keeping `window` result-tier hits in flight on one
/// connection for `seconds`, each drawn from `set` (request, expected
/// placement). Latency runs from the start of each encode.
pub fn drive_window(
    addr: SocketAddr,
    format: WireFormat,
    set: &[(Request, Placed)],
    window: usize,
    seconds: f64,
    seed: u64,
    log: SpanLog,
) -> Result<Saturated, String> {
    let mut c = Conn::connect(addr, format)?;
    let mut rng = Rng::new(seed);
    let started = Instant::now();
    let mut out = Saturated {
        latency_ms: Vec::new(),
        sampled: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        log,
        elapsed_s: 0.0,
    };
    let mut inflight: VecDeque<(usize, Instant, Instant, Instant)> = VecDeque::new();
    let end = started + Duration::from_secs_f64(seconds);
    let mut n = 0u64;
    loop {
        while inflight.len() < window && Instant::now() < end {
            let pick = rng.below(set.len());
            let t0 = Instant::now();
            let bytes = c.encode(&set[pick].0, n);
            let t1 = Instant::now();
            c.write(&bytes)?;
            inflight.push_back((pick, t0, t1, Instant::now()));
            out.attempted += 1;
            n += 1;
        }
        let Some((pick, t0, t1, sent)) = inflight.pop_front() else {
            break;
        };
        let msg = c
            .next_message(None)?
            .expect("an unbounded wait yields a message");
        let d0 = Instant::now();
        let decoded = WireFormat::decode_response(&msg);
        let done = Instant::now();
        out.elapsed_s = (done - started).as_secs_f64();
        let (_, resp) = decoded.map_err(|e| format!("undecodable response: {e}"))?;
        match &resp {
            Response::Map(m)
                if m.cached == CacheTier::Result && m.mapping == set[pick].1.mapping =>
            {
                let timing = Timing {
                    due: t0,
                    sent,
                    done,
                };
                let req = out.latency_ms.len() as u64;
                out.latency_ms.push(timing.latency_ms());
                if req.is_multiple_of(WINDOW_SAMPLE_EVERY) {
                    let root = out.log.record("request", None, req, t0, done);
                    out.log.record("client.encode", root, req, t0, t1);
                    out.log.record("client.send", root, req, t1, sent);
                    out.log.record("client.decode", root, req, d0, done);
                    out.sampled.push(Done {
                        op: pick,
                        class: Class::Hit,
                        timing,
                        enc_s: (t1 - t0).as_secs_f64(),
                        dec_s: (done - d0).as_secs_f64(),
                        rtt_s: (done - t0).as_secs_f64(),
                        checked: Checked::default(),
                    });
                }
            }
            other => out.failures.push(format!(
                "hit {}: not the cached placement ({})",
                other.id(),
                response_kind(other)
            )),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_plan_is_deterministic_and_keeps_its_shares() {
        let a = Plan::mix(800, 20.0, 2, 15, 3);
        assert_eq!(a, Plan::mix(800, 20.0, 2, 15, 3));
        assert_ne!(a, Plan::mix(800, 20.0, 2, 15, 4));
        assert_eq!(a.ops.len(), 800);
        assert_eq!(a.count(Kind::Hit), 640);
        assert_eq!(a.count(Kind::Problem), 48);
        assert_eq!(a.count(Kind::Miss), 32);
        assert_eq!(a.count(Kind::Reserve), 20);
        assert_eq!(a.count(Kind::Release), 20);
        assert_eq!(a.count(Kind::Remap), 40);
    }

    #[test]
    fn inventory_operations_never_overlap_a_lease() {
        let plan = Plan::mix(2000, 20.0, 2, 15, 9);
        let mut live: Option<(usize, f64)> = None;
        for op in &plan.ops {
            match op.kind {
                Kind::Reserve => {
                    assert_eq!(op.conn, 0);
                    assert!(live.is_none(), "reserve while a lease is live");
                    live = Some((op.lease, op.at));
                }
                Kind::Release => {
                    let (lease, at) = live.take().expect("release of a live lease");
                    assert_eq!(lease, op.lease);
                    assert!(op.at > at);
                }
                Kind::Remap => {
                    assert_eq!(op.conn, 0);
                    assert!(live.is_none(), "remap while a lease is live");
                }
                _ => {}
            }
        }
        assert!(live.is_none());
    }

    #[test]
    fn drift_keeps_site_loads_and_moves_ranks() {
        let mapping: Vec<usize> = (0..64).map(|i| i / 16).collect();
        let d = drift(&mapping, 5);
        assert_eq!(site_counts(&d, 4), site_counts(&mapping, 4));
        assert_ne!(d, mapping);
        assert_eq!(d, drift(&mapping, 5));
    }
}
