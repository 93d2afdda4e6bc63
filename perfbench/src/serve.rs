//! The request workloads: an in-process daemon on loopback driven by
//! the load generator, and the in-process replays the traced run uses
//! to split a request's time by layer.

use crate::load::{
    drift, drive_plan, drive_window, remap_budget, site_counts, Class, Conn, Done, Driven, Kind,
    Pace, Placed, Plan, Saturated, Universe,
};
use crate::report::Report;
use crate::spans::{unattributed, SpanLog};
use crate::stats::{iqm, median, quartiles, tail};
use commgraph::CommPattern;
use geomap_core::{
    repair_with_tables, ConstraintVector, CostModel, CostTables, GeoMapper, Mapper, Mapping,
    MappingProblem, MemorySink, Metrics, RemapConfig,
};
use geomap_service::frame::{self, Frame};
use geomap_service::hist::Histogram;
use geomap_service::proto::{CacheTier, StatsResponse};
use geomap_service::{
    ClusterInventory, HistKind, MappingServer, MappingService, Request, Response, ServiceConfig,
    WireFormat,
};
use geonet::{Calibrator, SiteId, SiteNetwork};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// serve_mix requests per run, spread over `--seconds` (at 20 s, 50/s:
/// five solves a second, well under what two cores sustain).
/// A fixed count keeps every class's sample size, and so its tail
/// percentile, and the caches' fill the same whatever the run length.
pub const MIX_REQUESTS: usize = 1000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// serve_hits working set: solver-seed variants per tenant (15 tenants
/// × 4 = 60 cached results, well inside the default result cache).
pub const VARIANTS: u64 = 4;
/// serve_hits connections (and load threads). One: with two, two
/// client threads and the daemon's two busy reactors shared the two
/// cores, and the hit rate swung by up to a third from run to run with
/// where the scheduler placed them. One connection keeps one reactor
/// and one client thread busy, one per core.
const HIT_CONNECTIONS: usize = 1;
/// Pipelined hits in flight per connection, in serve_hits and the hit
/// bursts. With 8, the rate of one 2 s segment swung between 7 and 11
/// thousand v1 hits a second with the scheduler's wake-up timing; 32
/// keeps the reactor's batches full and the rate within a few percent.
pub const WINDOW: usize = 32;
/// Requests in one rep of the closed-loop probe the other workloads run.
pub const PROBE_OPS: usize = 1000;
/// Probe reps per run (serve_hits runs one after each hit segment, the
/// multilevel workloads one at the start, middle and end of their
/// solves).
pub const PROBE_REPS: usize = 3;
/// Length of one saturated hit burst, the source of `hit_rps` on the
/// workloads whose main load is not saturated.
const BURST_S: f64 = 1.0;
/// Mean pause between a probe answer and the next request. Longer than
/// the reactor's idle spin, so every probe request finds the reactor
/// dozing instead of racing its spin-down.
const PROBE_THINK: Duration = Duration::from_millis(1);
/// Hit-phase replay rounds over the serve_hits working set.
const SET_ROUNDS: usize = 20;
/// A loopback round trip longer than this is a stall rather than work
/// (a segment held back until the peer's delayed ACK, 40 ms on Linux,
/// lands here).
const STALLED_RTT_MS: f64 = 20.0;
/// Lead time between planning an open-loop phase and its first send,
/// so every connection is up before anything is due.
const LEAD: Duration = Duration::from_millis(100);

/// Load-generator connections (and threads): two, and never more than
/// the host has cores.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(2)
}

/// A running daemon and what its warm-up solved.
pub struct Daemon {
    server: MappingServer,
    addr: SocketAddr,
    /// Each tenant's base solve.
    pub base: Vec<Placed>,
    /// Every warm-up request with the placement it solved to.
    pub set: Vec<(Request, Placed)>,
    /// Bind plus warm-up, seconds.
    pub setup_s: f64,
}

impl Daemon {
    /// Bind a daemon with the default configuration on an ephemeral
    /// loopback port and warm it: every tenant at `variants` solver
    /// seeds, one request at a time (the first of each tenant is a
    /// miss, the rest hit its calibrated problem).
    pub fn start(u: &Universe, variants: u64) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let service = MappingService::new(u.network.clone(), ServiceConfig::default());
        let server =
            MappingServer::bind(service, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let mut c = Conn::connect(addr, WireFormat::V2Binary)?;
        let mut base = Vec::new();
        let mut set = Vec::new();
        for t in 0..u.tenants.len() {
            for v in 0..variants {
                let req = Request::Map(u.map_request(format!("warm-{t}-{v}"), t, v));
                c.write(&c.encode(&req, 0))?;
                let msg = c
                    .next_message(None)?
                    .expect("an unbounded wait yields a message");
                let (_, resp) = WireFormat::decode_response(&msg)?;
                let want = if v == 0 {
                    CacheTier::Miss
                } else {
                    CacheTier::Problem
                };
                let placed = match resp {
                    Response::Map(m) if m.cached == want => {
                        u.valid(u.tenants[t].ranks, &m.mapping)?;
                        Placed {
                            mapping: m.mapping,
                            cost: m.cost,
                        }
                    }
                    other => return Err(format!("warm-up {t}/{v}: {other:?}")),
                };
                if v == 0 {
                    base.push(placed.clone());
                }
                set.push((req, placed));
            }
        }
        Ok(Daemon {
            server,
            addr,
            base,
            set,
            setup_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// Shut down and join every daemon thread.
    pub fn stop(self) {
        self.server.join();
    }

    fn snap(&self) -> Snap {
        let s = self.server.service();
        Snap {
            stats: s.stats("perfbench", false),
            e2e: s.hists().merged(HistKind::MapE2e),
            queue: s.hists().merged(HistKind::MapQueueWait),
        }
    }
}

/// Daemon counters and histograms at one instant.
struct Snap {
    stats: StatsResponse,
    e2e: Histogram,
    queue: Histogram,
}

/// The samples `later` holds beyond `earlier` (histograms only grow).
fn hist_since(earlier: &Histogram, later: &Histogram) -> Histogram {
    let before: BTreeMap<u32, u64> = earlier.nonzero_buckets().into_iter().collect();
    let buckets: Vec<(u32, u64)> = later
        .nonzero_buckets()
        .into_iter()
        .map(|(i, c)| (i, c - before.get(&i).copied().unwrap_or(0)))
        .filter(|&(_, c)| c > 0)
        .collect();
    Histogram::from_parts(
        &buckets,
        later.sum() - earlier.sum(),
        later.min(),
        later.max(),
    )
    .expect("bucket indices come from a histogram")
}

/// Median of a histogram delta, in ms (0 when empty).
fn hist_p50_ms(h: &Histogram) -> f64 {
    h.quantile(0.5).map_or(0.0, |us| us as f64 / 1e3)
}

/// The daemon's tier counters must match the plan exactly, rejections
/// must be zero and every node must be free again.
fn verify_plan(
    plan: &Plan,
    before: &StatsResponse,
    after: &StatsResponse,
    net: &SiteNetwork,
    report: &mut Report,
) {
    let result = after.result_hits - before.result_hits;
    let problem = after.problem_hits - before.problem_hits;
    let miss = after.misses - before.misses;
    let want = (
        (plan.count(Kind::Hit) + plan.count(Kind::Reserve)) as u64,
        (plan.count(Kind::Problem) + plan.count(Kind::Remap)) as u64,
        plan.count(Kind::Miss) as u64,
    );
    report.check((result, problem, miss) == want, || {
        format!("tiers result/problem/miss {result}/{problem}/{miss}, planned {want:?}")
    });
    verify_idle(before, after, net, report);
    let total = (result + problem + miss).max(1) as f64;
    report.set("cache.result_hit_share", result as f64 / total);
    report.set("cache.problem_hit_share", problem as f64 / total);
    report.set("cache.miss_share", miss as f64 / total);
}

fn verify_idle(
    before: &StatsResponse,
    after: &StatsResponse,
    net: &SiteNetwork,
    report: &mut Report,
) {
    let rejected = after.rejected - before.rejected;
    report.check(rejected == 0, || {
        format!("the daemon rejected {rejected} requests")
    });
    report.check(after.free_nodes == net.capacities(), || {
        format!(
            "free nodes {:?} after the last release, capacity {:?}",
            after.free_nodes,
            net.capacities()
        )
    });
    report.check(after.active_leases == 0, || {
        format!("{} leases still live after the run", after.active_leases)
    });
}

/// A saturated hit phase must have been served wholly from the result
/// tier, with nothing solved, rejected or left leased.
fn verify_hits(
    hits: &Saturated,
    before: &StatsResponse,
    after: &StatsResponse,
    net: &SiteNetwork,
    report: &mut Report,
) {
    let result = after.result_hits - before.result_hits;
    let solved = (after.problem_hits + after.misses) - (before.problem_hits + before.misses);
    report.check(result == hits.attempted && solved == 0, || {
        format!(
            "{} hits sent, the daemon served {result} from the result tier and solved {solved}",
            hits.attempted
        )
    });
    verify_idle(before, after, net, report);
}

/// A saturated burst of result hits on `d`'s warm set: one v2
/// connection keeps [`WINDOW`] hits in flight for [`BURST_S`]. Returns
/// the hits answered per second, which the daemon limits (the client's
/// v2 codec costs a few µs of each request's tens). One connection, not
/// two: two client threads beside the daemon's threads on two cores made
/// the rate swing by a third with the scheduler, one by a few percent.
fn hit_burst(d: &Daemon, u: &Universe, seed: u64, report: &mut Report) -> Result<f64, String> {
    let before = d.snap();
    let log = SpanLog::new(Instant::now(), false);
    let (format, seed) = (WireFormat::V2Binary, seed ^ 0xB0_0057);
    let hits = drive_window(d.addr, format, &d.set, WINDOW, BURST_S, seed, log)?;
    let after = d.snap();
    verify_hits(&hits, &before.stats, &after.stats, &u.network, report);
    tally(hits.attempted, &hits.failures, report);
    Ok(hits.rate())
}

/// Run `drive(c)` for every load-generator connection `c`: connection
/// 0 on this thread, each other one on a scoped thread of its own, so
/// the generator uses as many threads as connections. Results fold
/// into connection 0's with `merge`.
fn per_connection<T: Send>(
    conns: usize,
    drive: impl Fn(usize) -> Result<T, String> + Sync,
    merge: impl Fn(&mut T, T),
) -> Result<T, String> {
    std::thread::scope(|s| {
        let drive = &drive;
        let others: Vec<_> = (1..conns).map(|c| s.spawn(move || drive(c))).collect();
        let first = drive(0);
        let rest: Vec<Result<T, String>> = others
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a load thread panicked".into()))
            })
            .collect();
        let mut all = first?;
        for r in rest {
            merge(&mut all, r?);
        }
        Ok(all)
    })
}

/// Fold a phase's attempts and failures into the report.
fn tally(attempted: u64, failures: &[String], report: &mut Report) {
    report.attempted += attempted;
    report.failures.extend(failures.iter().cloned());
}

/// A statistic of a latency sample: [`median`] or [`iqm`].
type Stat = fn(&[f64]) -> Option<f64>;

/// The typical latency of one request class of `phase` (`stat` of the
/// sample `v`, ms) and, with `tail_name`, its tail: the highest grid
/// percentile with ten samples beyond it. The note names which, with
/// the sample's quartiles.
fn latency(
    phase: &str,
    v: &[f64],
    (name, stat): (&str, Stat),
    tail_name: Option<&str>,
    report: &mut Report,
) {
    let (Some([q1, m, q3]), Some(typical)) = (quartiles(v), stat(v)) else {
        report.fail(format!("{phase}: {} samples for {name}", v.len()));
        return;
    };
    report.set(name, typical);
    let mut note = format!(
        "{phase} {name}: {} samples, quartiles {q1:.4} / {m:.4} / {q3:.4} ms",
        v.len()
    );
    if let Some(tname) = tail_name {
        match tail(v) {
            Some((pct, value)) => {
                report.set(tname, value);
                note += &format!(", {tname} = p{pct} = {value:.4} ms");
            }
            None => report.fail(format!(
                "{phase}: {} samples cannot give {tname} a tail",
                v.len()
            )),
        }
    }
    report.notes.push(note);
}

/// End-to-end latencies of every request class of a plan phase: the
/// median of the classes whose requests cost alike (hits, leases), the
/// interquartile mean of those that mix tenants of 16 to 64 ranks
/// (solves, remaps; see [`iqm`]).
fn plan_latencies(phase: &str, d: &Driven, report: &mut Report) {
    for (class, typical, tail_name) in [
        (
            Class::Hit,
            ("hit_p50_ms", median as Stat),
            Some("hit_tail_ms"),
        ),
        (Class::Solve, ("solve_iqm_ms", iqm), Some("solve_tail_ms")),
        (Class::Lease, ("lease_p50_ms", median), None),
        (Class::Remap, ("remap_iqm_ms", iqm), None),
    ] {
        latency(phase, &d.latencies_ms(class), typical, tail_name, report);
    }
}

/// `solve_s` and `solve_cost` of a phase's solved responses: the
/// interquartile mean of the daemon-reported calibrate + solve seconds
/// (the tenants' solve times differ a hundredfold, see [`iqm`]), and the
/// mean cost.
fn solve_outputs(d: &Driven, report: &mut Report) {
    let (times, costs): (Vec<f64>, Vec<f64>) = d
        .done
        .iter()
        .filter_map(|x| Some((x.checked.solve_s?, x.checked.solved.as_ref()?.cost)))
        .unzip();
    let Some(solve_s) = iqm(&times) else {
        report.fail(format!(
            "{} solved responses give no solve time",
            times.len()
        ));
        return;
    };
    report.set("solve_s", solve_s);
    report.set("solve_cost", costs.iter().sum::<f64>() / costs.len() as f64);
}

/// The parts of a hit's round trip the traced run attributes: client
/// codec and round trip from the live pass, server codec and
/// `MappingService::handle` from the replay. Seconds, one per request.
#[derive(Debug, Default)]
struct HitSplit {
    client_enc: Vec<f64>,
    client_dec: Vec<f64>,
    rtt: Vec<f64>,
    server_dec: Vec<f64>,
    server_enc: Vec<f64>,
    handle: Vec<f64>,
}

impl HitSplit {
    fn live(done: &[Done]) -> Self {
        let hits = || done.iter().filter(|x| x.class == Class::Hit);
        HitSplit {
            client_enc: hits().map(|x| x.enc_s).collect(),
            client_dec: hits().map(|x| x.dec_s).collect(),
            rtt: hits().map(|x| x.rtt_s).collect(),
            ..HitSplit::default()
        }
    }

    /// Codec metrics of `format`, the hit handle time, and the
    /// transport remainder: round trip minus codec minus handle.
    fn report(&self, format: WireFormat, report: &mut Report) {
        let med = |v: &Vec<f64>| median(v).unwrap_or(0.0);
        let v = format.label();
        report.set(
            &format!("codec.{v}.encode_us"),
            (med(&self.client_enc) + med(&self.server_enc)) * 1e6,
        );
        report.set(
            &format!("codec.{v}.decode_us"),
            (med(&self.server_dec) + med(&self.client_dec)) * 1e6,
        );
        report.set("service.handle_us.hit", med(&self.handle) * 1e6);
        report.set("client.rtt_ms", med(&self.rtt) * 1e3);
        let parts = [
            med(&self.client_enc),
            med(&self.client_dec),
            med(&self.server_dec),
            med(&self.server_enc),
            med(&self.handle),
        ];
        report.set(
            "transport.wait_ms",
            unattributed(med(&self.rtt), &parts) * 1e3,
        );
    }
}

/// Time `f` into a span and return its result with its seconds.
fn timed<T>(log: &mut SpanLog, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    log.record(name, None, req, t0, t1);
    (out, (t1 - t0).as_secs_f64())
}

/// The server's decode of one wire message, as its reactor runs it.
fn server_decode(format: WireFormat, bytes: &[u8]) -> Result<Request, String> {
    match format {
        WireFormat::V1Json => {
            let line = std::str::from_utf8(&bytes[..bytes.len() - 1]).map_err(|e| e.to_string())?;
            Request::from_line(line).map_err(|e| e.message)
        }
        WireFormat::V2Binary => {
            let (f, _) = Frame::decode(bytes).map_err(|e| e.to_string())?;
            frame::decode_request_payload(&f.payload).map_err(|e| e.message)
        }
    }
}

/// One request through the server side in-process: decode, handle,
/// encode, each timed (seconds, in that order).
fn serve_once(
    svc: &MappingService,
    format: WireFormat,
    bytes: &[u8],
    req_id: u64,
    log: &mut SpanLog,
) -> Result<(Response, [f64; 3]), String> {
    let (req, dec) = timed(log, "server.decode", req_id, || {
        server_decode(format, bytes)
    });
    let req = req?;
    let (resp, handle) = timed(log, "service.handle", req_id, || svc.handle(&req));
    let (_, enc) = timed(log, "server.encode", req_id, || {
        std::hint::black_box(format.encode_response(&resp, req_id))
    });
    Ok((resp, [dec, handle, enc]))
}

/// A service warmed in-process exactly as daemon `d` was; every
/// placement must match the daemon's (the solver is deterministic per
/// seed).
fn warm_replay(u: &Universe, d: &Daemon, report: &mut Report) -> MappingService {
    let svc = MappingService::new(u.network.clone(), ServiceConfig::default());
    for (req, want) in &d.set {
        let resp = svc.handle(req);
        let same =
            matches!(&resp, Response::Map(m) if m.mapping == want.mapping && m.cost == want.cost);
        report.check(same, || {
            format!("replayed warm-up {} differs from the daemon's", resp.id())
        });
    }
    svc
}

/// Replay a plan in-process and report every request-path layer:
/// server codec and `MappingService::handle` per request, the solve
/// path's layers, inventory and remap.
fn replay_plan(
    u: &Universe,
    d: &Daemon,
    plan: &Plan,
    live: &Driven,
    geo_layers: bool,
    log: &mut SpanLog,
    report: &mut Report,
) {
    replay_service(u, d, plan, live, log, report);
    // Each tenant's calibrated network, as the daemon's problem tier
    // holds it (not timed: the daemon calibrated these at warm-up).
    let calibrated: Vec<SiteNetwork> = (0..u.tenants.len())
        .map(|t| {
            let m = u.map_request(String::new(), t, 0);
            Calibrator::new(m.calibration.to_config())
                .calibrate(&u.network)
                .estimated
        })
        .collect();
    replay_solves(u, d, plan, live, &calibrated, geo_layers, log, report);
    replay_inventory(u, d, plan, live, &calibrated, log, report);
}

/// Every request of the plan through the server's decode,
/// `MappingService::handle` and encode on a service warmed like `d`:
/// the codec, handle and transport split of hits, handle time of
/// solves, and stalled round trips of the live pass.
fn replay_service(
    u: &Universe,
    d: &Daemon,
    plan: &Plan,
    live: &Driven,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let format = WireFormat::V2Binary;
    let svc = warm_replay(u, d, report);
    let mut split = HitSplit::live(&live.done);
    let mut solve_handle = Vec::new();
    let mut leases = BTreeMap::new();
    for (i, op) in plan.ops.iter().enumerate() {
        let req = u.request(i, op, leases.get(&op.lease).copied(), &d.base);
        let bytes = format.encode_request(&req, i as u64);
        let (resp, [dec, handle, enc]) = match serve_once(&svc, format, &bytes, i as u64, log) {
            Ok(x) => x,
            Err(e) => {
                report.fail(format!("replay {i}: {e}"));
                continue;
            }
        };
        match u.check(op, &resp, &d.base) {
            Ok(c) => {
                if let Some(l) = c.lease {
                    leases.insert(op.lease, l);
                }
            }
            Err(e) => report.fail(format!("replay: {e}")),
        }
        match op.kind.class() {
            Class::Hit => {
                split.server_dec.push(dec);
                split.handle.push(handle);
                split.server_enc.push(enc);
            }
            Class::Solve => solve_handle.push(handle),
            _ => {}
        }
    }
    split.report(format, report);
    let stalls = live
        .done
        .iter()
        .filter(|x| x.rtt_s * 1e3 > STALLED_RTT_MS)
        .count();
    report.set("transport.stalls", stalls as f64);
    report.set(
        "service.handle_ms.solve",
        median(&solve_handle).unwrap_or(0.0) * 1e3,
    );
}

fn problem_of(u: &Universe, t: usize, pattern: CommPattern, net: SiteNetwork) -> MappingProblem {
    MappingProblem::new(pattern, net, ConstraintVector::none(u.tenants[t].ranks))
}

/// The solve path of every solved request, one layer call at a time:
/// pattern parse, calibration (misses), problem assembly and the Geo
/// mapper, whose mapping must equal the daemon's answer. The Geo and
/// Δ-engine metrics are reported only with `geo_layers` (on the
/// multilevel workloads they belong to the coarse solve).
#[allow(clippy::too_many_arguments)]
fn replay_solves(
    u: &Universe,
    d: &Daemon,
    plan: &Plan,
    live: &Driven,
    calibrated: &[SiteNetwork],
    geo_layers: bool,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let live_solved: BTreeMap<usize, &Placed> = live
        .done
        .iter()
        .filter_map(|x| Some((x.op, x.checked.solved.as_ref()?)))
        .collect();
    let (mut parse, mut calib, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut geo: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, op) in plan.ops.iter().enumerate() {
        if op.kind.class() != Class::Solve {
            continue;
        }
        let Request::Map(m) = u.request(i, op, None, &d.base) else {
            unreachable!("solves are map requests")
        };
        let t = op.tenant;
        let req = i as u64;
        let (pattern, s) = timed(log, "commgraph.parse", req, || {
            CommPattern::from_csv(u.tenants[t].ranks, &m.pattern_csv)
        });
        parse.push(s);
        let Ok(pattern) = pattern else {
            report.fail(format!("replay {i}: pattern does not parse"));
            continue;
        };
        let net = if op.kind == Kind::Miss {
            let (rep, s) = timed(log, "geonet.calibrate", req, || {
                Calibrator::new(m.calibration.to_config()).calibrate(&u.network)
            });
            calib.push(s);
            probes.push(rep.probes as f64);
            rep.estimated
        } else {
            calibrated[t].clone()
        };
        let problem = problem_of(u, t, pattern, net);
        let sink = Arc::new(MemorySink::new());
        let (mapping, _) = timed(log, "geo.map", req, || {
            GeoMapper {
                seed: m.seed,
                kappa: m.kappa,
                metrics: Metrics::new(sink.clone()),
                ..GeoMapper::default()
            }
            .map(&problem)
        });
        if let Some(want) = live_solved.get(&i) {
            let got: Vec<usize> = mapping.as_slice().iter().map(|s| s.index()).collect();
            report.check(got == want.mapping, || {
                format!(
                    "{} {i}: the Geo mapper called directly disagrees with the daemon",
                    op.kind.label()
                )
            });
        }
        for (metric, name) in [
            ("geo.grouping_s", "phase.grouping"),
            ("geo.order_search_s", "phase.order_search"),
            ("geo.packing_s", "phase.packing"),
            ("geo.refinement_s", "phase.refinement"),
            ("geo.orders_evaluated", "search.orders_evaluated"),
            ("delta.swaps_evaluated", "search.swaps_evaluated"),
            ("delta.swaps_accepted", "search.swaps_accepted"),
        ] {
            geo.entry(metric).or_default().push(sink.sum_named(name));
        }
    }
    report.set("commgraph.parse_ms", median(&parse).unwrap_or(0.0) * 1e3);
    report.set("geonet.calibrate_ms", median(&calib).unwrap_or(0.0) * 1e3);
    report.set("geonet.calibrate_probes", median(&probes).unwrap_or(0.0));
    if geo_layers {
        let med = |k: &str| geo.get(k).and_then(|v| median(v)).unwrap_or(0.0);
        for metric in geo.keys() {
            report.set(metric, med(metric));
        }
        let (ev, acc) = (med("delta.swaps_evaluated"), med("delta.swaps_accepted"));
        report.set("delta.accept_share", if ev > 0.0 { acc / ev } else { 0.0 });
    }
}

/// Inventory reserve and release, and the remap repair, called
/// directly for every lease pair and remap of the plan.
fn replay_inventory(
    u: &Universe,
    d: &Daemon,
    plan: &Plan,
    live: &Driven,
    calibrated: &[SiteNetwork],
    log: &mut SpanLog,
    report: &mut Report,
) {
    let sites = u.network.num_sites();
    let inventory = ClusterInventory::new(u.network.capacities());
    let (mut reserve, mut release, mut repair) = (Vec::new(), Vec::new(), Vec::new());
    for (i, op) in plan.ops.iter().enumerate() {
        let t = op.tenant;
        let req = i as u64;
        match op.kind {
            Kind::Reserve => {
                let counts = site_counts(&d.base[t].mapping, sites);
                let (lease, s) = timed(log, "inventory.reserve", req, || {
                    inventory.reserve(&counts, None)
                });
                reserve.push(s);
                match lease {
                    Ok(l) => {
                        let (freed, s) =
                            timed(log, "inventory.release", req, || inventory.release(l));
                        release.push(s);
                        report.check(freed.as_ref() == Ok(&counts), || {
                            format!("replay {i}: release returned {freed:?}")
                        });
                    }
                    Err(e) => report.fail(format!("replay {i}: reserve refused: {e:?}")),
                }
            }
            Kind::Remap => {
                let tenant = &u.tenants[t];
                let Ok(pattern) = CommPattern::from_csv(tenant.ranks, &tenant.pattern_csv) else {
                    report.fail(format!("replay {i}: pattern does not parse"));
                    continue;
                };
                let problem = problem_of(u, t, pattern, calibrated[t].clone());
                let start = drift(&d.base[t].mapping, op.salt);
                let start = Mapping::new(start.into_iter().map(SiteId).collect());
                // The daemon offers the free pool plus the caller's own
                // footprint; nothing else is leased during a remap.
                let caps: Vec<usize> = u
                    .network
                    .capacities()
                    .iter()
                    .zip(start.site_counts(sites))
                    .map(|(c, own)| c + own)
                    .collect();
                let config = RemapConfig {
                    budget: Some(remap_budget(tenant.ranks) as usize),
                    ..RemapConfig::default()
                };
                let (_, s) = timed(log, "core.remap", req, || {
                    let tables = CostTables::build(&problem, CostModel::Full);
                    repair_with_tables(&tables, problem.constraints(), &caps, &start, &config)
                });
                repair.push(s);
            }
            _ => {}
        }
    }
    report.set(
        "inventory.reserve_us",
        median(&reserve).unwrap_or(0.0) * 1e6,
    );
    report.set(
        "inventory.release_us",
        median(&release).unwrap_or(0.0) * 1e6,
    );
    report.set("remap.repair_ms", median(&repair).unwrap_or(0.0) * 1e3);
    let moved: Vec<f64> = live
        .done
        .iter()
        .filter_map(|x| x.checked.moved.map(|m| m as f64))
        .collect();
    report.set("remap.moved", median(&moved).unwrap_or(0.0));
}

/// Lateness of the generator against its schedule.
fn lateness(d: &Driven, report: &mut Report) {
    let late: Vec<f64> = d.done.iter().map(|x| x.timing.late_ms()).collect();
    report.set("loadgen.late_ms", median(&late).unwrap_or(0.0));
    report.set("loadgen.late_tail_ms", tail(&late).map_or(0.0, |t| t.1));
}

fn server_hists(before: &Snap, after: &Snap, report: &mut Report) {
    report.set(
        "server.map_e2e_ms",
        hist_p50_ms(&hist_since(&before.e2e, &after.e2e)),
    );
    report.set(
        "server.queue_wait_ms",
        hist_p50_ms(&hist_since(&before.queue, &after.queue)),
    );
}

/// Cache capacity the plan must stay inside, so no entry is ever
/// evicted and every request's tier is fixed by the plan alone.
fn fits_caches(u: &Universe, plan: &Plan, warmed: usize) -> Result<(), String> {
    let cfg = ServiceConfig::default();
    let problems = u.tenants.len() + plan.count(Kind::Miss);
    let results = warmed + plan.count(Kind::Problem) + plan.count(Kind::Miss);
    if problems > cfg.problem_cache_capacity || results > cfg.result_cache_capacity {
        return Err(format!(
            "{problems} problems / {results} results overflow the daemon's caches \
             ({} / {}): shorten --seconds",
            cfg.problem_cache_capacity, cfg.result_cache_capacity
        ));
    }
    Ok(())
}

/// The closed-loop probe: the serve_mix mix at [`PROBE_OPS`] requests,
/// one connection, one request in flight, so every request class is
/// measured on workloads whose main load does not send it.
fn probe_plan(u: &Universe, seed: u64) -> Plan {
    Plan::mix(PROBE_OPS, 1.0, 1, u.tenants.len(), seed ^ 0x960B_E000)
}

/// End-to-end metrics a probe rep measures.
pub const PROBE_E2E: [&str; 7] = [
    "hit_p50_ms",
    "hit_tail_ms",
    "solve_iqm_ms",
    "solve_tail_ms",
    "lease_p50_ms",
    "remap_iqm_ms",
    "hit_rps",
];

/// One probe rep on a daemon of its own. Returns the rep's end-to-end
/// values (class latencies, solve outputs, and with `burst` the hit rate
/// of a [`hit_burst`] after the plan); checks and attempts go to
/// `report`, and so do the request-path layers when `traced` (the Geo
/// and Δ-engine ones only with `geo_layers`).
pub fn probe_rep(
    u: &Universe,
    seed: u64,
    traced: bool,
    geo_layers: bool,
    burst: bool,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<BTreeMap<String, f64>, String> {
    let d = Daemon::start(u, 1)?;
    let plan = probe_plan(u, seed);
    fits_caches(u, &plan, d.set.len())?;
    let before = d.snap();
    let spans = SpanLog::new(log.epoch(), traced);
    let pace = Pace::Closed(PROBE_THINK);
    let driven = drive_plan(
        d.addr,
        WireFormat::V2Binary,
        u,
        &d.base,
        &plan,
        0,
        pace,
        spans,
    )?;
    let after = d.snap();
    verify_plan(&plan, &before.stats, &after.stats, &u.network, report);
    tally(driven.attempted, &driven.failures, report);
    let mut rep = Report::default();
    plan_latencies("probe", &driven, &mut rep);
    solve_outputs(&driven, &mut rep);
    if burst {
        rep.set("hit_rps", hit_burst(&d, u, seed, report)?);
    }
    report.failures.extend(rep.failures);
    if report.notes.iter().all(|n| !n.starts_with("probe ")) {
        report.notes.extend(rep.notes);
    }
    if traced {
        // The traced run prints the tails as per-layer metrics; a
        // workload whose main load measured one keeps its own.
        for name in ["hit_tail_ms", "solve_tail_ms"] {
            if let (false, Some(&v)) = (report.values.contains_key(name), rep.values.get(name)) {
                report.set(name, v);
            }
        }
        replay_plan(u, &d, &plan, &driven, geo_layers, log, report);
        server_hists(&before, &after, report);
    }
    log.absorb(driven.log);
    d.stop();
    Ok(rep.values)
}

/// Set each of `names` to its median over the reps. The reps run at
/// different times of the run, so one rep that a busy spell on the host
/// slowed, or one that the scheduler's thread placement made unusually
/// fast, moves none of these.
pub fn set_median_of_reps(reps: &[BTreeMap<String, f64>], names: &[&str], report: &mut Report) {
    for name in names {
        let all: Vec<f64> = reps.iter().filter_map(|r| r.get(*name).copied()).collect();
        match median(&all) {
            Some(m) => {
                report.set(name, m);
                report
                    .notes
                    .push(format!("{name}: median of {} reps {all:.4?}", all.len()));
            }
            None => report.fail(format!("no rep measured {name}")),
        }
    }
}

/// The multilevel workloads' request metrics: the workload calls
/// [`MlProbe::rep`] [`PROBE_REPS`] times spread over its solves, each a
/// probe rep plus a hit burst, and [`MlProbe::finish`] sets the median
/// over the reps. A traced run makes only the first rep, traced, for the
/// request-path layers. The probe's set-ups are not the workload's.
pub struct MlProbe {
    u: Universe,
    seed: u64,
    traced: bool,
    reps: Vec<BTreeMap<String, f64>>,
}

impl MlProbe {
    pub fn new(seed: u64, traced: bool, report: &mut Report) -> Self {
        set_loadgen(1, 1, report);
        MlProbe {
            u: Universe::new(seed),
            seed,
            traced,
            reps: Vec::new(),
        }
    }

    /// One rep (a no-op after the first in a traced run).
    pub fn rep(&mut self, log: &mut SpanLog, report: &mut Report) -> Result<(), String> {
        if self.traced && !self.reps.is_empty() {
            return Ok(());
        }
        let (traced, burst) = (self.traced, !self.traced);
        let rep = probe_rep(&self.u, self.seed, traced, false, burst, log, report)?;
        self.reps.push(rep);
        Ok(())
    }

    pub fn finish(self, report: &mut Report) {
        if self.traced {
            return;
        }
        report.notes.push(format!(
            "probe: {PROBE_OPS} closed-loop v2 requests per rep, then a {BURST_S} s hit burst, \
             each rep on a daemon of its own"
        ));
        if self.reps.len() != PROBE_REPS {
            report.fail(format!(
                "{} probe reps, expected {PROBE_REPS}",
                self.reps.len()
            ));
        }
        set_median_of_reps(&self.reps, &PROBE_E2E, report);
    }
}

fn set_loadgen(threads: usize, conns: usize, report: &mut Report) {
    report.set("loadgen.threads", threads as f64);
    report.set("loadgen.connections", conns as f64);
}

/// serve_mix: the open-loop mix against a daemon on loopback.
pub fn serve_mix(
    seed: u64,
    seconds: f64,
    traced: bool,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let u = Universe::new(seed);
    let conns = connections();
    let n = MIX_REQUESTS;
    let plan = Plan::mix(n, seconds, conns, u.tenants.len(), seed);
    fits_caches(&u, &plan, u.tenants.len())?;
    report.notes.push(format!(
        "config: open loop {n} requests over {seconds} s ({:.1}/s), {conns} v2 connections, \
         {} tenants on {} sites x {} nodes",
        n as f64 / seconds,
        u.tenants.len(),
        u.network.num_sites(),
        crate::load::NODES_PER_REGION
    ));
    set_loadgen(conns, conns, report);
    let passes: &[bool] = if traced { &[false, true] } else { &[false] };
    let mut setups = Vec::new();
    let mut bursts = Vec::new();
    let mut untraced_hit = None;
    for i in 0..SETUPS {
        let d = Daemon::start(&u, 1)?;
        setups.push(d.setup_s);
        if let Some(&traced_pass) = passes.get(i) {
            let before = d.snap();
            let start = Instant::now() + LEAD;
            let epoch = log.epoch();
            let drive = |c| {
                let log = SpanLog::new(epoch, traced_pass);
                let pace = Pace::Open(start);
                drive_plan(
                    d.addr,
                    WireFormat::V2Binary,
                    &u,
                    &d.base,
                    &plan,
                    c,
                    pace,
                    log,
                )
            };
            let driven = per_connection(conns, drive, Driven::absorb)?;
            let after = d.snap();
            verify_plan(&plan, &before.stats, &after.stats, &u.network, report);
            let hit_p50 = median(&driven.latencies_ms(Class::Hit));
            if traced_pass {
                replay_plan(&u, &d, &plan, &driven, true, log, report);
                server_hists(&before, &after, report);
                lateness(&driven, report);
                if let (Some(t), Some(u0)) = (hit_p50, untraced_hit) {
                    report.set("trace.overhead", t / u0);
                }
                tally(driven.attempted, &driven.failures, report);
                log.absorb(driven.log);
            } else {
                tally(driven.attempted, &driven.failures, report);
                plan_latencies("open loop", &driven, report);
                solve_outputs(&driven, report);
                untraced_hit = hit_p50;
            }
        }
        // The open loop's hit rate is the rate the plan offers; the
        // daemon's own hit throughput comes from a burst on each daemon.
        if !traced {
            let mut rep = BTreeMap::new();
            rep.insert("hit_rps".to_string(), hit_burst(&d, &u, seed, report)?);
            bursts.push(rep);
        }
        d.stop();
    }
    if !traced {
        report.notes.push(format!(
            "hit bursts: 1 v2 connection x {WINDOW} in flight for {BURST_S} s over the warm set, \
             one on each daemon"
        ));
        set_median_of_reps(&bursts, &["hit_rps"], report);
    }
    report.set("setup_s", median(&setups).expect("set-ups ran"));
    Ok(())
}

/// serve_hits: pipelined v1 result hits over the warm working set, in
/// [`PROBE_REPS`] segments, each on a fresh connection, with a probe rep after
/// each (the probe measures the other request classes).
pub fn serve_hits(
    seed: u64,
    seconds: f64,
    traced: bool,
    log: &mut SpanLog,
    report: &mut Report,
) -> Result<(), String> {
    let u = Universe::new(seed);
    let conns = HIT_CONNECTIONS;
    report.notes.push(format!(
        "config: closed loop {conns} v1 connection x {WINDOW} in flight for {seconds} s in \
         {PROBE_REPS} segments over {} cached results",
        u.tenants.len() * VARIANTS as usize
    ));
    set_loadgen(conns, conns, report);
    let passes: &[bool] = if traced { &[false, true] } else { &[false] };
    let mut setups = Vec::new();
    let mut untraced_rps = None;
    for i in 0..SETUPS {
        let d = Daemon::start(&u, VARIANTS)?;
        setups.push(d.setup_s);
        if let Some(&traced_pass) = passes.get(i) {
            let before = d.snap();
            let mut hits: Option<Saturated> = None;
            let mut reps = Vec::new();
            let mut segments = Vec::new();
            for k in 0..PROBE_REPS {
                let drive = |c: usize| {
                    let log = SpanLog::new(log.epoch(), traced_pass);
                    let (format, seed) = (WireFormat::V1Json, seed ^ (k * conns + c) as u64);
                    let segment = seconds / PROBE_REPS as f64;
                    drive_window(d.addr, format, &d.set, WINDOW, segment, seed, log)
                };
                let segment = per_connection(conns, drive, Saturated::absorb)?;
                let mut rep = Report::default();
                rep.set("hit_rps", segment.rate());
                if let Some(p50) = median(&segment.latency_ms) {
                    rep.set("hit_p50_ms", p50);
                }
                segments.push(rep.values);
                match &mut hits {
                    Some(h) => h.then(segment),
                    None => hits = Some(segment),
                }
                // A traced run needs only the traced rep below.
                if !traced {
                    reps.push(probe_rep(&u, seed, false, false, false, log, report)?);
                }
            }
            let hits = hits.expect("at least one segment");
            let after = d.snap();
            verify_hits(&hits, &before.stats, &after.stats, &u.network, report);
            tally(hits.attempted, &hits.failures, report);
            let rps = hits.rate();
            if traced_pass {
                if let Some(u0) = untraced_rps {
                    report.set("trace.overhead", u0 / rps);
                }
                probe_rep(&u, seed, true, true, false, log, report)?;
                // The v1 hit phase owns the hit-path split on this workload.
                let mut split = HitSplit::live(&hits.sampled);
                let svc = warm_replay(&u, &d, report);
                let set = d.set.iter().cycle().take(d.set.len() * SET_ROUNDS);
                for (k, (req, _)) in set.enumerate() {
                    let mut bytes = WireFormat::V1Json.encode_request(req, 0);
                    bytes.push(b'\n');
                    match serve_once(&svc, WireFormat::V1Json, &bytes, k as u64, log) {
                        Ok((_, [dec, handle, enc])) => {
                            split.server_dec.push(dec);
                            split.handle.push(handle);
                            split.server_enc.push(enc);
                        }
                        Err(e) => report.fail(format!("hit replay: {e}")),
                    }
                }
                split.report(WireFormat::V1Json, report);
                server_hists(&before, &after, report);
                log.absorb(hits.log);
            } else {
                if !traced {
                    let mut names = PROBE_E2E.to_vec();
                    names.retain(|n| !n.starts_with("hit_"));
                    names.extend(["solve_s", "solve_cost"]);
                    report.notes.push(format!("probe: {PROBE_OPS} closed-loop v2 requests per rep, each rep on a daemon of its own"));
                    set_median_of_reps(&reps, &names, report);
                }
                // The tail pools every segment; the p50 and the rate are
                // the median segment's, like the probe's reps.
                latency(
                    "pipelined v1",
                    &hits.latency_ms,
                    ("hit_p50_ms", median),
                    Some("hit_tail_ms"),
                    report,
                );
                set_median_of_reps(&segments, &["hit_p50_ms", "hit_rps"], report);
                untraced_rps = Some(rps);
            }
        }
        d.stop();
    }
    report.set("setup_s", median(&setups).expect("set-ups ran"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_reps_ignores_one_outlier_either_way() {
        let rep = |p50: f64, rps: f64| {
            BTreeMap::from([
                ("hit_p50_ms".to_string(), p50),
                ("hit_rps".to_string(), rps),
            ])
        };
        let reps = [rep(9.0, 900.0), rep(0.4, 1200.0), rep(0.6, 15000.0)];
        let mut report = Report::default();
        set_median_of_reps(&reps, &["hit_p50_ms", "hit_rps"], &mut report);
        assert_eq!(report.values["hit_p50_ms"], 0.6);
        assert_eq!(report.values["hit_rps"], 1200.0);
        assert!(report.failures.is_empty());

        set_median_of_reps(&reps, &["remap_iqm_ms"], &mut report);
        assert_eq!(
            report.failures.len(),
            1,
            "a metric no rep measured fails the run"
        );
    }
}
