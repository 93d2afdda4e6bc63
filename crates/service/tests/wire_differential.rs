//! The v1/v2 differential program: proof that the binary protocol is a
//! re-encoding of the JSON protocol, not a reinterpretation.
//!
//! Three layers of evidence, each pinning a different failure mode:
//!
//! 1. **Encode-level**: a corpus of constructed requests and responses
//!    covering every kind and field combination must decode to the
//!    *same struct* through both codecs (`from_line ∘ to_line` vs.
//!    frame payload decode ∘ encode), floats compared by bits.
//! 2. **Live**: one daemon, one v1 connection, one v2 connection; every
//!    deterministic request kind — result-cache-hit maps, degraded
//!    maps, every validation error path, `over_capacity` rejections,
//!    stats, idempotent replays — must produce bit-identical decoded
//!    responses over both protocols. Replays are the strongest case:
//!    the remembered response is replayed verbatim, so even the timing
//!    fields must agree to the bit.
//! 3. **Pipelined**: a [`PooledClient`] batch over v2 must equal the
//!    same corpus sent one-by-one over v1 — correlation-id reordering
//!    and per-connection batching must be invisible in the answers.
//!
//! Because both clients talk to one daemon, every v1 exchange doubles
//! as the pinned v1-client-vs-v2-server compatibility check.

use commgraph::apps::AppKind;
use geomap_service::frame;
use geomap_service::proto::{
    CacheTier, CalibSpec, ErrorCode, ErrorResponse, MapRequest, MapResponse, RemapRequest, Request,
    Response, StatsResponse,
};
use geomap_service::wire::WireFormat;
use geomap_service::{MappingServer, MappingService, PooledClient, ServiceClient, ServiceConfig};
use geonet::{presets, InstanceType, SiteNetwork};
use std::time::Duration;

fn network() -> SiteNetwork {
    presets::paper_ec2_network(4, InstanceType::M4Xlarge, 42)
}

fn pattern_csv(ranks: usize) -> String {
    AppKind::parse("sp")
        .expect("sp is a known app")
        .workload(ranks)
        .pattern()
        .to_csv()
}

/// A calibration spec so lossy that every site pair starves (the
/// degraded-fallback scenario from the behavior suite).
fn starving_calibration() -> CalibSpec {
    CalibSpec {
        days: 1,
        probes_per_day: 1,
        loss_rate: 0.999_999,
        seed: 11,
        ..CalibSpec::default()
    }
}

/// The largest integer the v1 protocol can carry faithfully: JSON
/// numbers ride as `f64`, so v1's exact-integer domain ends at 2^53.
/// The daemon never emits counters anywhere near this (leases and
/// stats are small monotonic counts), so inside this domain v2 must
/// match v1 bit-for-bit; beyond it only v2 is faithful (the frame
/// property sweep covers the full u64 range for v2 alone).
const V1_MAX_EXACT: u64 = (1 << 53) - 1;

/// Equality down to float bits: `PartialEq` would already fail on any
/// value drift, but bitwise comparison of the float fields additionally
/// rejects anything that merely *compares* equal (-0.0 vs 0.0).
fn assert_bit_identical(v1: &Response, v2: &Response, what: &str) {
    assert_eq!(v1, v2, "{what}: decoded responses differ");
    if let (Response::Map(a), Response::Map(b)) = (v1, v2) {
        assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}: cost bits");
        assert_eq!(
            a.queue_wait_s.to_bits(),
            b.queue_wait_s.to_bits(),
            "{what}: queue_wait_s bits"
        );
        assert_eq!(
            a.solve_s.to_bits(),
            b.solve_s.to_bits(),
            "{what}: solve_s bits"
        );
    }
}

/// Decode one message through the v1 path and through the sniffing v2
/// path and insist they agree with each other and with the original.
fn assert_encodings_agree(response: &Response, what: &str) {
    let v1 = Response::from_line(&response.to_line())
        .unwrap_or_else(|e| panic!("{what}: v1 decode failed: {e}"));
    let (corr, v2) = WireFormat::decode_response(&frame::encode_response(response, 9))
        .unwrap_or_else(|e| panic!("{what}: v2 decode failed: {e}"));
    assert_eq!(corr, 9, "{what}: correlation id lost");
    assert_bit_identical(&v1, response, &format!("{what} (v1 vs original)"));
    assert_bit_identical(&v2, response, &format!("{what} (v2 vs original)"));
}

// ------------------------------------------------------- encode level

#[test]
fn every_request_kind_decodes_identically_over_both_encodings() {
    let mut full = MapRequest::new("id-é\u{1F30D}", pattern_csv(8));
    full.ranks = Some(8);
    full.constraints_csv = Some("process,site\n0,1\n".into());
    full.algorithm = "montecarlo".into();
    full.seed = V1_MAX_EXACT;
    full.kappa = 17;
    full.samples = 4096;
    full.calibration = CalibSpec {
        days: 3,
        probes_per_day: 7,
        noise_cv: 0.25,
        loss_rate: 0.125,
        seed: 0xC0FFEE,
    };
    full.deadline_ms = Some(V1_MAX_EXACT);
    full.reserve = true;
    full.lease_ttl_ms = Some(0);
    full.use_result_cache = false;
    full.idempotency_key = Some("key-\"quoted\"-\\slash".into());

    let corpus = [
        Request::Map(MapRequest::new("bare", "src,dst,bytes,msgs\n0,1,1,1\n")),
        Request::Map(full),
        Request::Release {
            id: "rel".into(),
            lease: V1_MAX_EXACT,
        },
        Request::Stats {
            id: String::new(),
            detail: false,
        },
        Request::Shutdown { id: "bye\n".into() },
    ];
    for request in &corpus {
        let v1 = Request::from_line(&request.to_line()).expect("v1 request decode");
        let wire = frame::encode_request(request, 3);
        let (f, used) = frame::Frame::decode(&wire).expect("frame decode");
        assert_eq!(used, wire.len());
        assert_eq!(f.corr_id, 3);
        let v2 = frame::decode_request_payload(&f.payload).expect("v2 request decode");
        assert_eq!(&v1, request, "v1 changed the request");
        assert_eq!(v2, v1, "v2 decoded differently from v1");
    }
}

#[test]
fn every_response_kind_decodes_identically_over_both_encodings() {
    let corpus = [
        Response::Map(MapResponse {
            id: "m".into(),
            mapping: vec![0, 3, 1, 2],
            cost: -0.0, // sign bit must survive both codecs
            cached: CacheTier::Result,
            queue_wait_s: 0.000123456789,
            solve_s: f64::MIN_POSITIVE,
            lease: Some(V1_MAX_EXACT),
            site_counts: vec![1, 1, 1, 1],
            free_nodes: vec![0, 4, 4, 4],
            degraded: true,
            staleness: V1_MAX_EXACT,
        }),
        Response::Map(MapResponse {
            id: String::new(),
            mapping: Vec::new(),
            cost: 1.0e308,
            cached: CacheTier::Miss,
            queue_wait_s: 0.0,
            solve_s: 0.0,
            lease: None,
            site_counts: Vec::new(),
            free_nodes: Vec::new(),
            degraded: false,
            staleness: 0,
        }),
        Response::Release {
            id: "r-é".into(),
            freed: vec![4, 0, 0, 0],
            free_nodes: vec![4, 4, 4, 4],
        },
        Response::Stats(StatsResponse {
            id: "s".into(),
            served: V1_MAX_EXACT,
            result_hits: 1,
            problem_hits: 2,
            misses: 3,
            rejected: 4,
            replays: 5,
            free_nodes: vec![16],
            active_leases: 6,
            detail: None,
        }),
        Response::Shutdown {
            id: "q".into(),
            draining: 77,
        },
        Response::Error(ErrorResponse {
            id: "e\"\\".into(),
            code: ErrorCode::DeadlineExceeded,
            message: "spent 12 ms in queue, deadline was 1 ms".into(),
        }),
    ];
    for (i, response) in corpus.iter().enumerate() {
        assert_encodings_agree(response, &format!("corpus[{i}]"));
    }
    // Every error code crosses both wires unchanged.
    for code in [
        ErrorCode::BadRequest,
        ErrorCode::UnsupportedVersion,
        ErrorCode::OverCapacity,
        ErrorCode::DeadlineExceeded,
        ErrorCode::InsufficientNodes,
        ErrorCode::UnknownLease,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
        ErrorCode::Retryable,
        ErrorCode::Degraded,
    ] {
        assert_encodings_agree(
            &Response::Error(ErrorResponse {
                id: "c".into(),
                code,
                message: format!("code {}", code.label()),
            }),
            &format!("error code {}", code.label()),
        );
    }
}

// -------------------------------------------------------------- live

#[test]
fn live_daemon_answers_both_protocols_bit_identically() {
    let server = MappingServer::bind(
        MappingService::new(network(), ServiceConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let timeout = Some(Duration::from_secs(30));

    let mut v1 = ServiceClient::connect(&addr, timeout).expect("v1 connect");
    let mut v2 =
        ServiceClient::connect_with(&addr, timeout, WireFormat::V2Binary).expect("v2 connect");

    // Burn each connection's first-request queue-wait charge on a
    // request whose response carries no timing fields, so every later
    // map response reports exactly 0.0 over both connections.
    v1.stats("warm-conn").expect("v1 stats");
    v2.stats("warm-conn").expect("v2 stats");

    // Warm the caches: the comparison corpus is then answered from the
    // result tier, where solve_s is exactly 0.0 — full bit-identity.
    let base = MapRequest::new("warm", pattern_csv(16));
    match v1.map(base.clone()).expect("warm map") {
        Response::Map(m) => assert_eq!(m.cached, CacheTier::Miss),
        other => panic!("warm-up failed: {other:?}"),
    }
    let lossy = MapRequest {
        calibration: starving_calibration(),
        ..MapRequest::new("warm-lossy", pattern_csv(16))
    };
    match v1.map(lossy.clone()).expect("warm lossy map") {
        Response::Map(m) => assert!(m.degraded, "starved campaign must degrade"),
        other => panic!("lossy warm-up failed: {other:?}"),
    }

    // The differential corpus: every deterministic request kind,
    // including every validation error path the daemon can take.
    let corpus: Vec<(&str, Request)> = vec![
        (
            "result-hit map",
            Request::Map(MapRequest {
                id: "hit".into(),
                ..base.clone()
            }),
        ),
        (
            "degraded result-hit map",
            Request::Map(MapRequest {
                id: "hit-degraded".into(),
                ..lossy.clone()
            }),
        ),
        (
            "zero ranks",
            Request::Map(MapRequest {
                ranks: Some(0),
                ..MapRequest::new("zero", pattern_csv(4))
            }),
        ),
        (
            "too many ranks",
            Request::Map(MapRequest {
                ranks: Some(64),
                ..MapRequest::new("big", pattern_csv(64))
            }),
        ),
        (
            "bad pattern csv",
            Request::Map(MapRequest::new("badpat", "this,is,not\nvalid")),
        ),
        (
            "bad constraints csv",
            Request::Map(MapRequest {
                constraints_csv: Some("wrong,header\n".into()),
                ..MapRequest::new("badcon", pattern_csv(4))
            }),
        ),
        (
            "infeasible constraints",
            Request::Map(MapRequest {
                constraints_csv: Some("process,site\n0,0\n1,0\n2,0\n3,0\n4,0\n".to_string()),
                ranks: Some(8),
                ..MapRequest::new("overflow", pattern_csv(8))
            }),
        ),
        (
            "unknown algorithm",
            Request::Map(MapRequest {
                algorithm: "quantum".into(),
                ..MapRequest::new("alg", pattern_csv(4))
            }),
        ),
        (
            "unknown lease",
            Request::Release {
                id: "ghost".into(),
                lease: 999_999,
            },
        ),
        (
            "stats",
            Request::Stats {
                id: "peek".into(),
                detail: true,
            },
        ),
    ];
    // The stats handler records its own latency into `stats_e2e`, so
    // the second of two consecutive detailed peeks always carries one
    // extra sample in exactly that kind. Scrub it and compare every
    // other field bit-for-bit.
    let scrub_self_observation = |r: &mut Response| {
        if let Response::Stats(s) = r {
            if let Some(d) = &mut s.detail {
                d.hists.retain(|h| h.name != "stats_e2e");
            }
        }
    };
    for (what, request) in &corpus {
        let mut a = v1
            .send(request)
            .unwrap_or_else(|e| panic!("{what} over v1: {e}"));
        let mut b = v2
            .send(request)
            .unwrap_or_else(|e| panic!("{what} over v2: {e}"));
        scrub_self_observation(&mut a);
        scrub_self_observation(&mut b);
        assert_bit_identical(&a, &b, what);
    }

    // Idempotent replay, v1 original → v2 replay: the daemon replays
    // the remembered response *verbatim*, so every field — lease and
    // timings included — must cross the other protocol bit-identically.
    let keyed = |id: &str, key: &str| MapRequest {
        reserve: true,
        ranks: Some(4),
        idempotency_key: Some(key.into()),
        ..MapRequest::new(id, pattern_csv(4))
    };
    let original = v1
        .map(keyed("first", "key-v1-first"))
        .expect("keyed map over v1");
    let replayed = v2
        .map(keyed("first", "key-v1-first"))
        .expect("replay over v2");
    assert_bit_identical(&original, &replayed, "idempotent replay v1→v2");

    // And the mirror: v2 original → v1 replay.
    let original = v2
        .map(keyed("second", "key-v2-first"))
        .expect("keyed map over v2");
    let replayed = v1
        .map(keyed("second", "key-v2-first"))
        .expect("replay over v1");
    assert_bit_identical(&original, &replayed, "idempotent replay v2→v1");

    // Cleanup both leases; a second release of each is the shared
    // unknown-lease error, which must also agree across protocols.
    for response in [&original] {
        if let Response::Map(m) = response {
            let lease = m.lease.expect("reserving map grants a lease");
            v1.release("cleanup", lease).expect("release");
            let a = v1.release("again", lease).expect("double release over v1");
            let b = v2.release("again", lease).expect("double release over v2");
            assert_bit_identical(&a, &b, "double release");
        }
    }

    match v2.shutdown("bye").expect("shutdown over v2") {
        Response::Shutdown { .. } => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.join();
}

/// The accept thread's `over_capacity` rejection is written before the
/// server has seen a single client byte, so it is always a v1 line —
/// and the v2 client's sniffing decode must read it identically.
#[test]
fn over_capacity_rejection_reads_identically_for_both_clients() {
    use std::io::Read;

    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    };
    let server = MappingServer::bind(MappingService::new(network(), config), "127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // Fill the reactor (one adopted connection) and the queue (one
    // waiting connection).
    let _parked = std::net::TcpStream::connect(&addr).expect("parked connect");
    std::thread::sleep(Duration::from_millis(100));
    let _queued = std::net::TcpStream::connect(&addr).expect("queued connect");
    std::thread::sleep(Duration::from_millis(100));

    // Two more connections are bounced with the same one-line error;
    // one is decoded the v1 way, one through the sniffing v2 path.
    let read_rejection = || -> Vec<u8> {
        let mut s = std::net::TcpStream::connect(&addr).expect("bounced connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut bytes = Vec::new();
        s.read_to_end(&mut bytes).expect("read rejection");
        while bytes.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            bytes.pop();
        }
        bytes
    };
    let as_v1 = Response::from_line(&String::from_utf8(read_rejection()).expect("utf8 line"))
        .expect("v1 decode of rejection");
    let (corr, as_v2) =
        WireFormat::decode_response(&read_rejection()).expect("sniffing decode of rejection");
    assert_eq!(corr, 0, "a v1 line carries no correlation id");
    assert_bit_identical(&as_v1, &as_v2, "over_capacity rejection");
    match &as_v1 {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::OverCapacity),
        other => panic!("expected over_capacity, got {other:?}"),
    }
    server.join();
}

// --------------------------------------------------------- pipelined

#[test]
fn pooled_pipelined_batch_matches_sequential_v1() {
    let server = MappingServer::bind(
        MappingService::new(network(), ServiceConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let timeout = Some(Duration::from_secs(30));

    // Warm the result cache so the batch is deterministic (and so the
    // pipelined run cannot win by racing the sequential one to a solve).
    let base = MapRequest::new("warm", pattern_csv(16));
    let mut v1 = ServiceClient::connect(&addr, timeout).expect("v1 connect");
    v1.stats("warm-conn").expect("stats");
    v1.map(base.clone()).expect("warm map");

    const POOL: usize = 4;
    // The first request landing on each pooled connection absorbs its
    // queue-wait charge; releases carry no timing fields, so the maps
    // that follow report 0.0 on every connection — same as sequential.
    let mut batch: Vec<Request> = (0..POOL)
        .map(|i| Request::Release {
            id: format!("absorb-{i}"),
            lease: 10_000 + i as u64,
        })
        .collect();
    for i in 0..24 {
        batch.push(match i % 3 {
            0 => Request::Map(MapRequest {
                id: format!("hit-{i}"),
                ..base.clone()
            }),
            1 => Request::Release {
                id: format!("ghost-{i}"),
                lease: 777_000 + i as u64,
            },
            _ => Request::Map(MapRequest {
                ranks: Some(0),
                ..MapRequest::new(format!("bad-{i}"), pattern_csv(4))
            }),
        });
    }

    // Sequential ground truth over v1 (fresh connection; its first
    // request is the first absorb-release, mirroring the pool).
    let mut sequential = Vec::with_capacity(batch.len());
    let mut v1_seq = ServiceClient::connect(&addr, timeout).expect("v1 sequential connect");
    for request in &batch {
        sequential.push(v1_seq.send(request).expect("sequential send"));
    }

    // The same batch, pipelined over the pool.
    let mut pooled = PooledClient::new(&addr, POOL, timeout);
    let pipelined = pooled.pipeline(&batch).expect("pipelined batch");

    assert_eq!(pipelined.len(), sequential.len());
    for (i, (p, s)) in pipelined.iter().zip(&sequential).enumerate() {
        assert_bit_identical(s, p, &format!("batch[{i}]"));
    }

    let mut v2 =
        ServiceClient::connect_with(&addr, timeout, WireFormat::V2Binary).expect("v2 connect");
    match v2.shutdown("bye").expect("shutdown") {
        Response::Shutdown { .. } => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.join();
}

/// Calibration specs the calibrator cannot run (it asserts on each)
/// are `bad_request`s from both decoders, for map and remap alike,
/// echoing the request id. Before the shared check existed, `days = 0`
/// or `probes = 0` on either kind, and bad `loss` on a remap, reached
/// the calibrator and panicked the daemon's reactor thread; the
/// connection must instead keep serving.
#[test]
fn unrunnable_calibration_specs_are_bad_requests_on_both_wires() {
    let server = MappingServer::bind(
        MappingService::new(network(), ServiceConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let timeout = Some(Duration::from_secs(30));
    let mut v1 = ServiceClient::connect(&addr, timeout).expect("v1 connect");
    let mut v2 =
        ServiceClient::connect_with(&addr, timeout, WireFormat::V2Binary).expect("v2 connect");

    let bad_specs = [
        (
            "days",
            CalibSpec {
                days: 0,
                ..CalibSpec::default()
            },
        ),
        (
            "probes",
            CalibSpec {
                probes_per_day: 0,
                ..CalibSpec::default()
            },
        ),
        (
            "loss",
            CalibSpec {
                loss_rate: 1.5,
                ..CalibSpec::default()
            },
        ),
        (
            "noise",
            CalibSpec {
                noise_cv: -0.5,
                ..CalibSpec::default()
            },
        ),
    ];
    let good_map = MapRequest {
        ranks: Some(4),
        ..MapRequest::new("after", pattern_csv(4))
    };
    for (field, spec) in bad_specs {
        let requests = [
            Request::Map(MapRequest {
                ranks: Some(4),
                calibration: spec.clone(),
                ..MapRequest::new(format!("map-{field}"), pattern_csv(4))
            }),
            Request::Remap(RemapRequest {
                calibration: spec,
                ..RemapRequest::new(format!("remap-{field}"), pattern_csv(4), vec![0, 1, 2, 3])
            }),
        ];
        for request in &requests {
            for (wire, client) in [("v1", &mut v1), ("v2", &mut v2)] {
                let what = format!("{} over {wire}", request_id(request));
                match client
                    .send(request)
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
                {
                    Response::Error(e) => {
                        assert_eq!(e.code, ErrorCode::BadRequest, "{what}");
                        assert_eq!(e.id, request_id(request), "{what}");
                        assert!(e.message.contains(field), "{what}: {}", e.message);
                    }
                    other => panic!("{what}: expected bad_request, got {other:?}"),
                }
                match client.map(good_map.clone()) {
                    Ok(Response::Map(_)) => {}
                    other => panic!("{what}: connection stopped serving: {other:?}"),
                }
            }
        }
    }
    match v2.shutdown("bye").expect("shutdown") {
        Response::Shutdown { .. } => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.join();
}

fn request_id(request: &Request) -> &str {
    match request {
        Request::Map(m) => &m.id,
        Request::Remap(r) => &r.id,
        other => panic!("not a map or remap request: {other:?}"),
    }
}
