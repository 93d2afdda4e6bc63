//! End-to-end behavior of the mapping service: the in-memory mode
//! against the one-shot pipeline (bit-identical), cache tiers, the
//! inventory lifecycle, and the TCP daemon under concurrency.

use commgraph::apps::AppKind;
use geomap_core::pipeline::{self, PipelineConfig};
use geomap_core::{ConstraintVector, GeoMapper};
use geomap_service::proto::{CacheTier, CalibSpec, ErrorCode, Response};
use geomap_service::{
    ClientError, MapRequest, MappingServer, MappingService, RemapRequest, Request, RetryPolicy,
    RetryingClient, ServiceClient, ServiceConfig, TcpConnector,
};
use geonet::{presets, InstanceType, SiteNetwork};
use std::time::Duration;

/// The paper's four EC2 regions, 4 nodes each (16 nodes total): big
/// enough for interesting placements, small enough for fast solves.
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

fn service() -> MappingService {
    MappingService::new(network(), ServiceConfig::default())
}

#[test]
fn in_memory_map_matches_one_shot_pipeline_bit_for_bit() {
    let svc = service();
    let req = MapRequest::new("r1", pattern_csv(16));
    let resp = svc.handle(&Request::Map(req.clone()));
    let Response::Map(resp) = resp else {
        panic!("expected a map response, got {resp:?}");
    };

    // The equivalent one-shot run: same pattern, same calibration
    // campaign, same mapper seed.
    let pattern = commgraph::CommPattern::from_csv(16, &req.pattern_csv).unwrap();
    let config = PipelineConfig {
        calibration: req.calibration.to_config(),
        mapper: GeoMapper {
            seed: req.seed,
            kappa: req.kappa,
            ..GeoMapper::default()
        },
        ..PipelineConfig::default()
    };
    let one_shot = pipeline::run_with_pattern(
        pattern,
        1.0,
        &network(),
        ConstraintVector::none(16),
        &config,
    );

    let one_shot_sites: Vec<usize> = one_shot
        .mapping
        .as_slice()
        .iter()
        .map(|s| s.index())
        .collect();
    assert_eq!(resp.mapping, one_shot_sites);
    assert_eq!(
        resp.cost.to_bits(),
        one_shot.estimated_cost.to_bits(),
        "daemon cost {} != pipeline cost {}",
        resp.cost,
        one_shot.estimated_cost
    );
    assert_eq!(resp.cached, CacheTier::Miss);
}

#[test]
fn cache_tiers_progress_from_miss_to_problem_to_result() {
    let svc = service();
    let base = MapRequest::new("a", pattern_csv(16));

    let Response::Map(first) = svc.handle(&Request::Map(base.clone())) else {
        panic!("first request failed");
    };
    assert_eq!(first.cached, CacheTier::Miss);

    // Same problem, different solver seed: calibration + problem reused.
    let reseeded = MapRequest {
        id: "b".into(),
        seed: base.seed + 1,
        ..base.clone()
    };
    let Response::Map(second) = svc.handle(&Request::Map(reseeded)) else {
        panic!("reseeded request failed");
    };
    assert_eq!(second.cached, CacheTier::Problem);

    // Identical request: the stored mapping, solve time zero.
    let Response::Map(third) = svc.handle(&Request::Map(MapRequest {
        id: "c".into(),
        ..base.clone()
    })) else {
        panic!("repeat request failed");
    };
    assert_eq!(third.cached, CacheTier::Result);
    assert_eq!(third.mapping, first.mapping);
    assert_eq!(third.cost.to_bits(), first.cost.to_bits());
    assert_eq!(third.solve_s, 0.0);

    // Opting out of the result cache still reuses the problem tier and
    // still produces the identical mapping (determinism, not caching).
    let Response::Map(fourth) = svc.handle(&Request::Map(MapRequest {
        id: "d".into(),
        use_result_cache: false,
        ..base
    })) else {
        panic!("no-cache request failed");
    };
    assert_eq!(fourth.cached, CacheTier::Problem);
    assert_eq!(fourth.mapping, first.mapping);
    assert_eq!(fourth.cost.to_bits(), first.cost.to_bits());
}

#[test]
fn cache_key_distinguishes_rank_count() {
    let svc = service();
    // Same edge list, different rank counts: the pattern CSV carries
    // only edges (among processes 0..8 here) and there are no
    // constraints, so the two requests differ in nothing but `ranks`.
    // They must not collide in either cache tier — a collision would
    // return an 8-long mapping to the 16-rank caller.
    let csv = pattern_csv(8);
    let Response::Map(eight) = svc.handle(&Request::Map(MapRequest {
        ranks: Some(8),
        ..MapRequest::new("n8", csv.clone())
    })) else {
        panic!("8-rank request failed");
    };
    assert_eq!(eight.mapping.len(), 8);

    let Response::Map(sixteen) = svc.handle(&Request::Map(MapRequest {
        ranks: Some(16),
        ..MapRequest::new("n16", csv)
    })) else {
        panic!("16-rank request failed");
    };
    assert_eq!(
        sixteen.cached,
        CacheTier::Miss,
        "a 16-rank request must not hit the 8-rank cache entry"
    );
    assert_eq!(sixteen.mapping.len(), 16);
}

#[test]
fn malformed_requests_get_stable_error_codes() {
    let svc = service();

    let bad_algo = MapRequest {
        algorithm: "quantum".into(),
        ..MapRequest::new("x", pattern_csv(16))
    };
    match svc.handle(&Request::Map(bad_algo)) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("algorithm"));
        }
        other => panic!("expected error, got {other:?}"),
    }

    let bad_pattern = MapRequest::new("y", "this,is,not\na_pattern");
    match svc.handle(&Request::Map(bad_pattern)) {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }

    let too_many = MapRequest {
        ranks: Some(1000),
        ..MapRequest::new("z", pattern_csv(16))
    };
    match svc.handle(&Request::Map(too_many)) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("exceed"));
        }
        other => panic!("expected error, got {other:?}"),
    }

    let bad_constraints = MapRequest {
        constraints_csv: Some("process,site\n0,99\n".into()),
        ..MapRequest::new("w", pattern_csv(16))
    };
    match svc.handle(&Request::Map(bad_constraints)) {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn reserve_release_lifecycle_keeps_inventory_exact() {
    let svc = service();
    let capacities = svc.network().capacities();

    let req = MapRequest {
        reserve: true,
        ..MapRequest::new("lease-1", pattern_csv(16))
    };
    let Response::Map(resp) = svc.handle(&Request::Map(req)) else {
        panic!("reserving request failed");
    };
    let lease = resp.lease.expect("reservation grants a lease");
    for (j, free) in resp.free_nodes.iter().enumerate() {
        assert_eq!(*free, capacities[j] - resp.site_counts[j]);
    }

    // 16 processes on 16 nodes: the cluster is now fully committed, so
    // a second reservation must be refused outright.
    let again = MapRequest {
        reserve: true,
        ..MapRequest::new("lease-2", pattern_csv(16))
    };
    match svc.handle(&Request::Map(again)) {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::InsufficientNodes),
        other => panic!("expected insufficient_nodes, got {other:?}"),
    }

    // Teardown returns every node; a second teardown is an error.
    match svc.handle(&Request::Release {
        id: "t".into(),
        lease,
    }) {
        Response::Release { free_nodes, .. } => assert_eq!(free_nodes, capacities),
        other => panic!("expected release, got {other:?}"),
    }
    match svc.handle(&Request::Release {
        id: "t2".into(),
        lease,
    }) {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownLease),
        other => panic!("expected unknown_lease, got {other:?}"),
    }

    let stats = svc.stats("s", false);
    assert_eq!(stats.served, 1);
    assert_eq!(stats.rejected, 2); // insufficient_nodes + unknown_lease
    assert_eq!(stats.active_leases, 0);
}

#[test]
fn shutdown_refuses_new_in_memory_work() {
    let svc = service();
    match svc.handle(&Request::Shutdown { id: "s".into() }) {
        Response::Shutdown { .. } => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    match svc.handle(&Request::Map(MapRequest::new("late", pattern_csv(16)))) {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting_down, got {other:?}"),
    }
}

// -------------------------------------------------------- idempotency

#[test]
fn idempotent_retry_replays_the_same_lease_verbatim() {
    let svc = service();
    let req = MapRequest {
        ranks: Some(4),
        reserve: true,
        idempotency_key: Some("client-a/op-1".into()),
        ..MapRequest::new("first", pattern_csv(4))
    };

    let first = svc.handle(&Request::Map(req.clone()));
    let Response::Map(ref m1) = first else {
        panic!("reserving request failed: {first:?}");
    };
    let lease = m1.lease.expect("reservation grants a lease");

    // The retry carries a new request id (as a real retry would) but
    // the same idempotency key and the same payload: the daemon must
    // replay the stored response verbatim — original id, same lease —
    // without touching the inventory a second time.
    let retry = MapRequest {
        id: "first-retry".into(),
        ..req.clone()
    };
    let second = svc.handle(&Request::Map(retry));
    assert_eq!(second, first, "replay must be byte-identical");
    let Response::Map(m2) = second else {
        unreachable!()
    };
    assert_eq!(m2.lease, Some(lease));

    assert_eq!(svc.inventory().active_leases(), 1, "retry double-reserved");
    let stats = svc.stats("s", false);
    assert_eq!(stats.served, 1, "replay must not count as served");
    assert_eq!(stats.replays, 1);

    // Reusing the key for a *different* request is a client bug the
    // daemon must refuse, not silently answer with the old response.
    let reused = MapRequest {
        id: "reuse".into(),
        seed: req.seed + 1,
        ..req
    };
    match svc.handle(&Request::Map(reused)) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("idempotency"), "{e:?}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
}

/// Regression (TTL sentinel collision): the request fingerprint used
/// to fold `lease_ttl_ms: None` into a `u64::MAX` sentinel, so a key
/// reused with an explicit `lease_ttl_ms: Some(u64::MAX)` — a
/// *different* request — collided with the no-TTL original and
/// replayed its response instead of being refused. Presence is now
/// fingerprinted as its own discriminant, so every (None vs Some(v))
/// pair is distinct, including the old sentinel and Some(0).
#[test]
fn ttl_presence_is_part_of_the_idempotent_request_identity() {
    let svc = service();
    let no_ttl = MapRequest {
        ranks: Some(4),
        reserve: true,
        idempotency_key: Some("client-c/op-3".into()),
        ..MapRequest::new("no-ttl", pattern_csv(4))
    };
    let first = svc.handle(&Request::Map(no_ttl.clone()));
    assert!(matches!(first, Response::Map(_)), "{first:?}");

    for ttl in [u64::MAX, 0] {
        let reused = MapRequest {
            id: format!("ttl-{ttl}"),
            lease_ttl_ms: Some(ttl),
            ..no_ttl.clone()
        };
        match svc.handle(&Request::Map(reused)) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::BadRequest, "ttl {ttl}");
                assert!(e.message.contains("idempotency"), "ttl {ttl}: {e:?}");
            }
            other => panic!("Some({ttl}) collided with None: replayed {other:?}"),
        }
    }

    // A genuine retry — TTL field bit-identical — still replays.
    let retry = MapRequest {
        id: "no-ttl-retry".into(),
        ..no_ttl
    };
    assert_eq!(svc.handle(&Request::Map(retry)), first);
    assert_eq!(svc.inventory().active_leases(), 1);
}

// ---------------------------------------------------- lease journal

/// The `journal` request is the federation router's reconciliation
/// probe: "which lease does this idempotency key hold *here*?" It must
/// answer held=true with the live lease, flip to held=false once the
/// lease is released (or was never granted), and lazily evict stale
/// journal entries on lookup.
#[test]
fn journal_requests_report_and_evict_keyed_leases() {
    let svc = service();
    let probe = |id: &str, key: &str| {
        svc.handle(&Request::Journal {
            id: id.into(),
            key: key.into(),
        })
    };

    // No reservation yet: definitively not held.
    match probe("j0", "fed-key") {
        Response::Journal(j) => {
            assert!(!j.held);
            assert_eq!(j.lease, None);
        }
        other => panic!("expected journal response, got {other:?}"),
    }

    let req = MapRequest {
        ranks: Some(4),
        reserve: true,
        idempotency_key: Some("fed-key".into()),
        ..MapRequest::new("keyed", pattern_csv(4))
    };
    let Response::Map(m) = svc.handle(&Request::Map(req)) else {
        panic!("reserving request failed");
    };
    let lease = m.lease.expect("reservation grants a lease");

    // Held, with the live lease and its current site counts.
    match probe("j1", "fed-key") {
        Response::Journal(j) => {
            assert!(j.held);
            assert_eq!(j.lease, Some(lease));
            assert_eq!(j.site_counts, m.site_counts);
            assert_eq!(j.key, "fed-key");
        }
        other => panic!("expected journal response, got {other:?}"),
    }

    // Release through the normal path: the journal entry goes with it.
    match svc.handle(&Request::Release {
        id: "rel".into(),
        lease,
    }) {
        Response::Release { .. } => {}
        other => panic!("release failed: {other:?}"),
    }
    assert!(svc.journal().is_empty(), "release must clear the journal");
    match probe("j2", "fed-key") {
        Response::Journal(j) => assert!(!j.held),
        other => panic!("expected journal response, got {other:?}"),
    }
}

/// A journaled lease whose TTL ran out is not held — and the lookup
/// itself evicts the stale entry (the inventory decides liveness, the
/// journal only remembers grants).
#[test]
fn journal_lookup_evicts_expired_leases() {
    use geomap_service::{Clock, VirtualClock};
    use std::sync::Arc;
    let clock = Arc::new(VirtualClock::new());
    let svc = MappingService::new(
        network(),
        ServiceConfig {
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..ServiceConfig::default()
        },
    );
    let req = MapRequest {
        ranks: Some(4),
        reserve: true,
        lease_ttl_ms: Some(50),
        idempotency_key: Some("ttl-key".into()),
        ..MapRequest::new("keyed", pattern_csv(4))
    };
    assert!(matches!(svc.handle(&Request::Map(req)), Response::Map(_)));
    assert_eq!(svc.journal().len(), 1);

    clock.advance_ms(50);
    match svc.handle(&Request::Journal {
        id: "j".into(),
        key: "ttl-key".into(),
    }) {
        Response::Journal(j) => assert!(!j.held, "expired lease reported held"),
        other => panic!("expected journal response, got {other:?}"),
    }
    assert!(svc.journal().is_empty(), "stale entry must be evicted");
    assert_eq!(svc.inventory().active_leases(), 0);
}

/// Regression (check-then-act replay): a duplicate that arrives while
/// the original keyed request is still solving must not miss the replay
/// cache and reserve a second lease. Single-flight admission parks it
/// until the first response is published. 8 threads race the same key;
/// exactly one solve, one lease, shared by all.
#[test]
fn concurrent_duplicates_of_one_key_reserve_exactly_once() {
    use std::sync::{Arc, Barrier};

    let svc = Arc::new(service());
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let req = MapRequest {
                    ranks: Some(4),
                    reserve: true,
                    idempotency_key: Some("client-b/op-9".into()),
                    ..MapRequest::new(format!("dup-{i}"), pattern_csv(4))
                };
                barrier.wait();
                svc.handle(&Request::Map(req))
            })
        })
        .collect();

    let mut leases = std::collections::HashSet::new();
    for h in handles {
        match h.join().expect("duplicate thread") {
            Response::Map(m) => {
                leases.insert(m.lease.expect("reservation grants a lease"));
            }
            other => panic!("duplicate must succeed via replay, got {other:?}"),
        }
    }
    assert_eq!(leases.len(), 1, "duplicates must all share one lease");
    assert_eq!(
        svc.inventory().active_leases(),
        1,
        "a mid-solve retry reserved a second lease"
    );
    let stats = svc.stats("s", false);
    assert_eq!(stats.served, 1, "the solve must have run exactly once");
    assert_eq!(stats.replays, 7, "the other 7 must be replays");
}

// ----------------------------------------------- degraded calibration

/// A calibration spec so lossy that every site pair starves: one probe
/// per pair, each lost with probability 1 - 1e-6.
fn starving_calibration() -> CalibSpec {
    CalibSpec {
        days: 1,
        probes_per_day: 1,
        loss_rate: 0.999_999,
        seed: 11,
        ..CalibSpec::default()
    }
}

#[test]
fn lossy_calibration_degrades_to_last_known_good() {
    let svc = service();

    // Warm run: a clean campaign populates the last-known-good state.
    let Response::Map(warm) = svc.handle(&Request::Map(MapRequest::new("warm", pattern_csv(16))))
    else {
        panic!("warm request failed");
    };
    assert!(!warm.degraded);
    assert_eq!(warm.staleness, 0);

    // Lossy run: every pair starves, so the daemon answers from the
    // last-known-good estimate and says so on the wire.
    let lossy = MapRequest {
        calibration: starving_calibration(),
        ..MapRequest::new("lossy", pattern_csv(16))
    };
    let Response::Map(deg) = svc.handle(&Request::Map(lossy)) else {
        panic!("degraded request should still map");
    };
    assert!(deg.degraded, "starved campaign must surface degraded");
    assert_eq!(deg.staleness, 1, "one generation behind the warm run");
    assert_eq!(
        deg.mapping, warm.mapping,
        "fallback estimate is the warm one, so the placement matches"
    );
}

/// In-process callers skip the wire decoders, so `handle` itself must
/// refuse a campaign the calibrator would assert on rather than panic.
#[test]
fn in_process_handle_refuses_unrunnable_calibration() {
    let svc = service();
    let bad_specs = [
        (
            "days",
            CalibSpec {
                days: 0,
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
    ];
    for (field, spec) in bad_specs {
        let (map_id, remap_id) = (format!("map-{field}"), format!("remap-{field}"));
        let requests = [
            (
                &map_id,
                Request::Map(MapRequest {
                    calibration: spec.clone(),
                    ..MapRequest::new(map_id.clone(), pattern_csv(16))
                }),
            ),
            (
                &remap_id,
                Request::Remap(RemapRequest {
                    calibration: spec,
                    ..RemapRequest::new(
                        remap_id.clone(),
                        pattern_csv(16),
                        (0..16).map(|r| r % 4).collect(),
                    )
                }),
            ),
        ];
        for (id, request) in &requests {
            match svc.handle(request) {
                Response::Error(e) => {
                    assert_eq!(e.code, ErrorCode::BadRequest, "{id}");
                    assert_eq!(&e.id, *id);
                    assert!(e.message.contains(field), "{id}: {}", e.message);
                }
                other => panic!("{id}: expected bad_request, got {other:?}"),
            }
        }
    }
    // The refusals left the service able to map.
    match svc.handle(&Request::Map(MapRequest::new("after", pattern_csv(16)))) {
        Response::Map(_) => {}
        other => panic!("service stopped mapping: {other:?}"),
    }
}

#[test]
fn lossy_calibration_without_fallback_is_a_degraded_error() {
    // Fresh daemon: no last-known-good exists yet, so a fully starved
    // campaign cannot be answered at all — typed as `degraded`.
    let svc = service();
    let lossy = MapRequest {
        calibration: starving_calibration(),
        ..MapRequest::new("cold-lossy", pattern_csv(16))
    };
    match svc.handle(&Request::Map(lossy)) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Degraded);
            assert!(e.message.contains("calibration"), "{e:?}");
        }
        other => panic!("expected degraded error, got {other:?}"),
    }
}

// ---------------------------------------------------------------- TCP

#[test]
fn daemon_serves_64_concurrent_requests_without_oversubscription() {
    let server = MappingServer::bind(service(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let capacities = server.service().network().capacities();

    // 64 concurrent clients: half solve-only (all must agree bit for
    // bit), half reserve 4-rank placements (4 nodes of 16 => at most 4
    // concurrent leases; refusals are over-commit protection working).
    let handles: Vec<_> = (0..64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client =
                    ServiceClient::connect(&addr, Some(Duration::from_secs(60))).expect("connect");
                let req = if i % 2 == 0 {
                    MapRequest::new(format!("solve-{i}"), pattern_csv(16))
                } else {
                    MapRequest {
                        ranks: Some(4),
                        reserve: true,
                        ..MapRequest::new(format!("reserve-{i}"), pattern_csv(4))
                    }
                };
                client.map(req).expect("request round-trip")
            })
        })
        .collect();

    let mut solve_results: Vec<(Vec<usize>, u64)> = Vec::new();
    let mut leases = Vec::new();
    let mut refused = 0usize;
    for h in handles {
        match h.join().expect("client thread") {
            Response::Map(m) => {
                if let Some(lease) = m.lease {
                    leases.push(lease);
                    for (j, free) in m.free_nodes.iter().enumerate() {
                        assert!(*free <= capacities[j], "free exceeds capacity at site {j}");
                    }
                } else {
                    solve_results.push((m.mapping, m.cost.to_bits()));
                }
            }
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::InsufficientNodes, "unexpected: {e:?}");
                refused += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Worker interleaving must not leak into results: all 32 solve-only
    // requests are the same problem + seed, so all 32 answers agree.
    assert_eq!(solve_results.len(), 32);
    for (mapping, cost_bits) in &solve_results[1..] {
        assert_eq!(mapping, &solve_results[0].0);
        assert_eq!(*cost_bits, solve_results[0].1);
    }

    // Conservation: granted leases + refusals account for all 32
    // reservation attempts, and the ledger balances exactly.
    assert_eq!(leases.len() + refused, 32);
    let free_now = server.service().inventory().free_nodes();
    let leased_total: usize = capacities.iter().sum::<usize>() - free_now.iter().sum::<usize>();
    assert_eq!(leased_total, 4 * leases.len());

    // Explicit teardown of every lease restores the full cluster.
    let mut client = ServiceClient::connect(&addr, Some(Duration::from_secs(10))).unwrap();
    for lease in leases {
        match client.release("teardown", lease).unwrap() {
            Response::Release { .. } => {}
            other => panic!("release failed: {other:?}"),
        }
    }
    assert_eq!(server.service().inventory().free_nodes(), capacities);

    match client.shutdown("bye").unwrap() {
        Response::Shutdown { .. } => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.join();
}

#[test]
fn zero_deadline_expires_in_queue() {
    let server = MappingServer::bind(service(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut client = ServiceClient::connect(&addr, Some(Duration::from_secs(10))).unwrap();
    let req = MapRequest {
        deadline_ms: Some(0),
        ..MapRequest::new("hurry", pattern_csv(16))
    };
    match client.map(req).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    server.join();
}

#[test]
fn full_admission_queue_pushes_back_immediately() {
    let config = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    };
    let server = MappingServer::bind(MappingService::new(network(), config), "127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // The single worker pops this connection and blocks reading it.
    let parked = ServiceClient::connect(&addr, Some(Duration::from_secs(10))).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // This one fills the queue's single slot.
    let queued = ServiceClient::connect(&addr, Some(Duration::from_secs(10))).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // And this one must be bounced straight from the accept thread.
    let mut bounced = ServiceClient::connect(&addr, Some(Duration::from_secs(10))).unwrap();
    match bounced.map(MapRequest::new("late", pattern_csv(16))) {
        Ok(Response::Error(e)) => assert_eq!(e.code, ErrorCode::OverCapacity),
        // The server may close before our request line is even read;
        // either way the caller sees a failure, never a hang.
        Ok(other) => panic!("expected over_capacity, got {other:?}"),
        Err(msg) => assert!(msg.contains("closed") || msg.contains("response")),
    }

    // Freeing the parked connection lets the queued one be served.
    drop(parked);
    let mut queued = queued;
    match queued.map(MapRequest::new("q", pattern_csv(16))).unwrap() {
        Response::Map(_) => {}
        other => panic!("queued request should succeed, got {other:?}"),
    }
    server.join();
}

#[test]
fn graceful_shutdown_refuses_new_connections() {
    let server = MappingServer::bind(service(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut client = ServiceClient::connect(&addr, Some(Duration::from_secs(10))).unwrap();
    match client.shutdown("drain").unwrap() {
        Response::Shutdown { draining, .. } => assert_eq!(draining, 0),
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.join();
    // The listener is gone: a fresh connection attempt must fail fast.
    assert!(ServiceClient::connect(&addr, Some(Duration::from_millis(500))).is_err());
}

/// Regression (the unbounded-read bug): a client streaming 10 MB of
/// garbage with no `\n` must get one clean `bad_request` naming the
/// byte bound — never an unbounded buffer or a hung worker — and the
/// daemon must stay healthy for the next client.
#[test]
fn ten_megabytes_without_a_newline_is_a_clean_bad_request() {
    use geomap_service::server::MAX_LINE_BYTES;
    use std::io::{BufRead, BufReader, Write};

    let server = MappingServer::bind(service(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Write from a second thread: the server responds as soon as the
    // bound trips (4 MiB in), then drains the rest, so neither side can
    // deadlock on full socket buffers.
    let writer = {
        let mut tx = stream.try_clone().expect("clone stream");
        std::thread::spawn(move || {
            let chunk = vec![b'x'; 64 * 1024];
            for _ in 0..160 {
                // 10 MiB total, no newline anywhere.
                if tx.write_all(&chunk).is_err() {
                    break; // server already closed: also acceptable
                }
            }
            let _ = tx.flush();
        })
    };

    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).expect("read");
    let resp = Response::from_line(&line).expect("decodable error response");
    match resp {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(
                e.message.contains(&MAX_LINE_BYTES.to_string()),
                "error must name the bound: {e:?}"
            );
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    writer.join().expect("writer thread");
    drop(stream);

    // The daemon survived: a well-formed request still round-trips.
    let mut client = ServiceClient::connect(&addr, Some(Duration::from_secs(10))).unwrap();
    match client
        .map(MapRequest::new("after", pattern_csv(16)))
        .unwrap()
    {
        Response::Map(_) => {}
        other => panic!("daemon unhealthy after garbage: {other:?}"),
    }
    match client.shutdown("bye").unwrap() {
        Response::Shutdown { .. } => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    server.join();
}

/// The retrying client against a dead address: every attempt fails to
/// connect (safely retryable), the budget runs out, and the caller gets
/// a typed retryable error counting the attempts — never a hang.
#[test]
fn retrying_client_exhausts_its_budget_against_a_dead_port() {
    // Bind-then-drop: the OS hands us a port that is now guaranteed
    // closed, so connects are refused immediately.
    let addr = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().to_string()
    };
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::new(
        TcpConnector::new(&addr, Some(Duration::from_millis(200))),
        policy,
    );
    match client.map(MapRequest::new("dead", pattern_csv(4))) {
        Err(ClientError::Retryable { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected retryable exhaustion, got {other:?}"),
    }
}
