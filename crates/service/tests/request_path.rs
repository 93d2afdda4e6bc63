//! The one request path: the TCP reactor, the loopback transport and
//! in-process callers all answer through `MappingService::answer` (or,
//! in-process, `handle`, which enters the same handler), so each of
//! these cases must come out the same whichever way the request came in.

use commgraph::apps::AppKind;
use geomap_service::frame;
use geomap_service::proto::{ErrorCode, Response};
use geomap_service::transport::TcpTransport;
use geomap_service::{
    Connector, HistKind, LoopbackConnector, MapRequest, MappingServer, MappingService,
    RemapRequest, Request, ServiceClient, ServiceConfig, Transport, WireFormat,
};
use geonet::{presets, InstanceType};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

fn service() -> MappingService {
    let network = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 42);
    MappingService::new(network, ServiceConfig::default())
}

fn pattern_csv(ranks: usize) -> String {
    AppKind::parse("sp")
        .expect("sp is a known app")
        .workload(ranks)
        .pattern()
        .to_csv()
}

/// A remap of a 16-rank placement that spreads ranks round-robin.
fn remap_request(id: &str) -> RemapRequest {
    RemapRequest::new(id, pattern_csv(16), (0..16).map(|r| r % 4).collect())
}

/// A response frame where a request belongs is refused the same way by
/// the loopback and by the reactor: one `bad_request` echoing the
/// frame's correlation id.
#[test]
fn a_response_frame_is_refused_alike_over_loopback_and_tcp() {
    let stray = frame::encode_response(
        &Response::Shutdown {
            id: "stray".into(),
            draining: 0,
        },
        42,
    );

    let mut loopback = LoopbackConnector::new(Arc::new(service()))
        .connect()
        .expect("loopback connects");
    loopback.send_msg(&stray).expect("loopback send");
    let via_loopback = WireFormat::decode_response(&loopback.recv_msg().expect("loopback answers"))
        .expect("loopback reply decodes");

    let server = MappingServer::bind(service(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut tcp =
        TcpTransport::connect_with(&addr, TIMEOUT, WireFormat::V2Binary).expect("tcp connects");
    tcp.send_msg(&stray).expect("tcp send");
    let via_tcp = WireFormat::decode_response(&tcp.recv_msg().expect("tcp answers"))
        .expect("tcp reply decodes");
    server.join();

    assert_eq!(via_loopback, via_tcp);
    let (corr_id, response) = via_tcp;
    assert_eq!(corr_id, 42);
    match response {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.message.contains("response frame"), "{}", e.message);
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
}

/// Admitted work drains: a connection adopted before `shutdown` still
/// gets both its map and its remap answered, whichever connection the
/// shutdown arrived on.
#[test]
fn a_connection_adopted_before_shutdown_gets_map_and_remap_answered() {
    let server = MappingServer::bind(service(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(TIMEOUT).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut read_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        Response::from_line(line.trim_end()).expect("response decodes")
    };

    // One map answered before shutdown, plus the first half of the
    // next map: the half line keeps the connection busy, so the
    // draining reactor must wait for the rest instead of closing it.
    let late_map = Request::Map(MapRequest::new("late-map", pattern_csv(16))).to_line();
    let (head, tail) = late_map.split_at(late_map.len() / 2);
    let first = Request::Map(MapRequest::new("first", pattern_csv(16))).to_line();
    writer
        .write_all(format!("{first}\n{head}").as_bytes())
        .unwrap();
    assert!(matches!(read_response(), Response::Map(_)));

    let mut other = ServiceClient::connect(&addr, TIMEOUT).expect("second connection");
    match other.shutdown("drain").expect("shutdown answered") {
        Response::Shutdown { .. } => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    assert!(server.service().is_shutting_down());

    let remap = Request::Remap(remap_request("late-remap")).to_line();
    writer
        .write_all(format!("{tail}\n{remap}\n").as_bytes())
        .unwrap();
    match read_response() {
        Response::Map(m) => assert_eq!(m.id, "late-map"),
        other => panic!("admitted map refused after shutdown: {other:?}"),
    }
    match read_response() {
        Response::RemapDiff(r) => assert_eq!(r.id, "late-remap"),
        other => panic!("admitted remap refused after shutdown: {other:?}"),
    }
    drop(writer);
    server.join();
}

/// Remap latency is recorded like every other kind: one remap adds one
/// sample to `remap_e2e`, in-process and over TCP.
#[test]
fn one_remap_adds_one_remap_e2e_sample_in_process_and_over_tcp() {
    let remap_count = |svc: &MappingService| svc.hists().merged(HistKind::RemapE2e).count();

    let svc = service();
    let before = remap_count(&svc);
    let response = svc.handle(&Request::Remap(remap_request("in-process")));
    assert!(matches!(response, Response::RemapDiff(_)), "{response:?}");
    assert_eq!(remap_count(&svc) - before, 1);

    let server = MappingServer::bind(service(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut client = ServiceClient::connect(&addr, TIMEOUT).expect("connect");
    let before = remap_count(server.service());
    let response = client.remap(remap_request("tcp")).expect("remap answered");
    assert!(matches!(response, Response::RemapDiff(_)), "{response:?}");
    assert_eq!(remap_count(server.service()) - before, 1);
    server.join();
}

/// An unknown algorithm is refused before the problem tier is
/// consulted, so no calibration campaign runs for it.
#[test]
fn an_unknown_algorithm_is_refused_before_any_calibration() {
    let svc = service();
    let request = MapRequest {
        algorithm: "quantum".into(),
        ..MapRequest::new("alg", pattern_csv(16))
    };
    match svc.handle(&Request::Map(request)) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert_eq!(
                e.message,
                "unknown algorithm \"quantum\" (geo|greedy|mpipp|random|montecarlo|multilevel)"
            );
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert_eq!(svc.stats("s", false).misses, 0);
}
