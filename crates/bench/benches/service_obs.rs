//! The observability off-path contract for the mapping service.
//!
//! PR 8 threads latency histograms and a trace scope through the
//! request path. Both must cost nothing when disabled — the histogram
//! recorder is an enabled-flag check, the trace scope a `None` check —
//! and near-nothing when only histograms are on (two `Instant` reads
//! and one sharded-mutex bucket increment per request). Measured on
//! the hottest path the daemon has: an in-memory result-cache hit.
//!
//! Documented <1%; asserted at 15% to stay robust on noisy CI
//! machines (the same margin as the simulator's trace-off contract).

use commgraph::apps::AppKind;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use geomap_bench::util::off_path_guard;
use geomap_service::proto::Response;
use geomap_service::{MapRequest, MappingService, Request, ServiceConfig};
use geonet::{presets, InstanceType};

fn service(record_hists: bool) -> MappingService {
    let network = presets::paper_ec2_network(4, InstanceType::M4Xlarge, 42);
    let service = MappingService::new(
        network,
        ServiceConfig {
            workers: 2,
            record_hists,
            ..ServiceConfig::default()
        },
    );
    // Warm the result cache so every benched request is a pure hit.
    let warm = Response::Map(match service.handle(&Request::Map(request())) {
        Response::Map(m) => m,
        other => panic!("warm request failed: {other:?}"),
    });
    black_box(warm);
    service
}

fn request() -> MapRequest {
    let pattern_csv = AppKind::parse("sp")
        .expect("sp is a known app")
        .workload(16)
        .pattern()
        .to_csv();
    MapRequest::new("obs-bench", pattern_csv)
}

fn bench_obs_off_overhead(c: &mut Criterion) {
    let baseline = service(false);
    let observed = service(true);
    let req = Request::Map(request());
    let hit = |svc: &MappingService| match black_box(svc.handle(&req)) {
        Response::Map(m) => {
            assert_eq!(
                m.cached.label(),
                "result",
                "bench must stay on the hit path"
            );
        }
        other => panic!("unexpected {other:?}"),
    };

    let mut group = c.benchmark_group("service_obs_off");
    group.bench_function("hists_off", |b| b.iter(|| hit(&baseline)));
    group.bench_function("hists_on_trace_off", |b| b.iter(|| hit(&observed)));
    group.finish();

    // Best-of-trials wall-clock guard, independent of the criterion
    // shim: observability enabled (but trace off) must stay within the
    // noise margin of the stripped service.
    off_path_guard(
        "hists-on hit path",
        30,
        2000,
        || hit(&baseline),
        || hit(&observed),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_obs_off_overhead
}
criterion_main!(benches);
