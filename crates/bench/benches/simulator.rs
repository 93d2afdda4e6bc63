//! Criterion timing of the substrates: the discrete-event runtime
//! replaying full applications, network calibration and application
//! profiling (pattern generation + CYPRESS compression).

use commgraph::apps::AppKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geomap_bench::util::off_path_guard;
use geomap_core::Trace;
use geonet::{presets, CalibrationConfig, Calibrator, InstanceType, SiteId};
use mpirt::RunConfig;
use std::hint::black_box;

fn bench_runtime(c: &mut Criterion) {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 1);
    let assignment: Vec<SiteId> = (0..64).map(|i| SiteId(i / 16)).collect();
    let mut group = c.benchmark_group("simulator");
    for kind in [AppKind::Lu, AppKind::KMeans, AppKind::Dnn] {
        let program = kind.workload(64).program();
        group.bench_with_input(
            BenchmarkId::new("des_execute", kind.name()),
            &program,
            |b, prog| {
                b.iter(|| {
                    black_box(mpirt::execute(
                        prog,
                        &net,
                        &assignment,
                        &RunConfig::comm_only(),
                    ))
                })
            },
        );
    }
    group.bench_function("profile_lu64", |b| {
        let w = AppKind::Lu.workload(64);
        b.iter(|| black_box(w.pattern()))
    });
    group.bench_function("calibrate_4_sites", |b| {
        b.iter(|| black_box(Calibrator::new(CalibrationConfig::default()).calibrate(&net)))
    });
    group.finish();
}

/// The contract behind `mpirt::execute_traced(..., &Trace::off())`: a
/// disabled trace handle is a `None` check per event site and must not
/// slow the discrete-event replay measurably (documented <1% — asserted
/// at 15% to stay robust on noisy CI machines).
fn bench_trace_off_overhead(c: &mut Criterion) {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 1);
    let assignment: Vec<SiteId> = (0..64).map(|i| SiteId(i / 16)).collect();
    let program = AppKind::KMeans.workload(64).program();
    let cfg = RunConfig::comm_only();
    let plain = || black_box(mpirt::execute(&program, &net, &assignment, &cfg)).makespan;
    let traced_off = || {
        black_box(mpirt::execute_traced(
            &program,
            &net,
            &assignment,
            &cfg,
            &Trace::off(),
        ))
        .makespan
    };

    let mut group = c.benchmark_group("simnet_trace_off");
    group.bench_function("plain", |b| b.iter(plain));
    group.bench_function("trace_off", |b| b.iter(traced_off));
    group.finish();

    // Best-of-trials wall-clock guard, independent of the criterion shim.
    off_path_guard("trace-off replay", 15, 20, plain, traced_off);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_runtime, bench_trace_off_overhead
}
criterion_main!(benches);
