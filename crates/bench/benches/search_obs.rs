//! The observability off-path contract for the Δ-engine search: a
//! refinement pass reporting its [`SearchStats`](geomap_core::SearchStats)
//! to a disabled [`Metrics`] handle must run as fast as one that reports
//! nothing.
//!
//! A bench target of its own so CI can run the gate in seconds, without
//! `cost_eval`'s full-recompute `refine_pass` rows (~10 s per iteration
//! at N=1024 on a 2-core host).

use commgraph::apps::AppKind;
use criterion::{criterion_group, criterion_main, Criterion};
use geomap_bench::util::off_path_guard;
use geomap_core::{
    polish, CostModel, CostTables, Evaluation, Mapping, MappingProblem, Metrics, TraceScope,
};
use geonet::{presets, InstanceType};
use std::hint::black_box;

/// Guard: the observability layer must be zero-cost when disabled.
/// `polish` + `SearchStats::emit` on a `Metrics::off()` handle runs the
/// same inner-loop instructions as a bare `polish` (the contract is <1%
/// overhead — counters live in plain integers and the disabled handle
/// never reads the clock). The assertion uses a deliberately loose 15%
/// band so scheduler noise cannot flake CI; the criterion rows print the
/// tight numbers for human inspection.
fn bench_null_sink_overhead(c: &mut Criterion) {
    let n = 256;
    let net = presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, 1);
    let p = MappingProblem::unconstrained(AppKind::KMeans.workload(n).pattern(), net);
    let m = Mapping::from((0..n).map(|i| i % 4).collect::<Vec<_>>());
    let tables = CostTables::build(&p, CostModel::Full);
    let pass = || {
        let mut mapping = m.clone();
        polish(
            &tables,
            Evaluation::Incremental,
            &mut mapping,
            1,
            &|_| true,
            &|_, _| true,
            TraceScope::off(),
        )
    };
    let plain = || black_box(pass().swaps_accepted as usize);
    let instrumented = || {
        let stats = pass();
        stats.emit(&Metrics::off());
        black_box(stats.swaps_accepted as usize)
    };

    let mut group = c.benchmark_group("refine_pass_metrics_off");
    group.bench_function("plain", |b| b.iter(plain));
    group.bench_function("null_sink", |b| b.iter(instrumented));
    group.finish();

    // Best-of-trials wall-clock guard, independent of the criterion shim.
    off_path_guard("null-sink refine_pass", 15, 10, plain, instrumented);
}

criterion_group!(benches, bench_null_sink_overhead);
criterion_main!(benches);
