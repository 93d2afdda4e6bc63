//! Criterion timing of the cost-function kernels: full Eq. 3 evaluation,
//! incremental swap deltas and the aggregate replays, plus the
//! delta-engine comparison rows (incremental vs full-recompute) for a
//! single candidate query and for a whole hill-climb refinement pass.

use commgraph::apps::AppKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geomap_core::{
    cost, cost::swap_delta, polish, CostTables, Evaluation, Mapping, MappingProblem, TraceScope,
};
use geonet::{presets, InstanceType, SiteId};
use simnet::{bottleneck_time, sum_cost};
use std::hint::black_box;

fn problem(n: usize) -> (MappingProblem, Mapping) {
    let net = presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, 1);
    let p = MappingProblem::unconstrained(AppKind::KMeans.workload(n).pattern(), net);
    let m = Mapping::from((0..n).map(|i| i % 4).collect::<Vec<_>>());
    (p, m)
}

fn bench_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_eval");
    for n in [64usize, 256, 1024] {
        let (p, m) = problem(n);
        group.bench_with_input(BenchmarkId::new("eq3_full", n), &n, |b, _| {
            b.iter(|| black_box(cost(&p, &m)))
        });
        // n/2 + 1 sits on a different site of the round-robin mapping, so
        // the delta cannot short-circuit to zero.
        group.bench_with_input(BenchmarkId::new("swap_delta", n), &n, |b, _| {
            b.iter(|| black_box(swap_delta(&p, &m, 0, n / 2 + 1)))
        });
        let assignment: Vec<SiteId> = m.as_slice().to_vec();
        group.bench_with_input(BenchmarkId::new("replay_sum", n), &n, |b, _| {
            b.iter(|| black_box(sum_cost(p.pattern(), p.network(), &assignment)))
        });
        group.bench_with_input(BenchmarkId::new("replay_bottleneck", n), &n, |b, _| {
            b.iter(|| black_box(bottleneck_time(p.pattern(), p.network(), &assignment)))
        });
    }
    group.finish();
}

/// One swap-delta query, incremental engine vs full-recompute oracle.
/// The incremental engine answers in `O(deg)` regardless of `n`; the
/// oracle re-walks the whole pattern.
fn bench_delta_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_engine");
    for n in [64usize, 256, 1024] {
        let (p, m) = problem(n);
        let tables = CostTables::build(&p, geomap_core::CostModel::Full);
        for (name, evaluation) in [
            ("swap_delta_inc", Evaluation::Incremental),
            ("swap_delta_full", Evaluation::FullRecompute),
        ] {
            let eval = evaluation.evaluator(&tables, m.as_slice().to_vec());
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| black_box(eval.swap_delta(0, n / 2 + 1)))
            });
        }
    }
    group.finish();
}

/// A full hill-climb refinement pass over all processes — the unit of
/// work Fig. 4's Geo-distributed overhead is made of. The incremental
/// engine must win by ≥5× at N ≥ 1024 (asserted in
/// `core/tests/delta_equivalence.rs` by term counts; measured in
/// wall-clock here).
fn bench_refine_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine_pass");
    for n in [256usize, 1024] {
        let (p, m) = problem(n);
        let tables = CostTables::build(&p, geomap_core::CostModel::Full);
        for (name, evaluation) in [
            ("inc", Evaluation::Incremental),
            ("full", Evaluation::FullRecompute),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    let mut mapping = m.clone();
                    black_box(polish(
                        &tables,
                        evaluation,
                        &mut mapping,
                        1,
                        &|_| true,
                        &|_, _| true,
                        TraceScope::off(),
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cost, bench_delta_engines, bench_refine_pass);
criterion_main!(benches);
