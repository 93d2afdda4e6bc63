//! The multilevel workloads: in-process solves of the clustered graph
//! `repro multilevel` uses, on the Azure 20-region preset.

use crate::report::{Report, LEVELS};
use crate::schedule::Rng;
use crate::spans::{unattributed, SpanLog};
use crate::stats::median;
use commgraph::apps::{ClusteredGraph, Workload};
use geomap_core::{
    cost, CostModel, CostTables, GeoMapper, Hierarchy, Mapper, Mapping, MappingProblem, MemorySink,
    Metrics, MultilevelConfig, MultilevelMapper, RingBufferSink, Trace, TraceEventKind,
};
use geonet::presets;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One multilevel workload: rank count and how many distinct problems
/// (each from its own seed) a run solves. Solve time varies from one
/// generated graph to the next by more than the run-to-run noise, so a
/// run takes the median over several graphs.
#[derive(Debug, Clone, Copy)]
pub struct MlWorkload {
    /// Ranks.
    pub n: usize,
    /// Distinct problems solved per run.
    pub problems: usize,
}

/// Room for every event a traced solve records (coarse-solve and
/// refinement spans, one instant per accepted swap or move).
const RING_EVENTS: usize = 1 << 22;

/// The `problem_at(n, seed)` generator of `repro multilevel`: the
/// clustered graph over the Azure 20-region preset with 25% headroom,
/// each layer's call timed into `log`.
pub fn generate(n: usize, seed: u64, log: &mut SpanLog, req: u64) -> MappingProblem {
    let per_region = ((n as f64) * 1.25 / 20.0).ceil() as usize;
    let net = log.time("geonet.network", None, req, || {
        presets::azure20_network(per_region, seed)
    });
    let pattern = log.time("commgraph.generate", None, req, || {
        ClusteredGraph {
            n,
            cluster: 64,
            degree: 8,
            locality: 0.8,
            max_bytes: 1 << 20,
            seed: seed ^ 0xC1A5,
        }
        .pattern()
    });
    log.time("core.problem", None, req, || {
        MappingProblem::unconstrained(pattern, net)
    })
}

fn mapper(seed: u64, metrics: Metrics, inner: Metrics, trace: Trace) -> MultilevelMapper {
    MultilevelMapper {
        config: MultilevelConfig::default(),
        inner: GeoMapper {
            seed,
            metrics: inner,
            trace: trace.clone(),
            ..GeoMapper::default()
        },
        metrics,
        trace,
    }
}

/// Check a solve's output: a feasible mapping whose Eq. 3 cost, as the
/// Δ-engine's flat tables evaluate it, agrees with `cost()`.
fn check_solution(problem: &MappingProblem, mapping: &Mapping, report: &mut Report) -> f64 {
    if let Err(e) = mapping.validate(problem) {
        report.fail(format!("multilevel mapping is infeasible: {e}"));
    }
    let c = cost(problem, mapping);
    let tables = CostTables::build(problem, CostModel::Full).total(mapping.as_slice());
    report.check((c - tables).abs() <= 1e-9 * c.abs(), || {
        format!("cost() gives {c}, the cost tables give {tables}")
    });
    c
}

/// What one traced solve reported through the program's own metrics
/// and trace ring, plus the benchmark's outside timings.
#[derive(Debug, Default, Clone)]
struct TracedSolve {
    values: Vec<(&'static str, f64)>,
    levels: Vec<f64>,
}

fn traced_solve(
    problem: &MappingProblem,
    seed: u64,
    log: &mut SpanLog,
    req: u64,
    untraced: &Mapping,
    report: &mut Report,
) -> TracedSolve {
    let ml_sink = Arc::new(MemorySink::new());
    let geo_sink = Arc::new(MemorySink::new());
    let ring = Arc::new(RingBufferSink::new(RING_EVENTS));
    let m = mapper(
        seed,
        Metrics::new(ml_sink.clone()),
        Metrics::new(geo_sink.clone()),
        Trace::new(ring.clone()),
    );
    let t0 = Instant::now();
    let mapping = m.map(problem);
    let total = t0.elapsed().as_secs_f64();
    log.record("multilevel.map", None, req, t0, Instant::now());
    report.check(mapping.as_slice() == untraced.as_slice(), || {
        format!("solve {req}: tracing changed the mapping")
    });
    report.check(ring.dropped() == 0, || {
        format!(
            "solve {req}: the trace ring dropped {} events",
            ring.dropped()
        )
    });

    let ml = |name: &str| ml_sink.sum_named(name);
    let geo = |name: &str| geo_sink.sum_named(name);
    let (coarsen, coarse, refine) = (
        ml("phase.coarsen"),
        ml("phase.coarse_solve"),
        ml("phase.refine"),
    );
    let last = |name: &str| {
        ml_sink
            .snapshot()
            .iter()
            .rev()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.value)
    };
    // Per-level refinement spans and accepted steps on the multilevel
    // track of the ring.
    let track = ring
        .tracks()
        .into_iter()
        .find(|t| t.process == "search" && t.name == "Multilevel")
        .map(|t| t.id);
    let mut levels = Vec::new();
    let (mut swaps, mut moves) = (0.0, 0.0);
    let mut open = None;
    for e in ring.snapshot().iter().filter(|e| Some(e.track) == track) {
        match (e.kind, e.name) {
            (TraceEventKind::SpanBegin, "level") => open = Some(e.ts),
            (TraceEventKind::SpanEnd, "level") => {
                if let Some(start) = open.take() {
                    levels.push(e.ts - start);
                }
            }
            (TraceEventKind::Instant, "swap") => swaps += 1.0,
            (TraceEventKind::Instant, "move") => moves += 1.0,
            _ => {}
        }
    }
    // Spans run coarsest level first and end at the base graph.
    levels.reverse();

    // Cost-table builds for every level's pattern, timed from outside
    // on the hierarchy the mapper builds (same seed derivation).
    let t_h = Instant::now();
    let hierarchy = Hierarchy::coarsen(problem, &MultilevelConfig::default(), seed ^ 0x5CA1_AB1E);
    log.record(
        "multilevel.coarsen(outside)",
        None,
        req,
        t_h,
        Instant::now(),
    );
    let mut tables_s = log.time("delta.tables.base", None, req, || {
        let t = Instant::now();
        std::hint::black_box(CostTables::build(problem, CostModel::Full));
        t.elapsed().as_secs_f64()
    });
    for lvl in &hierarchy.levels {
        tables_s += log.time("delta.tables.level", None, req, || {
            let t = Instant::now();
            std::hint::black_box(CostTables::build_from_pattern(
                &lvl.pattern,
                problem.network(),
                CostModel::Full,
            ));
            t.elapsed().as_secs_f64()
        });
    }

    let evaluated = geo("search.swaps_evaluated");
    let accepted = geo("search.swaps_accepted");
    TracedSolve {
        values: vec![
            ("multilevel.solve_s", total),
            ("multilevel.coarsen_s", coarsen),
            ("multilevel.coarse_solve_s", coarse),
            ("multilevel.refine_s", refine),
            (
                "multilevel.unattributed_s",
                unattributed(total, &[coarsen, coarse, refine]),
            ),
            ("multilevel.levels", ml("levels")),
            ("multilevel.coarsest_n", last("level.vertices")),
            ("multilevel.coarsest_edges", last("level.edges")),
            ("multilevel.refine_swaps", swaps),
            ("multilevel.refine_moves", moves),
            ("geo.grouping_s", geo("phase.grouping")),
            ("geo.order_search_s", geo("phase.order_search")),
            ("geo.packing_s", geo("phase.packing")),
            ("geo.refinement_s", geo("phase.refinement")),
            ("geo.orders_evaluated", geo("search.orders_evaluated")),
            ("delta.swaps_evaluated", evaluated),
            ("delta.swaps_accepted", accepted),
            (
                "delta.accept_share",
                if evaluated > 0.0 {
                    accepted / evaluated
                } else {
                    0.0
                },
            ),
            ("delta.tables_s", tables_s),
        ],
        levels,
    }
}

/// Run a multilevel workload. The untraced pass solves each problem
/// once, then re-solves them round-robin until `seconds` of solving
/// have passed; `solve_s` is the median over all of those solves,
/// `solve_cost` the mean cost over the distinct problems. `between`
/// runs three times, outside the solve clock: before the first solve,
/// halfway through the first round and after the last solve. The traced
/// run repeats the untraced pass (the overhead baseline), then solves
/// each problem once more with the program's metrics and trace sinks
/// attached.
pub fn run(
    w: MlWorkload,
    seed: u64,
    seconds: f64,
    log: &mut SpanLog,
    report: &mut Report,
    mut between: impl FnMut(&mut SpanLog, &mut Report) -> Result<(), String>,
) -> Result<(), String> {
    let traced = log.enabled();
    let mut rng = Rng::new(seed ^ 0x3117_1E7E);
    let seeds: Vec<u64> = (0..w.problems).map(|_| rng.next_u64() >> 32).collect();
    report.notes.push(format!(
        "config: n={} problems={} seeds={seeds:?} {:?} regions=20",
        w.n,
        w.problems,
        MultilevelConfig::default()
    ));

    let mut setup = Vec::new();
    let mut problems = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let t0 = Instant::now();
        let p = generate(w.n, s, log, i as u64);
        setup.push(t0.elapsed().as_secs_f64());
        problems.push(p);
    }

    let plain =
        |p: &MappingProblem, s: u64| mapper(s, Metrics::off(), Metrics::off(), Trace::off()).map(p);
    let mut times = Vec::new();
    let mut mappings = Vec::new();
    let mut costs = Vec::new();
    between(log, report)?;
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    for (i, (p, &s)) in problems.iter().zip(&seeds).enumerate() {
        if i == problems.len() / 2 {
            let t0 = Instant::now();
            between(log, report)?;
            paused = t0.elapsed();
        }
        report.attempted += 1;
        let t0 = Instant::now();
        let m = plain(p, s);
        times.push(t0.elapsed().as_secs_f64());
        costs.push(check_solution(p, &m, report));
        mappings.push(m);
    }
    let mut k = 0;
    while (start.elapsed() - paused).as_secs_f64() < seconds {
        let i = k % problems.len();
        report.attempted += 1;
        let t0 = Instant::now();
        let m = plain(&problems[i], seeds[i]);
        times.push(t0.elapsed().as_secs_f64());
        report.check(m.as_slice() == mappings[i].as_slice(), || {
            format!("problem {i}: a re-solve returned a different mapping")
        });
        k += 1;
    }
    between(log, report)?;
    let solve_s = median(&times).expect("at least one solve");
    report.set("setup_s", median(&setup).expect("at least one problem"));
    report.set("solve_s", solve_s);
    report.set("solve_cost", costs.iter().sum::<f64>() / costs.len() as f64);
    report.notes.push(format!(
        "solves: {} over {} problems, median {solve_s:.4} s",
        times.len(),
        problems.len()
    ));

    if traced {
        let mut per: Vec<TracedSolve> = Vec::new();
        for (i, (p, &s)) in problems.iter().zip(&seeds).enumerate() {
            report.attempted += 1;
            per.push(traced_solve(p, s, log, i as u64, &mappings[i], report));
        }
        let names: Vec<&'static str> = per[0].values.iter().map(|(n, _)| *n).collect();
        for (j, name) in names.iter().enumerate() {
            let vals: Vec<f64> = per.iter().map(|t| t.values[j].1).collect();
            report.set(name, median(&vals).expect("traced solves"));
        }
        let last = LEVELS.len() - 1;
        for (k, name) in LEVELS.iter().enumerate() {
            let level = |t: &TracedSolve| -> f64 {
                if k < last {
                    t.levels.get(k).copied().unwrap_or(0.0)
                } else {
                    t.levels.iter().skip(last).sum()
                }
            };
            let vals: Vec<f64> = per.iter().map(level).collect();
            report.set(name, median(&vals).expect("traced solves"));
        }
        for (metric, span) in [
            ("geonet.network_s", "geonet.network"),
            ("commgraph.generate_s", "commgraph.generate"),
            ("core.problem_s", "core.problem"),
        ] {
            report.set(
                metric,
                median(&log.secs_of(span)).expect("generated problems"),
            );
        }
        let traced_total = median(&log.secs_of("multilevel.map")).expect("traced solves");
        let untraced_first = median(&times[..problems.len()]).expect("solves");
        report.set("trace.overhead", traced_total / untraced_first);
    }
    Ok(())
}
