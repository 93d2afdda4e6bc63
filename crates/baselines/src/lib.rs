//! Baseline process-mapping algorithms (paper §5.1, "Comparisons").
//!
//! * [`RandomMapper`] — the paper's **Baseline**: uniformly random
//!   feasible mapping, "running directly in the geo-distributed data
//!   centers without any optimization".
//! * [`GreedyMapper`] — **Greedy**, Hoefler & Snir's generic topology-
//!   mapping heuristic for heterogeneous networks (ICS'11): bandwidth-
//!   driven greedy growth from the heaviest task.
//! * [`MpippMapper`] — **MPIPP** (Chen et al., ICS'06): randomized
//!   pairwise-exchange local search with restarts.
//! * [`ExhaustiveMapper`] — brute-force optimum for tiny instances; the
//!   oracle the tests compare heuristics against.
//! * [`MonteCarlo`] — best-of-K random sampling and cost-distribution
//!   sampling for the paper's Figs. 9 and 10.
//!
//! Every mapper honours data-movement constraints and site capacities.

#![warn(missing_docs)]

mod exhaustive;
mod greedy;
mod monte_carlo;
mod mpipp;
mod random;

pub use exhaustive::ExhaustiveMapper;
pub use greedy::GreedyMapper;
pub use monte_carlo::MonteCarlo;
pub use mpipp::MpippMapper;
pub use random::{random_mapping, RandomMapper};

use geomap_core::{
    GeoMapper, Mapper, MappingProblem, Metrics, MultilevelConfig, MultilevelMapper, Trace,
};

/// Every algorithm name [`mapper_by_name`] builds, in the order its
/// refusal lists them.
pub const ALGORITHMS: [&str; 6] = [
    "geo",
    "greedy",
    "mpipp",
    "random",
    "montecarlo",
    "multilevel",
];

/// The knobs [`mapper_by_name`] builds a mapper with; each algorithm
/// reads the ones it has and ignores the rest.
#[derive(Debug, Clone)]
pub struct MapperSpec {
    /// Seed of the randomized mappers (and of Geo's order sampling).
    pub seed: u64,
    /// Geo's κ, also used by the multilevel mapper's coarse Geo solve.
    pub kappa: usize,
    /// Monte Carlo's sample count.
    pub samples: usize,
    /// The multilevel mapper's coarsening and refinement knobs.
    pub multilevel: MultilevelConfig,
    /// Trace handle wired into every mapper that records search spans.
    pub trace: Trace,
}

/// The refusal for a name outside [`ALGORITHMS`].
pub fn unknown_algorithm(name: &str) -> String {
    format!("unknown algorithm {name:?} ({})", ALGORITHMS.join("|"))
}

/// Build the mapper an algorithm name stands for — the one table the
/// CLI and the mapping service both construct mappers from, so the same
/// name and knobs give the same mapping whichever front-end asked.
pub fn mapper_by_name(name: &str, spec: &MapperSpec) -> Result<Box<dyn Mapper>, String> {
    let geo = || GeoMapper {
        seed: spec.seed,
        kappa: spec.kappa,
        trace: spec.trace.clone(),
        ..GeoMapper::default()
    };
    Ok(match name {
        "geo" => Box::new(geo()),
        "greedy" => Box::new(GreedyMapper {
            trace: spec.trace.clone(),
            ..GreedyMapper::default()
        }),
        "mpipp" => Box::new(MpippMapper {
            trace: spec.trace.clone(),
            ..MpippMapper::with_seed(spec.seed)
        }),
        "random" => Box::new(RandomMapper::with_seed(spec.seed)),
        "montecarlo" => Box::new(MonteCarlo {
            trace: spec.trace.clone(),
            ..MonteCarlo::new(spec.samples, spec.seed)
        }),
        "multilevel" => Box::new(MultilevelMapper {
            config: spec.multilevel,
            inner: geo(),
            trace: spec.trace.clone(),
            ..MultilevelMapper::default()
        }),
        other => return Err(unknown_algorithm(other)),
    })
}

/// The paper's three comparison mappers plus the proposed one, in figure
/// order: Greedy, MPIPP, Geo-distributed.
pub fn paper_mappers(seed: u64) -> Vec<Box<dyn Mapper + Sync>> {
    paper_mappers_instrumented(seed, &Metrics::off(), &Trace::off())
}

/// [`paper_mappers`] with every mapper wired to `metrics` — each scopes
/// itself under its own name, so one handle yields a comparable set of
/// per-mapper search statistics.
pub fn paper_mappers_with_metrics(seed: u64, metrics: &Metrics) -> Vec<Box<dyn Mapper + Sync>> {
    paper_mappers_instrumented(seed, metrics, &Trace::off())
}

/// [`paper_mappers`] with every mapper wired to both observability
/// handles: scoped `metrics` plus event-level `trace` — each mapper
/// records its search phases on its own `"search"` track, so one trace
/// file shows the three algorithms' timelines side by side.
pub fn paper_mappers_instrumented(
    seed: u64,
    metrics: &Metrics,
    trace: &Trace,
) -> Vec<Box<dyn Mapper + Sync>> {
    vec![
        Box::new(GreedyMapper {
            metrics: metrics.clone(),
            trace: trace.clone(),
        }),
        Box::new(MpippMapper {
            metrics: metrics.clone(),
            trace: trace.clone(),
            ..MpippMapper::with_seed(seed)
        }),
        Box::new(GeoMapper {
            seed,
            metrics: metrics.clone(),
            trace: trace.clone(),
            ..GeoMapper::default()
        }),
    ]
}

/// Mean cost of `samples` Baseline (random) mappings — the normalization
/// denominator of Figs. 5–7 ("normalized to the average of Baseline").
pub fn baseline_mean_cost(problem: &MappingProblem, samples: usize, seed: u64) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let total: f64 = (0..samples)
        .map(|i| {
            let m = RandomMapper::with_seed(seed.wrapping_add(i as u64)).map(problem);
            geomap_core::cost(problem, &m)
        })
        .sum();
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use commgraph::apps::{RandomGraph, Workload};
    use geomap_core::cost;
    use geonet::{presets, InstanceType};

    fn problem() -> MappingProblem {
        let net = presets::paper_ec2_network(8, InstanceType::M4Xlarge, 1);
        let pat = RandomGraph {
            n: 32,
            degree: 4,
            max_bytes: 500_000,
            seed: 2,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn paper_mappers_are_three_and_feasible() {
        let p = problem();
        let mappers = paper_mappers(1);
        assert_eq!(mappers.len(), 3);
        assert_eq!(mappers[0].name(), "Greedy");
        assert_eq!(mappers[1].name(), "MPIPP");
        assert_eq!(mappers[2].name(), "Geo-distributed");
        for m in &mappers {
            m.map(&p).validate(&p).unwrap();
        }
    }

    #[test]
    fn traced_mappers_match_untraced_and_cover_search_tracks() {
        use geomap_core::{RingBufferSink, TraceEventKind};
        let p = problem();
        let sink = std::sync::Arc::new(RingBufferSink::new(1 << 16));
        let trace = Trace::new(sink.clone());
        let traced = paper_mappers_instrumented(1, &Metrics::off(), &trace);
        let plain = paper_mappers(1);
        for (t, u) in traced.iter().zip(&plain) {
            assert_eq!(
                t.map(&p),
                u.map(&p),
                "{}: tracing changed the result",
                t.name()
            );
        }
        let tracks = sink.tracks();
        for name in ["Greedy", "MPIPP", "Geo-distributed"] {
            assert!(
                tracks
                    .iter()
                    .any(|t| t.process == "search" && t.name == name),
                "missing search track for {name}"
            );
        }
        let events = sink.snapshot();
        assert!(events
            .iter()
            .any(|e| e.kind == TraceEventKind::SpanBegin && e.name == "pass"));
        assert!(events
            .iter()
            .any(|e| e.kind == TraceEventKind::Instant && e.name == "swap"));
        // Every span opened on a track is closed on it.
        for t in &tracks {
            let b = events
                .iter()
                .filter(|e| e.track == t.id && e.kind == TraceEventKind::SpanBegin)
                .count();
            let e = events
                .iter()
                .filter(|e| e.track == t.id && e.kind == TraceEventKind::SpanEnd)
                .count();
            assert_eq!(b, e, "unbalanced spans on {}", t.name);
        }
    }

    #[test]
    fn baseline_mean_is_above_optimized_costs() {
        let p = problem();
        let mean = baseline_mean_cost(&p, 20, 3);
        for mapper in paper_mappers(1) {
            let c = cost(&p, &mapper.map(&p));
            assert!(
                c < mean,
                "{} cost {c} not below baseline mean {mean}",
                mapper.name()
            );
        }
    }
}
