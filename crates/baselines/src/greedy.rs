//! Greedy — Hoefler & Snir's generic topology-mapping heuristic
//! (ICS'11), the paper's state-of-the-art comparison.
//!
//! The heuristic grows the mapping greedily: start from the task with the
//! largest total data volume and map it to the machine with the highest
//! total bandwidth; then repeatedly take the unmapped task communicating
//! most heavily with the mapped set and put it on the site (with free
//! capacity) that maximizes the bandwidth-weighted affinity to its
//! already-mapped partners.
//!
//! Being purely bandwidth-driven and myopic, it excels on patterns with
//! strong locality (the paper finds it best-in-class on BT/SP/LU) but
//! degrades on complex patterns like K-means (< 5–10 % improvement in
//! the paper) — exactly the behaviour the evaluation harness checks.

use geomap_core::delta::CostTables;
use geomap_core::{CostModel, Mapper, Mapping, MappingProblem, Metrics, Trace, TraceScope};
use geonet::SiteId;

/// Relative window within which two site scores count as tied.
const TIE_REL: f64 = 1e-12;

/// The Greedy baseline.
#[derive(Debug, Clone, Default)]
pub struct GreedyMapper {
    /// Observability handle (off by default): placement count, candidate
    /// site scores evaluated, and the packing time.
    pub metrics: Metrics,
    /// Event-level tracing (off by default): one `packing` span on a
    /// `"search"/"Greedy"` track covering the greedy growth loop.
    pub trace: Trace,
}

impl Mapper for GreedyMapper {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn map(&self, problem: &MappingProblem) -> Mapping {
        let metrics = self.metrics.scoped(self.name());
        let trace = &self.trace;
        let tscope = TraceScope::new(trace, trace.track("search", self.name()));
        tscope.span_begin("packing");
        let (assignment, placements, scores_evaluated) = metrics.timed("phase.packing", || {
            let mut placements = 0u64;
            let mut scores_evaluated = 0u64;
            let n = problem.num_processes();
            let net = problem.network();
            let m = problem.num_sites();
            let partners = problem.partners();
            let tables = CostTables::build(problem, CostModel::Full);

            let mut assignment: Vec<Option<SiteId>> =
                (0..n).map(|i| problem.constraints().pin_of(i)).collect();
            let mut free = problem.free_capacities();

            // Symmetrized bandwidth between two sites.
            let bw = |a: SiteId, b: SiteId| (net.bandwidth(a, b) + net.bandwidth(b, a)) / 2.0;

            // attachment[i] = Σ over mapped partners of i of the exchanged
            // bytes (the "communication to the mapped set" key).
            let mut attachment = vec![0.0f64; n];
            for (q, a) in assignment.iter().enumerate() {
                if a.is_some() {
                    for p in &partners[q] {
                        attachment[p.peer] += p.bytes;
                    }
                }
            }

            let quantities: Vec<f64> = partners
                .iter()
                .map(|ps| ps.iter().map(|p| p.bytes).sum())
                .collect();

            let mut unmapped: usize = assignment.iter().filter(|a| a.is_none()).count();
            while unmapped > 0 {
                // Next task: heaviest attachment to the mapped set; break
                // ties (and the cold start) by total quantity, then index.
                let t = (0..n)
                    .filter(|&i| assignment[i].is_none())
                    .max_by(|&a, &b| {
                        attachment[a]
                            .total_cmp(&attachment[b])
                            .then(quantities[a].total_cmp(&quantities[b]))
                            .then(b.cmp(&a))
                    })
                    .expect("unmapped > 0");

                // Site choice: maximize bandwidth-weighted affinity to the
                // mapped partners; when the task has no mapped partners yet,
                // fall back to the site with the highest total bandwidth
                // (Hoefler & Snir's seeding rule).
                let mut scores: Vec<(SiteId, f64)> = Vec::with_capacity(m);
                for (j, &slots) in free.iter().enumerate().take(m) {
                    if slots == 0 {
                        continue;
                    }
                    let site = SiteId(j);
                    let mut score = 0.0;
                    let mut has_mapped_partner = false;
                    for p in &partners[t] {
                        if let Some(ps) = assignment[p.peer] {
                            has_mapped_partner = true;
                            score += p.bytes * bw(site, ps);
                        }
                    }
                    if !has_mapped_partner {
                        // Total outgoing bandwidth of the site.
                        score = (0..m).map(|l| bw(site, SiteId(l))).sum();
                    }
                    scores.push((site, score));
                }
                let best_score = scores
                    .iter()
                    .map(|&(_, s)| s)
                    .fold(f64::NEG_INFINITY, f64::max);
                // The bandwidth score ignores latency and is frequently tied
                // (uniform intra-site bandwidth). Break score ties by the
                // exact Eq. 3 attachment cost from the Δ-engine tables —
                // earliest site on exact ties, matching the old first-max
                // rule when nothing distinguishes the candidates.
                let site = scores
                    .iter()
                    .filter(|&&(_, s)| s >= best_score - TIE_REL * best_score.abs())
                    .map(|&(site, _)| (site, tables.placement_cost(&assignment, t, site)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .map(|(site, _)| site)
                    .expect("capacity >= N guarantees a free site");
                placements += 1;
                scores_evaluated += scores.len() as u64;
                assignment[t] = Some(site);
                free[site.index()] -= 1;
                unmapped -= 1;
                for p in &partners[t] {
                    attachment[p.peer] += p.bytes;
                }
            }
            (assignment, placements, scores_evaluated)
        });
        tscope.span_end("packing");

        metrics.counter("search.placements", placements);
        metrics.counter("search.site_scores_evaluated", scores_evaluated);
        Mapping::new(
            assignment
                .into_iter()
                .map(|a| a.expect("all mapped"))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomMapper;
    use commgraph::apps::{AppKind, Ring, Workload};
    use geomap_core::{cost, ConstraintVector};
    use geonet::{presets, InstanceType};

    fn ec2_problem(pattern: commgraph::CommPattern, nodes: usize) -> MappingProblem {
        let net = presets::paper_ec2_network(nodes, InstanceType::M4Xlarge, 1);
        MappingProblem::unconstrained(pattern, net)
    }

    #[test]
    fn feasible_on_all_apps() {
        for k in AppKind::ALL {
            let p = ec2_problem(k.workload(32).pattern(), 8);
            GreedyMapper::default().map(&p).validate(&p).unwrap();
        }
    }

    #[test]
    fn packs_a_ring_contiguously() {
        let p = ec2_problem(
            Ring {
                n: 16,
                iterations: 5,
                bytes: 1_000_000,
            }
            .pattern(),
            4,
        );
        let m = GreedyMapper::default().map(&p);
        // A ring has 16 edges; an optimal 4-way split cuts exactly 4.
        // Greedy growth from the heaviest vertex yields a near-optimal
        // packing: at most 6 cross-site edges.
        let cross = (0..16)
            .filter(|&i| m.site_of(i) != m.site_of((i + 1) % 16))
            .count();
        assert!(cross <= 6, "cross-site ring edges: {cross}");
    }

    #[test]
    fn beats_baseline_on_local_patterns() {
        let p = ec2_problem(AppKind::Lu.workload(64).pattern(), 16);
        let g = cost(&p, &GreedyMapper::default().map(&p));
        let r = cost(&p, &RandomMapper::with_seed(3).map(&p));
        assert!(g < 0.7 * r, "greedy {g} vs random {r}");
    }

    #[test]
    fn respects_constraints() {
        let net = presets::paper_ec2_network(8, InstanceType::M4Xlarge, 1);
        let pat = AppKind::KMeans.workload(32).pattern();
        let c = ConstraintVector::random(32, 0.4, &net.capacities(), 7);
        let p = MappingProblem::new(pat, net, c.clone());
        let m = GreedyMapper::default().map(&p);
        m.validate(&p).unwrap();
        assert!(c.satisfied_by(m.as_slice()));
    }

    #[test]
    fn deterministic() {
        let p = ec2_problem(AppKind::Sp.workload(36).pattern(), 9);
        assert_eq!(
            GreedyMapper::default().map(&p),
            GreedyMapper::default().map(&p)
        );
    }
}
