//! Multi-site data-movement constraints — the paper's stated extension.
//!
//! §3.1 limits itself to single-site pins and says: *"we only consider
//! the data movement constraint on individual sites and leave the
//! extension to multiple site constraints in our future work."* This
//! module is that extension: each process may carry an **allowed-site
//! set** (e.g. "any EU region" for GDPR data), generalizing both the
//! unconstrained case (all sites allowed) and the pinned case (a
//! singleton set).
//!
//! Feasibility is no longer a per-site counting argument — it is a
//! capacity-aware bipartite matching problem (Hall's condition over the
//! allowed sets), solved here with Kuhn's augmenting-path algorithm.
//! [`GeoMapperMulti`] runs Algorithm 1 with set-aware seeding/packing
//! and falls back to augmenting paths when a greedy placement would
//! strand a process.

use crate::geo::{GeoMapper, Seeding};
use crate::mapping::Mapping;
use crate::problem::MappingProblem;
use geonet::SiteId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-process allowed-site sets. `None` means "anywhere".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedSites {
    allowed: Vec<Option<Vec<SiteId>>>,
}

impl AllowedSites {
    /// No restrictions on any of `n` processes.
    pub fn unrestricted(n: usize) -> Self {
        Self {
            allowed: vec![None; n],
        }
    }

    /// Build from explicit sets. Sets are deduplicated and sorted; an
    /// empty set is rejected (it can never be satisfied).
    ///
    /// # Panics
    /// Panics on an explicitly empty allowed set.
    pub fn new(allowed: Vec<Option<Vec<SiteId>>>) -> Self {
        let allowed = allowed
            .into_iter()
            .enumerate()
            .map(|(i, set)| {
                set.map(|mut s| {
                    s.sort_unstable();
                    s.dedup();
                    assert!(!s.is_empty(), "process {i} has an empty allowed set");
                    s
                })
            })
            .collect();
        Self { allowed }
    }

    /// Restrict process `i` to `sites`.
    pub fn restrict(&mut self, i: usize, sites: &[SiteId]) {
        assert!(!sites.is_empty(), "allowed set must be non-empty");
        let mut s = sites.to_vec();
        s.sort_unstable();
        s.dedup();
        self.allowed[i] = Some(s);
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.allowed.len()
    }

    /// True when there are no processes.
    pub fn is_empty(&self) -> bool {
        self.allowed.is_empty()
    }

    /// Is `site` allowed for process `i`?
    #[inline]
    pub fn permits(&self, i: usize, site: SiteId) -> bool {
        match &self.allowed[i] {
            None => true,
            Some(s) => s.binary_search(&site).is_ok(),
        }
    }

    /// The explicit set of process `i` (`None` = all sites).
    pub fn set_of(&self, i: usize) -> Option<&[SiteId]> {
        self.allowed[i].as_deref()
    }

    /// Fraction of processes with a restriction.
    pub fn restricted_ratio(&self) -> f64 {
        if self.allowed.is_empty() {
            return 0.0;
        }
        self.allowed.iter().filter(|a| a.is_some()).count() as f64 / self.allowed.len() as f64
    }

    /// Does `mapping` satisfy every allowed set?
    pub fn satisfied_by(&self, mapping: &[SiteId]) -> bool {
        mapping.len() == self.allowed.len()
            && mapping.iter().enumerate().all(|(i, &s)| self.permits(i, s))
    }

    /// Check feasibility against site capacities via matching: returns a
    /// witness assignment if one exists.
    pub fn feasible_assignment(&self, capacities: &[usize]) -> Option<Vec<SiteId>> {
        Matcher::new(self, capacities).solve()
    }
}

/// Kuhn's algorithm over processes × sites with site capacities.
struct Matcher<'a> {
    allowed: &'a AllowedSites,
    caps: Vec<usize>,
    /// assignment[i] = site of process i (usize::MAX = unassigned)
    assignment: Vec<usize>,
    /// used[j] = processes currently on site j
    used: Vec<Vec<usize>>,
}

impl<'a> Matcher<'a> {
    fn new(allowed: &'a AllowedSites, capacities: &[usize]) -> Self {
        Self {
            allowed,
            caps: capacities.to_vec(),
            assignment: vec![usize::MAX; allowed.len()],
            used: vec![Vec::new(); capacities.len()],
        }
    }

    fn candidate_sites(&self, i: usize) -> Vec<usize> {
        match self.allowed.set_of(i) {
            Some(s) => s.iter().map(|x| x.index()).collect(),
            None => (0..self.caps.len()).collect(),
        }
    }

    /// Try to place process `i`, evicting/augmenting if needed.
    fn augment(&mut self, i: usize, visited_sites: &mut [bool]) -> bool {
        for j in self.candidate_sites(i) {
            if visited_sites[j] {
                continue;
            }
            visited_sites[j] = true;
            if self.used[j].len() < self.caps[j] {
                self.place(i, j);
                return true;
            }
            // Try to relocate one current occupant of j elsewhere.
            for k in 0..self.used[j].len() {
                let occupant = self.used[j][k];
                if self.augment(occupant, visited_sites) {
                    // occupant moved; j freed one slot (remove handled in
                    // place() via retain below — occupant may have been
                    // re-placed on j? no: j is visited).
                    self.used[j].retain(|&p| p != occupant || self.assignment[p] == j);
                    if self.used[j].len() < self.caps[j] {
                        self.place(i, j);
                        return true;
                    }
                }
            }
        }
        false
    }

    fn place(&mut self, i: usize, j: usize) {
        // Remove i from its previous site, if any.
        let prev = self.assignment[i];
        if prev != usize::MAX {
            self.used[prev].retain(|&p| p != i);
        }
        self.assignment[i] = j;
        self.used[j].push(i);
    }

    fn solve(mut self) -> Option<Vec<SiteId>> {
        let n = self.allowed.len();
        // Most-constrained processes first (smallest allowed sets).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| self.allowed.set_of(i).map_or(usize::MAX, <[SiteId]>::len));
        for i in order {
            let mut visited = vec![false; self.caps.len()];
            if !self.augment(i, &mut visited) {
                return None;
            }
        }
        Some(self.assignment.into_iter().map(SiteId).collect())
    }
}

/// Algorithm 1 generalized to allowed-site sets.
///
/// The greedy packing only offers a site to processes whose sets permit
/// it; if the greedy pass strands processes (greedy choices can violate
/// Hall's condition even on feasible instances), the stranded tail is
/// placed by augmenting paths starting from the greedy partial
/// assignment, so the mapper succeeds on **every feasible instance**.
#[derive(Debug, Clone)]
pub struct GeoMapperMulti {
    /// The underlying Geo-distributed configuration (κ, seed, order
    /// search, parallelism, objective).
    pub base: GeoMapper,
    /// The allowed-site sets.
    pub allowed: AllowedSites,
}

impl GeoMapperMulti {
    /// Create with the paper-default base configuration.
    pub fn new(allowed: AllowedSites) -> Self {
        Self {
            base: GeoMapper::default(),
            allowed,
        }
    }

    /// Map `problem` honouring the allowed sets (single-site constraints
    /// in `problem` are honoured too — a pin is an implicit singleton
    /// set).
    ///
    /// # Panics
    /// Panics if the instance is infeasible (no assignment satisfies the
    /// sets within capacities) or the set vector length mismatches.
    pub fn map(&self, problem: &MappingProblem) -> Mapping {
        let n = problem.num_processes();
        assert_eq!(
            self.allowed.len(),
            n,
            "allowed sets must cover every process"
        );
        // Merge single-site pins into the allowed sets.
        let mut allowed = self.allowed.clone();
        for i in 0..n {
            if let Some(pin) = problem.constraints().pin_of(i) {
                assert!(
                    allowed.permits(i, pin),
                    "process {i} pinned to {pin} outside its allowed set"
                );
                allowed.restrict(i, &[pin]);
            }
        }
        let caps = problem.capacities();
        assert!(
            allowed.feasible_assignment(&caps).is_some(),
            "infeasible multi-site constraint instance"
        );

        // The shared order search under its own scope, so a pipeline
        // running both Geo mappers stays distinguishable. Pins are
        // singleton allowed sets, so `permits` alone gates the polish.
        self.base.search_orders(
            "Geo-multi",
            problem,
            |groups, order, by_quantity| {
                self.map_order(problem, &allowed, groups, order, by_quantity)
            },
            |_| true,
            |i, s| allowed.permits(i, s),
        )
    }

    fn map_order(
        &self,
        problem: &MappingProblem,
        allowed: &AllowedSites,
        groups: &[Vec<SiteId>],
        order: &[usize],
        by_quantity: &[usize],
    ) -> Mapping {
        let n = problem.num_processes();
        let partners = problem.partners();
        let mut assignment: Vec<Option<SiteId>> = vec![None; n];
        let mut selected = vec![false; n];
        let mut free_caps = problem.capacities();
        let mut remaining = n;
        let mut rng = StdRng::seed_from_u64(self.base.seed);
        let mut affinity = vec![0.0f64; n];
        let mut heap = crate::geo::AffinityHeap::with_capacity(n);

        'outer: for &gi in order {
            let group = &groups[gi];
            let mut site_done = vec![false; group.len()];
            for _ in 0..group.len() {
                if remaining == 0 {
                    break 'outer;
                }
                let Some((slot, &site)) = group
                    .iter()
                    .enumerate()
                    .filter(|(idx, s)| !site_done[*idx] && free_caps[s.index()] > 0)
                    .max_by_key(|(_, s)| free_caps[s.index()])
                else {
                    break;
                };
                site_done[slot] = true;

                affinity.iter_mut().for_each(|a| *a = 0.0);
                let eligible =
                    |t: usize, selected: &[bool]| !selected[t] && allowed.permits(t, site);

                let seed_proc = match self.base.seeding {
                    Seeding::Heaviest => by_quantity
                        .iter()
                        .copied()
                        .find(|&t| eligible(t, &selected)),
                    Seeding::Random => {
                        let free: Vec<usize> = (0..n).filter(|&t| eligible(t, &selected)).collect();
                        (!free.is_empty()).then(|| free[rng.random_range(0..free.len())])
                    }
                };
                let Some(t0) = seed_proc else { continue };
                assignment[t0] = Some(site);
                selected[t0] = true;
                free_caps[site.index()] -= 1;
                remaining -= 1;
                for p in &partners[t0] {
                    affinity[p.peer] += problem.edge_weight(p);
                }

                heap.rebuild(&affinity, &selected);
                while free_caps[site.index()] > 0 && remaining > 0 {
                    let Some(t) = heap.pop_where(&affinity, |t| eligible(t, &selected)) else {
                        break;
                    };
                    assignment[t] = Some(site);
                    selected[t] = true;
                    free_caps[site.index()] -= 1;
                    remaining -= 1;
                    for p in &partners[t] {
                        if !selected[p.peer] {
                            affinity[p.peer] += problem.edge_weight(p);
                            heap.push(p.peer, affinity[p.peer]);
                        }
                    }
                }
            }
        }

        if remaining > 0 {
            // Greedy stranded some processes; finish with augmenting
            // paths seeded from the partial assignment.
            repair(&mut assignment, allowed, &problem.capacities());
        }
        Mapping::new(
            assignment
                .into_iter()
                .map(|a| a.expect("repair completes"))
                .collect(),
        )
    }
}

/// Complete a partial assignment via augmenting paths. The instance was
/// verified feasible up front, so this always succeeds.
fn repair(assignment: &mut [Option<SiteId>], allowed: &AllowedSites, caps: &[usize]) {
    let mut matcher = Matcher::new(allowed, caps);
    for (i, a) in assignment.iter().enumerate() {
        if let Some(site) = a {
            matcher.place(i, site.index());
        }
    }
    let unplaced: Vec<usize> = (0..assignment.len())
        .filter(|&i| assignment[i].is_none())
        .collect();
    for i in unplaced {
        let mut visited = vec![false; caps.len()];
        let ok = matcher.augment(i, &mut visited);
        assert!(ok, "repair failed on a feasible instance (process {i})");
    }
    for (i, a) in assignment.iter_mut().enumerate() {
        *a = Some(SiteId(matcher.assignment[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use crate::Mapper as _;
    use commgraph::apps::{RandomGraph, Workload};
    use geonet::{presets, InstanceType};

    fn problem(n: usize, nodes: usize, seed: u64) -> MappingProblem {
        let net = presets::paper_ec2_network(nodes, InstanceType::M4Xlarge, seed);
        let pat = RandomGraph {
            n,
            degree: 3,
            max_bytes: 400_000,
            seed,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    #[test]
    fn unrestricted_behaves_like_geo() {
        use crate::geo::OrderSearch;
        let p = problem(16, 4, 1);
        for order_search in [
            OrderSearch::Exhaustive,
            OrderSearch::FirstOnly,
            OrderSearch::Random { samples: 3 },
        ] {
            let base = GeoMapper {
                order_search,
                ..GeoMapper::default()
            };
            let multi = GeoMapperMulti {
                base: base.clone(),
                allowed: AllowedSites::unrestricted(16),
            }
            .map(&p);
            // Same algorithm, same config: identical mapping.
            assert_eq!(multi, base.map(&p), "{order_search:?}");
        }
    }

    #[test]
    fn reports_the_same_layers_as_geo() {
        use crate::metrics::{MemorySink, Metrics};
        use crate::trace::{RingBufferSink, Trace, TraceEventKind};
        use std::collections::BTreeSet;
        use std::sync::Arc;

        let p = problem(16, 4, 7);
        let names = |scope: &str, sink: &MemorySink| -> BTreeSet<String> {
            sink.snapshot()
                .into_iter()
                .filter(|r| r.scope == scope)
                .map(|r| r.name)
                .collect()
        };
        let geo_sink = Arc::new(MemorySink::new());
        GeoMapper {
            metrics: Metrics::new(geo_sink.clone()),
            ..GeoMapper::default()
        }
        .map(&p);
        let sink = Arc::new(MemorySink::new());
        let ring = Arc::new(RingBufferSink::new(1 << 16));
        let mut multi = GeoMapperMulti::new(AllowedSites::unrestricted(16));
        multi.base.metrics = Metrics::new(sink.clone());
        multi.base.trace = Trace::new(ring.clone());
        multi.map(&p);

        let reported = names("Geo-multi", &sink);
        for phase in [
            "phase.grouping",
            "phase.order_search",
            "phase.packing",
            "phase.refinement",
        ] {
            assert!(reported.contains(phase), "missing {phase}: {reported:?}");
        }
        assert_eq!(reported, names("Geo-distributed", &geo_sink));

        let track = ring
            .tracks()
            .into_iter()
            .find(|t| t.process == "search" && t.name == "Geo-multi")
            .expect("a search/Geo-multi track")
            .id;
        let spans: BTreeSet<&str> = ring
            .snapshot()
            .iter()
            .filter(|e| e.track == track && e.kind == TraceEventKind::SpanBegin)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            spans,
            BTreeSet::from(["grouping", "order_search", "refinement"])
        );
    }

    #[test]
    fn allowed_sets_are_honoured() {
        let p = problem(16, 4, 2);
        let mut allowed = AllowedSites::unrestricted(16);
        // First four processes: EU-ish subset {2, 3}.
        for i in 0..4 {
            allowed.restrict(i, &[SiteId(2), SiteId(3)]);
        }
        let m = GeoMapperMulti::new(allowed.clone()).map(&p);
        m.validate(&p).unwrap();
        assert!(allowed.satisfied_by(m.as_slice()));
        for i in 0..4 {
            assert!(m.site_of(i) == SiteId(2) || m.site_of(i) == SiteId(3));
        }
    }

    #[test]
    fn singleton_sets_equal_pins() {
        let p = problem(8, 2, 3);
        let mut allowed = AllowedSites::unrestricted(8);
        allowed.restrict(5, &[SiteId(1)]);
        let m = GeoMapperMulti::new(allowed).map(&p);
        assert_eq!(m.site_of(5), SiteId(1));
    }

    #[test]
    fn tight_instance_is_fully_packed() {
        // Capacity exactly matches and every process is restricted to
        // two sites; Hall's condition is tight.
        let p = problem(8, 2, 4);
        let mut allowed = AllowedSites::unrestricted(8);
        for i in 0..8 {
            let a = i % 4;
            allowed.restrict(i, &[SiteId(a), SiteId((a + 1) % 4)]);
        }
        let m = GeoMapperMulti::new(allowed.clone()).map(&p);
        m.validate(&p).unwrap();
        assert!(allowed.satisfied_by(m.as_slice()));
    }

    #[test]
    fn matcher_detects_infeasibility() {
        // 3 processes all restricted to a site with capacity 2.
        let mut allowed = AllowedSites::unrestricted(3);
        for i in 0..3 {
            allowed.restrict(i, &[SiteId(0)]);
        }
        assert!(allowed.feasible_assignment(&[2, 5]).is_none());
        assert!(allowed.feasible_assignment(&[3, 5]).is_some());
    }

    #[test]
    fn matcher_uses_augmenting_paths() {
        // p0 can go anywhere, p1 only site 0; capacity 1 each. A naive
        // greedy placing p0 on site 0 first must evict it.
        let mut allowed = AllowedSites::unrestricted(2);
        allowed.restrict(1, &[SiteId(0)]);
        let witness = allowed.feasible_assignment(&[1, 1]).expect("feasible");
        assert_eq!(witness[1], SiteId(0));
        assert_eq!(witness[0], SiteId(1));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_instance_panics_in_map() {
        let p = problem(8, 2, 5);
        let mut allowed = AllowedSites::unrestricted(8);
        for i in 0..4 {
            allowed.restrict(i, &[SiteId(0)]); // capacity 2 < 4
        }
        GeoMapperMulti::new(allowed).map(&p);
    }

    #[test]
    #[should_panic(expected = "empty allowed set")]
    fn empty_set_rejected() {
        AllowedSites::new(vec![Some(vec![])]);
    }

    #[test]
    fn restriction_costs_performance_monotonically() {
        // More freedom can only help the objective.
        let p = problem(16, 4, 6);
        let free = cost(
            &p,
            &GeoMapperMulti::new(AllowedSites::unrestricted(16)).map(&p),
        );
        let mut allowed = AllowedSites::unrestricted(16);
        for i in 0..8 {
            allowed.restrict(i, &[SiteId(i % 4)]);
        }
        let tight = cost(&p, &GeoMapperMulti::new(allowed).map(&p));
        assert!(free <= tight + 1e-9, "freedom hurt: {free} vs {tight}");
    }

    #[test]
    fn restricted_ratio() {
        let mut a = AllowedSites::unrestricted(4);
        assert_eq!(a.restricted_ratio(), 0.0);
        a.restrict(0, &[SiteId(1)]);
        a.restrict(3, &[SiteId(0), SiteId(2)]);
        assert_eq!(a.restricted_ratio(), 0.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_feasible_instances_always_mapped(seed in 0u64..500) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = problem(12, 3, seed);
            // Random sets of size 2-4 (out of 4 sites) for a random subset
            // of processes; reject infeasible draws.
            let mut allowed = AllowedSites::unrestricted(12);
            for i in 0..12 {
                if rng.random_range(0..2) == 0 {
                    let size = rng.random_range(2..=4usize);
                    let start = rng.random_range(0..4usize);
                    let set: Vec<SiteId> = (0..size).map(|k| SiteId((start + k) % 4)).collect();
                    allowed.restrict(i, &set);
                }
            }
            proptest::prop_assume!(allowed.feasible_assignment(&p.capacities()).is_some());
            let m = GeoMapperMulti::new(allowed.clone()).map(&p);
            proptest::prop_assert!(m.validate(&p).is_ok());
            proptest::prop_assert!(allowed.satisfied_by(m.as_slice()));
        }
    }
}
