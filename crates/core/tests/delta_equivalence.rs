//! Equivalence harness for the incremental Δ-cost engine.
//!
//! Pins `CostEvaluator` (cached `O(deg)` deltas) to the ground truth on
//! three levels:
//!
//! 1. **Delta equivalence** — `swap_delta`/`move_delta` match a full
//!    Eq. 3 recompute within `1e-9` relative, over randomized `CG`/`AG`
//!    patterns, randomized `LT`/`BT` matrices, random constraint
//!    vectors, and long randomized apply/revert sequences (proptest).
//! 2. **Exhaustive small instances** — every one of the `N·(N−1)/2`
//!    swaps for `N ≤ 16`, all three cost models.
//! 3. **Oracle regression** — `GeoMapper` produces *bit-identical*
//!    mappings whether its refinement runs on the incremental engine or
//!    the full-recompute oracle, on the Fig. 5 mini-setup (4 sites × 16
//!    nodes, N = 64, all five paper workloads). The MPIPP twin of this
//!    test lives in the baselines crate (`mpipp::tests`).

use commgraph::apps::AppKind;
use commgraph::pattern::PatternBuilder;
use commgraph::CommPattern;
use geomap_core::delta::{CostEval, CostEvaluator, CostTables, Evaluation, FullRecomputeEval};
use geomap_core::{
    cost_with_model, ConstraintVector, CostModel, GeoMapper, Mapper, Mapping, MappingProblem,
};
use geonet::{presets, GeoCoord, InstanceType, Site, SiteNetwork, SquareMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random problem: `n` processes over `m` sites with random directed
/// `CG`/`AG` (density ~`degree/n`) and random positive `LT`/`BT`.
fn random_problem(n: usize, m: usize, seed: u64) -> MappingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = PatternBuilder::new(n);
    let edges = (n * 3).max(4);
    for _ in 0..edges {
        let src = rng.random_range(0..n);
        let dst = rng.random_range(0..n);
        if src == dst {
            continue;
        }
        let bytes = rng.random_range(1..2_000_000u64);
        let msgs = rng.random_range(1..64u64);
        b.record_many(src, dst, bytes, msgs);
    }
    let pattern = ensure_nonempty(b.build(), n);
    let sites: Vec<Site> = (0..m)
        .map(|k| {
            Site::new(
                format!("s{k}"),
                GeoCoord::new(k as f64, -(k as f64)),
                n.div_ceil(m),
            )
        })
        .collect();
    let lt = SquareMatrix::from_fn(m, |k, l| {
        if k == l {
            rng.random_range(1e-5..1e-4)
        } else {
            rng.random_range(1e-3..0.2)
        }
    });
    let bt = SquareMatrix::from_fn(m, |k, l| {
        if k == l {
            rng.random_range(1e9..1e10)
        } else {
            rng.random_range(1e6..1e8)
        }
    });
    let net = SiteNetwork::new(sites, lt, bt);
    let constraints = if rng.random_bool(0.5) {
        ConstraintVector::random(
            n,
            rng.random_range(0.1..0.5),
            &net.capacities(),
            seed ^ 0xC1,
        )
    } else {
        ConstraintVector::none(n)
    };
    MappingProblem::new(pattern, net, constraints)
}

/// An all-isolated pattern breaks nothing, but make the common case a
/// connected one: add a ring edge when the random draw came up empty.
fn ensure_nonempty(pattern: CommPattern, n: usize) -> CommPattern {
    if (0..n).any(|i| !pattern.out_edges(i).is_empty()) {
        return pattern;
    }
    let mut b = PatternBuilder::new(n);
    for i in 0..n {
        b.record_many(i, (i + 1) % n, 1000, 1);
    }
    b.build()
}

/// Random feasible assignment honouring capacities and pins.
fn random_assignment(problem: &MappingProblem, rng: &mut StdRng) -> Vec<geonet::SiteId> {
    let n = problem.num_processes();
    let mut free = problem.free_capacities();
    let mut sites: Vec<Option<geonet::SiteId>> =
        (0..n).map(|i| problem.constraints().pin_of(i)).collect();
    for s in sites.iter_mut() {
        if s.is_none() {
            loop {
                let k = rng.random_range(0..free.len());
                if free[k] > 0 {
                    free[k] -= 1;
                    *s = Some(geonet::SiteId(k));
                    break;
                }
            }
        }
    }
    sites.into_iter().map(|s| s.unwrap()).collect()
}

/// Relative-tolerance check scaled by the instance's total cost.
fn assert_close(label: &str, got: f64, want: f64, scale: f64) {
    assert!(
        (got - want).abs() <= 1e-9 * scale.abs().max(1.0),
        "{label}: incremental {got} vs full recompute {want} (scale {scale})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: every swap delta matches the full Eq. 3 recompute.
    #[test]
    fn prop_swap_delta_matches_full_recompute(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A);
        let n = rng.random_range(4..40usize);
        let m = rng.random_range(2..6usize);
        let problem = random_problem(n, m, seed);
        let tables = CostTables::build(&problem, CostModel::Full);
        let sites = random_assignment(&problem, &mut rng);
        let eval = CostEvaluator::new(&tables, sites.clone());
        let scale = tables.total(&sites);
        for _ in 0..32 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            let mut swapped = sites.clone();
            swapped.swap(a, b);
            let want = tables.total(&swapped) - tables.total(&sites);
            // Same-site swaps are exact no-ops for the engine.
            let want = if sites[a] == sites[b] { 0.0 } else { want };
            prop_assert!((eval.swap_delta(a, b) - want).abs() <= 1e-9 * scale.max(1.0));
        }
    }

    /// Property 2: every move delta matches the full Eq. 3 recompute.
    #[test]
    fn prop_move_delta_matches_full_recompute(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
        let n = rng.random_range(4..40usize);
        let m = rng.random_range(2..6usize);
        let problem = random_problem(n, m, seed);
        let tables = CostTables::build(&problem, CostModel::Full);
        let sites = random_assignment(&problem, &mut rng);
        let eval = CostEvaluator::new(&tables, sites.clone());
        let scale = tables.total(&sites);
        for _ in 0..32 {
            let i = rng.random_range(0..n);
            let to = geonet::SiteId(rng.random_range(0..m));
            let mut moved = sites.clone();
            moved[i] = to;
            let want = if sites[i] == to { 0.0 } else { tables.total(&moved) - tables.total(&sites) };
            prop_assert!((eval.move_delta(i, to) - want).abs() <= 1e-9 * scale.max(1.0));
        }
    }

    /// Property 3: long randomized apply/revert sequences keep the
    /// incremental engine in lockstep with the oracle, and reverting the
    /// whole sequence restores the initial state bitwise.
    #[test]
    fn prop_apply_revert_sequences_stay_in_lockstep(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E57);
        let n = rng.random_range(6..32usize);
        let m = rng.random_range(2..5usize);
        let problem = random_problem(n, m, seed);
        let tables = CostTables::build(&problem, CostModel::Full);
        let sites = random_assignment(&problem, &mut rng);
        let mut inc = CostEvaluator::new(&tables, sites.clone());
        let mut full = FullRecomputeEval::new(&tables, sites.clone());
        let initial_total = inc.total();
        let scale = initial_total.abs().max(1.0);

        let mut live_ops = 0usize;
        for _ in 0..120 {
            match rng.random_range(0..4u32) {
                // Swap two random processes.
                0 | 1 => {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    let da = inc.apply_swap(a, b);
                    let db = full.apply_swap(a, b);
                    prop_assert!((da - db).abs() <= 1e-9 * scale);
                    live_ops += 1;
                }
                // Move a random process (capacity ignored on purpose:
                // delta math is independent of feasibility).
                2 => {
                    let i = rng.random_range(0..n);
                    let to = geonet::SiteId(rng.random_range(0..m));
                    let da = inc.apply_move(i, to);
                    let db = full.apply_move(i, to);
                    prop_assert!((da - db).abs() <= 1e-9 * scale);
                    live_ops += 1;
                }
                // Revert the most recent op on both engines.
                _ => {
                    let ra = inc.revert();
                    let rb = full.revert();
                    prop_assert_eq!(ra, rb);
                    live_ops = live_ops.saturating_sub(1);
                }
            }
            prop_assert_eq!(inc.sites(), full.sites());
            prop_assert!((inc.total() - full.total()).abs() <= 1e-9 * scale);
            // The incremental total must also track a fresh recompute.
            prop_assert!((inc.total() - tables.total(inc.sites())).abs() <= 1e-9 * scale);
        }
        // Unwind everything: exact initial state, bitwise.
        for _ in 0..live_ops {
            prop_assert!(inc.revert());
        }
        prop_assert!(!inc.revert());
        prop_assert_eq!(inc.sites(), &sites[..]);
        prop_assert_eq!(inc.total().to_bits(), initial_total.to_bits());
    }
}

/// Exhaustive: all N·(N−1)/2 swaps on every instance with N ≤ 16, under
/// all three cost models, against a brute-force recompute.
#[test]
fn exhaustive_all_swaps_small_instances() {
    for n in [2usize, 3, 5, 8, 12, 16] {
        for seed in 0..4u64 {
            let m = (n / 2).clamp(2, 5);
            let problem = random_problem(n, m, seed.wrapping_mul(977).wrapping_add(n as u64));
            let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
            let sites = random_assignment(&problem, &mut rng);
            for model in [
                CostModel::Full,
                CostModel::LatencyOnly,
                CostModel::BandwidthOnly,
            ] {
                let tables = CostTables::build(&problem, model);
                let eval = CostEvaluator::new(&tables, sites.clone());
                let base = tables.total(&sites);
                for a in 0..n {
                    for b in (a + 1)..n {
                        let mut swapped = sites.clone();
                        swapped.swap(a, b);
                        let want = if sites[a] == sites[b] {
                            0.0
                        } else {
                            tables.total(&swapped) - base
                        };
                        assert_close(
                            &format!("n={n} seed={seed} {model:?} swap ({a},{b})"),
                            eval.swap_delta(a, b),
                            want,
                            base,
                        );
                    }
                }
            }
        }
    }
}

/// The flat tables agree with the reference `cost_with_model` path on
/// real application workloads (the two are independent implementations
/// of Eq. 3).
#[test]
fn tables_match_reference_cost_on_paper_workloads() {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 7);
    for &app in AppKind::ALL.iter() {
        let problem = MappingProblem::unconstrained(app.workload(64).pattern(), net.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let sites = random_assignment(&problem, &mut rng);
        let mapping = Mapping::new(sites.clone());
        for model in [
            CostModel::Full,
            CostModel::LatencyOnly,
            CostModel::BandwidthOnly,
        ] {
            let tables = CostTables::build(&problem, model);
            let want = cost_with_model(&problem, &mapping, model);
            assert_close(
                &format!("{} {model:?}", app.name()),
                tables.total(&sites),
                want,
                want,
            );
        }
    }
}

/// Oracle regression (Fig. 5 mini-setup: 4 sites × 16 nodes, N = 64):
/// GeoMapper's refinement produces bit-identical mappings on the
/// incremental engine and on the full-recompute oracle, for all five
/// paper workloads.
#[test]
fn geo_mapper_identical_on_both_engines_fig5_mini() {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 3);
    for &app in AppKind::ALL.iter() {
        let problem = MappingProblem::unconstrained(app.workload(64).pattern(), net.clone());
        let incremental = GeoMapper {
            evaluation: Evaluation::Incremental,
            ..GeoMapper::default()
        }
        .map(&problem);
        let oracle = GeoMapper {
            evaluation: Evaluation::FullRecompute,
            ..GeoMapper::default()
        }
        .map(&problem);
        assert_eq!(
            incremental,
            oracle,
            "{}: refinement diverged between incremental and oracle evaluation",
            app.name()
        );
    }
}

/// Same regression with data-movement constraints in play.
#[test]
fn geo_mapper_identical_on_both_engines_with_constraints() {
    let net = presets::paper_ec2_network(16, InstanceType::M4Xlarge, 5);
    let pattern = AppKind::KMeans.workload(64).pattern();
    let constraints = ConstraintVector::random(64, 0.2, &net.capacities(), 17);
    let problem = MappingProblem::new(pattern, net, constraints);
    let incremental = GeoMapper {
        evaluation: Evaluation::Incremental,
        ..GeoMapper::default()
    }
    .map(&problem);
    let oracle = GeoMapper {
        evaluation: Evaluation::FullRecompute,
        ..GeoMapper::default()
    }
    .map(&problem);
    assert_eq!(incremental, oracle);
}

/// Work-ratio acceptance check: at N = 1024 a full partner-edge
/// hill-climb pass evaluates ≥10× fewer α–β terms on the incremental
/// engine than on the full-recompute oracle.
#[test]
fn incremental_engine_saves_10x_terms_at_n1024() {
    let net = presets::paper_ec2_network(256, InstanceType::M4Xlarge, 1);
    let problem = MappingProblem::unconstrained(AppKind::Lu.workload(1024).pattern(), net);
    let tables = CostTables::build(&problem, CostModel::Full);
    let mut rng = StdRng::seed_from_u64(2);
    let sites = random_assignment(&problem, &mut rng);

    let counted_pass = |evaluation: Evaluation| -> (u64, Vec<geonet::SiteId>) {
        let mut eval = evaluation.evaluator(&tables, sites.clone());
        let before = eval.terms();
        geomap_core::sweep_hill_climb(
            eval.as_mut(),
            1,
            &|_| true,
            &|_, _| true,
            geomap_core::TraceScope::off(),
        );
        (eval.terms() - before, eval.sites().to_vec())
    };

    let (inc_terms, inc_sites) = counted_pass(Evaluation::Incremental);
    let (full_terms, full_sites) = counted_pass(Evaluation::FullRecompute);
    assert_eq!(
        inc_sites, full_sites,
        "the two engines must take identical sweeps"
    );
    assert!(
        full_terms >= 10 * inc_terms,
        "expected ≥10× term savings at N=1024: incremental {inc_terms}, full {full_terms}"
    );
}
