//! Golden mappings: the exact output of every swap-search-driven solver
//! on fixed seeds, pinned as an FNV-1a hash of the site vector plus the
//! Eq. 3 cost's bit pattern.
//!
//! These solvers share the order-search driver and the Δ-engine
//! hill-climb, so any refactor of either must leave this table
//! untouched. A legitimate behaviour change regenerates it from the
//! `actual` table the failure message prints.

use baselines::{MonteCarlo, MpippMapper};
use commgraph::apps::{AppKind, RandomGraph, Ring, Workload};
use geomap_core::{
    cost, AllowedSites, ConstraintVector, GeoMapper, GeoMapperMulti, Mapper, Mapping,
    MappingProblem, MultilevelConfig, MultilevelMapper, OrderSearch,
};
use geonet::{presets, InstanceType, SiteId};

fn ec2(nodes: usize, seed: u64) -> geonet::SiteNetwork {
    presets::paper_ec2_network(nodes, InstanceType::M4Xlarge, seed)
}

/// K-means on 32 ranks over 4×8 EC2 nodes with a fifth of the ranks
/// pinned: the pins force packings the hill-climb has to repair.
fn pinned_kmeans(seed: u64) -> MappingProblem {
    let net = ec2(8, seed);
    let pins = ConstraintVector::random(32, 0.2, &net.capacities(), seed);
    MappingProblem::new(AppKind::KMeans.workload(32).pattern(), net, pins)
}

fn random_graph(n: usize, nodes: usize, seed: u64) -> MappingProblem {
    let pattern = RandomGraph {
        n,
        degree: 4,
        max_bytes: 400_000,
        seed,
    }
    .pattern();
    MappingProblem::unconstrained(pattern, ec2(nodes, seed))
}

/// A directed ring of site-sized blocks: the group order decides which
/// WAN links carry traffic, so every order-search setting differs.
fn asymmetric_ring(seed: u64) -> MappingProblem {
    let pattern = Ring {
        n: 32,
        iterations: 4,
        bytes: 2_000_000,
    }
    .pattern();
    MappingProblem::unconstrained(pattern, ec2(8, seed))
}

fn fnv1a(mapping: &Mapping) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in mapping.as_slice() {
        for b in (s.index() as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pin(out: &mut Vec<(String, u64, u64)>, name: &str, problem: &MappingProblem, m: Mapping) {
    m.validate(problem).unwrap();
    out.push((name.to_string(), fnv1a(&m), cost(problem, &m).to_bits()));
}

fn actual() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let searches = [
        ("exhaustive", OrderSearch::Exhaustive),
        ("first_only", OrderSearch::FirstOnly),
        ("random5", OrderSearch::Random { samples: 5 }),
    ];
    for (label, order_search) in searches {
        let geo = GeoMapper {
            order_search,
            ..GeoMapper::default()
        };
        let p = pinned_kmeans(3);
        pin(
            &mut out,
            &format!("geo/{label}/pinned_kmeans"),
            &p,
            geo.map(&p),
        );
        let p = asymmetric_ring(2);
        pin(&mut out, &format!("geo/{label}/ring"), &p, geo.map(&p));
        let serial = GeoMapper {
            parallel: false,
            ..geo.clone()
        };
        let p = random_graph(24, 6, 9);
        pin(
            &mut out,
            &format!("geo/{label}/serial_random"),
            &p,
            serial.map(&p),
        );
    }

    let p = random_graph(16, 4, 2);
    let mut allowed = AllowedSites::unrestricted(16);
    for i in 0..4 {
        allowed.restrict(i, &[SiteId(2), SiteId(3)]);
    }
    for i in 8..12 {
        allowed.restrict(i, &[SiteId(i % 4)]);
    }
    pin(
        &mut out,
        "multi/restricted",
        &p,
        GeoMapperMulti::new(allowed).map(&p),
    );
    let p = pinned_kmeans(5);
    let mut allowed = AllowedSites::unrestricted(32);
    for i in 0..32 {
        if p.constraints().pin_of(i).is_none() && i % 3 == 0 {
            allowed.restrict(i, &[SiteId(i % 4), SiteId((i + 1) % 4)]);
        }
    }
    pin(
        &mut out,
        "multi/restricted_pinned",
        &p,
        GeoMapperMulti::new(allowed).map(&p),
    );

    let p = random_graph(24, 6, 4);
    pin(
        &mut out,
        "mpipp/random",
        &p,
        MpippMapper::with_seed(11).map(&p),
    );
    let p = pinned_kmeans(6);
    pin(
        &mut out,
        "mpipp/pinned_kmeans",
        &p,
        MpippMapper::with_seed(12).map(&p),
    );

    let mc = MonteCarlo {
        polish_passes: 20,
        ..MonteCarlo::new(64, 7)
    };
    let p = pinned_kmeans(7);
    pin(&mut out, "monte_carlo/polish_pinned", &p, mc.map(&p));

    let net = presets::paper_ec2_network(65, InstanceType::M4Xlarge, 8);
    let p = MappingProblem::unconstrained(AppKind::Lu.workload(256).pattern(), net);
    let ml = MultilevelMapper {
        config: MultilevelConfig {
            coarsen_cutoff: 32,
            ..MultilevelConfig::default()
        },
        ..MultilevelMapper::default()
    };
    pin(&mut out, "multilevel/lu256_cutoff32", &p, ml.map(&p));
    out
}

#[rustfmt::skip]
const EXPECTED: &[(&str, u64, u64)] = &[
    ("geo/exhaustive/pinned_kmeans", 0x0c5c64281d2d1fe5, 0x405cd2395d9e2869),
    ("geo/exhaustive/ring", 0x89d9918328898825, 0x4015d15dc82c593c),
    ("geo/exhaustive/serial_random", 0x76be1f12c2d1e545, 0x400c4864b482a72d),
    ("geo/first_only/pinned_kmeans", 0x02e6c38a704a5725, 0x405e8cb4aa16834a),
    ("geo/first_only/ring", 0x8d232f2159e30825, 0x40192de0af5b368d),
    ("geo/first_only/serial_random", 0x6d5c3935a7a5a605, 0x401001b3757a85d9),
    ("geo/random5/pinned_kmeans", 0xd10ad01279fc7ee5, 0x405d4392a69f19c0),
    ("geo/random5/ring", 0x25575f7882630825, 0x4017d3a35fc15bda),
    ("geo/random5/serial_random", 0x0b04ac7245e374a5, 0x400cc1eb94e1a1b3),
    ("multi/restricted", 0x52bc813ba2b45445, 0x400c4efd8ba9ef55),
    ("multi/restricted_pinned", 0x85eca9be31e33465, 0x405d4ad6743c9946),
    ("mpipp/random", 0x763facf69fc5c3e5, 0x400c84601c6bbf2b),
    ("mpipp/pinned_kmeans", 0x21868fe3c432a9c5, 0x405b0c03bed797c1),
    ("monte_carlo/polish_pinned", 0xe9270cd6a5ea68e5, 0x405d09cf9153e351),
    ("multilevel/lu256_cutoff32", 0x0a2742e022514b25, 0x4071c08f630b165c),
];

#[test]
fn solver_mappings_are_pinned() {
    let actual = actual();
    let expected: Vec<(String, u64, u64)> = EXPECTED
        .iter()
        .map(|&(name, hash, bits)| (name.to_string(), hash, bits))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, hash, bits)| format!("    (\"{name}\", {hash:#018x}, {bits:#018x}),\n"))
        .collect();
    assert_eq!(actual, expected, "actual table:\n{table}");
}
