//! Repair-vs-cold benchmark for the bounded-migration re-solver.
//!
//! ```text
//! remap_bench [--quick] [--ranks N] [--degrade-sites K] [--seed S]
//!             [--out FILE]
//! ```
//!
//! The scenario the reconciler lives in, at acceptance scale: an
//! `N`-rank application (default 4096) solved cold on the Azure-region
//! preset, then hit by drift — the WAN links of `K` seeded regions
//! degrade (latency ×16, bandwidth ÷16), exactly the calibration-drift
//! signal the daemon's control loop watches. From the now-stale
//! placement the harness measures:
//!
//! 1. **cold re-solve** — the full SC'17 pipeline (`GeoMapper`:
//!    grouping, order search, packing, refinement) on the drifted
//!    network, from scratch — the daemon's only option before the
//!    remap subsystem existed;
//! 2. **bounded repair** — `repair()` from the stale mapping at a
//!    sweep of migration budgets (5%, 10%, 25%, 50% of ranks), each
//!    timed end-to-end including its `CostTables` build, exactly what
//!    the daemon's remap handler pays;
//! 3. **oracle parity** — the unbounded repair against `cold_resolve`,
//!    required bit-identical (same mapping, same cost bits).
//!
//! Writes `BENCH_remap.json` and enforces the acceptance gates: some
//! sweep point with migration budget >= 25% of ranks must run >= 10x
//! faster than the cold re-solve AND land within 5% of its Eq. 3 cost.
//! Quick mode (`--quick`, N=512) records the same document but skips
//! the speedup gate — small instances don't amortize the solver's
//! fixed costs the way N=4096 does.

use commgraph::apps::AppKind;
use geomap_core::{cold_resolve, cost, repair, GeoMapper, Mapper, MappingProblem, RemapConfig};
use geomap_service::json::{obj, Json};
use geonet::{presets, SiteId, SiteNetwork, SquareMatrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::process::ExitCode;
use std::time::Instant;

struct Config {
    ranks: usize,
    degrade_sites: usize,
    seed: u64,
    quick: bool,
    out: String,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        ranks: 4096,
        degrade_sites: 2,
        seed: 0x2E5C17,
        quick: false,
        out: "BENCH_remap.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => {
                cfg.quick = true;
                cfg.ranks = 512;
            }
            "--ranks" => {
                cfg.ranks = val("--ranks")?
                    .parse()
                    .map_err(|e| format!("--ranks: {e}"))?
            }
            "--degrade-sites" => {
                cfg.degrade_sites = val("--degrade-sites")?
                    .parse()
                    .map_err(|e| format!("--degrade-sites: {e}"))?
            }
            "--seed" => cfg.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => cfg.out = val("--out")?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cfg)
}

/// Degrade every WAN link touching any site in `victims`: latency ×16,
/// bandwidth ÷16. Intra-site links are untouched. This is the drift the
/// reconciler's calibration-staleness signal stands in for.
fn degrade(net: &SiteNetwork, victims: &[usize]) -> SiteNetwork {
    let hit = |k: usize, l: usize| k != l && (victims.contains(&k) || victims.contains(&l));
    let m = net.num_sites();
    let lt = SquareMatrix::from_fn(m, |k, l| {
        let base = net.latency(SiteId(k), SiteId(l));
        if hit(k, l) {
            base * 16.0
        } else {
            base
        }
    });
    let bt = SquareMatrix::from_fn(m, |k, l| {
        let base = net.bandwidth(SiteId(k), SiteId(l));
        if hit(k, l) {
            base / 16.0
        } else {
            base
        }
    });
    SiteNetwork::new(net.sites().to_vec(), lt, bt)
}

fn run() -> Result<String, String> {
    let cfg = parse_args()?;
    let n = cfg.ranks;
    // The Azure preset: all ten regions, enough nodes per region for N
    // ranks plus 25% headroom (repairs need somewhere to move to).
    let regions = 10;
    let per_site = (n as f64 * 1.25 / regions as f64).ceil() as usize;
    if cfg.degrade_sites >= regions {
        return Err(format!(
            "--degrade-sites must leave at least one healthy region (got {} of {regions})",
            cfg.degrade_sites
        ));
    }
    let healthy = presets::azure_network(&[], per_site, cfg.seed);
    let pattern = AppKind::parse("kmeans")
        .expect("kmeans is a known app")
        .workload(n)
        .pattern();

    // Phase 0: the placement as it stood before the drift — a cold
    // solve against the healthy network.
    eprintln!("remap_bench: N={n} ranks over {regions} Azure regions ({per_site} nodes each)");
    let mapper = GeoMapper {
        seed: cfg.seed,
        ..GeoMapper::default()
    };
    let before = MappingProblem::unconstrained(pattern.clone(), healthy.clone());
    let stale_mapping = mapper.map(&before);
    let healthy_cost = cost(&before, &stale_mapping);
    eprintln!("  healthy placement: Eq.3 cost {healthy_cost:.6}");

    // Phase 1: drift strikes — seeded victim regions degrade — and the
    // cold re-solve on the drifted network is timed.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD21F7);
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < cfg.degrade_sites {
        let v = rng.random_range(0..regions);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    victims.sort_unstable();
    let drifted = degrade(&healthy, &victims);
    let problem = MappingProblem::unconstrained(pattern, drifted);
    let stale_cost = cost(&problem, &stale_mapping);
    eprintln!(
        "  drift: regions {victims:?} degraded (latency x16, bandwidth /16); \
         riding out the stale mapping costs {stale_cost:.6} ({:+.1}%)",
        (stale_cost / healthy_cost - 1.0) * 100.0
    );
    let t0 = Instant::now();
    let cold_mapping = mapper.map(&problem);
    let cold_s = t0.elapsed().as_secs_f64();
    let cold_cost = cost(&problem, &cold_mapping);
    eprintln!("  cold re-solve: {cold_s:.3} s, Eq.3 cost {cold_cost:.6}");

    // Phase 2: the budget sweep, repairing from the stale mapping.
    let mut sweep = Vec::new();
    let mut rows: Vec<(f64, f64, f64)> = Vec::new();
    for frac in [0.05, 0.10, 0.25, 0.50] {
        let budget = ((n as f64) * frac).ceil() as usize;
        let t0 = Instant::now();
        let outcome = repair(
            &problem,
            &stale_mapping,
            &RemapConfig {
                budget: Some(budget),
                alpha: 0.0,
                ..RemapConfig::default()
            },
        );
        let repair_s = t0.elapsed().as_secs_f64();
        let speedup = cold_s / repair_s;
        let ratio = outcome.new_cost / cold_cost;
        eprintln!(
            "  repair @{:>4.0}% budget ({budget:>5} moves allowed): {repair_s:.3} s \
             ({speedup:.1}x cold), moved {}, cost {:.6} ({:.2}% of cold)",
            frac * 100.0,
            outcome.moved.len(),
            outcome.new_cost,
            ratio * 100.0
        );
        rows.push((frac, speedup, ratio));
        sweep.push(obj(vec![
            ("budget_frac", Json::Num(frac)),
            ("budget", Json::Num(budget as f64)),
            ("time_s", Json::Num(repair_s)),
            ("moved", Json::Num(outcome.moved.len() as f64)),
            ("ops", Json::Num(outcome.ops as f64)),
            ("passes", Json::Num(outcome.passes_run as f64)),
            ("cost", Json::Num(outcome.new_cost)),
            ("cost_vs_cold", Json::Num(ratio)),
            ("speedup_vs_cold", Json::Num(speedup)),
        ]));
    }

    // Phase 3: oracle parity — unbounded repair is the cold-resolve
    // oracle, bit for bit.
    let unbounded = repair(
        &problem,
        &stale_mapping,
        &RemapConfig {
            budget: None,
            alpha: 0.0,
            ..RemapConfig::default()
        },
    );
    let oracle = cold_resolve(&problem, &stale_mapping, RemapConfig::default().passes);
    let bit_exact = unbounded.mapping.as_slice() == oracle.mapping.as_slice()
        && unbounded.new_cost.to_bits() == oracle.new_cost.to_bits();
    if !bit_exact {
        return Err("unbounded repair diverged from the cold-resolve oracle".into());
    }

    // The acceptance gate: among budgets >= 25% of ranks, the point
    // that meets cost parity (within 5% of cold) with the best speedup.
    let (gate_frac, gate_speedup, gate_ratio) = rows
        .iter()
        .filter(|(frac, _, _)| *frac >= 0.25 - 1e-9)
        .filter(|(_, _, ratio)| *ratio <= 1.05)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .copied()
        .unwrap_or_else(|| {
            // No qualifying point: report the best-parity large-budget
            // row so the failure message and JSON stay informative.
            rows.iter()
                .filter(|(frac, _, _)| *frac >= 0.25 - 1e-9)
                .min_by(|a, b| a.2.total_cmp(&b.2))
                .copied()
                .expect("sweep always contains budgets >= 25%")
        });

    let doc = obj(vec![
        (
            "config",
            obj(vec![
                ("ranks", Json::Num(n as f64)),
                ("regions", Json::Num(regions as f64)),
                ("nodes_per_region", Json::Num(per_site as f64)),
                (
                    "degraded_regions",
                    Json::Arr(victims.iter().map(|&v| Json::Num(v as f64)).collect()),
                ),
                ("seed", Json::Num(cfg.seed as f64)),
                ("quick", Json::Bool(cfg.quick)),
            ]),
        ),
        (
            "drift",
            obj(vec![
                ("healthy_cost", Json::Num(healthy_cost)),
                ("stale_cost", Json::Num(stale_cost)),
                ("stale_vs_healthy", Json::Num(stale_cost / healthy_cost)),
            ]),
        ),
        (
            "cold",
            obj(vec![
                ("time_s", Json::Num(cold_s)),
                ("cost", Json::Num(cold_cost)),
            ]),
        ),
        ("repairs", Json::Arr(sweep)),
        (
            "oracle",
            obj(vec![(
                "unbounded_matches_cold_resolve",
                Json::Bool(bit_exact),
            )]),
        ),
        (
            "gates",
            obj(vec![
                ("budget_frac", Json::Num(gate_frac)),
                ("speedup", Json::Num(gate_speedup)),
                ("meets_10x_target", Json::Bool(gate_speedup >= 10.0)),
                ("cost_ratio", Json::Num(gate_ratio)),
                ("within_5pct_of_cold", Json::Bool(gate_ratio <= 1.05)),
            ]),
        ),
    ]);
    std::fs::write(&cfg.out, format!("{}\n", doc.emit()))
        .map_err(|e| format!("cannot write {:?}: {e}", cfg.out))?;

    // Cost parity is solver quality, not hardware speed: it gates in
    // quick mode too. The 10x wall-clock gate needs the full N to
    // amortize the cold pipeline's fixed costs.
    if gate_ratio > 1.05 {
        return Err(format!(
            "no budget >= 25% of ranks lands within 5% of the cold cost (best: {:.2}% at {:.0}% budget)",
            gate_ratio * 100.0,
            gate_frac * 100.0
        ));
    }
    if !cfg.quick && gate_speedup < 10.0 {
        return Err(format!(
            "repair at {:.0}% budget is only {gate_speedup:.1}x faster than the cold re-solve; target is 10x",
            gate_frac * 100.0
        ));
    }
    Ok(format!(
        "wrote {}: cold re-solve {cold_s:.3} s; repair @{:.0}% budget {:.1}x faster at {:.2}% of \
         cold cost; unbounded repair bit-identical to the cold-resolve oracle",
        cfg.out,
        gate_frac * 100.0,
        gate_speedup,
        gate_ratio * 100.0
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("remap_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
