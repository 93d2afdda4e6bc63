//! The metrics a run reports, and the run's tally of attempts and
//! failed checks.

use std::collections::BTreeMap;

/// End-to-end metrics (name, unit), printed by every untraced run.
/// `BENCHMARK.json` lists the same names and units. The request tails
/// are per-layer metrics: on a shared 2-core host they moved by more
/// than any bound a regression check could use.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_cost", "eq3"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
    ("hit_p50_ms", "ms"),
    ("solve_iqm_ms", "ms"),
    ("lease_p50_ms", "ms"),
    ("remap_iqm_ms", "ms"),
    ("hit_rps", "req/s"),
];

/// Refinement levels reported one by one (`level0` is the base graph,
/// `level<k>` the k-th contraction). A hierarchy shallower than this
/// reports 0 for the levels it does not have; a deeper one adds its
/// coarser levels into the last entry.
pub const LEVELS: [&str; 10] = [
    "multilevel.refine_s.level0",
    "multilevel.refine_s.level1",
    "multilevel.refine_s.level2",
    "multilevel.refine_s.level3",
    "multilevel.refine_s.level4",
    "multilevel.refine_s.level5",
    "multilevel.refine_s.level6",
    "multilevel.refine_s.level7",
    "multilevel.refine_s.level8",
    "multilevel.refine_s.level9",
];

/// Per-layer metrics (name, unit), printed by every traced run. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("multilevel.coarse_solve_s", "s"),
    ("geo.grouping_s", "s"),
    ("geo.order_search_s", "s"),
    ("geo.packing_s", "s"),
    ("geo.refinement_s", "s"),
    ("geo.orders_evaluated", "count"),
    ("multilevel.coarsen_s", "s"),
    ("multilevel.refine_s", "s"),
    (LEVELS[0], "s"),
    (LEVELS[1], "s"),
    (LEVELS[2], "s"),
    (LEVELS[3], "s"),
    (LEVELS[4], "s"),
    (LEVELS[5], "s"),
    (LEVELS[6], "s"),
    (LEVELS[7], "s"),
    (LEVELS[8], "s"),
    (LEVELS[9], "s"),
    ("delta.tables_s", "s"),
    ("multilevel.levels", "count"),
    ("multilevel.coarsest_n", "count"),
    ("multilevel.coarsest_edges", "count"),
    ("multilevel.refine_swaps", "count"),
    ("multilevel.refine_moves", "count"),
    ("delta.swaps_evaluated", "count"),
    ("delta.swaps_accepted", "count"),
    ("delta.accept_share", "ratio"),
    ("multilevel.solve_s", "s"),
    ("multilevel.unattributed_s", "s"),
    ("geonet.network_s", "s"),
    ("commgraph.generate_s", "s"),
    ("core.problem_s", "s"),
    ("geonet.calibrate_ms", "ms"),
    ("geonet.calibrate_probes", "count"),
    ("commgraph.parse_ms", "ms"),
    ("codec.v2.encode_us", "us"),
    ("codec.v2.decode_us", "us"),
    ("codec.v1.encode_us", "us"),
    ("codec.v1.decode_us", "us"),
    ("service.handle_us.hit", "us"),
    ("service.handle_ms.solve", "ms"),
    ("cache.result_hit_share", "ratio"),
    ("cache.problem_hit_share", "ratio"),
    ("cache.miss_share", "ratio"),
    ("inventory.reserve_us", "us"),
    ("inventory.release_us", "us"),
    ("remap.repair_ms", "ms"),
    ("remap.moved", "count"),
    ("server.map_e2e_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("solve_tail_ms", "ms"),
    ("client.rtt_ms", "ms"),
    ("transport.wait_ms", "ms"),
    ("transport.stalls", "count"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.late_tail_ms", "ms"),
    ("loadgen.threads", "count"),
    ("loadgen.connections", "count"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and how many of its operations failed.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (solves and requests).
    pub attempted: u64,
    /// One line per failed operation or failed check.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    /// Record metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        self.values.insert(name.to_string(), value + 0.0);
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Require `ok`, recording `what` as a failure otherwise.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Operations that failed, counting each failed check once.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this binary prints, with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed: Vec<(String, String)> = json
            .split("\"name\"")
            .skip(1)
            .filter_map(|chunk| {
                let field = |key: &str| -> Option<String> {
                    let rest = &chunk[chunk.find(&format!("\"{key}\""))? + key.len() + 2..];
                    let start = rest.find('"')? + 1;
                    let end = start + rest[start..].find('"')?;
                    Some(rest[start..end].to_string())
                };
                let name = chunk[chunk.find('"')? + 1..].split('"').next()?.to_string();
                Some((name, field("unit")?))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
