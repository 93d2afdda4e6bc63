//! The five `geomap` commands as pure(ish) functions: parse flags, do
//! the work, return the text that goes to stdout. File writes happen
//! only when `--out` is given.

use crate::args::Args;
use crate::files;
use baselines::{mapper_by_name, MapperSpec};
use commgraph::apps::AppKind;
use commgraph::CommPattern;
use geomap_core::{cost, ConstraintVector, Mapper, MappingProblem, MultilevelConfig, Trace};
use geonet::presets::MultiCloud;
use geonet::{io as netio, CalibrationConfig, Calibrator, InstanceType, SiteNetwork};

fn emit(args: &Args, contents: &str, what: &str) -> Result<String, String> {
    match args.optional("out") {
        Some(path) => {
            files::write(path, contents)?;
            Ok(format!("wrote {what} to {path}\n"))
        }
        None => Ok(contents.to_string()),
    }
}

fn instance_from(args: &Args) -> Result<InstanceType, String> {
    let name = args.optional("instance").unwrap_or("m4.xlarge");
    InstanceType::TABLE1
        .iter()
        .chain([InstanceType::M4Xlarge, InstanceType::StandardD2].iter())
        .find(|t| t.name().eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| format!("unknown instance type {name:?}"))
}

/// `geomap network` — synthesize a ground-truth network.
pub fn network(args: &Args) -> Result<String, String> {
    let provider = args.optional("provider").unwrap_or("ec2");
    let nodes: usize = args.parsed_or("nodes", 16)?;
    let seed: u64 = args.parsed_or("seed", 0x5C17)?;
    let net: SiteNetwork = match provider {
        "ec2" => {
            let default_regions = "us-east-1,us-west-2,ap-southeast-1,eu-west-1".to_string();
            let regions = args
                .optional("regions")
                .unwrap_or(&default_regions)
                .to_string();
            let names: Vec<&str> = regions.split(',').map(str::trim).collect();
            let sites = geonet::presets::ec2_sites(&names, nodes);
            geonet::SynthNetworkBuilder::new(geonet::SynthConfig {
                seed,
                ..geonet::SynthConfig::ec2(instance_from(args)?)
            })
            .build(sites)
        }
        "azure" => {
            let names: Vec<&str> = args
                .optional("regions")
                .map(|r| r.split(',').map(str::trim).collect())
                .unwrap_or_default();
            geonet::presets::azure_network(&names, nodes, seed)
        }
        "multicloud" => MultiCloud {
            nodes,
            seed,
            ..MultiCloud::default()
        }
        .build(),
        other => return Err(format!("unknown provider {other:?} (ec2|azure|multicloud)")),
    };
    let csv = netio::to_csv(&net);
    Ok(format!(
        "{}\n{}",
        net.summary(),
        emit(args, &csv, "network CSV")?
    ))
}

/// `geomap calibrate` — SKaMPI-style probing of a network file.
pub fn calibrate(args: &Args) -> Result<String, String> {
    let truth = netio::from_csv(&files::read(args.required("network")?)?)?;
    let config = CalibrationConfig {
        days: args.parsed_or("days", 3)?,
        probes_per_day: args.parsed_or("probes", 10)?,
        inter_noise_cv: args.parsed_or("noise", 0.02)?,
        intra_noise_cv: args.parsed_or("noise", 0.02)? * 2.5,
        seed: args.parsed_or("seed", 0xCA11)?,
        ..CalibrationConfig::default()
    };
    let report = Calibrator::new(config).calibrate(&truth);
    let summary = format!(
        "calibrated {} site pairs with {} probes; max inter-site variation {:.2}%\n",
        truth.num_sites() * truth.num_sites(),
        report.probes,
        report.max_inter_site_cv() * 100.0
    );
    Ok(format!(
        "{summary}{}",
        emit(
            args,
            &netio::to_csv(&report.estimated),
            "measured network CSV"
        )?
    ))
}

/// `geomap profile` — generate a workload and emit its CG/AG edges.
pub fn profile(args: &Args) -> Result<String, String> {
    let app_name = args.required("app")?;
    let app = AppKind::parse(app_name).ok_or_else(|| format!("unknown app {app_name:?}"))?;
    let ranks: usize = args.parsed("ranks")?;
    let workload = app.workload(ranks);
    let pattern = workload.pattern();
    let mut summary = format!(
        "{app}: {} ranks, {:.2} MB over {} messages, {} edges, locality {:.2}\n",
        ranks,
        pattern.total_bytes() / 1e6,
        pattern.total_msgs(),
        pattern.num_edges(),
        pattern.diagonal_locality((ranks as f64).sqrt() as usize + 1),
    );
    if args.switch("heatmap") {
        summary.push_str(&pattern.ascii_heatmap(ranks.div_ceil(32).max(1)));
    }
    Ok(format!(
        "{summary}{}",
        emit(args, &pattern.to_csv(), "pattern CSV")?
    ))
}

/// Build the problem shared by `map` and `evaluate`.
fn load_problem(args: &Args) -> Result<MappingProblem, String> {
    let net = netio::from_csv(&files::read(args.required("network")?)?)?;
    let default_n = net.total_nodes();
    let n: usize = args.parsed_or("ranks", default_n)?;
    let pattern = CommPattern::from_csv(n, &files::read(args.required("pattern")?)?)?;
    let constraints = match args.optional("constraints") {
        Some(path) => files::constraints_from_csv(n, &files::read(path)?)?,
        None => ConstraintVector::none(n),
    };
    if net.total_nodes() < n {
        return Err(format!("{n} processes exceed {} nodes", net.total_nodes()));
    }
    Ok(MappingProblem::new(pattern, net, constraints))
}

/// Construct the `--algorithm` mapper with `trace` wired into it
/// (pass [`Trace::off`] for an untraced run).
fn mapper_from(args: &Args, seed: u64, trace: &Trace) -> Result<Box<dyn Mapper>, String> {
    let defaults = MultilevelConfig::default();
    let spec = MapperSpec {
        seed,
        kappa: args.parsed_or("kappa", 4)?,
        samples: args.parsed_or("samples", 10_000)?,
        multilevel: MultilevelConfig {
            coarsen_cutoff: args.parsed_or("ml-cutoff", defaults.coarsen_cutoff)?,
            match_rounds: args.parsed_or("ml-rounds", defaults.match_rounds)?,
            refine_passes: args.parsed_or("ml-passes", defaults.refine_passes)?,
        },
        trace: trace.clone(),
    };
    mapper_by_name(args.optional("algorithm").unwrap_or("geo"), &spec)
}

/// `geomap map` — compute a mapping.
pub fn map(args: &Args) -> Result<String, String> {
    let problem = load_problem(args)?;
    let seed: u64 = args.parsed_or("seed", 0x5C17)?;
    let mapper = mapper_from(args, seed, &Trace::off())?;
    let start = std::time::Instant::now();
    let mapping = mapper.map(&problem);
    let elapsed = start.elapsed();
    mapping
        .validate(&problem)
        .map_err(|e| format!("internal: infeasible mapping: {e}"))?;
    let c = cost(&problem, &mapping);
    let summary = format!(
        "{} mapped {} processes onto {} sites in {elapsed:?}; Eq.3 cost {c:.3}s\nsite loads: {:?}\n",
        mapper.name(),
        problem.num_processes(),
        problem.num_sites(),
        mapping.site_counts(problem.num_sites()),
    );
    Ok(format!(
        "{summary}{}",
        emit(args, &files::mapping_to_csv(&mapping), "mapping CSV")?
    ))
}

/// `geomap trace` — run a mapper (and optionally a simulated replay)
/// with event-level tracing on, emitting Chrome trace-event JSON for
/// Perfetto / `chrome://tracing`.
pub fn trace(args: &Args) -> Result<String, String> {
    use geomap_core::RingBufferSink;
    use std::sync::Arc;

    let problem = load_problem(args)?;
    let seed: u64 = args.parsed_or("seed", 0x5C17)?;
    let capacity: usize = args.parsed_or("events", 1 << 20)?;
    let sink = Arc::new(RingBufferSink::new(capacity));
    let trace = Trace::new(sink.clone());
    let mapper = mapper_from(args, seed, &trace)?;
    let mapping = mapper.map(&problem);
    mapping
        .validate(&problem)
        .map_err(|e| format!("internal: infeasible mapping: {e}"))?;
    let mut summary = format!(
        "{} traced over {} processes / {} sites; Eq.3 cost {:.3}s\n",
        mapper.name(),
        problem.num_processes(),
        problem.num_sites(),
        cost(&problem, &mapping),
    );
    if let Some(app_name) = args.optional("app") {
        let app = AppKind::parse(app_name).ok_or_else(|| format!("unknown app {app_name:?}"))?;
        let workload = app.workload(problem.num_processes());
        let r = mpirt::execute_workload_traced(
            workload.as_ref(),
            problem.network(),
            mapping.as_slice(),
            &mpirt::RunConfig::default(),
            &trace,
        );
        summary.push_str(&format!(
            "replayed {app} on the simulated runtime: makespan {:.3}s\n",
            r.makespan
        ));
    }
    if sink.dropped() > 0 {
        summary.push_str(&format!(
            "warning: ring full, dropped the oldest {} events (raise --events)\n",
            sink.dropped()
        ));
    }
    summary.push_str(&format!(
        "{} events on {} tracks (load the JSON in Perfetto or chrome://tracing)\n",
        sink.snapshot().len(),
        sink.tracks().len(),
    ));
    Ok(format!(
        "{summary}{}",
        emit(args, &sink.to_chrome_json(), "Chrome trace JSON")?
    ))
}

/// `geomap evaluate` — score a mapping file against a network+pattern.
pub fn evaluate(args: &Args) -> Result<String, String> {
    let problem = load_problem(args)?;
    let mapping = files::mapping_from_csv(
        problem.num_processes(),
        &files::read(args.required("mapping")?)?,
    )?;
    mapping
        .validate(&problem)
        .map_err(|e| format!("mapping is infeasible: {e}"))?;
    let seed: u64 = args.parsed_or("seed", 0x5C17)?;
    let samples: usize = args.parsed_or("baseline-samples", 10)?;
    let c = cost(&problem, &mapping);
    let baseline = baselines::baseline_mean_cost(&problem, samples, seed);
    let mut out = format!(
        "Eq.3 cost: {c:.3}s\nrandom baseline (mean of {samples}): {baseline:.3}s\nimprovement: {:.1}%\n",
        (baseline - c) / baseline * 100.0
    );
    if args.switch("simulate") {
        let app_name = args.required("app")?;
        let app = AppKind::parse(app_name).ok_or_else(|| format!("unknown app {app_name:?}"))?;
        let workload = app.workload(problem.num_processes());
        let r = mpirt::execute_workload(
            workload.as_ref(),
            problem.network(),
            mapping.as_slice(),
            &mpirt::RunConfig::default(),
        );
        out.push_str(&format!(
            "simulated makespan ({app}): {:.3}s, WAN traffic fraction {:.1}%\n",
            r.makespan,
            r.stats.wan_fraction() * 100.0
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("geomap-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn full_workflow_end_to_end() {
        let net_path = tmp("net.csv");
        let meas_path = tmp("measured.csv");
        let pat_path = tmp("pattern.csv");
        let map_path = tmp("mapping.csv");

        let out = network(&argv(&format!("--provider ec2 --nodes 4 --out {net_path}"))).unwrap();
        assert!(out.contains("4 sites"));

        let out = calibrate(&argv(&format!(
            "--network {net_path} --days 1 --probes 3 --out {meas_path}"
        )))
        .unwrap();
        assert!(out.contains("calibrated"));

        let out = profile(&argv(&format!("--app lu --ranks 16 --out {pat_path}"))).unwrap();
        assert!(out.contains("LU: 16 ranks"));

        let out = map(&argv(&format!(
            "--network {meas_path} --pattern {pat_path} --algorithm geo --out {map_path}"
        )))
        .unwrap();
        assert!(out.contains("Geo-distributed mapped 16 processes"), "{out}");

        let out = evaluate(&argv(&format!(
            "--network {net_path} --pattern {pat_path} --mapping {map_path} --simulate --app lu"
        )))
        .unwrap();
        assert!(out.contains("improvement:"), "{out}");
        assert!(out.contains("simulated makespan"), "{out}");
        // The mapping was optimized, so the improvement line should not
        // be wildly negative; parse and check > 0.
        let imp: f64 = out
            .lines()
            .find(|l| l.starts_with("improvement:"))
            .and_then(|l| {
                l.trim_start_matches("improvement:")
                    .trim_end_matches('%')
                    .trim()
                    .parse()
                    .ok()
            })
            .unwrap();
        assert!(imp > 0.0, "improvement {imp}");
    }

    #[test]
    fn map_without_out_prints_csv() {
        let net_path = tmp("net2.csv");
        let pat_path = tmp("pat2.csv");
        network(&argv(&format!("--provider ec2 --nodes 2 --out {net_path}"))).unwrap();
        profile(&argv(&format!("--app dnn --ranks 8 --out {pat_path}"))).unwrap();
        let out = map(&argv(&format!(
            "--network {net_path} --pattern {pat_path} --algorithm greedy"
        )))
        .unwrap();
        assert!(out.contains("process,site"), "{out}");
    }

    #[test]
    fn constraints_flow_through_map() {
        let net_path = tmp("net3.csv");
        let pat_path = tmp("pat3.csv");
        let cons_path = tmp("cons3.csv");
        network(&argv(&format!("--provider ec2 --nodes 2 --out {net_path}"))).unwrap();
        profile(&argv(&format!("--app sp --ranks 8 --out {pat_path}"))).unwrap();
        files::write(&cons_path, "process,site\n0,3\n5,1\n").unwrap();
        let out = map(&argv(&format!(
            "--network {net_path} --pattern {pat_path} --constraints {cons_path}"
        )))
        .unwrap();
        // Read the printed mapping and check the pins.
        let body: String = out
            .lines()
            .skip_while(|l| !l.starts_with("process,site"))
            .collect::<Vec<_>>()
            .join("\n");
        let m = files::mapping_from_csv(8, &body).unwrap();
        assert_eq!(m.site_of(0).index(), 3);
        assert_eq!(m.site_of(5).index(), 1);
    }

    #[test]
    fn trace_command_emits_all_three_layers() {
        let net_path = tmp("net4.csv");
        let pat_path = tmp("pat4.csv");
        let trace_path = tmp("trace4.json");
        network(&argv(&format!("--provider ec2 --nodes 2 --out {net_path}"))).unwrap();
        profile(&argv(&format!("--app lu --ranks 8 --out {pat_path}"))).unwrap();
        let out = trace(&argv(&format!(
            "--network {net_path} --pattern {pat_path} --algorithm geo --app lu --out {trace_path}"
        )))
        .unwrap();
        assert!(out.contains("events on"), "{out}");
        assert!(out.contains("makespan"), "{out}");
        let json = std::fs::read_to_string(&trace_path).unwrap();
        assert!(json.trim_start().starts_with('['), "not a JSON array");
        assert!(json.trim_end().ends_with(']'), "array not closed");
        for layer in ["\"search\"", "\"mpirt\"", "\"simnet\""] {
            assert!(json.contains(layer), "missing {layer} process in trace");
        }
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"C\""), "no counter samples");
    }

    #[test]
    fn errors_are_user_friendly() {
        assert!(profile(&argv("--app nope --ranks 4"))
            .unwrap_err()
            .contains("unknown app"));
        assert!(network(&argv("--provider gcp"))
            .unwrap_err()
            .contains("unknown provider"));
        assert!(map(&argv("--pattern x.csv"))
            .unwrap_err()
            .contains("--network"));
        let e = calibrate(&argv("--network /no/such/file.csv")).unwrap_err();
        assert!(e.contains("cannot read"), "{e}");
    }

    #[test]
    fn azure_and_multicloud_networks_build() {
        let out = network(&argv("--provider azure --nodes 2")).unwrap();
        assert!(out.contains("sites"));
        let out = network(&argv("--provider multicloud --nodes 2")).unwrap();
        assert!(out.contains("6 sites"));
    }
}
