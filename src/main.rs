//! `quake` — the reproduction's command-line driver.

use quake_app::characterize::AnalyzedInstance;
use quake_app::family::{AppConfig, QuakeApp};
use quake_app::report::{fmt_mb_per_s, fmt_seconds, telemetry_summary, SetupWalls, Table};
use quake_app::transport::run::{self, Built, RunOutput};
use quake_app::transport::wire::RunSpec;
use quake_app::transport::TransportKind;
use quake_core::machine::{BlockRegime, Processor};
use quake_core::model::eq1::{required_sustained_bandwidth, required_tc};
use quake_core::model::eq2::half_bandwidth_point;
use quake_core::paperdata;
use quake_fem::assembly::{assemble, GroundMaterial};
use quake_fem::source::{PointSource, Ricker};
use quake_fem::timestep::Simulation;
use quake_mesh::mesh::{TetMesh, BYTES_PER_NODE};
use quake_repro::cli::{help, CliError, Invocation};
use quake_sparse::dense::Vec3;
use std::error::Error;
use std::process::ExitCode;

/// Exit code for malformed command lines, distinct from runtime failures
/// (`1`) per Unix convention.
const EXIT_USAGE: u8 = 2;

fn usage_error(e: &CliError) -> ExitCode {
    eprintln!("error: {e}");
    eprintln!("usage: quake <command> [--flag value]...  (see 'quake help')");
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    // The proc transport re-executes this binary as shard children; the
    // hook routes them into the shard protocol (and never returns for
    // them) before any argument parsing can run.
    quake_app::transport::proc::shard_host_hook();
    let inv = match Invocation::parse(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(e) => return usage_error(&e),
    };
    let result = match inv.command.as_str() {
        "help" => {
            println!("{}", help());
            Ok(())
        }
        "mesh" => cmd_mesh(&inv),
        "characterize" => cmd_characterize(&inv),
        "requirements" => cmd_requirements(&inv),
        "simulate" => cmd_simulate(&inv),
        "smvp-run" => cmd_smvp_run(&inv),
        other => unreachable!("parser admits only known commands, got {other}"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Flag-validation failures surface from inside commands as boxed
        // CliErrors; they are usage errors too.
        Err(e) => match e.downcast_ref::<CliError>() {
            Some(cli) => usage_error(cli),
            None => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn bad_value(flag: &str, value: impl ToString) -> CliError {
    CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
    }
}

fn generate(inv: &Invocation) -> Result<QuakeApp, Box<dyn Error>> {
    let period: f64 = inv.get("period", 10.0)?;
    let scale: f64 = inv.get("scale", 8.0)?;
    let seed: u64 = inv.get("seed", 0x5eedu64)?;
    let mut config = AppConfig::new(format!("sf{period}"), period, scale);
    config.seed = seed;
    Ok(QuakeApp::generate(config)?)
}

fn cmd_mesh(inv: &Invocation) -> Result<(), Box<dyn Error>> {
    let mut setup = SetupWalls::default();
    let app = setup.time("generate", || generate(inv))?;
    println!("{setup}");
    let stats = app.size_stats();
    println!("{stats}");
    println!("avg node degree: {:.2}", app.mesh.avg_node_degree());
    println!(
        "estimated runtime memory: {:.2} MB (paper rule: 1.2 KB/node)",
        app.mesh.estimated_runtime_bytes() as f64 / 1e6
    );
    let q = app.mesh.quality();
    println!(
        "radius-edge ratio: mean {:.2}, worst {:.2}",
        q.mean_radius_edge, q.max_radius_edge
    );
    let out = inv.get_str("out", "");
    if !out.is_empty() {
        let file = std::fs::File::create(&out)?;
        quake_mesh::io::write_text(&app.mesh, std::io::BufWriter::new(file))?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_characterize(inv: &Invocation) -> Result<(), Box<dyn Error>> {
    let parts = inv.get_usize_list("parts", &[4, 8, 16])?;
    if parts.contains(&0) {
        return Err(bad_value("parts", inv.get_str("parts", "")).into());
    }
    let name = inv.get_str("partitioner", "rib");
    let strat = run::partitioner(&name).map_err(|_| bad_value("partitioner", &name))?;
    let app = generate(inv)?;
    let mut t = Table::new(vec![
        "instance", "F", "C_max", "B_max", "M_avg", "F/C_max", "beta",
    ]);
    for &p in &parts {
        let a = AnalyzedInstance::characterize(&app.config.name, &app.mesh, strat.as_ref(), p)?;
        let i = &a.instance;
        t.row(vec![
            i.label(),
            i.f.to_string(),
            i.c_max.to_string(),
            i.b_max.to_string(),
            format!("{:.0}", i.m_avg),
            format!("{:.0}", i.comp_comm_ratio()),
            format!("{:.2}", a.beta),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn cmd_requirements(inv: &Invocation) -> Result<(), Box<dyn Error>> {
    let mflops: f64 = inv.get("mflops", 200.0)?;
    let efficiency: f64 = inv.get("efficiency", 0.9)?;
    if !(efficiency > 0.0 && efficiency < 1.0) {
        return Err(bad_value("efficiency", efficiency).into());
    }
    let app = inv.get_str("app", "sf2");
    let instances = paperdata::figure7_app(&app);
    if instances.is_empty() {
        return Err(bad_value("app", app).into());
    }
    let pe = Processor::from_mflops("target", mflops);
    let mut t = Table::new(vec![
        "instance",
        "sustained (MB/s)",
        "burst@half (MB/s)",
        "T_l@half (maximal)",
        "T_l@half (4-word)",
    ]);
    for inst in &instances {
        let t_c = required_tc(inst, efficiency, pe.t_f);
        let maximal = half_bandwidth_point(inst, t_c, BlockRegime::Maximal);
        let fixed = half_bandwidth_point(inst, t_c, BlockRegime::CACHE_LINE);
        t.row(vec![
            inst.label(),
            fmt_mb_per_s(required_sustained_bandwidth(inst, efficiency, &pe)),
            fmt_mb_per_s(maximal.burst_bandwidth_bytes()),
            fmt_seconds(maximal.t_l),
            fmt_seconds(fixed.t_l),
        ]);
    }
    println!("requirements for {mflops:.0}-MFLOP PEs at E = {efficiency} (paper Figure 7 data):\n");
    println!("{}", t.render());
    Ok(())
}

/// `smvp-run`'s command line: the run itself as a [`RunSpec`], plus the
/// fabric it runs over and where its report and artifacts go.
struct SmvpArgs {
    spec: RunSpec,
    transport: TransportKind,
    quiet: bool,
    profile: bool,
    trace_json: String,
    metrics: String,
    profile_json: String,
    fault_json: String,
}

/// An `on|off` flag; `None` when absent, anything else is a usage error.
fn switch(inv: &Invocation, flag: &str) -> Result<Option<bool>, CliError> {
    match inv.get_str(flag, "").as_str() {
        "" => Ok(None),
        "on" => Ok(Some(true)),
        "off" => Ok(Some(false)),
        other => Err(bad_value(flag, other)),
    }
}

/// Parses and validates every `smvp-run` flag before any work runs, so a
/// bad value is a usage error (exit 2) however deep it would bite.
fn smvp_args(inv: &Invocation) -> Result<SmvpArgs, CliError> {
    let trace_json = inv.get_str("trace-json", "");
    let metrics = inv.get_str("metrics", "");
    let profile_json = inv.get_str("profile-json", "");
    // --profile-json implies --profile the way the trace exporters imply
    // --trace; an explicit `off` alongside it is contradictory.
    let profile = match switch(inv, "profile")? {
        Some(false) if !profile_json.is_empty() => {
            return Err(bad_value("profile", "off (conflicts with --profile-json)"))
        }
        Some(on) => on,
        None => !profile_json.is_empty(),
    };
    // --trace defaults to on as soon as an exporter (or the profiler,
    // which attributes from the span telemetry) needs the data.
    let needs_trace = !trace_json.is_empty() || !metrics.is_empty() || profile;
    let trace = match switch(inv, "trace")? {
        Some(false) if needs_trace => {
            return Err(bad_value(
                "trace",
                "off (conflicts with --trace-json/--metrics/--profile)",
            ))
        }
        Some(on) => on,
        None => needs_trace,
    };
    let transport = inv.get_str("transport", "shared");
    let transport: TransportKind = transport
        .parse()
        .map_err(|_| bad_value("transport", transport))?;
    let partitioner = inv.get_str("partitioner", "rib");
    run::partitioner(&partitioner).map_err(|_| bad_value("partitioner", &partitioner))?;
    let shards: usize = inv.get("shards", 2usize)?;
    // --nodes N chunks the shards onto N nodes for the node-aware exchange.
    // Absent means flat; 0, a non-integer, or more nodes than shards
    // cannot describe a topology.
    let nodes = match inv.get_str("nodes", "").as_str() {
        "" => 0,
        raw => match raw.parse::<usize>() {
            Ok(n) if n > shards => {
                return Err(bad_value(
                    "nodes",
                    format!("{raw} (more nodes than --shards {shards})"),
                ))
            }
            Ok(n) if n >= 1 => n,
            _ => return Err(bad_value("nodes", raw)),
        },
    };
    let spec = RunSpec {
        period: inv.get("period", 10.0)?,
        scale: inv.get("scale", 8.0)?,
        seed: inv.get("seed", 0x5eedu64)?,
        parts: inv.get("parts", 4usize)?,
        threads: inv.get("threads", 4usize)?,
        steps: inv.get("steps", 25u64)?,
        partitioner,
        rcm: inv.get("rcm", false)?,
        overlap: switch(inv, "overlap")?.unwrap_or(false),
        fault_rate: inv.get("fault-rate", 0.0)?,
        fault_seed: inv.get("fault-seed", 0u64)?,
        trace,
        drift_threshold: inv.get("drift-threshold", 2.0)?,
        span_capacity: inv.get("span-capacity", 65_536usize)?,
        shards,
        x_kind: "trig".to_string(),
        x_seed: 0,
        conn_timeout: inv.get("conn-timeout", 30.0)?,
        wire_fault_rate: inv.get("wire-fault-rate", 0.0)?,
        wire_fault_seed: inv.get("wire-fault-seed", 0u64)?,
        restart_budget: inv.get("restart-budget", 2u64)?,
        nodes,
        // --aggregate off is the ablation arm: the node placement stays
        // (so --wire-latency still prices the same topology) but every
        // boundary block crosses the emulated slow link individually.
        aggregate: switch(inv, "aggregate")?.unwrap_or(true),
        wire_latency: inv.get("wire-latency", 0.0)?,
    };
    let unit = 0.0..=1.0;
    let finite = |x: f64| x.is_finite();
    for (flag, ok) in [
        ("parts", spec.parts > 0),
        ("threads", spec.threads > 0),
        ("steps", spec.steps > 0),
        ("span-capacity", spec.span_capacity > 0),
        ("shards", spec.shards > 0),
        ("fault-rate", unit.contains(&spec.fault_rate)),
        ("wire-fault-rate", unit.contains(&spec.wire_fault_rate)),
        (
            "drift-threshold",
            finite(spec.drift_threshold) && spec.drift_threshold > 0.0,
        ),
        (
            "conn-timeout",
            finite(spec.conn_timeout) && spec.conn_timeout > 0.0,
        ),
        (
            "wire-latency",
            finite(spec.wire_latency) && spec.wire_latency >= 0.0,
        ),
    ] {
        if !ok {
            return Err(bad_value(flag, inv.get_str(flag, "")));
        }
    }
    Ok(SmvpArgs {
        spec,
        transport,
        quiet: inv.get("quiet", false)?,
        profile,
        trace_json,
        metrics,
        profile_json,
        fault_json: inv.get_str("fault-json", ""),
    })
}

fn cmd_smvp_run(inv: &Invocation) -> Result<(), Box<dyn Error>> {
    let args = smvp_args(inv)?;
    let (built, mut setup) = run::build_timed(&args.spec)?;
    let out = run::run_with(args.transport, &args.spec, &built)?;
    setup.0.extend(out.plan_s.map(|s| ("plan", s)));
    if !args.quiet {
        println!("{setup}");
    }
    smvp_report(&args, &built, &out)
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

/// True if `a` and `b` hold the same bits, entry for entry.
fn bits_equal(a: &[Vec3], b: &[Vec3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(u, v)| {
            (u.x.to_bits(), u.y.to_bits(), u.z.to_bits())
                == (v.x.to_bits(), v.y.to_bits(), v.z.to_bits())
        })
}

/// `smvp-run`'s one report, for every transport: what was armed, the
/// phase walls and model lines, the validation table, the bitwise proofs,
/// then telemetry, incidents, profile, the artifact files and the fault
/// ledger. Fails on any diverging counter, proof or ledger.
fn smvp_report(args: &SmvpArgs, built: &Built, out: &RunOutput) -> Result<(), Box<dyn Error>> {
    use quake_app::transport::{ghost_edges, NodeMap};
    use quake_core::fault::{FaultPlan, FaultRates};
    use quake_core::model::validate::validate;
    use quake_core::telemetry::profile::{ProfileOptions, ProfileReport};
    use quake_core::telemetry::{merged_chrome_trace, merged_telemetry, SupervisorInstant};

    let spec = &args.spec;
    let proc = args.transport == TransportKind::Proc;
    let name = &built.app.config.name;
    let report = &out.report;
    let say = |line: String| {
        if !args.quiet {
            println!("{line}");
        }
    };
    let write = |path: &str, text: String, note: String| -> std::io::Result<()> {
        std::fs::write(path, text)?;
        say(format!("wrote {path}{note}"));
        Ok(())
    };

    if proc && spec.wire_fault_rate > 0.0 {
        say(format!(
            "wire chaos armed: per-frame rate {} (seed {}), conn deadline {} s, \
             restart budget {} shard respawns",
            spec.wire_fault_rate, spec.wire_fault_seed, spec.conn_timeout, spec.restart_budget
        ));
    }
    if spec.nodes >= 1 && spec.aggregate {
        let map = NodeMap::for_shards(spec.parts, spec.shards, spec.nodes);
        let mr = quake_partition::comm::MaxRateAnalysis::new(
            &built.app.mesh,
            &built.partition,
            spec.nodes,
        );
        let flat = ghost_edges(&built.system)
            .iter()
            .filter(|e| !map.same_node(e.from, e.to))
            .count();
        say(format!(
            "node-aware exchange armed: {} PEs on {} node(s), {} merged \
             (node, node) blocks per step replace {flat} flat cross-node edges",
            spec.parts,
            spec.nodes,
            mr.cross_blocks(),
        ));
    }
    say(format!(
        "local kernel: {} tiles, AVX dispatch {}",
        if spec.overlap {
            "full (boundary-first rows)"
        } else {
            "half-storage symmetric"
        },
        if quake_spark::tile_kernels::simd_active() {
            "active"
        } else {
            "unavailable (scalar fallback)"
        }
    ));
    if let Some(split) = &out.boundary_rows {
        let boundary: usize = split.iter().sum();
        let total: usize = built
            .system
            .subdomains()
            .iter()
            .map(|sd| sd.node_count())
            .sum();
        say(format!(
            "overlap armed: {boundary} boundary rows posted ahead of {} interior rows \
             ({:.1}% of local work hides the exchange)",
            total - boundary,
            100.0 * (total - boundary) as f64 / total.max(1) as f64
        ));
    }
    if spec.fault_rate > 0.0 {
        let rates = FaultRates::uniform(spec.fault_rate);
        let plan = FaultPlan::generate(spec.fault_seed, spec.steps, spec.parts, &rates);
        say(format!(
            "chaos armed: {} scheduled events (seed {}, rate {}), \
             crashes re-run within their step",
            plan.len(),
            spec.fault_seed,
            spec.fault_rate
        ));
    }

    let fabric = if proc {
        format!(
            "{} shard processes × {} worker threads (unix-socket transport)",
            spec.shards, spec.threads
        )
    } else {
        format!("{} pooled worker threads", report.threads)
    };
    say(format!(
        "{name} on {} PEs — {} bulk-synchronous SMVPs over {fabric}{}",
        spec.parts,
        report.steps,
        match (spec.rcm, spec.overlap) {
            (true, true) => " (RCM-renumbered subdomains, latency-hiding overlap)",
            (true, false) => " (RCM-renumbered subdomains)",
            (false, true) => " (latency-hiding overlap)",
            (false, false) => "",
        }
    ));
    let walls = &report.phases;
    say(format!(
        "phase walls (s): assemble {:.3e}, compute {:.3e}, exchange {:.3e}, fold {:.3e}",
        walls.assemble, walls.compute, walls.exchange, walls.fold
    ));
    say(format!(
        "measured efficiency E = {:.4}\n",
        report.efficiency()
    ));
    let link = out.link;
    if proc {
        say(format!(
            "measured socket link ({}): T_l = {:.3e} s, T_w = {:.3e} s/word",
            if link.measured {
                "ping/throughput microbenchmark"
            } else {
                "preset"
            },
            link.t_l,
            link.t_w
        ));
        // Eq. (2) under the measured parameters, against the measured
        // exchange wall; aggregating runs add the max-rate model (Bienz,
        // Gropp & Olson) under the same link.
        let score = run::score_exchange(spec, built, out);
        say(format!(
            "Eq. (2) with measured link: B_max·T_l + C_max·T_w = {:.3e} s/step \
             vs measured exchange {:.3e} s/step (ratio {:.2})\n",
            score.eq2_s,
            score.measured_s,
            score.measured_s / score.eq2_s.max(f64::MIN_POSITIVE)
        ));
        if let (Some(mr_pred), Some(mr_err)) = (score.maxrate_s, score.maxrate_rel_err()) {
            say(format!(
                "max-rate model ({} nodes): max_N(B_N·T_l + C_N·T_w) + local gather = \
                 {:.3e} s/step (rel err {:.1}% vs Eq. (2) rel err {:.1}%)\n",
                spec.nodes,
                mr_pred,
                100.0 * mr_err,
                100.0 * score.eq2_rel_err(),
            ));
        }
    }
    if let Some(modeled) = &out.modeled_exchange_s {
        say(format!(
            "netsim postal model: busiest-PE modeled exchange {:.3e} s over {} steps \
             (preset T_l {:.3e} s, T_w {:.3e} s/word)\n",
            modeled.iter().copied().fold(0.0, f64::max),
            spec.steps,
            link.t_l,
            link.t_w
        ));
    }

    let analyzed = AnalyzedInstance::from_partition(name, &built.app.mesh, &built.partition);
    let validation = validate(&analyzed.instance, &report.measured());
    say(format!("{validation}"));
    if !validation.counters_match() {
        return Err("measured counters diverge from characterization".into());
    }
    // One clean reference proves every claim the run makes: the same
    // product on the shared transport, barrier schedule, flat exchange,
    // fault-free and untraced.
    let clean = RunSpec {
        overlap: false,
        fault_rate: 0.0,
        wire_fault_rate: 0.0,
        trace: false,
        nodes: 0,
        ..spec.clone()
    };
    if args.transport != TransportKind::Shared || *spec != clean {
        let reference = run::run_with(TransportKind::Shared, &clean, built)?;
        // A reference that kept a fault ledger proves nothing about healing.
        let same = reference.report.fault.is_none() && bits_equal(&out.y, &reference.y);
        for (claim, applies) in [
            ("proc output bitwise-equal to shared transport", proc),
            (
                "netsim output bitwise-equal to shared transport",
                args.transport == TransportKind::Netsim,
            ),
            (
                "overlapped output bitwise-equal to barrier schedule",
                spec.overlap,
            ),
            (
                "recovered output bitwise-equal to fault-free reference",
                report.fault.is_some(),
            ),
        ] {
            if applies {
                say(format!("{claim}: {}", yes_no(same)));
            }
        }
        if !same {
            return Err("output diverges from the clean shared-transport reference".into());
        }
    }
    // The kernel's safety, on the spot: the clean product on the run's own
    // schedule, with the local kernels forced onto their scalar fallback.
    let scalar_spec = RunSpec {
        overlap: spec.overlap,
        ..clean
    };
    quake_spark::tile_kernels::force_scalar(true);
    let scalar = run::run_with(TransportKind::Shared, &scalar_spec, built);
    quake_spark::tile_kernels::force_scalar(false);
    let same = bits_equal(&out.y, &scalar?.y);
    say(format!(
        "vector output bitwise-equal to scalar fallback: {}",
        yes_no(same)
    ));
    if !same {
        return Err("vector output diverges from the scalar fallback".into());
    }

    if let (Some(telemetry), Some(ps)) = (&out.telemetry, out.pool_stats) {
        say(telemetry_summary(telemetry));
        say(format!(
            "worker pool: {} batches dispatched\n",
            ps.broadcasts
        ));
    } else if spec.trace {
        let offsets: Vec<String> = out
            .shard_telemetry
            .iter()
            .map(|t| t.clock_offset_ns.to_string())
            .collect();
        say(format!(
            "telemetry: {} shard snapshot(s) collected ({} spans), handshake clock \
             offsets [{}] ns",
            out.shard_telemetry.len(),
            out.shard_telemetry
                .iter()
                .map(|t| t.snap.spans.len())
                .sum::<usize>(),
            offsets.join(", ")
        ));
    }
    for i in &out.incidents {
        say(format!(
            "incident t+{:.3}s shard {}: {}",
            i.t_s, i.shard, i.kind
        ));
    }
    // The critical-path profiler: per-step rung attribution over the
    // shard telemetry, with Eq. (2) under the run's link (none for the
    // shared fabric) as the model baseline.
    if args.profile {
        let prof = ProfileReport::build(
            &out.shard_telemetry,
            &ProfileOptions {
                loads: vec![(analyzed.instance.c_max, analyzed.instance.b_max)],
                link: (args.transport != TransportKind::Shared).then_some((link.t_l, link.t_w)),
                overlap: spec.overlap,
            },
        );
        say(prof.render_table());
        if !args.profile_json.is_empty() {
            write(&args.profile_json, prof.to_json(), String::new())?;
        }
    }
    // One clock-aligned timeline: a process track per shard (one for an
    // in-process run), flow arrows pairing each remote ghost post with its
    // acquire, and the supervisor's incidents on their own track.
    if !args.trace_json.is_empty() {
        let supervisor: Vec<SupervisorInstant> = out
            .incidents
            .iter()
            .map(|i| SupervisorInstant {
                name: i.kind.to_string(),
                shard: i.shard as u32,
                at_ns: (i.t_s.max(0.0) * 1e9) as u64,
            })
            .collect();
        write(
            &args.trace_json,
            merged_chrome_trace(name, &out.shard_telemetry, &supervisor),
            format!(
                " ({} shard track(s), {} fault-domain incident(s))",
                out.shard_telemetry.len(),
                out.incidents.len()
            ),
        )?;
    }
    // Prometheus: the live telemetry in process (it keeps the drift
    // monitor), the merged shard telemetry plus the wire ledger over proc.
    if !args.metrics.is_empty() {
        let mut text = match &out.telemetry {
            Some(t) => t.to_prometheus(),
            None if out.shard_telemetry.is_empty() => String::new(),
            None => merged_telemetry(&out.shard_telemetry).to_prometheus(),
        };
        if proc {
            text.push_str(&wire_prometheus(
                &report.fault.unwrap_or_default(),
                &out.shard_faults,
            ));
        }
        write(&args.metrics, text, String::new())?;
    }
    if let Some(fr) = &report.fault {
        say(format!("\n{fr}"));
        if proc {
            say(format!("wire ledger balanced: {}", yes_no(fr.balanced())));
        }
        if !args.fault_json.is_empty() {
            write(
                &args.fault_json,
                format!("{}\n", fr.to_json()),
                String::new(),
            )?;
        }
        if !fr.balanced() {
            return Err("fault ledger is unbalanced (injected != detected != recovered)".into());
        }
    }
    if let Some(line) = memory_line(&built.app.mesh) {
        say(line);
    }
    Ok(())
}

/// Renders the merged wire-fault ledger as Prometheus text — the proc
/// analogue of the in-process telemetry exporter, covering the fault
/// domain (injection/detection/recovery counters, resends, reconnects,
/// respawns and the delay histogram) that shard-local spans cannot see.
/// Per-shard ledgers add `shard`/`generation`-labeled samples next to
/// the unlabeled run-wide totals, so a straggling shard's chaos bill is
/// attributable without re-running.
fn wire_prometheus(
    fr: &quake_core::fault::FaultReport,
    shards: &[(usize, u32, quake_core::fault::FaultReport)],
) -> String {
    use quake_core::fault::{FaultReport, WireFaultCounts};
    use std::fmt::Write as _;
    type StageSelector = fn(&FaultReport) -> &WireFaultCounts;
    let mut s = String::new();
    let stages: [(&str, StageSelector); 3] = [
        ("injected", |f| &f.wire_injected),
        ("detected", |f| &f.wire_detected),
        ("recovered", |f| &f.wire_recovered),
    ];
    let kinds = |c: &WireFaultCounts| {
        [
            ("corrupt", c.corrupt),
            ("truncate", c.truncate),
            ("delay", c.delay),
            ("reset", c.reset),
            ("stall", c.stall),
        ]
    };
    for (stage, sel) in stages {
        let _ = writeln!(
            s,
            "# HELP quake_wire_{stage}_total Wire faults {stage}, by kind."
        );
        let _ = writeln!(s, "# TYPE quake_wire_{stage}_total counter");
        for (kind, v) in kinds(sel(fr)) {
            let _ = writeln!(s, "quake_wire_{stage}_total{{kind=\"{kind}\"}} {v}");
        }
        for (shard, generation, f) in shards {
            for (kind, v) in kinds(sel(f)) {
                let _ = writeln!(
                    s,
                    "quake_wire_{stage}_total{{kind=\"{kind}\",shard=\"{shard}\",\
                     generation=\"{generation}\"}} {v}"
                );
            }
        }
    }
    for (name, help, v) in [
        (
            "wire_resends",
            "Cache replays answered for damaged frames.",
            fr.wire_resends,
        ),
        (
            "reconnects",
            "Socket links re-established after resets or peer deaths.",
            fr.reconnects,
        ),
        (
            "suspects",
            "Peers escalated to suspect after silent deadlines.",
            fr.suspects,
        ),
        (
            "respawned_shards",
            "Shard processes respawned by the supervisor.",
            fr.respawned_shards,
        ),
        (
            "ensemble_restarts",
            "Whole-ensemble retries after the restart budget ran out.",
            fr.ensemble_restarts,
        ),
    ] {
        let _ = writeln!(s, "# HELP quake_{name}_total {help}");
        let _ = writeln!(s, "# TYPE quake_{name}_total counter");
        let _ = writeln!(s, "quake_{name}_total {v}");
    }
    for (shard, generation, f) in shards {
        for (name, v) in [
            ("wire_resends", f.wire_resends),
            ("reconnects", f.reconnects),
        ] {
            let _ = writeln!(
                s,
                "quake_{name}_total{{shard=\"{shard}\",generation=\"{generation}\"}} {v}"
            );
        }
    }
    let _ = writeln!(
        s,
        "# HELP quake_wire_delay_us Injected wire delays and backoff waits, microseconds."
    );
    let _ = writeln!(s, "# TYPE quake_wire_delay_us histogram");
    let mut delay_hist = |labels: &str, f: &FaultReport| {
        let mut cum = 0u64;
        for (i, n) in f.wire_delay_us_hist.iter().enumerate() {
            cum += n;
            let _ = writeln!(
                s,
                "quake_wire_delay_us_bucket{{{labels}le=\"{}\"}} {cum}",
                1u64 << (i + 1)
            );
        }
        let _ = writeln!(s, "quake_wire_delay_us_bucket{{{labels}le=\"+Inf\"}} {cum}");
        let bare = labels.trim_end_matches(',');
        if bare.is_empty() {
            let _ = writeln!(s, "quake_wire_delay_us_sum {}", f.wire_delay_us_sum);
            let _ = writeln!(s, "quake_wire_delay_us_count {cum}");
        } else {
            let _ = writeln!(
                s,
                "quake_wire_delay_us_sum{{{bare}}} {}",
                f.wire_delay_us_sum
            );
            let _ = writeln!(s, "quake_wire_delay_us_count{{{bare}}} {cum}");
        }
    };
    delay_hist("", fr);
    for (shard, generation, f) in shards {
        delay_hist(
            &format!("shard=\"{shard}\",generation=\"{generation}\","),
            f,
        );
    }
    s
}

fn cmd_simulate(inv: &Invocation) -> Result<(), Box<dyn Error>> {
    let mut setup = SetupWalls::default();
    let app = setup.time("generate", || generate(inv))?;
    let steps: u64 = inv.get("steps", 300u64)?;
    let system = setup.time("assemble", || {
        assemble(&app.mesh, &GroundMaterial(&app.ground))
    })?;
    let max_vp = 3f64.sqrt() * app.ground.vs_rock;
    let dt = Simulation::stable_dt(&app.mesh, max_vp, 0.4);
    let smvp_flops = system.stiffness.smvp_flops();
    let mut sim = setup.time("Simulation::new", || Simulation::new(system, dt))?;
    println!("{setup}");
    let source = PointSource::nearest(
        &app.mesh,
        app.ground.basin_center_surface() + Vec3::new(0.0, 0.0, -2_000.0),
        Vec3::new(0.0, 0.0, 1e15),
        Ricker::new(1.0 / app.config.period_s),
    );
    sim.add_source(source);
    let rx = PointSource::nearest(
        &app.mesh,
        app.ground.basin_center_surface(),
        Vec3::ZERO,
        Ricker::new(1.0),
    )
    .node;
    sim.add_receiver(rx);
    sim.run(steps);
    println!(
        "mesh {} nodes / {} elements; dt = {}; ran {} steps = {} simulated",
        app.mesh.node_count(),
        app.mesh.element_count(),
        fmt_seconds(dt),
        sim.step_count(),
        fmt_seconds(sim.time())
    );
    println!(
        "per step: one SMVP of {smvp_flops} flops; receiver peak displacement {:.3e} m",
        sim.seismograms()[0].peak()
    );
    println!(
        "displacement energy: {:.3e} (finite => stable)",
        sim.displacement_energy()
    );
    if let Some(line) = memory_line(&app.mesh) {
        println!("{line}");
    }
    Ok(())
}

/// The process's peak resident set so far against the paper's sizing rule
/// for `mesh`, or `None` where the platform reports no peak.
fn memory_line(mesh: &TetMesh) -> Option<String> {
    let peak = peak_resident_bytes()?;
    Some(format!(
        "memory: peak resident {:.1} MB = {} bytes/node (paper rule: {:.1} MB at {BYTES_PER_NODE} bytes/node)",
        peak as f64 / 1e6,
        peak / mesh.node_count().max(1),
        mesh.estimated_runtime_bytes() as f64 / 1e6
    ))
}

/// The process's peak resident set size so far (`VmHWM`), where the
/// platform reports it.
fn peak_resident_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: usize = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}
