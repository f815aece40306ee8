//! The repository benchmark: the Quake time loop, a compute-bound BSP run
//! and a socket-bound BSP run, measured end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <timeloop-sf5|bsp-sf5-shared|bsp-sf10-proc> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` runs the traced layer ladder and
//! prints the per-layer metrics, writing its Chrome trace to
//! `.bench_out/`. The metric names and units are those of
//! `BENCHMARK.json`, which every run checks its output against. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`; the line before it is the run's record (provenance, matrix
//! features, model predictions, sample counts). The exit code is 0 only
//! when every correctness check passed; usage errors exit 2.
//!
//! `--smoke` runs every workload in both modes at tiny step counts,
//! including the proc shard processes, and checks every metric is printed
//! with its unit and finite and that the trace validates.

mod host;
mod spans;
mod stats;
mod workloads;

use quake_bench::json::{parse, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Outcome, Settings, Workload, WORKLOADS};

/// Where traces and the proc transport's rendezvous sockets go, relative to
/// the working directory.
const OUT_DIR: &str = ".bench_out";

/// glibc's fixed mmap threshold, set for the measured process.
const MALLOC_ENV: &str = "MALLOC_MMAP_THRESHOLD_";

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke";

/// One benchmark invocation.
struct Args {
    workload: &'static Workload,
    settings: Settings,
    traced: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut flags = BTreeMap::new();
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            return Ok(None);
        }
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?
            .to_string();
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let mut take = |key: &str| flags.remove(key).ok_or_else(|| format!("missing --{key}"));
    let name = take("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = take("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = take("seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds must be a non-negative number")?;
    let traced = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Some(Args {
        workload,
        settings: Settings {
            seed,
            seconds,
            smoke: false,
        },
        traced,
    }))
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares for a mode.
fn declared(traced: bool) -> Result<Vec<(String, String)>, String> {
    let doc = parse(include_str!("../../BENCHMARK.json")).map_err(|e| e.to_string())?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no '{key}' list"))?
        .iter()
        .map(|m| {
            match (
                m.get("name").and_then(Json::as_str),
                m.get("unit").and_then(Json::as_str),
            ) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: malformed {key} entry")),
            }
        })
        .collect()
}

/// The benchmark's own contract: exactly the declared metrics, each with
/// its declared unit and a finite value.
fn self_check(outcome: &Outcome, traced: bool) -> Result<(), String> {
    let want = declared(traced)?;
    let got: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect();
    let (mut want_sorted, mut got_sorted) = (want.clone(), got.clone());
    want_sorted.sort();
    got_sorted.sort();
    if want_sorted != got_sorted {
        return Err(format!(
            "printed metrics differ from BENCHMARK.json: missing {:?}, extra {:?}",
            want.iter().filter(|m| !got.contains(m)).collect::<Vec<_>>(),
            got.iter().filter(|m| !want.contains(m)).collect::<Vec<_>>(),
        ));
    }
    match outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, v, _)) => Err(format!("metric {name} is not finite ({v})")),
        None => Ok(()),
    }
}

/// Writes the traced run's spans once, then validates the file.
fn write_trace(name: &str, seed: u64, trace: &str) -> Result<String, String> {
    let path = format!("{OUT_DIR}/{name}-seed{seed}.trace.json");
    std::fs::write(&path, trace).map_err(|e| format!("{path}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let summary = quake_bench::trace::validate_chrome_trace(&text)?;
    if summary.spans == 0 {
        return Err(format!("{path}: no spans"));
    }
    Ok(path)
}

/// Runs one workload in one mode and prints its record and result lines.
/// Returns whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let load_before = host::loadavg();
    let outcome = if args.traced {
        workloads::run_traced(w, &args.settings)?
    } else {
        workloads::run_untraced(w, &args.settings)?
    };
    let load_after = host::loadavg();
    let mut record = vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::num(args.settings.seed as f64)),
        ("trace", Json::Bool(args.traced)),
        ("provenance", host::provenance()),
        ("load_before", load_before),
        ("load_after", load_after),
    ];
    if let Some(trace) = &outcome.trace {
        let path = write_trace(w.name, args.settings.seed, trace)?;
        record.push(("trace_file", Json::str(path)));
    }
    record.extend(outcome.record.iter().cloned());
    let contract = self_check(&outcome, args.traced);
    let checks = &outcome.checks;
    let correct = checks.failed == 0 && contract.is_ok();
    println!("{}", Json::obj(vec![("record", Json::obj(record))]));
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() {
                Json::Number(value)
            } else {
                Json::Null
            };
            (
                name,
                Json::obj(vec![("value", value), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::num(checks.attempted as f64)),
            ("failed", Json::num(checks.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    contract?;
    Ok(correct)
}

/// Every workload in both modes at tiny step counts.
fn smoke() -> Result<bool, String> {
    let mut ok = true;
    for workload in &WORKLOADS {
        for traced in [false, true] {
            eprintln!("smoke: {} trace={}", workload.name, u8::from(traced));
            let args = Args {
                workload,
                settings: Settings {
                    seed: 1,
                    seconds: 0.0,
                    smoke: true,
                },
                traced,
            };
            ok &= run(&args)?;
        }
    }
    Ok(ok)
}

/// Runs this binary again with glibc's mmap threshold pinned, so that large
/// buffers are always mapped and unmapped and peak RSS does not depend on
/// where the allocator's adaptive threshold happens to stand.
fn reexec_with_fixed_malloc() -> Option<ExitCode> {
    if std::env::var_os(MALLOC_ENV).is_some() {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(MALLOC_ENV, "131072")
        .status();
    Some(match status {
        Ok(s) => ExitCode::from(s.code().map_or(1, |c| c.clamp(0, 255) as u8)),
        Err(e) => {
            eprintln!("error: re-executing the benchmark: {e}");
            ExitCode::FAILURE
        }
    })
}

fn main() -> ExitCode {
    // Proc shard children re-execute this binary; route them first.
    quake_app::transport::proc::shard_host_hook();
    if let Some(code) = reexec_with_fixed_malloc() {
        return code;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Keep the proc rendezvous sockets inside the working directory, on a
    // short relative path (socket paths are limited to ~100 bytes).
    let tmp = format!("{OUT_DIR}/tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: {tmp}: {e}");
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &tmp);
    let result = match &args {
        Some(args) => run(args),
        None => smoke(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
