//! Provenance of a result: what build ran, on what host, under what load.

use quake_bench::json::Json;
use std::path::Path;
use std::process::Command;

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> Json {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let loads: Vec<Json> = text
        .split_whitespace()
        .take(3)
        .filter_map(|f| f.parse::<f64>().ok())
        .map(Json::num)
        .collect();
    Json::Array(loads)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `(level, type, size)` of each cache of CPU 0, as sysfs reports them
/// (e.g. `(2, "Unified", "2048K")`).
fn caches() -> Vec<(u32, String, String)> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| {
            std::fs::read_to_string(dir.join(f))
                .map(|s| s.trim().to_string())
                .ok()
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        if let Ok(level) = level.parse() {
            out.push((level, kind, size));
        }
    }
    out
}

/// Git revision and dirty flag of the working directory, when it is a git
/// checkout; otherwise both read `unknown`.
fn git() -> (String, String) {
    if !Path::new(".git").exists() {
        return ("unknown".into(), "unknown".into());
    }
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match run(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".into(),
    };
    (rev, dirty)
}

/// Everything about the build and host that a result depends on.
pub fn provenance() -> Json {
    let (rev, dirty) = git();
    let caches = caches();
    let cache_of = |pred: &dyn Fn(u32, &str) -> bool| {
        caches
            .iter()
            .filter(|(l, k, _)| pred(*l, k))
            .max_by_key(|(l, _, _)| *l)
            .map_or("unknown".to_string(), |(_, _, s)| s.clone())
    };
    let l2 = cache_of(&|l, k| l == 2 && k != "Instruction");
    let llc = cache_of(&|_, k| k != "Instruction");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("git_rev", Json::str(rev)),
        ("git_dirty", Json::str(dirty)),
        ("nproc", Json::num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("l2", Json::str(l2)),
        ("llc", Json::str(llc)),
        (
            "simd_active",
            Json::Bool(quake_spark::tile_kernels::simd_active()),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}
