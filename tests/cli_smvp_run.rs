//! End-to-end legs of `quake smvp-run`: each runs the built binary and
//! checks its exit status and the bitwise proof lines it prints. A run
//! exits non-zero when a proof fails, so the lines pin that each proof
//! still runs.

mod common;

use std::path::PathBuf;
use std::process::{Command, Output};

fn smvp_run(args: &[&str]) -> Output {
    quake("smvp-run", args)
}

fn quake(command: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_quake"))
        .arg(command)
        .args(args)
        .output()
        .expect("quake runs")
}

/// Runs a leg that must succeed and returns its stdout.
fn passing(args: &[&str]) -> String {
    let out = smvp_run(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "smvp-run {args:?} exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn assert_lines(stdout: &str, lines: &[&str]) {
    for line in lines {
        assert!(
            stdout.lines().any(|l| l == *line),
            "missing line {line:?} in:\n{stdout}"
        );
    }
}

const SCALAR: &str = "vector output bitwise-equal to scalar fallback: yes";
const COUNTERS: &str = "(Δ 0), C_max = ";

#[test]
fn shared_barrier_run_proves_the_scalar_fallback() {
    let stdout = passing(&["--threads", "2", "--steps", "4"]);
    assert_lines(&stdout, &[SCALAR]);
    assert!(stdout.contains(COUNTERS), "counters must match:\n{stdout}");
    assert!(stdout.contains("set-up: generate "), "{stdout}");
    assert!(
        stdout.contains(", plan "),
        "in-process runs time their plan"
    );
    // The clean configuration is its own reference: no rerun, no claim.
    assert!(!stdout.contains("output bitwise-equal to shared transport"));
    common::assert_memory_line(&stdout, &common::default_app());
}

#[test]
fn overlapped_chaos_run_proves_against_the_clean_reference_and_exports() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_smvp_run_chaos");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let stdout = passing(&[
        "--threads",
        "2",
        "--steps",
        "8",
        "--overlap",
        "on",
        "--fault-rate",
        "0.08",
        "--fault-seed",
        "42",
        "--trace-json",
        trace.to_str().expect("utf-8 path"),
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
    ]);
    let kernel = format!(
        "local kernel: half-storage symmetric tiles, AVX dispatch {}",
        if quake_spark::tile_kernels::simd_active() {
            "active"
        } else {
            "unavailable (scalar fallback)"
        }
    );
    assert_lines(
        &stdout,
        &[
            "overlapped output bitwise-equal to barrier schedule: yes",
            "recovered output bitwise-equal to fault-free reference: yes",
            SCALAR,
            &kernel,
        ],
    );
    assert!(stdout.contains(COUNTERS), "counters must match:\n{stdout}");
    let trace = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    let metrics = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        metrics.lines().any(|l| l == "quake_drift_flagged_total 0"),
        "{metrics}"
    );
}

#[test]
fn netsim_run_proves_against_the_shared_transport() {
    let stdout = passing(&[
        "--threads",
        "2",
        "--steps",
        "4",
        "--transport",
        "netsim",
        "--shards",
        "2",
        "--nodes",
        "2",
    ]);
    assert_lines(
        &stdout,
        &[
            "netsim output bitwise-equal to shared transport: yes",
            SCALAR,
        ],
    );
    assert!(stdout.contains("node-aware exchange armed"), "{stdout}");
    assert!(stdout.contains("netsim postal model"), "{stdout}");
}

#[test]
fn proc_chaos_run_proves_against_a_fault_free_reference() {
    let stdout = passing(&[
        "--parts",
        "5",
        "--threads",
        "2",
        "--steps",
        "6",
        "--transport",
        "proc",
        "--shards",
        "2",
        "--fault-rate",
        "0.1",
        "--fault-seed",
        "3",
    ]);
    assert_lines(
        &stdout,
        &[
            "proc output bitwise-equal to shared transport: yes",
            "recovered output bitwise-equal to fault-free reference: yes",
            SCALAR,
        ],
    );
    assert!(stdout.contains(COUNTERS), "counters must match:\n{stdout}");
}

/// A usage error exits 2 and returns stderr.
fn usage_error(args: &[&str]) -> String {
    command_usage_error("smvp-run", args)
}

fn command_usage_error(command: &str, args: &[&str]) -> String {
    let out = quake(command, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{command} {args:?}: {stderr}");
    stderr
}

#[test]
fn unknown_partitioner_is_a_usage_error() {
    let stderr = usage_error(&["--partitioner", "voronoi"]);
    assert!(stderr.contains("'voronoi' for --partitioner"), "{stderr}");
}

#[test]
fn more_nodes_than_shards_names_the_bound() {
    let stderr = usage_error(&["--nodes", "3"]);
    assert!(
        stderr.contains("'3 (more nodes than --shards 2)' for --nodes"),
        "{stderr}"
    );
}

#[test]
fn zero_parts_is_a_usage_error() {
    let stderr = usage_error(&["--parts", "0"]);
    assert!(stderr.contains("'0' for --parts"), "{stderr}");
    let stderr = command_usage_error("characterize", &["--parts", "4,0"]);
    assert!(stderr.contains("'4,0' for --parts"), "{stderr}");
}

#[test]
fn retired_recovery_flags_are_usage_errors() {
    for args in [["--recovery", "restart"], ["--checkpoint-every", "4"]] {
        let stderr = usage_error(&args);
        assert!(stderr.contains(args[0]), "{stderr}");
    }
}
