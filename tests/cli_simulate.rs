//! End-to-end leg of `quake simulate`: runs the built binary on the
//! default small mesh and checks the lines it prints.

use quake_app::family::{AppConfig, QuakeApp};
use std::process::Command;

#[test]
fn simulate_reports_flops_stability_and_memory() {
    let out = Command::new(env!("CARGO_BIN_EXE_quake"))
        .args([
            "simulate", "--period", "10", "--scale", "8", "--steps", "20",
        ])
        .output()
        .expect("quake runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "simulate exited {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    // The flop count is the assembled stiffness's, which is the mesh
    // pattern's: one block per edge and self-edge.
    let app = QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).expect("mesh generation");
    let flops = app.mesh.pattern().smvp_flops();
    let want = format!("per step: one SMVP of {flops} flops;");
    assert!(stdout.contains(&want), "missing {want:?} in:\n{stdout}");
    assert!(stdout.contains("(finite => stable)"), "{stdout}");
    assert!(stdout.contains("set-up: generate "), "{stdout}");
    let memory = stdout.lines().find(|l| l.starts_with("memory: "));
    if cfg!(target_os = "linux") {
        let line = memory.unwrap_or_else(|| panic!("no memory line in:\n{stdout}"));
        let nodes = app.mesh.node_count();
        let rule = format!(
            "(paper rule: {:.1} MB at 1200 bytes/node)",
            app.mesh.estimated_runtime_bytes() as f64 / 1e6
        );
        assert!(line.ends_with(&rule), "{line:?} lacks {rule:?}");
        // "memory: peak resident <MB> MB = <bytes> bytes/node ..."
        let fields: Vec<&str> = line.split_whitespace().collect();
        let mb: f64 = fields[3].parse().expect("peak MB");
        let per_node: usize = fields[6].parse().expect("bytes per node");
        assert!(mb > 0.0 && per_node > 0, "{line}");
        let implied = mb * 1e6 / nodes as f64;
        assert!(
            (implied - per_node as f64).abs() <= 0.06e6 / nodes as f64 + 1.0,
            "{line}: {per_node} bytes/node disagrees with {mb} MB over {nodes} nodes"
        );
    } else {
        assert!(memory.is_none(), "no peak to report here:\n{stdout}");
    }
}
