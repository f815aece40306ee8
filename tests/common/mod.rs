//! Helpers shared by the CLI test binaries.

use quake_app::family::{AppConfig, QuakeApp};

/// Checks the `memory:` line a command prints for its mesh `app`: on Linux
/// its shape, the paper's rule for the mesh, and a bytes-per-node figure
/// that agrees with the peak; elsewhere, that no line is printed.
pub fn assert_memory_line(stdout: &str, app: &QuakeApp) {
    let memory = stdout.lines().find(|l| l.starts_with("memory: "));
    if !cfg!(target_os = "linux") {
        assert!(memory.is_none(), "no peak to report here:\n{stdout}");
        return;
    }
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
}

/// The default mesh of `simulate` and `smvp-run`: sf10 at scale 8.
pub fn default_app() -> QuakeApp {
    QuakeApp::generate(AppConfig::new("sf10", 10.0, 8.0)).expect("mesh generation")
}
