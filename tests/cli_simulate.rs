//! End-to-end leg of `quake simulate`: runs the built binary on the
//! default small mesh and checks the lines it prints.

mod common;

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
    let app = common::default_app();
    let flops = app.mesh.pattern().smvp_flops();
    let want = format!("per step: one SMVP of {flops} flops;");
    assert!(stdout.contains(&want), "missing {want:?} in:\n{stdout}");
    assert!(stdout.contains("(finite => stable)"), "{stdout}");
    assert!(stdout.contains("set-up: generate "), "{stdout}");
    common::assert_memory_line(&stdout, &app);
}
