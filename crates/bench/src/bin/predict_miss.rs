//! Memsim miss-rate predictions for the BCSR layout transforms
//! (`EXPERIMENTS.md` table source).
//!
//! Replays the SMVP demand-access trace of each family mesh through
//! `memsim::predict` under the `modern_core_like` hierarchy and prints one
//! markdown table per mesh: the three layout transforms (`mat3-baseline` →
//! `tiled` → `tiled-prefetch`) with their L1 miss rate, memory fraction,
//! simulated demand time and streamed matrix bytes.
//!
//! Usage:
//!
//! ```text
//! predict_miss [--quick]   # full mode honors QUAKE_SCALE, quick uses sf10
//! ```

use quake_app::family::{standard_family, AppConfig, QuakeApp};
use quake_fem::assembly::{assemble, UniformMaterial};
use quake_memsim::hierarchy::Hierarchy;
use quake_memsim::predict_transforms;
use quake_mesh::ground::Material;
use quake_sparse::tiles::Bcsr3Tiles;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (scale, configs) = if quick {
        (12.0, vec![AppConfig::new("sf10", 10.0, 12.0)])
    } else {
        let scale = quake_bench::scale();
        (scale, standard_family(scale))
    };
    let template = Hierarchy::modern_core_like();
    println!(
        "Predicted SMVP demand-access behavior per layout transform \
         (memsim `modern_core_like`, scale {scale}):"
    );
    let mat = Material {
        vs: 1000.0,
        vp: 2000.0,
        rho: 2000.0,
    };
    for config in configs {
        eprintln!("generating {} (scale {scale})...", config.name);
        let app = QuakeApp::generate(config).expect("mesh generation failed");
        let sys = assemble(&app.mesh, &UniformMaterial(mat)).expect("assembly");
        let tiles = Bcsr3Tiles::from_bcsr(&sys.stiffness);
        let rows = predict_transforms(&tiles, &template);
        let base = rows.first().expect("three transforms").l1_miss_rate;
        println!(
            "\n{} ({} block rows, {} blocks):\n",
            app.config.name,
            tiles.block_rows(),
            sys.stiffness.blocks().len()
        );
        println!(
            "| transform | L1 miss % | Δ vs baseline | memory % | demand ms | matrix MiB/product |"
        );
        println!("|---|---|---|---|---|---|");
        for r in &rows {
            println!(
                "| {} | {:.2} | {:+.2} | {:.2} | {:.2} | {:.1} |",
                r.name,
                100.0 * r.l1_miss_rate,
                100.0 * (r.l1_miss_rate - base),
                100.0 * r.memory_fraction,
                r.mem_time * 1e3,
                r.bytes_streamed as f64 / (1024.0 * 1024.0)
            );
        }
    }
}
