//! §3.1 — sustained T_f: why irregular SMVPs run far below peak.
//!
//! The paper measures T_f = 30 ns (T3D) and 14 ns (T3E, ≈ 70 MFLOPS = 12%
//! of 600 MFLOPS peak). Without the hardware, the cache-hierarchy simulator
//! replays the reference stream of the local SMVP the program runs, the
//! half-storage sweep over the sf5 stiffness's upper 3×3 tiles, on an
//! Alpha-21164-like node to show the mechanism: the matrix stream and the
//! irregular x-gathers and acc-scatters miss, the sustained rate collapses,
//! and a bandwidth-reducing (RCM) ordering recovers part of it.

use quake_app::report::Table;
use quake_bench::figures::sustained_tf_rows;

fn main() {
    println!("== §3.1: sustained T_f for the local SMVP ==\n");
    println!("paper measurements:");
    println!("  Cray T3D (150 MHz 21064): T_f = 30 ns (~33 sustained MFLOPS)");
    println!("  Cray T3E (300 MHz 21164): T_f = 14 ns (~70 sustained MFLOPS, 12% of 600 peak)\n");

    let app = quake_bench::generate_app("sf5", 5.0);
    let cycle = 1.0 / 300e6; // 1 flop/cycle raw arithmetic, 300 MHz.
    let peak_mflops = 300.0;
    let rows = sustained_tf_rows(&app.mesh, cycle, &["natural", "rcm"]);
    let mut t = Table::new(vec![
        "ordering",
        "pattern bandwidth",
        "T_f (ns)",
        "sustained MFLOPS",
        "% of peak",
        "mem fraction",
    ]);
    for r in &rows {
        t.row(vec![
            r.ordering.clone(),
            r.pattern_bandwidth.to_string(),
            format!("{:.1}", r.estimate.t_f * 1e9),
            format!("{:.0}", r.estimate.mflops),
            format!("{:.0}%", 100.0 * r.estimate.mflops / peak_mflops),
            format!("{:.2}", r.estimate.memory_fraction),
        ]);
    }
    println!(
        "cache-simulated sustained rate of the half-storage SMVP (upper 3×3 tiles,\n\
         x gather, acc scatter) over the stiffness of the synthetic sf5 mesh\n\
         (scale {}), Alpha-21164-like node (8 KiB L1 / 96 KiB L2 / 60-cycle memory):\n",
        quake_bench::scale()
    );
    println!("{}", t.render());
    println!(
        "The simulated node sustains a modest fraction of its 300 MFLOPS peak on the\n\
         unstructured SMVP — the same phenomenon (and rough magnitude) as the paper's\n\
         12%-of-peak T3E measurement. T_f is per flop of the full product; mem\n\
         fraction is the share of the measured pass's references that reach memory.\n\
         T_f folds all of this in, which is why the paper treats it as a measured\n\
         input."
    );
}
