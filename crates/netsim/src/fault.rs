//! Fault-aware sweeps: where do stragglers and degraded links move the
//! SMVP's operating point?
//!
//! [`sweep::efficiency_surface`](crate::sweep::efficiency_surface) maps the
//! healthy design space. This module asks the robustness questions the
//! executor's chaos layer raises: if some PEs compute `factor`× slower
//! (re-executed shards, throttled cores, the chaos layer's injected
//! delays), how much does the step stretch ([`straggler_surface`])? And if
//! a link drops to half its burst bandwidth — the communication-side
//! analogue of a straggler — how much efficiency is lost
//! ([`half_bandwidth_shift`])?
//!
//! Stragglers are modeled in the *workload* ([`Workload::with_stragglers`])
//! rather than the machine: a PE that must redo or slow its shard presents
//! more flops to the same barrier, which is exactly how the BSP executor's
//! inline crash re-run behaves.

use crate::simulate::{simulate_smvp, SimOptions};
use crate::workload::Workload;
use quake_core::machine::{Network, Processor};

/// One cell of the straggler surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerCell {
    /// Probability that a PE is a straggler.
    pub prob: f64,
    /// Compute slowdown factor applied to straggler PEs.
    pub factor: f64,
    /// Simulated efficiency of the degraded run.
    pub efficiency: f64,
    /// Degraded `T_smvp` over fault-free `T_smvp` (≥ 1).
    pub slowdown: f64,
}

/// Simulates the SMVP over a (straggler probability × slowdown factor)
/// grid, row-major by probability. Victim PEs are drawn once per `(prob,
/// seed)` pair, so cells along a factor row degrade the *same* PEs harder —
/// the clean one-knob sweep.
///
/// # Panics
///
/// Panics if a grid dimension is empty, or via
/// [`Workload::with_stragglers`] on out-of-range knobs.
pub fn straggler_surface(
    workload: &Workload,
    processor: &Processor,
    network: &Network,
    probs: &[f64],
    factors: &[f64],
    seed: u64,
    options: SimOptions,
) -> Vec<StragglerCell> {
    assert!(!probs.is_empty() && !factors.is_empty(), "empty grid");
    let clean = simulate_smvp(workload, processor, network, options).t_smvp();
    let mut cells = Vec::with_capacity(probs.len() * factors.len());
    for &prob in probs {
        for &factor in factors {
            let degraded = workload.with_stragglers(prob, factor, seed);
            let timing = simulate_smvp(&degraded, processor, network, options);
            cells.push(StragglerCell {
                prob,
                factor,
                efficiency: timing.efficiency(),
                slowdown: timing.t_smvp() / clean,
            });
        }
    }
    cells
}

/// Efficiency lost when every link degrades to half its burst bandwidth
/// (`T_w` doubled): fault-free efficiency minus degraded efficiency, in
/// [0, 1]. The communication-side counterpart of a straggler — a cheap
/// scalar for "how close to the bandwidth cliff does this workload sit".
pub fn half_bandwidth_shift(
    workload: &Workload,
    processor: &Processor,
    network: &Network,
    options: SimOptions,
) -> f64 {
    let healthy = simulate_smvp(workload, processor, network, options).efficiency();
    let degraded_net = Network {
        name: "half-bandwidth",
        t_l: network.t_l,
        t_w: network.t_w * 2.0,
    };
    let degraded = simulate_smvp(workload, processor, &degraded_net, options).efficiency();
    healthy - degraded
}

/// Renders the straggler surface as an ASCII grid (rows = probabilities,
/// columns = factors), one digit per cell: `9` = slowdown < 1.1, `8` =
/// slowdown < 1.2, … `0` = slowdown ≥ 2.
pub fn render_straggler_surface(cells: &[StragglerCell], probs: &[f64], factors: &[f64]) -> String {
    let mut out = String::new();
    for (i, &prob) in probs.iter().enumerate() {
        out.push_str(&format!("p={prob:<5.2} | "));
        for (j, _) in factors.iter().enumerate() {
            let s = cells[i * factors.len() + j].slowdown;
            let digit = (10.0 - (s - 1.0) * 10.0).floor().clamp(0.0, 9.0) as u8;
            out.push((b'0' + digit) as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Workload, Processor, Network) {
        (
            Workload::ring(16, 1_000_000, 500),
            Processor::hypothetical_200mflops(),
            Network::cray_t3e(),
        )
    }

    #[test]
    fn surface_is_deterministic_and_anchored_at_identity() {
        let (w, pe, net) = setup();
        let probs = [0.0, 0.25, 1.0];
        let factors = [1.0, 2.0, 8.0];
        let a = straggler_surface(&w, &pe, &net, &probs, &factors, 11, SimOptions::default());
        let b = straggler_surface(&w, &pe, &net, &probs, &factors, 11, SimOptions::default());
        assert_eq!(a, b, "same seed, same surface");
        assert_eq!(a.len(), 9);
        // prob = 0 and factor = 1 rows are fault-free: slowdown exactly 1.
        for cell in a.iter().filter(|c| c.prob == 0.0 || c.factor == 1.0) {
            assert!(
                (cell.slowdown - 1.0).abs() < 1e-12,
                "identity cell slowed down: {cell:?}"
            );
        }
    }

    #[test]
    fn slowdown_grows_with_the_factor_and_bounds_it() {
        let (w, pe, net) = setup();
        let factors = [1.0, 2.0, 4.0, 8.0];
        let cells = straggler_surface(&w, &pe, &net, &[1.0], &factors, 3, SimOptions::default());
        for pair in cells.windows(2) {
            assert!(
                pair[1].slowdown >= pair[0].slowdown - 1e-12,
                "slowdown must be monotone in the factor"
            );
        }
        // With every PE a straggler, compute scales by exactly the factor,
        // so the step slowdown is sandwiched between 1 and the factor.
        for cell in &cells {
            assert!(cell.slowdown >= 1.0 - 1e-12 && cell.slowdown <= cell.factor + 1e-12);
        }
    }

    #[test]
    fn half_bandwidth_shift_is_a_sane_fraction() {
        let (w, pe, net) = setup();
        let shift = half_bandwidth_shift(&w, &pe, &net, SimOptions::default());
        assert!((0.0..=1.0).contains(&shift), "shift {shift} outside [0, 1]");
        // A bandwidth-starved machine must lose efficiency when the wire
        // halves again.
        let slow_net = Network {
            name: "slow",
            t_l: net.t_l,
            t_w: net.t_w * 1e4,
        };
        assert!(half_bandwidth_shift(&w, &pe, &slow_net, SimOptions::default()) > 0.0);
    }

    #[test]
    fn render_marks_identity_and_heavy_rows() {
        let (w, pe, net) = setup();
        let probs = [0.0, 1.0];
        let factors = [1.0, 16.0];
        let cells = straggler_surface(&w, &pe, &net, &probs, &factors, 5, SimOptions::default());
        let text = render_straggler_surface(&cells, &probs, &factors);
        assert_eq!(text.lines().count(), 2);
        let rows: Vec<&str> = text.lines().collect();
        assert!(rows[0].ends_with("99"), "fault-free row is all 9s: {text}");
        assert!(rows[1].ends_with('0'), "16x stragglers bottom out: {text}");
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_panics() {
        let (w, pe, net) = setup();
        let _ = straggler_surface(&w, &pe, &net, &[], &[1.0], 1, SimOptions::default());
    }
}
