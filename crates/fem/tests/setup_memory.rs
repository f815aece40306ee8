//! `Simulation::new` converts the assembled stiffness into half storage
//! without ever holding both: the conversion consumes the source matrix
//! as it fills the stream, so the process's peak resident size grows by
//! far less than the stream itself.
//!
//! The peak is the kernel's own `VmHWM`, which counts pages as they are
//! faulted in and released; an allocator-level byte count cannot see the
//! saving, which comes from the stream's pages being touched only as the
//! source's are handed back. This is the only test in its binary, so no
//! other test allocates while it measures.

#![cfg(target_os = "linux")]

use quake_fem::assembly::AssembledSystem;
use quake_fem::timestep::Simulation;
use quake_sparse::bcsr::ElementAssembler;
use quake_sparse::dense::Mat3;

/// Nodes coupled to each neighbour within this distance.
const HALF_BAND: usize = 8;

/// A banded, bitwise-symmetric stiffness of sf5's size: "elements" of
/// `HALF_BAND + 1` consecutive nodes, each contributing `B` to block
/// `(a, b)` and `Bᵀ` to `(b, a)`.
fn banded_system(n: usize) -> AssembledSystem {
    const K: usize = HALF_BAND + 1;
    let elements: Vec<[usize; K]> = (0..n - HALF_BAND)
        .map(|e| std::array::from_fn(|a| e + a))
        .collect();
    let mut asm = ElementAssembler::new(n, &elements);
    for (e, conn) in elements.iter().enumerate() {
        let ke: [[Mat3; K]; K] = std::array::from_fn(|a| {
            std::array::from_fn(|b| {
                let (lo, hi) = (a.min(b), a.max(b));
                let v = (e % 7) as f64 + lo as f64 * 0.5 - hi as f64 * 0.25;
                let m = Mat3::new([[v, 1.0, -v], [2.0 * v, v, 0.5], [0.0, -1.0, v]]);
                if a <= b {
                    m
                } else {
                    m.transpose()
                }
            })
        });
        asm.add_element(conn, &ke);
    }
    AssembledSystem {
        stiffness: asm.finish(),
        mass: vec![1.0; n],
    }
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<usize>().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    kb * 1024
}

#[test]
fn simulation_new_never_holds_the_stiffness_and_its_stream_together() {
    let n = 28_000;
    let system = banded_system(n);
    let upper_blocks = system
        .stiffness
        .row_ptr()
        .windows(2)
        .enumerate()
        .map(|(r, w)| {
            let cols = &system.stiffness.col_idx()[w[0]..w[1]];
            cols.iter().filter(|&&c| c >= r).count()
        })
        .sum::<usize>();
    let stream = upper_blocks * 9 * std::mem::size_of::<f64>();
    assert!(stream > 8 * (2 << 20), "the stream spans many huge pages");
    let before = status_bytes("VmRSS:");
    let sim = Simulation::new(system, 1e-3).expect("banded system is symmetric");
    let growth = status_bytes("VmHWM:").saturating_sub(before);
    assert_eq!(sim.step_count(), 0);
    assert!(
        growth < stream / 4,
        "peak resident size grew by {:.1} MB over {:.1} MB before the \
         conversion; the {:.1} MB stream must not coexist with its source",
        growth as f64 / 1e6,
        before as f64 / 1e6,
        stream as f64 / 1e6
    );
}
