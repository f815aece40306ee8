//! Library-callable entry points for the experiment binaries.
//!
//! Each `fig*`/`tab_*` binary is a thin printer over one of these
//! functions, so the quantities behind every figure and table can be
//! regenerated — and shape-checked — from tests without spawning
//! processes or parsing stdout. All entry points are parameterized by
//! scale/parts explicitly; only the binaries read `QUAKE_SCALE` /
//! `QUAKE_PARTS` (via [`crate::scale`] / [`crate::subdomain_counts`]).

use quake_app::characterize::AnalyzedInstance;
use quake_app::family::QuakeApp;
use quake_core::characterize::{AppCommSummary, SmvpInstance};
use quake_core::machine::Processor;
use quake_core::model::eq1::required_sustained_bandwidth;
use quake_fem::assembly::{assemble, UniformMaterial};
use quake_memsim::hierarchy::Hierarchy;
use quake_memsim::trace::{estimate_tf, TfEstimate};
use quake_mesh::ground::Material;
use quake_mesh::mesh::TetMesh;
use quake_partition::comm::CommAnalysis;
use quake_partition::geometric::{
    LinearPartition, Partitioner, RandomPartition, RecursiveBisection,
};
use quake_partition::refine::{refine, RefineOptions};
use quake_partition::sfc::MortonPartition;
use quake_partition::spectral::SpectralBisection;
use quake_sparse::reorder::{identity_perm, permuted_bandwidth, rcm};
use quake_sparse::tiles::SymTiles;

/// One mesh-size row of Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshSizeRow {
    /// Application name.
    pub name: String,
    /// Resolved period in seconds.
    pub period_s: f64,
    /// Node count.
    pub nodes: u64,
    /// Element count.
    pub elements: u64,
    /// Edge count.
    pub edges: u64,
}

/// Figure 2 (synthetic half): sizes of the generated family.
pub fn mesh_size_rows(apps: &[QuakeApp]) -> Vec<MeshSizeRow> {
    apps.iter()
        .map(|app| {
            let s = app.size_stats();
            MeshSizeRow {
                name: app.config.name.clone(),
                period_s: app.config.period_s,
                nodes: s.nodes as u64,
                elements: s.elements as u64,
                edges: s.edges as u64,
            }
        })
        .collect()
}

/// Node-growth factor between consecutive rows (the paper's ≈ 8× per
/// period halving). `rows[i]` maps to `factors[i-1]`.
pub fn growth_factors(rows: &[MeshSizeRow]) -> Vec<f64> {
    rows.windows(2)
        .map(|w| w[1].nodes as f64 / w[0].nodes as f64)
        .collect()
}

/// Figures 6/7 (synthetic half): characterizes `app` across `parts` with
/// the inertial geometric partitioner.
pub fn smvp_properties(app: &QuakeApp, parts: &[usize]) -> Vec<AnalyzedInstance> {
    quake_app::characterize::figure7_table(
        &app.config.name,
        &app.mesh,
        &RecursiveBisection::inertial(),
        parts,
    )
}

/// Figure 6: the β matrix, `beta_matrix[part_index][app_index]`, from
/// per-app characterization tables (each indexed the same way by parts).
pub fn beta_matrix(tables: &[Vec<AnalyzedInstance>]) -> Vec<Vec<f64>> {
    if tables.is_empty() {
        return Vec::new();
    }
    (0..tables[0].len())
        .map(|pi| tables.iter().map(|t| t[pi].beta).collect())
        .collect()
}

/// Figure 8 input: each instance paired with its bisection volume in
/// words, ready for [`quake_core::requirements::bisection_series`].
pub fn bisection_inputs(app: &QuakeApp, parts: &[usize]) -> Vec<(SmvpInstance, u64)> {
    smvp_properties(app, parts)
        .into_iter()
        .map(|a| (a.instance.clone(), a.bisection_words))
        .collect()
}

/// Figure 9 input: the bare instances for
/// [`quake_core::requirements::sustained_bandwidth_series`].
pub fn instances_of(analyzed: &[AnalyzedInstance]) -> Vec<SmvpInstance> {
    analyzed.iter().map(|a| a.instance.clone()).collect()
}

/// §1 table: the EXFLOW-style aggregates derived from a Figure 7 row by
/// the paper's formulas (`C_max·8 B` per `F/10⁶` flops, `B_max` messages
/// per MFLOP, `M_avg·8 B` per message).
pub fn comm_summary_from_instance(inst: &SmvpInstance, total_nodes: u64) -> AppCommSummary {
    let mflops = inst.f as f64 / 1e6;
    AppCommSummary {
        data_mb_per_pe: total_nodes as f64 * 1200.0 / inst.subdomains as f64 / 1e6,
        comm_kb_per_mflop: inst.c_max as f64 * 8.0 / 1e3 / mflops,
        messages_per_mflop: inst.b_max as f64 / mflops,
        avg_message_kb: inst.m_avg * 8.0 / 1e3,
    }
}

/// One partitioner-ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Strategy label (`"rib"`, `"rib+refine"`, …).
    pub label: String,
    /// Shared (replicated) node count.
    pub shared_nodes: usize,
    /// Node replication factor.
    pub replication: f64,
    /// The characterized instance.
    pub instance: SmvpInstance,
    /// The β bound.
    pub beta: f64,
    /// Required sustained bandwidth at E = 0.9 (bytes/s).
    pub required_bandwidth: f64,
}

/// The partitioner strategies the ablation compares, by name.
pub fn ablation_strategies() -> Vec<(&'static str, Box<dyn Partitioner>)> {
    vec![
        ("rib", Box::new(RecursiveBisection::inertial())),
        ("rcb", Box::new(RecursiveBisection::coordinate())),
        ("spectral", Box::new(SpectralBisection::default())),
        ("morton", Box::new(MortonPartition)),
        ("linear", Box::new(LinearPartition)),
        ("random", Box::new(RandomPartition { seed: 1 })),
    ]
}

/// Partitioner-ablation table: every strategy in `strategies`, with and
/// without greedy refinement, characterized on `mesh` at `parts`
/// subdomains for `processor` at E = 0.9.
pub fn partitioner_ablation(
    mesh: &TetMesh,
    parts: usize,
    strategies: &[(&str, Box<dyn Partitioner>)],
    processor: &Processor,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (name, strat) in strategies {
        for refined in [false, true] {
            let base = strat.partition(mesh, parts).expect("partition");
            let (partition, label) = if refined {
                let (p, _) = refine(mesh, &base, RefineOptions::default()).expect("refine");
                (p, format!("{name}+refine"))
            } else {
                (base, (*name).to_string())
            };
            let analysis = CommAnalysis::new(mesh, &partition);
            let instance = SmvpInstance::new(
                "ablation",
                parts,
                analysis.f_max(),
                analysis.c_max(),
                analysis.b_max(),
                analysis.m_avg(),
            );
            rows.push(AblationRow {
                label,
                shared_nodes: partition.shared_node_count(),
                replication: partition.replication_factor(),
                beta: analysis.beta(),
                required_bandwidth: required_sustained_bandwidth(&instance, 0.9, processor),
                instance,
            });
        }
    }
    rows
}

/// One sustained-`T_f` row (§3.1 table).
#[derive(Debug, Clone, PartialEq)]
pub struct SustainedTfRow {
    /// Matrix ordering (`"natural"` or `"rcm"`).
    pub ordering: String,
    /// Pattern bandwidth under that ordering.
    pub pattern_bandwidth: usize,
    /// The cache-simulated estimate.
    pub estimate: TfEstimate,
}

/// §3.1 table: the sustained-`T_f` estimate for each ordering on an
/// Alpha-21164-like node with raw `flop_time` seconds per flop.
///
/// Each row replays the half-storage SMVP the program runs over the mesh's
/// stiffness, assembled with a uniform material (the replay reads
/// addresses only), in natural node order or renumbered by RCM, as the
/// executor's `--rcm` plans are.
///
/// # Panics
///
/// Panics on an ordering other than `"natural"` or `"rcm"`.
pub fn sustained_tf_rows(
    mesh: &TetMesh,
    flop_time: f64,
    orderings: &[&str],
) -> Vec<SustainedTfRow> {
    let pattern = mesh.pattern();
    let material = Material {
        vs: 1000.0,
        vp: 2000.0,
        rho: 2000.0,
    };
    orderings
        .iter()
        .map(|&ordering| {
            // Each row assembles its own copy, which the conversion consumes.
            let stiffness = assemble(mesh, &UniformMaterial(material))
                .expect("mesh assembles")
                .stiffness;
            let (perm, matrix) = match ordering {
                "natural" => (identity_perm(pattern.node_count()), stiffness),
                "rcm" => {
                    let perm = rcm(&pattern);
                    let matrix = stiffness
                        .permute_symmetric(&perm)
                        .expect("rcm yields a permutation");
                    (perm, matrix)
                }
                other => panic!("unknown ordering {other}"),
            };
            let sym = SymTiles::from_bcsr_owned(matrix).expect("stiffness is bitwise symmetric");
            let mut h = Hierarchy::alpha_21164_like();
            SustainedTfRow {
                ordering: ordering.to_string(),
                pattern_bandwidth: permuted_bandwidth(&pattern, &perm),
                estimate: estimate_tf(&sym, &mut h, flop_time, 1),
            }
        })
        .collect()
}

/// §4.1 iso-efficiency row: nodes/PE a machine needs for a target
/// efficiency.
#[derive(Debug, Clone, PartialEq)]
pub struct IsoEfficiencyRow {
    /// Processor name.
    pub processor: String,
    /// Network per-word time in seconds.
    pub t_c: f64,
    /// The `F/C_max` ratio Eq. (1) demands.
    pub required_ratio: f64,
    /// Nodes per PE attaining that ratio under the fitted law.
    pub nodes_per_pe: f64,
}

/// Inverts Eq. (1): the `F/C_max` a machine `(t_f, t_c)` needs for
/// efficiency `e`.
pub fn required_ratio_for_efficiency(t_c: f64, e: f64, t_f: f64) -> f64 {
    assert!(e > 0.0 && e < 1.0, "efficiency must be in (0, 1)");
    t_c / (((1.0 - e) / e) * t_f)
}

/// §4.1 iso-efficiency table over `(processor, t_c seconds/word)` cases at
/// target efficiency `e`, under the fitted scaling law.
pub fn iso_efficiency_rows(
    law: &quake_core::model::scaling_law::ScalingLaw,
    cases: &[(Processor, f64)],
    e: f64,
) -> Vec<IsoEfficiencyRow> {
    cases
        .iter()
        .map(|(pe, t_c)| {
            let required_ratio = required_ratio_for_efficiency(*t_c, e, pe.t_f);
            IsoEfficiencyRow {
                processor: pe.name.to_string(),
                t_c: *t_c,
                required_ratio,
                nodes_per_pe: law.nodes_per_pe_for_ratio(required_ratio),
            }
        })
        .collect()
}
