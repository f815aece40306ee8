//! Property tests: every kernel the program runs computes the oracle's
//! product, bit for bit.
//!
//! The oracle is the scalar 3×3 kernel `bmv_range_into` over the full row
//! range. Against it, on random block-symmetric matrices:
//!
//! * the half-storage product as `Simulation::advance` runs it:
//!   `broadcast_rows` over a `WorkerPool` of 1–8 threads, one `SymBand`
//!   per worker, each streaming its cross strip through
//!   `bmv_tiles_range_into` and then sweeping its rows in fixed-size
//!   pieces through `bmv_sym_rows_into` with its scatter limit — twice, so
//!   the second product starts from the scratch the first left dirty;
//! * the half-storage kernel `bmv_sym_into` on `SymTiles`, as the
//!   executor's barrier schedule runs it;
//! * `bmv_pooled_into` at 1–8 threads;
//! * the first two again with `force_scalar(true)`, which is how the
//!   scalar fallback is reached on AVX hardware (and what runs everywhere
//!   when the crate is built without `simd`).
//!
//! Matrices are built from a proptest-chosen `(size, seed)` pair and a
//! `StdRng::seed_from_u64(seed)` fill (the repository's deterministic
//! seeding convention — see `tests/README.md` at the workspace root), so
//! every failure is replayable from the printed inputs.

use proptest::prelude::*;
use quake_spark::{
    bmv_pooled_into, bmv_range_into, bmv_sym_into, broadcast_rows, force_scalar, simd_active,
    worker_rows, SymBand, WorkerPool,
};
use quake_sparse::bcsr::{Bcsr3, Bcsr3Builder};
use quake_sparse::dense::{Mat3, Vec3};
use quake_sparse::tiles::{LaneBlock, SymTiles};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes every test that runs a tile kernel: the scalar switch is
/// process-global, so a dispatched run must never overlap a forced one.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Holds [`DISPATCH_LOCK`] with the scalar path forced or not, and
/// restores runtime detection when dropped.
struct Dispatch {
    _lock: MutexGuard<'static, ()>,
}

impl Dispatch {
    fn pin(scalar: bool) -> Self {
        let lock = DISPATCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        force_scalar(scalar);
        Dispatch { _lock: lock }
    }
}

impl Drop for Dispatch {
    fn drop(&mut self) {
        force_scalar(false);
    }
}

/// A random block-symmetric matrix and a matching block vector: each row
/// holds its diagonal block with probability 3/4 (so some rows are
/// empty), each upper block `(i, j)` appears with probability 1/5 next to
/// its bitwise transpose at `(j, i)`, and about one entry in twelve is
/// `+0.0` or `-0.0`.
fn random_block_symmetric(n: usize, seed: u64) -> (Bcsr3, Vec<Vec3>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let entry = |rng: &mut StdRng| match rng.gen_range(0..24) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-5.0..5.0),
    };
    let block = |rng: &mut StdRng| {
        let mut m = [[0.0; 3]; 3];
        for row in &mut m {
            for v in row.iter_mut() {
                *v = entry(rng);
            }
        }
        Mat3::new(m)
    };
    let mut b = Bcsr3Builder::new(n);
    for i in 0..n {
        if rng.gen_bool(0.75) {
            b.add_block(i, i, block(&mut rng));
        }
        for j in (i + 1)..n {
            if rng.gen_bool(0.2) {
                let m = block(&mut rng);
                b.add_block(i, j, m);
                b.add_block(j, i, m.transpose());
            }
        }
    }
    let x = (0..n)
        .map(|_| Vec3::new(entry(&mut rng), entry(&mut rng), entry(&mut rng)))
        .collect();
    (b.build(), x)
}

/// A vector no kernel may leave behind: every row must be overwritten.
fn poisoned(n: usize) -> Vec<Vec3> {
    vec![Vec3::new(f64::NAN, f64::NAN, f64::NAN); n]
}

/// The oracle: the scalar kernel over every row.
fn oracle(matrix: &Bcsr3, x: &[Vec3]) -> Vec<Vec3> {
    let mut y = poisoned(matrix.block_rows());
    bmv_range_into(matrix, x, 0..matrix.block_rows(), &mut y);
    y
}

fn assert_bits_eq(want: &[Vec3], got: &[Vec3], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length mismatch");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(
            w.to_array().map(f64::to_bits),
            g.to_array().map(f64::to_bits),
            "{what}: row {i} differs: {w:?} vs {g:?}"
        );
    }
}

/// The product `Simulation::advance` computes: one [`SymBand`] per worker
/// of `pool` over its `worker_rows`, swept in `block`-row pieces inside
/// `broadcast_rows`. The same bands compute two products; the second
/// starts from the accumulators the first left dirty.
fn banded(sym: &SymTiles, x: &[Vec3], pool: &WorkerPool, block: usize) -> [Vec<Vec3>; 2] {
    let n = sym.block_rows();
    let t = pool.threads();
    let mut bands: Vec<SymBand> = (0..t)
        .map(|w| SymBand::new(sym, worker_rows(n, t, w)))
        .collect();
    [(); 2].map(|()| {
        let mut y = poisoned(n);
        broadcast_rows(pool, &mut y, &mut bands, |rows, out, band| {
            assert_eq!(rows, band.rows(), "a band must cover its worker's rows");
            let mut piece = vec![Vec3::ZERO; block];
            band.sweep(sym, x, &mut piece, |r, products| {
                out[r.start - rows.start..r.end - rows.start].copy_from_slice(products);
            });
        });
        y
    })
}

/// The barrier schedule's product, from scratch left dirty on purpose.
fn sym_product(sym: &SymTiles, x: &[Vec3]) -> Vec<Vec3> {
    let n = sym.block_rows();
    let mut acc = vec![LaneBlock([7.0; 4]); n];
    let mut y = poisoned(n);
    bmv_sym_into(sym, x, &mut acc, &mut y);
    y
}

fn pooled_scalar(matrix: &Bcsr3, x: &[Vec3], pool: &WorkerPool) -> Vec<Vec3> {
    let mut y = poisoned(matrix.block_rows());
    bmv_pooled_into(matrix, x, pool, &mut y);
    y
}

/// Checks the banded product (at each pool in `pools`), the half-storage
/// kernel and, unless `scalar`, the pooled scalar kernel against the
/// oracle; `scalar` pins the tile kernels to their fallback path.
fn check_kernels(matrix: &Bcsr3, x: &[Vec3], pools: &[WorkerPool], block: usize, scalar: bool) {
    let _dispatch = Dispatch::pin(scalar);
    if scalar {
        assert!(
            !simd_active(),
            "force_scalar(true) must disable the vector path"
        );
    }
    let path = if simd_active() { "avx" } else { "scalar" };
    let want = oracle(matrix, x);
    let sym = SymTiles::from_bcsr(matrix).expect("generated matrix is bitwise symmetric");
    assert_bits_eq(
        &want,
        &sym_product(&sym, x),
        &format!("bmv_sym_into ({path})"),
    );
    for pool in pools {
        let t = pool.threads();
        for (round, got) in banded(&sym, x, pool, block).iter().enumerate() {
            assert_bits_eq(
                &want,
                got,
                &format!("bands ({path}) at {t} threads, block {block}, round {round}"),
            );
        }
        if !scalar {
            let got = pooled_scalar(matrix, x, pool);
            assert_bits_eq(&want, &got, &format!("bmv_pooled_into at {t} threads"));
        }
    }
}

/// One pool of each width 1–8.
fn pools() -> Vec<WorkerPool> {
    (1..=8).map(WorkerPool::new).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_kernel_matches_the_oracle_bitwise(
        n in 1usize..64,
        seed in 0u64..1_000_000,
        block_pow in 0u32..9,
    ) {
        let (matrix, x) = random_block_symmetric(n, seed);
        check_kernels(&matrix, &x, &pools(), 1 << block_pow, false);
    }

    #[test]
    fn scalar_fallback_matches_the_oracle_bitwise(
        n in 1usize..64,
        seed in 0u64..1_000_000,
        block_pow in 0u32..9,
    ) {
        let (matrix, x) = random_block_symmetric(n, seed);
        check_kernels(&matrix, &x, &pools(), 1 << block_pow, true);
    }

    #[test]
    fn kernels_match_the_oracle_when_threads_exceed_rows(
        n in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        // More workers than rows: the split must not drop or repeat rows.
        let (matrix, x) = random_block_symmetric(n, seed);
        for scalar in [false, true] {
            check_kernels(&matrix, &x, &pools(), 256, scalar);
        }
    }
}

#[test]
fn kernels_handle_the_empty_matrix() {
    let (matrix, x) = random_block_symmetric(0, 1);
    assert!(oracle(&matrix, &x).is_empty());
    for scalar in [false, true] {
        check_kernels(&matrix, &x, &pools(), 1, scalar);
    }
}

#[test]
fn kernels_handle_a_single_row() {
    let mut b = Bcsr3Builder::new(1);
    b.add_block(0, 0, Mat3::identity() * 2.5);
    let matrix = b.build();
    let x = vec![Vec3::new(4.0, 4.0, 4.0)];
    assert_bits_eq(
        &oracle(&matrix, &x),
        &[Vec3::new(10.0, 10.0, 10.0)],
        "oracle",
    );
    for scalar in [false, true] {
        check_kernels(&matrix, &x, &pools(), 1, scalar);
    }
}

#[test]
fn pooled_kernels_are_reusable_across_products() {
    // One pool and one scratch serving many products (the paper's
    // 6000-step loop shape): every round must reproduce the oracle.
    let (matrix, x) = random_block_symmetric(32, 99);
    let want = oracle(&matrix, &x);
    let sym = SymTiles::from_bcsr(&matrix).expect("bitwise symmetric");
    let pool = WorkerPool::new(4);
    let mut acc = vec![LaneBlock::default(); 32];
    let _dispatch = Dispatch::pin(false);
    for round in 0..5 {
        let what = format!("round {round}");
        for got in banded(&sym, &x, &pool, 8) {
            assert_bits_eq(&want, &got, &what);
        }
        assert_bits_eq(&want, &pooled_scalar(&matrix, &x, &pool), &what);
        let mut y = poisoned(32);
        bmv_sym_into(&sym, &x, &mut acc, &mut y);
        assert_bits_eq(&want, &y, &what);
    }
}
