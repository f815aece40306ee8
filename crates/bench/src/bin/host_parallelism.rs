//! What a second thread buys on this host (`EXPERIMENTS.md` table source).
//!
//! Two vCPUs may be two cores or two SMT siblings of one core, and a
//! parallel speed-up means different things on each. Four probes, each
//! run `--reps` times alternating one thread and two:
//!
//! * a throughput-bound FP loop (32 independent multiply-add chains) and
//!   a latency-bound one (one dependent chain), one unit of work per
//!   thread: on two cores two threads take as long as one; on SMT
//!   siblings the throughput-bound loop takes about twice as long;
//! * streaming reads of a 17 MB array (the size of the sf5 half-storage
//!   stiffness), whole on one thread, half per thread on two;
//! * `Simulation::advance` on sf5 at scale 6, serial and on a 2-thread
//!   pool, 300 steps per sample.
//!
//! Usage:
//!
//! ```text
//! host_parallelism [--reps N]   # default 7
//! ```

use quake_app::family::{AppConfig, QuakeApp};
use quake_fem::assembly::{assemble, GroundMaterial};
use quake_fem::source::{PointSource, Ricker};
use quake_fem::timestep::Simulation;
use quake_sparse::dense::Vec3;
use std::hint::black_box;
use std::time::Instant;

/// Multiply-add updates per FP unit of work.
const UPDATES: usize = 400_000_000;

/// `UPDATES` multiply-adds over `C` independent chains.
#[inline(never)]
fn fp_unit<const C: usize>() -> f64 {
    let mut acc: [f64; C] = std::array::from_fn(|i| 1.0 + i as f64 * 0.01);
    let (a, b) = (black_box(0.999_999), black_box(1e-9));
    for _ in 0..UPDATES / C {
        for v in acc.iter_mut() {
            *v = *v * a + b;
        }
    }
    acc.iter().sum()
}

fn stream_sum(words: &[f64], passes: usize) -> f64 {
    let mut s = [0.0f64; 4];
    for _ in 0..passes {
        for c in words.chunks_exact(4) {
            for (acc, &v) in s.iter_mut().zip(c) {
                *acc += v;
            }
        }
    }
    s.iter().sum()
}

/// Seconds `work(t)` takes, run on threads `t = 0..threads` at once.
fn wall(threads: usize, work: impl Fn(usize) + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 1..threads {
            let work = &work;
            s.spawn(move || work(t));
        }
        work(0);
    });
    start.elapsed().as_secs_f64()
}

/// `min / median / max` of `v`, with `digits` decimals.
fn spread(mut v: Vec<f64>, digits: usize) -> String {
    v.sort_by(f64::total_cmp);
    let (lo, mid, hi) = (v[0], v[v.len() / 2], v[v.len() - 1]);
    format!("{lo:.digits$} / {mid:.digits$} / {hi:.digits$}")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1)?.parse().ok())
        .unwrap_or(7usize)
        .max(1);
    println!("| probe (min / median / max of {reps}) | 1 thread | 2 threads | 2 / 1 |");
    println!("|---|---|---|---|");
    for (name, unit) in [
        (
            "throughput-bound FP, 32 chains, s",
            fp_unit::<32> as fn() -> f64,
        ),
        ("latency-bound FP, 1 chain, s", fp_unit::<1>),
    ] {
        let (mut one, mut two, mut ratio) = (vec![], vec![], vec![]);
        for _ in 0..reps {
            let t1 = wall(1, |_| {
                black_box(unit());
            });
            let t2 = wall(2, |_| {
                black_box(unit());
            });
            one.push(t1);
            two.push(t2);
            ratio.push(t2 / t1);
        }
        println!(
            "| {name} | {} | {} | {} |",
            spread(one, 3),
            spread(two, 3),
            spread(ratio, 2)
        );
    }

    let words: Vec<f64> = (0..17_000_000 / 8).map(|i| i as f64).collect();
    let passes = 40;
    let gbs = |secs: f64| (words.len() * 8 * passes) as f64 / secs / 1e9;
    let (mut one, mut two, mut ratio) = (vec![], vec![], vec![]);
    for _ in 0..reps {
        let g1 = gbs(wall(1, |_| {
            black_box(stream_sum(&words, passes));
        }));
        let halves = words.split_at(words.len() / 2);
        let g2 = gbs(wall(2, |t| {
            black_box(stream_sum(if t == 0 { halves.0 } else { halves.1 }, passes));
        }));
        one.push(g1);
        two.push(g2);
        ratio.push(g2 / g1);
    }
    println!(
        "| streaming read of 17 MB, GB/s | {} | {} | {} |",
        spread(one, 1),
        spread(two, 1),
        spread(ratio, 2)
    );

    let mut config = AppConfig::new("sf5", 5.0, 6.0);
    config.seed = 0x5eed;
    let app = QuakeApp::generate(config).expect("sf5 generates");
    let dt = Simulation::stable_dt(&app.mesh, 3f64.sqrt() * app.ground.vs_rock, 0.4);
    let simulation = |threads: usize| {
        let system = assemble(&app.mesh, &GroundMaterial(&app.ground)).expect("sf5 assembles");
        let mut sim = Simulation::new(system, dt).expect("assembled stiffness is symmetric");
        sim.add_source(PointSource::nearest(
            &app.mesh,
            app.ground.basin_center_surface() + Vec3::new(0.0, 0.0, -2_000.0),
            Vec3::new(0.0, 0.0, 1e15),
            Ricker::new(1.0 / app.config.period_s),
        ));
        sim.set_parallel(threads);
        sim.run(20);
        sim
    };
    let (mut serial, mut pooled) = (simulation(1), simulation(2));
    let steps = 300;
    let ms_per_step = |sim: &mut Simulation| {
        let start = Instant::now();
        sim.run(steps);
        start.elapsed().as_secs_f64() * 1e3 / steps as f64
    };
    let (mut one, mut two, mut ratio) = (vec![], vec![], vec![]);
    for _ in 0..reps {
        let (t1, t2) = (ms_per_step(&mut serial), ms_per_step(&mut pooled));
        one.push(t1);
        two.push(t2);
        ratio.push(t2 / t1);
    }
    println!(
        "| `Simulation::advance` sf5, ms/step | {} | {} | {} |",
        spread(one, 2),
        spread(two, 2),
        spread(ratio, 2)
    );
    assert_eq!(
        serial.displacement_energy().to_bits(),
        pooled.displacement_energy().to_bits(),
        "the pooled step must stay bitwise the serial one"
    );
}
