//! Kernel benchmarks: the hot paths of the simulation and statistics
//! pipeline — UE-day simulation throughput, the handover state machine,
//! the trace codec, spatial queries, and the regression/ANOVA kernels.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;
use telco_bench::bench_study;
use telco_devices::population::UeId;
use telco_geo::coords::KmPoint;
use telco_mobility::schedule::DayOfWeek;
use telco_mobility::trajectory::DayTrajectory;
use telco_sim::{sample_points_into, simulate_ue_day, SimConfig, SimOutput, SimScratch, World};
use telco_stats::anova::one_way_anova;
use telco_stats::ecdf::Ecdf;
use telco_stats::regression::{ols, Design, Value};
use telco_topology::rat::Rat;
use telco_trace::store::{TraceReader, TraceWriter};
use telco_trace::SignalingDataset;

fn bench_simulation(c: &mut Criterion) {
    let cfg = SimConfig::tiny();
    let world = World::build(&cfg);
    let mut g = c.benchmark_group("simulation");
    g.throughput(Throughput::Elements(64));
    g.bench_function("ue_days_64", |b| {
        let mut scratch = SimScratch::new();
        b.iter(|| {
            let mut out = SimOutput::new(cfg.n_days);
            for ue in 0..64u32 {
                simulate_ue_day(&world, &cfg, UeId(ue), 0, &mut scratch, &mut out);
            }
            black_box(out.dataset.len())
        })
    });
    g.finish();

    c.bench_function("world_build_tiny", |b| {
        b.iter(|| black_box(World::build(&SimConfig::tiny())))
    });
}

fn bench_state_machine(c: &mut Criterion) {
    use telco_signaling::causes::{CauseCode, PrincipalCause};
    use telco_signaling::messages::HoType;
    use telco_signaling::state_machine::execute;
    let mut g = c.benchmark_group("state_machine");
    g.throughput(Throughput::Elements(1));
    g.bench_function("intra_success", |b| {
        b.iter(|| black_box(execute(HoType::Intra4g5g, false, None, 43.0)))
    });
    g.bench_function("srvcc_failure", |b| {
        b.iter(|| {
            black_box(execute(
                HoType::To3g,
                true,
                Some(CauseCode::principal(PrincipalCause::SrvccPsToCsFailure)),
                380.0,
            ))
        })
    });
    g.finish();
}

fn encode(dataset: &SignalingDataset) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), dataset.days).unwrap();
    writer.write_dataset(dataset).unwrap();
    writer.finish().unwrap()
}

fn bench_codec(c: &mut Criterion) {
    let dataset = bench_study().data().trace.as_dataset().expect("in-memory study");
    let encoded = encode(dataset);
    let mut g = c.benchmark_group("codec");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(encode(dataset))));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(TraceReader::new(&encoded[..]).unwrap().read_to_dataset_strict()))
    });
    g.finish();
}

/// The distinct positions the simulation samples along the trajectories
/// of `n` UE-days of `world` (UE `i` on day `i mod n_days`), in walk order.
fn trajectory_positions(world: &World, cfg: &SimConfig, n: u32) -> Vec<KmPoint> {
    let mut trajectory = DayTrajectory::stationary(KmPoint::new(0.0, 0.0));
    let mut samples = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut positions = Vec::new();
    for ue in 0..n {
        let day = ue % cfg.n_days;
        let attrs = world.ue(UeId(ue));
        // The engine's draws for this UE-day: the traffic jitter, then the
        // trajectory.
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.ue_day_seed(ue, day));
        let _jitter: f64 = rng.random_range(0.6..1.4);
        DayTrajectory::generate_into(
            attrs.profile,
            attrs.home,
            Some(attrs.work),
            DayOfWeek::from_study_day(day),
            &world.schedule,
            &world.country.bounds,
            &mut rng,
            &mut trajectory,
        );
        sample_points_into(&trajectory, cfg.step_km, &mut samples);
        for &(_, p) in &samples {
            if seen.insert((p.x.to_bits(), p.y.to_bits())) {
                positions.push(p);
            }
        }
    }
    positions
}

fn bench_spatial(c: &mut Criterion) {
    let study = bench_study();
    let topo = &study.data().world.topology;
    let bounds = study.data().world.country.bounds;
    let mut g = c.benchmark_group("spatial");

    // The lookups the simulation makes, on the default country: every
    // distinct trajectory sample of 200 small-preset UE-days.
    let small = SimConfig::small();
    let world = World::build(&small);
    let positions = trajectory_positions(&world, &small, 200);
    g.throughput(Throughput::Elements(positions.len() as u64));
    g.bench_function("serving_sector_trajectories", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for p in &positions {
                if let Some(s) = world.topology.serving_sector(p, Rat::G4) {
                    acc = acc.wrapping_add(s.0);
                }
            }
            black_box(acc)
        })
    });

    g.throughput(Throughput::Elements(100));
    g.bench_function("serving_sector_100", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..100 {
                let x = bounds.min.x + bounds.width() * (i as f64 / 100.0);
                let y = bounds.min.y + bounds.height() * ((i * 37 % 100) as f64 / 100.0);
                if let Some(s) = topo.serving_sector(&KmPoint::new(x, y), Rat::G4) {
                    acc = acc.wrapping_add(s.0);
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    // OLS on a 10k × 6 design.
    let mut design =
        Design::new().intercept().numeric("x1").numeric("x2").categorical("g", &["a", "b", "c"]);
    let mut state = 1u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for i in 0..10_000 {
        let x1 = next();
        let x2 = next();
        let g = i % 3;
        design.add(
            &[Value::Num(x1), Value::Num(x2), Value::Cat(g)],
            1.0 + 2.0 * x1 - x2 + g as f64 * 0.5 + (next() - 0.5) * 0.1,
        );
    }
    let mut group = c.benchmark_group("stats");
    group.sample_size(30);
    group.bench_function("ols_10k_x5", |b| b.iter(|| black_box(ols(&design).unwrap())));

    let g1: Vec<f64> = (0..5000).map(|i| (i % 97) as f64).collect();
    let g2: Vec<f64> = (0..5000).map(|i| (i % 89) as f64 + 5.0).collect();
    let g3: Vec<f64> = (0..5000).map(|i| (i % 83) as f64 + 10.0).collect();
    group.bench_function("anova_3x5k", |b| {
        b.iter(|| black_box(one_way_anova(&[&g1, &g2, &g3]).unwrap()))
    });
    group.bench_function("ecdf_build_5k", |b| b.iter(|| black_box(Ecdf::new(&g1))));
    group.finish();
}

criterion_group!(
    kernels,
    bench_simulation,
    bench_state_machine,
    bench_codec,
    bench_spatial,
    bench_stats
);
criterion_main!(kernels);
