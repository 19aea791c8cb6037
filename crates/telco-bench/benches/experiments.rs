//! One benchmark per table and figure of the paper: each measures the
//! analysis that regenerates it from a pre-simulated study (the
//! simulation itself is benchmarked separately in `kernels.rs`).
//!
//! Run a single experiment with e.g.
//! `cargo bench -p telco-bench -- t2_ho_types`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use telco_analytics::modeling::{HofModels, ModelingOptions};
use telco_analytics::{FramePass, FrameWindow, Sweep};
use telco_bench::bench_study;

fn bench_tables(c: &mut Criterion) {
    let study = bench_study();
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    g.bench_function("t1_dataset_stats", |b| b.iter(|| black_box(study.dataset_stats())));
    g.bench_function("t2_ho_types", |b| b.iter(|| black_box(study.ho_types())));
    // Tables 3–9 all hang off the §6.3 modeling pipeline; Table 3 is the
    // covariate declaration (free), the rest share the sector frame.
    g.bench_function("t4_t9_hof_models", |b| {
        b.iter(|| black_box(HofModels::compute(study.period_frame(), ModelingOptions::default())))
    });
    g.bench_function("t6_frame_build", |b| {
        b.iter(|| {
            black_box(Sweep::new(study.data()).run(|| FramePass::new(FrameWindow::FullPeriod)))
        })
    });
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let study = bench_study();
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("f3a_deployment_evolution", |b| {
        b.iter(|| black_box(study.deployment_evolution()))
    });
    g.bench_function("f3b_rat_usage", |b| b.iter(|| black_box(study.rat_usage())));
    g.bench_function("f4_device_mix", |b| b.iter(|| black_box(study.device_mix())));
    g.bench_function("f5_population_inference", |b| {
        b.iter(|| black_box(study.population_inference()))
    });
    g.bench_function("f6_ho_density", |b| b.iter(|| black_box(study.ho_density())));
    g.bench_function("f7_temporal_evolution", |b| b.iter(|| black_box(study.temporal_evolution())));
    g.bench_function("f8_durations", |b| b.iter(|| black_box(study.durations())));
    g.bench_function("f9_district_distribution", |b| {
        b.iter(|| black_box(study.district_distribution()))
    });
    g.bench_function("f10_mobility_ecdfs", |b| b.iter(|| black_box(study.mobility())));
    g.bench_function("f11_manufacturer_impact", |b| {
        b.iter(|| black_box(study.manufacturer_impact()))
    });
    g.bench_function("f12_hof_patterns", |b| b.iter(|| black_box(study.hof_patterns())));
    g.bench_function("f13_hof_vs_mobility", |b| b.iter(|| black_box(study.hof_vs_mobility())));
    g.bench_function("f14_f15_causes", |b| b.iter(|| black_box(study.causes())));
    // Fig. 16 is produced inside the models bench above; Figs. 17–18:
    g.bench_function("f17_f18_vendor_analysis", |b| b.iter(|| black_box(study.vendor_analysis())));
    g.finish();
}

criterion_group!(benches, bench_tables, bench_figures);
criterion_main!(benches);
