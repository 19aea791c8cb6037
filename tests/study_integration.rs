//! End-to-end integration tests: run one simulated study and verify the
//! scale-free claims of the paper across the whole pipeline
//! (simulation → trace → analytics → statistics).

use std::sync::OnceLock;

use telco_lens::analytics::Study;
use telco_lens::prelude::*;
use telco_lens::trace::store::{TraceReader, TraceWriter};

/// One shared study for the whole test binary (a full week so every day
/// of week is represented).
fn study() -> &'static Study {
    static CELL: OnceLock<Study> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 2_000;
        cfg.n_days = 7;
        cfg.threads = 0;
        Study::run(cfg)
    })
}

#[test]
fn simulation_is_reproducible_bit_for_bit() {
    let mut cfg = SimConfig::tiny();
    cfg.threads = 1;
    let a = run_study(cfg.clone());
    cfg.threads = 4;
    let b = run_study(cfg);
    let (a_data, b_data) =
        (a.trace.as_dataset().expect("in-memory"), b.trace.as_dataset().expect("in-memory"));
    assert_eq!(a_data.records(), b_data.records());
    assert_eq!(a.output.mobility, b.output.mobility);
}

#[test]
fn trace_roundtrips_through_binary_codec() {
    let dataset = study().data().trace.as_dataset().expect("in-memory study");
    let encode = |d: &SignalingDataset| {
        let mut writer = TraceWriter::new(Vec::new(), d.days).expect("trace header");
        writer.write_dataset(d).expect("trace encode");
        writer.finish().expect("trace trailer")
    };
    let bytes = encode(dataset);
    let mut reader = TraceReader::new(&bytes[..]).expect("self-produced header");
    let decoded = reader.read_to_dataset_strict().expect("self-produced trace decodes");
    assert_eq!(encode(&decoded), bytes);
    assert_eq!(dataset, &decoded);
}

#[test]
fn table2_horizontal_handovers_dominate() {
    let t2 = study().ho_types();
    // Paper: 94.14% intra, 5.86% →3G, ≈0.001% →2G.
    assert!(
        (0.90..0.99).contains(&t2.intra_share()),
        "intra share {} outside the paper's neighbourhood",
        t2.intra_share()
    );
    // Smartphones trigger the overwhelming majority of handovers.
    assert!(t2.device_totals[0] > 0.80, "smartphone HO share {}", t2.device_totals[0]);
    // →2G is orders of magnitude rarer than →3G.
    assert!(t2.type_totals[2] < t2.type_totals[1] / 50.0);
}

#[test]
fn fig8_duration_hierarchy() {
    let d = study().durations();
    // Paper: 43 ms / 412 ms / ~1 s medians.
    let intra_ecdf = d.intra.as_ref().expect("intra HOs succeed");
    let intra = intra_ecdf.median();
    assert!((30.0..60.0).contains(&intra), "intra median {intra}");
    let to3g = d.to3g.as_ref().expect("→3G HOs exist").median();
    assert!((5.0..20.0).contains(&(to3g / intra)), "→3G/intra duration ratio {}", to3g / intra);
    if let Some(to2g) = &d.to2g {
        assert!(to2g.median() > to3g, "→2G median must exceed →3G");
    }
    // 95% of intra HOs complete within ~90 ms.
    assert!(intra_ecdf.quantile(0.95) < 120.0);
}

#[test]
fn fig5_fig6_geodemographics() {
    let s = study();
    let pop = s.population_inference();
    assert!(pop.r_squared > 0.7, "census R² {}", pop.r_squared);
    let density = s.ho_density();
    assert!(density.pearson > 0.7, "HO-density Pearson {}", density.pearson);
    assert!(density.mean_to_min_ratio() > 5.0, "urban/rural contrast too weak");
}

#[test]
fn fig7_temporal_structure() {
    let t = study().temporal_evolution();
    assert!((0.6..0.95).contains(&t.urban_ho_share), "urban share {}", t.urban_ho_share);
    assert!(t.ho_active_correlation > 0.8);
    assert!(t.morning_surge > 1.5, "morning surge ×{}", t.morning_surge);
    assert!(t.sunday_vs_friday_drop > 0.05, "Sunday drop {}", t.sunday_vs_friday_drop);
}

#[test]
fn fig10_mobility_ordering() {
    let m = study().mobility();
    let smart = m.median_sectors(DeviceType::Smartphone).unwrap();
    let feature = m.median_sectors(DeviceType::FeaturePhone).unwrap();
    let m2m = m.median_sectors(DeviceType::M2mIot).unwrap();
    assert!(smart > feature && feature >= m2m, "ordering {smart} / {feature} / {m2m}");
    assert!(m2m <= 2.0, "M2M should be near-static");
    assert!(m.median_gyration(DeviceType::M2mIot).unwrap() < 0.1);
}

#[test]
fn fig14_cause_structure() {
    let c = study().causes();
    assert!(c.principal_share() > 0.85, "principal share {}", c.principal_share());
    assert!((0.6..0.9).contains(&c.to3g_failure_share), "→3G share {}", c.to3g_failure_share);
    assert!(c.to2g_failure_share < 0.02);
    // Cause #4 (target load) leads; Cause #3 dominates intra failures.
    let c4 = c.shares[PrincipalCause::TargetLoadTooHigh.index()];
    assert!(c4 > 0.15, "Cause #4 share {c4}");
    // Durations: #3 aborts instantly, #8 sits at the 10 s timer.
    if let Some(e) = &c.durations[PrincipalCause::InvalidTargetSector.index()] {
        assert_eq!(e.median(), 0.0);
    }
    if let Some(e) = &c.durations[PrincipalCause::RelocationTimeout.index()] {
        assert!(e.median() > 9_500.0 && e.quantile(0.95) < 10_500.0);
    }
}

#[test]
fn section_6_3_models_confirm_ho_type_effect() {
    let models = study().models();
    // ANOVA + Kruskal-Wallis agree: the HO type matters (paper p < .001).
    assert!(models.anova_ho_type.p_value < 1e-3);
    assert!(models.kruskal_ho_type.p_value < 1e-3);
    // Vertical handovers fail far more (positive log-linear contrasts).
    let c3 = models.to3g_coefficient().expect("→3G present");
    assert!(c3 > 1.0, "→3G coefficient {c3}");
    // The HO type is significant in the full model too, and its effect
    // dwarfs the vendor/area/region covariates.
    let full_c3 =
        models.full_model.coefficient("HO type: 4G/5G-NSA->3G").expect("covariate present");
    assert!(full_c3.p_value < 1e-3);
    for c in &models.full_model.coefficients {
        if c.name.starts_with("Antenna Vendor") || c.name.starts_with("Area Type") {
            assert!(c.estimate.abs() < full_c3.estimate, "{} rivals HO type", c.name);
        }
    }
    // Quantile regressions reproduce the effect across the distribution.
    for fit in &models.quantile_all {
        if let Some(c) = fit.coefficient("HO type: 4G/5G-NSA->3G") {
            assert!(c.estimate > 0.5, "τ={}: coefficient {}", fit.tau, c.estimate);
        }
    }
}

#[test]
fn appendix_b_vendor_effects() {
    let s = study();
    let v = s.vendor_analysis();
    // V3 concentrates in the West (Fig. 17).
    let west =
        v.sectors_by_region[telco_lens::geo::district::Region::West.index()][Vendor::V3.index()];
    assert!(west > 0.1, "V3 west share {west}");
    // The vendor ANOVA is significant but small next to the HO type.
    let models = s.models();
    assert!(models.anova_vendor.p_value < 0.05);
    assert!(models.anova_vendor.eta_squared < models.anova_ho_type.eta_squared);
}

#[test]
fn core_network_probe_balances() {
    let core = &study().data().output.core;
    // Every handover opened at the MME was closed again.
    assert_eq!(core.mme_open_procedures(), 0);
    assert!(core.mme_total_procedures() > 0);
    // The probe saw roughly a dozen messages per handover.
    let per_ho = core.total_messages() as f64 / study().data().trace.len() as f64;
    assert!((5.0..20.0).contains(&per_ho), "messages per HO {per_ho}");
}

#[test]
fn rat_usage_and_traffic_shares() {
    let usage = study().rat_usage();
    // Paper: 82% of attach time and ~95/98% of traffic on 4G/5G-NSA.
    assert!((0.70..0.95).contains(&usage.epc_time_share));
    assert!(usage.epc_ul_share > 0.88);
    assert!(usage.epc_dl_share > usage.epc_ul_share);
}
