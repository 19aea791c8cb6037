//! `repro` — regenerate every table and figure of *Through the Telco
//! Lens* (IMC '24) from a simulated countrywide trace.
//!
//! ```text
//! repro [--small|--medium|--tiny] [--spill-dir <dir>]
//!       [all|table1|table2|table3|fig3a|fig3b|fig4a|fig4b|fig5|fig6|
//!        fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14a|fig14b|fig15|
//!        table4|table5|table6|table7|table8|table9|fig16|pingpong|
//!        fig17|fig18|headlines|ablations ...]
//! repro plan|worker|orchestrate --dir <store> ...
//! repro serve|query ...
//! ```
//!
//! With no experiment argument, `all` is assumed; `ablations` is opt-in
//! (three extra simulations). Any other word is refused with the usage
//! line and exit code 2, before anything is simulated. `--small` runs the
//! 7-day/3k-UE configuration and `--medium` a larger one instead of the
//! full 28-day study; `--tiny` is for smoke tests. `--spill-dir <dir>`
//! runs the simulation out of core: per-worker runs spill to `<dir>` as
//! chunk files and are merged from disk, bounding trace memory
//! (byte-identical output).

#![forbid(unsafe_code)]

use telco_analytics::modeling::HofModels;
use telco_analytics::Study;
use telco_sim::SimConfig;
use telco_stats::desc::percentile;

mod orchestrate_cli;
mod serve_cli;

/// Every experiment name `repro` accepts, in the order `all` prints them.
/// The argument check and `--help` both read this list.
const EXPERIMENTS: &str = "all table1 table2 table3 fig3a fig3b fig4a fig4b fig5 fig6 fig7 \
     fig8 fig9 fig10 fig11 fig12 fig13 fig14a fig14b fig15 table4 table5 table6 table7 table8 \
     table9 fig16 pingpong fig17 fig18 headlines ablations";

fn accepts(name: &str) -> bool {
    EXPERIMENTS.split_whitespace().any(|n| n == name)
}

fn usage() -> String {
    format!(
        "usage: repro [--small|--medium|--tiny] [--spill-dir <dir>] [experiment ...]\n       \
         repro plan|worker|orchestrate --dir <store> ...  (sharded sweeps; see EXPERIMENTS.md)\n       \
         repro serve|query ...  (snapshot-native ingest + query service; see EXPERIMENTS.md)\n\
         experiments: {EXPERIMENTS}"
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Sharded-sweep and serve subcommands route before flag parsing:
    // they own their argument grammar (see orchestrate_cli, serve_cli).
    if let Some(first) = args.first() {
        if ["plan", "worker", "orchestrate"].contains(&first.as_str()) {
            std::process::exit(orchestrate_cli::run(first, &args[1..]));
        }
        if ["serve", "query"].contains(&first.as_str()) {
            std::process::exit(serve_cli::run(first, &args[1..]));
        }
    }
    let mut config = SimConfig::default_study();
    let mut spill_dir: Option<std::path::PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--small" => config = SimConfig::small(),
            "--medium" => config = SimConfig::medium(),
            "--tiny" => config = SimConfig::tiny(),
            "--spill-dir" => match iter.next() {
                Some(dir) => spill_dir = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("repro: --spill-dir needs a directory argument");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            name if accepts(name) => wanted.push(name.to_string()),
            other => {
                eprintln!("{}", usage());
                eprintln!("repro: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| {
        debug_assert!(accepts(name), "`{name}` missing from EXPERIMENTS");
        all || wanted.iter().any(|w| w == name)
    };

    eprintln!(
        "repro: simulating {} UEs × {} days (seed {})...",
        config.n_ues, config.n_days, config.seed
    );
    let t0 = std::time::Instant::now();
    let study = match &spill_dir {
        Some(dir) => {
            // Out-of-core: each work item's run spills to disk as a
            // chunk file, and each day's runs merge into the one sealed
            // trace as soon as that day is spilled, while later days
            // simulate. Every analysis below then streams the sealed
            // file chunk by chunk: same bytes, bounded memory.
            eprintln!("repro: spilling runs to {}", dir.display());
            std::fs::create_dir_all(dir).expect("create spill dir");
            Study::from_data(
                telco_sim::run_study_spilled(config, dir).expect("spilled simulation failed"),
            )
        }
        None => Study::run(config),
    };
    eprintln!("repro: simulation finished in {:?}", t0.elapsed());
    eprintln!(
        "repro: {} handover records, {} sector-day observations\n",
        study.data().trace.len(),
        study.frame().len()
    );

    // Models are shared by several outputs; compute lazily.
    let models = std::cell::OnceCell::<HofModels>::new();
    let get_models = || -> &HofModels { models.get_or_init(|| study.models()) };

    if want("table1") {
        println!("{}", study.dataset_stats().table());
    }
    if want("table2") {
        println!("{}", study.ho_types().table());
    }
    if want("table3") {
        println!("{}", HofModels::table3());
    }
    if want("fig3a") {
        println!("{}", study.deployment_evolution().table());
    }
    if want("fig3b") {
        println!("{}", study.rat_usage().table());
    }
    if want("fig4a") {
        println!("{}", study.device_mix().table_manufacturers());
    }
    if want("fig4b") {
        println!("{}", study.device_mix().table_rat_support());
    }
    if want("fig5") {
        println!("{}", study.population_inference().table());
    }
    if want("fig6") {
        println!("{}", study.ho_density().table());
    }
    if want("fig7") {
        println!("{}", study.temporal_evolution().table());
    }
    if want("fig8") {
        println!("{}", study.durations().table());
    }
    if want("fig9") {
        println!("{}", study.district_distribution().table());
    }
    if want("fig10") {
        println!("{}", study.mobility().table());
    }
    if want("fig11") {
        println!("{}", study.manufacturer_impact().table());
    }
    if want("fig12") {
        let patterns = study.hof_patterns();
        println!("{}", patterns.table());
        if patterns.rural_morning_excess.is_finite() {
            println!(
                "Rural morning-peak excess over urban: {:.1}% (paper: +32.4%)\n",
                100.0 * patterns.rural_morning_excess
            );
        }
    }
    if want("fig13") {
        println!("{}", study.hof_vs_mobility().table());
    }
    if want("fig14a") {
        let causes = study.causes();
        println!("{}", causes.table_shares());
        println!(
            "Principal causes cover {:.1}% of HOFs; {:.1}% of HOFs on ->3G, \
             {:.3}% on ->2G; {} distinct causes collected.\n",
            100.0 * causes.principal_share(),
            100.0 * causes.to3g_failure_share,
            100.0 * causes.to2g_failure_share,
            causes.distinct_causes
        );
    }
    if want("fig14b") {
        println!("{}", study.causes().table_durations());
    }
    if want("fig15") {
        println!("{}", study.causes().table_stacked());
    }
    if want("table4") {
        println!("{}", get_models().table4());
    }
    if want("table5") {
        println!(
            "{}",
            HofModels::regression_table(
                &get_models().full_model,
                "Table 5: Linear model, all covariates (outlier-filtered)"
            )
        );
    }
    if want("table6") {
        println!("{}", get_models().table6());
    }
    if want("table7") {
        println!(
            "{}",
            HofModels::regression_table(
                &get_models().no_2g_model,
                "Table 7: Linear model w/o 2G HOs"
            )
        );
    }
    if want("table8") {
        println!(
            "{}",
            HofModels::quantile_table(
                &get_models().quantile_filtered,
                "Table 8: Quantile regression w/o outliers"
            )
        );
    }
    if want("table9") {
        println!(
            "{}",
            HofModels::quantile_table(
                &get_models().quantile_all,
                "Table 9: Quantile regression - all non-zero HOF cells"
            )
        );
    }
    if want("fig16") {
        let m = get_models();
        println!("== Fig 16: ECDFs of HOF rate per HO type ==");
        for (label, panel) in [
            ("all cells", &m.ecdf_all),
            ("non-zero", &m.ecdf_nonzero),
            ("filtered", &m.ecdf_filtered),
        ] {
            for (t, e) in panel.iter().enumerate() {
                if let Some(e) = e {
                    println!(
                        "  {label:<9} type {t}: median {:.3}% p90 {:.2}% (n={})",
                        e.median(),
                        e.quantile(0.90),
                        e.len()
                    );
                }
            }
        }
        println!();
    }
    if want("pingpong") {
        println!("{}", study.pingpong().table());
    }
    if want("fig17") {
        println!("{}", study.vendor_analysis().table_shares());
    }
    if want("fig18") {
        println!("{}", study.vendor_analysis().table_boxplots());
    }
    if want("headlines") || all {
        print_headlines(&study, get_models());
    }
    // Ablations are opt-in (three extra simulations).
    if wanted.iter().any(|w| w == "ablations") {
        run_ablations(study.data().config.clone());
    }
}

/// Ablate the design choices DESIGN.md calls out: the vertical-fallback
/// (coverage) model and the intra-site carrier-change model. Each ablation
/// re-runs the same seed with one mechanism disabled and reports the
/// metrics that mechanism exists to produce.
fn run_ablations(base: SimConfig) {
    println!("== Ablations (same seed, one mechanism off) ==");
    println!(
        "{:<26} {:>10} {:>12} {:>14} {:>12}",
        "variant", "vertical%", "HOF rate%", "smart sectors", "HOs/UE/day"
    );
    let mut variants: Vec<(&str, SimConfig)> = vec![("baseline", base.clone())];
    let mut no_vertical = base.clone();
    no_vertical.coverage.urban_base = 0.0;
    no_vertical.coverage.rural_base = 0.0;
    variants.push(("no vertical fallback", no_vertical));
    let mut no_carrier = base.clone();
    no_carrier.session.carrier_change_per_slot = [0.0; 3];
    variants.push(("no carrier changes", no_carrier));

    for (name, config) in variants {
        let n_ues = config.n_ues;
        let study = Study::run(config);
        let counts = study.trace_counts();
        let total: u64 = counts.by_type.iter().sum();
        let vertical = (counts.by_type[1] + counts.by_type[2]) as f64 / total.max(1) as f64;
        let smart_sectors = study
            .mobility()
            .median_sectors(telco_devices::types::DeviceType::Smartphone)
            .unwrap_or(0.0);
        println!(
            "{:<26} {:>10.2} {:>12.3} {:>14.0} {:>12.1}",
            name,
            100.0 * vertical,
            100.0 * counts.hof_rate(),
            smart_sectors,
            counts.daily_mean() / n_ues as f64,
        );
    }
    println!(
        "\nReading: without the coverage model there are no vertical HOs (and \
         the HOF rate collapses, §6.3); without carrier changes smartphones \
         lose most of their visited sectors (Fig. 10) and HO volume."
    );
}

/// The paper's headline statistical claims, paper-vs-measured.
fn print_headlines(study: &Study, models: &HofModels) {
    println!("== Headline claims: paper vs measured ==");
    let t2 = study.ho_types();
    println!("intra share:            paper 94.14%   measured {:.2}%", 100.0 * t2.intra_share());
    let d = study.durations();
    if let Some(intra) = &d.intra {
        println!("intra median duration:  paper 43 ms    measured {:.0} ms", intra.median());
    }
    if let Some(e3) = &d.to3g {
        println!("->3G median duration:   paper 412 ms   measured {:.0} ms", e3.median());
    }
    let density = study.ho_density();
    println!("Pearson(HO, pop):       paper 0.97     measured {:.3}", density.pearson);
    let pop = study.population_inference();
    println!("census R²:              paper 0.92     measured {:.3}", pop.r_squared);
    let temporal = study.temporal_evolution();
    println!(
        "urban HO share:         paper 78%      measured {:.1}%",
        100.0 * temporal.urban_ho_share
    );
    println!(
        "Pearson(HO, active):    paper 0.9      measured {:.3}",
        temporal.ho_active_correlation
    );
    let causes = study.causes();
    println!(
        "HOFs on ->3G:           paper 75%      measured {:.1}%",
        100.0 * causes.to3g_failure_share
    );
    println!(
        "8 causes cover:         paper 92%      measured {:.1}%",
        100.0 * causes.principal_share()
    );
    println!(
        "ANOVA η² (HO type):     paper 0.81     measured {:.3}  (p={:.1e})",
        models.anova_ho_type.eta_squared, models.anova_ho_type.p_value
    );
    if let Some(c3) = models.to3g_coefficient() {
        println!("univariate ->3G coef:   paper +5.12    measured {c3:+.2}");
    }
    if let Some(c2) = models.to2g_coefficient() {
        println!("univariate ->2G coef:   paper +6.82    measured {c2:+.2}");
    }
    println!(
        "RF baseline (App. B):   linear RMSE {:.2}  forest RMSE {:.2}  MAE {:.2}",
        models.full_model.rmse, models.forest_quality.rmse, models.forest_quality.mae
    );
    let patterns = study.hof_patterns();
    if patterns.rural_morning_excess.is_finite() {
        println!(
            "rural HOF excess 7-8h:  paper +32.4%   measured {:+.1}%",
            100.0 * patterns.rural_morning_excess
        );
    }
    let mobility = study.mobility();
    if let Some(m) = mobility.median_sectors(telco_devices::types::DeviceType::Smartphone) {
        println!("smartphone sectors/day: paper 22       measured {m:.0}");
    }
    if let Some(g) = mobility.median_gyration(telco_devices::types::DeviceType::Smartphone) {
        println!("smartphone gyration km: paper 2.7      measured {g:.2}");
    }
    // HOF-rate p75 among high-mobility UEs (paper: up to 0.4%).
    let per_ue_high: Vec<f64> = study
        .data()
        .output
        .mobility
        .iter()
        .filter(|m| m.sectors > 100)
        .map(|m| 100.0 * m.hof_rate())
        .collect();
    if let Some(p75) = percentile(&per_ue_high, 75.0) {
        println!("high-mobility HOF p75:  paper 0.4%     measured {p75:.2}%");
    }
}
