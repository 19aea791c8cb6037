//! Quickstart: simulate a small country for a week and print the study's
//! headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use telco_lens::prelude::*;

fn main() {
    // A statistically meaningful but fast configuration: ~3k UEs, 7 days.
    let config = SimConfig::small();
    println!(
        "Simulating {} UEs for {} days over {} districts...",
        config.n_ues, config.n_days, config.country.n_districts
    );
    let t0 = std::time::Instant::now();
    let study = Study::run(config);
    println!("done in {:?}\n", t0.elapsed());

    // Table 1: what the dataset looks like.
    println!("{}", study.dataset_stats().table());

    // Table 2: who hands over where.
    let table2 = study.ho_types();
    println!("{}", table2.table());
    println!(
        "Horizontal handovers: {:.1}% of all (the paper reports 94.14%)\n",
        100.0 * table2.intra_share()
    );

    // Fig. 8: how long handovers take.
    let durations = study.durations();
    println!("{}", durations.table());
    if let Some(intra) = &durations.intra {
        println!("Median intra-4G/5G handover: {:.0} ms (the paper reports 43 ms)", intra.median());
    }

    // Fig. 14a: why handovers fail.
    let causes = study.causes();
    println!("\n{}", causes.table_shares());
    println!(
        "The 8 principal causes explain {:.0}% of failures (paper: 92%); \
         {:.0}% of failures hit handovers to 3G (paper: 75%).",
        100.0 * causes.principal_share(),
        100.0 * causes.to3g_failure_share
    );
}
