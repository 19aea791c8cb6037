//! §6.3 + Appendix B — Modeling HOFs: the sector-day regression dataset,
//! ANOVA / Kruskal–Wallis tests, the OLS models of Tables 4, 5 and 7, the
//! quantile regressions of Tables 8 and 9, and the Fig. 16 ECDFs.
//!
//! The dependent variable follows the paper: the (log-transformed) daily
//! HOF rate of each source sector per handover type, with the covariates
//! of Table 3. Cells are filtered to a minimum number of handovers so the
//! rate is meaningful at simulation scale (the paper's sectors carry
//! thousands of daily HOs; ours carry tens).

use serde::{Deserialize, Serialize};

use telco_geo::postcode::AreaType;
use telco_signaling::messages::HoType;
use telco_stats::anova::{one_way_anova, tukey_hsd, AnovaResult, TukeyComparison};
use telco_stats::desc::Summary;
use telco_stats::ecdf::Ecdf;
use telco_stats::forest::{FitQuality, ForestOptions, RandomForest};
use telco_stats::kruskal::{kruskal_wallis, KruskalResult};
use telco_stats::quantile_reg::{quantile_regression, QuantileFit, QuantileOptions};
use telco_stats::regression::{ols, Design, OlsFit, Value};

use crate::frame::{SectorDayFrame, SectorDayObs};
use crate::tables::{coef, num, TextTable};

/// Pseudo-count added before the log transform so zero rates stay finite:
/// `y = ln(HOF% + LOG_EPSILON)`.
pub const LOG_EPSILON: f64 = 0.01;

/// Configuration of the modeling pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelingOptions {
    /// Minimum handovers per (sector, day, type) cell.
    pub min_cell_hos: u32,
    /// Outlier filter: maximum HOF rate (%) — Table 5 uses 50%.
    pub max_rate_pct: f64,
    /// Outlier filter: daily-HO bounds (paper: [50, 30k], scaled here).
    pub daily_bounds: (u32, u32),
}

impl Default for ModelingOptions {
    fn default() -> Self {
        ModelingOptions { min_cell_hos: 5, max_rate_pct: 50.0, daily_bounds: (1, 30_000) }
    }
}

/// The §6.3 statistical results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HofModels {
    /// Number of observations after the minimum-cell filter.
    pub n_observations: usize,
    /// Table 6 — summary of daily HOs per sector.
    pub summary_daily_hos: Summary,
    /// Table 6 — summary of the HOF rate (%).
    pub summary_hof_rate: Summary,
    /// Median HOF rate (%) per handover type (paper: 0.04 / 5.85 / 21.42).
    pub median_rate_by_type: [f64; 3],
    /// One-way ANOVA of log rate on the HO type.
    pub anova_ho_type: AnovaResult,
    /// Tukey HSD pairwise comparisons for the HO-type ANOVA.
    pub tukey_ho_type: Vec<TukeyComparison>,
    /// Kruskal–Wallis on the same grouping.
    pub kruskal_ho_type: KruskalResult,
    /// One-way ANOVA of log rate on the antenna vendor.
    pub anova_vendor: AnovaResult,
    /// One-way ANOVA of log rate on the area type.
    pub anova_area: AnovaResult,
    /// Table 4 — univariate model: log rate ~ HO type (no intercept
    /// means; reported as intercept + contrasts like the paper).
    pub univariate: OlsFit,
    /// Table 5 — all covariates, outlier-filtered.
    pub full_model: OlsFit,
    /// Table 7 — all covariates without →2G observations.
    pub no_2g_model: OlsFit,
    /// Table 8 — quantile regressions (τ = .2/.4/.6/.8), outlier-filtered.
    pub quantile_filtered: Vec<QuantileFit>,
    /// Table 9 — quantile regressions on all non-zero HOF-rate cells.
    pub quantile_all: Vec<QuantileFit>,
    /// Fig. 16 — ECDFs of the HOF rate per HO type: all cells.
    pub ecdf_all: Vec<Option<Ecdf>>,
    /// Fig. 16 — non-zero cells only.
    pub ecdf_nonzero: Vec<Option<Ecdf>>,
    /// Fig. 16 — outlier-filtered cells.
    pub ecdf_filtered: Vec<Option<Ecdf>>,
    /// Appendix B — Random-Forest baseline quality on the full design
    /// (the paper reports RMSE/MAE "comparable" to the linear models).
    pub forest_quality: FitQuality,
}

fn log_rate(o: &SectorDayObs) -> f64 {
    (o.hof_rate_pct() + LOG_EPSILON).ln()
}

/// Mapping from handover types to categorical levels, skipping types with
/// no observations (tiny runs may never hand over to 2G; an all-zero dummy
/// column would make the design singular).
#[derive(Debug, Clone)]
struct HoTypeLevels {
    labels: Vec<&'static str>,
    level: [Option<usize>; 3],
}

impl HoTypeLevels {
    fn detect<'a>(obs: impl Iterator<Item = &'a SectorDayObs>) -> Self {
        let mut present = [false; 3];
        for o in obs {
            present[o.ho_type.index()] = true;
        }
        // Intra is always the baseline (level 0); it is present in any
        // non-degenerate trace.
        let mut labels = vec![HoType::Intra4g5g.label()];
        let mut level = [None; 3];
        level[HoType::Intra4g5g.index()] = Some(0);
        for t in [HoType::To3g, HoType::To2g] {
            if present[t.index()] {
                level[t.index()] = Some(labels.len());
                labels.push(t.label());
            }
        }
        HoTypeLevels { labels, level }
    }

    fn of(&self, t: HoType) -> usize {
        self.level[t.index()].expect("observation of an absent level")
    }

    fn n(&self) -> usize {
        self.labels.len()
    }
}

/// Build a design with all Table 3 covariates from observations.
///
/// Treatment coding with Urban / V1 / Capital / intra as baselines — the
/// paper's Table 5 lists both area levels against an implicit baseline,
/// which is rank-deficient with an intercept; we report the Rural contrast
/// (the difference between the paper's two area coefficients, 0.26 − 0.19).
fn full_design(obs: &[&SectorDayObs]) -> Design {
    let levels = HoTypeLevels::detect(obs.iter().copied());
    assert!(levels.n() >= 2, "need at least two HO types to model the effect");
    let mut d = Design::new()
        .intercept()
        .categorical("HO type", &levels.labels)
        .numeric("Number of daily HOs")
        .categorical("Area Type", &["Urban", "Rural"])
        .categorical("Antenna Vendor", &["V1", "V2", "V3", "V4"])
        .categorical("Sector Region", &["Capital", "North", "South", "West"])
        .numeric("District population");
    for o in obs {
        let area_level = usize::from(o.area == AreaType::Rural);
        d.add(
            &[
                Value::Cat(levels.of(o.ho_type)),
                Value::Num(o.daily_hos as f64),
                Value::Cat(area_level),
                Value::Cat(o.vendor.index()),
                Value::Cat(o.region.index()),
                Value::Num(o.district_population as f64),
            ],
            log_rate(o),
        );
    }
    d
}

impl HofModels {
    /// Run the whole §6.3 pipeline on a sector-day frame.
    ///
    /// The Appendix-B forest depends on no other result, so it is fitted
    /// on a scoped worker thread while this thread runs the tests, linear
    /// models and ECDFs; the output is the same whichever finishes first.
    pub fn compute(frame: &SectorDayFrame, opts: ModelingOptions) -> Self {
        // →2G cells are exempt from the cell floor: they are ~0.04% of the
        // dataset (paper, Appendix B) yet carry the headline →2G effect.
        let obs: Vec<&SectorDayObs> = frame
            .observations()
            .iter()
            .filter(|o| o.hos >= opts.min_cell_hos || o.ho_type == HoType::To2g)
            .collect();
        assert!(obs.len() > 50, "too few observations ({}) for modeling", obs.len());

        // The outlier filter of Tables 5, 7 and 8 and the forest.
        let filtered: Vec<&SectorDayObs> = obs
            .iter()
            .copied()
            .filter(|o| {
                o.hof_rate_pct() < opts.max_rate_pct
                    && o.daily_hos >= opts.daily_bounds.0
                    && o.daily_hos <= opts.daily_bounds.1
            })
            .collect();

        std::thread::scope(|scope| {
            let forest = scope.spawn(|| forest_quality(&filtered));

            // --- Table 6 summaries. ---
            let daily: Vec<f64> = obs.iter().map(|o| o.daily_hos as f64).collect();
            let rates: Vec<f64> = obs.iter().map(|o| o.hof_rate_pct()).collect();
            let summary_daily_hos = Summary::of(&daily).expect("nonempty");
            let summary_hof_rate = Summary::of(&rates).expect("nonempty");

            // --- Median per type + grouped log rates. ---
            let mut by_type: [Vec<f64>; 3] = Default::default();
            let mut by_type_log: [Vec<f64>; 3] = Default::default();
            for o in &obs {
                by_type[o.ho_type.index()].push(o.hof_rate_pct());
                by_type_log[o.ho_type.index()].push(log_rate(o));
            }
            let median_rate_by_type = [
                median_of(&mut by_type[0].clone()),
                median_of(&mut by_type[1].clone()),
                median_of(&mut by_type[2].clone()),
            ];

            // Groups for the tests: drop empty groups (tiny runs may lack 2G).
            let log_groups: Vec<&[f64]> =
                by_type_log.iter().filter(|g| !g.is_empty()).map(|g| g.as_slice()).collect();
            let anova_ho_type = one_way_anova(&log_groups).expect("ANOVA groups valid");
            let tukey_ho_type = tukey_hsd(&log_groups, &anova_ho_type);
            let kruskal_ho_type = kruskal_wallis(&log_groups).expect("KW groups valid");

            // Vendor and area groupings.
            let mut by_vendor: [Vec<f64>; 4] = Default::default();
            let mut by_area: [Vec<f64>; 2] = Default::default();
            for o in &obs {
                by_vendor[o.vendor.index()].push(log_rate(o));
                by_area[o.area.index()].push(log_rate(o));
            }
            let vendor_groups: Vec<&[f64]> =
                by_vendor.iter().filter(|g| g.len() > 1).map(|g| g.as_slice()).collect();
            let anova_vendor = one_way_anova(&vendor_groups).expect("vendor groups valid");
            let area_groups: Vec<&[f64]> =
                by_area.iter().filter(|g| g.len() > 1).map(|g| g.as_slice()).collect();
            let anova_area = one_way_anova(&area_groups).expect("area groups valid");

            // --- Table 4: univariate log rate ~ HO type. ---
            let uni_levels = HoTypeLevels::detect(obs.iter().copied());
            let mut uni = Design::new().intercept().categorical("HO type", &uni_levels.labels);
            for o in &obs {
                uni.add(&[Value::Cat(uni_levels.of(o.ho_type))], log_rate(o));
            }
            let univariate = ols(&uni).expect("univariate model well-posed");

            // --- Table 5: full covariates with the outlier filter. ---
            let full_model = ols(&full_design(&filtered)).expect("full model well-posed");

            // --- Table 7: without →2G observations. ---
            let no2g: Vec<&SectorDayObs> =
                filtered.iter().copied().filter(|o| o.ho_type != HoType::To2g).collect();
            let no_2g_model = ols(&full_design(&no2g)).expect("no-2G model well-posed");

            // --- Tables 8 & 9: quantile regressions on HO type only. ---
            let taus = [0.2, 0.4, 0.6, 0.8];
            let quantile_filtered = quantiles_on(&filtered, &taus);
            let nonzero: Vec<&SectorDayObs> = obs.iter().copied().filter(|o| o.hofs > 0).collect();
            let quantile_all = quantiles_on(&nonzero, &taus);

            // --- Fig. 16 ECDFs. ---
            let ecdfs = |subset: &[&SectorDayObs]| -> Vec<Option<Ecdf>> {
                let mut groups: [Vec<f64>; 3] = Default::default();
                for o in subset {
                    groups[o.ho_type.index()].push(o.hof_rate_pct());
                }
                groups.into_iter().map(|g| (!g.is_empty()).then(|| Ecdf::new(&g))).collect()
            };
            let ecdf_all = ecdfs(&obs);
            let ecdf_nonzero = ecdfs(&nonzero);
            let ecdf_filtered = ecdfs(&filtered);

            HofModels {
                n_observations: obs.len(),
                summary_daily_hos,
                summary_hof_rate,
                median_rate_by_type,
                anova_ho_type,
                tukey_ho_type,
                kruskal_ho_type,
                anova_vendor,
                anova_area,
                univariate,
                full_model,
                no_2g_model,
                quantile_filtered,
                quantile_all,
                ecdf_all,
                ecdf_nonzero,
                ecdf_filtered,
                // A panic in the worker resurfaces here unchanged.
                forest_quality: forest.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
            }
        })
    }

    /// Render Table 3 (the covariates).
    pub fn table3() -> TextTable {
        let mut t = TextTable::new("Table 3: Regression covariates", &["Feature", "Values"]);
        t.row_strs(&["Number of HOs per day", ">= 0"]);
        t.row_strs(&["RATs", "4G/5G-NSA, 3G, 2G"]);
        t.row_strs(&["District population", ">= 0"]);
        t.row_strs(&["Sector Region", "Capital, North, South, West"]);
        t.row_strs(&["Area Type", "Rural / Urban"]);
        t.row_strs(&["Antenna Vendor", "V1, V2, V3, V4"]);
        t
    }

    /// Render Table 4 (univariate coefficients).
    pub fn table4(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 4: Linear model for log(HOF rate) ~ HO type",
            &["Feature", "Coef.", "95% CI", "P-value"],
        );
        for c in &self.univariate.coefficients {
            t.row(&[
                rename_intercept(&c.name),
                coef(c.estimate),
                format!("{}, {}", coef(c.ci95.0), coef(c.ci95.1)),
                format!("{:.3e}", c.p_value),
            ]);
        }
        t
    }

    /// Render Table 5 / Table 7 style regression summaries.
    pub fn regression_table(fit: &OlsFit, title: &str) -> TextTable {
        let mut t = TextTable::new(title, &["Feature", "Coeff.", "Std Err", "t value", "Pr(>|t|)"]);
        for c in &fit.coefficients {
            t.row(&[
                c.name.clone(),
                coef(c.estimate),
                coef(c.std_err),
                num(c.t_value, 1),
                format!("{:.3e}", c.p_value),
            ]);
        }
        t.row(&[
            format!("N = {}", fit.n),
            format!("RMSE={:.3}", fit.rmse),
            format!("R²={:.4}", fit.r_squared),
            format!("AIC={:.0}", fit.aic),
            String::new(),
        ]);
        t
    }

    /// Render Table 6.
    pub fn table6(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 6: Summary stats of the sector-day dataset",
            &["Feature", "Min", "1st Qu", "Median", "Mean", "3rd Qu", "Max"],
        );
        for (name, s) in
            [("Daily HOs", &self.summary_daily_hos), ("HOF rate (%)", &self.summary_hof_rate)]
        {
            t.row(&[
                name.to_string(),
                num(s.min, 1),
                num(s.q1, 1),
                num(s.median, 3),
                num(s.mean, 3),
                num(s.q3, 3),
                num(s.max, 1),
            ]);
        }
        t
    }

    /// Render Tables 8/9 (quantile regressions).
    pub fn quantile_table(fits: &[QuantileFit], title: &str) -> TextTable {
        let mut t = TextTable::new(title, &["Feature; Quantile", "Coeff.", "Std Err", "t value"]);
        for fit in fits {
            for c in &fit.coefficients {
                t.row(&[
                    format!("{}; τ={}", rename_intercept(&c.name), fit.tau),
                    coef(c.estimate),
                    coef(c.std_err),
                    num(c.t_value, 1),
                ]);
            }
        }
        t
    }

    /// The →3G coefficient of the univariate model (paper: +5.12).
    pub fn to3g_coefficient(&self) -> Option<f64> {
        self.univariate.coefficient("HO type: 4G/5G-NSA->3G").map(|c| c.estimate)
    }

    /// The →2G coefficient of the univariate model (paper: +6.82).
    pub fn to2g_coefficient(&self) -> Option<f64> {
        self.univariate.coefficient("HO type: 4G/5G-NSA->2G").map(|c| c.estimate)
    }
}

fn rename_intercept(name: &str) -> String {
    if name == "(Intercept)" {
        "Intra 4G/5G-NSA (Intercept)".to_string()
    } else {
        name.to_string()
    }
}

fn median_of(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    xs[xs.len() / 2]
}

/// Appendix B: the Random-Forest baseline on the full design of the
/// outlier-filtered cells (subsampled for cost), scored in sample.
fn forest_quality(filtered: &[&SectorDayObs]) -> FitQuality {
    let rf_sample: Vec<&SectorDayObs> = if filtered.len() > 20_000 {
        let stride = filtered.len() / 20_000 + 1;
        filtered.iter().step_by(stride).copied().collect()
    } else {
        filtered.to_vec()
    };
    let rf_design = full_design(&rf_sample);
    let forest = RandomForest::fit(
        &rf_design,
        ForestOptions { n_trees: 20, max_depth: 8, ..Default::default() },
    );
    forest.evaluate(&rf_design)
}

fn quantiles_on(obs: &[&SectorDayObs], taus: &[f64]) -> Vec<QuantileFit> {
    let levels = HoTypeLevels::detect(obs.iter().copied());
    if levels.n() < 2 {
        return Vec::new();
    }
    let mut d = Design::new().intercept().categorical("HO type", &levels.labels);
    for o in obs {
        d.add(&[Value::Cat(levels.of(o.ho_type))], log_rate(o));
    }
    taus.iter()
        .filter_map(|&tau| quantile_regression(&d, tau, QuantileOptions::default()).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FramePass, FrameWindow};
    use crate::sweep::Sweep;
    use telco_sim::{run_study, SimConfig};

    fn models() -> &'static HofModels {
        static CELL: std::sync::OnceLock<HofModels> = std::sync::OnceLock::new();
        CELL.get_or_init(|| {
            let mut cfg = SimConfig::tiny();
            cfg.n_ues = 2_500;
            cfg.n_days = 4;
            cfg.threads = 0;
            let study = run_study(cfg);
            // Full-period frame: the scale-equivalent of the paper's
            // sector-day unit (see the module docs).
            let frame = Sweep::new(&study).run(|| FramePass::new(FrameWindow::FullPeriod)).unwrap();
            HofModels::compute(&frame, ModelingOptions { min_cell_hos: 4, ..Default::default() })
        })
    }

    #[test]
    fn ho_type_effect_is_significant_and_large() {
        let m = models();
        assert!(m.anova_ho_type.p_value < 0.001, "ANOVA p = {}", m.anova_ho_type.p_value);
        assert!(
            m.anova_ho_type.eta_squared > 0.1,
            "η² = {} too small",
            m.anova_ho_type.eta_squared
        );
        assert!(m.kruskal_ho_type.p_value < 0.001);
    }

    #[test]
    fn vertical_coefficients_positive_and_ordered() {
        let m = models();
        let c3 = m.to3g_coefficient().expect("→3G level present");
        assert!(c3 > 1.0, "→3G coefficient {c3} must be strongly positive");
        if let Some(c2) = m.to2g_coefficient() {
            assert!(c2 > c3 * 0.6, "→2G coefficient {c2} should rival →3G {c3}");
        }
        // Intercept near the intra log-rate.
        let intercept = m.univariate.coefficient("(Intercept)").unwrap().estimate;
        assert!(intercept < 0.0, "intra baseline must be small: {intercept}");
    }

    #[test]
    fn mean_log_rates_ordered_by_type() {
        // At tiny scale both medians can legitimately be zero (cells carry
        // a handful of HOs); the ANOVA group means on the log scale are the
        // robust ordering check. Group 0 is intra, group 1 is →3G.
        let m = models();
        assert!(
            m.anova_ho_type.group_means[1] > m.anova_ho_type.group_means[0] + 0.5,
            "→3G mean log rate {} must exceed intra {}",
            m.anova_ho_type.group_means[1],
            m.anova_ho_type.group_means[0]
        );
    }

    #[test]
    fn full_model_keeps_ho_type_dominant() {
        let m = models();
        let c3 =
            m.full_model.coefficient("HO type: 4G/5G-NSA->3G").expect("covariate present").estimate;
        assert!(c3 > 1.0);
        // Every other coefficient is smaller in magnitude than the HO-type
        // effect (the paper's key robustness claim).
        for c in &m.full_model.coefficients {
            if !c.name.starts_with("HO type") && c.name != "(Intercept)" {
                assert!(
                    c.estimate.abs() < c3,
                    "{} = {} rivals the HO-type effect",
                    c.name,
                    c.estimate
                );
            }
        }
    }

    #[test]
    fn quantile_fits_cover_all_taus() {
        let m = models();
        assert_eq!(m.quantile_all.len(), 4);
        for fit in &m.quantile_all {
            let c3 = fit.coefficient("HO type: 4G/5G-NSA->3G");
            if let Some(c3) = c3 {
                assert!(c3.estimate > 0.5, "τ={} →3G {}", fit.tau, c3.estimate);
            }
        }
    }

    #[test]
    fn ecdf_panels_populated() {
        let m = models();
        assert!(m.ecdf_all[0].is_some());
        assert!(m.ecdf_all[1].is_some());
        // Non-zero panel has fewer observations than the full panel.
        let all_n = m.ecdf_all[0].as_ref().unwrap().len();
        let nz_n = m.ecdf_nonzero[0].as_ref().map_or(0, |e| e.len());
        assert!(nz_n <= all_n);
    }

    #[test]
    fn tables_render() {
        let m = models();
        assert!(HofModels::table3().to_string().contains("Antenna Vendor"));
        assert!(m.table4().to_string().contains("Coef."));
        assert!(m.table6().to_string().contains("Median"));
        assert!(HofModels::regression_table(&m.full_model, "Table 5")
            .to_string()
            .contains("t value"));
        assert!(HofModels::quantile_table(&m.quantile_all, "Table 9")
            .to_string()
            .contains("τ=0.2"));
    }
}
