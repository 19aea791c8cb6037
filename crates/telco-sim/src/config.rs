//! Simulation configuration and presets.

use serde::{Deserialize, Serialize};

use telco_devices::catalog::CatalogConfig;
use telco_geo::country::CountryConfig;
use telco_signaling::duration::DurationModel;
use telco_signaling::failure::FailureConfig;
use telco_topology::deployment::TopologyConfig;

/// Knobs of the vertical-fallback (coverage) model.
///
/// A crossing falls back to a legacy RAT with probability
/// `base(area) × exp((r − 1) × r_sensitivity)` clamped to `[0, max_prob]`,
/// where `r` is the distance to the new serving site divided by the local
/// typical cell radius (half the inter-site spacing of the postcode). The
/// ratio makes the model scale-invariant: what matters is how deep into
/// the local cell edge the UE sits, not absolute distance. The area bases
/// encode the paper's urban/rural asymmetry (capital districts are
/// ≥99.9% intra; the least-dense districts average 26.5% →3G, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageConfig {
    /// Fallback base probability at `r = 1` for urban crossings.
    pub urban_base: f64,
    /// Fallback base probability at `r = 1` for rural crossings.
    pub rural_base: f64,
    /// Exponential sensitivity to the cell-edge depth ratio.
    pub r_sensitivity: f64,
    /// Population density (residents/km²) at which the density factor is
    /// 1; denser districts fall back less (capital districts are ≥99.9%
    /// intra while remote ones reach 58% →3G — Fig. 9).
    pub density_ref: f64,
    /// Exponent of the density factor `(density_ref / ρ)^exponent`.
    pub density_exponent: f64,
    /// Upper clamp on the fallback probability.
    pub max_prob: f64,
    /// Probability that a fallback targets 2G instead of 3G. The paper
    /// sees ≈0.001% of HOs ending on 2G; at simulation scale (tens of
    /// daily HOs per sector, not thousands) that share is upscaled so
    /// →2G stays statistically observable, while remaining orders of
    /// magnitude rarer than →3G.
    pub two_g_share: f64,
    /// Mean dwell on the legacy RAT after a fallback, ms (during which the
    /// UE is invisible to the EPC).
    pub fallback_dwell_ms: f64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            urban_base: 0.26,
            rural_base: 0.046,
            r_sensitivity: 1.2,
            density_ref: 60.0,
            density_exponent: 0.7,
            max_prob: 0.85,
            two_g_share: 0.005,
            fallback_dwell_ms: 300_000.0,
        }
    }
}

/// Connected-mode behaviour per device type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Probability that a sector crossing happens in connected mode and is
    /// therefore recorded as a handover (idle crossings are cell
    /// reselections, which the paper excludes — §2 footnote 4).
    pub smartphone_duty: f64,
    /// Same for M2M/IoT devices.
    pub m2m_duty: f64,
    /// Same for feature phones.
    pub feature_duty: f64,
    /// Probability that a vertical handover carries an active voice call
    /// (SRVCC) for smartphones.
    pub smartphone_voice: f64,
    /// SRVCC probability for feature phones (voice-centric devices).
    pub feature_voice: f64,
    /// Fraction of UEs whose subscription includes SRVCC.
    pub srvcc_subscription_rate: f64,
    /// Mean daily attach hours per device type (smartphone, M2M, feature).
    pub attach_hours: [f64; 3],
    /// Per-30-minute-slot probability of an intra-site carrier-change
    /// handover while camping, per device type (smartphone, M2M, feature).
    /// Load-balancing across a site's frequency layers is what lifts
    /// smartphones to the paper's 22 visited sectors/day median while
    /// static M2M devices stay at 1 (Fig. 10).
    pub carrier_change_per_slot: [f64; 3],
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            smartphone_duty: 0.82,
            m2m_duty: 0.55,
            feature_duty: 0.60,
            smartphone_voice: 0.08,
            feature_voice: 0.45,
            srvcc_subscription_rate: 0.93,
            attach_hours: [16.0, 4.5, 7.0],
            carrier_change_per_slot: [0.90, 0.02, 0.18],
        }
    }
}

/// Top-level simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; the whole run is a pure function of the config.
    pub seed: u64,
    /// Number of UEs simulated.
    pub n_ues: usize,
    /// Number of study days (the paper observes 28, starting Monday
    /// 2024-01-29).
    pub n_days: u32,
    /// Spatial sampling step while walking trajectories, km.
    pub step_km: f64,
    /// Worker threads for the parallel runner (0 = available parallelism).
    pub threads: usize,
    /// Country generation.
    pub country: CountryConfig,
    /// Topology generation.
    pub topology: TopologyConfig,
    /// Device catalog generation.
    pub catalog: CatalogConfig,
    /// Failure injection.
    pub failure: FailureConfig,
    /// Duration models.
    pub durations: DurationModel,
    /// Coverage / vertical-fallback model.
    pub coverage: CoverageConfig,
    /// Connected-mode behaviour.
    pub session: SessionConfig,
}

impl SimConfig {
    /// Minimal configuration for unit/integration tests (runs in well
    /// under a second).
    pub fn tiny() -> Self {
        SimConfig {
            seed: 0x51a1,
            n_ues: 300,
            n_days: 2,
            step_km: 0.3,
            threads: 1,
            country: CountryConfig::tiny(),
            topology: TopologyConfig::tiny(),
            catalog: CatalogConfig::default(),
            failure: FailureConfig::default(),
            durations: DurationModel::default(),
            coverage: CoverageConfig::default(),
            session: SessionConfig::default(),
        }
    }

    /// A small but statistically meaningful run (seconds).
    pub fn small() -> Self {
        SimConfig {
            n_ues: 3_000,
            n_days: 7,
            threads: 0,
            country: CountryConfig::default(),
            topology: TopologyConfig::default(),
            ..Self::tiny()
        }
    }

    /// Between [`SimConfig::small`] and the full study: enough records
    /// (~1.1M) that a sweep measures steady-state throughput rather than
    /// startup (perfbench's `reanalyze` sweeps it), while still finishing
    /// in tens of seconds single-threaded.
    pub fn medium() -> Self {
        SimConfig { n_ues: 8_000, n_days: 14, ..Self::small() }
    }

    /// The default full study: the scaled-down analogue of the paper's
    /// 4-week countrywide capture (Table 1). Scale factor vs the paper:
    /// ~10k UEs instead of ~40M (absolute counts scale linearly; all
    /// shares/medians/coefficients are scale-free).
    pub fn default_study() -> Self {
        SimConfig { n_ues: 12_000, n_days: 28, ..Self::small() }
    }

    /// Per-UE-per-day derived RNG seed: stable regardless of thread count
    /// or execution order.
    pub fn ue_day_seed(&self, ue: u32, day: u32) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((ue as u64) << 32 | day as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::default_study()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_sensibly() {
        let tiny = SimConfig::tiny();
        let small = SimConfig::small();
        let medium = SimConfig::medium();
        let study = SimConfig::default_study();
        assert!(tiny.n_ues < small.n_ues && small.n_ues < medium.n_ues);
        assert!(medium.n_ues <= study.n_ues && medium.n_days < study.n_days);
        assert_eq!(study.n_days, 28);
    }

    #[test]
    fn ue_day_seeds_are_distinct() {
        let cfg = SimConfig::tiny();
        let mut seen = std::collections::HashSet::new();
        for ue in 0..100 {
            for day in 0..28 {
                assert!(seen.insert(cfg.ue_day_seed(ue, day)), "seed collision");
            }
        }
    }

    #[test]
    fn ue_day_seed_depends_on_master_seed() {
        let a = SimConfig::tiny();
        let mut b = SimConfig::tiny();
        b.seed = 1;
        assert_ne!(a.ue_day_seed(3, 4), b.ue_day_seed(3, 4));
    }

    #[test]
    fn default_session_probabilities_valid() {
        let s = SessionConfig::default();
        for p in [
            s.smartphone_duty,
            s.m2m_duty,
            s.feature_duty,
            s.smartphone_voice,
            s.feature_voice,
            s.srvcc_subscription_rate,
        ] {
            assert!((0.0..=1.0).contains(&p));
        }
        assert!(s.attach_hours.iter().all(|&h| h > 0.0 && h <= 24.0));
    }
}
