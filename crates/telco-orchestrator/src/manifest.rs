//! The sharded-sweep manifest: a study decomposed into `(day-range,
//! UE-shard, seed, scenario)` work items.
//!
//! The manifest is the orchestration's single source of truth: the full
//! [`SimConfig`] is embedded (a shard is a pure function of config +
//! entry, nothing else), and every entry carries the coordinates a
//! worker needs to run [`telco_sim::run_shard`]. It is stored as JSON in
//! the shard store and re-read on every invocation — resumability means
//! a second orchestrator must reconstruct exactly the same plan, so the
//! plan lives on disk, not in code.
//!
//! Entries are ordered canonically: day-slice-major, then ascending UE
//! range. That order *is* the determinism argument — shard files merged
//! in entry order tie-break equal timestamps in (day, UE) order, which
//! is precisely the sequential runner's insertion order (see
//! `DESIGN.md` §10).

use serde::{Deserialize, Serialize};
use telco_sim::SimConfig;
use telco_trace::store::VERSION;

/// Manifest schema version. Parsers tolerate unknown *fields* (forward
/// compatibility); an unknown *format* number is a hard error.
pub const MANIFEST_FORMAT: u32 = 1;

/// Store name of the manifest artifact.
pub const MANIFEST_NAME: &str = "manifest.json";

/// One work item: simulate UEs `[ue_lo, ue_hi)` over study days
/// `[day_lo, day_hi)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Position in the canonical entry order (also the shard artifact
    /// index).
    pub index: usize,
    /// First study day of the slice (inclusive).
    pub day_lo: u32,
    /// Last study day of the slice (exclusive).
    pub day_hi: u32,
    /// First UE of the shard (inclusive).
    pub ue_lo: usize,
    /// Last UE of the shard (exclusive).
    pub ue_hi: usize,
    /// Master seed the shard derives its per-UE-day streams from
    /// (denormalized from the config so an entry is self-describing).
    pub seed: u64,
    /// Scenario label (denormalized from the manifest).
    pub scenario: String,
}

/// The full sharded-sweep plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema version ([`MANIFEST_FORMAT`]).
    pub format: u32,
    /// Human-readable scenario label (e.g. the preset name).
    pub scenario: String,
    /// Trace-store version shard files are written as: always
    /// [`VERSION`]. [`Manifest::from_json`] refuses any other.
    pub trace_version: u16,
    /// The complete simulation configuration. Shards are pure functions
    /// of this plus their entry coordinates.
    pub config: SimConfig,
    /// Work items in canonical (day-slice-major, UE-ascending) order.
    pub entries: Vec<ShardEntry>,
}

/// Knobs of [`Manifest::plan`].
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// UE shards per day slice (≥ 1).
    pub shards: usize,
    /// Study days per day slice (≥ 1; clamped to the study span).
    pub days_per_slice: u32,
    /// Scenario label recorded on the manifest and every entry.
    pub scenario: String,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { shards: 4, days_per_slice: u32::MAX, scenario: "study".to_string() }
    }
}

/// A manifest planning or parsing problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The JSON did not parse or did not match the schema.
    Parse(String),
    /// The manifest declares a format this build does not understand.
    UnknownFormat(u32),
    /// The manifest names a trace-store version this build no longer
    /// writes or reads.
    UnsupportedTraceVersion(u16),
    /// The plan parameters were invalid.
    BadPlan(String),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Parse(msg) => write!(f, "manifest does not parse: {msg}"),
            ManifestError::UnknownFormat(v) => write!(f, "unknown manifest format {v}"),
            ManifestError::UnsupportedTraceVersion(v) => write!(
                f,
                "trace_version {v} is no longer supported (only v{VERSION}); re-plan the study"
            ),
            ManifestError::BadPlan(msg) => write!(f, "invalid plan: {msg}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Decompose `config` into a canonical shard grid: day slices of
    /// `days_per_slice` days (outer), UE ranges split as evenly as
    /// possible into `shards` parts (inner; the first `n_ues % shards`
    /// shards get one extra UE). Entry order is day-slice-major then
    /// UE-ascending — the merge order that reproduces the sequential
    /// study byte for byte.
    pub fn plan(config: SimConfig, opts: &PlanOptions) -> Result<Manifest, ManifestError> {
        if opts.shards == 0 {
            return Err(ManifestError::BadPlan("shards must be >= 1".into()));
        }
        if opts.days_per_slice == 0 {
            return Err(ManifestError::BadPlan("days_per_slice must be >= 1".into()));
        }
        if config.n_ues == 0 || config.n_days == 0 {
            return Err(ManifestError::BadPlan("config has no UE-days".into()));
        }
        let shards = opts.shards.min(config.n_ues);
        let days_per_slice = opts.days_per_slice.min(config.n_days);
        let base = config.n_ues / shards;
        let extra = config.n_ues % shards;
        let mut entries = Vec::new();
        let mut day_lo = 0u32;
        while day_lo < config.n_days {
            let day_hi = (day_lo + days_per_slice).min(config.n_days);
            let mut ue_lo = 0usize;
            for s in 0..shards {
                let ue_hi = ue_lo + base + usize::from(s < extra);
                entries.push(ShardEntry {
                    index: entries.len(),
                    day_lo,
                    day_hi,
                    ue_lo,
                    ue_hi,
                    seed: config.seed,
                    scenario: opts.scenario.clone(),
                });
                ue_lo = ue_hi;
            }
            day_lo = day_hi;
        }
        Ok(Manifest {
            format: MANIFEST_FORMAT,
            scenario: opts.scenario.clone(),
            trace_version: VERSION,
            config,
            entries,
        })
    }

    /// Serialize to the canonical JSON form stored in the shard store.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parse a stored manifest. Unknown JSON fields are ignored (forward
    /// compatibility); an unknown `format` or a `trace_version` other than
    /// [`VERSION`] is rejected.
    pub fn from_json(json: &str) -> Result<Manifest, ManifestError> {
        let manifest: Manifest =
            serde_json::from_str(json).map_err(|e| ManifestError::Parse(e.to_string()))?;
        if manifest.format != MANIFEST_FORMAT {
            return Err(ManifestError::UnknownFormat(manifest.format));
        }
        if manifest.trace_version != VERSION {
            return Err(ManifestError::UnsupportedTraceVersion(manifest.trace_version));
        }
        Ok(manifest)
    }

    /// Stable fingerprint of the whole plan (config + every entry).
    /// Seals the study-level completion marker: a merged study is only
    /// reusable if it was merged from *this* manifest.
    pub fn manifest_hash(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }

    /// Stable fingerprint of one work item, keyed by everything that
    /// determines the shard's bytes: the config fingerprint, the trace
    /// version, and the entry coordinates. Completion markers carry this
    /// hash — a marker written for a different config, seed, or shard
    /// geometry never validates a shard of this manifest.
    pub fn entry_hash(&self, index: usize) -> Option<u64> {
        let e = self.entries.get(index)?;
        let config_fp = fnv1a(serde_json::to_string(&self.config).unwrap_or_default().as_bytes());
        let key = format!(
            "telco-shard|fmt{}|cfg{config_fp:016x}|v{}|{}|seed{}|days{}..{}|ues{}..{}|idx{}",
            self.format,
            self.trace_version,
            e.scenario,
            e.seed,
            e.day_lo,
            e.day_hi,
            e.ue_lo,
            e.ue_hi,
            e.index
        );
        Some(fnv1a(key.as_bytes()))
    }

    /// Total UE-days across all entries (coverage check: must equal
    /// `n_ues × n_days`).
    pub fn planned_ue_days(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| (e.ue_hi - e.ue_lo) as u64 * u64::from(e.day_hi - e.day_lo))
            .sum()
    }
}

/// 64-bit FNV-1a over `bytes`: tiny, dependency-free, stable across
/// platforms and releases — exactly what completion markers need (this
/// is a fingerprint for *matching*, not a defence against adversaries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical hex form of a fingerprint (16 lowercase hex digits).
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest(shards: usize, days_per_slice: u32) -> Manifest {
        let mut cfg = SimConfig::tiny();
        cfg.n_ues = 10;
        cfg.n_days = 3;
        Manifest::plan(cfg, &PlanOptions { shards, days_per_slice, scenario: "tiny".into() })
            .unwrap()
    }

    #[test]
    fn plan_covers_every_ue_day_exactly_once() {
        for shards in [1usize, 3, 4, 10] {
            for dps in [1u32, 2, 3, 99] {
                let m = tiny_manifest(shards, dps);
                assert_eq!(m.planned_ue_days(), 30, "shards={shards} dps={dps}");
                // No overlaps: mark every (ue, day) cell.
                let mut seen = [false; 30];
                for e in &m.entries {
                    for day in e.day_lo..e.day_hi {
                        for ue in e.ue_lo..e.ue_hi {
                            let cell = ue * 3 + day as usize;
                            assert!(!seen[cell], "cell ({ue},{day}) covered twice");
                            seen[cell] = true;
                        }
                    }
                }
                assert!(seen.iter().all(|&s| s));
                // Canonical order: indexes contiguous, day-major.
                for (i, e) in m.entries.iter().enumerate() {
                    assert_eq!(e.index, i);
                }
            }
        }
    }

    #[test]
    fn plan_clamps_excess_shards() {
        let m = tiny_manifest(64, 99);
        // 10 UEs cannot fill 64 shards; one UE per shard.
        assert_eq!(m.entries.len(), 10);
        assert!(m.entries.iter().all(|e| e.ue_hi - e.ue_lo == 1));
    }

    #[test]
    fn plan_rejects_degenerate_inputs() {
        let cfg = SimConfig::tiny();
        let bad = |opts: PlanOptions| Manifest::plan(cfg.clone(), &opts);
        assert!(bad(PlanOptions { shards: 0, ..PlanOptions::default() }).is_err());
        assert!(bad(PlanOptions { days_per_slice: 0, ..PlanOptions::default() }).is_err());
        let mut empty = cfg;
        empty.n_ues = 0;
        assert!(Manifest::plan(empty, &PlanOptions::default()).is_err());
    }

    #[test]
    fn entry_hash_distinguishes_everything_that_matters() {
        let m = tiny_manifest(3, 99);
        let h0 = m.entry_hash(0).unwrap();
        let h1 = m.entry_hash(1).unwrap();
        assert_ne!(h0, h1, "different entries must hash differently");
        assert!(m.entry_hash(99).is_none());

        // Same geometry, different seed: different hash.
        let mut reseeded = m.clone();
        reseeded.config.seed ^= 1;
        for e in &mut reseeded.entries {
            e.seed ^= 1;
        }
        assert_ne!(reseeded.entry_hash(0).unwrap(), h0);

        // Config changes beyond the seed reach the hash through the
        // config fingerprint.
        let mut warped = m.clone();
        warped.config.step_km *= 2.0;
        assert_ne!(warped.entry_hash(0).unwrap(), h0);

        // And hashing is stable: same manifest, same hash.
        assert_eq!(tiny_manifest(3, 99).entry_hash(0).unwrap(), h0);
    }

    #[test]
    fn fnv_reference_vectors() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(hash_hex(0xab), "00000000000000ab");
    }
}
