//! # telco-topology
//!
//! Radio network topology substrate: RAT generations, anonymized antenna
//! vendors (V1–V4), cell sites and radio sectors, a deployment generator
//! calibrated to the paper's published network anatomy (Fig. 3a, §4.1), the
//! 2009–2023 deployment-history reconstruction, the serving-sector lookup,
//! and the dynamic energy-saving shutdown policy (§5.1).
//!
//! ## Example
//!
//! ```
//! use telco_geo::country::{Country, CountryConfig};
//! use telco_topology::deployment::{Topology, TopologyConfig};
//! use telco_topology::rat::Rat;
//!
//! let country = Country::generate(CountryConfig::tiny());
//! let topo = Topology::generate(&country, TopologyConfig::tiny());
//! // Every site hosts 4G, so any point has a serving 4G sector.
//! let point = country.capital().centroid;
//! assert!(topo.serving_sector(&point, Rat::G4).is_some());
//! ```

// telco-lint: deny-nondeterminism
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
pub mod elements;
pub mod energy;
pub mod evolution;
pub mod rat;
pub mod vendor;

pub use deployment::{RatHosting, Topology, TopologyConfig};
pub use elements::{CellSite, RadioSector, SectorId, SiteId};
pub use energy::{EnergySavingPolicy, SLOTS_PER_DAY};
pub use evolution::{DeploymentHistory, HISTORY_END, HISTORY_START};
pub use rat::Rat;
pub use vendor::Vendor;
