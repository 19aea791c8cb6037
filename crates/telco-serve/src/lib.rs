//! # telco-serve
//!
//! The batch study, turned inside out: instead of simulating every day
//! and sweeping the whole trace once, an [`IngestEngine`] folds days
//! into a live [`telco_analytics::StudyPasses`] composite **as they
//! arrive**, persists every fold through a crash-safe snapshot commit
//! protocol (see [`engine`]), and a [`QueryServer`] answers table,
//! figure, and sliding-window queries from the last committed view over
//! newline-delimited JSON on a loopback socket.
//!
//! The served numbers are not approximations: the final full view is
//! byte-identical to serializing a one-shot batch [`telco_analytics::Study`]
//! of the same config — the incremental fold is the span-parallel sweep's
//! fold with its seams at midnight, and the golden suite pins the
//! equivalence.
//!
//! ## Example
//!
//! ```
//! use telco_serve::{IngestEngine, Published, QueryServer, query_line};
//! use telco_sim::SimConfig;
//! use telco_store::DirStore;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join("telco_serve_doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut cfg = SimConfig::tiny();
//! cfg.n_ues = 60;
//! let store = Box::new(DirStore::create(&dir).unwrap());
//! let mut engine = IngestEngine::open(cfg, store, 7).unwrap();
//!
//! let published = Arc::new(Published::new(engine.build_view().unwrap()));
//! let server = QueryServer::start(Arc::clone(&published), 0).unwrap();
//! while engine.ingest_next_day().unwrap().is_some() {
//!     published.publish(engine.build_view().unwrap());
//! }
//! let status = query_line(server.addr(), "{\"query\":\"status\"}").unwrap();
//! assert!(status.contains("\"committed_days\":2"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod server;

pub use engine::{
    IngestEngine, IngestReport, ServeError, ServedView, DEFAULT_WINDOW, STATE_OBJECT,
};
pub use fault::{EXIT_INJECTED, FAULT_ENV};
pub use server::{handle_request, query_line, Published, QueryServer};
