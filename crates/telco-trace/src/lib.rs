//! # telco-trace
//!
//! Trace substrate: the handover-record schema carrying the six variables
//! of the paper's mobility-management signaling dataset (§3.1), the
//! in-memory dataset with the slicing primitives every analysis needs, a
//! compact chunked columnar store and JSON export, and the operator-side
//! identity anonymizer (§3.1, Appendix A).
//!
//! ## Example
//!
//! ```
//! use telco_trace::dataset::SignalingDataset;
//! use telco_trace::store::{TraceReader, TraceWriter};
//!
//! let mut writer = TraceWriter::new(Vec::new(), 28).unwrap();
//! writer.write_dataset(&SignalingDataset::new(28)).unwrap();
//! let bytes = writer.finish().unwrap();
//! let mut reader = TraceReader::new(&bytes[..]).unwrap();
//! assert_eq!(reader.read_to_dataset_strict().unwrap().days, 28);
//! ```

// telco-lint: deny-nondeterminism
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anonymize;
pub mod columnar;
pub mod crc32;
pub mod dataset;
pub mod hash;
pub mod io;
pub mod probe;
pub mod record;
pub mod snap;
pub mod source;
pub mod store;

pub use anonymize::Anonymizer;
pub use columnar::ColumnBatch;
pub use dataset::SignalingDataset;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use io::{from_json, to_json, CodecError};
pub use probe::{probe_trailer, validate_file, StreamSummary, TrailerProbe};
pub use record::{DeviceRecord, HoOutcome, HoRecord, TopologyRecord};
pub use snap::{decode_frame, encode_frame, SnapError, SnapReader, SnapWriter};
pub use source::{Span, SpilledTrace, TraceSource};
pub use store::{ChunkIssue, RawChunk, TraceReader, TraceWriter};
