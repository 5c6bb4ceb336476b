//! Streaming analytics over the switchless messaging plane.
//!
//! The paper's smart-grid use cases (§VI) are continuous computations —
//! theft detection and power-quality monitoring never see "the whole
//! dataset", they see an unbounded stream of sealed meter readings. This
//! crate adds the missing layer: enclave-resident windowed operators that
//! run as [`MicroService`]s over the batched EventBus, fed by sealed SCBR
//! batch frames and drained back out through the secure router.
//!
//! * [`window`] — tumbling/sliding window specs with deterministic
//!   event-time assignment and watermark-driven closing,
//! * [`state`] — operator state in the tiered [`SecureKv`] so key
//!   cardinality can exceed the EPC, every access charged to the
//!   operator's [`MemorySim`],
//! * [`operator`] — the one windowed micro-service: keyed aggregation over
//!   one input lane, a windowed inner join over two, with per-lane
//!   watermarks and one end-of-stream protocol,
//! * [`pipeline`] — the [`StreamPlane`] gluing SCBR ingress/egress to the
//!   service host, plus the city-scale smart-grid pipelines (real-time
//!   theft detection and per-feeder power-quality rollups).
//!
//! Determinism contract: results are a pure function of the sealed input
//! events (timestamps ride inside the AEAD frames next to the trace
//! context), so equal-seed runs are byte-identical at any worker count.
//!
//! [`MicroService`]: securecloud_eventbus::service::MicroService
//! [`SecureKv`]: securecloud_kvstore::SecureKv
//! [`MemorySim`]: securecloud_sgx::mem::MemorySim
//! [`StreamPlane`]: pipeline::StreamPlane

use std::error::Error as StdError;
use std::fmt;

use securecloud_scbr::ScbrError;

pub mod operator;
pub mod pipeline;
pub mod state;
pub mod window;

pub use operator::{AggregatorConfig, JoinConfig, StreamEvent, TwoStreamJoin, WindowedAggregator};
pub use pipeline::{CityPipelines, CitySpec, StreamPlane};
pub use state::{Aggregate, OperatorState, SharedState};
pub use window::WindowSpec;

/// Errors from the streaming layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum StreamError {
    /// A window specification was rejected at construction.
    InvalidWindow(&'static str),
    /// An event was missing or mistyped a required attribute.
    MalformedEvent(&'static str),
    /// Operator state decoded to something other than what was written
    /// (host tampering with sealed state surfaces here, not as a panic).
    CorruptState(&'static str),
    /// A routed publication named a stream no pipeline registered.
    UnknownStream(i64),
    /// The secure router rejected a sealed exchange.
    Router(ScbrError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::InvalidWindow(why) => write!(f, "invalid window spec: {why}"),
            StreamError::MalformedEvent(why) => write!(f, "malformed stream event: {why}"),
            StreamError::CorruptState(why) => write!(f, "corrupt operator state: {why}"),
            StreamError::UnknownStream(id) => write!(f, "no route for stream {id}"),
            StreamError::Router(e) => write!(f, "secure router: {e}"),
        }
    }
}

impl StdError for StreamError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            StreamError::Router(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScbrError> for StreamError {
    fn from(e: ScbrError) -> Self {
        StreamError::Router(e)
    }
}
