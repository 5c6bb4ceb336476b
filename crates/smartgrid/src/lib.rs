//! Smart-grid applications of the SecureCloud platform (paper §VI).
//!
//! The paper validates its stack on smart-grid big-data use cases; this
//! crate implements them end to end on the workspace's substrates:
//!
//! * [`meters`] — synthetic household traces from appliance models
//!   (substitute for the private production data the paper uses),
//! * [`batch`] — the city's windowed queries as secure map/reduce jobs,
//! * [`theft`] — power-theft (non-technical-loss) detection over them,
//! * [`billing`] — time-of-use billing over them,
//! * [`quality`] — power-quality (sag/swell) monitoring with
//!   millisecond-scale detection latency,
//! * [`privacy`] — the appliance-inference attack that motivates
//!   encrypting meter data (works on plaintext, fails on sealed payloads),
//! * [`orchestration`] — the monitoring/orchestration service reacting to
//!   latency anomalies within one bus step,
//! * [`error`] — typed errors for the pipelines' wire-format decodes.

pub mod batch;
pub mod billing;
pub mod error;
pub mod meters;
pub mod orchestration;
pub mod privacy;
pub mod quality;
pub mod theft;
