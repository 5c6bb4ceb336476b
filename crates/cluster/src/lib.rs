//! # securecloud-cluster
//!
//! The elastic cluster controller: telemetry-driven autoscaling of
//! attested replicas that survives fault schedules with zero acked-write
//! loss.
//!
//! The SecureCloud paper assumes an operator sizes the platform by hand.
//! This crate closes the loop instead: a deterministic, virtual-clock
//! [`ClusterController`] watches the platform's own telemetry — event-bus
//! backpressure, dead-letter-queue depth, publish-to-ack p99 latency, and
//! per-shard replication lag — through an explicit [`ScalingPolicy`] with
//! hysteresis bands, breach/calm streaks, and per-direction cooldowns, and
//! acts through the same attestation-gated membership paths clients use:
//!
//! * scale-up admits a replica only through the provisioning service
//!   (quote verified, sealing key over a secure channel) and re-derives
//!   the write quorum as the smallest majority of the new group size;
//! * scale-down *drains before decommission* — the group refuses the
//!   drain outright if the survivors could not sustain the post-drain
//!   majority quorum, so no acknowledged write is ever put at risk;
//! * degraded replicas (killed or stalled by fault injection) are fenced,
//!   killed, and replaced through the ordinary failover path, so a node
//!   kill during a scale-up converges to the desired state instead of
//!   flapping;
//! * every resident replica is placed on the simulated data-center
//!   through a GenPack [`Scheduler`](securecloud_genpack::schedulers::Scheduler),
//!   so elasticity shows up in the power model (consolidation, parked
//!   servers) and not just in replica counts.
//!
//! Every decision is recorded as a `t=<ms> ...` line in an append-only
//! trace ([`ClusterController::decisions`]). The trace depends only on
//! the seed and the virtual clock — byte-identical across runs and across
//! `--jobs N` parallelism — and is what the E12 benchmark pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod policy;

pub use controller::{ClusterController, ControllerReport};
pub use policy::{PolicyError, ScalingPolicy};
