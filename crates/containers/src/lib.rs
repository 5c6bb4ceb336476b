//! Secure containers for the SecureCloud stack (paper §V-A, Figure 2).
//!
//! This crate implements the Docker-shaped substrate the paper deploys
//! micro-services on:
//!
//! * [`image`] — layered container images with content-addressed ids,
//! * [`registry`] — an **untrusted** registry (tests demonstrate that
//!   tampering is caught at container start, so the registry needs no
//!   trust),
//! * [`build`] — the *SCONE client* build pipeline: static linking into a
//!   measured entrypoint, FS encryption, sealed FS protection file, SCF
//!   emission,
//! * [`engine`] — the container engine running plain and secure containers
//!   side by side, with resource accounting.

#![forbid(unsafe_code)]

pub mod build;
pub mod engine;
pub mod image;
pub mod registry;

use engine::ContainerId;
use std::error::Error as StdError;
use std::fmt;

/// Errors from the container subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ContainerError {
    /// The referenced image does not exist.
    ImageNotFound(String),
    /// The referenced container does not exist.
    ContainerNotFound(ContainerId),
    /// The image build pipeline rejected its inputs.
    Build(String),
    /// Starting the container failed (attestation, tampering, provisioning).
    Start(String),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::ImageNotFound(what) => write!(f, "image not found: {what}"),
            ContainerError::ContainerNotFound(id) => {
                write!(f, "container not found: {}", id.0)
            }
            ContainerError::Build(why) => write!(f, "image build failed: {why}"),
            ContainerError::Start(why) => write!(f, "container start failed: {why}"),
        }
    }
}

impl StdError for ContainerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        for e in [
            ContainerError::ImageNotFound("x".into()),
            ContainerError::ContainerNotFound(ContainerId(1)),
            ContainerError::Build("y".into()),
            ContainerError::Start("z".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
