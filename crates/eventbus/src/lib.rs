//! The SecureCloud event bus and micro-service framework (paper §III-B,
//! Figure 1).
//!
//! Applications are sets of micro-services connected by an event bus:
//!
//! * [`bus`] — topics, SCBR content filters, lease/ack at-least-once
//!   delivery with redelivery on expiry,
//! * [`keys`] — end-to-end payload encryption with attestation-gated
//!   per-topic key release (the bus itself sees only ciphertext),
//! * [`service`] — the [`service::MicroService`] trait and a host that
//!   pumps deliveries between registered services.
//!
//! # Example
//!
//! ```
//! use securecloud_eventbus::bus::EventBus;
//! use securecloud_scbr::types::Publication;
//!
//! let mut bus = EventBus::new(1_000);
//! let subscriber = bus.subscribe("alerts", None);
//! bus.publish("alerts", b"overload on feeder 7".to_vec(), Publication::new());
//! let message = bus.fetch(subscriber).unwrap();
//! assert_eq!(message.payload, b"overload on feeder 7");
//! bus.ack(subscriber, message.id);
//! ```

pub mod bus;
pub mod keys;
pub mod service;

pub use bus::{BusStats, EventBus, Message, MessageId, SubscriberId};
pub use keys::{fetch_topic_key, open_payload, seal_payload, KeyServiceError, TopicKeyService};
pub use service::{MicroService, ServiceCtx, ServiceHost};
