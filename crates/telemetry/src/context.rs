//! Causal trace contexts and their deterministic minting.
//!
//! A [`TraceContext`] names one node of a request's causal tree: the trace
//! it belongs to, its own span, and its parent span. Contexts are minted by
//! a [`ContextMinter`] that mixes a run seed, the virtual birth time, and a
//! monotone sequence number through SplitMix64, so equal-seed runs mint the
//! same ids in the same order (instrumented code is single-threaded per
//! telemetry bundle) while distinct seeds diverge immediately.
//!
//! `0` is reserved as the "absent" id on every field, which is what lets a
//! context ride inside sealed frames as a fixed 24-byte header: an all-zero
//! header means "untraced" and costs nothing to producers that never mint.

use crate::rng::{mix64, GOLDEN_GAMMA};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wire size of an encoded context: three little-endian `u64`s.
pub const CONTEXT_WIRE_LEN: usize = 24;

/// The causal identity carried through every hop of a request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace (request) this context belongs to; `0` = untraced.
    pub trace_id: u64,
    /// This hop's own span id; `0` = not a span.
    pub span_id: u64,
    /// The parent span id; `0` = root of the trace.
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The absent context (all ids zero).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this context carries no trace identity.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }

    /// Encodes the context as a fixed 24-byte little-endian header.
    #[must_use]
    pub fn encode(&self) -> [u8; CONTEXT_WIRE_LEN] {
        let mut out = [0u8; CONTEXT_WIRE_LEN];
        out[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..16].copy_from_slice(&self.span_id.to_le_bytes());
        out[16..24].copy_from_slice(&self.parent_span_id.to_le_bytes());
        out
    }

    /// Decodes a context from the first 24 bytes of `bytes`.
    ///
    /// Returns `None` when `bytes` is too short; an all-zero header decodes
    /// to [`TraceContext::none`].
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < CONTEXT_WIRE_LEN {
            return None;
        }
        let word = |range: std::ops::Range<usize>| {
            u64::from_le_bytes(bytes[range].try_into().expect("8-byte slice"))
        };
        Some(TraceContext {
            trace_id: word(0..8),
            span_id: word(8..16),
            parent_span_id: word(16..24),
        })
    }
}

/// Mints deterministic span/trace ids from `(seed, birth time, sequence)`.
#[derive(Debug, Default)]
pub struct ContextMinter {
    seed: AtomicU64,
    seq: AtomicU64,
}

impl ContextMinter {
    /// A minter for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ContextMinter {
            seed: AtomicU64::new(seed),
            seq: AtomicU64::new(0),
        }
    }

    /// (Re)keys the minter. Does not reset the sequence counter.
    pub fn set_seed(&self, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
    }

    /// The current seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed.load(Ordering::Relaxed)
    }

    /// One fresh non-zero id derived from the seed and the next sequence
    /// number, optionally salted with `birth_ms`.
    fn next_id(&self, birth_ms: u64) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let seed = self.seed.load(Ordering::Relaxed);
        // Two SplitMix64 steps: the salted seed, then the sequence number.
        let step = |z: u64| mix64(z.wrapping_add(GOLDEN_GAMMA));
        let id = step(step(seed ^ birth_ms.rotate_left(17)) ^ seq);
        // 0 is reserved for "absent"; remap the (astronomically rare) hit.
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Mints a root context for a request born at virtual time `birth_ms`.
    #[must_use]
    pub fn mint_root(&self, birth_ms: u64) -> TraceContext {
        let trace_id = self.next_id(birth_ms);
        let span_id = self.next_id(birth_ms);
        TraceContext {
            trace_id,
            span_id,
            parent_span_id: 0,
        }
    }

    /// Mints a child context under `parent` (same trace, fresh span).
    ///
    /// An absent parent yields an absent child: untraced requests stay
    /// untraced through every hop instead of growing orphan ids.
    #[must_use]
    pub fn mint_child(&self, parent: TraceContext) -> TraceContext {
        if parent.is_none() {
            return TraceContext::none();
        }
        TraceContext {
            trace_id: parent.trace_id,
            span_id: self.next_id(0),
            parent_span_id: parent.span_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = TraceContext {
            trace_id: 0x0102_0304_0506_0708,
            span_id: 42,
            parent_span_id: u64::MAX,
        };
        let wire = ctx.encode();
        assert_eq!(TraceContext::decode(&wire), Some(ctx));
        assert_eq!(TraceContext::decode(&wire[..23]), None);
        assert_eq!(
            TraceContext::decode(&[0u8; CONTEXT_WIRE_LEN]),
            Some(TraceContext::none())
        );
    }

    #[test]
    fn minting_is_deterministic_per_seed_and_distinct_across_seeds() {
        let mint = |seed: u64| {
            let m = ContextMinter::new(seed);
            (m.mint_root(100), m.mint_root(100), m.mint_root(200))
        };
        assert_eq!(mint(7), mint(7), "equal seeds must mint equal ids");
        assert_ne!(mint(7).0, mint(8).0, "distinct seeds must diverge");
        let (a, b, _) = mint(7);
        assert_ne!(a.trace_id, b.trace_id, "sequence must advance");
    }

    #[test]
    fn children_stay_in_trace_and_absent_parents_stay_absent() {
        let m = ContextMinter::new(3);
        let root = m.mint_root(5);
        let child = m.mint_child(root);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, root.span_id);
        assert_ne!(child.span_id, root.span_id);
        assert!(m.mint_child(TraceContext::none()).is_none());
        assert!(!root.is_none());
    }
}
