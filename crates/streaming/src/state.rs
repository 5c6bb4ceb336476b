//! Operator state beyond the EPC.
//!
//! Every windowed operator keeps its per-(window, key) accumulators in a
//! *tiered* [`SecureKv`]: hot accumulators live in the in-EPC memtable,
//! cold ones spill to sealed log-structured segments on the untrusted
//! host. Key cardinality is therefore bounded by host storage, not by the
//! ~94 MiB of usable EPC — the same state-beyond-EPC argument the tiered
//! store makes for batch jobs, now under streaming access patterns. Every
//! access is charged to the operator's own [`MemorySim`], so eviction and
//! paging show up in the benchmark's cycle accounting instead of being
//! free.
//!
//! The storage key layout is ordered so one range scan drains one window:
//!
//! ```text
//! <operator>/<lane>/<window start, 16 hex>/<key, 16 hex>
//! ```
//!
//! Hex-encoding the fixed-width integers makes lexicographic order equal
//! numeric order, so `scan(prefix, prefix + '0')` yields a closed window's
//! accumulators in ascending key order — which is what makes emission
//! order deterministic.
//!
//! Folds and drains write inside the store's write group: their WAL
//! records are sealed and staged in enclave memory, and
//! [`OperatorState::commit`] writes them to the host in one transfer. The
//! owning operator commits once per bus delivery batch.

use std::io::Write;
use std::sync::Arc;

use parking_lot::Mutex;
use securecloud_kvstore::{CounterService, KvError, SecureKv, StorageConfig, StoreKeys};
use securecloud_sgx::costs::{CostModel, MemoryGeometry};
use securecloud_sgx::mem::{MemStats, MemorySim};

use crate::StreamError;

/// A windowed accumulator: count, sum, min, max over the observed values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of observed values.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
}

/// Encoded accumulator width: count, sum, min, max at 8 bytes each.
pub const AGGREGATE_WIRE_LEN: usize = 32;

impl Aggregate {
    /// The accumulator after observing a first value.
    #[must_use]
    pub fn of(value: f64) -> Self {
        Aggregate {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    /// Folds one more value in.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observed values (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fixed-width little-endian encoding for the KV value.
    #[must_use]
    pub fn encode(&self) -> [u8; AGGREGATE_WIRE_LEN] {
        let mut out = [0u8; AGGREGATE_WIRE_LEN];
        out[..8].copy_from_slice(&self.count.to_le_bytes());
        out[8..16].copy_from_slice(&self.sum.to_le_bytes());
        out[16..24].copy_from_slice(&self.min.to_le_bytes());
        out[24..32].copy_from_slice(&self.max.to_le_bytes());
        out
    }

    /// Decodes a stored accumulator.
    ///
    /// # Errors
    ///
    /// [`StreamError::CorruptState`] on a width mismatch — a host that
    /// truncates sealed state gets a typed error, not a slice panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, StreamError> {
        if bytes.len() != AGGREGATE_WIRE_LEN {
            return Err(StreamError::CorruptState("accumulator width mismatch"));
        }
        let word = |i: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            w
        };
        Ok(Aggregate {
            count: u64::from_le_bytes(word(0)),
            sum: f64::from_le_bytes(word(1)),
            min: f64::from_le_bytes(word(2)),
            max: f64::from_le_bytes(word(3)),
        })
    }
}

/// A failure of the sealed tier under the state: the host tampered with (or
/// lost) what the operator wrote.
fn sealed_tier(_: KvError) -> StreamError {
    StreamError::CorruptState("sealed state failed verification")
}

/// Per-operator stream counters, read by benches and tests through the
/// shared state handle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StateMetrics {
    /// Events folded into some window.
    pub events: u64,
    /// (window, key) results emitted on close.
    pub results: u64,
    /// Events dropped because every window containing them had closed.
    pub late_dropped: u64,
    /// Events dropped for missing/mistyped attributes.
    pub malformed: u64,
}

/// State for one operator: a tiered KV plus the enclave memory simulator
/// its accesses are charged to.
#[derive(Debug)]
pub struct OperatorState {
    name: String,
    kv: SecureKv,
    mem: MemorySim,
    peak_state_bytes: u64,
    /// The storage key (or drain bounds) of the current call, rewritten in
    /// place so no event allocates one.
    key_buf: Vec<u8>,
    /// Stream counters, maintained by the owning operator.
    pub metrics: StateMetrics,
}

/// Shared handle to an [`OperatorState`]: the operator (boxed into the
/// service host) and the benchmark both hold one, so cycle and paging
/// accounting stays readable after the pipeline is deployed.
pub type SharedState = Arc<Mutex<OperatorState>>;

impl OperatorState {
    /// Creates tiered state for operator `name` under the given enclave
    /// geometry (shrink the EPC to put the state under pressure).
    #[must_use]
    pub fn new(name: &str, geometry: MemoryGeometry, storage: StorageConfig) -> Self {
        let mut key = [0u8; 16];
        for (i, b) in name.bytes().enumerate() {
            key[i % 16] ^= b.wrapping_add(i as u8);
        }
        OperatorState {
            name: name.to_string(),
            kv: SecureKv::tiered(
                storage,
                StoreKeys::new(key),
                CounterService::new(),
                format!("streaming/{name}"),
            ),
            mem: MemorySim::enclave(geometry, CostModel::sgx_v1()),
            peak_state_bytes: 0,
            key_buf: Vec::new(),
            metrics: StateMetrics::default(),
        }
    }

    /// Shared-handle constructor (what operators and benches want).
    #[must_use]
    pub fn shared(name: &str, geometry: MemoryGeometry, storage: StorageConfig) -> SharedState {
        Arc::new(Mutex::new(Self::new(name, geometry, storage)))
    }

    /// A storage config sized for streaming accumulators: small blocks,
    /// a memtable budget well under typical sweep EPCs.
    #[must_use]
    pub fn default_storage() -> StorageConfig {
        StorageConfig {
            block_bytes: 1024,
            flush_bytes: 128 << 10,
            cache_blocks: 8,
            compact_at_segments: 8,
        }
    }

    /// Operator name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rewrites `key_buf` to `<operator>/<lane>/<window start>`.
    fn write_window_prefix(&mut self, lane: &str, window_start: u64) {
        self.key_buf.clear();
        write!(self.key_buf, "{}/{}/{:016x}", self.name, lane, window_start)
            .expect("writing to a Vec cannot fail");
    }

    /// Folds `value` into the `(window_start, key)` accumulator on `lane`,
    /// staging the write until the next [`OperatorState::commit`].
    ///
    /// # Errors
    ///
    /// [`StreamError::CorruptState`] if the stored accumulator no longer
    /// decodes or its sealed block fails verification.
    pub fn observe(
        &mut self,
        lane: &str,
        window_start: u64,
        key: u64,
        value: f64,
    ) -> Result<(), StreamError> {
        self.write_window_prefix(lane, window_start);
        write!(self.key_buf, "/{key:016x}").expect("writing to a Vec cannot fail");
        self.kv.open_group();
        let storage_key = &self.key_buf;
        let stored = self.kv.try_get_ref(&mut self.mem, storage_key);
        let agg = match stored.map_err(sealed_tier)? {
            Some(stored) => {
                let mut agg = Aggregate::decode(stored)?;
                agg.observe(value);
                agg
            }
            None => Aggregate::of(value),
        };
        self.kv
            .try_put(&mut self.mem, storage_key, &agg.encode())
            .map_err(sealed_tier)?;
        self.peak_state_bytes = self.peak_state_bytes.max(self.kv.data_bytes());
        self.metrics.events += 1;
        Ok(())
    }

    /// Drains a closed window on `lane`: returns `(key, accumulator)` in
    /// ascending key order and deletes the entries, so state stays bounded
    /// by the number of *open* windows. Each delete is a blind tombstone
    /// that pages nothing in; the deletes stage until the next
    /// [`OperatorState::commit`].
    ///
    /// # Errors
    ///
    /// [`StreamError::CorruptState`] on undecodable entries or sealed blocks
    /// that fail verification.
    pub fn drain(
        &mut self,
        lane: &str,
        window_start: u64,
    ) -> Result<Vec<(u64, Aggregate)>, StreamError> {
        // Both bounds in the one buffer: `<prefix>/` then `<prefix>0`. '0'
        // is the successor of '/' in ASCII, so the range covers exactly the
        // keys under the window prefix.
        self.write_window_prefix(lane, window_start);
        let prefix_len = self.key_buf.len();
        self.key_buf.push(b'/');
        self.key_buf.extend_from_within(..prefix_len);
        self.key_buf.push(b'0');
        let (from, to) = self.key_buf.split_at(prefix_len + 1);
        let pairs = self
            .kv
            .try_scan(&mut self.mem, from, to)
            .map_err(sealed_tier)?;
        self.kv.open_group();
        let mut out = Vec::with_capacity(pairs.len());
        for (storage_key, value) in &pairs {
            let hex = storage_key
                .len()
                .checked_sub(16)
                .and_then(|at| std::str::from_utf8(&storage_key[at..]).ok())
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or(StreamError::CorruptState("undecodable state key"))?;
            out.push((hex, Aggregate::decode(value)?));
        }
        for (storage_key, _) in &pairs {
            self.kv
                .try_delete(&mut self.mem, storage_key)
                .map_err(sealed_tier)?;
        }
        self.metrics.results += out.len() as u64;
        Ok(out)
    }

    /// Makes every staged fold and drain durable: one host write for the
    /// whole group.
    ///
    /// # Errors
    ///
    /// [`StreamError::CorruptState`] if the host write failed; the staged
    /// writes are then lost and the state refuses every later write.
    pub fn commit(&mut self) -> Result<(), StreamError> {
        self.kv.commit_group(&mut self.mem).map_err(sealed_tier)
    }

    /// Simulated cycles charged to this operator so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.mem.cycles()
    }

    /// Memory-simulator counters (EPC faults, host IO, ...).
    #[must_use]
    pub fn mem_stats(&self) -> MemStats {
        self.mem.stats()
    }

    /// High-water mark of live state bytes over the operator's life —
    /// closed windows drain, so the *final* state is near-empty; this is
    /// the number to hold against the usable EPC.
    #[must_use]
    pub fn peak_state_bytes(&self) -> u64 {
        self.peak_state_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> OperatorState {
        OperatorState::new(
            "test-op",
            MemoryGeometry::sgx_v1(),
            OperatorState::default_storage(),
        )
    }

    #[test]
    fn aggregate_roundtrip_and_fold() {
        let mut agg = Aggregate::of(3.0);
        agg.observe(1.0);
        agg.observe(5.0);
        assert_eq!(agg.count, 3);
        assert!((agg.mean() - 3.0).abs() < 1e-12);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 5.0);
        let back = Aggregate::decode(&agg.encode()).unwrap();
        assert_eq!(back, agg);
        assert!(Aggregate::decode(&[0u8; 7]).is_err(), "truncated state");
    }

    #[test]
    fn observe_then_drain_is_key_ordered_and_clears() {
        let mut st = state();
        for key in [9u64, 2, 7, 2] {
            st.observe("a", 60_000, key, key as f64).unwrap();
        }
        st.observe("a", 120_000, 1, 10.0).unwrap();
        let drained = st.drain("a", 60_000).unwrap();
        assert_eq!(
            drained.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![2, 7, 9]
        );
        let two = drained.iter().find(|(k, _)| *k == 2).unwrap().1;
        assert_eq!(two.count, 2);
        assert!(st.drain("a", 60_000).unwrap().is_empty(), "window cleared");
        assert_eq!(
            st.drain("a", 120_000).unwrap().len(),
            1,
            "other window intact"
        );
        assert_eq!(st.metrics.events, 5);
        assert!(st.cycles() > 0, "accesses are charged");
    }

    #[test]
    fn lanes_are_disjoint() {
        let mut st = state();
        st.observe("l", 0, 1, 1.0).unwrap();
        st.observe("r", 0, 1, 2.0).unwrap();
        assert_eq!(st.drain("l", 0).unwrap().len(), 1);
        assert_eq!(st.drain("r", 0).unwrap().len(), 1);
    }

    /// Seals the accumulators written so far into host blocks and flips one
    /// bit in one of them, as a tampering host would.
    fn corrupt_sealed_state(st: &mut OperatorState) {
        st.kv.flush_memtable(&mut st.mem).unwrap();
        let engine = st.kv.storage_mut().expect("operator state is tiered");
        engine.corrupt_block(7).expect("a flushed block exists");
    }

    #[test]
    fn corrupted_state_block_is_an_error_not_a_panic() {
        let mut st = state();
        st.observe("a", 60_000, 1, 1.0).unwrap();
        corrupt_sealed_state(&mut st);
        for result in [
            st.observe("a", 60_000, 1, 2.0),
            st.drain("a", 60_000).map(drop),
        ] {
            assert!(
                matches!(result, Err(StreamError::CorruptState(_))),
                "{result:?}"
            );
        }
    }

    #[test]
    fn operator_counts_a_corrupted_state_block_as_malformed() {
        use crate::operator::{AggregatorConfig, StreamEvent, WindowedAggregator, ATTR_KEY};
        use crate::window::WindowSpec;
        use securecloud_eventbus::service::ServiceHost;
        use securecloud_scbr::types::Publication;

        let shared = Arc::new(Mutex::new(state()));
        let cfg = AggregatorConfig {
            name: "test-op".into(),
            input: "in".into(),
            output: "out".into(),
            output_stream: 9,
            key_attr: ATTR_KEY.into(),
            windows: WindowSpec::tumbling(60_000).unwrap(),
            flush_in: "flush".into(),
            flush_out: None,
        };
        let mut host = ServiceHost::new(60_000);
        host.register(Box::new(WindowedAggregator::new(cfg, shared.clone())));
        let event = |value| {
            let event = StreamEvent {
                key: 1,
                t_ms: 1_000,
                value,
            };
            event.publication(1)
        };
        host.bus_mut().publish("in", Vec::new(), event(1.0));
        host.pump_switchless(64);
        corrupt_sealed_state(&mut shared.lock());
        // The fold reads the flipped block, the flush scans it.
        host.bus_mut().publish("in", Vec::new(), event(2.0));
        host.pump_switchless(64);
        assert_eq!(shared.lock().metrics.malformed, 1);
        host.bus_mut()
            .publish("flush", Vec::new(), Publication::new());
        host.pump_switchless(64);
        assert_eq!(shared.lock().metrics.malformed, 2);
        assert_eq!(shared.lock().metrics.results, 0);
    }
}
