//! A secure structured data store (paper §III-B: "secure structured data
//! stores" as a big-data building block).
//!
//! [`SecureKv`] is an ordered key-value store whose working set lives in
//! *enclave* memory: every operation reports its accesses to the
//! [`MemorySim`](securecloud_sgx::mem::MemorySim), so a store larger than the EPC exhibits the same paging
//! behaviour as the paper's Figure 3 workload. Durability is provided by
//! sealed snapshots written to untrusted storage, with **rollback
//! protection** via a trusted monotonic counter (the SGX counter service):
//! restoring an old-but-validly-sealed snapshot is detected.
//!
//! Stores larger than the EPC can run *tiered* ([`SecureKv::tiered`]): an
//! in-EPC memtable over sealed log-structured segments on the untrusted
//! host (the `securecloud-storage` crate), with WAL-tail recovery and
//! incremental snapshots replacing whole-store sealing.
//!
//! # Example
//!
//! ```
//! use securecloud_kvstore::{CounterService, SecureKv};
//! use securecloud_sgx::costs::{CostModel, MemoryGeometry};
//! use securecloud_sgx::mem::MemorySim;
//!
//! let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
//! let mut kv = SecureKv::new();
//! kv.try_put(&mut mem, b"meter/42", b"1337 W")?;
//! assert_eq!(kv.try_get_ref(&mut mem, b"meter/42")?, Some(&b"1337 W"[..]));
//! # Ok::<(), securecloud_kvstore::KvError>(())
//! ```

pub mod store;

pub use store::{CounterService, KvError, KvStats, SecureKv, Snapshot};

// The sealed-tier vocabulary, re-exported so downstream crates (replica,
// bench) can configure tiered stores without a direct storage dependency.
pub use securecloud_storage::{
    HostDisk, IncrementalSnapshot, ReplayReport, StorageConfig, StorageEngine, StorageError,
    StorageStats, StoreKeys,
};
