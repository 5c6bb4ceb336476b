//! The SGX cost model: cycle charges for memory-hierarchy and enclave
//! transition events.
//!
//! Defaults follow the SGX1 measurements reported in the paper's references
//! (SCONE, OSDI'16; Costan & Devadas, "Intel SGX Explained"):
//!
//! * enclave transitions (ECALL/OCALL) cost thousands of cycles each way,
//! * a last-level-cache miss that must be served from EPC memory pays the
//!   Memory Encryption Engine (decrypt + integrity check), roughly 2-3x a
//!   native DRAM access,
//! * an EPC page fault is serviced by the (untrusted) OS: the victim page is
//!   encrypted and written back (EWB) and the faulting page decrypted and
//!   verified on reload (ELDU), costing tens of thousands of cycles.

use std::time::Duration;

/// Cycle costs for simulated events. Construct via [`CostModel::sgx_v1`];
/// override a field with struct-update syntax
/// (`CostModel { epc_fault_cycles: 99, ..CostModel::sgx_v1() }`).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Clock frequency used to convert cycles to wall time, in GHz.
    pub cpu_ghz: f64,
    /// One-way cost of entering an enclave (EENTER) in cycles.
    pub ecall_cycles: u64,
    /// One-way cost of leaving an enclave (EEXIT/OCALL) in cycles.
    pub ocall_cycles: u64,
    /// Cost of an access served by the cache hierarchy (hit), in cycles.
    pub cache_hit_cycles: u64,
    /// LLC miss served from regular DRAM (native execution), in cycles.
    pub dram_cycles: u64,
    /// LLC miss served from EPC memory: DRAM plus MEE decrypt + integrity
    /// check, in cycles.
    pub epc_miss_cycles: u64,
    /// EPC page fault: OS exit, EWB of the victim, ELDU of the target,
    /// integrity verification, TLB shootdown — in cycles.
    pub epc_fault_cycles: u64,
    /// Baseline compute charge per application operation, in cycles.
    pub compute_op_cycles: u64,
    /// Fixed cost of one host block-device transfer (OCALL to the untrusted
    /// host, request setup, completion), in cycles.
    pub host_io_setup_cycles: u64,
    /// Per-KiB transfer cost of host block-device IO, in cycles.
    pub host_io_per_kib_cycles: u64,
    /// Cost of moving one submission/completion-ring slot between cores:
    /// a cross-core cache-line transfer plus the release/acquire fence pair.
    /// This is the per-operation price of the *switchless* path — orders of
    /// magnitude below [`CostModel::transition_pair`], which is the whole
    /// point of shared-memory rings.
    pub ring_slot_cycles: u64,
}

impl CostModel {
    /// The default SGX1 (Skylake-era) cost model used in the paper's setting.
    #[must_use]
    pub fn sgx_v1() -> Self {
        CostModel {
            cpu_ghz: 3.4,
            ecall_cycles: 4_000,
            ocall_cycles: 4_000,
            cache_hit_cycles: 8,
            dram_cycles: 200,
            epc_miss_cycles: 500,
            epc_fault_cycles: 20_000,
            compute_op_cycles: 40,
            // One host block transfer: OCALL out, syscall + device latency
            // (~12 us at 3.4 GHz), then ~1.6 GB/s of streaming bandwidth.
            host_io_setup_cycles: 40_000,
            host_io_per_kib_cycles: 2_000,
            // One cache line bounced between the enclave core and the host
            // servicer core (~100 cycles on Skylake) plus the fences.
            ring_slot_cycles: 120,
        }
    }

    /// A hypothetical "free hardware" model (all costs zero) — useful in
    /// tests that only check functional behaviour.
    #[must_use]
    pub fn zero() -> Self {
        CostModel {
            cpu_ghz: 1.0,
            ecall_cycles: 0,
            ocall_cycles: 0,
            cache_hit_cycles: 0,
            dram_cycles: 0,
            epc_miss_cycles: 0,
            epc_fault_cycles: 0,
            compute_op_cycles: 0,
            host_io_setup_cycles: 0,
            host_io_per_kib_cycles: 0,
            ring_slot_cycles: 0,
        }
    }

    /// The cost of one full enclave transition round trip (exit + re-enter,
    /// or enter + exit). Every place that charges a transition pair goes
    /// through this helper so the shield, the scheduler, and the sgx
    /// mirrors cannot drift apart.
    #[must_use]
    pub fn transition_pair(&self) -> u64 {
        self.ecall_cycles + self.ocall_cycles
    }

    /// Converts a cycle count to simulated wall-clock time.
    #[must_use]
    pub fn cycles_to_duration(&self, cycles: u64) -> Duration {
        let nanos = cycles as f64 / self.cpu_ghz;
        Duration::from_nanos(nanos as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::sgx_v1()
    }
}

/// Geometry of the simulated memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryGeometry {
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Last-level cache capacity in bytes.
    pub llc_bytes: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Total EPC capacity in bytes (hardware view: 128 MiB on SGX1).
    pub epc_total_bytes: usize,
    /// EPC bytes consumed by SGX metadata (EPCM, version arrays, SECS/TCS):
    /// on SGX1 roughly 35 MiB of the 128 MiB are unavailable to enclave
    /// data, which is why the paper observes degradation *before* the
    /// 128 MiB mark in Figure 3.
    pub epc_reserved_bytes: usize,
}

impl MemoryGeometry {
    /// SGX1 defaults: 64 B lines, 8 MiB LLC, 4 KiB pages, 128 MiB EPC of
    /// which ~93.5 MiB are usable.
    #[must_use]
    pub fn sgx_v1() -> Self {
        MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 8 << 20,
            page_bytes: 4096,
            epc_total_bytes: 128 << 20,
            epc_reserved_bytes: (34 << 20) + (512 << 10),
        }
    }

    /// A larger-EPC what-if (SGX2/Ice-Lake-era parts shipped with 256 MiB+
    /// of EPC and cheaper paging via EDMM): used by the E8 what-if bench.
    #[must_use]
    pub fn sgx_v2() -> Self {
        MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 24 << 20,
            page_bytes: 4096,
            epc_total_bytes: 256 << 20,
            epc_reserved_bytes: 16 << 20,
        }
    }

    /// EPC bytes usable for enclave data pages.
    #[must_use]
    pub fn epc_usable_bytes(&self) -> usize {
        self.epc_total_bytes.saturating_sub(self.epc_reserved_bytes)
    }

    /// Number of usable EPC pages.
    #[must_use]
    pub fn epc_pages(&self) -> usize {
        self.epc_usable_bytes() / self.page_bytes
    }

    /// Number of LLC lines.
    #[must_use]
    pub fn llc_lines(&self) -> usize {
        self.llc_bytes / self.line_bytes
    }
}

impl Default for MemoryGeometry {
    fn default() -> Self {
        Self::sgx_v1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgx_v1_defaults_are_sane() {
        let c = CostModel::sgx_v1();
        assert!(c.epc_fault_cycles > c.epc_miss_cycles);
        // A 4 KiB host block transfer must dwarf an EPC fault: spilling to
        // host storage only pays off when it saves *many* faults.
        assert!(c.host_io_setup_cycles + 4 * c.host_io_per_kib_cycles > c.epc_fault_cycles);
        assert!(c.epc_miss_cycles > c.dram_cycles);
        assert!(c.dram_cycles > c.cache_hit_cycles);
        let g = MemoryGeometry::sgx_v1();
        assert_eq!(g.epc_total_bytes, 128 << 20);
        assert!(g.epc_usable_bytes() < g.epc_total_bytes);
        assert!(g.epc_usable_bytes() > 90 << 20);
    }

    #[test]
    fn cycles_to_duration_scales_with_frequency() {
        let c = CostModel {
            cpu_ghz: 2.0,
            ..CostModel::sgx_v1()
        };
        assert_eq!(c.cycles_to_duration(2_000_000), Duration::from_micros(1000));
    }

    #[test]
    fn ring_slot_is_far_below_a_transition() {
        // The switchless premise: bouncing a ring slot between cores must be
        // orders of magnitude cheaper than an enclave transition pair.
        let c = CostModel::sgx_v1();
        assert!(c.ring_slot_cycles > 0);
        assert!(c.transition_pair() >= 50 * c.ring_slot_cycles);
    }

    #[test]
    fn geometry_counts() {
        let g = MemoryGeometry::sgx_v1();
        assert_eq!(g.llc_lines(), (8 << 20) / 64);
        assert_eq!(g.epc_pages(), g.epc_usable_bytes() / 4096);
    }
}
