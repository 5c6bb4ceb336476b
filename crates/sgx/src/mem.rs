//! The simulated memory hierarchy.
//!
//! A [`MemorySim`] models one hardware thread's view of memory in either the
//! native domain or the enclave domain. Application code allocates
//! [`Region`]s from a bump allocator and reports its accesses with
//! [`MemorySim::touch`]; the simulator tracks LLC-line and EPC-page
//! residency with LRU sets and charges cycles according to the
//! [`costs::CostModel`](crate::costs::CostModel):
//!
//! * LLC hit → `cache_hit_cycles`,
//! * LLC miss, native domain → `dram_cycles`,
//! * LLC miss, enclave domain, page resident in EPC → `epc_miss_cycles`
//!   (DRAM + MEE decrypt/integrity),
//! * LLC miss, enclave domain, page **not** resident → `epc_fault_cycles`
//!   (OS-serviced EPC paging) and the page becomes resident, evicting the
//!   LRU page when the EPC is full.
//!
//! This is precisely the mechanism behind the paper's Figure 3: as a
//! working set grows past the usable EPC, page faults dominate and
//! in-enclave execution time diverges from native execution time.
//!
//! [`MemorySim::touch`] is the simulator's whole host cost: it walks the
//! lines of an access once and charges cycles, [`MemStats`] and the telemetry
//! mirror counters once per call. The two [`LruSet`]s alone decide which
//! lines hit and which pages fault; the simulated clock follows from that.

use crate::costs::{CostModel, MemoryGeometry};
use crate::lru::LruSet;
use securecloud_telemetry::Telemetry;
use std::time::Duration;

/// Execution domain of a [`MemorySim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Regular process memory: no MEE, no EPC limit.
    Native,
    /// Enclave memory: EPC-resident pages only, MEE on every miss.
    Enclave,
}

/// A contiguous allocation in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    len: u64,
}

impl Region {
    /// Base address of the region.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of `offset` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    #[must_use]
    pub fn addr(&self, offset: u64) -> u64 {
        assert!(offset < self.len.max(1), "offset {offset} out of region");
        self.base + offset
    }
}

/// A chunked bump allocator over simulated memory: entries are packed back
/// to back into `chunk_bytes`-sized [`Region`]s, and an entry larger than a
/// chunk gets a region of its own size.
#[derive(Debug)]
pub struct Arena {
    chunk_bytes: u64,
    chunks: Vec<Region>,
    /// Bytes handed out of the newest chunk.
    used: u64,
}

impl Arena {
    /// An empty arena that grows by `chunk_bytes` at a time.
    #[must_use]
    pub fn new(chunk_bytes: u64) -> Self {
        Arena {
            chunk_bytes,
            chunks: Vec::new(),
            used: 0,
        }
    }

    /// Address of `bytes` fresh bytes, from the newest chunk if they fit
    /// there and from a new region otherwise.
    pub fn alloc(&mut self, mem: &mut MemorySim, bytes: u64) -> u64 {
        let base = match self.chunks.last() {
            Some(chunk) if self.used + bytes <= chunk.len() => chunk.base(),
            _ => {
                let region = mem.alloc(bytes.max(self.chunk_bytes));
                self.chunks.push(region);
                self.used = 0;
                region.base()
            }
        };
        let offset = base + self.used;
        self.used += bytes;
        offset
    }

    /// The regions handed out so far, oldest first.
    #[must_use]
    pub fn chunks(&self) -> &[Region] {
        &self.chunks
    }

    /// Frees every region; the next allocation starts a new chunk.
    pub fn release(&mut self, mem: &mut MemorySim) {
        for region in self.chunks.drain(..) {
            mem.free(region);
        }
    }
}

/// Counters accumulated by a [`MemorySim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Cache-line touches.
    pub line_accesses: u64,
    /// Touches served by the cache.
    pub cache_hits: u64,
    /// Touches that missed the LLC.
    pub llc_misses: u64,
    /// LLC misses that also faulted a page into the EPC.
    pub epc_faults: u64,
    /// Pages evicted from the EPC.
    pub epc_evictions: u64,
    /// Application compute operations charged.
    pub compute_ops: u64,
    /// Total bytes allocated.
    pub bytes_allocated: u64,
    /// Host block-device read transfers.
    pub host_reads: u64,
    /// Host block-device write transfers.
    pub host_writes: u64,
    /// Bytes read from host block storage.
    pub host_read_bytes: u64,
    /// Bytes written to host block storage.
    pub host_write_bytes: u64,
}

securecloud_telemetry::metric_set! {
    /// Registry-backed mirror counters for a [`MemorySim`].
    ///
    /// The local [`MemStats`] stays the per-instance source of truth (and is
    /// what [`MemorySim::reset_metrics`] zeroes for steady-state measurement);
    /// these shared counters accumulate *globally* per domain across every
    /// simulator attached to the same registry, so a run's total paging and
    /// decrypt activity shows up in the exported snapshot.
    struct MemMetrics {
        line_accesses: Counter = "securecloud_sgx_line_accesses_total",
        cache_hits: Counter = "securecloud_sgx_cache_hits_total",
        llc_misses: Counter = "securecloud_sgx_llc_misses_total",
        mee_decrypts: Counter = "securecloud_sgx_mee_decrypts_total",
        epc_faults: Counter = "securecloud_sgx_epc_faults_total",
        epc_evictions: Counter = "securecloud_sgx_epc_evictions_total",
        host_io_reads: Counter = "securecloud_sgx_host_io_reads_total",
        host_io_writes: Counter = "securecloud_sgx_host_io_writes_total",
        host_io_read_bytes: Counter = "securecloud_sgx_host_io_read_bytes_total",
        host_io_write_bytes: Counter = "securecloud_sgx_host_io_write_bytes_total",
    }
}

/// One hardware thread's simulated memory system and clock.
#[derive(Debug)]
pub struct MemorySim {
    domain: Domain,
    geometry: MemoryGeometry,
    /// `log2` of `geometry.line_bytes` and of `geometry.page_bytes`.
    line_shift: u32,
    page_shift: u32,
    costs: CostModel,
    llc: LruSet,
    epc: Option<LruSet>,
    next_addr: u64,
    cycles: u64,
    stats: MemStats,
    metrics: Option<MemMetrics>,
}

impl MemorySim {
    /// Creates a native-domain simulator.
    #[must_use]
    pub fn native(geometry: MemoryGeometry, costs: CostModel) -> Self {
        Self::new(Domain::Native, geometry, costs)
    }

    /// Creates an enclave-domain simulator.
    #[must_use]
    pub fn enclave(geometry: MemoryGeometry, costs: CostModel) -> Self {
        Self::new(Domain::Enclave, geometry, costs)
    }

    /// Creates a simulator for `domain`.
    ///
    /// # Panics
    ///
    /// Panics unless `geometry.line_bytes` and `geometry.page_bytes` are
    /// powers of two with `line_bytes <= page_bytes`: `touch`, `alloc` and
    /// `free` must agree on which page an address belongs to.
    #[must_use]
    pub fn new(domain: Domain, geometry: MemoryGeometry, costs: CostModel) -> Self {
        let (line, page) = (geometry.line_bytes, geometry.page_bytes);
        assert!(
            line.is_power_of_two() && page.is_power_of_two() && line <= page,
            "MemoryGeometry needs power-of-two line_bytes <= page_bytes, got {line} and {page}"
        );
        let epc = match domain {
            Domain::Native => None,
            Domain::Enclave => Some(LruSet::new(geometry.epc_pages().max(1))),
        };
        MemorySim {
            domain,
            geometry,
            line_shift: line.trailing_zeros(),
            page_shift: page.trailing_zeros(),
            costs,
            llc: LruSet::new(geometry.llc_lines().max(1)),
            epc,
            next_addr: 0x1000, // skip the null page
            cycles: 0,
            stats: MemStats::default(),
            metrics: None,
        }
    }

    /// Mirrors this simulator's access counters into the shared registry,
    /// labeled by domain. Shared counters aggregate across simulators and
    /// are *not* cleared by [`MemorySim::reset_metrics`].
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let domain = match self.domain {
            Domain::Native => "native",
            Domain::Enclave => "enclave",
        };
        self.metrics = Some(MemMetrics::shared(
            telemetry.registry(),
            &[("domain", domain)],
        ));
    }

    /// The simulator's execution domain.
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The memory geometry in effect.
    #[must_use]
    pub fn geometry(&self) -> MemoryGeometry {
        self.geometry
    }

    /// The cost model in effect.
    #[must_use]
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Allocates `bytes` of simulated memory, page-aligned.
    #[must_use]
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let page = self.geometry.page_bytes as u64;
        let base = self.next_addr;
        let span = bytes.div_ceil(page).max(1) * page;
        self.next_addr += span;
        self.stats.bytes_allocated += bytes;
        Region { base, len: bytes }
    }

    /// Releases a region: its pages leave the EPC without writeback charge
    /// (EREMOVE is cheap relative to EWB) and its lines age out naturally.
    pub fn free(&mut self, region: Region) {
        if let Some(epc) = &mut self.epc {
            let last = (region.base + region.len.max(1) - 1) >> self.page_shift;
            for p in region.base >> self.page_shift..=last {
                epc.remove(p);
            }
        }
    }

    /// Reports `len` bytes of access starting at `addr`, charging memory
    /// costs per cache line touched.
    pub fn touch(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first_line = addr >> self.line_shift;
        let last_line = (addr + len as u64 - 1) >> self.line_shift;
        let page_of_line = self.page_shift - self.line_shift;
        // Tallied in locals and charged once per call: the per-line loop is
        // the simulator's whole host cost.
        let (mut hits, mut decrypts, mut faults, mut evictions) = (0u64, 0u64, 0u64, 0u64);
        for l in first_line..=last_line {
            if self.llc.touch(l).hit {
                hits += 1;
            } else if let Some(epc) = &mut self.epc {
                let t = epc.touch(l >> page_of_line);
                if t.hit {
                    // DRAM access through the MEE: decrypt + integrity
                    // check on the missed line.
                    decrypts += 1;
                } else {
                    faults += 1;
                    evictions += u64::from(t.evicted.is_some());
                }
            }
        }
        let lines = last_line - first_line + 1;
        let misses = lines - hits;
        let dram = if self.epc.is_none() { misses } else { 0 };
        let costs = &self.costs;
        self.cycles += hits * costs.cache_hit_cycles
            + dram * costs.dram_cycles
            + decrypts * costs.epc_miss_cycles
            + faults * costs.epc_fault_cycles;
        self.stats.line_accesses += lines;
        self.stats.cache_hits += hits;
        self.stats.llc_misses += misses;
        self.stats.epc_faults += faults;
        self.stats.epc_evictions += evictions;
        if let Some(m) = &self.metrics {
            for (counter, n) in [
                (&m.line_accesses, lines),
                (&m.cache_hits, hits),
                (&m.llc_misses, misses),
                (&m.mee_decrypts, decrypts),
                (&m.epc_faults, faults),
                (&m.epc_evictions, evictions),
            ] {
                if n != 0 {
                    counter.add(n);
                }
            }
        }
    }

    /// Touches a byte range within `region`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn touch_region(&mut self, region: Region, offset: u64, len: usize) {
        assert!(
            offset + len as u64 <= region.len,
            "touch of {offset}+{len} exceeds region of {} bytes",
            region.len
        );
        self.touch(region.base + offset, len);
    }

    /// Charges `n` application operations at `compute_op_cycles` each.
    pub fn charge_ops(&mut self, n: u64) {
        self.stats.compute_ops += n;
        self.cycles += n * self.costs.compute_op_cycles;
    }

    /// Charges a raw cycle count (used for transitions, crypto, syscalls).
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// Cycles for one host block-device transfer of `bytes`.
    fn host_io_cycles(&self, bytes: u64) -> u64 {
        self.costs.host_io_setup_cycles + bytes.div_ceil(1024) * self.costs.host_io_per_kib_cycles
    }

    /// Charges one read of `bytes` from host block storage (an OCALL plus
    /// the transfer). The data itself is untrusted: callers must verify it
    /// before use.
    pub fn charge_host_read(&mut self, bytes: u64) {
        self.stats.host_reads += 1;
        self.stats.host_read_bytes += bytes;
        self.cycles += self.host_io_cycles(bytes);
        if let Some(m) = &self.metrics {
            m.host_io_reads.inc();
            m.host_io_read_bytes.add(bytes);
        }
    }

    /// Charges one write of `bytes` to host block storage.
    pub fn charge_host_write(&mut self, bytes: u64) {
        self.stats.host_writes += 1;
        self.stats.host_write_bytes += bytes;
        self.cycles += self.host_io_cycles(bytes);
        if let Some(m) = &self.metrics {
            m.host_io_writes.inc();
            m.host_io_write_bytes.add(bytes);
        }
    }

    /// Total simulated cycles so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total simulated time so far.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.costs.cycles_to_duration(self.cycles)
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets the clock and counters, keeping residency state (useful to
    /// measure steady-state behaviour after a warm-up pass).
    pub fn reset_metrics(&mut self) {
        self.cycles = 0;
        self.stats = MemStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_geometry() -> MemoryGeometry {
        MemoryGeometry {
            line_bytes: 64,
            llc_bytes: 64 * 4, // 4 lines
            page_bytes: 4096,
            epc_total_bytes: 4096 * 3,
            epc_reserved_bytes: 4096, // 2 usable pages
        }
    }

    fn unit_costs() -> CostModel {
        CostModel {
            cpu_ghz: 1.0,
            ecall_cycles: 0,
            ocall_cycles: 0,
            cache_hit_cycles: 1,
            dram_cycles: 10,
            epc_miss_cycles: 25,
            epc_fault_cycles: 1000,
            compute_op_cycles: 3,
            host_io_setup_cycles: 100,
            host_io_per_kib_cycles: 7,
            ring_slot_cycles: 2,
        }
    }

    #[test]
    fn native_hits_and_misses() {
        let mut sim = MemorySim::native(tiny_geometry(), unit_costs());
        let region = sim.alloc(1024);
        sim.touch_region(region, 0, 64); // cold: miss -> 10
        assert_eq!(sim.cycles(), 10);
        sim.touch_region(region, 0, 64); // hot: hit -> 1
        assert_eq!(sim.cycles(), 11);
        assert_eq!(sim.stats().llc_misses, 1);
        assert_eq!(sim.stats().cache_hits, 1);
        assert_eq!(sim.stats().epc_faults, 0);
    }

    #[test]
    fn enclave_faults_then_hits() {
        let mut sim = MemorySim::enclave(tiny_geometry(), unit_costs());
        let region = sim.alloc(8192);
        sim.touch_region(region, 0, 1); // cold page: fault -> 1000
        assert_eq!(sim.stats().epc_faults, 1);
        assert_eq!(sim.cycles(), 1000);
        sim.touch_region(region, 64, 1); // same page, new line: epc miss -> 25
        assert_eq!(sim.cycles(), 1025);
        sim.touch_region(region, 64, 1); // same line: cache hit -> 1
        assert_eq!(sim.cycles(), 1026);
    }

    #[test]
    fn epc_thrashing_when_working_set_exceeds_capacity() {
        // 2 usable EPC pages; cycle over 3 pages, always at fresh lines so
        // the (4-line) LLC never hits, forcing the page LRU to decide.
        let geometry = tiny_geometry();
        let mut sim = MemorySim::enclave(geometry, unit_costs());
        let region = sim.alloc(3 * 4096);
        let mut line_offset = 0u64;
        for round in 0..10 {
            for p in 0..3u64 {
                sim.touch_region(region, p * 4096 + line_offset, 1);
            }
            line_offset += 64;
            let _ = round;
        }
        // Every access faults: 3 pages in LRU of 2 with round-robin access.
        assert_eq!(sim.stats().epc_faults, 30);
        assert!(sim.stats().epc_evictions >= 27);
    }

    #[test]
    fn working_set_within_epc_stops_faulting() {
        let geometry = tiny_geometry();
        let mut sim = MemorySim::enclave(geometry, unit_costs());
        let region = sim.alloc(2 * 4096);
        for round in 0..5 {
            for p in 0..2u64 {
                sim.touch_region(region, p * 4096 + round * 64, 1);
            }
        }
        // Only the two cold faults; afterwards pages stay resident.
        assert_eq!(sim.stats().epc_faults, 2);
        assert_eq!(sim.stats().epc_evictions, 0);
    }

    #[test]
    fn multi_line_touch_counts_each_line() {
        let mut sim = MemorySim::native(tiny_geometry(), unit_costs());
        let region = sim.alloc(4096);
        sim.touch_region(region, 0, 256); // 4 lines
        assert_eq!(sim.stats().line_accesses, 4);
        // Unaligned touch spanning a boundary: 2 lines.
        sim.touch_region(region, 60, 8);
        assert_eq!(sim.stats().line_accesses, 6);
    }

    #[test]
    fn free_clears_epc_residency() {
        let mut sim = MemorySim::enclave(tiny_geometry(), unit_costs());
        let region = sim.alloc(4096);
        sim.touch_region(region, 0, 1);
        assert_eq!(sim.stats().epc_faults, 1);
        sim.free(region);
        sim.llc.clear(); // isolate the page-level effect
        sim.touch_region(region, 0, 1);
        assert_eq!(sim.stats().epc_faults, 2, "page must fault again");
    }

    #[test]
    fn charge_ops_and_elapsed() {
        let mut sim = MemorySim::native(tiny_geometry(), unit_costs());
        sim.charge_ops(100);
        assert_eq!(sim.cycles(), 300);
        assert_eq!(sim.elapsed(), Duration::from_nanos(300));
        sim.reset_metrics();
        assert_eq!(sim.cycles(), 0);
        assert_eq!(sim.stats(), MemStats::default());
    }

    #[test]
    fn host_io_charges_setup_plus_per_kib() {
        let mut sim = MemorySim::enclave(tiny_geometry(), unit_costs());
        sim.charge_host_write(4096); // 100 setup + 4 KiB * 7
        assert_eq!(sim.cycles(), 128);
        sim.charge_host_read(1); // partial KiB rounds up
        assert_eq!(sim.cycles(), 235);
        let stats = sim.stats();
        assert_eq!(stats.host_writes, 1);
        assert_eq!(stats.host_reads, 1);
        assert_eq!(stats.host_write_bytes, 4096);
        assert_eq!(stats.host_read_bytes, 1);
        // Host IO is not a memory-hierarchy event.
        assert_eq!(stats.line_accesses, 0);
        assert_eq!(stats.epc_faults, 0);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut sim = MemorySim::native(tiny_geometry(), unit_costs());
        let a = sim.alloc(100);
        let b = sim.alloc(5000);
        let c = sim.alloc(1);
        assert!(a.base() + a.len() <= b.base());
        assert!(b.base() + b.len() <= c.base());
        assert_eq!(sim.stats().bytes_allocated, 5101);
    }

    /// A geometry whose shifts differ from SGX1's: 32 B lines, a 48-line LLC
    /// (not a power of two), 1 KiB pages, 11 usable EPC pages.
    fn odd_geometry() -> MemoryGeometry {
        MemoryGeometry {
            line_bytes: 32,
            llc_bytes: 32 * 48,
            page_bytes: 1024,
            epc_total_bytes: 1024 * 14,
            epc_reserved_bytes: 1024 * 3,
        }
    }

    /// Replays one fixed pseudorandom trace: 1-line, multi-line and
    /// page-crossing touches over a changing set of regions, `alloc`/`free`,
    /// contiguous sweeps larger than the LLC and page-stride sweeps larger
    /// than the EPC.
    fn replay_fixed_trace(sim: &mut MemorySim) {
        let geometry = sim.geometry();
        let (line, page) = (geometry.line_bytes as u64, geometry.page_bytes as u64);
        let llc = geometry.llc_bytes as u64;
        let epc = geometry.epc_usable_bytes() as u64;
        let big = sim.alloc((3 * llc).max(epc + epc / 16));
        let mut regions = vec![sim.alloc(5 * page + 17), sim.alloc(40 * page)];
        let mut state = 0x5EC0_C10D_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..6_000u64 {
            if step % 2_500 == 700 {
                sim.touch_region(big, line / 2, (llc + llc / 2) as usize);
            }
            if step % 2_500 == 1_900 {
                for p in 0..big.len() / page {
                    sim.touch_region(big, p * page + (step % page), 1);
                }
            }
            let pick = next() as usize % regions.len();
            let region = regions[pick];
            match next() % 16 {
                0 => regions.push(sim.alloc(1 + next() % (8 * page))),
                1 if regions.len() > 2 => sim.free(regions.swap_remove(pick)),
                2..=4 if region.len() > page => {
                    // Straddles a page boundary.
                    let boundary = page * (1 + next() % (region.len() / page));
                    let before = 1 + next() % (2 * line);
                    let after = (1 + next() % (2 * line)).min(region.len() - boundary);
                    sim.touch_region(region, boundary - before, (before + after) as usize);
                }
                5..=8 => {
                    let offset = next() % region.len();
                    let len = (1 + next() % (24 * line)).min(region.len() - offset);
                    sim.touch_region(region, offset, len as usize);
                }
                _ => {
                    let offset = next() % region.len();
                    let len = (1 + next() % 8).min(region.len() - offset);
                    sim.touch_region(region, offset, len as usize);
                }
            }
        }
    }

    /// Zero-drift pin: cycles and counters of [`replay_fixed_trace`], captured
    /// at the commit before the open-addressed `LruSet` and the one-pass
    /// `touch`. A change to any literal is a change to the cost model.
    #[test]
    fn fixed_trace_charges_are_pinned() {
        let pin =
            |line_accesses, cache_hits, epc_faults, epc_evictions, bytes_allocated| MemStats {
                line_accesses,
                cache_hits,
                llc_misses: line_accesses - cache_hits,
                epc_faults,
                epc_evictions,
                bytes_allocated,
                ..MemStats::default()
            };
        let (v1, odd) = (MemoryGeometry::sgx_v1(), odd_geometry());
        for (domain, geometry, cycles, stats) in [
            (
                Domain::Native,
                v1,
                130_208_376,
                pin(664_743, 14_272, 0, 0, 110_350_861),
            ),
            (
                Domain::Enclave,
                v1,
                1_359_161_676,
                pin(664_743, 14_272, 53_016, 27_841, 110_350_861),
            ),
            (
                Domain::Native,
                odd,
                4_053_088,
                pin(23_180, 3_036, 0, 0, 1_479_258),
            ),
            (
                Domain::Enclave,
                odd,
                62_180_788,
                pin(23_180, 3_036, 2_671, 1_931, 1_479_258),
            ),
        ] {
            let mut sim = MemorySim::new(domain, geometry, CostModel::sgx_v1());
            replay_fixed_trace(&mut sim);
            assert_eq!(sim.cycles(), cycles, "{domain:?} {geometry:?}");
            assert_eq!(sim.stats(), stats, "{domain:?} {geometry:?}");
        }
    }

    /// Batching the mirror counters per `touch` call must not change totals.
    #[test]
    fn mirror_counters_equal_stats_after_the_fixed_trace() {
        for (domain, label) in [(Domain::Native, "native"), (Domain::Enclave, "enclave")] {
            let telemetry = Telemetry::new();
            let mut sim = MemorySim::new(domain, odd_geometry(), CostModel::sgx_v1());
            sim.set_telemetry(&telemetry);
            replay_fixed_trace(&mut sim);
            let stats = sim.stats();
            let decrypts = match domain {
                Domain::Native => 0,
                Domain::Enclave => stats.llc_misses - stats.epc_faults,
            };
            for (series, expect) in [
                ("line_accesses", stats.line_accesses),
                ("cache_hits", stats.cache_hits),
                ("llc_misses", stats.llc_misses),
                ("mee_decrypts", decrypts),
                ("epc_faults", stats.epc_faults),
                ("epc_evictions", stats.epc_evictions),
            ] {
                let name = format!("securecloud_sgx_{series}_total");
                let counter = telemetry.registry().counter(&name, &[("domain", label)]);
                assert_eq!(counter.value(), expect, "{name}{{domain={label}}}");
            }
        }
    }

    #[test]
    fn geometry_that_touch_and_free_would_disagree_on_is_refused() {
        for (line_bytes, page_bytes) in [(64, 4095), (48, 4096), (0, 4096), (8192, 4096)] {
            let geometry = MemoryGeometry {
                line_bytes,
                page_bytes,
                ..tiny_geometry()
            };
            let refused = std::panic::catch_unwind(|| MemorySim::enclave(geometry, unit_costs()))
                .expect_err("geometry must be refused");
            let message = refused.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.contains("power-of-two line_bytes <= page_bytes"),
                "{line_bytes}/{page_bytes}: {message}"
            );
        }
    }

    #[test]
    fn free_releases_the_pages_touch_faulted_in() {
        // 1 KiB pages of 32 B lines: shifts other than SGX1's 12 and 6.
        let mut sim = MemorySim::enclave(odd_geometry(), unit_costs());
        let region = sim.alloc(5 * 1024 + 1);
        sim.touch_region(region, 0, region.len() as usize);
        assert_eq!(sim.stats().epc_faults, 6);
        sim.free(region);
        assert!(sim.epc.as_ref().is_some_and(LruSet::is_empty));
        sim.llc.clear();
        sim.touch_region(region, 0, region.len() as usize);
        assert_eq!(sim.stats().epc_faults, 12, "every page faults again");
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn touch_out_of_bounds_panics() {
        let mut sim = MemorySim::native(tiny_geometry(), unit_costs());
        let region = sim.alloc(64);
        sim.touch_region(region, 0, 65);
    }
}
