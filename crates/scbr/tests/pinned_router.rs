//! Pins what the sealed router charges and delivers on one seeded database
//! that pages: a `WorkloadSpec::fig3()` database of 3 MiB (seed 31) against
//! 1.5 MiB of usable EPC, spread over four subscribers. Publications go
//! through `publish_sealed_batch` at batches of 1, 8 and 16, then 32 more
//! one at a time (batches of one), on both call planes.
//!
//! The pinned values are the router enclave's cycles and memory counters,
//! the engine counters, the frames each subscriber receives, and an FNV-1a
//! over every publication the subscribers open, re-encoded.

use securecloud_crypto::wire::Wire;
use securecloud_scbr::engine::EngineStats;
use securecloud_scbr::secure::{RouterClient, SecureRouter};
use securecloud_scbr::types::Publication;
use securecloud_scbr::workload::WorkloadSpec;
use securecloud_sgx::costs::MemoryGeometry;
use securecloud_sgx::enclave::{EnclaveConfig, Platform};
use securecloud_sgx::mem::MemStats;
use securecloud_telemetry::{fnv1a, FNV_OFFSET};

const SUBSCRIBERS: usize = 4;
const DB_BYTES: u64 = 3 << 20;
/// (batch size, publications routed in batches of that size), in order:
/// the last 32 publications go one at a time after the batches.
const RUNS: [(usize, usize); 4] = [(1, 96), (8, 96), (16, 96), (1, 32)];

#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    engine: EngineStats,
    mem: MemStats,
    frames: [u64; SUBSCRIBERS],
    digest: u64,
}

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    /// One opened frame: who opened it, then its publications re-encoded.
    fn eat_frame(
        &mut self,
        subscriber: usize,
        publications: impl IntoIterator<Item = Publication>,
    ) {
        self.eat(&(subscriber as u64).to_le_bytes());
        for publication in publications {
            self.eat(&publication.to_wire());
        }
    }
}

fn run(switchless: bool) -> Outcome {
    let geometry = MemoryGeometry {
        llc_bytes: 512 << 10,
        epc_total_bytes: 2 << 20,
        epc_reserved_bytes: 512 << 10,
        ..MemoryGeometry::sgx_v1()
    };
    let enclave = Platform::new()
        .launch(EnclaveConfig {
            geometry,
            ..EnclaveConfig::new("scbr-router", b"scbr router code")
        })
        .unwrap();
    let mut router = SecureRouter::new(enclave, Some("topic"));
    router.set_switchless(switchless);
    let mut register = || {
        let mut client = RouterClient::new();
        let id = router.register(&client.public_key());
        client.complete_exchange(&router.public_key());
        (id, client)
    };
    let (publisher_id, mut publisher) = register();
    let mut subscribers: Vec<_> = (0..SUBSCRIBERS).map(|_| register()).collect();

    let spec = WorkloadSpec {
        seed: 31,
        ..WorkloadSpec::fig3()
    };
    for (i, subscription) in spec.subscriptions_for_db_size(DB_BYTES).iter().enumerate() {
        let (id, client) = &mut subscribers[i % SUBSCRIBERS];
        let sealed = client.seal_subscription(subscription).unwrap();
        router.subscribe_sealed(*id, &sealed).unwrap();
    }

    let publications = spec.publications(RUNS.iter().map(|&(_, n)| n).sum());
    let mut rest = publications.as_slice();
    let mut frames = [0u64; SUBSCRIBERS];
    let mut digest = Fnv(FNV_OFFSET);
    for (size, count) in RUNS {
        let (run, tail) = rest.split_at(count);
        rest = tail;
        for batch in run.chunks(size) {
            let sealed = publisher.seal_publication_batch(batch).unwrap();
            for (owner, frame) in router.publish_sealed_batch(publisher_id, &sealed).unwrap() {
                let at = subscribers.iter().position(|(id, _)| *id == owner).unwrap();
                frames[at] += 1;
                let opened = subscribers[at].1.open_notification_batch(&frame).unwrap();
                digest.eat_frame(at, opened);
            }
        }
    }

    let memory = router.enclave().memory_view();
    assert!(memory.stats().epc_faults > 0, "the database must page");
    Outcome {
        cycles: memory.cycles(),
        engine: router.stats(),
        mem: memory.stats(),
        frames,
        digest: digest.0,
    }
}

/// The call plane changes the transition charges and nothing else.
#[test]
fn router_charges_and_deliveries_are_pinned_on_both_call_planes() {
    for (switchless, cycles) in [(false, 47_759_684), (true, 46_626_724)] {
        let want = Outcome {
            cycles,
            engine: EngineStats {
                publications: 320,
                matches: 12_089,
                nodes_visited: 25_978,
                predicates_evaluated: 69_160,
            },
            mem: MemStats {
                line_accesses: 92_090,
                cache_hits: 45_001,
                llc_misses: 47_089,
                epc_faults: 584,
                epc_evictions: 200,
                compute_ops: 140_101,
                bytes_allocated: 2_919_120,
                ..MemStats::default()
            },
            frames: [146, 146, 146, 146],
            digest: 0xe0a8_925a_f49f_7ce7,
        };
        assert_eq!(run(switchless), want, "switchless: {switchless}");
    }
}
