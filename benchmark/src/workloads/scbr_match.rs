//! `scbr_match` — the paper's Figure 3 regime through the sealed router: a
//! subscription database of about twice the usable EPC, so matching pages.
//! The SCBR index and the SGX paging model do the work; the bus, the KV
//! store and the storage engine make no call.

use std::collections::BTreeMap;

use securecloud_scbr::secure::{ClientId, RouterClient, SecureRouter};
use securecloud_scbr::types::{Publication, Subscription};
use securecloud_scbr::workload::WorkloadSpec;
use securecloud_scbr::ScbrError;
use securecloud_sgx::enclave::{EnclaveConfig, Platform};

use super::{sgx_counts, small_epc, Fnv, Mode, OpTimer, Pass, Sim};
use crate::trace;

/// Subscription database size: 12 MiB against 6 MiB of usable EPC.
const DB_BYTES: u64 = 12 << 20;
const PUBS_PER_OP: usize = 16;
const OPS: usize = 250;
/// Ops replayed before timing starts, so the EPC holds a steady-state
/// working set instead of first-touch faults.
const WARM_OPS: usize = 20;
const SUBSCRIBERS: usize = 4;
/// The oracle brute-forces the first ops of the warm-up pass: 112 pubs.
const ORACLE_OPS: usize = 7;

struct Router {
    router: SecureRouter,
    publisher: RouterClient,
    publisher_id: ClientId,
    subscribers: Vec<(ClientId, RouterClient)>,
    frames: u64,
}

impl Router {
    fn new(subscriptions: &[Subscription]) -> Result<Self, ScbrError> {
        let enclave = Platform::new()
            .launch(EnclaveConfig {
                geometry: small_epc(8 << 20, 2 << 20),
                ..EnclaveConfig::new("scbr-router", b"scbr router code")
            })
            .map_err(ScbrError::Enclave)?;
        let mut router = SecureRouter::new(enclave, Some("topic"));
        router.set_switchless(true);
        let register = |router: &mut SecureRouter| {
            let mut client = RouterClient::new();
            let id = router.register(&client.public_key());
            client.complete_exchange(&router.public_key());
            (id, client)
        };
        let (publisher_id, publisher) = register(&mut router);
        let mut subscribers: Vec<_> = (0..SUBSCRIBERS).map(|_| register(&mut router)).collect();
        let _span = trace::span("scbr.subscribe");
        for (i, subscription) in subscriptions.iter().enumerate() {
            let (id, client) = &mut subscribers[i % SUBSCRIBERS];
            let sealed = client.seal_subscription(subscription)?;
            router.subscribe_sealed(*id, &sealed)?;
        }
        Ok(Router {
            router,
            publisher,
            publisher_id,
            subscribers,
            frames: 0,
        })
    }

    /// The timed op: seal a batch, route it through the enclave, open every
    /// notification frame. Returns the publications delivered.
    fn publish(&mut self, batch: &[Publication], digest: &mut Fnv) -> Result<u64, ScbrError> {
        let sealed = {
            let _span = trace::span("scbr.seal");
            self.publisher.seal_publication_batch(batch)?
        };
        let frames = {
            let _span = trace::span("scbr.route");
            self.router
                .publish_sealed_batch(self.publisher_id, &sealed)?
        };
        let mut delivered = 0;
        self.frames += frames.len() as u64;
        for (owner, frame) in frames {
            let _span = trace::span("scbr.open");
            let (_, client) = self
                .subscribers
                .iter_mut()
                .find(|(id, _)| *id == owner)
                .ok_or(ScbrError::UnknownClient(owner))?;
            let opened = client.open_notification_batch(&frame)?;
            digest.eat_u64(owner.0);
            digest.eat_u64(opened.len() as u64);
            delivered += opened.len() as u64;
        }
        Ok(delivered)
    }
}

pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut timer = OpTimer::begin();
    let mut digest = Fnv::default();
    let (mut router, subscriptions, publications) = {
        let _span = trace::span("harness.setup");
        // The database is the paper's: `WorkloadSpec::fig3()` as it stands.
        // The seed draws the publication stream routed against it.
        let subscriptions = WorkloadSpec::fig3().subscriptions_for_db_size(DB_BYTES);
        let publications = WorkloadSpec {
            seed,
            ..WorkloadSpec::fig3()
        }
        .publications((WARM_OPS + OPS) * PUBS_PER_OP);
        let mut router = Router::new(&subscriptions).expect("router set-up");
        for batch in publications[..WARM_OPS * PUBS_PER_OP].chunks(PUBS_PER_OP) {
            router
                .publish(batch, &mut Fnv::default())
                .expect("warm-up replay");
        }
        (router, subscriptions, publications)
    };
    let enclave_cycles = |r: &Router| r.router.enclave().memory_view().cycles();
    let engine_before = router.router.stats();
    let frames_before = router.frames;
    timer.setup_done(enclave_cycles(&router));

    let mut delivered_per_op = Vec::with_capacity(OPS);
    for batch in publications[WARM_OPS * PUBS_PER_OP..].chunks(PUBS_PER_OP) {
        timer.op(batch.len() as u64, || {
            router.publish(batch, &mut digest).map(|n| {
                delivered_per_op.push(n);
            })
        });
    }

    let units = (OPS * PUBS_PER_OP) as u64;
    if mode == Mode::WarmUp {
        let timed = &publications[WARM_OPS * PUBS_PER_OP..];
        let mut sample = 0;
        for (op, batch) in timed.chunks(PUBS_PER_OP).take(ORACLE_OPS).enumerate() {
            let want: u64 = batch
                .iter()
                .map(|p| subscriptions.iter().filter(|s| s.matches(p)).count() as u64)
                .sum();
            sample += want;
            if delivered_per_op.get(op) != Some(&want) {
                timer.fail(format!(
                    "op {op} delivered {:?} publications, brute-force matching gives {want}",
                    delivered_per_op.get(op)
                ));
            }
        }
        timer.note(format!(
            "oracle: {sample} deliveries for the first {} publications equal brute-force Subscription::matches over {} subscriptions",
            ORACLE_OPS * PUBS_PER_OP,
            subscriptions.len()
        ));
    }

    let engine = router.router.stats();
    let mem = router.router.enclave().memory_view().stats();
    let pubs = (engine.publications - engine_before.publications).max(1) as f64;
    let mut counts = BTreeMap::new();
    counts.insert(
        "scbr.nodes_visited_per_pub",
        (engine.nodes_visited - engine_before.nodes_visited) as f64 / pubs,
    );
    counts.insert(
        "scbr.predicates_per_pub",
        (engine.predicates_evaluated - engine_before.predicates_evaluated) as f64 / pubs,
    );
    counts.insert(
        "scbr.matches_per_pub",
        (engine.matches - engine_before.matches) as f64 / pubs,
    );
    counts.insert(
        "scbr.frames_per_op",
        (router.frames - frames_before) as f64 / OPS as f64,
    );
    counts.insert(
        "scbr.router_cycles_per_op",
        enclave_cycles(&router) as f64 / units as f64,
    );
    sgx_counts(&mut counts, &[mem], units);

    let sim = Sim {
        cycles: enclave_cycles(&router),
        epc_faults: mem.epc_faults,
        host_bytes: mem.host_read_bytes + mem.host_write_bytes,
    };
    timer.finish(digest.0, sim, counts)
}
