//! Secure content-based routing (SCBR, §V-B): encrypted pub/sub through an
//! enclave-hosted router, plus a glimpse of the Figure 3 effect.
//!
//! Run with: `cargo run --release --example secure_pubsub`

use securecloud::scbr::engine::MatchEngine;
use securecloud::scbr::index::PosetIndex;
use securecloud::scbr::secure::{RouterClient, SecureRouter};
use securecloud::scbr::types::{Op, Predicate, Publication, Subscription, Value};
use securecloud::scbr::workload::WorkloadSpec;
use securecloud::sgx::costs::{CostModel, MemoryGeometry};
use securecloud::sgx::enclave::{EnclaveConfig, Platform};
use securecloud::sgx::mem::MemorySim;

fn main() {
    println!("== SCBR: secure content-based routing ==\n");

    // ---- Encrypted pub/sub through the router enclave.
    let platform = Platform::new();
    let enclave = platform
        .launch(EnclaveConfig::new("scbr-router", b"router code"))
        .expect("launch");
    let mut router = SecureRouter::new(enclave, Some("topic"));

    let mut subscriber = RouterClient::new();
    let mut publisher = RouterClient::new();
    let sub_client = router.register(&subscriber.public_key());
    let pub_client = router.register(&publisher.public_key());
    subscriber.complete_exchange(&router.public_key());
    publisher.complete_exchange(&router.public_key());

    let subscription = Subscription::new(vec![
        Predicate::new("topic", Op::Eq, Value::Int(7)),
        Predicate::new("load_mw", Op::Ge, Value::Int(100)),
    ]);
    let sealed_sub = subscriber.seal_subscription(&subscription).expect("sealed");
    let sub_id = router
        .subscribe_sealed(sub_client, &sealed_sub)
        .expect("accepted");
    println!("subscriber registered encrypted subscription {sub_id:?}");

    let event = Publication::new()
        .with("topic", Value::Int(7))
        .with("load_mw", Value::Int(250))
        .with("substation", Value::Str("north-3".into()));
    // A single publication is a batch of one.
    let sealed_pub = publisher
        .seal_publication_batch(std::slice::from_ref(&event))
        .expect("sealed");
    let notifications = router
        .publish_sealed_batch(pub_client, &sealed_pub)
        .expect("routed");
    println!("publication notified {} subscriber(s)", notifications.len());
    let received = subscriber
        .open_notification_batch(&notifications[0].1)
        .expect("only the owner can open it");
    for publication in received {
        println!("subscriber decrypted notification: {publication:?}");
    }
    println!();

    // ---- The Figure 3 mechanism, in miniature: the same matching code in
    //      native vs enclave memory, at two database sizes.
    println!("matching cost, native vs enclave (simulated):");
    println!(
        "{:>10} {:>14} {:>14} {:>7}",
        "DB size", "native us/pub", "enclave us/pub", "ratio"
    );
    let spec = WorkloadSpec::fig3();
    for &mb in &[16u64, 160] {
        let subs = spec.subscriptions_for_db_size(mb << 20);
        let pubs = spec.publications(20);
        let mut results = Vec::new();
        for enclave_domain in [false, true] {
            let geometry = MemoryGeometry::sgx_v1();
            let costs = CostModel::sgx_v1();
            let mut mem = if enclave_domain {
                MemorySim::enclave(geometry, costs)
            } else {
                MemorySim::native(geometry, costs)
            };
            let mut engine = MatchEngine::new(PosetIndex::with_partition_attr("topic"));
            for sub in subs.clone() {
                engine.subscribe(&mut mem, sub);
            }
            // Warm up, then measure steady state.
            for publication in &pubs {
                engine.publish(&mut mem, publication);
            }
            mem.reset_metrics();
            for publication in &pubs {
                engine.publish(&mut mem, publication);
            }
            results.push(mem.elapsed().as_nanos() as f64 / pubs.len() as f64 / 1000.0);
        }
        println!(
            "{:>8}MB {:>14.1} {:>14.1} {:>6.1}x",
            mb,
            results[0],
            results[1],
            results[1] / results[0]
        );
    }
    println!("\n(the full sweep is `cargo run -p securecloud-bench --bin repro -- fig3`)");
}
