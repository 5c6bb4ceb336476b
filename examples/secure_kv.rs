//! The secure structured data store (§III-B): an enclave-resident ordered
//! KV store with sealed snapshots and rollback protection.
//!
//! Run with: `cargo run --release --example secure_kv`

use securecloud::kvstore::{CounterService, SecureKv};
use securecloud::sgx::costs::{CostModel, MemoryGeometry};
use securecloud::sgx::mem::MemorySim;

fn main() {
    println!("== Secure KV store ==\n");
    let mut mem = MemorySim::enclave(MemoryGeometry::sgx_v1(), CostModel::sgx_v1());
    let counters = CounterService::new();
    let sealing_key = securecloud::crypto::random_array();

    // A meter-data service stores per-meter state.
    let mut kv = SecureKv::new();
    for meter in 0u32..1_000 {
        let key = format!("meter/{meter:04}/total_kwh");
        kv.try_put(
            &mut mem,
            key.as_bytes(),
            &(f64::from(meter) * 1.5).to_le_bytes(),
        )
        .expect("in-memory store");
    }
    println!(
        "stored {} keys ({} bytes) in enclave memory; {} simulated cycles so far",
        kv.len(),
        kv.data_bytes(),
        mem.cycles()
    );

    // Ordered range scan: all meters in the 0040–0049 block.
    let hits = kv
        .try_scan(&mut mem, b"meter/0040", b"meter/0050")
        .expect("in-memory store");
    println!("range scan meters 0040..0050: {} entries", hits.len());

    // Durability: snapshot to untrusted storage, sealed and versioned.
    let snapshot_v1 = kv.snapshot(&sealing_key, &counters, "meter-db");
    println!(
        "\nsnapshot v{} sealed to untrusted storage ({} bytes of ciphertext)",
        snapshot_v1.version,
        snapshot_v1.sealed.len()
    );

    // More writes, then a second snapshot.
    kv.try_put(&mut mem, b"meter/0001/total_kwh", &999.9f64.to_le_bytes())
        .expect("in-memory store");
    let snapshot_v2 = kv.snapshot(&sealing_key, &counters, "meter-db");
    println!("snapshot v{} supersedes it", snapshot_v2.version);

    // Honest restart: restore the latest snapshot.
    let mut restored = SecureKv::restore(
        &mut mem,
        &sealing_key,
        &snapshot_v2.sealed,
        &counters,
        "meter-db",
    )
    .expect("fresh snapshot restores");
    let updated = restored
        .try_get_ref(&mut mem, b"meter/0001/total_kwh")
        .expect("in-memory store")
        .expect("key present")
        .to_vec();
    println!(
        "restored v{}: meter 0001 = {} kWh",
        restored.version(),
        f64::from_le_bytes(updated.try_into().unwrap())
    );

    // Rollback attack: the untrusted host serves the *old* (validly
    // sealed!) snapshot. The trusted monotonic counter catches it.
    match SecureKv::restore(
        &mut mem,
        &sealing_key,
        &snapshot_v1.sealed,
        &counters,
        "meter-db",
    ) {
        Err(e) => println!("\nhost served a stale snapshot: {e}"),
        Ok(_) => unreachable!("rollback must be detected"),
    }

    // Tampering: one flipped ciphertext byte.
    let mut tampered = snapshot_v2.sealed.clone();
    tampered[40] ^= 1;
    match SecureKv::restore(&mut mem, &sealing_key, &tampered, &counters, "meter-db") {
        Err(e) => println!("host tampered with the snapshot: {e}"),
        Ok(_) => unreachable!("tampering must be detected"),
    }
}
