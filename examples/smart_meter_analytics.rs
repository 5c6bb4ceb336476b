//! Smart-meter analytics: the paper's first use case (§VI).
//!
//! Generates a day of sub-minute meter data for a feeder, runs power-theft
//! detection and billing over the secure map/reduce jobs that check the
//! city's streaming operators (`smartgrid::batch`), and
//! demonstrates the appliance-inference privacy attack that motivates
//! processing this data inside enclaves.
//!
//! Run with: `cargo run --example smart_meter_analytics`

use securecloud::mapreduce::MapReduceRunner;
use securecloud::sgx::enclave::Platform;
use securecloud::smartgrid::billing::{compute_bills, Tariff};
use securecloud::smartgrid::meters::GridSpec;
use securecloud::smartgrid::privacy::{attack_sealed_payload, infer_kettle_events, score_attack};
use securecloud::smartgrid::theft::detect_theft;

fn main() {
    println!("== Smart-meter analytics on SecureCloud ==\n");
    let spec = GridSpec {
        households: 120,
        interval_secs: 30,
        duration_secs: 24 * 3600,
        theft_fraction: 0.06,
        theft_scale: 0.4,
        seed: 2024,
    };
    println!(
        "feeder: {} households, {}s sampling, 24h trace ({} samples each)",
        spec.households,
        spec.interval_secs,
        spec.samples()
    );
    let traces = spec.generate();
    let feeder = GridSpec::feeder_totals(&traces);
    let true_thieves: Vec<u64> = traces
        .iter()
        .filter(|t| t.is_theft)
        .map(|t| t.meter)
        .collect();
    println!("injected thieves (ground truth): {true_thieves:?}\n");

    // ---- Theft detection over the per-feeder loss and per-meter usage jobs.
    let runner = MapReduceRunner::new(Platform::new());
    let report = detect_theft(&runner, &traces, &feeder).expect("pipeline runs");
    println!(
        "feeder energy {:.1} kW-samples, reported {:.1}, loss fraction {:.1}%",
        report.total_feeder / 1000.0,
        report.total_reported / 1000.0,
        report.loss_fraction * 100.0
    );
    println!("top suspicions (meter: score):");
    for suspicion in report.ranked.iter().take(10) {
        let marker = if true_thieves.contains(&suspicion.meter) {
            "  <-- actual thief"
        } else {
            ""
        };
        println!(
            "  meter {:>3}: {:.3}{marker}",
            suspicion.meter, suspicion.score
        );
    }
    let top: Vec<u64> = report
        .ranked
        .iter()
        .take(true_thieves.len() * 2)
        .map(|s| s.meter)
        .collect();
    let caught = true_thieves.iter().filter(|t| top.contains(t)).count();
    println!(
        "detection: {caught}/{} thieves in the top-{} suspicions\n",
        true_thieves.len(),
        top.len()
    );

    // ---- Time-of-use billing, priced from the per-meter usage job.
    let bills = compute_bills(&runner, &traces, spec.interval_secs, Tariff::default())
        .expect("billing job runs");
    let revenue: f64 = bills.values().map(|b| b.total_cents).sum();
    let stolen_revenue: f64 = bills
        .values()
        .filter(|b| true_thieves.contains(&b.meter))
        .map(|b| b.total_cents)
        .sum();
    println!(
        "billing: {} households, {:.2} EUR billed (thieves pay only {:.2} EUR of it)\n",
        bills.len(),
        revenue / 100.0,
        stolen_revenue / 100.0
    );

    // ---- The privacy attack that makes encryption non-optional.
    let victim = traces
        .iter()
        .filter(|t| t.kettle_events.len() >= 3)
        .max_by_key(|t| t.kettle_events.len())
        .expect("a kettle-heavy household");
    let inferred = infer_kettle_events(&victim.actual);
    let plain_score = score_attack(&inferred, &victim.kettle_events, 2);
    println!(
        "privacy attack on PLAINTEXT readings of meter {}: {} kettle uses inferred, \
         precision {:.0}%, recall {:.0}%",
        victim.meter,
        plain_score.inferred,
        plain_score.precision * 100.0,
        plain_score.recall * 100.0
    );
    let key = securecloud::crypto::random_array();
    let sealed_inferred = attack_sealed_payload(&key, &victim.actual);
    let sealed_score = score_attack(&sealed_inferred, &victim.kettle_events, 2);
    println!(
        "privacy attack on SEALED readings: {} spurious events, precision {:.0}% — \
         the ciphertext carries no appliance signal",
        sealed_score.inferred,
        sealed_score.precision * 100.0
    );
}
