//! E11: batched messaging on the SCBR sealed path.
//!
//! Measures what batching buys on the secure router: a batch of N
//! publications arrives as **one** AEAD frame, is opened and matched
//! inside **one** ECALL/OCALL pair, and fans out one sealed notification
//! frame per subscriber — versus N batches of one, each paying its own
//! enclave transition, its own nonce schedule, and its own GHASH setup.
//!
//! Durations are simulated cycles from [`CostModel::sgx_v1`], so every
//! point is deterministic and hardware-independent; the per-batch publish
//! latency feeds an ordinary telemetry histogram, and the reported p99 is
//! that histogram's 99th-percentile bucket bound.

use securecloud_scbr::secure::{RouterClient, SecureRouter};
use securecloud_scbr::types::{Op, Predicate, Publication, Subscription, Value};
use securecloud_sgx::costs::CostModel;
use securecloud_sgx::enclave::{EnclaveConfig, Platform, METRIC_ECALLS};
use securecloud_telemetry::{Histogram, Telemetry};

use crate::pool;
use crate::report::Cell::{Absent, Fixed, Unit};
use crate::report::{Column, Ctx, Report};

/// Sizing knobs for the messaging sweep.
#[derive(Debug, Clone)]
pub struct MessagingConfig {
    /// Publications per sealed frame; must include 1 (the single-message
    /// baseline every other batch size is compared against).
    pub batch_sizes: Vec<usize>,
    /// Approximate attribute-payload size per publication, bytes.
    pub payload_bytes: Vec<usize>,
    /// Publications per sweep point.
    pub messages: usize,
}

impl MessagingConfig {
    /// Full-size run.
    #[must_use]
    pub fn full() -> Self {
        MessagingConfig {
            batch_sizes: vec![1, 8, 64],
            payload_bytes: vec![64, 512, 4096],
            messages: 1024,
        }
    }

    /// CI-sized run: same batch shape (the 64-vs-1 speedup must still be
    /// visible), fewer messages and payload sizes.
    #[must_use]
    pub fn smoke() -> Self {
        MessagingConfig {
            batch_sizes: vec![1, 8, 64],
            payload_bytes: vec![64, 512],
            messages: 128,
        }
    }
}

/// One (batch size, payload size) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MessagingPoint {
    /// Call plane the router matched on: `"sync"` (every frame pays an
    /// ECALL/OCALL pair) or `"switchless"` (ring-slot pairs, no
    /// transitions).
    pub plane: &'static str,
    /// Publications per sealed frame (1 = the single-publication baseline).
    pub batch: usize,
    /// Approximate attribute-payload size per publication, bytes.
    pub payload_bytes: usize,
    /// Publications pushed through the router.
    pub messages: usize,
    /// Publications delivered to the subscriber (must equal `messages`).
    pub delivered: u64,
    /// Simulated router throughput, messages per second.
    pub msgs_per_s: f64,
    /// 99th-percentile per-frame publish latency (histogram bucket upper
    /// bound), simulated microseconds.
    pub p99_us: u64,
    /// Enclave transitions per publication, measured from the enclave's
    /// own ECALL counter (~0 on the switchless plane).
    pub transitions_per_msg: f64,
}

/// A deterministic, incompressible-ish attribute blob of roughly `bytes`.
fn blob(bytes: usize) -> String {
    (0..bytes)
        .map(|i| char::from(b'a' + (i.wrapping_mul(31) % 26) as u8))
        .collect()
}

fn run_point(
    batch: usize,
    payload_bytes: usize,
    messages: usize,
    switchless: bool,
    telemetry: Option<&Telemetry>,
) -> MessagingPoint {
    assert!(batch >= 1, "batch size must be at least 1");
    let costs = CostModel::sgx_v1();
    let platform = Platform::new();
    let enclave = platform
        .launch(EnclaveConfig::new("scbr-bench", b"router code"))
        .expect("fresh platform launches");
    let mut router = SecureRouter::new(enclave, Some("topic"));
    router.set_switchless(switchless);
    // A private registry counts this point's enclave transitions; it never
    // leaks into the shared telemetry, so the exported snapshot stays
    // byte-identical to the pre-measurement stream.
    let transition_counters = Telemetry::new();
    router.enclave_mut().set_telemetry(&transition_counters);
    let mut subscriber = RouterClient::new();
    let mut publisher = RouterClient::new();
    let sub_client = router.register(&subscriber.public_key());
    let pub_client = router.register(&publisher.public_key());
    subscriber.complete_exchange(&router.public_key());
    publisher.complete_exchange(&router.public_key());
    let sealed = subscriber
        .seal_subscription(&Subscription::new(vec![Predicate::new(
            "topic",
            Op::Eq,
            Value::Int(1),
        )]))
        .expect("exchange completed");
    router
        .subscribe_sealed(sub_client, &sealed)
        .expect("fresh sequence");

    let body = blob(payload_bytes);
    let publications: Vec<Publication> = (0..messages)
        .map(|i| {
            Publication::new()
                .with("topic", Value::Int(1))
                .with("seq", Value::Int(i as i64))
                .with("body", Value::Str(body.clone()))
        })
        .collect();

    let plane = if switchless { "switchless" } else { "sync" };
    let batch_label = batch.to_string();
    let payload_label = payload_bytes.to_string();
    let latency = match telemetry {
        Some(t) => t.registry().histogram(
            "securecloud_bench_messaging_publish_us",
            &[
                ("batch", &batch_label),
                ("payload_bytes", &payload_label),
                ("plane", plane),
            ],
        ),
        None => Histogram::new(),
    };

    let mut delivered = 0u64;
    let started = router.enclave_mut().memory().cycles();
    for chunk in publications.chunks(batch) {
        let before = router.enclave_mut().memory().cycles();
        let sealed = publisher
            .seal_publication_batch(chunk)
            .expect("exchange completed");
        let notifications = router
            .publish_sealed_batch(pub_client, &sealed)
            .expect("sequenced publish");
        for (_, framed) in notifications {
            delivered += subscriber
                .open_notification_batch(&framed)
                .expect("authentic notification")
                .len() as u64;
        }
        let frame_cycles = router.enclave_mut().memory().cycles() - before;
        latency.observe((frame_cycles as f64 / (costs.cpu_ghz * 1e3)) as u64);
    }
    let total_cycles = router.enclave_mut().memory().cycles() - started;
    let secs = (total_cycles as f64 / (costs.cpu_ghz * 1e9)).max(1e-12);
    let ecalls = transition_counters
        .registry()
        .counter(METRIC_ECALLS, &[])
        .value();

    MessagingPoint {
        plane,
        batch,
        payload_bytes,
        messages,
        delivered,
        msgs_per_s: messages as f64 / secs,
        p99_us: latency.percentile_upper_bound(99).unwrap_or(0),
        transitions_per_msg: ecalls as f64 / messages as f64,
    }
}

/// Runs the sweep on either call plane: `switchless = true` routes every
/// router match through the shared-memory ring plane
/// ([`SecureRouter::set_switchless`]) instead of per-frame ECALL/OCALL
/// pairs. Results and telemetry are byte-identical for any job count
/// ([`pool::run_ordered`]).
#[must_use]
pub fn sweep(
    config: &MessagingConfig,
    jobs: usize,
    telemetry: Option<&Telemetry>,
    switchless: bool,
) -> MessagingReport {
    let cells = pool::grid(&config.payload_bytes, &config.batch_sizes);
    let messages = config.messages;
    let points = pool::run_ordered(cells, jobs, telemetry, |(payload, batch), local| {
        run_point(batch, payload, messages, switchless, local)
    });
    MessagingReport {
        plane: if switchless { "switchless" } else { "sync" },
        messages,
        points,
    }
}

/// The whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MessagingReport {
    /// Call plane every point ran on (`"sync"` or `"switchless"`).
    pub plane: &'static str,
    /// Publications per point.
    pub messages: usize,
    /// One point per (payload, batch) cell, payload-major.
    pub points: Vec<MessagingPoint>,
}

impl MessagingReport {
    /// Throughput of `batch` relative to the batch-1 baseline at
    /// the same payload size.
    #[must_use]
    pub fn speedup(&self, payload_bytes: usize, batch: usize) -> Option<f64> {
        let rate = |b: usize| {
            self.points
                .iter()
                .find(|p| p.payload_bytes == payload_bytes && p.batch == b)
                .map(|p| p.msgs_per_s)
        };
        Some(rate(batch)? / rate(1)?)
    }
}

/// Runs E11 at the context's size on the chosen plane and declares its
/// table. The sync plane is the experiment proper; the switchless plane is
/// its rerun, written beside it as `BENCH_messaging_switchless.json` with
/// the transitions column on show.
pub fn report(ctx: &Ctx, switchless: bool) -> Report {
    let config = ctx.pick(MessagingConfig::smoke(), MessagingConfig::full());
    let swept = sweep(&config, ctx.jobs, Some(ctx.telemetry), switchless);
    let rerun = swept.plane != "sync";
    let rows: Vec<(&MessagingPoint, Option<f64>)> = swept
        .points
        .iter()
        .map(|p| (p, swept.speedup(p.payload_bytes, p.batch)))
        .collect();
    let heading = if rerun {
        "-- E11 rerun over the switchless plane --
(the same messaging sweep with every router match riding the
 ring plane: ~0 transitions/msg, no batch-size knee)"
    } else {
        "== E11: batched messaging on the SCBR sealed path ==
(one AEAD frame + one ECALL/OCALL pair per batch amortizes the
 enclave transition and nonce/GHASH setup across N publications)"
    };
    let transitions = |(p, _): &(&MessagingPoint, _)| Fixed(p.transitions_per_msg, 3);
    let report = Report::new(
        "messaging",
        heading,
        &rows,
        [
            Column::new("batch", 6, |(p, _)| p.batch.into()),
            Column::keyed("payload B", 10, "payload_bytes", |(p, _)| {
                p.payload_bytes.into()
            }),
            Column::keyed("msgs/s", 12, "msgs_per_s", |(p, _)| Fixed(p.msgs_per_s, 0)),
            Column::new("p99 us", 9, |(p, _)| p.p99_us.into()),
            Column::table("speedup", 9, |(_, speedup)| {
                Unit(speedup.unwrap_or(1.0), 1, "x")
            }),
            if rerun {
                Column::keyed("trans/msg", 10, "transitions_per_msg", transitions)
            } else {
                Column::json("transitions_per_msg", transitions)
            },
            Column::json("speedup_vs_single", |(_, speedup)| {
                speedup.map_or(Absent, |s| Fixed(s, 2))
            }),
        ],
    );
    let messages = format!("messages per point: {}", swept.messages);
    Report {
        variant: rerun.then_some(swept.plane),
        summary: if rerun {
            format!("plane: {}, {messages}", swept.plane)
        } else {
            messages
        },
        meta: vec![
            ("plane", swept.plane.into()),
            ("messages", swept.messages.into()),
        ],
        announce: true,
        ..report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MessagingConfig {
        MessagingConfig {
            batch_sizes: vec![1, 8, 64],
            payload_bytes: vec![64],
            messages: 128,
        }
    }

    #[test]
    fn batching_amortizes_transitions_at_least_threefold() {
        let report = sweep(&tiny(), 1, None, false);
        for point in &report.points {
            assert_eq!(
                point.delivered, point.messages as u64,
                "batch {} dropped deliveries",
                point.batch
            );
            assert!(point.msgs_per_s > 0.0);
        }
        let speedup = report.speedup(64, 64).expect("both points present");
        assert!(
            speedup >= 3.0,
            "batch 64 must amortize to >= 3x batches of one, got {speedup:.2}x"
        );
    }

    #[test]
    fn sweep_is_deterministic_across_job_counts() {
        let serial = sweep(&tiny(), 1, None, false);
        let parallel = sweep(&tiny(), 4, None, false);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn switchless_plane_eliminates_transitions() {
        let sync = sweep(&tiny(), 1, None, false);
        let switchless = sweep(&tiny(), 1, None, true);
        for (s, r) in sync.points.iter().zip(&switchless.points) {
            assert_eq!(r.delivered, s.delivered, "planes must route identically");
            assert_eq!(
                r.transitions_per_msg, 0.0,
                "switchless batch {} still paid transitions",
                r.batch
            );
            assert!(
                s.transitions_per_msg > 0.0,
                "sync batch {} should measure its transitions",
                s.batch
            );
        }
        // With transitions gone, batches of one stop being
        // transition-bound: the batch-64 vs batch-1 throughput knee
        // flattens substantially relative to the sync plane.
        let knee = |report: &MessagingReport| report.speedup(64, 64).expect("points present");
        assert!(
            knee(&switchless) < knee(&sync) / 2.0,
            "switchless knee {:.2}x vs sync knee {:.2}x",
            knee(&switchless),
            knee(&sync)
        );
        // And batch-1 publishes get faster in absolute terms.
        let single = |report: &MessagingReport| {
            report
                .points
                .iter()
                .find(|p| p.batch == 1)
                .expect("batch 1 present")
                .msgs_per_s
        };
        assert!(single(&switchless) > 2.0 * single(&sync));
    }

    #[test]
    fn switchless_sweep_is_deterministic_across_job_counts() {
        let serial = sweep(&tiny(), 1, None, true);
        let parallel = sweep(&tiny(), 4, None, true);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn report_serialises_with_speedups() {
        let telemetry = Telemetry::new();
        let ctx = Ctx {
            smoke: true,
            jobs: 2,
            telemetry: &telemetry,
        };
        let json = report(&ctx, false).to_json();
        assert!(json.contains("\"bench\": \"messaging\""));
        assert!(json.contains("\"batch\": 8"));
        assert!(json.contains("\"speedup_vs_single\""));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn p99_comes_from_histogram_buckets() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(10);
        }
        h.observe(1_000_000);
        // 99th percentile lands in the bucket holding the 10s.
        assert_eq!(
            h.percentile_upper_bound(99),
            Some(Histogram::bucket_upper_bound(4))
        );
        assert_eq!(Histogram::new().percentile_upper_bound(99), None);
    }
}
