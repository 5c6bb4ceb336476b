//! The deterministic elastic controller.
//!
//! One [`ClusterController::tick`] per virtual-time step:
//!
//! 1. **Observe** — read the shared telemetry handles (bus backpressure
//!    delta, DLQ depth, publish-to-ack p99) and each shard's
//!    replication-lag gauge;
//! 2. **Repair** — kill stalled replicas (grey failures fenced by the
//!    replica layer) and fail over every degraded group, so a node kill
//!    that lands mid-scale-up converges back to the desired state;
//! 3. **Decide** — advance the breach/calm streaks of every shard and of
//!    the service fleet (one hysteresis type serves both) against the
//!    [`ScalingPolicy`] and scale up/down through the attestation-gated
//!    membership paths, honouring cooldowns and the drain-refusal check;
//! 4. **Place** — reconcile every resident replica onto the simulated
//!    data-center through the GenPack scheduler and let it consolidate.
//!
//! Every decision appends one `t=<ms> ...` line to the controller trace.
//! The trace is a pure function of (seed, policy, virtual clock) — the
//! determinism artifact the E12 benchmark pins byte-for-byte.

use crate::policy::{ScalingPolicy, Signals};
use securecloud_eventbus::bus::{
    METRIC_BACKPRESSURED, METRIC_DEAD_LETTER_DEPTH, METRIC_PUBLISH_TO_ACK_MS,
};
use securecloud_faults::FaultInjector;
use securecloud_genpack::cluster::{Cluster, Demand, JobId, ServerSpec};
use securecloud_genpack::schedulers::{GenPackScheduler, Scheduler};
use securecloud_replica::{ReplicaError, ReplicatedKv, ShardId, METRIC_REPLICATION_LAG};
use securecloud_telemetry::{Counter, Gauge, Histogram, SloEngine, Telemetry, TraceContext};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// CPU/memory footprint the controller books per replica enclave when
/// placing it on the data-center model (requested vs observed mirrors
/// the paper's finding that enclave services overstate their needs).
const REPLICA_DEMAND: Demand = Demand {
    cpu_requested: 2.0,
    cpu_actual: 1.2,
    mem: 2048,
};

/// One scaling target (a shard group or the service fleet): its desired
/// size plus the hysteresis streaks and cooldown clocks that damp it.
#[derive(Debug, Clone)]
struct Hysteresis {
    desired: usize,
    breach_streak: u32,
    calm_streak: u32,
    last_up_ms: Option<u64>,
    last_down_ms: Option<u64>,
}

/// The direction [`Hysteresis::step`] moved a target's desired size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Up,
    Down,
}

impl Hysteresis {
    fn new(desired: usize) -> Self {
        Hysteresis {
            desired,
            breach_streak: 0,
            calm_streak: 0,
            last_up_ms: None,
            last_down_ms: None,
        }
    }

    /// Advances the streaks by one tick's verdict: a breach or a calm tick
    /// extends its own streak and clears the other, the dead band clears
    /// both.
    fn observe(&mut self, signals: &Signals, policy: &ScalingPolicy) {
        let breach = signals.breaches(policy);
        let calm = !breach && signals.is_calm(policy);
        self.breach_streak = if breach { self.breach_streak + 1 } else { 0 };
        self.calm_streak = if calm { self.calm_streak + 1 } else { 0 };
    }

    /// Moves the desired size one step within `bounds` once a streak is
    /// long enough and its direction's cooldown has passed, restarting that
    /// streak and cooldown. A blocked step keeps the streak for a later tick.
    fn step(
        &mut self,
        now_ms: u64,
        policy: &ScalingPolicy,
        bounds: RangeInclusive<usize>,
    ) -> Option<Scale> {
        let ready = |last: Option<u64>, cooldown_ms: u64| {
            last.is_none_or(|last| now_ms.saturating_sub(last) >= cooldown_ms)
        };
        if self.breach_streak >= policy.up_streak
            && self.desired < *bounds.end()
            && ready(self.last_up_ms, policy.up_cooldown_ms)
        {
            self.desired += 1;
            self.breach_streak = 0;
            self.last_up_ms = Some(now_ms);
            Some(Scale::Up)
        } else if self.calm_streak >= policy.down_streak
            && self.desired > *bounds.start()
            && ready(self.last_down_ms, policy.down_cooldown_ms)
        {
            self.desired -= 1;
            self.calm_streak = 0;
            self.last_down_ms = Some(now_ms);
            Some(Scale::Down)
        } else {
            None
        }
    }
}

/// What one controller tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use]
pub struct ControllerReport {
    /// Virtual time of the tick.
    pub now_ms: u64,
    /// Replicas admitted by scale-up this tick.
    pub scaled_up: u32,
    /// Replicas drained and decommissioned this tick.
    pub scaled_down: u32,
    /// Scale-downs refused by the drain check this tick.
    pub drains_refused: u32,
    /// Stalled replicas killed for replacement this tick.
    pub stalled_killed: u32,
    /// Replicas replaced through failover this tick.
    pub failovers: u32,
    /// Bus-facing service replicas the platform should run after this
    /// tick (the facade actuates this through the container engine).
    pub desired_service_replicas: u32,
    /// Placement migrations performed by the GenPack consolidation pass.
    pub migrations: u64,
    /// Servers parked by the consolidation pass.
    pub parked: u64,
}

/// The telemetry-driven elastic controller. See the module docs for the
/// tick pipeline.
pub struct ClusterController {
    policy: ScalingPolicy,
    telemetry: Arc<Telemetry>,
    injector: Option<Arc<FaultInjector>>,
    // Shared bus metric handles (get-or-create returns the adopted
    // originals, so these observe live bus traffic).
    backpressured: Counter,
    dead_letter_depth: Gauge,
    publish_to_ack: Histogram,
    last_backpressured: u64,
    lag_gauges: BTreeMap<u32, Gauge>,
    shards: BTreeMap<u32, Hysteresis>,
    // The service fleet scales on the bus signals alone (no per-shard lag).
    services: Hysteresis,
    // Data-center placement model.
    placement: Cluster,
    scheduler: GenPackScheduler,
    placed: BTreeSet<u64>,
    // Optional SLO burn-rate engine; when attached, a burning objective is
    // an extra breach signal and each new alert becomes a decision line.
    slo: Option<SloEngine>,
    slo_alerts_seen: usize,
    // Trace + controller metrics.
    decisions: Vec<String>,
    decisions_total: Counter,
    power_watts: Gauge,
    servers_on: Gauge,
}

impl std::fmt::Debug for ClusterController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterController")
            .field("policy", &self.policy)
            .field("decisions", &self.decisions.len())
            .finish_non_exhaustive()
    }
}

impl ClusterController {
    /// Builds a controller over `servers` simulated data-center nodes,
    /// sharing the platform `telemetry` (metric handles are get-or-create,
    /// so the bus's live counters are observed, not copies).
    ///
    /// # Errors
    ///
    /// [`crate::PolicyError`] when the policy fails
    /// [`ScalingPolicy::validate`].
    pub fn new(
        policy: ScalingPolicy,
        telemetry: &Arc<Telemetry>,
        servers: usize,
    ) -> Result<Self, crate::PolicyError> {
        policy.validate()?;
        let registry = telemetry.registry();
        Ok(ClusterController {
            backpressured: registry.counter(METRIC_BACKPRESSURED, &[]),
            dead_letter_depth: registry.gauge(METRIC_DEAD_LETTER_DEPTH, &[]),
            publish_to_ack: registry.histogram(METRIC_PUBLISH_TO_ACK_MS, &[]),
            last_backpressured: 0,
            lag_gauges: BTreeMap::new(),
            shards: BTreeMap::new(),
            services: Hysteresis::new(policy.min_service_replicas as usize),
            placement: Cluster::new(servers, ServerSpec::typical()),
            scheduler: GenPackScheduler::new(),
            placed: BTreeSet::new(),
            slo: None,
            slo_alerts_seen: 0,
            decisions: Vec::new(),
            decisions_total: registry.counter("securecloud_cluster_decisions_total", &[]),
            power_watts: registry.gauge("securecloud_cluster_power_watts", &[]),
            servers_on: registry.gauge("securecloud_cluster_servers_on", &[]),
            telemetry: Arc::clone(telemetry),
            injector: None,
            policy,
        })
    }

    /// Mirrors every decision line into the fault injector's deterministic
    /// trace, interleaving controller actions with fault firings.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Attaches an SLO burn-rate engine. It is ticked once per controller
    /// tick; while any objective burns, [`Signals::slo_breach`] is raised
    /// (scale-up pressure, calm veto) and every new alert is mirrored into
    /// the decision trace.
    pub fn set_slo_engine(&mut self, engine: SloEngine) {
        self.slo = Some(engine);
    }

    /// The attached SLO engine, if any.
    #[must_use]
    pub fn slo_engine(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &ScalingPolicy {
        &self.policy
    }

    /// Every decision taken so far, in order (`t=<ms> ...` lines). The
    /// byte-identical determinism artifact.
    #[must_use]
    pub fn decisions(&self) -> &[String] {
        &self.decisions
    }

    /// The decision trace as one newline-joined string.
    #[must_use]
    pub fn decision_trace(&self) -> String {
        self.decisions.join("\n")
    }

    /// Bus-facing service replicas the controller currently wants.
    #[must_use]
    pub fn desired_service_replicas(&self) -> u32 {
        self.services.desired as u32
    }

    /// The data-center placement model (power, utilisation, parked nodes).
    #[must_use]
    pub fn placement(&self) -> &Cluster {
        &self.placement
    }

    fn decide(&mut self, now_ms: u64, line: &str) {
        let line = format!("t={now_ms} {line}");
        if let Some(injector) = &self.injector {
            injector.record(line.clone());
        }
        self.telemetry.event(
            "cluster",
            "decision",
            vec![("line", line.clone())],
            TraceContext::none(),
        );
        self.decisions_total.inc();
        self.decisions.push(line);
    }

    fn lag_of(&mut self, shard: ShardId, telemetry: &Arc<Telemetry>) -> u64 {
        let gauge = self.lag_gauges.entry(shard.0).or_insert_with(|| {
            let label = shard.to_string();
            telemetry
                .registry()
                .gauge(METRIC_REPLICATION_LAG, &[("shard", &label)])
        });
        u64::try_from(gauge.value()).unwrap_or(0)
    }

    /// One control step at virtual time `now_ms` over the replicated
    /// deployment `kv`: observe → repair → decide → place.
    pub fn tick(&mut self, now_ms: u64, kv: &mut ReplicatedKv) -> ControllerReport {
        let mut report = ControllerReport {
            now_ms,
            ..ControllerReport::default()
        };

        // Observe the platform-wide bus signals once per tick.
        let backpressured = self.backpressured.value();
        let backpressure_delta = backpressured.saturating_sub(self.last_backpressured);
        self.last_backpressured = backpressured;
        let dlq_depth = self.dead_letter_depth.value();
        let p99_ms = self.publish_to_ack.percentile_upper_bound(99);

        // Tick the SLO engine (when attached): a burning objective is an
        // extra breach signal, and each new alert enters the decision trace.
        let mut slo_lines = Vec::new();
        let slo_breach = if let Some(engine) = self.slo.as_mut() {
            let burning = engine.tick(now_ms);
            for alert in &engine.alerts()[self.slo_alerts_seen..] {
                slo_lines.push(format!(
                    "slo-alert {}: fast_burn={}.{:02}x slow_burn={}.{:02}x",
                    alert.slo,
                    alert.fast_burn_x100 / 100,
                    alert.fast_burn_x100 % 100,
                    alert.slow_burn_x100 / 100,
                    alert.slow_burn_x100 % 100
                ));
            }
            self.slo_alerts_seen = engine.alerts().len();
            burning
        } else {
            false
        };
        for line in &slo_lines {
            self.decide(now_ms, line);
        }
        let bus = Signals {
            lag: 0,
            p99_ms,
            backpressure_delta,
            dlq_depth,
            slo_breach,
        };

        let shard_count = kv.shard_map().shards();

        // Repair first: kill stalled replicas so the failover below
        // replaces them, then fail over every degraded group in one pass.
        for index in 0..shard_count {
            let shard = ShardId(index);
            let stalled = kv
                .group(shard)
                .map(|group| group.stalled_replicas())
                .unwrap_or_default();
            for replica in stalled {
                if kv.kill_replica(shard, replica.slot).is_some() {
                    report.stalled_killed += 1;
                    self.decide(
                        now_ms,
                        &format!("repair shard {shard}: killed stalled replica {replica}"),
                    );
                }
            }
        }
        let degraded =
            (0..shard_count).any(|index| kv.group(ShardId(index)).is_some_and(|g| g.is_degraded()));
        if degraded {
            match kv.fail_over() {
                Ok(replaced) if replaced > 0 => {
                    report.failovers += replaced;
                    self.decide(
                        now_ms,
                        &format!("repair: failover re-attested {replaced} replacement(s)"),
                    );
                }
                Ok(_) => {}
                Err(err) => {
                    self.decide(now_ms, &format!("repair: failover failed: {err}"));
                }
            }
        }

        // Per-shard scaling decisions.
        for index in 0..shard_count {
            self.tick_shard(now_ms, kv, ShardId(index), bus, &mut report);
        }

        // Service-fleet sizing from the bus signals alone.
        self.tick_services(now_ms, &bus);
        report.desired_service_replicas = self.desired_service_replicas();

        // Reconcile placement and let GenPack consolidate.
        self.reconcile_placement(now_ms, kv, shard_count, &mut report);

        report
    }

    /// Renders an observed p99 for a decision line; an absent measurement
    /// renders as `-`, never as a fake zero.
    fn fmt_p99(p99_ms: Option<u64>) -> String {
        p99_ms.map_or_else(|| "-".to_string(), |p99| format!("{p99}ms"))
    }

    /// Emits the causal chain behind a scale-up: the heaviest recently
    /// acked publish traces (exemplars) are the requests whose latency
    /// tripped the signal, so the decision event points straight at them.
    fn note_scale_up_cause(&self, target: &str) {
        let causes = self.telemetry.exemplars("publish_to_ack");
        if causes.is_empty() {
            return;
        }
        let traces = causes
            .iter()
            .map(|id| format!("{id:016x}"))
            .collect::<Vec<_>>()
            .join(",");
        self.telemetry.event(
            "cluster",
            "scale_up_cause",
            vec![("target", target.to_string()), ("traces", traces)],
            TraceContext::none(),
        );
    }

    fn tick_shard(
        &mut self,
        now_ms: u64,
        kv: &mut ReplicatedKv,
        shard: ShardId,
        bus: Signals,
        report: &mut ControllerReport,
    ) {
        let Some(group) = kv.group(shard) else {
            return;
        };
        if group.is_partitioned() {
            // A partitioned group refuses quorum traffic anyway; scaling
            // it would only churn membership while clients cannot see it.
            self.decide(
                now_ms,
                &format!("hold shard {shard}: partitioned, deferring scaling"),
            );
            return;
        }
        let observed = group.replication_factor();
        let telemetry = Arc::clone(&self.telemetry);
        let signals = Signals {
            lag: self.lag_of(shard, &telemetry),
            ..bus
        };
        let policy = &self.policy;
        let bounds = policy.min_replicas..=policy.max_replicas;
        let state = self
            .shards
            .entry(shard.0)
            .or_insert_with(|| Hysteresis::new(observed.clamp(*bounds.start(), *bounds.end())));
        state.observe(&signals, policy);

        // Desired-state reconciliation first: if a previous scale-up was
        // undone by a fault (kill mid-scale-up leaves a vacancy that
        // failover repairs, but an errored expand leaves observed <
        // desired), converge toward desired without consuming a streak.
        if observed < state.desired {
            let want = state.desired;
            match kv.scale_up(shard) {
                Ok(replica) => {
                    report.scaled_up += 1;
                    self.decide(
                        now_ms,
                        &format!(
                            "reconcile shard {shard}: admitted {replica} toward desired n={want}"
                        ),
                    );
                }
                Err(err) => {
                    self.decide(
                        now_ms,
                        &format!("reconcile shard {shard} failed (desired n={want}): {err}"),
                    );
                }
            }
            return;
        }

        let Some(scale) = state.step(now_ms, policy, bounds) else {
            return;
        };
        let want = state.desired;
        match scale {
            Scale::Up => match kv.scale_up(shard) {
                Ok(replica) => {
                    report.scaled_up += 1;
                    let p99 = Self::fmt_p99(signals.p99_ms);
                    self.decide(
                        now_ms,
                        &format!(
                            "scale-up shard {shard} -> n={want} (lag={} p99={p99} bp={} \
                             dlq={}): admitted {replica}",
                            signals.lag, signals.backpressure_delta, signals.dlq_depth
                        ),
                    );
                    self.note_scale_up_cause(&format!("shard {shard}"));
                }
                Err(err) => {
                    state.desired -= 1;
                    self.decide(now_ms, &format!("scale-up shard {shard} failed: {err}"));
                }
            },
            Scale::Down => match kv.scale_down(shard) {
                Ok(drained) => {
                    report.scaled_down += 1;
                    let who = drained.map_or_else(
                        || "a vacant slot".to_string(),
                        |replica| replica.to_string(),
                    );
                    self.decide(
                        now_ms,
                        &format!("scale-down shard {shard} -> n={want}: drained {who}"),
                    );
                }
                Err(err) => {
                    state.desired += 1;
                    let verdict = if matches!(err, ReplicaError::DrainRefused { .. }) {
                        report.drains_refused += 1;
                        "refused"
                    } else {
                        "failed"
                    };
                    self.decide(
                        now_ms,
                        &format!("scale-down shard {shard} {verdict}: {err}"),
                    );
                }
            },
        }
    }

    fn tick_services(&mut self, now_ms: u64, bus: &Signals) {
        let policy = &self.policy;
        self.services.observe(bus, policy);
        let bounds = policy.min_service_replicas as usize..=policy.max_service_replicas as usize;
        let Some(scale) = self.services.step(now_ms, policy, bounds) else {
            return;
        };
        let want = self.services.desired;
        match scale {
            Scale::Up => {
                let p99 = Self::fmt_p99(bus.p99_ms);
                self.decide(
                    now_ms,
                    &format!(
                        "scale-up services -> {want} (p99={p99} bp={} dlq={})",
                        bus.backpressure_delta, bus.dlq_depth
                    ),
                );
                self.note_scale_up_cause("services");
            }
            Scale::Down => self.decide(now_ms, &format!("scale-down services -> {want}")),
        }
    }

    /// Stable job id for a replica slot on the placement model.
    fn job_of(shard: u32, slot: u32) -> JobId {
        JobId((u64::from(shard) << 16) | u64::from(slot))
    }

    fn reconcile_placement(
        &mut self,
        now_ms: u64,
        kv: &ReplicatedKv,
        shard_count: u32,
        report: &mut ControllerReport,
    ) {
        let mut resident = BTreeSet::new();
        for index in 0..shard_count {
            if let Some(group) = kv.group(ShardId(index)) {
                for replica in group.live_replica_ids() {
                    resident.insert(Self::job_of(index, replica.slot));
                }
            }
        }
        // Departures: decommissioned/killed replicas free their slots.
        let departed: Vec<JobId> = self
            .placed
            .iter()
            .copied()
            .map(JobId)
            .filter(|job| !resident.contains(job))
            .collect();
        for job in departed {
            let _ = self.placement.remove(job);
            self.scheduler.on_departure(job);
            self.placed.remove(&job.0);
        }
        // Arrivals: place newly admitted replicas through GenPack.
        for &job in &resident {
            if self.placed.contains(&job.0) {
                continue;
            }
            match self
                .scheduler
                .place(&mut self.placement, job, REPLICA_DEMAND, now_ms)
            {
                Some(server) => {
                    self.placement.place(job, server, REPLICA_DEMAND);
                    self.placed.insert(job.0);
                    self.decide(
                        now_ms,
                        &format!(
                            "place job {}/{} on server {}",
                            job.0 >> 16,
                            job.0 & 0xffff,
                            server.0
                        ),
                    );
                }
                None => {
                    self.decide(
                        now_ms,
                        &format!(
                            "place job {}/{} parked: no capacity",
                            job.0 >> 16,
                            job.0 & 0xffff
                        ),
                    );
                }
            }
        }
        // Consolidation pass: promotions + migrations + server parking.
        let tick = self.scheduler.tick(&mut self.placement, now_ms);
        report.migrations = tick.migrations;
        report.parked = tick.parked;
        if tick.migrations > 0 || tick.parked > 0 {
            self.decide(
                now_ms,
                &format!(
                    "consolidate: {} migration(s), {} server(s) parked",
                    tick.migrations, tick.parked
                ),
            );
        }
        self.power_watts.set(self.placement.total_power() as i64);
        self.servers_on
            .set(i64::try_from(self.placement.servers_on()).unwrap_or(i64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securecloud_kvstore::CounterService;
    use securecloud_replica::{ReplicaConfig, ReplicationFactor, WriteQuorum};
    use securecloud_sgx::enclave::Platform;

    fn deploy(telemetry: &Arc<Telemetry>) -> ReplicatedKv {
        ReplicatedKv::deploy_with(
            ReplicaConfig {
                shards: 2,
                replication: ReplicationFactor(3),
                write_quorum: WriteQuorum(2),
                virtual_nodes: 8,
                ..ReplicaConfig::default()
            },
            &Platform::new(),
            &CounterService::new(),
            Some(telemetry),
            None,
        )
        .unwrap()
    }

    fn controller(telemetry: &Arc<Telemetry>) -> ClusterController {
        ClusterController::new(ScalingPolicy::default(), telemetry, 8).unwrap()
    }

    #[test]
    fn invalid_policy_is_rejected() {
        let telemetry = Arc::new(Telemetry::new());
        let err = ClusterController::new(
            ScalingPolicy {
                up_streak: 0,
                ..ScalingPolicy::default()
            },
            &telemetry,
            4,
        )
        .unwrap_err();
        assert!(err.to_string().contains("streak"));
    }

    #[test]
    fn quiet_cluster_takes_no_scaling_decisions() {
        let telemetry = Arc::new(Telemetry::new());
        let mut kv = deploy(&telemetry);
        let mut controller = controller(&telemetry);
        for step in 0..10u64 {
            let report = controller.tick(step * 1_000, &mut kv);
            assert_eq!(report.scaled_up, 0);
            assert_eq!(report.scaled_down, 0);
        }
        // Placement decisions exist (initial replicas placed), but no
        // scale-up/scale-down lines.
        assert!(controller.decisions().iter().all(|d| !d.contains("scale-")));
        assert_eq!(kv.stats().scale_ups, 0);
    }

    #[test]
    fn sustained_backpressure_scales_up_with_cooldown() {
        let telemetry = Arc::new(Telemetry::new());
        let mut kv = deploy(&telemetry);
        let mut controller = controller(&telemetry);
        let backpressured = telemetry.registry().counter(METRIC_BACKPRESSURED, &[]);
        let mut admitted = 0;
        for step in 0..6u64 {
            // 20 backpressure errors per tick: breach every tick.
            backpressured.add(20);
            let report = controller.tick(step * 1_000, &mut kv);
            admitted += report.scaled_up;
        }
        assert!(admitted >= 1, "breach streak triggered a scale-up");
        let group = kv.group(ShardId(0)).unwrap();
        assert!(group.replication_factor() > 3);
        assert!(
            group.write_quorum() > group.replication_factor() / 2,
            "majority quorum maintained at the new size"
        );
        // Cooldown bounds the ramp: at most one scale-up per shard per
        // 2 s cooldown window within the 6 s run.
        assert!(admitted <= 6, "cooldown damped the ramp, got {admitted}");
        assert!(controller
            .decisions()
            .iter()
            .any(|d| d.contains("scale-up shard s0")));
    }

    #[test]
    fn calm_after_load_scales_back_down_and_never_below_min() {
        let telemetry = Arc::new(Telemetry::new());
        let mut kv = deploy(&telemetry);
        let mut controller = controller(&telemetry);
        let backpressured = telemetry.registry().counter(METRIC_BACKPRESSURED, &[]);
        let mut now = 0;
        for _ in 0..6u64 {
            backpressured.add(20);
            let _ = controller.tick(now, &mut kv);
            now += 1_000;
        }
        let peak = kv.group(ShardId(0)).unwrap().replication_factor();
        assert!(peak > 3);
        // Long calm stretch: controller drains back to the floor.
        for _ in 0..40u64 {
            let _ = controller.tick(now, &mut kv);
            now += 1_000;
        }
        let settled = kv.group(ShardId(0)).unwrap().replication_factor();
        assert_eq!(settled, 3, "drained back to min_replicas");
        assert!(kv.stats().scale_downs >= 1);
        // Data still there is checked by the replica layer's own tests;
        // here we pin that the controller never drained below the floor.
        for state in controller.shards.values() {
            assert!(state.desired >= controller.policy.min_replicas);
        }
    }

    #[test]
    fn stalled_replica_is_killed_and_replaced_next_tick() {
        let telemetry = Arc::new(Telemetry::new());
        let mut kv = deploy(&telemetry);
        let mut controller = controller(&telemetry);
        let _ = controller.tick(0, &mut kv);
        kv.stall_replica(ShardId(0), 1).unwrap();
        let report = controller.tick(1_000, &mut kv);
        assert_eq!(report.stalled_killed, 1);
        assert_eq!(report.failovers, 1, "replacement admitted same tick");
        assert_eq!(kv.stats().replicas_stalled, 0);
        assert!(controller
            .decisions()
            .iter()
            .any(|d| d.contains("killed stalled replica s0/r1")));
    }

    #[test]
    fn partitioned_shard_defers_scaling() {
        let telemetry = Arc::new(Telemetry::new());
        let mut kv = deploy(&telemetry);
        let mut controller = controller(&telemetry);
        kv.partition_shard(ShardId(0), 10_000);
        let backpressured = telemetry.registry().counter(METRIC_BACKPRESSURED, &[]);
        for step in 0..4u64 {
            backpressured.add(20);
            let _ = controller.tick(step * 1_000, &mut kv);
        }
        // Shard 0 held; shard 1 scaled on the same bus signals.
        assert_eq!(kv.group(ShardId(0)).unwrap().replication_factor(), 3);
        assert!(kv.group(ShardId(1)).unwrap().replication_factor() > 3);
        assert!(controller
            .decisions()
            .iter()
            .any(|d| d.contains("hold shard s0: partitioned")));
    }

    #[test]
    fn decision_trace_is_deterministic_for_equal_inputs() {
        let run = || {
            let telemetry = Arc::new(Telemetry::new());
            let mut kv = deploy(&telemetry);
            let mut controller = controller(&telemetry);
            let backpressured = telemetry.registry().counter(METRIC_BACKPRESSURED, &[]);
            for step in 0..12u64 {
                if step % 3 == 0 {
                    backpressured.add(20);
                }
                if step == 5 {
                    kv.stall_replica(ShardId(1), 0);
                }
                let _ = controller.tick(step * 500, &mut kv);
            }
            controller.decision_trace()
        };
        let first = run();
        assert_eq!(first, run(), "same inputs, byte-identical trace");
        assert!(!first.is_empty());
    }

    #[test]
    fn placement_tracks_membership_and_powers_the_model() {
        let telemetry = Arc::new(Telemetry::new());
        let mut kv = deploy(&telemetry);
        let mut controller = controller(&telemetry);
        let _ = controller.tick(0, &mut kv);
        assert_eq!(controller.placement().jobs_placed(), 6, "2 shards x 3");
        assert!(controller.placement().total_power() > 0.0);
        // Scale up one shard: a new job lands on the model.
        kv.scale_up(ShardId(0)).unwrap();
        let _ = controller.tick(1_000, &mut kv);
        assert_eq!(controller.placement().jobs_placed(), 7);
        // Scale it back down: the job departs.
        kv.scale_down(ShardId(0)).unwrap();
        let _ = controller.tick(2_000, &mut kv);
        assert_eq!(controller.placement().jobs_placed(), 6);
    }
}
