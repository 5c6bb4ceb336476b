//! **SecureCloud** — secure big-data processing in untrusted clouds.
//!
//! This crate is the facade over the full layered architecture of the
//! SecureCloud project (Kelbert et al., DSN 2018):
//!
//! | Layer | Crate (re-exported module) |
//! |---|---|
//! | Enclave hardware (simulated SGX) | [`sgx`] |
//! | Cryptography + wire codec | [`crypto`] |
//! | SCONE secure-container runtime | [`scone`] |
//! | Secure containers / images / registry | [`containers`] |
//! | Secure content-based routing | [`scbr`] |
//! | GenPack generational scheduler | [`genpack`] |
//! | Event bus + micro-services | [`eventbus`] |
//! | Secure KV store | [`kvstore`] |
//! | Attested shard/replication layer | [`replica`] |
//! | Secure map/reduce | [`mapreduce`] |
//! | Smart-grid use cases | [`smartgrid`] |
//! | Streaming analytics (windows, joins) | [`streaming`] |
//!
//! [`SecureCloud`] assembles the trusted control plane (platform,
//! attestation, configuration service, registry, container engine, event
//! bus) into the deployment API the paper's Figure 1 sketches: build a
//! secure micro-service image, deploy it, and wire services over the bus.
//!
//! # Example
//!
//! ```
//! use securecloud::containers::build::SecureImageBuilder;
//! use securecloud::SecureCloud;
//!
//! let mut cloud = SecureCloud::new();
//! let built = SecureImageBuilder::new("meter-svc", "v1", b"service code")
//!     .protect_file("/data/keys", b"secret")
//!     .build()
//!     .unwrap();
//! let image = cloud.deploy_image(built);
//! let container = cloud.run_container(image).unwrap();
//! let plaintext = cloud
//!     .with_runtime(container, |rt| rt.read_file("/data/keys", 0, 16))
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(plaintext, b"secret");
//! ```

pub use securecloud_cluster as cluster;
pub use securecloud_containers as containers;
pub use securecloud_crypto as crypto;
pub use securecloud_eventbus as eventbus;
pub use securecloud_faults as faults;
pub use securecloud_genpack as genpack;
pub use securecloud_kvstore as kvstore;
pub use securecloud_mapreduce as mapreduce;
pub use securecloud_replica as replica;
pub use securecloud_scbr as scbr;
pub use securecloud_scone as scone;
pub use securecloud_sgx as sgx;
pub use securecloud_smartgrid as smartgrid;
pub use securecloud_streaming as streaming;
pub use securecloud_telemetry as telemetry;

use cluster::{ClusterController, PolicyError, ScalingPolicy};
use containers::build::BuiltImage;
use containers::engine::{ContainerHealth, ContainerId, Engine, SupervisionConfig};
use containers::image::ImageId;
use containers::registry::Registry;
use containers::ContainerError;
use eventbus::service::{MicroService, ServiceHost};
use eventbus::TopicKeyService;
use faults::{FaultEvent, FaultInjector, FaultKind};
use kvstore::CounterService;
use parking_lot::RwLock;
use replica::cluster::FaultApplication;
use replica::{ReplicaConfig, ReplicaError, ReplicatedKv};
use scone::runtime::SconeRuntime;
use scone::scf::ConfigService;
use sgx::attest::AttestationService;
use sgx::enclave::Platform;
use std::sync::Arc;
use telemetry::{SloEngine, Telemetry, TraceContext};

/// The assembled SecureCloud control plane.
///
/// Owns one SGX-capable platform, the attestation + configuration trust
/// anchors, an image registry, the container engine, the per-topic key
/// service, and the event bus connecting micro-services.
pub struct SecureCloud {
    platform: Platform,
    registry: Arc<Registry>,
    config_service: Arc<RwLock<ConfigService>>,
    engine: Engine,
    key_service: TopicKeyService,
    host: ServiceHost,
    counter_service: CounterService,
    replicated: Vec<ReplicatedKv>,
    controller: Option<(ReplicatedKvId, ClusterController)>,
    elastic_image: Option<ImageId>,
    elastic_fleet: Vec<ContainerId>,
    sim_now_ms: u64,
    injector: Option<Arc<FaultInjector>>,
    telemetry: Arc<Telemetry>,
    causal_tracing: bool,
}

/// Handle to a replicated KV deployment owned by the facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicatedKvId(pub usize);

impl std::fmt::Debug for SecureCloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureCloud").finish_non_exhaustive()
    }
}

impl Default for SecureCloud {
    fn default() -> Self {
        Self::new()
    }
}

impl SecureCloud {
    /// Bootstraps a platform with fresh trust anchors.
    #[must_use]
    pub fn new() -> Self {
        let platform = Platform::new();
        let mut attestation = AttestationService::new();
        attestation.register_platform(&platform);
        let mut key_attestation = AttestationService::new();
        key_attestation.register_platform(&platform);
        let registry = Arc::new(Registry::new());
        let config_service = Arc::new(RwLock::new(ConfigService::new(attestation)));
        let mut engine = Engine::new(
            Arc::clone(&registry),
            platform.clone(),
            Arc::clone(&config_service),
        );
        // One registry + virtual-clock trace buffer for the whole platform:
        // engine supervision, bus delivery, and every bootstrapped secure
        // runtime report into it.
        let telemetry = Arc::new(Telemetry::new());
        engine.set_telemetry(Arc::clone(&telemetry));
        let mut host = ServiceHost::new(1_000);
        host.set_telemetry(Arc::clone(&telemetry));
        SecureCloud {
            platform,
            registry,
            config_service,
            engine,
            key_service: TopicKeyService::new(key_attestation),
            host,
            counter_service: CounterService::new(),
            replicated: Vec::new(),
            controller: None,
            elastic_image: None,
            elastic_fleet: Vec::new(),
            sim_now_ms: 0,
            injector: None,
            telemetry,
            causal_tracing: false,
        }
    }

    /// Seeds the deterministic causal-id minter and switches the facade
    /// into traced mode: injected enclave aborts mint root contexts so the
    /// whole container restart chain joins the fault's trace. Ids depend
    /// only on the seed and minting order, so equal seeds reproduce equal
    /// traces at any parallelism.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.telemetry.set_trace_seed(seed);
        self.causal_tracing = true;
    }

    /// Hands a declarative SLO engine to the attached cluster controller:
    /// from then on each tick evaluates multi-window burn rates, logs
    /// alerts into the decision log, and treats an active breach as a
    /// scale-up signal. Returns `false` (and drops the engine) when no
    /// controller is attached — attach one first.
    pub fn set_slo_engine(&mut self, engine: SloEngine) -> bool {
        match &mut self.controller {
            Some((_, controller)) => {
                controller.set_slo_engine(engine);
                true
            }
            None => false,
        }
    }

    /// The platform-wide telemetry: shared metrics registry, virtual
    /// clock, and trace buffer.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Attaches a seeded fault injector to the whole platform: the event
    /// bus consults it for message fates, the container engine and service
    /// host record recovery events into its trace, and [`SecureCloud::advance`]
    /// fires its planned faults at their virtual-time points.
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.engine.set_fault_injector(Arc::clone(&injector));
        self.host.set_fault_injector(Arc::clone(&injector));
        self.injector = Some(injector);
    }

    /// The attached fault injector, if any.
    #[must_use]
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// The platform-wide virtual time in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.sim_now_ms
    }

    /// Advances the platform's virtual clock by `ms`: the container engine
    /// restarts containers whose backoff elapsed, the event bus expires
    /// leases (redelivering unacked messages), and any planned faults that
    /// came due are fired — enclave aborts go to the engine, service panics
    /// arm the service host, syscall failures arm the injector itself.
    ///
    /// Returns the fault events that fired so callers can apply the kinds
    /// the facade does not own (e.g. [`FaultKind::BrokerFail`] against an
    /// external [`scbr::broker::Overlay`]).
    pub fn advance(&mut self, ms: u64) -> Vec<FaultEvent> {
        self.sim_now_ms += ms;
        // Stamp the telemetry clock before anything below emits events so
        // every trace entry carries the current virtual time.
        self.telemetry.clock().set_at_least_ms(self.sim_now_ms);
        // Move the injector's clock first so everything the engine and bus
        // record below is stamped with the current virtual time.
        let events = match &self.injector {
            Some(injector) => injector.advance_to(self.sim_now_ms),
            None => Vec::new(),
        };
        self.engine.advance(ms);
        self.host.bus_mut().advance(ms);
        for event in &events {
            match &event.kind {
                // Unknown ids are a plan/deployment mismatch: count the
                // armed-but-unroutable fault instead of dropping it
                // silently (the fired event is already in the trace).
                FaultKind::EnclaveAbort { container } => {
                    // In traced mode each injected abort becomes the root of
                    // its own causal trace, so the restart chain (backoff,
                    // re-attestation, eventual quarantine) points back at
                    // the fault schedule entry that caused it.
                    let cause = if self.causal_tracing {
                        let root = self.telemetry.mint_root();
                        self.telemetry.event_ctx(
                            "faults",
                            "enclave_abort_fired",
                            vec![("container", format!("c{container}"))],
                            root,
                        );
                        root
                    } else {
                        TraceContext::none()
                    };
                    if self
                        .engine
                        .abort_traced(ContainerId(*container), "injected enclave abort", cause)
                        .is_err()
                    {
                        self.record_unroutable(&event.kind);
                    }
                }
                FaultKind::ServicePanic { service } => {
                    self.host.inject_panic_next(service);
                }
                FaultKind::SyscallFail { count } => {
                    // The injector has armed `count` forced failures; every
                    // secure runtime bootstrapped after the injector was
                    // attached reaches its host through a FaultyHost, so
                    // the next syscalls fail at the SCONE shield layer as
                    // host violations. Record the arming so traces show
                    // when the flaky window opened.
                    self.telemetry.event(
                        "faults",
                        "syscall_failures_armed",
                        vec![("count", count.to_string())],
                    );
                }
                // The facade owns no broker overlay; returned to the caller.
                FaultKind::BrokerFail { .. } => {}
                FaultKind::ReplicaKill { .. }
                | FaultKind::ReplicaStall { .. }
                | FaultKind::StorageCorruptBlock { .. }
                | FaultKind::NetworkPartition { .. } => {
                    // Every replicated deployment gets a shot at the event;
                    // the one owning the shard applies it (kill + failover,
                    // stall fencing, or partition until the heal deadline).
                    // Failover errors (e.g. no survivors) are already in
                    // the trace. If no deployment could route the event,
                    // count it: the target no longer exists.
                    let mut applied = false;
                    for kv in &mut self.replicated {
                        if let Ok(FaultApplication::Applied) =
                            kv.apply_fault(&event.kind, self.sim_now_ms)
                        {
                            applied = true;
                        }
                    }
                    if !applied {
                        self.record_unroutable(&event.kind);
                    }
                }
                _ => {}
            }
        }
        // Heal partitions whose deadline passed on the virtual clock.
        for kv in &mut self.replicated {
            kv.advance_to(self.sim_now_ms);
        }
        // Let the elastic controller observe and act, then reconcile the
        // bus-facing service fleet it sized.
        self.tick_controller();
        events
    }

    /// Counts a fault whose target no longer exists on this platform — an
    /// observable no-op instead of a panic or a silent drop.
    fn record_unroutable(&self, kind: &FaultKind) {
        self.telemetry
            .counter_with(
                "securecloud_faults_unroutable_total",
                &[("kind", kind.name())],
            )
            .inc();
        self.telemetry.event(
            "faults",
            "unroutable",
            vec![("kind", kind.name().to_string())],
        );
        if let Some(injector) = &self.injector {
            injector.record(format!("fault unroutable: {kind}"));
        }
    }

    fn tick_controller(&mut self) {
        let Some((target, controller)) = self.controller.as_mut() else {
            return;
        };
        let Some(kv) = self.replicated.get_mut(target.0) else {
            return;
        };
        let report = controller.tick(self.sim_now_ms, kv);
        self.reconcile_elastic_fleet(report.desired_service_replicas);
    }

    /// Converges the elastic service fleet on `desired` replicas.
    /// Containers in restart backoff count as present — the engine's
    /// supervisor owns their recovery, and double-provisioning a replica
    /// that is about to restart is exactly the flapping this avoids.
    /// Quarantined/failed containers are retired and replaced.
    fn reconcile_elastic_fleet(&mut self, desired: u32) {
        let Some(image) = self.elastic_image else {
            return;
        };
        let mut present = Vec::new();
        for id in std::mem::take(&mut self.elastic_fleet) {
            match self
                .engine
                .container(id)
                .map(containers::engine::Container::health)
            {
                Some(ContainerHealth::Running | ContainerHealth::Backoff) => present.push(id),
                _ => self.telemetry.event(
                    "cluster",
                    "service_replica_retired",
                    vec![("container", format!("{id:?}"))],
                ),
            }
        }
        self.elastic_fleet = present;
        while (self.elastic_fleet.len() as u32) < desired {
            match self
                .engine
                .run_supervised(image, SupervisionConfig::default())
            {
                Ok(id) => self.elastic_fleet.push(id),
                Err(_) => break,
            }
        }
        while (self.elastic_fleet.len() as u32) > desired {
            let Some(id) = self.elastic_fleet.pop() else {
                break;
            };
            let _ = self.engine.stop(id);
        }
    }

    /// Attaches the elastic cluster controller: each [`SecureCloud::advance`]
    /// it observes the platform telemetry, repairs and scales `target`'s
    /// shard groups through the attestation-gated membership paths, and
    /// sizes the elastic service fleet (see
    /// [`SecureCloud::set_elastic_service_image`]).
    ///
    /// # Errors
    ///
    /// [`PolicyError`] when the policy fails validation.
    pub fn attach_cluster_controller(
        &mut self,
        target: ReplicatedKvId,
        policy: ScalingPolicy,
        servers: usize,
    ) -> Result<(), PolicyError> {
        let mut controller = ClusterController::new(policy, &self.telemetry, servers)?;
        if let Some(injector) = &self.injector {
            controller.set_fault_injector(Arc::clone(injector));
        }
        self.controller = Some((target, controller));
        Ok(())
    }

    /// The attached elastic controller, if any.
    #[must_use]
    pub fn cluster_controller(&self) -> Option<&ClusterController> {
        self.controller.as_ref().map(|(_, c)| c)
    }

    /// Sets the image the controller-managed service fleet runs. New
    /// replicas start supervised, so abnormal exits restart with backoff.
    pub fn set_elastic_service_image(&mut self, image: ImageId) {
        self.elastic_image = Some(image);
    }

    /// Containers currently in the controller-managed service fleet.
    #[must_use]
    pub fn elastic_fleet(&self) -> &[ContainerId] {
        &self.elastic_fleet
    }

    /// The underlying (simulated) SGX platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The image registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The configuration service trust anchor (SCF registration,
    /// attestation policy).
    #[must_use]
    pub fn config_service(&self) -> &Arc<RwLock<ConfigService>> {
        &self.config_service
    }

    /// The per-topic payload key service.
    pub fn key_service_mut(&mut self) -> &mut TopicKeyService {
        &mut self.key_service
    }

    /// Publishes a built secure image: pushes it, registers its SCF, and
    /// allows its measurement.
    pub fn deploy_image(&mut self, built: BuiltImage) -> ImageId {
        self.engine.deploy(built)
    }

    /// Starts a container from a deployed image (secure bootstrap included
    /// for secure images).
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_container(&mut self, image: ImageId) -> Result<ContainerId, ContainerError> {
        self.engine.run(image)
    }

    /// Stops a container (destroying its enclave if secure).
    ///
    /// # Errors
    ///
    /// See [`Engine::stop`].
    pub fn stop_container(&mut self, id: ContainerId) -> Result<(), ContainerError> {
        self.engine.stop(id)
    }

    /// Runs `f` with the SCONE runtime of a secure container.
    ///
    /// Returns `None` for unknown ids or plain containers.
    pub fn with_runtime<R>(
        &mut self,
        id: ContainerId,
        f: impl FnOnce(&mut SconeRuntime) -> R,
    ) -> Option<R> {
        self.engine.container_mut(id)?.runtime_mut().map(f)
    }

    /// The container engine (fleet inspection, resource accounting).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The platform's trusted monotonic counter service (rollback
    /// protection for KV snapshots and replica-group epochs).
    #[must_use]
    pub fn counter_service(&self) -> &CounterService {
        &self.counter_service
    }

    /// Deploys a sharded, quorum-replicated secure KV store on this
    /// platform: every replica enclave is attested before admission, the
    /// platform counter service backs epoch/version rollback protection,
    /// and the deployment shares the platform telemetry and fault
    /// injector. [`FaultKind::ReplicaKill`] events fired by
    /// [`SecureCloud::advance`] are routed to it automatically.
    ///
    /// # Errors
    ///
    /// See [`ReplicatedKv::deploy_with`].
    pub fn deploy_replicated_kv(
        &mut self,
        config: ReplicaConfig,
    ) -> Result<ReplicatedKvId, ReplicaError> {
        let kv = ReplicatedKv::deploy_with(
            config,
            &self.platform,
            &self.counter_service,
            Some(&self.telemetry),
            self.injector.as_ref(),
        )?;
        self.replicated.push(kv);
        Ok(ReplicatedKvId(self.replicated.len() - 1))
    }

    /// A replicated KV deployment by handle.
    #[must_use]
    pub fn replicated_kv(&self, id: ReplicatedKvId) -> Option<&ReplicatedKv> {
        self.replicated.get(id.0)
    }

    /// Mutable access to a replicated KV deployment (puts/gets/failover).
    pub fn replicated_kv_mut(&mut self, id: ReplicatedKvId) -> Option<&mut ReplicatedKv> {
        self.replicated.get_mut(id.0)
    }

    /// Registers a micro-service on the platform event bus.
    pub fn register_service(&mut self, service: Box<dyn MicroService>) {
        self.host.register(service);
    }

    /// The event-bus service host.
    pub fn services_mut(&mut self) -> &mut ServiceHost {
        &mut self.host
    }

    /// Sets how many bus messages each service may consume per delivery
    /// step (fetched as one lease batch; delivery semantics are unchanged).
    /// See [`ServiceHost::set_delivery_batch`].
    pub fn set_delivery_batch(&mut self, batch: usize) {
        self.host.set_delivery_batch(batch);
    }

    /// Pumps bus deliveries ([`ServiceHost::pump_switchless`]) until quiet
    /// or for `max_steps` rounds; returns messages processed.
    pub fn run_services(&mut self, max_steps: usize) -> usize {
        self.host.pump_switchless(max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containers::build::SecureImageBuilder;

    #[test]
    fn facade_deploy_run_read() {
        let mut cloud = SecureCloud::new();
        let built = SecureImageBuilder::new("svc", "v1", b"binary")
            .protect_file("/data/secret", b"42")
            .arg("--run")
            .build()
            .unwrap();
        let image = cloud.deploy_image(built);
        let container = cloud.run_container(image).unwrap();
        let content = cloud
            .with_runtime(container, |rt| rt.read_file("/data/secret", 0, 2))
            .unwrap()
            .unwrap();
        assert_eq!(content, b"42");
        cloud.stop_container(container).unwrap();
    }

    #[test]
    fn replica_kill_events_route_to_replicated_deployments() {
        use faults::FaultPlan;
        use replica::{ReplicaConfig, ReplicationFactor, WriteQuorum};

        let mut cloud = SecureCloud::new();
        let plan = FaultPlan::new().at(50, FaultKind::ReplicaKill { shard: 0, slot: 1 });
        cloud.set_fault_injector(Arc::new(FaultInjector::with_plan(7, plan)));
        let id = cloud
            .deploy_replicated_kv(ReplicaConfig {
                shards: 2,
                replication: ReplicationFactor(3),
                write_quorum: WriteQuorum(2),
                ..ReplicaConfig::default()
            })
            .unwrap();
        cloud
            .replicated_kv_mut(id)
            .unwrap()
            .put(b"acked", b"before fault")
            .unwrap();
        let events = cloud.advance(100);
        assert_eq!(events.len(), 1);
        let kv = cloud.replicated_kv_mut(id).unwrap();
        assert_eq!(kv.stats().replicas_killed, 1);
        assert_eq!(kv.stats().replicas_replaced, 1, "auto-failover ran");
        assert_eq!(kv.get(b"acked").unwrap(), Some(b"before fault".to_vec()));
        assert!(cloud.replicated_kv(ReplicatedKvId(9)).is_none());
    }

    #[test]
    fn storage_corruption_events_route_to_tiered_deployments() {
        use faults::FaultPlan;
        use replica::{ReplicaConfig, ReplicationFactor, StorageConfig, WriteQuorum};

        let mut cloud = SecureCloud::new();
        let plan = FaultPlan::new().at(50, FaultKind::StorageCorruptBlock { shard: 0, slot: 1 });
        cloud.set_fault_injector(Arc::new(FaultInjector::with_plan(11, plan)));
        let id = cloud
            .deploy_replicated_kv(ReplicaConfig {
                shards: 1,
                replication: ReplicationFactor(3),
                write_quorum: WriteQuorum(2),
                storage: Some(StorageConfig {
                    block_bytes: 256,
                    flush_bytes: 1024,
                    cache_blocks: 2,
                    compact_at_segments: 4,
                }),
                ..ReplicaConfig::default()
            })
            .unwrap();
        // Enough writes to flush sealed segments onto the host disk.
        for i in 0..40u32 {
            cloud
                .replicated_kv_mut(id)
                .unwrap()
                .put(format!("reading/{i:03}").as_bytes(), &[0xCD; 40])
                .unwrap();
        }
        let events = cloud.advance(100);
        assert_eq!(events.len(), 1);
        let kv = cloud.replicated_kv_mut(id).unwrap();
        let stats = kv.stats();
        assert!(stats.storage_corruptions >= 1, "scrub saw the bit flip");
        assert_eq!(stats.replicas_killed, 1, "damaged replica retired");
        assert_eq!(stats.replicas_replaced, 1, "auto-failover ran");
        assert!(stats.snapshot_stream_bytes > 0, "incremental catch-up");
        for i in 0..40u32 {
            assert_eq!(
                kv.get(format!("reading/{i:03}").as_bytes()).unwrap(),
                Some(vec![0xCD; 40])
            );
        }
    }

    #[test]
    fn unroutable_faults_are_counted_not_dropped() {
        use faults::FaultPlan;

        let mut cloud = SecureCloud::new();
        // Shard 9 and container 99 never exist: every fault below is armed
        // against a target that is gone by fire time.
        let plan = FaultPlan::new()
            .at(10, FaultKind::ReplicaKill { shard: 9, slot: 0 })
            .at(20, FaultKind::ReplicaStall { shard: 9, slot: 0 })
            .at(
                30,
                FaultKind::NetworkPartition {
                    group: 9,
                    heal_after_ms: 50,
                },
            )
            .at(40, FaultKind::EnclaveAbort { container: 99 });
        let injector = Arc::new(FaultInjector::with_plan(3, plan));
        cloud.set_fault_injector(Arc::clone(&injector));
        cloud
            .deploy_replicated_kv(ReplicaConfig {
                shards: 1,
                ..ReplicaConfig::default()
            })
            .unwrap();
        let events = cloud.advance(100);
        assert_eq!(events.len(), 4, "all four faults fired");
        let telemetry = Arc::clone(cloud.telemetry());
        let count = move |kind: &str| {
            telemetry
                .counter_with("securecloud_faults_unroutable_total", &[("kind", kind)])
                .value()
        };
        assert_eq!(count("replica-kill"), 1);
        assert_eq!(count("replica-stall"), 1);
        assert_eq!(count("network-partition"), 1);
        assert_eq!(count("enclave-abort"), 1);
        assert!(
            injector
                .trace()
                .iter()
                .filter(|line| line.contains("fault unroutable"))
                .count()
                == 4,
            "unroutable faults recorded in the deterministic trace"
        );
        // A routable fault does not touch the counter.
        let kv_id = ReplicatedKvId(0);
        let before = count("replica-kill");
        cloud
            .replicated_kv_mut(kv_id)
            .unwrap()
            .apply_fault(&FaultKind::ReplicaKill { shard: 0, slot: 0 }, 0)
            .unwrap();
        assert_eq!(count("replica-kill"), before);
    }

    #[test]
    fn stall_and_partition_faults_route_through_advance() {
        use faults::FaultPlan;
        use replica::ShardId;

        let mut cloud = SecureCloud::new();
        let plan = FaultPlan::new()
            .at(10, FaultKind::ReplicaStall { shard: 0, slot: 1 })
            .at(
                20,
                FaultKind::NetworkPartition {
                    group: 1,
                    heal_after_ms: 1_000,
                },
            );
        cloud.set_fault_injector(Arc::new(FaultInjector::with_plan(5, plan)));
        let id = cloud
            .deploy_replicated_kv(ReplicaConfig {
                shards: 2,
                ..ReplicaConfig::default()
            })
            .unwrap();
        cloud.advance(50);
        let kv = cloud.replicated_kv(id).unwrap();
        assert_eq!(kv.stats().replicas_stalled, 1);
        assert!(kv.group(ShardId(1)).unwrap().is_partitioned());
        // The heal deadline (t=20 + 1000ms) passes on the virtual clock.
        cloud.advance(1_000);
        let kv = cloud.replicated_kv(id).unwrap();
        assert!(!kv.group(ShardId(1)).unwrap().is_partitioned());
    }

    #[test]
    fn attached_controller_repairs_and_sizes_the_service_fleet() {
        use containers::build::SecureImageBuilder;
        use faults::FaultPlan;

        let mut cloud = SecureCloud::new();
        let plan = FaultPlan::new().at(1_500, FaultKind::ReplicaStall { shard: 0, slot: 0 });
        cloud.set_fault_injector(Arc::new(FaultInjector::with_plan(11, plan)));
        let id = cloud
            .deploy_replicated_kv(ReplicaConfig {
                shards: 1,
                ..ReplicaConfig::default()
            })
            .unwrap();
        let built = SecureImageBuilder::new("elastic-svc", "v1", b"svc code")
            .build()
            .unwrap();
        let image = cloud.deploy_image(built);
        cloud.set_elastic_service_image(image);
        cloud
            .attach_cluster_controller(id, ScalingPolicy::default(), 8)
            .unwrap();
        assert!(cloud.cluster_controller().is_some());
        for _ in 0..4 {
            cloud.advance(1_000);
        }
        // The stalled replica was killed and replaced by the controller.
        let kv = cloud.replicated_kv(id).unwrap();
        assert_eq!(kv.stats().replicas_stalled, 0);
        assert_eq!(kv.live_replicas(), 3);
        // The fleet converged on the policy's service floor.
        assert_eq!(cloud.elastic_fleet().len(), 1);
        let controller = cloud.cluster_controller().unwrap();
        assert!(controller
            .decisions()
            .iter()
            .any(|d| d.contains("killed stalled replica s0/r0")));
    }

    #[test]
    fn with_runtime_none_for_unknown_or_plain() {
        let mut cloud = SecureCloud::new();
        assert!(cloud.with_runtime(ContainerId(77), |_| ()).is_none());
        let plain = containers::image::Image::new("p", "1", b"bin");
        let id = cloud.registry().push(plain);
        let container = cloud.run_container(id).unwrap();
        assert!(cloud.with_runtime(container, |_| ()).is_none());
    }
}
