//! The container engine: lifecycle of plain and secure containers.
//!
//! From the engine's perspective, secure containers are indistinguishable
//! from regular containers (§V-A): both are materialised from registry
//! images onto a per-container untrusted host file system. A secure
//! container additionally launches an enclave from the image entrypoint and
//! runs the SCONE bootstrap (attested SCF provisioning + shielded FS
//! mount) before entering the `Running` state.
//!
//! The engine also **supervises** containers: an aborted container whose
//! [`RestartPolicy`] allows it is restarted on the engine's virtual clock
//! with exponential backoff plus seeded jitter. Every restart launches a
//! *fresh* enclave and re-runs the full attested bootstrap — a restarted
//! container is re-attested from scratch, never resumed. A container that
//! keeps failing past its restart budget is quarantined.

use crate::build::{BuiltImage, PROTECTION_PATH};
use crate::image::{Image, ImageId};
use crate::registry::Registry;
use crate::ContainerError;
use parking_lot::RwLock;
use securecloud_crypto::channel::memory_pair;
use securecloud_faults::{DetRng, FaultInjector};
use securecloud_scone::hostos::{FaultyHost, HostOs, MemHost, Syscall, SyscallRet};
use securecloud_scone::runtime::SconeRuntime;
use securecloud_scone::scf::ConfigService;
use securecloud_sgx::enclave::{EnclaveConfig, Platform};
use securecloud_telemetry::{OwnedSpan, Telemetry, TraceContext};
use std::collections::HashMap;
use std::sync::Arc;

/// Container identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContainerId(pub u64);

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Image materialised, not started.
    Created,
    /// Running (for secure containers: enclave provisioned).
    Running,
    /// Stopped.
    Stopped,
}

/// When the supervisor restarts a container that terminated abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Never restart (the default; matches the pre-supervision engine).
    #[default]
    Never,
    /// Restart after aborts (enclave faults, crashes).
    OnFailure,
    /// Restart after any abnormal termination. Administrative
    /// [`Engine::stop`] never triggers a restart under any policy.
    Always,
}

/// Supervision health, tracked alongside the lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerHealth {
    /// Alive and serving.
    Running,
    /// Terminated abnormally; a restart is scheduled on the virtual clock.
    Backoff,
    /// Not running and no restart scheduled (stopped administratively, or
    /// the policy forbids restarting).
    Failed,
    /// Exhausted its restart budget; the supervisor has given up.
    Quarantined,
}

/// Supervision parameters for one container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// When to restart.
    pub policy: RestartPolicy,
    /// First backoff delay; doubles per restart.
    pub backoff_base_ms: u64,
    /// Upper bound on the exponential backoff.
    pub backoff_cap_ms: u64,
    /// Maximum seeded jitter added to each delay (0 disables jitter).
    pub jitter_ms: u64,
    /// Restart attempts before quarantine.
    pub max_restarts: u32,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            policy: RestartPolicy::Never,
            backoff_base_ms: 100,
            backoff_cap_ms: 10_000,
            jitter_ms: 50,
            max_restarts: 5,
        }
    }
}

/// Resource usage counters, the basis for the paper's "accounting and
/// billing" and for GenPack's monitoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Simulated CPU cycles consumed (secure containers only).
    pub cpu_cycles: u64,
    /// Bytes of image content materialised on the host.
    pub image_bytes: u64,
    /// Host syscalls served.
    pub host_calls: u64,
}

/// A container managed by the [`Engine`].
#[derive(Debug)]
pub struct Container {
    id: ContainerId,
    image: ImageId,
    state: ContainerState,
    host: Arc<MemHost>,
    image_bytes: u64,
    runtime: Option<SconeRuntime>,
    supervision: SupervisionConfig,
    health: ContainerHealth,
    restarts: u32,
    restart_due_ms: Option<u64>,
    last_fault: Option<String>,
    fault_ctx: TraceContext,
}

impl Container {
    /// The container's id.
    #[must_use]
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The image this container was created from.
    #[must_use]
    pub fn image(&self) -> ImageId {
        self.image
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Whether this container hosts an enclave.
    #[must_use]
    pub fn is_secure(&self) -> bool {
        self.runtime.is_some()
    }

    /// The container's untrusted host file system.
    #[must_use]
    pub fn host(&self) -> &Arc<MemHost> {
        &self.host
    }

    /// The SCONE runtime, for secure containers in the `Running` state.
    pub fn runtime_mut(&mut self) -> Option<&mut SconeRuntime> {
        self.runtime.as_mut()
    }

    /// Supervision health.
    #[must_use]
    pub fn health(&self) -> ContainerHealth {
        self.health
    }

    /// How many times the supervisor has restarted this container.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Virtual time of the next scheduled restart, while in backoff.
    #[must_use]
    pub fn restart_due_ms(&self) -> Option<u64> {
        self.restart_due_ms
    }

    /// The most recent fault that took this container down.
    #[must_use]
    pub fn last_fault(&self) -> Option<&str> {
        self.last_fault.as_deref()
    }

    /// Resource usage snapshot.
    #[must_use = "usage is a snapshot; discarding it does nothing"]
    pub fn usage(&mut self) -> ResourceUsage {
        ResourceUsage {
            cpu_cycles: self
                .runtime
                .as_mut()
                .map_or(0, |r| r.enclave_mut().memory().cycles()),
            image_bytes: self.image_bytes,
            host_calls: self.host.call_count(),
        }
    }
}

/// The engine: registry access, platform, configuration service, and the
/// set of managed containers.
#[derive(Debug)]
pub struct Engine {
    registry: Arc<Registry>,
    platform: Platform,
    config_service: Arc<RwLock<ConfigService>>,
    containers: HashMap<ContainerId, Container>,
    next_id: u64,
    now_ms: u64,
    jitter_rng: DetRng,
    injector: Option<Arc<FaultInjector>>,
    telemetry: Option<Arc<Telemetry>>,
}

impl Engine {
    /// Creates an engine over `registry` on `platform`, provisioning SCFs
    /// from `config_service`.
    #[must_use]
    pub fn new(
        registry: Arc<Registry>,
        platform: Platform,
        config_service: Arc<RwLock<ConfigService>>,
    ) -> Self {
        Engine {
            registry,
            platform,
            config_service,
            containers: HashMap::new(),
            next_id: 1,
            now_ms: 0,
            jitter_rng: DetRng::new(0x5EC0_C10D),
            injector: None,
            telemetry: None,
        }
    }

    /// Attaches the shared telemetry: supervision events become trace
    /// events/spans, restart counters feed the registry, and every
    /// subsequently bootstrapped secure runtime is instrumented too. The
    /// engine publishes its virtual clock on each [`Engine::advance`].
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// Current virtual time in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Reseeds the generator used for restart-backoff jitter.
    pub fn set_supervision_seed(&mut self, seed: u64) {
        self.jitter_rng = DetRng::new(seed);
    }

    /// Attaches a fault injector. The engine records supervision events
    /// (aborts, restarts, quarantines) into its trace, and every secure
    /// runtime bootstrapped *after* this call reaches its host through a
    /// [`FaultyHost`], so armed [`FaultKind::SyscallFail`] faults surface
    /// as shield-layer host violations.
    ///
    /// [`FaultKind::SyscallFail`]: securecloud_faults::FaultKind::SyscallFail
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    fn record(&self, line: String) {
        if let Some(injector) = &self.injector {
            injector.record(line);
        }
    }

    /// Publishes a built secure image: pushes it to the registry, registers
    /// its SCF and allows its measurement at the config service. Returns
    /// the image id. (In production, push and SCF registration happen from
    /// the trusted build environment; this helper keeps tests honest about
    /// *what* must be registered where.)
    pub fn deploy(&self, built: BuiltImage) -> ImageId {
        let mut service = self.config_service.write();
        service
            .attestation_mut()
            .allow_measurement(built.measurement);
        service.register(built.measurement, built.scf);
        self.registry.push(built.image)
    }

    /// Creates and starts a container from `image_id`.
    ///
    /// # Errors
    ///
    /// * [`ContainerError::ImageNotFound`] — unknown image,
    /// * [`ContainerError::Start`] — the secure bootstrap failed (bad
    ///   attestation, tampered protection file, missing SCF).
    pub fn run(&mut self, image_id: ImageId) -> Result<ContainerId, ContainerError> {
        self.run_supervised(image_id, SupervisionConfig::default())
    }

    /// Creates and starts a container from `image_id` under `supervision`.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_supervised(
        &mut self,
        image_id: ImageId,
        supervision: SupervisionConfig,
    ) -> Result<ContainerId, ContainerError> {
        let image = self.registry.pull(image_id)?;
        let host = Arc::new(MemHost::new());
        let flat = image.flatten();
        let mut image_bytes = 0u64;
        for (path, content) in &flat {
            image_bytes += content.len() as u64;
            let SyscallRet::Fd(fd) = host.execute(&Syscall::Open {
                path: path.clone(),
                create: true,
            }) else {
                return Err(ContainerError::Start(format!("cannot materialise {path}")));
            };
            host.execute(&Syscall::Pwrite {
                fd,
                offset: 0,
                data: content.clone(),
            });
            host.execute(&Syscall::Close { fd });
        }

        let runtime = if image.secure {
            Some(Self::bootstrap_runtime(
                &self.platform,
                &self.config_service,
                &image,
                &host,
                self.telemetry.as_ref(),
                self.injector.as_ref(),
            )?)
        } else {
            None
        };

        let id = ContainerId(self.next_id);
        self.next_id += 1;
        self.containers.insert(
            id,
            Container {
                id,
                image: image_id,
                state: ContainerState::Running,
                host,
                image_bytes,
                runtime,
                supervision,
                health: ContainerHealth::Running,
                restarts: 0,
                restart_due_ms: None,
                last_fault: None,
                fault_ctx: TraceContext::none(),
            },
        );
        Ok(id)
    }

    /// Launches a fresh enclave from `image` and runs the full attested
    /// SCONE bootstrap against `host`. Used for the first start and for
    /// every supervised restart — re-attestation is never skipped.
    fn bootstrap_runtime(
        platform: &Platform,
        config_service: &Arc<RwLock<ConfigService>>,
        image: &Image,
        host: &Arc<MemHost>,
        telemetry: Option<&Arc<Telemetry>>,
        injector: Option<&Arc<FaultInjector>>,
    ) -> Result<SconeRuntime, ContainerError> {
        let span = telemetry.map(|t| {
            t.counter("securecloud_containers_bootstraps_total").inc();
            OwnedSpan::open_with(
                t.clone(),
                "containers",
                "attested_bootstrap",
                vec![("image", image.reference())],
            )
        });
        let sealed_protection = image
            .flatten()
            .get(PROTECTION_PATH)
            .cloned()
            .ok_or_else(|| ContainerError::Start("secure image lacks FS protection file".into()))?;
        let enclave = platform
            .launch(EnclaveConfig::new(&image.reference(), &image.entrypoint))
            .map_err(|e| ContainerError::Start(e.to_string()))?;
        let (client_t, server_t) = memory_pair();
        let service = Arc::clone(config_service);
        let service_key = service.read().public_key();
        let server = std::thread::spawn(move || service.read().serve_one(server_t));
        // With an injector attached, the runtime's syscalls pass through a
        // FaultyHost so armed SyscallFail faults hit the shield layer.
        let shield = securecloud_scone::syscall::Shield::sync(match injector {
            Some(injector) => Arc::new(FaultyHost::new(Arc::clone(host), Arc::clone(injector))),
            None => host.clone(),
        });
        let runtime =
            SconeRuntime::bootstrap(enclave, client_t, service_key, shield, &sealed_protection);
        let served = server.join().expect("config service thread");
        drop(span);
        match runtime {
            Ok(mut rt) => {
                served.map_err(|e| ContainerError::Start(e.to_string()))?;
                if let Some(t) = telemetry {
                    rt.set_telemetry(t);
                }
                Ok(rt)
            }
            Err(e) => {
                if let Some(t) = telemetry {
                    t.counter("securecloud_containers_bootstrap_failures_total")
                        .inc();
                }
                Err(ContainerError::Start(e.to_string()))
            }
        }
    }

    /// Creates and starts a container by `name:tag`.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_by_reference(&mut self, reference: &str) -> Result<ContainerId, ContainerError> {
        let id = self.registry.resolve(reference)?;
        self.run(id)
    }

    /// Stops a container administratively. For secure containers the
    /// enclave is destroyed. No restart is scheduled, whatever the policy.
    ///
    /// # Errors
    ///
    /// [`ContainerError::ContainerNotFound`] for unknown ids.
    pub fn stop(&mut self, id: ContainerId) -> Result<(), ContainerError> {
        let container = self
            .containers
            .get_mut(&id)
            .ok_or(ContainerError::ContainerNotFound(id))?;
        if let Some(runtime) = &mut container.runtime {
            runtime.enclave_mut().destroy();
        }
        container.state = ContainerState::Stopped;
        container.health = ContainerHealth::Failed;
        container.restart_due_ms = None;
        Ok(())
    }

    /// Aborts a container abnormally (an enclave fault, a crash): the
    /// enclave — and with it all enclave memory — is lost. Under
    /// [`RestartPolicy::Never`] the container is left `Failed`; otherwise a
    /// restart is scheduled with exponential backoff plus seeded jitter.
    ///
    /// # Errors
    ///
    /// [`ContainerError::ContainerNotFound`] for unknown ids.
    pub fn abort(&mut self, id: ContainerId, reason: &str) -> Result<(), ContainerError> {
        self.abort_traced(id, reason, TraceContext::none())
    }

    /// Like [`Engine::abort`], but attributes the abort to a causal trace:
    /// the abort event, every subsequent restart attempt, and an eventual
    /// quarantine all become children of `cause`, so the fault schedule that
    /// killed a container is visible from its restart chain.
    ///
    /// # Errors
    ///
    /// [`ContainerError::ContainerNotFound`] for unknown ids.
    pub fn abort_traced(
        &mut self,
        id: ContainerId,
        reason: &str,
        cause: TraceContext,
    ) -> Result<(), ContainerError> {
        let container = self
            .containers
            .get_mut(&id)
            .ok_or(ContainerError::ContainerNotFound(id))?;
        if let Some(runtime) = &mut container.runtime {
            runtime.enclave_mut().abort(reason);
        }
        container.state = ContainerState::Stopped;
        container.last_fault = Some(reason.to_string());
        container.fault_ctx = cause;
        self.record(format!("container c{} aborted: {reason}", id.0));
        if let Some(t) = &self.telemetry {
            t.counter("securecloud_containers_aborts_total").inc();
            let args = vec![
                ("container", format!("c{}", id.0)),
                ("reason", reason.to_string()),
            ];
            if cause.is_none() {
                t.event("containers", "container_aborted", args);
            } else {
                let leaf = t.mint_child(cause);
                t.event_ctx("containers", "container_aborted", args, leaf);
            }
        }
        match self.containers[&id].supervision.policy {
            RestartPolicy::Never => {
                let container = self.containers.get_mut(&id).expect("present above");
                container.health = ContainerHealth::Failed;
                container.restart_due_ms = None;
            }
            RestartPolicy::OnFailure | RestartPolicy::Always => {
                self.schedule_restart_or_quarantine(id);
            }
        }
        Ok(())
    }

    /// Advances the engine's virtual clock, restarting containers whose
    /// backoff delay has elapsed. Every restart launches a fresh enclave
    /// and re-runs the attested bootstrap on the container's *existing*
    /// host file system (persisted shielded state survives; enclave memory
    /// does not). A restart that itself fails re-enters backoff until the
    /// restart budget quarantines the container.
    pub fn advance(&mut self, ms: u64) {
        self.now_ms += ms;
        if let Some(t) = &self.telemetry {
            t.clock().set_at_least_ms(self.now_ms);
        }
        let now = self.now_ms;
        let mut due: Vec<ContainerId> = self
            .containers
            .iter()
            .filter(|(_, c)| {
                c.health == ContainerHealth::Backoff && c.restart_due_ms.is_some_and(|t| t <= now)
            })
            .map(|(&id, _)| id)
            .collect();
        due.sort_by_key(|id| id.0);
        for id in due {
            let (attempt, fault_ctx) = {
                let container = self.containers.get_mut(&id).expect("listed above");
                container.restarts += 1;
                (container.restarts, container.fault_ctx)
            };
            let span = self.telemetry.clone().map(|t| {
                // A traced abort makes the restart a child span of the fault
                // that caused it; untraced aborts keep the plain span.
                let ctx = if fault_ctx.is_none() {
                    TraceContext::none()
                } else {
                    t.mint_child(fault_ctx)
                };
                OwnedSpan::open_ctx(
                    t,
                    "containers",
                    "restart",
                    vec![
                        ("container", format!("c{}", id.0)),
                        ("attempt", attempt.to_string()),
                    ],
                    ctx,
                )
            });
            match self.try_restart(id) {
                Ok(()) => {
                    self.record(format!("container c{} restarted attempt {attempt}", id.0));
                    if let Some(t) = &self.telemetry {
                        t.counter("securecloud_containers_restarts_total").inc();
                    }
                }
                Err(e) => {
                    self.record(format!(
                        "container c{} restart attempt {attempt} failed: {e}",
                        id.0
                    ));
                    self.schedule_restart_or_quarantine(id);
                }
            }
            drop(span);
        }
    }

    fn try_restart(&mut self, id: ContainerId) -> Result<(), ContainerError> {
        let (image_id, host, secure) = {
            let container = self
                .containers
                .get(&id)
                .ok_or(ContainerError::ContainerNotFound(id))?;
            (
                container.image,
                container.host.clone(),
                container.is_secure(),
            )
        };
        let image = self.registry.pull(image_id)?;
        let runtime = if secure {
            Some(Self::bootstrap_runtime(
                &self.platform,
                &self.config_service,
                &image,
                &host,
                self.telemetry.as_ref(),
                self.injector.as_ref(),
            )?)
        } else {
            None
        };
        let container = self.containers.get_mut(&id).expect("present above");
        container.runtime = runtime;
        container.state = ContainerState::Running;
        container.health = ContainerHealth::Running;
        container.restart_due_ms = None;
        container.fault_ctx = TraceContext::none();
        Ok(())
    }

    fn schedule_restart_or_quarantine(&mut self, id: ContainerId) {
        let now = self.now_ms;
        let container = self.containers.get_mut(&id).expect("caller checked");
        let config = container.supervision;
        let fault_ctx = container.fault_ctx;
        if container.restarts >= config.max_restarts {
            container.health = ContainerHealth::Quarantined;
            container.restart_due_ms = None;
            let restarts = container.restarts;
            self.record(format!(
                "container c{} quarantined after {restarts} restarts",
                id.0
            ));
            if let Some(t) = &self.telemetry {
                t.counter("securecloud_containers_quarantines_total").inc();
                let args = vec![
                    ("container", format!("c{}", id.0)),
                    ("restarts", restarts.to_string()),
                ];
                if fault_ctx.is_none() {
                    t.event("containers", "container_quarantined", args);
                } else {
                    let leaf = t.mint_child(fault_ctx);
                    t.event_ctx("containers", "container_quarantined", args, leaf);
                }
            }
            return;
        }
        let doublings = container.restarts.min(32);
        let exponential = config
            .backoff_base_ms
            .saturating_mul(1u64 << doublings)
            .min(config.backoff_cap_ms);
        let jitter = if config.jitter_ms > 0 {
            self.jitter_rng.below(config.jitter_ms)
        } else {
            0
        };
        let delay = exponential + jitter;
        container.health = ContainerHealth::Backoff;
        container.restart_due_ms = Some(now + delay);
        self.record(format!("container c{} backoff {delay}ms", id.0));
        if let Some(t) = &self.telemetry {
            t.event(
                "containers",
                "backoff_scheduled",
                vec![
                    ("container", format!("c{}", id.0)),
                    ("delay_ms", delay.to_string()),
                ],
            );
        }
    }

    /// Access to a container.
    #[must_use]
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Mutable access to a container.
    pub fn container_mut(&mut self, id: ContainerId) -> Option<&mut Container> {
        self.containers.get_mut(&id)
    }

    /// Ids of all managed containers.
    #[must_use]
    pub fn container_ids(&self) -> Vec<ContainerId> {
        let mut ids: Vec<_> = self.containers.keys().copied().collect();
        ids.sort_by_key(|id| id.0);
        ids
    }

    /// The engine's platform (for attestation wiring in tests).
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::SecureImageBuilder;
    use crate::image::{Image, Layer};
    use securecloud_sgx::attest::AttestationService;

    fn engine() -> Engine {
        let platform = Platform::new();
        let mut attestation = AttestationService::new();
        attestation.register_platform(&platform);
        let config_service = Arc::new(RwLock::new(ConfigService::new(attestation)));
        Engine::new(Arc::new(Registry::new()), platform, config_service)
    }

    fn built_image() -> BuiltImage {
        SecureImageBuilder::new("meter", "v1", b"meter service binary")
            .protect_file("/data/keys", b"secret key material")
            .plain_file("/etc/motd", b"hello")
            .arg("--window=60")
            .env("REGION", "eu")
            .build()
            .unwrap()
    }

    #[test]
    fn secure_container_end_to_end() {
        let mut engine = engine();
        let image_id = engine.deploy(built_image());
        let cid = engine.run(image_id).unwrap();
        let container = engine.container_mut(cid).unwrap();
        assert!(container.is_secure());
        assert_eq!(container.state(), ContainerState::Running);
        let runtime = container.runtime_mut().unwrap();
        assert_eq!(runtime.args(), ["--window=60"]);
        assert_eq!(runtime.env("REGION"), Some("eu"));
        // The protected file is readable inside, ciphertext outside.
        let content = runtime.read_file("/data/keys", 0, 100).unwrap();
        assert_eq!(content, b"secret key material");
        let usage = container.usage();
        assert!(usage.cpu_cycles > 0);
        assert!(usage.image_bytes > 0);
    }

    #[test]
    fn plain_container_runs_without_enclave() {
        let mut engine = engine();
        let image =
            Image::new("plain", "v1", b"bin").with_layer(Layer::new().with_file("/app", b"code"));
        let id = engine.registry.push(image);
        let cid = engine.run(id).unwrap();
        let container = engine.container(cid).unwrap();
        assert!(!container.is_secure());
        assert_eq!(container.state(), ContainerState::Running);
        assert_eq!(container.host().raw_file("/app").unwrap(), b"code");
    }

    #[test]
    fn tampered_registry_image_fails_to_start() {
        let mut engine = engine();
        let built = built_image();
        let measurement = built.measurement;
        let scf = built.scf.clone();
        // Attacker republishes the image with a modified protection file.
        let mut image = built.image.clone();
        let mut evil_layer = Layer::new();
        evil_layer = evil_layer.with_file(PROTECTION_PATH, b"forged protection");
        image.layers.push(evil_layer);
        {
            let mut service = engine.config_service.write();
            service.attestation_mut().allow_measurement(measurement);
            service.register(measurement, scf);
        }
        let id = engine.registry.push(image);
        let err = engine.run(id);
        assert!(matches!(err, Err(ContainerError::Start(_))));
    }

    #[test]
    fn modified_binary_fails_attestation() {
        let mut engine = engine();
        let built = built_image();
        engine.deploy(built.clone());
        // Attacker swaps the entrypoint; measurement changes, SCF withheld.
        let mut evil = built.image.clone();
        evil.entrypoint = b"trojaned binary".to_vec();
        let evil_id = engine.registry.push(evil);
        assert!(matches!(engine.run(evil_id), Err(ContainerError::Start(_))));
    }

    #[test]
    fn unknown_image_and_container() {
        let mut engine = engine();
        assert!(matches!(
            engine.run(ImageId([9u8; 32])),
            Err(ContainerError::ImageNotFound(_))
        ));
        assert!(matches!(
            engine.run_by_reference("ghost:latest"),
            Err(ContainerError::ImageNotFound(_))
        ));
        assert!(matches!(
            engine.stop(ContainerId(404)),
            Err(ContainerError::ContainerNotFound(_))
        ));
    }

    #[test]
    fn stop_destroys_enclave() {
        let mut engine = engine();
        let image_id = engine.deploy(built_image());
        let cid = engine.run(image_id).unwrap();
        engine.stop(cid).unwrap();
        let container = engine.container_mut(cid).unwrap();
        assert_eq!(container.state(), ContainerState::Stopped);
        let runtime = container.runtime_mut().unwrap();
        assert!(runtime.enclave().is_destroyed());
        assert!(
            runtime.read_file("/data/keys", 0, 1).is_err(),
            "destroyed enclave must not serve shielded reads"
        );
    }

    #[test]
    fn secure_state_survives_restart_via_new_container() {
        // Persisted shielded writes travel with the host FS, and a new
        // container from the same image starts cleanly.
        let mut engine = engine();
        let image_id = engine.deploy(built_image());
        let c1 = engine.run(image_id).unwrap();
        engine.stop(c1).unwrap();
        let c2 = engine.run(image_id).unwrap();
        let container = engine.container_mut(c2).unwrap();
        let runtime = container.runtime_mut().unwrap();
        assert_eq!(
            runtime.read_file("/data/keys", 0, 100).unwrap(),
            b"secret key material"
        );
    }

    #[test]
    fn container_ids_listed_in_order() {
        let mut engine = engine();
        let image_id = engine.deploy(built_image());
        let a = engine.run(image_id).unwrap();
        let b = engine.run(image_id).unwrap();
        assert_eq!(engine.container_ids(), vec![a, b]);
    }

    fn supervised(policy: RestartPolicy) -> SupervisionConfig {
        SupervisionConfig {
            policy,
            backoff_base_ms: 100,
            backoff_cap_ms: 1_000,
            jitter_ms: 0, // exact delays, for assertions
            max_restarts: 3,
        }
    }

    #[test]
    fn abort_without_policy_fails_permanently() {
        let mut engine = engine();
        let image_id = engine.deploy(built_image());
        let cid = engine.run(image_id).unwrap();
        engine.abort(cid, "machine fault").unwrap();
        let container = engine.container(cid).unwrap();
        assert_eq!(container.health(), ContainerHealth::Failed);
        assert_eq!(container.last_fault(), Some("machine fault"));
        engine.advance(1_000_000);
        assert_eq!(
            engine.container(cid).unwrap().state(),
            ContainerState::Stopped,
            "RestartPolicy::Never never restarts"
        );
    }

    #[test]
    fn aborted_container_restarts_with_fresh_attested_enclave() {
        let mut engine = engine();
        let image_id = engine.deploy(built_image());
        let cid = engine
            .run_supervised(image_id, supervised(RestartPolicy::OnFailure))
            .unwrap();
        let old_enclave_id = {
            let container = engine.container_mut(cid).unwrap();
            container.runtime_mut().unwrap().enclave().id()
        };
        engine.abort(cid, "injected enclave abort").unwrap();
        {
            let container = engine.container_mut(cid).unwrap();
            assert_eq!(container.health(), ContainerHealth::Backoff);
            assert_eq!(container.restart_due_ms(), Some(100), "base backoff");
            let runtime = container.runtime_mut().unwrap();
            assert!(runtime.enclave().is_aborted());
        }
        // Not yet due.
        engine.advance(99);
        assert_eq!(
            engine.container(cid).unwrap().health(),
            ContainerHealth::Backoff
        );
        // Due: restarted, re-bootstrapped, fresh enclave.
        engine.advance(1);
        let container = engine.container_mut(cid).unwrap();
        assert_eq!(container.health(), ContainerHealth::Running);
        assert_eq!(container.state(), ContainerState::Running);
        assert_eq!(container.restarts(), 1);
        let runtime = container.runtime_mut().unwrap();
        assert_ne!(runtime.enclave().id(), old_enclave_id, "fresh enclave");
        assert!(!runtime.enclave().is_aborted());
        // Re-attestation succeeded: the SCF was re-provisioned and the
        // shielded FS remounted over the surviving host file system.
        assert_eq!(
            runtime.read_file("/data/keys", 0, 100).unwrap(),
            b"secret key material"
        );
    }

    #[test]
    fn backoff_doubles_and_quarantines_at_budget() {
        let mut engine = engine();
        let image_id = engine.deploy(built_image());
        let cid = engine
            .run_supervised(image_id, supervised(RestartPolicy::Always))
            .unwrap();
        // Crash-loop: abort immediately after each restart.
        let mut expected_delays = Vec::new();
        for round in 0..3 {
            engine.abort(cid, "crash loop").unwrap();
            let container = engine.container(cid).unwrap();
            assert_eq!(container.health(), ContainerHealth::Backoff);
            let due = container.restart_due_ms().unwrap();
            expected_delays.push(due - engine.now_ms());
            engine.advance(due - engine.now_ms());
            assert_eq!(
                engine.container(cid).unwrap().health(),
                ContainerHealth::Running,
                "restart {round} came back"
            );
        }
        assert_eq!(expected_delays, vec![100, 200, 400], "exponential backoff");
        // Fourth abort: restart budget (3) is spent -> quarantine.
        engine.abort(cid, "crash loop").unwrap();
        let container = engine.container(cid).unwrap();
        assert_eq!(container.health(), ContainerHealth::Quarantined);
        assert_eq!(container.restart_due_ms(), None);
        engine.advance(1_000_000);
        assert_eq!(
            engine.container(cid).unwrap().health(),
            ContainerHealth::Quarantined,
            "quarantine is terminal"
        );
    }

    #[test]
    fn backoff_jitter_is_seeded_and_bounded() {
        let delays = |seed: u64| {
            let mut engine = engine();
            engine.set_supervision_seed(seed);
            let image_id = engine.deploy(built_image());
            let config = SupervisionConfig {
                jitter_ms: 50,
                max_restarts: 10,
                ..supervised(RestartPolicy::OnFailure)
            };
            let cid = engine.run_supervised(image_id, config).unwrap();
            let mut delays = Vec::new();
            for _ in 0..4 {
                engine.abort(cid, "x").unwrap();
                let due = engine.container(cid).unwrap().restart_due_ms().unwrap();
                delays.push(due - engine.now_ms());
                engine.advance(due - engine.now_ms());
            }
            delays
        };
        let a = delays(7);
        assert_eq!(a, delays(7), "same seed, same jitter");
        for (i, &delay) in a.iter().enumerate() {
            let exponential = 100u64 << i;
            assert!(
                delay >= exponential && delay < exponential + 50,
                "delay {delay} outside [{exponential}, {exponential}+50)"
            );
        }
    }

    #[test]
    fn traced_abort_links_restart_chain_to_cause() {
        let mut engine = engine();
        let telemetry = Arc::new(Telemetry::new());
        telemetry.set_trace_seed(42);
        engine.set_telemetry(telemetry.clone());
        let image_id = engine.deploy(built_image());
        let cid = engine
            .run_supervised(image_id, supervised(RestartPolicy::OnFailure))
            .unwrap();
        let cause = telemetry.mint_root();
        engine.abort_traced(cid, "injected fault", cause).unwrap();
        let due = engine.container(cid).unwrap().restart_due_ms().unwrap();
        engine.advance(due - engine.now_ms());
        assert_eq!(
            engine.container(cid).unwrap().health(),
            ContainerHealth::Running
        );
        let events = telemetry.trace_events();
        let aborted = events
            .iter()
            .find(|e| e.name == "container_aborted")
            .unwrap();
        assert_eq!(aborted.trace_id, cause.trace_id);
        assert_eq!(aborted.parent_span_id, cause.span_id);
        let restart = events
            .iter()
            .find(|e| e.name == "restart" && e.phase == securecloud_telemetry::Phase::Begin)
            .unwrap();
        assert_eq!(
            restart.trace_id, cause.trace_id,
            "restart joins the fault's trace"
        );
        assert_eq!(restart.parent_span_id, cause.span_id);
        // After a successful restart the cause is consumed: a later untraced
        // abort produces an untraced abort event.
        engine.abort(cid, "plain fault").unwrap();
        let plain = telemetry
            .trace_events()
            .into_iter()
            .rev()
            .find(|e| e.name == "container_aborted")
            .unwrap();
        assert_eq!(plain.trace_id, 0);
    }

    #[test]
    fn administrative_stop_never_restarts() {
        let mut engine = engine();
        let image_id = engine.deploy(built_image());
        let cid = engine
            .run_supervised(image_id, supervised(RestartPolicy::Always))
            .unwrap();
        engine.stop(cid).unwrap();
        let container = engine.container(cid).unwrap();
        assert_eq!(container.health(), ContainerHealth::Failed);
        engine.advance(1_000_000);
        assert_eq!(
            engine.container(cid).unwrap().state(),
            ContainerState::Stopped
        );
    }
}
