//! The unified deployment API (the repo's single front door).
//!
//! The paper's user contract is Listing 1's three lines — configure, then
//! `run(query)`. This module is that contract for every execution mode the
//! repro supports: one [`DeploymentBuilder`] validates a workload +
//! strategy + resources into a typed [`DeploymentSpec`], and a pluggable
//! [`ExecBackend`] executes it.
//!
//! * [`EmulatedBackend`] — the deterministic calibrated emulator
//!   (`engine::block`), modelling CPU budgets, uplinks, and latency bounds.
//! * [`LiveBackend`] — real threads and channels (`live::session`), driving
//!   the Jarvis runtime state machine each epoch and proving exactness.
//!
//! Both consume the same spec and produce the same [`RunReport`], which is
//! what lets tests assert backend parity.
//!
//! ```
//! use jarvis_core::calibration::Scale;
//! use jarvis_core::deploy::{BackendKind, Deployment};
//! use jarvis_core::experiment::ScenarioSpec;
//! use jarvis_core::strategy::StrategyKind;
//!
//! let report = Deployment::builder()
//!     .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
//!     .strategy(StrategyKind::Jarvis)
//!     .sources(1)
//!     .cpu_budget(0.6)
//!     .backend(BackendKind::Emulated)
//!     .build()
//!     .unwrap()
//!     .run(25)
//!     .unwrap();
//! assert!(report.throughput_mbps > 0.0);
//! ```

mod backend;
pub mod remote;
mod report;
mod workload;

// Used by crate-internal tests (checkpoint fault-injection blocks).
#[cfg_attr(not(test), allow(unused_imports))]
pub(crate) use backend::build_block;

use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub use backend::{EmulatedBackend, ExecBackend, LiveBackend};
pub use report::{
    CanonicalRows, ExactnessDigest, FaultIncident, NodeStat, ResultRows, RunReport, ShardStat,
};
pub use workload::{CustomWorkload, SourceAdapter};

use crate::calibration;
use crate::engine::block::NetworkModel;
use crate::experiment::ResourceEvent;
use crate::fault::FaultPlan;
use crate::planner::RuleConfig;
use crate::strategy::StrategyKind;

/// Largest supported `sp_shards` value: beyond this, per-shard channel and
/// pipeline overhead dwarfs any realistic SP parallelism.
pub const MAX_SP_SHARDS: u32 = 64;

/// Largest supported `rt_workers` value: beyond any real host's core count,
/// a larger pool only adds idle parked threads.
pub const MAX_RT_WORKERS: u32 = 1024;

/// Which built-in backend executes the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic calibrated emulation (throughput/latency modelling).
    Emulated,
    /// Threaded execution over real channels (exactness under concurrency).
    Live,
}

impl BackendKind {
    /// Display name, matching [`RunReport::backend`].
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Emulated => "emulated",
            BackendKind::Live => "live",
        }
    }
}

/// How the live backend's SP tier is wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Bounded in-process channels emulating the node links (the PR-5
    /// runtime; single process).
    #[default]
    InProcess,
    /// Real framed TCP sockets to remote `jarvis-node` executors that
    /// registered against [`DeploymentBuilder::listen_addr`].
    Tcp,
}

impl TransportKind {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::InProcess => "in-process",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Registration/collection deadline default for TCP deployments.
const DEFAULT_NODE_TIMEOUT: Duration = Duration::from_secs(60);
/// Default epoch-acknowledgement (liveness) deadline for TCP deployments.
const DEFAULT_LIVENESS_TIMEOUT: Duration = Duration::from_secs(30);

/// What the coordinator does when a remote SP node is lost mid-run (its
/// link breaks, or it misses the liveness deadline) and no reconnect
/// arrives within [`DeploymentBuilder::reconnect_grace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnNodeLoss {
    /// Fail the run with [`DeployError::NodeFailed`] (the pre-fault
    /// behaviour; safest default).
    #[default]
    Fail,
    /// Re-ship the lost shards' last acked checkpoint plus replayed
    /// post-checkpoint traffic to surviving nodes via the consistent-hash
    /// ring — the run completes with bit-identical results.
    Reassign,
    /// Carry on without the lost shards: their contribution is marked
    /// absent via per-shard [`ShardStat::completeness`] and the run's
    /// [`RunReport::incidents`], never silently dropped.
    Degrade,
}

impl OnNodeLoss {
    /// Display name (incident reports, policy tables).
    pub fn label(self) -> &'static str {
        match self {
            OnNodeLoss::Fail => "fail",
            OnNodeLoss::Reassign => "reassign",
            OnNodeLoss::Degrade => "degrade",
        }
    }
}

/// Why a builder rejected its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployError {
    /// No workload supplied.
    MissingWorkload,
    /// `sources` was zero.
    NoSources,
    /// CPU budget not a positive finite core fraction.
    InvalidCpuBudget {
        /// The rejected value.
        got: f64,
    },
    /// `sp_shards` outside the supported range.
    InvalidShardCount {
        /// The rejected value.
        got: u32,
        /// Largest supported shard count.
        max: u32,
    },
    /// `sp_nodes` outside `1..=sp_shards`: nodes own contiguous slices of
    /// the fixed shard ring, so a cluster wider than the ring has idle
    /// nodes by construction.
    InvalidNodeCount {
        /// The rejected value.
        got: u32,
        /// The ring width it must divide into non-empty slices.
        shards: u32,
    },
    /// The static plan analyzer found error-severity diagnostics: the
    /// deployment would be incorrect (key-provenance or mergeability
    /// violations) or cannot run (infeasible shard/node/transport knobs).
    PlanCheck(
        /// The error diagnostics, sorted by operator index.
        Vec<crate::plancheck::Diagnostic>,
    ),
    /// A pinned load factor outside `[0, 1]`.
    InvalidLoadFactor {
        /// Index in the supplied vector.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// Pinned load-factor count does not match the source-eligible prefix.
    LoadFactorArity {
        /// Source-side operators in the planned query.
        expected: usize,
        /// Supplied factor count.
        got: usize,
    },
    /// Pinned load factors combined with a strategy that adapts them.
    FixedFactorsWithAdaptiveStrategy {
        /// The adaptive strategy.
        strategy: StrategyKind,
    },
    /// Query planning failed (invalid plan, rule violation).
    Plan(String),
    /// A TCP deployment without a parseable `listen_addr`.
    InvalidEndpoint {
        /// The rejected endpoint (or `"(none)"`).
        got: String,
    },
    /// A peer connected but failed the versioned handshake (wrong protocol
    /// version, bad auth token, or a node id out of range or taken). A peer
    /// whose registration does not parse is dropped instead, like any other
    /// connection that does not speak the protocol.
    HandshakeFailed {
        /// The peer's address.
        peer: String,
        /// What went wrong.
        reason: String,
    },
    /// Too few nodes registered (or reported back) before the deadline.
    NodeTimeout {
        /// How long the coordinator waited.
        waited_ms: u64,
        /// Nodes that made it.
        registered: u32,
        /// Nodes the spec requires.
        expected: u32,
    },
    /// A registered node died or misbehaved mid-run.
    NodeFailed {
        /// The node id.
        node: u32,
        /// What happened.
        reason: String,
    },
    /// A node registered, then its connection died before the deployment
    /// was fully admitted (pre-`Ready`), so the run can never start.
    NodeLost {
        /// The node id.
        node: u32,
        /// What happened to the connection.
        reason: String,
    },
    /// `rt_workers` zero or beyond [`MAX_RT_WORKERS`].
    InvalidRtWorkers {
        /// The rejected value.
        got: u32,
        /// Largest supported worker count.
        max: u32,
    },
    /// An `auth_token` no node can present: the `Register` carrying it
    /// encodes past the coordinator's first-frame limit, so every
    /// registration would be dropped unread.
    AuthTokenTooLong {
        /// Encoded `Register` body carrying the token, bytes
        /// ([`remote::Register::max_body_len`]).
        register_len: usize,
        /// The first-frame limit, bytes ([`remote::MAX_REGISTER_LEN`]).
        max: usize,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::MissingWorkload => write!(f, "deployment needs a workload"),
            DeployError::NoSources => write!(f, "deployment needs at least one data source"),
            DeployError::InvalidCpuBudget { got } => {
                write!(
                    f,
                    "CPU budget must be a positive finite core fraction, got {got}"
                )
            }
            DeployError::InvalidShardCount { got, max } => {
                write!(f, "sp_shards must be in 1..={max}, got {got}")
            }
            DeployError::InvalidNodeCount { got, shards } => {
                write!(
                    f,
                    "sp_nodes must be in 1..=sp_shards (= {shards}), got {got}"
                )
            }
            DeployError::PlanCheck(diags) => {
                write!(
                    f,
                    "plan check failed with {} error(s):\n{}",
                    diags.len(),
                    crate::plancheck::render(diags)
                )
            }
            DeployError::InvalidLoadFactor { index, value } => {
                write!(f, "load factor {value} at index {index} is outside [0, 1]")
            }
            DeployError::LoadFactorArity { expected, got } => {
                write!(
                    f,
                    "{got} load factors supplied for {expected} source operators"
                )
            }
            DeployError::FixedFactorsWithAdaptiveStrategy { strategy } => write!(
                f,
                "{} adapts load factors at runtime; pinned factors require a fixed strategy",
                strategy.label()
            ),
            DeployError::Plan(msg) => write!(f, "query planning failed: {msg}"),
            DeployError::InvalidEndpoint { got } => {
                write!(f, "TCP transport needs a bindable listen_addr, got {got}")
            }
            DeployError::HandshakeFailed { peer, reason } => {
                write!(f, "handshake with {peer} failed: {reason}")
            }
            DeployError::NodeTimeout {
                waited_ms,
                registered,
                expected,
            } => write!(
                f,
                "{registered}/{expected} nodes checked in within {waited_ms} ms"
            ),
            DeployError::NodeFailed { node, reason } => {
                write!(f, "node {node} failed: {reason}")
            }
            DeployError::NodeLost { node, reason } => {
                write!(
                    f,
                    "node {node} was lost before the deployment started: {reason}"
                )
            }
            DeployError::InvalidRtWorkers { got, max } => {
                write!(f, "rt_workers must be in 1..={max}, got {got}")
            }
            DeployError::AuthTokenTooLong { register_len, max } => write!(
                f,
                "auth_token too long: a node's Register carrying it encodes to {register_len} B, \
                 past the coordinator's {max} B first-frame limit"
            ),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<streamkit::error::Error> for DeployError {
    fn from(e: streamkit::error::Error) -> DeployError {
        DeployError::Plan(e.to_string())
    }
}

/// A validated deployment: what to run, where, with which resources.
#[derive(Clone)]
pub struct DeploymentSpec {
    /// The workload (query + generators + costs).
    pub workload: Arc<dyn SourceAdapter>,
    /// Partitioning strategy.
    pub strategy: StrategyKind,
    /// Number of data sources.
    pub sources: u32,
    /// CPU available to the query on each source, core fraction.
    pub cpu_budget: f64,
    /// Virtual shards on the SP tier's fixed hash ring (1 = the unsharded
    /// chain).
    pub sp_shards: u32,
    /// SP nodes dividing the ring into contiguous slices (1 = single node).
    pub sp_nodes: u32,
    /// Uplink topology between sources and the stream processor.
    pub network: NetworkModel,
    /// Operator-eligibility rules (R-1..R-4).
    pub rules: RuleConfig,
    /// The query planned under those rules (done once, at validation).
    pub planned: crate::planner::PlannedQuery,
    /// Warning-severity plancheck diagnostics (errors refuse the build);
    /// copied into [`RunReport::plan_warnings`] by [`Deployment::run`].
    pub plan_warnings: Vec<crate::plancheck::Diagnostic>,
    /// Base RNG seed for per-source engines.
    pub seed: u64,
    /// Pinned per-proxy load factors (fixed-allocation deployments only).
    pub fixed_load_factors: Option<Vec<f64>>,
    /// Scheduled resource changes (convergence experiments).
    pub events: Vec<ResourceEvent>,
    /// Retain merged result rows and fingerprint them (exactness checks).
    pub collect_results: bool,
    /// How the live SP tier is wired (in-process channels or real TCP).
    pub transport: TransportKind,
    /// Coordinator listen endpoint (TCP transport only; validated).
    pub listen_addr: Option<SocketAddr>,
    /// Shared-secret token nodes must present (empty disables auth).
    pub auth_token: String,
    /// Registration and result-collection deadline (TCP transport only).
    pub node_timeout: Duration,
    /// Policy when a remote node is lost mid-run (TCP transport only).
    pub on_node_loss: OnNodeLoss,
    /// Epoch-acknowledgement deadline: a node that neither acks the epoch
    /// nor answers heartbeats within this window is declared down.
    pub liveness_timeout: Duration,
    /// Checkpoint every N epochs (0 disables SP-tier checkpointing; lost
    /// shards are then replayed from epoch 0).
    pub checkpoint_interval: u64,
    /// How long the coordinator holds a lost node's shards for the same
    /// node id to re-register before applying [`OnNodeLoss`]
    /// (zero disables reconnect recovery).
    pub reconnect_grace: Duration,
    /// Deterministic fault-injection schedule (tests/chaos runs only).
    pub fault_plan: Option<FaultPlan>,
    /// Executor worker threads of the live session's task runtime
    /// (`None` sizes to the host's available parallelism).
    pub rt_workers: Option<u32>,
}

impl fmt::Debug for DeploymentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeploymentSpec")
            .field("workload", &self.workload.name())
            .field("strategy", &self.strategy)
            .field("sources", &self.sources)
            .field("cpu_budget", &self.cpu_budget)
            .field("sp_shards", &self.sp_shards)
            .field("sp_nodes", &self.sp_nodes)
            .field("network", &self.network)
            .field("fixed_load_factors", &self.fixed_load_factors)
            .field("events", &self.events)
            .field("collect_results", &self.collect_results)
            .field("transport", &self.transport)
            .field("listen_addr", &self.listen_addr)
            .field("on_node_loss", &self.on_node_loss)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("reconnect_grace", &self.reconnect_grace)
            .field("rt_workers", &self.rt_workers)
            .field("fault_plan", &self.fault_plan)
            .finish()
    }
}

/// Builder for [`Deployment`] (and bare [`DeploymentSpec`]s).
pub struct DeploymentBuilder {
    workload: Option<Arc<dyn SourceAdapter>>,
    strategy: StrategyKind,
    sources: u32,
    cpu_budget: f64,
    sp_shards: u32,
    sp_nodes: u32,
    network: Option<NetworkModel>,
    rules: RuleConfig,
    seed: u64,
    fixed_load_factors: Option<Vec<f64>>,
    events: Vec<ResourceEvent>,
    collect_results: bool,
    backend: BackendKind,
    transport: TransportKind,
    listen_addr: Option<String>,
    auth_token: String,
    node_timeout: Duration,
    on_node_loss: OnNodeLoss,
    liveness_timeout: Duration,
    checkpoint_interval: u64,
    reconnect_grace: Duration,
    fault_plan: Option<FaultPlan>,
    rt_workers: Option<u32>,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        DeploymentBuilder {
            workload: None,
            strategy: StrategyKind::Jarvis,
            sources: 1,
            cpu_budget: 0.5,
            sp_shards: 1,
            sp_nodes: 1,
            network: None,
            rules: RuleConfig::default(),
            seed: 17,
            fixed_load_factors: None,
            events: Vec::new(),
            collect_results: false,
            backend: BackendKind::Emulated,
            transport: TransportKind::InProcess,
            listen_addr: None,
            auth_token: String::new(),
            node_timeout: DEFAULT_NODE_TIMEOUT,
            on_node_loss: OnNodeLoss::Fail,
            liveness_timeout: DEFAULT_LIVENESS_TIMEOUT,
            checkpoint_interval: 0,
            reconnect_grace: Duration::ZERO,
            fault_plan: None,
            rt_workers: None,
        }
    }
}

impl DeploymentBuilder {
    /// Sets the workload.
    pub fn workload(mut self, workload: impl SourceAdapter + 'static) -> Self {
        self.workload = Some(Arc::new(workload));
        self
    }

    /// Sets a shared workload handle (avoids re-wrapping).
    pub fn workload_arc(mut self, workload: Arc<dyn SourceAdapter>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets the partitioning strategy (default [`StrategyKind::Jarvis`]).
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the number of data sources (default 1).
    pub fn sources(mut self, sources: u32) -> Self {
        self.sources = sources;
        self
    }

    /// Sets the per-source CPU budget in core fractions (default 0.5).
    pub fn cpu_budget(mut self, fraction: f64) -> Self {
        self.cpu_budget = fraction;
        self
    }

    /// Sets the number of virtual shards on the SP tier's fixed hash ring
    /// (default 1 = the unsharded chain). Live backend only: the emulated
    /// backend models the paper's single stream processor and refuses
    /// `sp_shards > 1` with `JP305`. Sharded runs partition
    /// every batch by the plan's group keys at its stateful boundary and
    /// stay exact; see `tests/shard_parity.rs`.
    pub fn sp_shards(mut self, shards: u32) -> Self {
        self.sp_shards = shards;
        self
    }

    /// Sets the number of SP nodes the hash ring is divided over (default
    /// 1 = a single-node SP). Live backend only, like
    /// [`DeploymentBuilder::sp_shards`] (`JP305` otherwise). Each node owns
    /// a contiguous slice of the `sp_shards` ring; remote-shard traffic
    /// crosses nodes as `NetPayload::ShardBatch` / `ShardState` payloads.
    /// The key → shard mapping is node-count-independent, so results are
    /// bit-identical at any node count; see `tests/node_parity.rs`.
    pub fn sp_nodes(mut self, nodes: u32) -> Self {
        self.sp_nodes = nodes;
        self
    }

    /// Sets the uplink topology (default: the paper's dedicated
    /// per-source-per-query 20.48 Mbps share).
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets the operator-eligibility rules.
    pub fn rules(mut self, rules: RuleConfig) -> Self {
        self.rules = rules;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins per-proxy load factors (only valid with non-adaptive
    /// strategies; adaptive runtimes would immediately override them).
    pub fn load_factors(mut self, factors: Vec<f64>) -> Self {
        self.fixed_load_factors = Some(factors);
        self
    }

    /// Schedules resource-condition changes (Fig. 8 experiments).
    pub fn events(mut self, events: &[ResourceEvent]) -> Self {
        self.events = events.to_vec();
        self
    }

    /// Retains merged result rows and fingerprints them (exactness checks).
    pub fn collect_results(mut self, collect: bool) -> Self {
        self.collect_results = collect;
        self
    }

    /// Selects the execution backend (default [`BackendKind::Emulated`]).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the live SP transport (default
    /// [`TransportKind::InProcess`]). [`TransportKind::Tcp`] makes the live
    /// backend listen on [`DeploymentBuilder::listen_addr`] and dispatch
    /// shard traffic to registered remote `jarvis-node` executors instead
    /// of in-process node threads.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the coordinator's listen endpoint for TCP deployments, e.g.
    /// `"127.0.0.1:7441"`. Required when the transport is
    /// [`TransportKind::Tcp`].
    pub fn listen_addr(mut self, addr: impl Into<String>) -> Self {
        self.listen_addr = Some(addr.into());
        self
    }

    /// Sets the shared-secret token remote nodes must present at
    /// registration (default empty = auth disabled). The coordinator reads
    /// at most [`remote::MAX_REGISTER_LEN`] bytes of a connection's first
    /// frame, so [`DeploymentBuilder::spec`] refuses a TCP deployment whose
    /// token's encoded `Register` would not fit ([`DeployError::AuthTokenTooLong`]): a
    /// little under 4 KiB of plain ASCII, less where JSON escapes it.
    pub fn auth_token(mut self, token: impl Into<String>) -> Self {
        self.auth_token = token.into();
        self
    }

    /// Sets the deadline for all `sp_nodes` registrations (and later for
    /// final result collection; default 60 s).
    pub fn node_timeout(mut self, timeout: Duration) -> Self {
        self.node_timeout = timeout;
        self
    }

    /// Sets the policy applied when a remote SP node is lost mid-run and no
    /// reconnect arrives (default [`OnNodeLoss::Fail`]).
    pub fn on_node_loss(mut self, policy: OnNodeLoss) -> Self {
        self.on_node_loss = policy;
        self
    }

    /// Sets the epoch-acknowledgement (liveness) deadline: how long the
    /// coordinator waits for an epoch's `Progress` acks — sending heartbeat
    /// pings while it waits — before declaring silent nodes down
    /// (default 30 s).
    pub fn liveness_timeout(mut self, timeout: Duration) -> Self {
        self.liveness_timeout = timeout;
        self
    }

    /// Checkpoints each remote node's shard state every `interval` epochs
    /// (default 0 = off). Checkpoints bound how much post-checkpoint
    /// traffic the coordinator must buffer and replay on recovery — the
    /// §IV-E frequency-vs-traffic trade-off; without them recovery replays
    /// from epoch 0.
    pub fn checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Holds a lost node's shards for the same node id to re-register
    /// (same token, capped-backoff retry on the node side) before applying
    /// the [`OnNodeLoss`] policy (default 0 = reconnects disabled).
    pub fn reconnect_grace(mut self, grace: Duration) -> Self {
        self.reconnect_grace = grace;
        self
    }

    /// Arms a deterministic fault-injection schedule on the coordinator's
    /// links (tests and chaos runs; default none).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Pins the live session's executor to `workers` worker threads
    /// (default: the host's available parallelism). Validated into
    /// `1..=`[`MAX_RT_WORKERS`].
    pub fn rt_workers(mut self, workers: u32) -> Self {
        self.rt_workers = Some(workers);
        self
    }

    /// Validates into a bare [`DeploymentSpec`] (advanced use: driving a
    /// backend by hand, e.g. fault-injection tests stepping the emulator).
    pub fn spec(&self) -> Result<DeploymentSpec, DeployError> {
        let workload = self.workload.clone().ok_or(DeployError::MissingWorkload)?;
        if self.sources == 0 {
            return Err(DeployError::NoSources);
        }
        if !(self.cpu_budget.is_finite() && self.cpu_budget > 0.0) {
            return Err(DeployError::InvalidCpuBudget {
                got: self.cpu_budget,
            });
        }
        if !(1..=MAX_SP_SHARDS).contains(&self.sp_shards) {
            return Err(DeployError::InvalidShardCount {
                got: self.sp_shards,
                max: MAX_SP_SHARDS,
            });
        }
        if !(1..=self.sp_shards).contains(&self.sp_nodes) {
            return Err(DeployError::InvalidNodeCount {
                got: self.sp_nodes,
                shards: self.sp_shards,
            });
        }
        if let Some(workers) = self.rt_workers {
            if !(1..=MAX_RT_WORKERS).contains(&workers) {
                return Err(DeployError::InvalidRtWorkers {
                    got: workers,
                    max: MAX_RT_WORKERS,
                });
            }
        }
        // Planning validates the query and fixes the source-eligible prefix.
        let planned = crate::planner::plan_query(workload.logical_plan(), &self.rules)?;
        // Static plan analysis: key provenance across the shard boundary,
        // state mergeability under the chosen strategy, and shard/node/
        // transport feasibility. Errors refuse the build; warnings ride
        // along into the run report.
        let ctx = crate::plancheck::CheckContext {
            sp_shards: self.sp_shards,
            sp_nodes: self.sp_nodes,
            strategy: self.strategy,
            backend: self.backend,
            tcp: self.transport == TransportKind::Tcp,
            has_events: !self.events.is_empty(),
            remote_describable: workload.remote_workload().is_some(),
            workload: workload.name().to_string(),
            on_node_loss: self.on_node_loss,
            checkpointing: self.checkpoint_interval > 0,
        };
        let diagnostics = crate::plancheck::check(&planned, &self.rules, &ctx);
        if crate::plancheck::has_errors(&diagnostics) {
            return Err(DeployError::PlanCheck(
                diagnostics
                    .into_iter()
                    .filter(|d| d.severity == crate::plancheck::Severity::Error)
                    .collect(),
            ));
        }
        let plan_warnings: Vec<crate::plancheck::Diagnostic> = diagnostics
            .into_iter()
            .filter(|d| d.severity == crate::plancheck::Severity::Warning)
            .collect();
        if let Some(factors) = &self.fixed_load_factors {
            if self.strategy.is_adaptive() {
                return Err(DeployError::FixedFactorsWithAdaptiveStrategy {
                    strategy: self.strategy,
                });
            }
            if factors.len() != planned.source_ops {
                return Err(DeployError::LoadFactorArity {
                    expected: planned.source_ops,
                    got: factors.len(),
                });
            }
            for (index, &value) in factors.iter().enumerate() {
                if !(0.0..=1.0).contains(&value) || value.is_nan() {
                    return Err(DeployError::InvalidLoadFactor { index, value });
                }
            }
        }
        let mut listen_addr = None;
        if self.transport == TransportKind::Tcp {
            // Feature feasibility (live backend, no events, describable
            // workload) was checked by plancheck above; what remains is the
            // endpoint and the token.
            let raw = self
                .listen_addr
                .clone()
                .ok_or(DeployError::InvalidEndpoint {
                    got: "(none)".to_string(),
                })?;
            listen_addr = Some(
                raw.parse::<SocketAddr>()
                    .map_err(|_| DeployError::InvalidEndpoint { got: raw.clone() })?,
            );
            // The token rides in a node's first frame, which the
            // coordinator reads only up to a limit.
            let register_len = remote::Register::max_body_len(&self.auth_token);
            if register_len > remote::MAX_REGISTER_LEN {
                return Err(DeployError::AuthTokenTooLong {
                    register_len,
                    max: remote::MAX_REGISTER_LEN,
                });
            }
        }
        Ok(DeploymentSpec {
            workload,
            strategy: self.strategy,
            sources: self.sources,
            cpu_budget: self.cpu_budget,
            sp_shards: self.sp_shards,
            sp_nodes: self.sp_nodes,
            network: self.network.unwrap_or(NetworkModel::PerSource {
                bps: calibration::per_query_per_node_bps(),
            }),
            rules: self.rules.clone(),
            planned,
            plan_warnings,
            seed: self.seed,
            fixed_load_factors: self.fixed_load_factors.clone(),
            events: self.events.clone(),
            collect_results: self.collect_results,
            transport: self.transport,
            listen_addr,
            auth_token: self.auth_token.clone(),
            node_timeout: self.node_timeout,
            on_node_loss: self.on_node_loss,
            liveness_timeout: self.liveness_timeout,
            checkpoint_interval: self.checkpoint_interval,
            reconnect_grace: self.reconnect_grace,
            fault_plan: self.fault_plan.clone(),
            rt_workers: self.rt_workers,
        })
    }

    /// Validates and pairs the spec with its backend.
    pub fn build(self) -> Result<Deployment, DeployError> {
        let spec = self.spec()?;
        let backend: Box<dyn ExecBackend> = match self.backend {
            BackendKind::Emulated => Box::new(EmulatedBackend::default()),
            BackendKind::Live => Box::new(LiveBackend::default()),
        };
        Ok(Deployment { spec, backend })
    }
}

/// A validated deployment bound to an execution backend.
pub struct Deployment {
    spec: DeploymentSpec,
    backend: Box<dyn ExecBackend>,
}

impl fmt::Debug for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("spec", &self.spec)
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl Deployment {
    /// Starts a builder.
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// The validated spec.
    pub fn spec(&self) -> &DeploymentSpec {
        &self.spec
    }

    /// Executes `epochs` epochs on the bound backend.
    ///
    /// Every call is a **fresh run** of the spec — backends rebuild their
    /// execution state first, so repeated calls give independent runs rather
    /// than continuations. Note that [`CustomWorkload`] generators are
    /// one-shot: re-running a deployment whose generators were already taken
    /// panics. Use [`EmulatedBackend::step`] directly for incremental
    /// stepping.
    pub fn run(&mut self, epochs: u64) -> Result<RunReport, DeployError> {
        let mut report = self.backend.run(&self.spec, epochs)?;
        report.plan_warnings = self.spec.plan_warnings.clone();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Scale;
    use crate::experiment::ScenarioSpec;

    fn builder() -> DeploymentBuilder {
        Deployment::builder().workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
    }

    #[test]
    fn missing_workload_is_rejected() {
        let err = Deployment::builder().build().unwrap_err();
        assert_eq!(err, DeployError::MissingWorkload);
    }

    #[test]
    fn zero_sources_is_rejected() {
        let err = builder().sources(0).build().unwrap_err();
        assert_eq!(err, DeployError::NoSources);
    }

    #[test]
    fn non_positive_budget_is_rejected() {
        assert!(matches!(
            builder().cpu_budget(0.0).build().unwrap_err(),
            DeployError::InvalidCpuBudget { .. }
        ));
        assert!(matches!(
            builder().cpu_budget(f64::NAN).build().unwrap_err(),
            DeployError::InvalidCpuBudget { .. }
        ));
    }

    #[test]
    fn shard_count_is_range_checked() {
        assert_eq!(
            builder().sp_shards(0).build().unwrap_err(),
            DeployError::InvalidShardCount {
                got: 0,
                max: MAX_SP_SHARDS
            }
        );
        assert_eq!(
            builder().sp_shards(MAX_SP_SHARDS + 1).build().unwrap_err(),
            DeployError::InvalidShardCount {
                got: MAX_SP_SHARDS + 1,
                max: MAX_SP_SHARDS
            }
        );
        let d = builder()
            .sp_shards(4)
            .backend(BackendKind::Live)
            .build()
            .unwrap();
        assert_eq!(d.spec().sp_shards, 4);
    }

    #[test]
    fn scale_out_on_the_default_backend_is_refused() {
        // The emulated backend models one SP; asking it for a ring would
        // otherwise silently run unsharded.
        let err = builder().sp_shards(4).build().unwrap_err();
        assert_plancheck_code(&err, crate::plancheck::code::SCALE_OUT_NEEDS_LIVE);
    }

    #[test]
    fn node_count_is_validated_against_the_ring() {
        assert_eq!(
            builder().sp_shards(4).sp_nodes(0).build().unwrap_err(),
            DeployError::InvalidNodeCount { got: 0, shards: 4 }
        );
        assert_eq!(
            builder().sp_shards(4).sp_nodes(5).build().unwrap_err(),
            DeployError::InvalidNodeCount { got: 5, shards: 4 }
        );
        // One node per shard is the widest meaningful cluster.
        let d = builder()
            .sp_shards(4)
            .sp_nodes(4)
            .backend(BackendKind::Live)
            .build()
            .unwrap();
        assert_eq!(d.spec().sp_nodes, 4);
    }

    #[test]
    fn sharding_rejects_plans_with_a_second_keyed_operator() {
        // A second GroupAggregate past the shard boundary would see its key
        // space partitioned by the *first* operator's keys — the builder
        // must refuse rather than silently duplicate groups.
        use streamkit::agg::{AggKind, AggSpec};
        use streamkit::logical::LogicalOp;
        use streamkit::ops::EmitMode;

        let mut plan = telemetry::queries::s2s_probe();
        plan.ops.push(LogicalOp::GroupAggregate {
            keys: vec![1],
            aggs: vec![AggSpec::new(AggKind::Avg, 3, "avg_of_avg")],
            emit: EmitMode::OnWindowClose,
        });
        plan.parallel.push(1);
        plan.validate()
            .expect("two-stage aggregation is a valid plan");
        let workload = crate::deploy::CustomWorkload::new(
            "double-agg",
            plan,
            streamkit::physical::CostProfile::default(),
            vec![],
        );
        let err = Deployment::builder()
            .workload(workload)
            .sp_shards(2)
            .backend(BackendKind::Live)
            .build()
            .unwrap_err();
        assert_plancheck_code(&err, crate::plancheck::code::RESHARD_UNSUPPORTED);
    }

    #[test]
    fn out_of_range_load_factor_is_rejected() {
        let err = builder()
            .strategy(StrategyKind::AllSrc)
            .load_factors(vec![1.0, 1.5, 0.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            DeployError::InvalidLoadFactor {
                index: 1,
                value: 1.5
            }
        );
    }

    #[test]
    fn load_factor_arity_must_match_the_plan() {
        let err = builder()
            .strategy(StrategyKind::AllSrc)
            .load_factors(vec![1.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            DeployError::LoadFactorArity {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn pinned_factors_with_adaptive_strategy_are_rejected() {
        let err = builder()
            .load_factors(vec![1.0, 1.0, 1.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            DeployError::FixedFactorsWithAdaptiveStrategy {
                strategy: StrategyKind::Jarvis
            }
        );
    }

    #[test]
    fn repeated_runs_are_independent_and_identical() {
        let mut d = builder()
            .cpu_budget(0.8)
            .collect_results(true)
            .build()
            .unwrap();
        let a = d.run(12).unwrap();
        let b = d.run(12).unwrap();
        assert_eq!(a.exactness, b.exactness, "each run() call is a fresh run");
        assert_eq!(a.results_emitted, b.results_emitted);
    }

    #[test]
    fn tcp_transport_requires_an_endpoint() {
        let err = builder()
            .backend(BackendKind::Live)
            .transport(TransportKind::Tcp)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            DeployError::InvalidEndpoint {
                got: "(none)".to_string()
            }
        );
    }

    #[test]
    fn tcp_transport_rejects_an_unparseable_endpoint() {
        let err = builder()
            .backend(BackendKind::Live)
            .transport(TransportKind::Tcp)
            .listen_addr("not-a-socket-addr")
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            DeployError::InvalidEndpoint {
                got: "not-a-socket-addr".to_string()
            }
        );
    }

    #[test]
    fn tcp_transport_requires_the_live_backend() {
        let err = builder()
            .transport(TransportKind::Tcp)
            .listen_addr("127.0.0.1:0")
            .build()
            .unwrap_err();
        assert_plancheck_code(&err, crate::plancheck::code::TCP_NEEDS_LIVE);
    }

    /// Asserts `err` is a `PlanCheck` carrying the given lint code.
    fn assert_plancheck_code(err: &DeployError, code: &str) {
        let DeployError::PlanCheck(diags) = err else {
            panic!("expected PlanCheck({code}), got {err:?}");
        };
        assert!(diags.iter().any(|d| d.code == code), "got {diags:?}");
    }

    #[test]
    fn tcp_transport_rejects_scheduled_events() {
        let err = builder()
            .backend(BackendKind::Live)
            .transport(TransportKind::Tcp)
            .listen_addr("127.0.0.1:0")
            .events(&[crate::experiment::ResourceEvent {
                epoch: 3,
                cpu_budget: Some(0.9),
                table_size: None,
            }])
            .build()
            .unwrap_err();
        assert_plancheck_code(&err, crate::plancheck::code::TCP_WITH_EVENTS);
    }

    #[test]
    fn tcp_transport_rejects_undescribable_workloads() {
        // CustomWorkloads carry closures; they cannot be replanned remotely.
        let workload = CustomWorkload::new(
            "ad-hoc",
            telemetry::queries::s2s_probe(),
            streamkit::physical::CostProfile::default(),
            vec![],
        );
        let err = Deployment::builder()
            .workload(workload)
            .backend(BackendKind::Live)
            .transport(TransportKind::Tcp)
            .listen_addr("127.0.0.1:0")
            .build()
            .unwrap_err();
        assert_plancheck_code(&err, crate::plancheck::code::TCP_UNDESCRIBABLE);
    }

    #[test]
    fn auth_tokens_must_fit_the_first_frame() {
        let tcp = |token: String| {
            builder()
                .backend(BackendKind::Live)
                .transport(TransportKind::Tcp)
                .listen_addr("127.0.0.1:0")
                .auth_token(token)
                .build()
        };
        // The largest accepted token fills the encoded `Register` exactly.
        let overhead = remote::Register::max_body_len("");
        let largest = "t".repeat(remote::MAX_REGISTER_LEN - overhead);
        assert_eq!(
            remote::Register::max_body_len(&largest),
            remote::MAX_REGISTER_LEN
        );
        tcp(largest.clone()).expect("a token whose Register fits is accepted");
        let err = tcp(largest + "t").unwrap_err();
        assert_eq!(
            err,
            DeployError::AuthTokenTooLong {
                register_len: remote::MAX_REGISTER_LEN + 1,
                max: remote::MAX_REGISTER_LEN,
            }
        );
        assert!(err.to_string().contains("4096 B"), "{err}");
        // The bound is the encoding's, not the token's length: a quote
        // escapes to two bytes.
        let quotes = "\"".repeat((remote::MAX_REGISTER_LEN - overhead) / 2 + 1);
        assert!(matches!(
            tcp(quotes).unwrap_err(),
            DeployError::AuthTokenTooLong { .. }
        ));
        // Inert on the in-process transport, like every remote knob.
        builder()
            .auth_token("t".repeat(2 * remote::MAX_REGISTER_LEN))
            .build()
            .expect("in-process specs ignore the token");
    }

    #[test]
    fn in_process_specs_ignore_remote_knobs() {
        // listen_addr/auth on the default transport is inert, not an error.
        let d = builder()
            .listen_addr("not-a-socket-addr")
            .auth_token("secret")
            .build()
            .unwrap();
        assert_eq!(d.spec().transport, TransportKind::InProcess);
        assert_eq!(d.spec().listen_addr, None);
    }

    #[test]
    fn valid_spec_carries_defaults() {
        let d = builder().cpu_budget(0.6).build().unwrap();
        assert_eq!(d.spec().sources, 1);
        assert_eq!(d.spec().sp_shards, 1, "unsharded by default");
        assert_eq!(d.spec().sp_nodes, 1, "single-node SP by default");
        assert_eq!(d.spec().strategy, StrategyKind::Jarvis);
    }
}
