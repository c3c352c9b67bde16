//! `jarvis-core` — the paper's contribution: adaptive data-level query
//! partitioning for server monitoring.
//!
//! The crate layers the Jarvis design of §IV on the substrates:
//!
//! * [`proxy`] — the **control proxy**, a light-weight router between
//!   adjacent operators that forwards a load-factor fraction of records to
//!   the local operator and drains the rest to the stream-processor replica,
//!   and classifies its operator as Idle / Congested / Stable each epoch.
//! * [`runtime`] — the **Jarvis runtime** state machine
//!   (Startup → Probe → Profile → Adapt) with the 3-epoch change debounce.
//! * [`stepwise`] — **StepWise-Adapt**: LP-based initial load factors
//!   (via `jarvis-lp`) plus model-agnostic fine-tuning (relay-ratio
//!   priorities, binary search over discretised load factors).
//! * [`planner`] — control-proxy insertion and the operator-eligibility
//!   rules R-1..R-4 of §IV-B.
//! * [`plancheck`] — static plan analysis: the R-1..R-4 rule engine plus
//!   key-provenance, state-mergeability, and deployment cross-checks as
//!   structured `JPxxx` diagnostics, run by the deployment builder before
//!   anything executes.
//! * [`strategy`] — Jarvis and the five baselines of §VI-A (All-SP, All-Src,
//!   Filter-Src, Best-OP, LB-DP) plus the two ablation variants of §VI-C
//!   (LP-only, w/o LP-init), all expressed as load-factor policies.
//! * [`engine`] — the emulated building block (sources and the one stream
//!   processor charging operator costs to `simnet` CPU budgets, drained data
//!   crossing modelled links), plus the `NetPayload` wire codec and framed
//!   TCP transport the live tier's SP nodes exchange shard traffic over.
//! * [`experiment`] — scenario harnesses regenerating the paper's figures.
//! * [`convergence_sim`] — the §VI-C exhaustive convergence-cost simulator.
//! * [`multiquery`] — multiple queries on one data source (§VI-F).
//! * [`checkpoint`] — intermediate-state checkpointing (§IV-E).
//! * [`fault`] — deterministic fault injection driving the §IV-E recovery
//!   parity suites and the chaos-proxy CI job.
//! * [`rt`] — the cooperative task runtime (work-stealing executor,
//!   bounded async channels) the live session schedules its source and
//!   SP-node tasks on.
//! * [`live`] — the task-runtime live session running the same pipelines
//!   under real concurrency (one task per source, which generates,
//!   partitions and ships its own epoch; thousands of sources on
//!   `num_cpus` workers).
//! * [`node`] — the remote stream-processor executor behind the
//!   `jarvis-node` binary (TCP transport).

pub mod calibration;
pub mod checkpoint;
pub mod convergence_sim;
pub mod deploy;
pub mod engine;
pub mod experiment;
pub mod fault;
pub mod live;
pub mod multiquery;
pub mod node;
pub mod plancheck;
pub mod planner;
pub mod proxy;
pub mod rt;
pub mod runtime;
pub mod stepwise;
pub mod strategy;

pub use deploy::{
    BackendKind, DeployError, Deployment, DeploymentBuilder, DeploymentSpec, ExecBackend,
    RunReport, SourceAdapter, TransportKind,
};
pub use plancheck::{CheckContext, Diagnostic, Severity};
pub use proxy::{ControlProxy, ProxyState, QueryState};
pub use runtime::{JarvisRuntime, Phase, RuntimeConfig};
pub use stepwise::{PriorityRule, StepWiseAdapt, StepWiseConfig};
pub use strategy::StrategyKind;
