//! # Jarvis — adaptive near-data processing for server monitoring
//!
//! A Rust reproduction of *"Jarvis: Large-scale Server Monitoring with
//! Adaptive Near-data Processing"* (ICDE 2022, Best Paper).
//!
//! Jarvis partitions a monitoring query **at the data level** between
//! resource-constrained data source nodes and a stream processor: every
//! operator is replicated on both sides and a per-operator *control proxy*
//! forwards a tunable fraction of records (the *load factor*) to the local
//! operator, draining the rest to the stream-processor replica. Load factors
//! are adapted within seconds by **StepWise-Adapt** — an LP-based
//! model-driven initialisation refined by model-agnostic fine-tuning.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] (`jarvis-core`) — control proxies, the Jarvis runtime state
//!   machine, StepWise-Adapt, partitioning strategies, the unified
//!   [`Deployment`](core::deploy::Deployment) API with its pluggable
//!   execution backends, and the experiment harnesses.
//! * [`streamkit`] — the streaming-engine substrate (operators, windows,
//!   watermarks, plans).
//! * [`simnet`] — the deterministic multi-node emulator (CPU budgets,
//!   bandwidth-limited links, topologies).
//! * [`telemetry`] — synthetic Pingmesh and LogAnalytics workloads.
//! * [`lp`] (`jarvis-lp`) — the simplex solver behind the load-factor LP.
//! * [`synopsis`] — sampling/sketch baselines used in the accuracy study.
//!
//! ## Quickstart
//!
//! One builder configures a deployment; pluggable backends execute it — the
//! calibrated emulator or the threaded live runtime. See
//! `examples/quickstart.rs`; in short:
//!
//! ```
//! use jarvis::prelude::*;
//!
//! // Build the paper's S2SProbe query on a synthetic Pingmesh stream and run
//! // it on one data source (60% CPU budget) attached to a stream processor.
//! let report = Deployment::builder()
//!     .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
//!     .strategy(StrategyKind::Jarvis)
//!     .sources(1)
//!     .cpu_budget(0.6)
//!     .backend(BackendKind::Emulated)
//!     .build()
//!     .expect("valid deployment")
//!     .run(25)
//!     .expect("emulated run");
//! assert!(report.throughput_mbps > 0.0);
//! ```

pub use jarvis_core as core;
pub use jarvis_lp as lp;
pub use simnet;
pub use streamkit;
pub use synopsis;
pub use telemetry;

/// Commonly-used items for examples and downstream users.
pub mod prelude {
    pub use jarvis_core::calibration::Scale;
    pub use jarvis_core::deploy::{
        BackendKind, CustomWorkload, DeployError, Deployment, DeploymentBuilder, DeploymentSpec,
        ExactnessDigest, ExecBackend, RunReport, SourceAdapter,
    };
    pub use jarvis_core::experiment::{ResourceEvent, ScenarioSpec};
    pub use jarvis_core::live::LiveSession;
    pub use jarvis_core::proxy::{ControlProxy, ProxyState};
    pub use jarvis_core::runtime::{JarvisRuntime, Phase, RuntimeConfig};
    pub use jarvis_core::strategy::StrategyKind;
    pub use streamkit::agg::AggKind;
    pub use streamkit::expr::Expr;
    pub use streamkit::query::Query;
    pub use streamkit::schema::{DataType, Field, Schema};
}
