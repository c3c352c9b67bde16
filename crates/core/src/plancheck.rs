//! Static plan analysis: lint a planned query + deployment knobs **before**
//! anything runs.
//!
//! The paper's correctness claim — runtime re-partitioning between sources
//! and the SP "does not affect the correctness of query results" (§IV) —
//! is proven dynamically by the digest-parity suites. This module proves the
//! plan-level preconditions of that claim *statically*, per plan, so every
//! new operator/knob combination does not need another runtime parity
//! matrix:
//!
//! * **Source-eligibility rules** (R-1..R-4 of §IV-B) — the planner's
//!   exclusions are computed here ([`source_eligibility`]) and surfaced as
//!   `Info` diagnostics (`JP001`–`JP004`).
//! * **Key provenance** — group-key columns of the shard boundary are traced
//!   backward through the stateless prefix; an opaque (`MapFn::Custom`)
//!   rewrite in the lineage cannot be verified deterministic, so shard
//!   routing of shipped partials could disagree with the boundary
//!   partitioner (`JP101`). Keyed operators past the boundary would see
//!   their key space partitioned by the *first* operator's keys
//!   (`JP102`/`JP103`). A string key behind an opaque map additionally
//!   falls off the code-native persistent-dictionary fast path (`JP105`).
//! * **Mergeability** — every aggregate reachable by the `StatePartial`
//!   ship/merge, `ShardState`, and remote `netwire` paths must be a
//!   commutative mergeable partial (`JP201`).
//! * **Deployment cross-checks** — shard/node/transport/backend knob
//!   combinations the plan or backend cannot satisfy (`JP301`–`JP305`).
//!
//! [`crate::deploy::DeploymentBuilder`] runs [`check`] during validation and
//! fails with [`crate::deploy::DeployError::PlanCheck`] when any diagnostic
//! is an error; warnings ride along in the spec and land in
//! [`crate::deploy::RunReport::plan_warnings`]. The `repro plancheck` CLI
//! subcommand lints the built-in workloads the same way.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};
use streamkit::logical::{LogicalOp, LogicalPlan};
use streamkit::ops::MapFn;
use streamkit::schema::{DataType, SchemaRef};

use crate::deploy::BackendKind;
use crate::planner::{Exclusion, PlannedQuery, RuleConfig};
use crate::strategy::StrategyKind;

/// Lint codes emitted by the analyzer, one constant per `JPxxx` code.
pub mod code {
    /// R-1: a non-incrementally-updatable aggregate is SP-only.
    pub const NON_INCREMENTAL_AGG: &str = "JP001";
    /// R-2: operators downstream of the stateful boundary are SP-only.
    pub const AFTER_STATEFUL: &str = "JP002";
    /// R-3: stateful stream-stream joins are SP-only.
    pub const STREAM_JOIN: &str = "JP003";
    /// R-4: operators with intra-operator parallelism hints are SP-only.
    pub const PARALLEL_OP: &str = "JP004";
    /// A shard-key column's lineage passes through an opaque map.
    pub const OPAQUE_KEY_LINEAGE: &str = "JP101";
    /// A second keyed operator past the shard boundary under `sp_shards > 1`.
    pub const RESHARD_UNSUPPORTED: &str = "JP102";
    /// A string-typed group key behind an opaque map cannot carry a
    /// persistent dictionary: grouping and shard routing lose their
    /// per-code fragment and hash caches.
    pub const KEY_OFF_CODE_FAST_PATH: &str = "JP105";
    /// Multiple keyed operators: the plan cannot scale out via sharding.
    pub const MULTI_KEYED_PLAN: &str = "JP103";
    /// A non-mergeable aggregate is reachable by a state-shipping path.
    pub const NON_MERGEABLE_STATE: &str = "JP201";
    /// `sp_shards > 1` but the plan has no keyed boundary to partition at.
    pub const SHARDS_WITHOUT_KEYS: &str = "JP301";
    /// TCP transport with scheduled resource events.
    pub const TCP_WITH_EVENTS: &str = "JP302";
    /// TCP transport with a workload that has no wire descriptor.
    pub const TCP_UNDESCRIBABLE: &str = "JP303";
    /// TCP transport on a backend other than the live one.
    pub const TCP_NEEDS_LIVE: &str = "JP304";
    /// `sp_shards > 1` or `sp_nodes > 1` on a backend other than the live
    /// one: the emulated backend models the paper's single SP.
    pub const SCALE_OUT_NEEDS_LIVE: &str = "JP305";
    /// `on_node_loss = Reassign` with a non-mergeable aggregate at the SP
    /// tier: reassignment merges recovered state, so recovery is lossy.
    pub const RECOVERY_LOSSY: &str = "JP401";
    /// Checkpointing enabled on a plan with no stateful operators.
    pub const CHECKPOINT_STATELESS: &str = "JP402";
}

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// The deployment would be incorrect or cannot run; the builder refuses.
    Error,
    /// Suspect but runnable; surfaced in the run report.
    Warning,
    /// Planner facts (rule exclusions) useful for understanding a plan.
    Info,
}

impl Severity {
    /// Display label (`"error"`, `"warning"`, `"info"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }

    fn rank(self) -> u8 {
        match self {
            Severity::Error => 0,
            Severity::Warning => 1,
            Severity::Info => 2,
        }
    }
}

/// One structured finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable lint code (`JPxxx`, see [`code`]).
    pub code: String,
    /// Severity: errors refuse deployment, warnings ride along.
    pub severity: Severity,
    /// The operator the finding anchors to, when there is one.
    pub op_index: Option<usize>,
    /// What is wrong (one sentence).
    pub message: String,
    /// How to fix it, when a fix is known.
    pub help: Option<String>,
}

impl Diagnostic {
    fn new(
        code: &str,
        severity: Severity,
        op_index: Option<usize>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            severity,
            op_index,
            message: message.into(),
            help: None,
        }
    }

    fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity.label(), self.code)?;
        if let Some(i) = self.op_index {
            write!(f, " op {i}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(help) = &self.help {
            write!(f, "\n  help: {help}")?;
        }
        Ok(())
    }
}

/// True when any diagnostic is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders diagnostics one per line (the pretty CLI / error format).
pub fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// The deployment-side facts the analyzer cross-checks a plan against.
///
/// [`crate::deploy::DeploymentBuilder::spec`] fills this from its knobs; the
/// CLI builds one per lint configuration.
#[derive(Debug, Clone)]
pub struct CheckContext {
    /// Virtual shards on the SP tier's hash ring (1 = unsharded).
    pub sp_shards: u32,
    /// SP nodes the ring is divided over (1 = single node).
    pub sp_nodes: u32,
    /// Partitioning strategy (decides whether partial state ships).
    pub strategy: StrategyKind,
    /// Execution backend.
    pub backend: BackendKind,
    /// True when the SP tier is wired over real TCP sockets.
    pub tcp: bool,
    /// True when resource events are scheduled.
    pub has_events: bool,
    /// True when the workload has a wire-serializable descriptor.
    pub remote_describable: bool,
    /// Workload name (for messages).
    pub workload: String,
    /// Node-loss recovery policy of the deployment.
    pub on_node_loss: crate::deploy::OnNodeLoss,
    /// True when SP-tier epoch checkpointing is enabled.
    pub checkpointing: bool,
}

impl CheckContext {
    /// A single-process context: in-process transport, no events, a
    /// describable workload, and the live backend.
    pub fn local(sp_shards: u32, sp_nodes: u32, strategy: StrategyKind) -> CheckContext {
        CheckContext {
            sp_shards,
            sp_nodes,
            strategy,
            backend: BackendKind::Live,
            tcp: false,
            has_events: false,
            remote_describable: true,
            workload: String::new(),
            on_node_loss: crate::deploy::OnNodeLoss::Fail,
            checkpointing: false,
        }
    }

    /// True when the strategy may place load on source-side stateful
    /// operators, i.e. partial aggregate state ships source → SP. All-SP
    /// drains everything raw and Filter-Src runs only filters near data;
    /// every other strategy can assign a stateful operator a non-zero load
    /// factor.
    pub fn ships_state(&self) -> bool {
        !matches!(self.strategy, StrategyKind::AllSp | StrategyKind::FilterSrc)
    }
}

/// The planner-facing slice of the analysis: how much of the chain may run
/// on data sources, and why the rest may not.
#[derive(Debug, Clone, PartialEq)]
pub struct Eligibility {
    /// Leading operators eligible for data sources.
    pub source_ops: usize,
    /// `(op index, rule)` for every excluded operator.
    pub exclusions: Vec<(usize, Exclusion)>,
}

/// Computes the source-eligible prefix under rules R-1..R-4 (§IV-B).
///
/// This is the single rule engine: [`crate::planner::plan_query`] delegates
/// here, and [`check`] re-surfaces the exclusions as `Info` diagnostics, so
/// the planner and the linter can never disagree.
pub fn source_eligibility(plan: &LogicalPlan, rules: &RuleConfig) -> Eligibility {
    let mut source_ops = plan.ops.len();
    let mut exclusions = Vec::new();
    let mut seen_stateful = false;
    for (i, op) in plan.ops.iter().enumerate() {
        // R-2: anything after the first cross-source stateful op is SP-only.
        if seen_stateful && rules.forbid_after_stateful {
            source_ops = source_ops.min(i);
            exclusions.push((i, Exclusion::AfterStatefulBoundary));
            continue;
        }
        // R-4: no intra-operator parallelism on constrained sources.
        if plan.parallel_for(i) > rules.max_source_parallelism {
            source_ops = source_ops.min(i);
            exclusions.push((i, Exclusion::ParallelOperator));
        }
        match op {
            LogicalOp::GroupAggregate { aggs, .. } => {
                // R-1: every aggregate must be incrementally updatable.
                if rules.forbid_non_incremental
                    && aggs.iter().any(|a| !rules.agg_is_incremental(&a.kind))
                {
                    source_ops = source_ops.min(i);
                    exclusions.push((i, Exclusion::NonIncrementalAggregate));
                }
                seen_stateful = true;
            }
            // R-3: stateful stream-stream joins are SP-only.
            LogicalOp::Join {
                streaming: true, ..
            } => {
                source_ops = source_ops.min(i);
                exclusions.push((i, Exclusion::StreamJoin));
            }
            _ => {}
        }
    }
    Eligibility {
        source_ops,
        exclusions,
    }
}

/// Where a column's value ultimately comes from when traced backward.
enum Lineage {
    /// Deterministically derived from these columns at the target edge.
    Cols(BTreeSet<usize>),
    /// The lineage passes through an opaque operator at this index.
    Opaque(usize),
}

/// Traces column `col` at edge `from_edge` (the input edge of op
/// `from_edge`) backward to edge `to_edge`, returning the set of source
/// columns it deterministically derives from, or the opaque operator that
/// breaks the chain. `schemas` are the plan's edge schemas.
fn trace_column(
    plan: &LogicalPlan,
    schemas: &[SchemaRef],
    from_edge: usize,
    to_edge: usize,
    col: usize,
) -> Lineage {
    let mut cols: BTreeSet<usize> = std::iter::once(col).collect();
    for i in (to_edge..from_edge).rev() {
        let mut prev = BTreeSet::new();
        match &plan.ops[i] {
            LogicalOp::Window { .. } | LogicalOp::Filter { .. } => prev = cols,
            LogicalOp::Project { cols: proj } => {
                for c in cols {
                    if let Some(&src) = proj.get(c) {
                        prev.insert(src);
                    }
                }
            }
            LogicalOp::Map { f } => match f {
                // In-place deterministic rewrites: identity index mapping.
                MapFn::TrimLower(_) | MapFn::WidthBucket { .. } => prev = cols,
                // Every output column parses out of the source line column.
                MapFn::ParseJobStats { col: src, .. } => {
                    if !cols.is_empty() {
                        prev.insert(*src);
                    }
                }
                // Arbitrary closure: nothing is statically known.
                MapFn::Custom { .. } => return Lineage::Opaque(i),
            },
            LogicalOp::GroupAggregate { keys, .. } => {
                // Output layout: [window_start, keys.., aggs..]. Key columns
                // map through; window_start is synthetic (key-safe);
                // aggregate values are not key lineage.
                for c in cols {
                    if c == 0 {
                        continue;
                    }
                    match keys.get(c - 1) {
                        Some(&src) => {
                            prev.insert(src);
                        }
                        None => return Lineage::Opaque(i),
                    }
                }
            }
            LogicalOp::Join { key_col, .. } => {
                // Pass-through columns keep their index; appended table
                // columns are determined by the stream-side key column.
                let input_width = schemas[i].width();
                for c in cols {
                    prev.insert(if c < input_width { c } else { *key_col });
                }
            }
        }
        cols = prev;
    }
    Lineage::Cols(cols)
}

/// Runs the full analysis on a planned query against a deployment context.
///
/// Returns diagnostics sorted errors-first. Errors mean the deployment would
/// be incorrect or cannot run; [`crate::deploy::DeploymentBuilder`] refuses
/// them with [`crate::deploy::DeployError::PlanCheck`].
pub fn check(planned: &PlannedQuery, rules: &RuleConfig, ctx: &CheckContext) -> Vec<Diagnostic> {
    let plan = &planned.plan;
    let mut diags = Vec::new();

    let schemas = match plan.edge_schemas() {
        Ok(schemas) => schemas,
        Err(e) => {
            diags.push(Diagnostic::new(
                "JP000",
                Severity::Error,
                None,
                format!("plan does not validate: {e}"),
            ));
            return diags;
        }
    };

    lint_eligibility(planned, rules, &mut diags);
    lint_key_provenance(plan, &schemas, ctx, &mut diags);
    lint_mergeability(planned, rules, ctx, &mut diags);
    lint_deployment(plan, ctx, &mut diags);
    lint_fault_tolerance(plan, rules, ctx, &mut diags);

    diags.sort_by_key(|d| (d.severity.rank(), d.op_index.unwrap_or(usize::MAX)));
    diags
}

/// Surfaces the R-1..R-4 exclusions as `Info` diagnostics (JP001–JP004).
fn lint_eligibility(planned: &PlannedQuery, rules: &RuleConfig, diags: &mut Vec<Diagnostic>) {
    for (i, why) in &planned.exclusions {
        let kind = planned.plan.ops[*i].kind();
        let d = match why {
            Exclusion::NonIncrementalAggregate => Diagnostic::new(
                code::NON_INCREMENTAL_AGG,
                Severity::Info,
                Some(*i),
                format!(
                    "R-1: {kind:?} holds an aggregate that is not incrementally \
                     updatable under the configured rules; it runs SP-only"
                ),
            )
            .with_help(
                "use a mergeable approximate version (e.g. ApproxQuantile with \
                 quantiles_are_exact = false) to admit it to the source prefix",
            ),
            Exclusion::AfterStatefulBoundary => Diagnostic::new(
                code::AFTER_STATEFUL,
                Severity::Info,
                Some(*i),
                format!(
                    "R-2: {kind:?} is downstream of the first cross-source stateful \
                     operator and needs merged state; it runs SP-only"
                ),
            ),
            Exclusion::StreamJoin => Diagnostic::new(
                code::STREAM_JOIN,
                Severity::Info,
                Some(*i),
                "R-3: stateful stream-stream joins aggregate across data sources; \
                 the join runs SP-only"
                    .to_string(),
            )
            .with_help("stream-table joins (Query::join) are source-eligible"),
            Exclusion::ParallelOperator => Diagnostic::new(
                code::PARALLEL_OP,
                Severity::Info,
                Some(*i),
                format!(
                    "R-4: {kind:?} requests {} physical instances but sources run at \
                     most {}; it runs SP-only",
                    planned.plan.parallel_for(*i),
                    rules.max_source_parallelism
                ),
            ),
        };
        diags.push(d);
    }
}

/// Key-provenance lints: JP101 (opaque key lineage), JP102/JP103 (keyed
/// operators past the shard boundary).
fn lint_key_provenance(
    plan: &LogicalPlan,
    schemas: &[SchemaRef],
    ctx: &CheckContext,
    diags: &mut Vec<Diagnostic>,
) {
    let Some((boundary, keys)) = plan.shard_boundary() else {
        return;
    };

    // (a) Trace each boundary key column back to ingress. A deterministic
    // lineage is safe no matter what it rewrites — partitioning happens on
    // the *materialized* key values after the prefix runs. An opaque map in
    // the lineage cannot be verified deterministic, so a source-side
    // `StatePartial` key and the SP partitioner could disagree.
    for &key in &keys {
        if let Lineage::Opaque(op_index) = trace_column(plan, schemas, boundary, 0, key) {
            let field = schemas[boundary]
                .field(key)
                .map_or_else(|_| format!("#{key}"), |f| f.name.clone());
            let severity = if ctx.sp_shards > 1 {
                Severity::Error
            } else {
                Severity::Warning
            };
            diags.push(
                Diagnostic::new(
                    code::OPAQUE_KEY_LINEAGE,
                    severity,
                    Some(op_index),
                    format!(
                        "group key '{field}' of the shard boundary (op {boundary}) is \
                         rewritten by the opaque {:?} before the boundary; shard \
                         routing of shipped partials cannot be proven to agree with \
                         the boundary partitioner",
                        plan.ops[op_index]
                    ),
                )
                .with_help(
                    "use a describable map (TrimLower/ParseJobStats/WidthBucket) in \
                     the key lineage, or keep sp_shards = 1",
                ),
            );
            // Perf fact on top of the routing concern: a string key that
            // passes through an opaque closure cannot ride a persistent
            // dictionary (custom maps rebuild rows, dropping stream pages),
            // so `shard_by_key` hashes its bytes per row instead of reading
            // the stream's cross-epoch code→hash table, and `GroupAggregate`
            // encodes them per row instead of copying the stream's cached
            // per-code key fragments.
            let is_str = schemas[boundary]
                .field(key)
                .is_ok_and(|f| f.dtype == DataType::Str);
            if is_str {
                diags.push(
                    Diagnostic::new(
                        code::KEY_OFF_CODE_FAST_PATH,
                        Severity::Info,
                        Some(op_index),
                        format!(
                            "group key '{field}' reaches the boundary through the \
                             opaque {:?}, so it cannot carry a persistent dictionary; \
                             grouping encodes and shard routing hashes its bytes per \
                             row instead of reusing per-code fragment and hash caches",
                            plan.ops[op_index]
                        ),
                    )
                    .with_help(
                        "produce the key with a describable map so its dictionary \
                         stream survives to the boundary",
                    ),
                );
            }
        }
    }

    // (b) Keyed operators past the boundary: the partitioner splits once,
    // by the boundary keys. A later keyed operator sees rows partitioned by
    // the wrong keys unless its own keys provably cover them — and even
    // covered re-keying is not implemented by the shard runtime.
    let n_keys = keys.len();
    for (j, op) in plan.ops.iter().enumerate().skip(boundary + 1) {
        let LogicalOp::GroupAggregate { keys: later, .. } = op else {
            continue;
        };
        // Trace the later keys back to the boundary's *output* edge, where
        // the boundary keys occupy columns 1..=n_keys.
        let mut derived = BTreeSet::new();
        let mut opaque = false;
        for &k in later {
            match trace_column(plan, schemas, j, boundary + 1, k) {
                Lineage::Cols(cols) => derived.extend(cols),
                Lineage::Opaque(_) => opaque = true,
            }
        }
        let covers = !opaque && (1..=n_keys).all(|c| derived.contains(&c));
        if ctx.sp_shards > 1 {
            let detail = if covers {
                "its keys cover the boundary keys, so groups stay shard-local, but \
                 re-sharding at a second keyed boundary is not implemented"
            } else {
                "its key space is partitioned by the boundary keys, so groups would \
                 span shards and duplicate"
            };
            diags.push(
                Diagnostic::new(
                    code::RESHARD_UNSUPPORTED,
                    Severity::Error,
                    Some(j),
                    format!(
                        "keyed operator past the shard boundary (op {boundary}) under \
                         sp_shards = {}: {detail}",
                        ctx.sp_shards
                    ),
                )
                .with_help("run this plan with sp_shards = 1"),
            );
        } else {
            diags.push(
                Diagnostic::new(
                    code::MULTI_KEYED_PLAN,
                    Severity::Warning,
                    Some(j),
                    format!(
                        "plan has a second keyed operator past the shard boundary \
                         (op {boundary}); it cannot scale out via sp_shards"
                    ),
                )
                .with_help("restructure to a single grouped aggregation to shard the SP tier"),
            );
        }
    }
}

/// Mergeability lint: JP201 — a non-mergeable aggregate inside the
/// source-eligible prefix is reachable by the `StatePartial` ship/merge and
/// `ShardState` paths.
fn lint_mergeability(
    planned: &PlannedQuery,
    rules: &RuleConfig,
    ctx: &CheckContext,
    diags: &mut Vec<Diagnostic>,
) {
    if !(ctx.ships_state() || ctx.sp_nodes > 1) {
        return;
    }
    for (i, op) in planned.plan.ops[..planned.source_ops].iter().enumerate() {
        let LogicalOp::GroupAggregate { aggs, .. } = op else {
            continue;
        };
        for spec in aggs {
            if rules.agg_is_incremental(&spec.kind) {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    code::NON_MERGEABLE_STATE,
                    Severity::Error,
                    Some(i),
                    format!(
                        "aggregate '{}' is not a commutative mergeable partial under \
                         the configured rules, but it sits in the source-eligible \
                         prefix where strategy {} ships its state for merging",
                        spec.name,
                        ctx.strategy.label()
                    ),
                )
                .with_help(
                    "enable R-1 (forbid_non_incremental) so the planner keeps it \
                     SP-only, or use a mergeable approximate aggregate",
                ),
            );
        }
    }
}

/// Deployment cross-checks: JP301–JP305.
fn lint_deployment(plan: &LogicalPlan, ctx: &CheckContext, diags: &mut Vec<Diagnostic>) {
    if ctx.sp_shards > 1 && plan.shard_boundary().is_none() {
        diags.push(
            Diagnostic::new(
                code::SHARDS_WITHOUT_KEYS,
                Severity::Error,
                None,
                format!(
                    "sp_shards = {} but the chain [{}] has no keyed operator to \
                     partition by; the shard ring would degenerate to one pipeline",
                    ctx.sp_shards,
                    plan.display_chain()
                ),
            )
            .with_help("add a grouped aggregation or run with sp_shards = 1"),
        );
    }
    if ctx.backend != BackendKind::Live && (ctx.sp_shards > 1 || ctx.sp_nodes > 1) {
        diags.push(
            Diagnostic::new(
                code::SCALE_OUT_NEEDS_LIVE,
                Severity::Error,
                None,
                format!(
                    "sp_shards = {} and sp_nodes = {} on the {} backend: it models the \
                     paper's single stream processor, and SP scale-out runs on the live \
                     backend",
                    ctx.sp_shards,
                    ctx.sp_nodes,
                    ctx.backend.label()
                ),
            )
            .with_help("use BackendKind::Live, or run with sp_shards = sp_nodes = 1"),
        );
    }
    if ctx.tcp {
        if ctx.backend != BackendKind::Live {
            diags.push(
                Diagnostic::new(
                    code::TCP_NEEDS_LIVE,
                    Severity::Error,
                    None,
                    format!(
                        "TCP transport on the {} backend: real sockets need the live \
                         backend",
                        ctx.backend.label()
                    ),
                )
                .with_help("use BackendKind::Live, or the in-process transport"),
            );
        }
        if ctx.has_events {
            diags.push(
                Diagnostic::new(
                    code::TCP_WITH_EVENTS,
                    Severity::Error,
                    None,
                    "TCP transport with scheduled resource events: join-table swaps \
                     cannot reach remote executors"
                        .to_string(),
                )
                .with_help("drop the events or use the in-process transport"),
            );
        }
        if !ctx.remote_describable {
            diags.push(
                Diagnostic::new(
                    code::TCP_UNDESCRIBABLE,
                    Severity::Error,
                    None,
                    format!(
                        "workload '{}' has no wire-serializable descriptor; only the \
                         built-in scenarios can be replanned on a remote node",
                        ctx.workload
                    ),
                )
                .with_help("use a ScenarioSpec workload or the in-process transport"),
            );
        }
    }
}

/// Fault-tolerance cross-checks: JP401 (lossy Reassign recovery), JP402
/// (checkpointing a stateless plan).
fn lint_fault_tolerance(
    plan: &LogicalPlan,
    rules: &RuleConfig,
    ctx: &CheckContext,
    diags: &mut Vec<Diagnostic>,
) {
    // JP401: Reassign recovery re-ships a lost shard's checkpointed
    // StatePartials to a survivor and *merges* them into fresh operators.
    // An SP-tier aggregate that is not a commutative mergeable partial
    // makes that merge lossy — the digests would diverge after a fault.
    if ctx.on_node_loss == crate::deploy::OnNodeLoss::Reassign {
        let boundary = plan.shard_boundary().map(|(b, _)| b);
        if let Some(boundary) = boundary {
            for (i, op) in plan.ops.iter().enumerate().skip(boundary) {
                let LogicalOp::GroupAggregate { aggs, .. } = op else {
                    continue;
                };
                for spec in aggs {
                    if rules.agg_is_incremental(&spec.kind) {
                        continue;
                    }
                    diags.push(
                        Diagnostic::new(
                            code::RECOVERY_LOSSY,
                            Severity::Warning,
                            Some(i),
                            format!(
                                "on_node_loss = reassign with aggregate '{}', which is \
                                 not a commutative mergeable partial under the \
                                 configured rules: recovery merges the lost shard's \
                                 checkpoint into a survivor, so a post-fault run may \
                                 not be bit-identical",
                                spec.name
                            ),
                        )
                        .with_help("use a mergeable aggregate, or on_node_loss = fail/degrade"),
                    );
                }
            }
        }
    }
    // JP402: checkpointing snapshots stateful operators; a plan with none
    // checkpoints nothing, every epoch, forever — a misconfiguration.
    if ctx.checkpointing {
        let has_stateful = plan.ops.iter().any(|op| {
            matches!(
                op,
                LogicalOp::GroupAggregate { .. }
                    | LogicalOp::Join {
                        streaming: true,
                        ..
                    }
            )
        });
        if !has_stateful {
            diags.push(
                Diagnostic::new(
                    code::CHECKPOINT_STATELESS,
                    Severity::Error,
                    None,
                    format!(
                        "checkpointing is enabled but the chain [{}] has no stateful \
                         operator; there is no state to snapshot or recover",
                        plan.display_chain()
                    ),
                )
                .with_help("disable checkpoint_interval or add a stateful operator"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan_query;
    use streamkit::agg::AggKind;
    use streamkit::expr::Expr;
    use streamkit::query::Query;
    use streamkit::schema::{DataType, Field, Schema, SchemaRef};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("k", DataType::U32),
            Field::new("v", DataType::U32),
            Field::new("err", DataType::U32),
        ])
    }

    fn keyed_plan() -> streamkit::logical::LogicalPlan {
        Query::stream("q", schema())
            .window_secs(10.0)
            .filter_named("err", |c| c.eq(Expr::lit(0u64)))
            .group_by(&["k"])
            .aggregate(&[(AggKind::Avg, "v", "avg_v")])
            .build()
            .unwrap()
    }

    #[test]
    fn clean_plan_has_no_diagnostics() {
        let planned = plan_query(keyed_plan(), &RuleConfig::default()).unwrap();
        let diags = check(
            &planned,
            &RuleConfig::default(),
            &CheckContext::local(4, 2, StrategyKind::Jarvis),
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn keyless_plan_cannot_shard() {
        let plan = Query::stream("flat", schema())
            .window_secs(10.0)
            .filter_named("err", |c| c.eq(Expr::lit(0u64)))
            .build()
            .unwrap();
        let planned = plan_query(plan, &RuleConfig::default()).unwrap();
        let diags = check(
            &planned,
            &RuleConfig::default(),
            &CheckContext::local(4, 1, StrategyKind::Jarvis),
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, code::SHARDS_WITHOUT_KEYS);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn provenance_traces_through_joins_and_projections() {
        // T2TProbe's keys are join-appended columns projected forward; the
        // lineage is deterministic, so the plan is clean at any shard count.
        let (src, dst) = telemetry::queries::t2t_tables(100, 10, &[1]);
        let planned = plan_query(
            telemetry::queries::t2t_probe(src, dst),
            &RuleConfig::default(),
        )
        .unwrap();
        let diags = check(
            &planned,
            &RuleConfig::default(),
            &CheckContext::local(4, 4, StrategyKind::AllSrc),
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn map_derived_keys_are_clean_when_describable() {
        // LogAnalytics' keys are produced entirely by describable maps.
        let planned =
            plan_query(telemetry::queries::log_analytics(), &RuleConfig::default()).unwrap();
        let diags = check(
            &planned,
            &RuleConfig::default(),
            &CheckContext::local(4, 2, StrategyKind::AllSrc),
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn reassign_with_non_mergeable_aggregate_warns_lossy_recovery() {
        let plan = Query::stream("q", schema())
            .window_secs(10.0)
            .group_by(&["k"])
            .aggregate(&[(
                AggKind::ApproxQuantile {
                    q: 0.99,
                    lo: 0.0,
                    hi: 1000.0,
                },
                "v",
                "p99_v",
            )])
            .build()
            .unwrap();
        let rules = RuleConfig {
            quantiles_are_exact: true,
            ..RuleConfig::default()
        };
        let planned = plan_query(plan, &rules).unwrap();
        let mut ctx = CheckContext::local(4, 2, StrategyKind::Jarvis);
        ctx.on_node_loss = crate::deploy::OnNodeLoss::Reassign;
        let diags = check(&planned, &rules, &ctx);
        let warn: Vec<_> = diags
            .iter()
            .filter(|d| d.code == code::RECOVERY_LOSSY)
            .collect();
        assert_eq!(warn.len(), 1, "got {diags:?}");
        assert_eq!(warn[0].severity, Severity::Warning);
        // Fail and Degrade never merge recovered state — no warning.
        ctx.on_node_loss = crate::deploy::OnNodeLoss::Degrade;
        let diags = check(&planned, &rules, &ctx);
        assert!(
            diags.iter().all(|d| d.code != code::RECOVERY_LOSSY),
            "got {diags:?}"
        );
    }

    #[test]
    fn checkpointing_a_stateless_plan_is_an_error() {
        let plan = Query::stream("flat", schema())
            .window_secs(10.0)
            .filter_named("err", |c| c.eq(Expr::lit(0u64)))
            .build()
            .unwrap();
        let planned = plan_query(plan, &RuleConfig::default()).unwrap();
        let mut ctx = CheckContext::local(1, 1, StrategyKind::Jarvis);
        ctx.checkpointing = true;
        let diags = check(&planned, &RuleConfig::default(), &ctx);
        assert_eq!(diags.len(), 1, "got {diags:?}");
        assert_eq!(diags[0].code, code::CHECKPOINT_STATELESS);
        assert_eq!(diags[0].severity, Severity::Error);
        // A stateful plan checkpoints cleanly.
        let planned = plan_query(keyed_plan(), &RuleConfig::default()).unwrap();
        let diags = check(&planned, &RuleConfig::default(), &ctx);
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn render_and_display_are_stable() {
        let d = Diagnostic::new(code::SHARDS_WITHOUT_KEYS, Severity::Error, None, "boom")
            .with_help("fix it");
        let s = render(&[d]);
        assert!(s.starts_with("error[JP301]: boom"), "got {s}");
        assert!(s.contains("help: fix it"));
    }

    #[test]
    fn diagnostics_round_trip_through_json() {
        let d = Diagnostic::new(code::OPAQUE_KEY_LINEAGE, Severity::Warning, Some(2), "m")
            .with_help("h");
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
