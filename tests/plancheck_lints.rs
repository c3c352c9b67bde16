//! Golden diagnostics: one deliberately-broken plan per `JPxxx` lint code.
//!
//! Each test builds the smallest plan/deployment combination that trips
//! exactly one analyzer rule and asserts the exact code (and severity /
//! surface: `DeployError::PlanCheck` for errors, `RunReport::plan_warnings`
//! for warnings). A final property test closes the loop the module exists
//! for: plans the analyzer passes clean at `sp_shards = 4` really do produce
//! digest-identical results on the emulated single SP and on a live 4-shard
//! ring.

use std::sync::Arc;

use jarvis::core::deploy::{BackendKind, CustomWorkload, DeployError, Deployment, TransportKind};
use jarvis::core::plancheck::{self, code, CheckContext, Diagnostic, Severity};
use jarvis::core::planner::{plan_query, RuleConfig};
use jarvis::core::strategy::StrategyKind;
use jarvis::streamkit::agg::{AggKind, AggSpec};
use jarvis::streamkit::expr::Expr;
use jarvis::streamkit::logical::{LogicalOp, LogicalPlan};
use jarvis::streamkit::ops::{EmitMode, JoinMiss, MapFn, StaticTable};
use jarvis::streamkit::physical::CostProfile;
use jarvis::streamkit::query::Query;
use jarvis::streamkit::record::Record;
use jarvis::streamkit::value::Value;
use jarvis::telemetry::pingmesh::{pingmesh_schema, PingmeshConfig, PingmeshGenerator};
use proptest::prelude::*;

/// Lints `plan` under default rules in a local context.
fn lint(plan: LogicalPlan, shards: u32, nodes: u32, strategy: StrategyKind) -> Vec<Diagnostic> {
    lint_with(plan, &RuleConfig::default(), shards, nodes, strategy)
}

fn lint_with(
    plan: LogicalPlan,
    rules: &RuleConfig,
    shards: u32,
    nodes: u32,
    strategy: StrategyKind,
) -> Vec<Diagnostic> {
    let planned = plan_query(plan, rules).expect("plan is valid");
    plancheck::check(
        &planned,
        rules,
        &CheckContext::local(shards, nodes, strategy),
    )
}

fn find<'a>(diags: &'a [Diagnostic], code: &str) -> &'a Diagnostic {
    diags
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("expected {code} in {diags:?}"))
}

/// The shared key-rewriting map: opaque to the analyzer by construction.
fn opaque_identity() -> MapFn {
    MapFn::Custom {
        name: "rekey",
        schema: pingmesh_schema(),
        f: Arc::new(|r: &Record| Some(r.clone())),
    }
}

/// S2S-shaped plan with an opaque map in the group-key lineage.
fn opaque_key_plan() -> LogicalPlan {
    Query::stream("opaque-keys", pingmesh_schema())
        .window_secs(10.0)
        .map(opaque_identity())
        .group_by(&["srcCluster"])
        .aggregate(&[(AggKind::Avg, "rtt", "avg_rtt")])
        .build()
        .unwrap()
}

/// A p99 plan whose quantile aggregate rules can flip exact/approximate.
fn quantile_plan() -> LogicalPlan {
    Query::stream("p99", pingmesh_schema())
        .window_secs(10.0)
        .group_by(&["srcCluster"])
        .aggregate(&[(
            AggKind::ApproxQuantile {
                q: 0.99,
                lo: 0.0,
                hi: 50_000.0,
            },
            "rtt",
            "p99_rtt",
        )])
        .build()
        .unwrap()
}

// ---- JP001-JP004: the planner's R-1..R-4 exclusions as diagnostics ----

#[test]
fn jp001_non_incremental_aggregate() {
    let rules = RuleConfig {
        quantiles_are_exact: true,
        ..Default::default()
    };
    let diags = lint_with(quantile_plan(), &rules, 1, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::NON_INCREMENTAL_AGG);
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(d.op_index, Some(1));
}

#[test]
fn jp002_operator_after_the_stateful_boundary() {
    let plan = Query::stream("post-agg", pingmesh_schema())
        .window_secs(10.0)
        .group_by(&["srcCluster"])
        .aggregate(&[(AggKind::Avg, "rtt", "avg_rtt")])
        .filter_named("avg_rtt", |c| c.gt(Expr::lit(100.0)))
        .build()
        .unwrap();
    let diags = lint(plan, 1, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::AFTER_STATEFUL);
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(d.op_index, Some(2));
}

#[test]
fn jp003_stream_stream_join() {
    let snapshot = Arc::new(StaticTable::new(
        vec![jarvis::streamkit::schema::Field::new(
            "peer",
            jarvis::streamkit::schema::DataType::U32,
        )],
        (0u64..8).map(|k| (Value::U64(k), vec![Value::U64(k + 1)])),
    ));
    let plan = Query::stream("stream-join", pingmesh_schema())
        .window_secs(10.0)
        .join_stream(snapshot, "srcCluster", JoinMiss::Drop)
        .group_by(&["srcCluster"])
        .aggregate(&[(AggKind::Count, "rtt", "n")])
        .build()
        .unwrap();
    let diags = lint(plan, 1, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::STREAM_JOIN);
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(d.op_index, Some(1));
}

#[test]
fn jp004_parallel_operator() {
    let plan = Query::stream("wide-filter", pingmesh_schema())
        .window_secs(10.0)
        .filter_named("errCode", |c| c.eq(Expr::lit(0u64)))
        .parallel(4)
        .group_by(&["srcCluster"])
        .aggregate(&[(AggKind::Avg, "rtt", "avg_rtt")])
        .build()
        .unwrap();
    let diags = lint(plan, 1, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::PARALLEL_OP);
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(d.op_index, Some(1));
}

// ---- JP101: opaque key lineage ----

#[test]
fn jp101_errors_when_sharded_and_the_builder_refuses() {
    // Acceptance case: a key-rewriting Map before the shard boundary must be
    // rejected *statically*, with the typed error, before anything runs.
    let workload = CustomWorkload::new(
        "opaque-keys",
        opaque_key_plan(),
        CostProfile::uniform(3, 2.0),
        vec![],
    );
    let err = Deployment::builder()
        .workload(workload)
        .sp_shards(2)
        .backend(BackendKind::Live)
        .build()
        .unwrap_err();
    let DeployError::PlanCheck(diags) = err else {
        panic!("expected PlanCheck, got {err:?}");
    };
    let d = find(&diags, code::OPAQUE_KEY_LINEAGE);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.op_index, Some(1), "anchored on the opaque map");
}

#[test]
fn jp101_downgrades_to_a_warning_unsharded_and_rides_the_report() {
    // At sp_shards = 1 there is no partitioner to disagree with: the plan
    // builds, and the warning surfaces in the run report.
    let workload = CustomWorkload::new(
        "opaque-keys",
        opaque_key_plan(),
        CostProfile::uniform(3, 2.0),
        vec![Box::new(PingmeshGenerator::new(PingmeshConfig::default()))],
    );
    let report = Deployment::builder()
        .workload(workload)
        .strategy(StrategyKind::AllSp)
        .sources(1)
        .backend(BackendKind::Emulated)
        .build()
        .expect("unsharded opaque keys are runnable")
        .run(3)
        .expect("emulated run");
    let d = find(&report.plan_warnings, code::OPAQUE_KEY_LINEAGE);
    assert_eq!(d.severity, Severity::Warning);
}

// ---- JP105: group key off the code-native dictionary fast path ----

#[test]
fn jp105_flags_str_keys_behind_opaque_maps_as_off_the_fast_path() {
    use jarvis::streamkit::schema::{DataType, Field, Schema};
    let schema = Schema::new(vec![
        Field::new("tenant", DataType::Str),
        Field::new("v", DataType::U32),
    ]);
    let plan = Query::stream("opaque-str-keys", schema.clone())
        .window_secs(10.0)
        .map(MapFn::Custom {
            name: "rekey",
            schema,
            f: Arc::new(|r: &Record| Some(r.clone())),
        })
        .group_by(&["tenant"])
        .aggregate(&[(AggKind::Avg, "v", "avg_v")])
        .build()
        .unwrap();
    let diags = lint(plan, 1, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::KEY_OFF_CODE_FAST_PATH);
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(d.op_index, Some(1), "anchored on the opaque map");
    // The routing concern surfaces separately, at its own severity.
    find(&diags, code::OPAQUE_KEY_LINEAGE);
    // A numeric key through the same opaque map was never a dictionary
    // candidate: JP101 fires, JP105 does not.
    let diags = lint(opaque_key_plan(), 1, 1, StrategyKind::Jarvis);
    find(&diags, code::OPAQUE_KEY_LINEAGE);
    assert!(
        diags.iter().all(|d| d.code != code::KEY_OFF_CODE_FAST_PATH),
        "got {diags:?}"
    );
}

// ---- JP102/JP103: keyed operators past the shard boundary ----

/// S2S with a second grouped aggregation stacked on the first.
fn double_agg_plan() -> LogicalPlan {
    let mut plan = jarvis::telemetry::queries::s2s_probe();
    plan.ops.push(LogicalOp::GroupAggregate {
        keys: vec![1],
        aggs: vec![AggSpec::new(AggKind::Avg, 3, "avg_of_avg")],
        emit: EmitMode::OnWindowClose,
    });
    plan.parallel.push(1);
    plan.validate().expect("two-stage aggregation is valid");
    plan
}

#[test]
fn jp102_second_keyed_operator_under_sharding() {
    let diags = lint(double_agg_plan(), 2, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::RESHARD_UNSUPPORTED);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.op_index, Some(3), "anchored on the second aggregate");
}

#[test]
fn jp103_second_keyed_operator_unsharded_is_a_warning() {
    let diags = lint(double_agg_plan(), 1, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::MULTI_KEYED_PLAN);
    assert_eq!(d.severity, Severity::Warning);
    assert!(
        !diags.iter().any(|d| d.severity == Severity::Error),
        "unsharded the plan stays runnable: {diags:?}"
    );
}

// ---- JP201: non-mergeable aggregate on a state-shipping path ----

#[test]
fn jp201_non_mergeable_aggregate_under_state_shipping() {
    // Disable R-1 so the exact-semantics quantile stays in the source
    // prefix, then deploy under a strategy that ships partial state.
    let rules = RuleConfig {
        forbid_non_incremental: false,
        quantiles_are_exact: true,
        ..Default::default()
    };
    let diags = lint_with(quantile_plan(), &rules, 1, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::NON_MERGEABLE_STATE);
    assert_eq!(d.severity, Severity::Error);

    // All-SP never places load on source-side stateful operators, so the
    // same plan is fine there.
    let diags = lint_with(quantile_plan(), &rules, 1, 1, StrategyKind::AllSp);
    assert!(diags.is_empty(), "got {diags:?}");
}

#[test]
fn jp201_is_refused_by_the_builder() {
    // Acceptance case: the builder rejects the non-mergeable aggregate under
    // a state-shipping strategy with the typed error.
    let workload = CustomWorkload::new(
        "exact-p99",
        quantile_plan(),
        CostProfile::uniform(3, 2.0),
        vec![],
    );
    let err = Deployment::builder()
        .workload(workload)
        .rules(RuleConfig {
            forbid_non_incremental: false,
            quantiles_are_exact: true,
            ..Default::default()
        })
        .strategy(StrategyKind::Jarvis)
        .build()
        .unwrap_err();
    let DeployError::PlanCheck(diags) = err else {
        panic!("expected PlanCheck, got {err:?}");
    };
    assert_eq!(
        find(&diags, code::NON_MERGEABLE_STATE).severity,
        Severity::Error
    );
}

// ---- JP301-JP305: deployment cross-checks ----

#[test]
fn jp301_shards_without_a_keyed_boundary() {
    // Acceptance case: an infeasible sp_shards/plan combo is a typed error.
    let plan = Query::stream("flat", pingmesh_schema())
        .window_secs(10.0)
        .filter_named("errCode", |c| c.eq(Expr::lit(0u64)))
        .build()
        .unwrap();
    let diags = lint(plan.clone(), 4, 1, StrategyKind::Jarvis);
    let d = find(&diags, code::SHARDS_WITHOUT_KEYS);
    assert_eq!(d.severity, Severity::Error);

    let workload = CustomWorkload::new("flat", plan, CostProfile::uniform(2, 2.0), vec![]);
    let err = Deployment::builder()
        .workload(workload)
        .sp_shards(4)
        .backend(BackendKind::Live)
        .build()
        .unwrap_err();
    let DeployError::PlanCheck(diags) = err else {
        panic!("expected PlanCheck, got {err:?}");
    };
    assert_eq!(diags[0].code, code::SHARDS_WITHOUT_KEYS);
}

#[test]
fn jp302_tcp_with_scheduled_events() {
    let planned = plan_query(quantile_plan(), &RuleConfig::default()).unwrap();
    let mut ctx = CheckContext::local(1, 1, StrategyKind::Jarvis);
    ctx.tcp = true;
    ctx.has_events = true;
    let diags = plancheck::check(&planned, &RuleConfig::default(), &ctx);
    assert_eq!(
        find(&diags, code::TCP_WITH_EVENTS).severity,
        Severity::Error
    );
}

#[test]
fn jp303_tcp_with_an_undescribable_workload() {
    let planned = plan_query(quantile_plan(), &RuleConfig::default()).unwrap();
    let mut ctx = CheckContext::local(1, 1, StrategyKind::Jarvis);
    ctx.tcp = true;
    ctx.remote_describable = false;
    let diags = plancheck::check(&planned, &RuleConfig::default(), &ctx);
    assert_eq!(
        find(&diags, code::TCP_UNDESCRIBABLE).severity,
        Severity::Error
    );
    // The builder-level surface of the same lint.
    let workload = CustomWorkload::new(
        "ad-hoc",
        quantile_plan(),
        CostProfile::uniform(3, 2.0),
        vec![],
    );
    let err = Deployment::builder()
        .workload(workload)
        .backend(BackendKind::Live)
        .transport(TransportKind::Tcp)
        .listen_addr("127.0.0.1:0")
        .build()
        .unwrap_err();
    let DeployError::PlanCheck(diags) = err else {
        panic!("expected PlanCheck, got {err:?}");
    };
    assert!(diags.iter().any(|d| d.code == code::TCP_UNDESCRIBABLE));
}

// ---- source fan-in is not a plan property ----

#[test]
fn jp501_fanin_past_the_bound_with_untuned_channels() {
    // The repo benchmark's fan-in shape, 2048 sources on one runtime
    // worker, runs exactly and is no deployment diagnostic: fan-in is a
    // scheduling matter, not a property the plan analyzer can judge.
    let spec = Deployment::builder()
        .workload(jarvis::core::experiment::ScenarioSpec::pingmesh_s2s(
            jarvis::core::calibration::Scale::X1,
        ))
        .strategy(StrategyKind::AllSp)
        .sources(2048)
        .rt_workers(1)
        .backend(BackendKind::Live)
        .spec()
        .expect("a 2048-source, 1-worker deployment is valid");
    assert!(spec.plan_warnings.is_empty(), "{:?}", spec.plan_warnings);
    let ctx = CheckContext::local(1, 1, StrategyKind::AllSp);
    let diags = plancheck::check(&spec.planned, &RuleConfig::default(), &ctx);
    assert!(diags.is_empty(), "got {diags:?}");
}

#[test]
fn jp304_tcp_needs_the_live_backend() {
    let planned = plan_query(quantile_plan(), &RuleConfig::default()).unwrap();
    let mut ctx = CheckContext::local(1, 1, StrategyKind::Jarvis);
    ctx.tcp = true;
    ctx.backend = BackendKind::Emulated;
    let diags = plancheck::check(&planned, &RuleConfig::default(), &ctx);
    assert_eq!(find(&diags, code::TCP_NEEDS_LIVE).severity, Severity::Error);
}

#[test]
fn jp305_scale_out_needs_the_live_backend() {
    let lint_on = |backend: BackendKind, shards: u32, nodes: u32| {
        let planned = plan_query(
            jarvis::telemetry::queries::s2s_probe(),
            &RuleConfig::default(),
        )
        .unwrap();
        let mut ctx = CheckContext::local(shards, nodes, StrategyKind::Jarvis);
        ctx.backend = backend;
        plancheck::check(&planned, &RuleConfig::default(), &ctx)
    };
    // The emulated backend models one SP: a ring or a cluster is refused.
    for (shards, nodes) in [(4, 1), (2, 2)] {
        let diags = lint_on(BackendKind::Emulated, shards, nodes);
        let d = find(&diags, code::SCALE_OUT_NEEDS_LIVE);
        assert_eq!(d.severity, Severity::Error);
        assert!(d
            .help
            .as_deref()
            .unwrap_or("")
            .contains("BackendKind::Live"));
    }
    // One SP on the emulated backend, and scale-out on the live one, are clean.
    for (backend, shards, nodes) in [(BackendKind::Emulated, 1, 1), (BackendKind::Live, 4, 2)] {
        let diags = lint_on(backend, shards, nodes);
        assert!(
            diags.is_empty(),
            "{backend:?} at {shards}x{nodes}: {diags:?}"
        );
    }
}

// ---- the shipped plans stay clean ----

#[test]
fn paper_plans_lint_clean_at_every_shard_count() {
    let plans = [
        jarvis::telemetry::queries::s2s_probe(),
        {
            let (src, dst) = jarvis::telemetry::queries::t2t_tables(500, 40, &[1]);
            jarvis::telemetry::queries::t2t_probe(src, dst)
        },
        jarvis::telemetry::queries::log_analytics(),
    ];
    for plan in plans {
        for shards in [1u32, 4] {
            let diags = lint(plan.clone(), shards, shards.min(2), StrategyKind::Jarvis);
            assert!(
                diags.is_empty(),
                "{} at {shards} shards: {diags:?}",
                plan.name
            );
        }
    }
}

// ---- plancheck-clean implies shard parity ----

/// One grouped-aggregation plan from a small discrete parameter space:
/// key-column choice × aggregate kind × optional error-code filter.
fn param_plan(key_sel: usize, agg_sel: usize, filtered: bool, err_lt: u64) -> LogicalPlan {
    let keys: &[&str] = match key_sel {
        0 => &["srcCluster"],
        1 => &["dstCluster"],
        _ => &["srcCluster", "dstCluster"],
    };
    let agg = match agg_sel {
        0 => AggKind::Count,
        1 => AggKind::Sum,
        2 => AggKind::Min,
        3 => AggKind::Max,
        _ => AggKind::Avg,
    };
    let mut q = Query::stream("prop", pingmesh_schema()).window_secs(10.0);
    if filtered {
        q = q.filter_named("errCode", move |c| c.lt(Expr::lit(err_lt + 1)));
    }
    q.group_by(keys)
        .aggregate(&[(agg, "rtt", "agg_rtt")])
        .build()
        .unwrap()
}

/// The digest of `plan` on `backend`: the emulated single SP, or the live
/// tier on a `shards`-wide ring.
fn run_digest(
    plan: LogicalPlan,
    backend: BackendKind,
    shards: u32,
) -> jarvis::core::deploy::ExactnessDigest {
    let n_ops = plan.ops.len();
    let workload = CustomWorkload::new(
        "prop",
        plan,
        CostProfile::uniform(n_ops, 2.0),
        vec![Box::new(PingmeshGenerator::new(PingmeshConfig::default()))],
    );
    let report = Deployment::builder()
        .workload(workload)
        .strategy(StrategyKind::AllSp)
        .sources(1)
        .sp_shards(shards)
        .backend(backend)
        .collect_results(true)
        .build()
        .expect("plancheck-clean plan builds")
        .run(6)
        .expect("run succeeds");
    report.exactness.expect("digest collected")
}

proptest! {
    /// Plans the analyzer passes clean at 4 shards produce digest-identical
    /// results on the emulated single SP and on a live 4-shard ring — the
    /// static check really is a sound precondition for the runtime parity
    /// the digest suites measure.
    #[test]
    fn plancheck_clean_plans_pass_shard_digest_parity(
        params in (0usize..3, 0usize..5, any::<bool>(), 0u64..3)
    ) {
        let (key_sel, agg_sel, filtered, err_lt) = params;
        let plan = param_plan(key_sel, agg_sel, filtered, err_lt);
        let diags = lint(plan.clone(), 4, 1, StrategyKind::AllSp);
        prop_assert!(diags.is_empty(), "generator must emit clean plans: {diags:?}");
        let unsharded = run_digest(plan.clone(), BackendKind::Emulated, 1);
        let sharded = run_digest(plan, BackendKind::Live, 4);
        prop_assert_eq!(unsharded, sharded);
    }
}
