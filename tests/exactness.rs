//! Accuracy guarantees: data-level partitioning is lossless and exact — the
//! property that distinguishes it from data synopses (paper §VI-D).
//!
//! Every run here is a [`LiveSession`] under a fixed strategy with pinned
//! load factors: the same `n` probe streams must produce the same result
//! rows however the sources split their work with the SP (each source has
//! its own replica at the SP, so a reference run uses the same `n`).

use jarvis::core::calibration;
use jarvis::core::deploy::{CustomWorkload, Deployment};
use jarvis::core::engine::block::EpochSource;
use jarvis::core::live::{LiveOutcome, LiveSession};
use jarvis::core::strategy::StrategyKind;
use jarvis::streamkit::logical::LogicalPlan;
use jarvis::streamkit::physical::CostProfile;
use jarvis::streamkit::record::Record;
use jarvis::telemetry::anomaly::AnomalySchedule;
use jarvis::telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};
use jarvis::telemetry::queries;

/// Runs `epochs` epochs of `sources` probe streams (`config`, reseeded per
/// source) through a live deployment of `plan`, every source-side proxy
/// pinned to `factors`.
fn run_live(
    plan: LogicalPlan,
    costs: CostProfile,
    config: &PingmeshConfig,
    epochs: u64,
    factors: &[f64],
    sources: u32,
) -> LiveOutcome {
    let generators = (0..sources)
        .map(|i| {
            Box::new(PingmeshGenerator::new(PingmeshConfig {
                seed: config.seed + u64::from(i),
                ..config.clone()
            })) as Box<dyn EpochSource>
        })
        .collect();
    let spec = Deployment::builder()
        .workload(CustomWorkload::new("exactness", plan, costs, generators))
        .strategy(StrategyKind::AllSp)
        .load_factors(factors.to_vec())
        .sources(sources)
        .spec()
        .expect("valid fixed-factor deployment");
    let mut session = LiveSession::new(&spec).expect("session builds");
    session.run_epochs(epochs).expect("in-process epochs");
    session.finish()
}

fn s2s_live(config: &PingmeshConfig, epochs: u64, factors: &[f64], sources: u32) -> LiveOutcome {
    run_live(
        queries::s2s_probe(),
        calibration::s2s_cost_profile(),
        config,
        epochs,
        factors,
        sources,
    )
}

fn with_anomalies(anomalies: AnomalySchedule) -> PingmeshConfig {
    PingmeshConfig {
        anomalies,
        ..Default::default()
    }
}

fn sorted(mut rows: Vec<Record>) -> Vec<Record> {
    rows.sort_by_key(|r| format!("{:?}", r.values));
    rows
}

#[test]
fn any_load_factor_split_yields_identical_results() {
    let config = PingmeshConfig::default();
    let reference = s2s_live(&config, 12, &[0.0, 0.0, 0.0], 2);
    assert!(!reference.results.is_empty());
    let reference_rows = sorted(reference.results);
    for factors in [
        [1.0, 1.0, 1.0],
        [1.0, 0.5, 0.25],
        [0.3, 1.0, 0.9],
        [1.0, 1.0, 0.83],
    ] {
        let split = s2s_live(&config, 12, &factors, 2);
        assert!(split.state_deltas > 0, "partial state must flow");
        assert!(split.drained_records < reference.drained_records);
        assert_eq!(
            reference_rows,
            sorted(split.results),
            "partitioning with factors {factors:?} must be exact"
        );
    }
}

#[test]
fn all_local_ships_only_state() {
    let out = s2s_live(&PingmeshConfig::default(), 4, &[1.0, 1.0, 1.0], 1);
    assert_eq!(out.drained_records, 0);
    assert!(out.state_deltas > 0);
    assert!(!out.results.is_empty());
}

#[test]
fn partitioning_preserves_every_alert_unlike_sampling() {
    use jarvis::synopsis::wsp::{WspConfig, WspSampler};
    use jarvis::telemetry::pingmesh::{col, pingmesh_schema};

    // Sparse incident: 2% of pairs spike for the whole window.
    let config = with_anomalies(AnomalySchedule::single(0.0, 100.0, 0.02, 30.0));

    // Ground truth + partitioned run.
    let full = s2s_live(&config, 10, &[0.0; 3], 3).results;
    let split = s2s_live(&config, 10, &[1.0, 0.7, 0.4], 3).results;
    let alerts = |rows: &[Record]| {
        rows.iter()
            .filter(|r| r.values[4].as_f64().unwrap_or(0.0) > 5_000.0)
            .count()
    };
    assert!(alerts(&full) > 0, "incident must produce alerts");
    assert_eq!(
        alerts(&full),
        alerts(&split),
        "partitioning must not lose alerts"
    );

    // Sampling at 20% misses some of the same alerts (source 0's stream).
    let mut stream = PingmeshGenerator::new(config);
    let records: Vec<Record> = (0..10)
        .flat_map(|e| stream.generate_epoch(e * 1_000_000, 1.0))
        .collect();
    let mut sampler = WspSampler::new(WspConfig {
        rate: 0.2,
        ..Default::default()
    });
    let report = sampler.evaluate_window(
        &records,
        &pingmesh_schema(),
        (col::SRC_IP, col::DST_IP),
        col::RTT,
    );
    assert!(
        report.missed_alert_fraction() > 0.0,
        "sampling must demonstrate alert loss"
    );
}

#[test]
fn t2t_partitioned_execution_is_exact() {
    let config = PingmeshConfig {
        peer_ip_space: 500,
        ..Default::default()
    };
    let t2t = |factors: &[f64], sources| {
        let (src, dst) = queries::t2t_tables(500, 40, &[1]);
        run_live(
            queries::t2t_probe(src, dst),
            calibration::t2t_cost_profile(),
            &config,
            10,
            factors,
            sources,
        )
        .results
    };
    let reference = t2t(&[0.0; 6], 2);
    assert!(!reference.is_empty());
    let split = t2t(&[1.0, 1.0, 0.6, 1.0, 1.0, 0.5], 2);
    assert_eq!(sorted(reference), sorted(split));
}

#[test]
fn planner_excluded_suffix_still_executes_at_sp() {
    use jarvis::core::planner::{plan_query, RuleConfig};
    use jarvis::streamkit::agg::AggKind;
    use jarvis::streamkit::expr::Expr;
    use jarvis::streamkit::query::Query;

    // W -> G+R -> F(avg > threshold): the trailing filter is SP-only (R-2).
    let schema = jarvis::telemetry::pingmesh::pingmesh_schema();
    let plan = Query::stream("alerting", schema)
        .window_secs(10.0)
        .group_by(&["srcIp", "dstIp"])
        .aggregate(&[(AggKind::Max, "rtt", "max_rtt")])
        .filter_named("max_rtt", |c| c.gt(Expr::lit(5_000.0)))
        .build()
        .unwrap();
    let planned = plan_query(plan.clone(), &RuleConfig::default()).unwrap();
    assert_eq!(planned.source_ops, 2, "suffix excluded");

    let config = with_anomalies(AnomalySchedule::single(0.0, 100.0, 0.02, 30.0));
    let report = run_live(
        plan,
        CostProfile::uniform(3, 1.0),
        &config,
        10,
        &[1.0, 0.8],
        2,
    );
    assert!(
        !report.results.is_empty(),
        "SP-side filter must emit alert rows"
    );
    for row in &report.results {
        assert!(
            row.values[3].as_f64().unwrap() > 5_000.0,
            "filter applied at SP"
        );
    }
}

#[test]
fn checkpoint_failover_completes_windows_at_sp() {
    use jarvis::core::calibration::Scale;
    use jarvis::core::checkpoint;
    use jarvis::core::deploy::{Deployment, EmulatedBackend};
    use jarvis::core::experiment::ScenarioSpec;
    use jarvis::core::strategy::StrategyKind;

    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let deploy_spec = Deployment::builder()
        .workload(spec.clone())
        .strategy(StrategyKind::AllSrc)
        .cpu_budget(1.0)
        .spec()
        .expect("valid deployment");
    let mut be = EmulatedBackend::default();
    be.prepare(&deploy_spec).expect("block builds");
    for _ in 0..3 {
        be.step(&deploy_spec);
    }
    let ckpt = checkpoint::snapshot(be.block_mut().unwrap().source_mut(0));
    assert!(ckpt.wire_bytes() > 0);

    // Source dies; the SP merges the checkpoint and completes the window.
    let planned = spec.plan();
    let mut sp = jarvis::core::engine::SpEngine::new(&planned, &spec.costs(), 1);
    checkpoint::apply_at_sp(&mut sp, 0, &ckpt, 3.0);
    sp.run_epoch(20_000_000);
    assert!(sp.results_emitted() > 0);
}

#[test]
fn many_sources_split_their_streams_exactly() {
    let config = PingmeshConfig::default();
    let reference = s2s_live(&config, 6, &[0.0; 3], 8).results;
    let wide = s2s_live(&config, 6, &[1.0, 0.9, 0.6], 8).results;
    assert_eq!(sorted(reference), sorted(wide));
}
