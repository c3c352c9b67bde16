//! Rule R-1 in action (paper §IV-B): *exact* quantiles cannot run near data,
//! but *approximate*, mergeable quantiles can — and the paper notes they
//! benefit from Jarvis like any incrementally-updatable aggregation.
//!
//! This example builds a p99-latency query with an approximate quantile
//! sketch, shows the planner admitting it to the source prefix (and
//! rejecting it when quantiles are configured as exact), and runs it
//! partitioned through the live backend to produce per-pair tail-latency
//! estimates.
//!
//! ```sh
//! cargo run --release --example approx_quantiles
//! ```

use jarvis::core::planner::{plan_query, RuleConfig};
use jarvis::prelude::*;
use jarvis::streamkit::physical::CostProfile;
use jarvis::telemetry::anomaly::AnomalySchedule;
use jarvis::telemetry::pingmesh::{pingmesh_schema, PingmeshConfig, PingmeshGenerator};

fn main() -> Result<(), DeployError> {
    // p99 RTT per source cluster over 10-second windows.
    let plan = Query::stream("tail_latency", pingmesh_schema())
        .window_secs(10.0)
        .filter_named("errCode", |c| c.eq(Expr::lit(0u64)))
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
        .unwrap();

    // R-1: approximate quantiles are incrementally updatable -> eligible.
    let planned = plan_query(plan.clone(), &RuleConfig::default()).unwrap();
    println!("chain: {}", planned.plan.display_chain());
    println!(
        "source-eligible operators: {} of {}",
        planned.source_ops,
        planned.plan.ops.len()
    );
    assert_eq!(planned.source_ops, 3);

    // Flip the rule: treat quantiles as exact -> the aggregation is SP-only.
    let strict = RuleConfig {
        quantiles_are_exact: true,
        ..Default::default()
    };
    let restricted = plan_query(plan.clone(), &strict).unwrap();
    println!(
        "with exact-quantile semantics the prefix shrinks to {} operator(s): {:?}",
        restricted.source_ops, restricted.exclusions
    );
    assert!(restricted.source_ops < 3);

    // Execute partitioned through the live backend: sketches merge across
    // the split exactly like any other partial state.
    let generator = PingmeshGenerator::new(PingmeshConfig {
        anomalies: AnomalySchedule::single(5.0, 50.0, 0.05, 25.0),
        ..Default::default()
    });
    let workload = CustomWorkload::new(
        "tail-latency",
        plan,
        CostProfile::uniform(3, 2.0),
        vec![Box::new(generator)],
    );
    let spec = Deployment::builder()
        .workload(workload)
        .strategy(StrategyKind::AllSrc)
        .load_factors(vec![1.0, 1.0, 0.6])
        .cpu_budget(1.0)
        .spec()
        .expect("valid deployment");
    let mut session = LiveSession::new(&spec).expect("live session");
    session.run_epochs(20)?;
    let outcome = session.try_finish()?;
    println!("--- merged p99 estimates ---");
    // Results are columnar batches; the few rows shown become records.
    let shown = outcome
        .results
        .iter()
        .flat_map(|b| b.slice(0..b.len().min(6)).to_records())
        .take(6);
    for row in shown {
        println!(
            "window {:>3}s cluster {:>3}: p99 rtt = {:>8.0} us",
            row.values[0].as_i64().unwrap_or(0) / 1_000_000,
            row.values[1],
            row.values[2].as_f64().unwrap_or(f64::NAN),
        );
    }
    assert!(outcome.result_rows() > 0);
    let worst = outcome
        .results
        .iter()
        .flat_map(|b| {
            let p99 = &b.columns[b.schema.index_of("p99_rtt").expect("p99_rtt column")];
            (0..b.len()).filter_map(|row| p99.f64_at(row))
        })
        .fold(0.0f64, f64::max);
    println!("worst cluster p99: {worst:.0} us (anomaly window drives the tail)");
    assert!(
        worst > 1_000.0,
        "the injected anomaly must surface in the p99"
    );
    Ok(())
}
