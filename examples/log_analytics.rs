//! Scenario 2 from the paper (§II-A): live debugging of storage-analytics
//! services from unstructured logs. The LogAnalytics query (Listing 3)
//! parses text logs into per-tenant statistics and bucketises them into
//! histograms; Jarvis adapts when a log burst hits a resource-constrained
//! node.
//!
//! ```sh
//! cargo run --release --example log_analytics
//! ```

use jarvis::core::calibration;
use jarvis::prelude::*;
use jarvis::telemetry::loganalytics::{LogConfig, LogGenerator};
use jarvis::telemetry::queries;

fn main() -> Result<(), DeployError> {
    // Part 1 — exact histograms through the threaded live runtime, with the
    // last two operators split 50/50 between the source and the SP replica.
    let workload = CustomWorkload::new(
        "log-debug",
        queries::log_analytics(),
        calibration::log_cost_profile(),
        vec![Box::new(LogGenerator::new(LogConfig::default()))],
    );
    let spec = Deployment::builder()
        .workload(workload)
        .strategy(StrategyKind::AllSrc)
        .load_factors(vec![1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
        .cpu_budget(1.0)
        .spec()
        .expect("valid deployment");
    let mut session = LiveSession::new(&spec).expect("live session");
    session.run_epochs(12)?;
    println!("streamed {} log lines", session.input_records());
    let outcome = session.try_finish()?;
    println!(
        "result rows (tenant × stat × bucket): {}",
        outcome.result_rows()
    );
    // Results are columnar batches; the few rows shown become records.
    // Rows: [window_start, tenant, stat_name, bucket, count].
    let shown = outcome
        .results
        .iter()
        .flat_map(|b| b.slice(0..b.len().min(5)).to_records())
        .take(5);
    for row in shown {
        println!(
            "  window {:>3}s  {:<12} {:<18} bucket {:>2}: {}",
            row.values[0].as_i64().unwrap_or(0) / 1_000_000,
            row.values[1],
            row.values[2],
            row.values[3],
            row.values[4]
        );
    }
    assert!(outcome.result_rows() > 0);

    // Part 2 — adaptation on the emulated node at 30% CPU, same builder.
    let r = Deployment::builder()
        .workload(ScenarioSpec::log_analytics(Scale::X10))
        .strategy(StrategyKind::Jarvis)
        .cpu_budget(0.3)
        .backend(BackendKind::Emulated)
        .build()
        .expect("valid deployment")
        .run(50)
        .expect("emulated run");
    println!("--- emulated node, 30% CPU, 10x log rate ---");
    println!(
        "throughput : {:.2} of {:.2} Mbps input",
        r.throughput_mbps, r.input_mbps
    );
    println!("network    : {:.2} Mbps", r.network_mbps);
    println!("factors    : {:?}", r.load_factors);
    assert!(r.throughput_mbps > 0.5 * r.input_mbps);
    Ok(())
}
