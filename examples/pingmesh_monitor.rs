//! Scenario 1 from the paper (§II-A): a web-search team monitors network
//! health with Pingmesh and alerts when more than 1 % of server pairs see
//! probe latencies above 5 ms.
//!
//! This example runs the S2SProbe query through the threaded live runtime
//! under a pinned data-level partitioning plan, then evaluates the alert
//! condition on the *merged* stream-processor results — demonstrating that
//! partitioned execution is exact (no alert is lost to partitioning, unlike
//! sampling). The deployment is configured through the unified builder; the
//! custom anomaly-injecting generator plugs in as a [`CustomWorkload`].
//!
//! ```sh
//! cargo run --release --example pingmesh_monitor
//! ```

use jarvis::core::calibration;
use jarvis::prelude::*;
use jarvis::telemetry::anomaly::AnomalySchedule;
use jarvis::telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};
use jarvis::telemetry::queries;

fn main() {
    // A network incident: 3 % of server pairs spike to ~30x RTT for 50 s.
    let cfg = PingmeshConfig {
        anomalies: AnomalySchedule::single(10.0, 50.0, 0.03, 30.0),
        ..Default::default()
    };
    let workload = CustomWorkload::new(
        "pingmesh-incident",
        queries::s2s_probe(),
        calibration::s2s_cost_profile(),
        vec![Box::new(PingmeshGenerator::new(cfg))],
    );

    // Deploy with a pinned data-level plan: filter fully local, aggregation
    // on 70 % of records local, the rest drained to the stream processor.
    let spec = Deployment::builder()
        .workload(workload)
        .strategy(StrategyKind::AllSrc)
        .load_factors(vec![1.0, 1.0, 0.7])
        .cpu_budget(1.0)
        .sources(1)
        .spec()
        .expect("valid deployment");
    let mut session = LiveSession::new(&spec).expect("live session");
    session.run_epochs(30).expect("epochs run");
    println!(
        "streamed {} probe records over 30 s",
        session.input_records()
    );
    let outcome = session.finish();
    println!(
        "live run: {} drained records, {} state deltas, {} result rows",
        outcome.drained_records,
        outcome.state_deltas,
        outcome.results.len()
    );

    // Alert evaluation on merged results: result rows are
    // [window_start, srcIp, dstIp, avg_rtt, max_rtt, min_rtt].
    let mut pairs = 0u64;
    let mut alerting = 0u64;
    for row in &outcome.results {
        pairs += 1;
        if row.values[4].as_f64().unwrap_or(0.0) > 5_000.0 {
            alerting += 1;
        }
    }
    let frac = alerting as f64 / pairs.max(1) as f64;
    println!(
        "pairs: {pairs}, above 5 ms: {alerting} ({:.2}%)",
        frac * 100.0
    );
    if frac > 0.01 {
        println!("ALERT: more than 1% of server pairs exceed the 5 ms latency threshold");
    } else {
        println!("network healthy");
    }
    assert!(frac > 0.01, "the injected incident must trigger the alert");
}
