//! Quickstart: run the paper's S2SProbe monitoring query on one emulated
//! data source under Jarvis' adaptive data-level partitioning — through the
//! unified `Deployment` builder (Listing 1's three-line contract).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use jarvis::prelude::*;

fn main() {
    // The Listing 1 query on a synthetic Pingmesh stream at the paper's
    // 10x-scaled rate (26.2 Mbps per source).
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X10);
    println!("query   : {}", spec.plan().plan.display_chain());
    println!("input   : {:.2} Mbps", spec.input_mbps());

    // One data source with 60% of a core available to the monitoring query,
    // attached to a stream processor over a 20.48 Mbps uplink share. The
    // same builder drives the live backend too.
    let report = Deployment::builder()
        .workload(spec)
        .strategy(StrategyKind::Jarvis)
        .sources(1)
        .cpu_budget(0.6)
        .backend(BackendKind::Emulated)
        .build()
        .expect("valid deployment")
        .run(60)
        .expect("emulated run");

    println!("--- after 60 one-second epochs ---");
    println!(
        "throughput    : {:.2} Mbps (on-time, 5 s latency bound)",
        report.throughput_mbps
    );
    println!(
        "network       : {:.2} Mbps offered to the uplink",
        report.network_mbps
    );
    println!("load factors  : {:?}", report.load_factors);
    println!(
        "median latency: {:.0} ms",
        report.latency_median_s.unwrap_or(f64::NAN) * 1e3
    );
    println!(
        "adaptation    : {} episode(s), runtime overhead {:.3}% of a core",
        report.episodes.len(),
        report.overhead_core_frac * 100.0
    );

    // The first Profile/Adapt episode pulls the filter fully local and the
    // aggregation partially local, which is what keeps the network rate well
    // under the 26.2 Mbps input.
    assert!(report.throughput_mbps > 20.0);
    assert!(report.network_mbps < report.input_mbps);
    println!("ok: data-level partitioning kept the query within budget and bandwidth");
}
