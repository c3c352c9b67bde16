//! Backend parity: one `DeploymentSpec`, every backend, the same answer.
//!
//! Data-level partitioning is *exact* (paper §VI-D): however records are
//! split between a data source and its stream-processor replica, the merged
//! results equal an unpartitioned run. The unified deployment API makes that
//! testable across execution backends — the deterministic emulator and the
//! threaded live runtime must produce identical result fingerprints for the
//! same workload, plus typed builder errors for invalid specs.

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::{BackendKind, DeployError, Deployment, DeploymentBuilder, RunReport};
use jarvis::core::experiment::ScenarioSpec;
use jarvis::core::strategy::StrategyKind;

fn builder(spec: ScenarioSpec, strategy: StrategyKind, cpu: f64) -> DeploymentBuilder {
    Deployment::builder()
        .workload(spec)
        .strategy(strategy)
        .cpu_budget(cpu)
        .collect_results(true)
}

fn run_on(
    spec: &ScenarioSpec,
    strategy: StrategyKind,
    cpu: f64,
    sources: u32,
    backend: BackendKind,
    epochs: u64,
) -> RunReport {
    builder(spec.clone(), strategy, cpu)
        .sources(sources)
        .backend(backend)
        .build()
        .expect("valid spec")
        .run(epochs)
        .expect("run succeeds")
}

fn assert_parity(spec: ScenarioSpec, strategy: StrategyKind, cpu: f64, sources: u32, epochs: u64) {
    let emulated = run_on(&spec, strategy, cpu, sources, BackendKind::Emulated, epochs);
    let live = run_on(&spec, strategy, cpu, sources, BackendKind::Live, epochs);
    let em = emulated.exactness.expect("emulated digest");
    let lv = live.exactness.expect("live digest");
    assert!(em.rows > 0, "the run must produce results");
    assert_eq!(
        em,
        lv,
        "emulated and live merged results must be identical for {} / {}",
        spec.name(),
        strategy.label()
    );
}

#[test]
fn pingmesh_s2s_emulated_equals_live_all_src() {
    assert_parity(
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSrc,
        1.0,
        1,
        30,
    );
}

#[test]
fn pingmesh_s2s_emulated_equals_live_under_jarvis_adaptation() {
    // Adaptive load factors differ between backends epoch by epoch; the
    // merged results must not.
    assert_parity(
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::Jarvis,
        0.8,
        2,
        30,
    );
}

#[test]
fn log_analytics_emulated_equals_live() {
    assert_parity(
        ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::Jarvis,
        0.8,
        1,
        24,
    );
}

#[test]
fn log_analytics_emulated_equals_live_all_sp() {
    assert_parity(
        ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::AllSp,
        1.0,
        2,
        24,
    );
}

#[test]
fn all_three_backends_accept_one_spec() {
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X10);
    for backend in [BackendKind::Emulated, BackendKind::Live] {
        let report = builder(spec.clone(), StrategyKind::Jarvis, 0.6)
            .backend(backend)
            .build()
            .unwrap()
            .run(25)
            .unwrap();
        assert_eq!(report.backend, backend.label());
        assert_eq!(report.deployed_chain, "W -> F -> G+R");
    }
}

#[test]
fn builder_rejects_zero_sources() {
    let err = builder(
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::Jarvis,
        0.5,
    )
    .sources(0)
    .build()
    .unwrap_err();
    assert_eq!(err, DeployError::NoSources);
}

#[test]
fn builder_rejects_invalid_budget_and_load_factors() {
    assert!(matches!(
        builder(
            ScenarioSpec::pingmesh_s2s(Scale::X1),
            StrategyKind::Jarvis,
            -0.5
        )
        .build()
        .unwrap_err(),
        DeployError::InvalidCpuBudget { .. }
    ));
    let err = builder(
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSrc,
        0.5,
    )
    .load_factors(vec![1.0, -0.1, 0.5])
    .build()
    .unwrap_err();
    assert_eq!(
        err,
        DeployError::InvalidLoadFactor {
            index: 1,
            value: -0.1
        }
    );
}

#[test]
fn builder_rejects_strategy_backend_mismatch() {
    // Pinned load factors need a strategy that leaves them alone, on
    // either backend.
    for backend in [BackendKind::Emulated, BackendKind::Live] {
        let err = builder(
            ScenarioSpec::pingmesh_s2s(Scale::X1),
            StrategyKind::LbDp,
            0.5,
        )
        .load_factors(vec![1.0, 1.0, 0.5])
        .backend(backend)
        .build()
        .unwrap_err();
        assert_eq!(
            err,
            DeployError::FixedFactorsWithAdaptiveStrategy {
                strategy: StrategyKind::LbDp,
            }
        );
    }
}

#[test]
fn run_report_serializes_for_machine_readable_output() {
    let report = run_on(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSrc,
        1.0,
        1,
        BackendKind::Live,
        8,
    );
    let json = serde_json::to_string_pretty(&report).expect("serialises");
    let back: RunReport = serde_json::from_str(&json).expect("round-trips");
    assert_eq!(back.backend, report.backend);
    assert_eq!(back.exactness, report.exactness);
    assert_eq!(back.results_emitted, report.results_emitted);
    assert_eq!(back.load_factors, report.load_factors);
}
