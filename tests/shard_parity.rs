//! Shard parity: the sharded SP runtime is exact at any shard count.
//!
//! The keyed shard partitioner splits every boundary batch (and every
//! shipped `StatePartial`) by group-key hash, so each shard owns a disjoint
//! slice of the key space and the union of shard results must be
//! **bit-identical** to the unsharded run. This suite proves it on all
//! three paper queries on the live backend (source tasks splitting over
//! real channels to node tasks) — under All-SP (everything drained: the
//! full flow) and All-Src (everything pre-aggregated at the sources:
//! partitioned state shipping, where every `StatePartial` entry must be
//! routed to the shard owning its key), plus the adaptive Jarvis strategy
//! (mixed flow).
//!
//! Digests at `sp_shards = 2` and `4` must equal `sp_shards = 1`, which is
//! exactly the pre-sharding replica chain. The emulated backend models the
//! paper's single stream processor, so its digest is an independent
//! reference: the `*_emulated_*` cases assert that the live tier's sharded
//! runs reproduce it.

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::{BackendKind, Deployment, ExactnessDigest, RunReport};
use jarvis::core::experiment::ScenarioSpec;
use jarvis::core::strategy::StrategyKind;

fn run(
    spec: &ScenarioSpec,
    strategy: StrategyKind,
    backend: BackendKind,
    shards: u32,
    epochs: u64,
) -> RunReport {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(1.0)
        .sources(2)
        .sp_shards(shards)
        .backend(backend)
        .collect_results(true)
        .build()
        .expect("valid spec")
        .run(epochs)
        .expect("run succeeds")
}

/// Asserts live 1 ≡ 2 ≡ 4 shards; returns the 4-shard report.
fn assert_shard_parity(spec: &ScenarioSpec, strategy: StrategyKind, epochs: u64) -> RunReport {
    let base = run(spec, strategy, BackendKind::Live, 1, epochs);
    let digest = base.exactness.clone().expect("digest collected");
    assert!(digest.rows > 0, "the run must produce results");
    let mut sharded4: Option<RunReport> = None;
    for shards in [2u32, 4] {
        let report = run(spec, strategy, BackendKind::Live, shards, epochs);
        assert_eq!(report.sp_shards, u64::from(shards));
        assert_eq!(
            report.exactness.as_ref().expect("digest collected"),
            &digest,
            "{} / {}: {shards}-shard results must be bit-identical to unsharded",
            spec.name(),
            strategy.label(),
        );
        if shards == 4 {
            sharded4 = Some(report);
        }
    }
    sharded4.expect("4-shard run executed")
}

/// Asserts the live tier at 1, 2 and 4 shards reproduces the emulated
/// single SP's digest.
fn assert_emulated_equals_live_shards(spec: ScenarioSpec, strategy: StrategyKind, epochs: u64) {
    let em = run(&spec, strategy, BackendKind::Emulated, 1, epochs);
    assert_eq!(em.shard_stats.len(), 1, "one SP, one shard row");
    let live = assert_shard_parity(&spec, strategy, epochs);
    assert_eq!(
        digest_of(&live),
        digest_of(&em),
        "{} / {}: the live tier must reproduce the single SP",
        spec.name(),
        strategy.label(),
    );
}

fn digest_of(r: &RunReport) -> &ExactnessDigest {
    r.exactness.as_ref().expect("digest collected")
}

// ---- live backend: full flow (everything drained to the SP) ----

#[test]
fn s2s_live_full_sharded_equals_unsharded() {
    let r = assert_shard_parity(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSp,
        10,
    );
    // With everything drained, the partitioner must actually spread load.
    let busy = r
        .shard_stats
        .iter()
        .filter(|s| s.drained_records > 0)
        .count();
    assert!(
        busy > 1,
        "keys must spread over shards: {:?}",
        r.shard_stats
    );
}

#[test]
fn t2t_live_full_sharded_equals_unsharded() {
    assert_shard_parity(
        &ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::AllSp,
        10,
    );
}

#[test]
fn log_live_full_sharded_equals_unsharded() {
    assert_shard_parity(
        &ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::AllSp,
        10,
    );
}

// ---- live backend: partitioned state shipping (sources pre-aggregate and
// ship StatePartial entries, which must merge on the owning shard) ----

#[test]
fn s2s_live_partitioned_state_sharded_equals_unsharded() {
    let r = assert_shard_parity(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSrc,
        10,
    );
    assert_eq!(r.drained_records, 0, "All-Src drains no rows");
    assert!(r.state_deltas > 0, "state must ship");
}

#[test]
fn t2t_live_partitioned_state_sharded_equals_unsharded() {
    assert_shard_parity(
        &ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::AllSrc,
        10,
    );
}

#[test]
fn log_live_partitioned_state_sharded_equals_unsharded() {
    assert_shard_parity(
        &ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::AllSrc,
        10,
    );
}

// ---- live backend: adaptive mixed flow (drained rows AND shipped state
// interleave while the runtime moves load factors) ----

#[test]
fn s2s_live_adaptive_sharded_equals_unsharded() {
    assert_shard_parity(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::Jarvis,
        12,
    );
}

// ---- emulated backend: the single SP is the reference the live tier's
// sharded runs reproduce ----

#[test]
fn s2s_emulated_sharded_equals_unsharded() {
    assert_emulated_equals_live_shards(
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSp,
        20,
    );
}

#[test]
fn t2t_emulated_sharded_equals_unsharded() {
    assert_emulated_equals_live_shards(
        ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::AllSp,
        20,
    );
}

#[test]
fn log_emulated_sharded_equals_unsharded() {
    assert_emulated_equals_live_shards(
        ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::AllSrc,
        20,
    );
}

#[test]
fn sharding_does_not_change_cross_backend_parity() {
    // The emulated single SP and the live tier's 4-shard ring agree.
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let em = run(&spec, StrategyKind::AllSrc, BackendKind::Emulated, 1, 16);
    let lv = run(&spec, StrategyKind::AllSrc, BackendKind::Live, 4, 16);
    assert_eq!(digest_of(&em), digest_of(&lv));
}
