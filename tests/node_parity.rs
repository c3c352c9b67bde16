//! Node parity: the multi-node SP tier is exact at any node count.
//!
//! The fixed hash ring of `sp_shards` virtual shards is the exactness
//! anchor: the key → shard mapping never depends on the node count, nodes
//! own contiguous ring slices, and remote-shard traffic (keyed sub-batches
//! and split `StatePartial`s) crosses nodes as `NetPayload::ShardBatch` /
//! `ShardState` payloads — serialized bytes between the live backend's
//! nodes. The union of results over nodes must therefore be
//! **bit-identical** to the single-node run. This suite proves 1 ≡ 2 ≡ 4
//! nodes on a 4-shard ring, on all three paper queries, under:
//!
//! * **All-SP** (everything drained: the full flow, where every source
//!   task partitions its raw row traffic over the ring);
//! * **All-Src** (everything pre-aggregated at the sources: partitioned
//!   state shipping, where every `StatePartial` entry must reach the node
//!   owning its key's shard);
//! * **Jarvis** (adaptive mixed flow: drained rows and shipped state
//!   interleave while the runtime moves load factors).
//!
//! The emulated backend models the paper's single stream processor, so its
//! digest is an independent reference: the `*_emulated_*` cases assert that
//! the live tier at 1, 2 and 4 nodes reproduces it.
//!
//! Cross-node shipping cost is visible and sane: `shard_stats` /
//! `node_stats` wire bytes are zero on one node, positive on many, and a
//! shard's drain share never depends on where it lives.

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::{BackendKind, Deployment, ExactnessDigest, RunReport};
use jarvis::core::experiment::ScenarioSpec;
use jarvis::core::strategy::StrategyKind;

/// Virtual shards on the ring for every live run — fixed, so node counts
/// only move shard placement.
const RING: u32 = 4;

/// A live run on the `RING`-shard ring over `nodes` nodes.
fn run(spec: &ScenarioSpec, strategy: StrategyKind, nodes: u32, epochs: u64) -> RunReport {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(1.0)
        .sources(2)
        .sp_shards(RING)
        .sp_nodes(nodes)
        .backend(BackendKind::Live)
        .collect_results(true)
        .build()
        .expect("valid spec")
        .run(epochs)
        .expect("run succeeds")
}

/// The same deployment on the emulated backend's single SP.
fn emulated(spec: &ScenarioSpec, strategy: StrategyKind, epochs: u64) -> RunReport {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(1.0)
        .sources(2)
        .backend(BackendKind::Emulated)
        .collect_results(true)
        .build()
        .expect("valid spec")
        .run(epochs)
        .expect("run succeeds")
}

/// Asserts live 1 ≡ 2 ≡ 4 nodes; returns the 4-node report.
fn assert_node_parity(spec: &ScenarioSpec, strategy: StrategyKind, epochs: u64) -> RunReport {
    let base = run(spec, strategy, 1, epochs);
    let digest = base.exactness.clone().expect("digest collected");
    assert!(digest.rows > 0, "the run must produce results");
    assert_eq!(base.sp_nodes, 1);
    assert_eq!(base.node_stats.len(), 1, "one node, one stat row");
    assert_eq!(
        base.shard_stats
            .iter()
            .map(|s| s.wire_bytes_out)
            .sum::<u64>(),
        0,
        "a single-node SP never ships shard traffic over a link"
    );
    let mut four: Option<RunReport> = None;
    for nodes in [2u32, 4] {
        let report = run(spec, strategy, nodes, epochs);
        assert_eq!(report.sp_nodes, u64::from(nodes));
        assert_eq!(report.node_stats.len(), nodes as usize);
        assert_eq!(
            report.exactness.as_ref().expect("digest collected"),
            &digest,
            "{} / {}: {nodes}-node results must be bit-identical to single-node",
            spec.name(),
            strategy.label(),
        );
        // The ring is fixed: a shard's drain share is placement-independent.
        assert_eq!(
            report
                .shard_stats
                .iter()
                .map(|s| s.drained_records)
                .collect::<Vec<_>>(),
            base.shard_stats
                .iter()
                .map(|s| s.drained_records)
                .collect::<Vec<_>>(),
            "shard drain shares must not depend on node count"
        );
        // Node rows roll the owned shards up.
        assert_eq!(
            report
                .node_stats
                .iter()
                .map(|n| n.drained_records)
                .sum::<u64>(),
            report
                .shard_stats
                .iter()
                .map(|s| s.drained_records)
                .sum::<u64>(),
        );
        if nodes == 4 {
            four = Some(report);
        }
    }
    four.expect("4-node run executed")
}

/// Asserts the live tier at 1, 2 and 4 nodes reproduces the emulated single
/// SP's digest; returns the emulated report.
fn assert_emulated_equals_live_nodes(
    spec: ScenarioSpec,
    strategy: StrategyKind,
    epochs: u64,
) -> RunReport {
    let em = emulated(&spec, strategy, epochs);
    assert!(digest_of(&em).rows > 0, "the run must produce results");
    assert_eq!((em.sp_shards, em.sp_nodes), (1, 1));
    assert_eq!(em.node_stats.len(), 1, "one SP, one node row");
    let live = assert_node_parity(&spec, strategy, epochs);
    assert_eq!(
        digest_of(&live),
        digest_of(&em),
        "{} / {}: the live tier must reproduce the single SP",
        spec.name(),
        strategy.label(),
    );
    em
}

fn digest_of(r: &RunReport) -> &ExactnessDigest {
    r.exactness.as_ref().expect("digest collected")
}

// ---- live backend: full flow (everything drained to the SP) ----

#[test]
fn s2s_live_full_nodes_equal_single() {
    let r = assert_node_parity(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSp,
        8,
    );
    // With everything drained and two ingress nodes, remote slices must be
    // fed over the links and the shipping charged.
    assert!(
        r.shard_stats.iter().map(|s| s.wire_bytes_out).sum::<u64>() > 0,
        "cross-node shipping must be visible: {:?}",
        r.shard_stats
    );
    assert!(
        r.node_stats.iter().any(|n| n.wire_bytes_out > 0),
        "some ingress must ship remotely: {:?}",
        r.node_stats
    );
}

#[test]
fn t2t_live_full_nodes_equal_single() {
    assert_node_parity(
        &ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::AllSp,
        8,
    );
}

#[test]
fn log_live_full_nodes_equal_single() {
    assert_node_parity(
        &ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::AllSp,
        8,
    );
}

#[test]
fn log_live_dict_pages_ship_as_deltas_not_per_frame() {
    // LogAnalytics cross-node frames are post-parse dictionary batches.
    // With persistent parse dicts the tenant/stat pages cross each link
    // once (then resume as near-empty deltas), so the marginal wire cost of
    // the second half of a run must be strictly below the first half, which
    // paid the first-contact pages and the interning ramp. Wire charges are
    // deterministic byte counts, so this is a stable assertion, not a
    // timing one.
    let spec = ScenarioSpec::log_analytics(Scale::X1);
    let wire_of = |epochs: u64| -> u64 {
        run(&spec, StrategyKind::AllSp, 2, epochs)
            .shard_stats
            .iter()
            .map(|s| s.wire_bytes_out)
            .sum()
    };
    let half = wire_of(4);
    let full = wire_of(8);
    assert!(half > 0, "two-node LogAnalytics must ship shard traffic");
    assert!(
        full - half < half,
        "late epochs must ride dictionary deltas: first 4 epochs {half} B, \
         next 4 epochs {} B",
        full - half
    );
}

// ---- live backend: partitioned state shipping (sources pre-aggregate and
// ship StatePartial entries, which must merge on the node owning each
// entry's shard) ----

#[test]
fn s2s_live_partitioned_state_nodes_equal_single() {
    let r = assert_node_parity(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSrc,
        8,
    );
    assert_eq!(r.drained_records, 0, "All-Src drains no rows");
    assert!(r.state_deltas > 0, "state must ship");
}

#[test]
fn t2t_live_partitioned_state_nodes_equal_single() {
    assert_node_parity(
        &ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::AllSrc,
        8,
    );
}

#[test]
fn log_live_partitioned_state_nodes_equal_single() {
    assert_node_parity(
        &ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::AllSrc,
        8,
    );
}

// ---- live backend: adaptive mixed flow ----

#[test]
fn s2s_live_adaptive_nodes_equal_single() {
    assert_node_parity(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::Jarvis,
        10,
    );
}

#[test]
fn t2t_live_adaptive_nodes_equal_single() {
    assert_node_parity(
        &ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::Jarvis,
        10,
    );
}

#[test]
fn log_live_adaptive_nodes_equal_single() {
    assert_node_parity(
        &ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::Jarvis,
        10,
    );
}

// ---- emulated backend: the single SP is the reference the live tier
// reproduces at every node count ----

#[test]
fn s2s_emulated_full_nodes_equal_single() {
    let r = assert_emulated_equals_live_nodes(
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSp,
        16,
    );
    assert_eq!(
        r.shard_stats.iter().map(|s| s.wire_bytes_out).sum::<u64>(),
        0,
        "the single SP ships nothing across a link"
    );
}

#[test]
fn t2t_emulated_full_nodes_equal_single() {
    assert_emulated_equals_live_nodes(
        ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::AllSp,
        16,
    );
}

#[test]
fn log_emulated_full_nodes_equal_single() {
    assert_emulated_equals_live_nodes(
        ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::AllSp,
        16,
    );
}

#[test]
fn s2s_emulated_partitioned_state_nodes_equal_single() {
    assert_emulated_equals_live_nodes(
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSrc,
        16,
    );
}

#[test]
fn t2t_emulated_partitioned_state_nodes_equal_single() {
    assert_emulated_equals_live_nodes(
        ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::AllSrc,
        16,
    );
}

#[test]
fn log_emulated_partitioned_state_nodes_equal_single() {
    assert_emulated_equals_live_nodes(
        ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::AllSrc,
        16,
    );
}

#[test]
fn s2s_emulated_adaptive_nodes_equal_single() {
    assert_emulated_equals_live_nodes(
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::Jarvis,
        20,
    );
}

#[test]
fn t2t_emulated_adaptive_nodes_equal_single() {
    assert_emulated_equals_live_nodes(
        ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        StrategyKind::Jarvis,
        20,
    );
}

#[test]
fn log_emulated_adaptive_nodes_equal_single() {
    assert_emulated_equals_live_nodes(
        ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::Jarvis,
        20,
    );
}

// ---- cross-backend, scaled out ----

#[test]
fn scale_out_does_not_change_cross_backend_parity() {
    // The emulated single SP and the live tier's 4-node cluster agree.
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let em = emulated(&spec, StrategyKind::AllSrc, 12);
    let lv = run(&spec, StrategyKind::AllSrc, 4, 12);
    assert_eq!(digest_of(&em), digest_of(&lv));
}

// ---- live backend: schedule independence, swept ----

#[test]
fn s2s_live_adaptive_digest_and_wire_bytes_ignore_the_schedule() {
    // Every source task splits, encodes and sends its own frames, so
    // neither the result nor a single wire byte may depend on how many
    // workers ran the tasks or how often a narrow channel parked them. S2S
    // under Jarvis at a budget that leaves load factors fractional puts
    // both payload kinds on the links: drained `ShardBatch` rows and
    // `ShardState` deltas.
    let run = |workers: u32, capacity: u32| {
        Deployment::builder()
            .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
            .strategy(StrategyKind::Jarvis)
            .cpu_budget(0.04)
            .sources(8)
            .sp_shards(RING)
            .sp_nodes(2)
            .backend(BackendKind::Live)
            .rt_workers(workers)
            .channel_capacity(capacity)
            .collect_results(true)
            .build()
            .expect("valid spec")
            .run(12)
            .expect("run succeeds")
    };
    let wire_bytes = |r: &RunReport| -> (Vec<u64>, Vec<u64>) {
        (
            r.shard_stats.iter().map(|s| s.wire_bytes_out).collect(),
            r.node_stats.iter().map(|n| n.wire_bytes_out).collect(),
        )
    };
    let base = run(1, 256);
    assert!(
        base.load_factors.iter().any(|&p| p > 0.0 && p < 1.0),
        "the budget must leave a fractional load factor: {:?}",
        base.load_factors
    );
    assert!(
        base.drained_records > 0 && base.state_deltas > 0,
        "both drained rows and state deltas must flow"
    );
    assert!(
        wire_bytes(&base).1.iter().all(|&b| b > 0),
        "both ingress nodes ship across the link"
    );
    for workers in [1u32, 2, 4] {
        for capacity in [2u32, 256] {
            let r = run(workers, capacity);
            assert_eq!(
                digest_of(&r),
                digest_of(&base),
                "rt_workers {workers}, channel_capacity {capacity}: digest"
            );
            assert_eq!(
                wire_bytes(&r),
                wire_bytes(&base),
                "rt_workers {workers}, channel_capacity {capacity}: wire bytes"
            );
        }
    }
}
