//! Source-scale parity: the async task runtime is exact at every fan-in.
//!
//! The live session multiplexes one task per source prefix onto
//! `rt_workers` executor threads (PR 10); these tests prove the schedule
//! never leaks into results. At each fan-in — 4, 64, 512, and 1024
//! sources — the live run's merged result digest must be **bit-identical**
//! to the deterministic emulated run of the same deployment, on all three
//! paper queries. The emulated digests are themselves pinned by
//! `tests/golden_fingerprints.rs`, unchanged since the thread-per-source
//! runtime, so equality here transitively proves the async runtime matches
//! the thread-per-source baseline bit-for-bit.
//!
//! On top of the in-process matrix: TCP remote parity at 64 sources (real
//! sockets, task-backed link writers), a seeded node-loss run (sever at
//! epoch 3, `Reassign`) proving the PR-8 recovery digests survive the task
//! runtime, and a squeezed-runtime run (2 workers) proving the worker count
//! reshapes scheduling without touching the answer.
//!
//! The 512- and 1024-source tests are minutes of work per query even in
//! release mode, so they carry `#[cfg_attr(debug_assertions, ignore)]`:
//! they run in CI's `cargo test --release` pass and are skipped (visibly,
//! with a reason) by a default debug `cargo test`.

use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::{BackendKind, Deployment, OnNodeLoss, RunReport, TransportKind};
use jarvis::core::experiment::ScenarioSpec;
use jarvis::core::fault::{FaultKind, FaultPlan, FaultTrigger};
use jarvis::core::node::{run_node, NodeConfig, NodeError, NodeSummary};
use jarvis::core::strategy::StrategyKind;

/// Virtual shards on the ring, matching `tests/remote_parity.rs`.
const RING: u32 = 4;

/// The three paper queries at the base scale.
fn paper_queries() -> [ScenarioSpec; 3] {
    [
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        ScenarioSpec::log_analytics(Scale::X1),
    ]
}

fn run_on(
    spec: &ScenarioSpec,
    strategy: StrategyKind,
    sources: u32,
    backend: BackendKind,
    epochs: u64,
) -> RunReport {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(1.0)
        .sources(sources)
        .backend(backend)
        .collect_results(true)
        .build()
        .expect("valid spec")
        .run(epochs)
        .expect("run succeeds")
}

/// Live ≡ emulated at one fan-in: the task schedule must not leak into the
/// merged result digest.
fn assert_scale_parity(spec: &ScenarioSpec, strategy: StrategyKind, sources: u32, epochs: u64) {
    let emulated = run_on(spec, strategy, sources, BackendKind::Emulated, epochs);
    let live = run_on(spec, strategy, sources, BackendKind::Live, epochs);
    let em = emulated.exactness.expect("emulated digest");
    let lv = live.exactness.expect("live digest");
    assert!(
        em.rows > 0,
        "{} @ {sources} sources must produce results",
        spec.name()
    );
    assert_eq!(
        em,
        lv,
        "{} @ {sources} sources: live (async runtime) must equal emulated",
        spec.name()
    );
}

#[test]
fn pingmesh_s2s_parity_at_4_and_64_sources() {
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    for sources in [4, 64] {
        assert_scale_parity(&spec, StrategyKind::Jarvis, sources, 12);
    }
}

#[test]
fn pingmesh_t2t_parity_at_4_and_64_sources() {
    let spec = ScenarioSpec::pingmesh_t2t(Scale::X1, 500);
    for sources in [4, 64] {
        assert_scale_parity(&spec, StrategyKind::Jarvis, sources, 12);
    }
}

#[test]
fn log_analytics_parity_at_4_and_64_sources() {
    let spec = ScenarioSpec::log_analytics(Scale::X1);
    for sources in [4, 64] {
        assert_scale_parity(&spec, StrategyKind::Jarvis, sources, 12);
    }
}

/// 512 source tasks per run — minutes of release-mode work per query and
/// far past the point where a debug binary stalls the default test pass,
/// so the heavy half of the scale matrix only runs where CI runs it:
/// `cargo test --release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "512-source runs need a release build")]
fn parity_at_512_sources_on_all_queries() {
    for spec in paper_queries() {
        assert_scale_parity(&spec, StrategyKind::Jarvis, 512, 12);
    }
}

/// The acceptance bar: 1k+ sources, digest-identical to the scheduler-free
/// emulated baseline, on all three paper queries.
#[test]
#[cfg_attr(debug_assertions, ignore = "1024-source runs need a release build")]
fn thousand_source_runs_match_the_baseline_on_all_queries() {
    for spec in paper_queries() {
        assert_scale_parity(&spec, StrategyKind::Jarvis, 1024, 8);
    }
}

/// Squeezing the runtime — 2 workers multiplexing 512 source tasks —
/// reshapes every schedule and backpressure decision but may not change a
/// bit of the answer.
#[test]
#[cfg_attr(debug_assertions, ignore = "512-source runs need a release build")]
fn runtime_knobs_do_not_change_the_digest() {
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let baseline = run_on(&spec, StrategyKind::Jarvis, 512, BackendKind::Emulated, 10);
    let squeezed = Deployment::builder()
        .workload(spec.clone())
        .strategy(StrategyKind::Jarvis)
        .cpu_budget(1.0)
        .sources(512)
        .backend(BackendKind::Live)
        .rt_workers(2)
        .collect_results(true)
        .build()
        .expect("valid spec")
        .run(10)
        .expect("run succeeds");
    // The report echoes the *effective* worker count: the knob's value, or
    // 1 when CI's JARVIS_RT_SEED override swaps in the seeded
    // single-worker deterministic scheduler.
    let expect_workers = if std::env::var_os("JARVIS_RT_SEED").is_some() {
        1
    } else {
        2
    };
    assert_eq!(
        squeezed.rt_workers, expect_workers,
        "report echoes the knob"
    );
    assert_eq!(
        baseline.exactness.expect("emulated digest"),
        squeezed.exactness.expect("live digest"),
        "the worker count must not affect results"
    );
}

// ---------------------------------------------------------------------------
// TCP remote parity and fault recovery at scale.
// ---------------------------------------------------------------------------

/// Serializes the TCP tests: each allocates an ephemeral port by binding
/// then releasing it, which must not race another test's bind.
fn port_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An ephemeral loopback port that is free right now.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

/// Spawns `n` executor threads dialling `addr` (they retry until the
/// coordinator listens).
fn spawn_nodes(
    addr: &str,
    token: &str,
    n: u32,
) -> Vec<thread::JoinHandle<Result<NodeSummary, NodeError>>> {
    (0..n)
        .map(|_| {
            let config = NodeConfig::new(addr, token);
            thread::spawn(move || run_node(&config))
        })
        .collect()
}

fn tcp_builder(
    spec: &ScenarioSpec,
    sources: u32,
    addr: &str,
    token: &str,
) -> jarvis::core::deploy::DeploymentBuilder {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(StrategyKind::Jarvis)
        .cpu_budget(1.0)
        .sources(sources)
        .sp_shards(RING)
        .sp_nodes(2)
        .backend(BackendKind::Live)
        .transport(TransportKind::Tcp)
        .listen_addr(addr)
        .auth_token(token)
        .node_timeout(Duration::from_secs(30))
        .collect_results(true)
}

fn in_process_run(spec: &ScenarioSpec, sources: u32, nodes: u32, epochs: u64) -> RunReport {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(StrategyKind::Jarvis)
        .cpu_budget(1.0)
        .sources(sources)
        .sp_shards(RING)
        .sp_nodes(nodes)
        .backend(BackendKind::Live)
        .collect_results(true)
        .build()
        .expect("valid spec")
        .run(epochs)
        .expect("run succeeds")
}

/// 64 sources over real sockets: task-backed link writers ship every shard
/// frame, and the digest matches the in-process run — the fixed ring makes
/// routing node-count- and transport-independent.
#[test]
fn tcp_remote_parity_at_64_sources() {
    let _guard = port_lock();
    let addr = free_addr();
    let token = "source-scale";
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let epochs = 8;
    let handles = spawn_nodes(&addr, token, 2);
    let report = tcp_builder(&spec, 64, &addr, token)
        .build()
        .expect("valid TCP spec")
        .run(epochs)
        .expect("TCP run succeeds");
    for handle in handles {
        let summary = handle
            .join()
            .expect("node thread")
            .expect("node run succeeds");
        assert_eq!(summary.epochs, epochs, "every epoch boundary is acked");
    }
    let baseline = in_process_run(&spec, 64, 4, epochs);
    assert_eq!(
        report.exactness.as_ref().expect("digest collected"),
        baseline.exactness.as_ref().expect("digest collected"),
        "64-source TCP run must be bit-identical to the in-process run"
    );
}

/// Severs node 1 at the epoch-3 boundary under `Reassign`, at 64 sources on
/// the async runtime: the survivor adopts the lost shards from the last
/// acked checkpoint and the digest still matches the fault-free run — the
/// PR-8 recovery contract holds under task scheduling.
#[test]
fn sever_at_epoch_3_reassign_recovers_exactly() {
    let _guard = port_lock();
    let addr = free_addr();
    let token = "source-scale";
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let epochs = 8;
    let kill_epoch = 3;
    let handles = spawn_nodes(&addr, token, 2);
    let report = tcp_builder(&spec, 64, &addr, token)
        .liveness_timeout(Duration::from_secs(10))
        .checkpoint_interval(2)
        .fault_plan(FaultPlan::single(
            0x5eed_cafe,
            1,
            FaultTrigger::EpochEnd(kill_epoch),
            FaultKind::Sever,
        ))
        .on_node_loss(OnNodeLoss::Reassign)
        .build()
        .expect("valid TCP spec")
        .run(epochs)
        .expect("run survives the node loss");
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread"))
        .collect();
    assert_eq!(
        outcomes.iter().filter(|o| o.is_err()).count(),
        1,
        "exactly the severed node fails: {outcomes:?}"
    );
    assert_eq!(report.incidents.len(), 1, "{:?}", report.incidents);
    assert_eq!(report.incidents[0].node, 1);
    assert_eq!(report.incidents[0].epoch, kill_epoch);
    assert_eq!(report.incidents[0].action, "reassigned");
    let baseline = in_process_run(&spec, 64, 4, epochs);
    assert_eq!(
        report.exactness.as_ref().expect("digest collected"),
        baseline.exactness.as_ref().expect("digest collected"),
        "recovered 64-source run must be bit-identical to the fault-free run"
    );
}
