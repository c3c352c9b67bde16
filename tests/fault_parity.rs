//! Fault parity: node loss mid-run must not change the answer.
//!
//! Each test boots a 2-node loopback TCP deployment with a seeded
//! `FaultPlan` that severs node 1's link at an epoch boundary, then checks
//! the recovery contract per `on_node_loss` policy:
//!
//! - `Reassign`: the survivor adopts the lost shards from the last acked
//!   checkpoint plus replayed post-checkpoint traffic; the result digest is
//!   **bit-identical** to the fault-free in-process run.
//! - reconnect (grace window): the severed executor re-dials, re-registers
//!   under its old node id, is re-seeded from the checkpoint, and the
//!   digest is again bit-identical.
//! - `Degrade`: the lost shards are dropped and the report advertises the
//!   exact per-shard completeness (acked epochs / epochs sent).
//!
//! Two fault schedules run every recovery path: [`EARLY`] cuts the link
//! inside the first window, when a checkpoint is operator state only;
//! [`LATE`] cuts it after the first window closed, when the last checkpoint
//! holds that window as result rows (`collected` frames) *and* the second
//! window as open operator state, and the second window only closes after
//! the recovery — closed-window rows must come back exactly once.

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
/// When the link is cut, relative to the run and its checkpoints.
#[derive(Clone, Copy)]
struct Schedule {
    /// Epochs per run.
    epochs: u64,
    /// The fault fires at this epoch's boundary: the severed node acked
    /// exactly this many epochs before the cut.
    kill_epoch: u64,
    /// Checkpoint every this many epochs.
    checkpoint_interval: u64,
}

/// Inside the first window: nothing has closed on either side of the fault.
const EARLY: Schedule = Schedule {
    epochs: 8,
    kill_epoch: 3,
    checkpoint_interval: 2,
};

/// Window 1 closes at epoch 9; the checkpoint at epoch 14 carries its rows
/// plus window 2's open state; the cut at 17 replays three epochs; window 2
/// closes at 19, on the far side of the recovery.
const LATE: Schedule = Schedule {
    epochs: 22,
    kill_epoch: 17,
    checkpoint_interval: 5,
};

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

/// Spawns `n` executor threads dialling `addr`. With `reconnect` they
/// survive a severed link by re-dialling and re-registering.
fn spawn_nodes(
    addr: &str,
    token: &str,
    n: u32,
    reconnect: bool,
) -> Vec<thread::JoinHandle<Result<NodeSummary, NodeError>>> {
    (0..n)
        .map(|_| {
            let mut config = NodeConfig::new(addr, token);
            config.reconnect = reconnect;
            thread::spawn(move || run_node(&config))
        })
        .collect()
}

/// Severs node 1's link just before the `kill_epoch`-th `EpochEnd` frame:
/// the node has all of that epoch's shard traffic but never acks it, so
/// the coordinator detects the loss at that boundary.
fn sever_node_one(kill_epoch: u64) -> FaultPlan {
    FaultPlan::single(
        0x5eed_cafe,
        1,
        FaultTrigger::EpochEnd(kill_epoch),
        FaultKind::Sever,
    )
}

fn fault_deployment(
    spec: &ScenarioSpec,
    strategy: StrategyKind,
    schedule: Schedule,
    addr: &str,
    token: &str,
) -> jarvis::core::deploy::DeploymentBuilder {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(1.0)
        .sources(2)
        .sp_shards(RING)
        .sp_nodes(2)
        .backend(BackendKind::Live)
        .transport(TransportKind::Tcp)
        .listen_addr(addr)
        .auth_token(token)
        .node_timeout(Duration::from_secs(30))
        .liveness_timeout(Duration::from_secs(10))
        .checkpoint_interval(schedule.checkpoint_interval)
        .fault_plan(sever_node_one(schedule.kill_epoch))
        .collect_results(true)
}

fn in_process_run(spec: &ScenarioSpec, strategy: StrategyKind, epochs: u64) -> RunReport {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(1.0)
        .sources(2)
        .sp_shards(RING)
        .sp_nodes(4)
        .backend(BackendKind::Live)
        .collect_results(true)
        .build()
        .expect("valid spec")
        .run(epochs)
        .expect("run succeeds")
}

/// Digest and shard-drain parity against the fault-free in-process run.
fn assert_exact(report: &RunReport, baseline: &RunReport, label: &str) {
    assert_eq!(
        report.exactness.as_ref().expect("digest collected"),
        baseline.exactness.as_ref().expect("digest collected"),
        "{label}: recovered run must be bit-identical to the fault-free run",
    );
    assert_eq!(
        report
            .shard_stats
            .iter()
            .map(|s| s.drained_records)
            .collect::<Vec<_>>(),
        baseline
            .shard_stats
            .iter()
            .map(|s| s.drained_records)
            .collect::<Vec<_>>(),
        "{label}: shard drain shares must survive recovery"
    );
}

/// Kills node 1 under `Reassign`: the survivor adopts its shards and the
/// digest matches the fault-free run bit-for-bit.
fn assert_reassign_parity(spec: ScenarioSpec, strategy: StrategyKind, schedule: Schedule) {
    assert_reassign_parity_on(spec, strategy, schedule, None);
}

/// [`assert_reassign_parity`] with the coordinator's executor pinned to
/// `rt_workers` threads when given (default: host-sized).
fn assert_reassign_parity_on(
    spec: ScenarioSpec,
    strategy: StrategyKind,
    schedule: Schedule,
    rt_workers: Option<u32>,
) {
    let _guard = port_lock();
    let addr = free_addr();
    let token = "fault-parity";
    let handles = spawn_nodes(&addr, token, 2, false);
    let mut builder = fault_deployment(&spec, strategy, schedule, &addr, token)
        .on_node_loss(OnNodeLoss::Reassign);
    if let Some(workers) = rt_workers {
        builder = builder.rt_workers(workers);
    }
    let report = builder
        .build()
        .expect("valid TCP spec")
        .run(schedule.epochs)
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
    let survivor = outcomes
        .iter()
        .find_map(|o| o.as_ref().ok())
        .expect("one node survives");
    assert_eq!(
        survivor.epochs, schedule.epochs,
        "the survivor acks every epoch"
    );
    assert_eq!(report.incidents.len(), 1, "{:?}", report.incidents);
    let incident = &report.incidents[0];
    assert_eq!(incident.node, 1);
    assert_eq!(incident.epoch, schedule.kill_epoch);
    assert_eq!(incident.action, "reassigned");
    assert!(
        incident.replay_bytes > 0,
        "reassignment ships checkpoint + replay bytes"
    );
    assert_eq!(report.replay_bytes, incident.replay_bytes);
    assert!(
        report.shard_stats.iter().all(|s| s.completeness == 1.0),
        "reassignment loses nothing: {:?}",
        report.shard_stats
    );
    let baseline = in_process_run(&spec, strategy, schedule.epochs);
    assert_exact(&report, &baseline, spec.name());
}

/// Kills node 1 with a reconnect grace window: the node re-dials, is
/// re-seeded from the last acked checkpoint, and the digest still matches.
fn assert_reconnect_parity(spec: ScenarioSpec, strategy: StrategyKind, schedule: Schedule) {
    let _guard = port_lock();
    let addr = free_addr();
    let token = "fault-parity";
    let handles = spawn_nodes(&addr, token, 2, true);
    let report = fault_deployment(&spec, strategy, schedule, &addr, token)
        .reconnect_grace(Duration::from_secs(10))
        .build()
        .expect("valid TCP spec")
        .run(schedule.epochs)
        .expect("run survives the reconnect");
    let mut reconnects = 0;
    for handle in handles {
        let summary = handle
            .join()
            .expect("node thread")
            .expect("both nodes finish after recovery");
        assert_eq!(
            summary.epochs, schedule.epochs,
            "every epoch boundary is acked"
        );
        reconnects += summary.reconnects;
    }
    assert_eq!(reconnects, 1, "the severed node re-dialled exactly once");
    assert_eq!(report.incidents.len(), 1, "{:?}", report.incidents);
    let incident = &report.incidents[0];
    assert_eq!(incident.node, 1);
    assert_eq!(incident.epoch, schedule.kill_epoch);
    assert_eq!(incident.action, "reconnected");
    assert!(
        incident.replay_bytes > 0,
        "re-seeding ships checkpoint + replay bytes"
    );
    assert!(
        report.shard_stats.iter().all(|s| s.completeness == 1.0),
        "reconnection loses nothing: {:?}",
        report.shard_stats
    );
    let baseline = in_process_run(&spec, strategy, schedule.epochs);
    assert_exact(&report, &baseline, spec.name());
}

#[test]
fn reassign_keeps_s2s_exact() {
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    assert_reassign_parity(spec.clone(), StrategyKind::AllSp, EARLY);
    assert_reassign_parity(spec, StrategyKind::AllSp, LATE);
}

#[test]
fn reassign_keeps_t2t_exact() {
    let spec = ScenarioSpec::pingmesh_t2t(Scale::X1, 500);
    assert_reassign_parity(spec.clone(), StrategyKind::AllSp, EARLY);
    assert_reassign_parity(spec, StrategyKind::AllSp, LATE);
}

#[test]
fn reassign_keeps_log_analytics_exact() {
    let spec = ScenarioSpec::log_analytics(Scale::X1);
    assert_reassign_parity(spec.clone(), StrategyKind::AllSp, EARLY);
    assert_reassign_parity(spec, StrategyKind::AllSp, LATE);
}

#[test]
fn reassign_under_concurrent_senders_keeps_log_analytics_exact() {
    // Both source tasks run at once on a four-worker executor, so the
    // replay buffers the recovery re-ships were appended to — and the
    // dictionary versions the live frames were encoded against — under
    // concurrent `route_payload` callers. The late schedule replays three
    // epochs of that traffic onto the survivor.
    let spec = ScenarioSpec::log_analytics(Scale::X1);
    assert_reassign_parity_on(spec, StrategyKind::AllSp, LATE, Some(4));
}

#[test]
fn reconnect_keeps_s2s_exact() {
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    assert_reconnect_parity(spec.clone(), StrategyKind::AllSp, EARLY);
    assert_reconnect_parity(spec, StrategyKind::AllSp, LATE);
}

#[test]
fn reconnect_keeps_t2t_exact() {
    let spec = ScenarioSpec::pingmesh_t2t(Scale::X1, 500);
    assert_reconnect_parity(spec.clone(), StrategyKind::AllSp, EARLY);
    assert_reconnect_parity(spec, StrategyKind::AllSp, LATE);
}

#[test]
fn reconnect_keeps_log_analytics_exact() {
    let spec = ScenarioSpec::log_analytics(Scale::X1);
    assert_reconnect_parity(spec.clone(), StrategyKind::AllSp, EARLY);
    assert_reconnect_parity(spec, StrategyKind::AllSp, LATE);
}

#[test]
fn degrade_reports_exact_completeness() {
    let _guard = port_lock();
    let addr = free_addr();
    let token = "fault-parity";
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let handles = spawn_nodes(&addr, token, 2, false);
    let report = fault_deployment(&spec, StrategyKind::AllSp, EARLY, &addr, token)
        .on_node_loss(OnNodeLoss::Degrade)
        .build()
        .expect("valid TCP spec")
        .run(EARLY.epochs)
        .expect("degraded run still completes");
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
    assert_eq!(report.incidents[0].action, "degraded");
    assert_eq!(report.incidents[0].node, 1);
    // The severed node acked `kill_epoch` of the run's epochs, so every
    // shard it owned advertises exactly that completeness; survivors stay
    // whole.
    let expected = EARLY.kill_epoch as f64 / EARLY.epochs as f64;
    let degraded: Vec<_> = report
        .shard_stats
        .iter()
        .enumerate()
        .filter(|(_, s)| s.completeness < 1.0)
        .collect();
    assert!(
        !degraded.is_empty(),
        "the lost shards must be marked incomplete: {:?}",
        report.shard_stats
    );
    for (shard, stat) in &degraded {
        assert!(
            (stat.completeness - expected).abs() < 1e-12,
            "shard {shard}: completeness {} != {expected}",
            stat.completeness
        );
    }
    assert!(
        report.results_emitted > 0,
        "the surviving shards still produce results"
    );
    // Degradation is visible: fewer digest rows than the fault-free run.
    let baseline = in_process_run(&spec, StrategyKind::AllSp, EARLY.epochs);
    let digest = report.exactness.as_ref().expect("digest collected");
    let full = baseline.exactness.as_ref().expect("digest collected");
    assert!(
        digest.rows < full.rows,
        "degraded run must cover fewer rows ({} vs {})",
        digest.rows,
        full.rows
    );
}
