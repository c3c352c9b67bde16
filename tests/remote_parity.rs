//! Distributed parity: the TCP transport is exact and accountable.
//!
//! Each test boots a coordinator (`BackendKind::Live` +
//! `TransportKind::Tcp`) on a loopback ephemeral port and a fleet of
//! in-process-spawned `jarvis-node` executors (the same `run_node` entry
//! point the binary wraps), runs the deployment end-to-end over real
//! sockets, and asserts the result digest is **bit-identical** to the
//! in-process 4-node run of `tests/node_parity.rs` — the fixed ring makes
//! shard routing node-count- and transport-independent, so nothing may
//! change when the SP tier moves out of process. The handshake tests pin
//! the typed failure paths: bad tokens, absent nodes, and connections that
//! never speak the protocol.

use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::{
    BackendKind, DeployError, Deployment, DeploymentBuilder, TransportKind,
};
use jarvis::core::experiment::ScenarioSpec;
use jarvis::core::node::{run_node, NodeConfig, NodeError, NodeSummary};
use jarvis::core::strategy::StrategyKind;

/// Virtual shards on the ring, matching `tests/node_parity.rs`.
const RING: u32 = 4;

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

/// The deployment both tiers share: `sources` data sources over the fixed
/// ring, on the live backend (in process unless the caller adds a
/// transport).
fn live_builder(
    spec: &ScenarioSpec,
    strategy: StrategyKind,
    sources: u32,
    nodes: u32,
) -> DeploymentBuilder {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(1.0)
        .sources(sources)
        .sp_shards(RING)
        .sp_nodes(nodes)
        .backend(BackendKind::Live)
        .collect_results(true)
}

fn tcp_deployment(
    spec: &ScenarioSpec,
    strategy: StrategyKind,
    nodes: u32,
    addr: &str,
    token: &str,
) -> Deployment {
    tcp_builder(live_builder(spec, strategy, 2, nodes), addr, token)
        .build()
        .expect("valid TCP spec")
}

fn tcp_builder(builder: DeploymentBuilder, addr: &str, token: &str) -> DeploymentBuilder {
    builder
        .transport(TransportKind::Tcp)
        .listen_addr(addr)
        .auth_token(token)
        .node_timeout(Duration::from_secs(30))
}

/// Runs `spec`/`strategy` over two real `jarvis-node` processes-worth of
/// executors on loopback TCP and asserts digest parity with the in-process
/// 4-node run, plus populated socket-byte accounting.
fn assert_remote_parity(spec: ScenarioSpec, strategy: StrategyKind, epochs: u64) {
    assert_remote_parity_at(spec, strategy, epochs, 2, None);
}

/// [`assert_remote_parity`] at a chosen source count and, when given, a
/// pinned executor width for the coordinator's session.
fn assert_remote_parity_at(
    spec: ScenarioSpec,
    strategy: StrategyKind,
    epochs: u64,
    sources: u32,
    rt_workers: Option<u32>,
) {
    let _guard = port_lock();
    let addr = free_addr();
    let token = "remote-parity";
    let handles = spawn_nodes(&addr, token, 2);
    let mut builder = tcp_builder(live_builder(&spec, strategy, sources, 2), &addr, token);
    if let Some(workers) = rt_workers {
        builder = builder.rt_workers(workers);
    }
    let report = builder
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
    assert_eq!(report.sp_nodes, 2);
    assert_eq!(report.node_stats.len(), 2);
    // Wire-byte accounting comes from the actual sockets: every link moved
    // at least the handshake and control frames.
    assert!(
        report.node_stats.iter().all(|n| n.wire_bytes_out > 0),
        "socket byte accounting must be populated: {:?}",
        report.node_stats
    );
    let baseline = live_builder(&spec, strategy, sources, 4)
        .build()
        .expect("valid spec")
        .run(epochs)
        .expect("run succeeds");
    assert_eq!(
        report.exactness.as_ref().expect("digest collected"),
        baseline.exactness.as_ref().expect("digest collected"),
        "{} / {}: TCP results must be bit-identical to the in-process run",
        spec.name(),
        strategy.label(),
    );
    // The fixed ring makes shard drain shares transport-independent too.
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
        "shard drain shares must not depend on the transport"
    );
}

#[test]
fn s2s_tcp_nodes_equal_in_process() {
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    assert_remote_parity(spec.clone(), StrategyKind::AllSp, 8);
    assert_remote_parity(spec.clone(), StrategyKind::AllSrc, 8);
    assert_remote_parity(spec, StrategyKind::Jarvis, 10);
}

#[test]
fn t2t_tcp_nodes_equal_in_process() {
    let spec = ScenarioSpec::pingmesh_t2t(Scale::X1, 500);
    assert_remote_parity(spec.clone(), StrategyKind::AllSp, 8);
    assert_remote_parity(spec.clone(), StrategyKind::AllSrc, 8);
    assert_remote_parity(spec, StrategyKind::Jarvis, 10);
}

#[test]
fn log_tcp_nodes_equal_in_process() {
    let spec = ScenarioSpec::log_analytics(Scale::X1);
    assert_remote_parity(spec.clone(), StrategyKind::AllSp, 8);
    assert_remote_parity(spec.clone(), StrategyKind::AllSrc, 8);
    assert_remote_parity(spec, StrategyKind::Jarvis, 10);
}

#[test]
fn log_tcp_concurrent_senders_equal_in_process() {
    // Four executor workers run eight source tasks at once, so several
    // tasks are inside `RemoteCluster::route_payload` together — appending
    // to one shard's replay buffer, encoding against one link's dictionary
    // versions, enqueueing on one socket. LogAnalytics under Jarvis puts
    // the order-sensitive traffic on that socket: persistent-dictionary
    // delta pages (a delta out of order fails to decode) and `ShardState`
    // beside `ShardBatch`.
    assert_remote_parity_at(
        ScenarioSpec::log_analytics(Scale::X1),
        StrategyKind::Jarvis,
        10,
        8,
        Some(4),
    );
}

#[test]
fn bad_tokens_fail_the_handshake() {
    let _guard = port_lock();
    let addr = free_addr();
    let handles = spawn_nodes(&addr, "wrong-token", 1);
    let err = tcp_deployment(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSp,
        2,
        &addr,
        "right-token",
    )
    .run(4)
    .expect_err("bad token must abort the deployment");
    assert!(
        matches!(err, DeployError::HandshakeFailed { .. }),
        "got {err:?}"
    );
    for handle in handles {
        let node_err = handle
            .join()
            .expect("node thread")
            .expect_err("the node must see the rejection");
        assert!(
            matches!(
                node_err,
                NodeError::Rejected { .. } | NodeError::Transport(_)
            ),
            "got {node_err:?}"
        );
    }
}

#[test]
fn absent_nodes_time_out_registration() {
    let _guard = port_lock();
    let addr = free_addr();
    let err = Deployment::builder()
        .workload(ScenarioSpec::pingmesh_s2s(Scale::X1))
        .strategy(StrategyKind::AllSp)
        .cpu_budget(1.0)
        .sources(2)
        .sp_shards(RING)
        .sp_nodes(2)
        .backend(BackendKind::Live)
        .transport(TransportKind::Tcp)
        .listen_addr(&addr)
        .node_timeout(Duration::from_millis(200))
        .build()
        .expect("valid TCP spec")
        .run(4)
        .expect_err("nobody registers");
    match err {
        DeployError::NodeTimeout {
            registered,
            expected,
            ..
        } => {
            assert_eq!(registered, 0);
            assert_eq!(expected, 2);
        }
        other => panic!("expected NodeTimeout, got {other:?}"),
    }
}

#[test]
fn garbage_connections_do_not_block_admission() {
    let _guard = port_lock();
    let addr = free_addr();
    let token = "remote-parity";
    // A peer that connects first and writes garbage: dropped, not fatal.
    // The real nodes only dial once the garbage is on the wire, so the
    // coordinator must survive it to ever admit them.
    let (garbage_sent, spawn_gate) = std::sync::mpsc::channel::<()>();
    let garbage_addr = addr.clone();
    let garbage = thread::spawn(move || {
        use std::io::Write;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match std::net::TcpStream::connect(&garbage_addr) {
                Ok(mut s) => {
                    s.write_all(b"GET / HTTP/1.1\r\n\r\n")
                        .expect("garbage write");
                    let _ = s.flush();
                    garbage_sent.send(()).expect("gate alive");
                    break;
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("garbage peer cannot connect: {e}"),
            }
        }
    });
    let node_addr = addr.clone();
    let nodes = thread::spawn(move || {
        spawn_gate.recv().expect("garbage peer connected");
        spawn_nodes(&node_addr, token, 2)
    });
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let report = tcp_deployment(&spec, StrategyKind::AllSp, 2, &addr, token)
        .run(4)
        .expect("real nodes still admitted");
    garbage.join().expect("garbage thread");
    for handle in nodes.join().expect("spawner thread") {
        handle
            .join()
            .expect("node thread")
            .expect("node run succeeds");
    }
    assert!(report.results_emitted > 0);
}
