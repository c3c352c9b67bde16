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
//! the typed failure paths: bad tokens, absent nodes, connections that
//! never speak the protocol, and oversized handshake frames on either
//! side.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::remote::{
    to_body, Admit, Register, MAX_ADMIT_LEN, MAX_REGISTER_LEN, MAX_SPEC_LEN,
};
use jarvis::core::deploy::{
    BackendKind, DeployError, Deployment, DeploymentBuilder, RunReport, TransportKind,
};
use jarvis::core::engine::transport::{
    encode_frame, FrameKind, FrameReader, TransportError, HEADER_LEN,
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
fn tcp_wire_bytes_are_linear_in_run_length() {
    // A checkpoint holds open windows only, and a closed window's rows
    // cross the link once, at the barrier that closes them. So the second
    // half of a run costs no more socket bytes than the first — which also
    // paid the handshake and the first-contact dictionary pages. Socket
    // counts are exact, so this is a byte assertion, not a timing one.
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let wire_of = |epochs: u64| -> u64 {
        let _guard = port_lock();
        let addr = free_addr();
        let token = "remote-parity";
        let handles = spawn_nodes(&addr, token, 1);
        let report = tcp_builder(live_builder(&spec, StrategyKind::AllSp, 2, 1), &addr, token)
            .checkpoint_interval(5)
            .build()
            .expect("valid TCP spec")
            .run(epochs)
            .expect("TCP run succeeds");
        for handle in handles {
            handle
                .join()
                .expect("node thread")
                .expect("node run succeeds");
        }
        report.node_stats.iter().map(|n| n.wire_bytes_out).sum()
    };
    let first = wire_of(20);
    let second = wire_of(40) - first;
    assert!(
        second as f64 <= 1.05 * first as f64,
        "epochs 20-39 moved {second} B against {first} B for epochs 0-19: \
         something the link carries grows with the run"
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
fn the_largest_accepted_token_registers() {
    // The builder bounds a token by its encoded `Register`, the frame the
    // coordinator reads within `MAX_REGISTER_LEN`: nodes presenting the
    // largest token it accepts are admitted and the run completes.
    let _guard = port_lock();
    let addr = free_addr();
    let token = "t".repeat(MAX_REGISTER_LEN - Register::max_body_len(""));
    let handles = spawn_nodes(&addr, &token, 2);
    let report = tcp_deployment(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSp,
        2,
        &addr,
        &token,
    )
    .run(4)
    .expect("nodes with the largest accepted token register");
    assert!(report.exactness.expect("collected").rows > 0);
    for handle in handles {
        handle.join().expect("node thread").expect("node admitted");
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

/// How long a stranger waits for the coordinator to close on it: half the
/// default 10 s handshake timeout, so a coordinator that holds the stranger
/// until the timeout fails the wait.
const STRANGER_PATIENCE: Duration = Duration::from_secs(5);

/// Runs the S2S All-SP deployment over two real nodes that only dial once
/// a stranger has connected first and written `bytes`, so the coordinator
/// must survive the stranger to ever admit them. The stranger then stalls
/// until the coordinator closes on it, which must happen within
/// [`STRANGER_PATIENCE`]. Returns the report and whatever the coordinator
/// sent the stranger before closing on it.
fn run_after_stranger(bytes: Vec<u8>) -> (RunReport, Vec<u8>) {
    let _guard = port_lock();
    let addr = free_addr();
    let token = "remote-parity";
    let (stranger_sent, spawn_gate) = std::sync::mpsc::channel::<()>();
    let stranger_addr = addr.clone();
    let stranger = thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut s = loop {
            match TcpStream::connect(&stranger_addr) {
                Ok(s) => break s,
                Err(_) if std::time::Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("stranger cannot connect: {e}"),
            }
        };
        s.write_all(&bytes).expect("stranger write");
        stranger_sent.send(()).expect("gate alive");
        s.set_read_timeout(Some(STRANGER_PATIENCE))
            .expect("read timeout");
        let mut reply = Vec::new();
        // Ends at EOF or at a reset: either way the coordinator is done. A
        // timeout means it still holds the connection open.
        if let Err(e) = s.read_to_end(&mut reply) {
            assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "the coordinator held the stranger for {STRANGER_PATIENCE:?}"
            );
        }
        reply
    });
    let node_addr = addr.clone();
    let nodes = thread::spawn(move || {
        spawn_gate.recv().expect("stranger wrote");
        spawn_nodes(&node_addr, token, 2)
    });
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    let report = tcp_deployment(&spec, StrategyKind::AllSp, 2, &addr, token)
        .run(4)
        .expect("real nodes still admitted");
    let reply = stranger.join().expect("stranger thread");
    for handle in nodes.join().expect("spawner thread") {
        handle
            .join()
            .expect("node thread")
            .expect("node run succeeds");
    }
    (report, reply)
}

#[test]
fn garbage_connections_do_not_block_admission() {
    let (report, _) = run_after_stranger(b"GET / HTTP/1.1\r\n\r\n".to_vec());
    assert!(report.results_emitted > 0);
}

/// Asserts that a stranger sent `bytes` got no reply and left the results
/// of [`run_after_stranger`] as they are without it.
fn assert_stranger_dropped_unanswered(bytes: Vec<u8>) {
    let (report, reply) = run_after_stranger(bytes);
    assert!(reply.is_empty(), "the stranger gets no reply");
    let baseline = live_builder(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSp,
        2,
        4,
    )
    .build()
    .expect("valid spec")
    .run(4)
    .expect("run succeeds");
    assert_eq!(
        report.exactness.as_ref().expect("digest collected"),
        baseline.exactness.as_ref().expect("digest collected"),
        "the stranger must not change the results"
    );
}

#[test]
fn nested_register_bodies_are_refused_before_the_token_check() {
    // A well-framed `Register` whose body is 4,000 `[`, under the cap on a
    // first frame. The coordinator parses it before it can check a token,
    // so the parser's depth bound is all that stands between this stranger
    // and a stack overflow.
    let body = "[".repeat(4000);
    assert_stranger_dropped_unanswered(encode_frame(FrameKind::Register, body.as_bytes()).to_vec());
}

#[test]
fn oversized_register_headers_are_refused_before_the_body() {
    // Only the header of a 1 MiB `Register`, then a stall. Reading the body
    // would hold the stranger until the handshake timeout; the cap on a
    // first frame drops it from the header.
    let frame = encode_frame(FrameKind::Register, &vec![b' '; 1 << 20]);
    assert_stranger_dropped_unanswered(frame[..HEADER_LEN].to_vec());
}

/// The header alone of a `kind` frame advertising a `len`-byte body.
fn forged_header(kind: FrameKind, len: usize) -> Vec<u8> {
    encode_frame(kind, &vec![b' '; len])[..HEADER_LEN].to_vec()
}

#[test]
fn oversized_ready_headers_are_refused_before_the_body() {
    // A node that registers, then answers its spec with only the header of
    // a `Ready` carrying one byte (it carries none) and stalls. Reading the
    // body would hold admission until the handshake timeout; the bound on
    // `Ready` refuses the node from its header.
    let _guard = port_lock();
    let addr = free_addr();
    let token = "remote-parity";
    let node_addr = addr.clone();
    let node = thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut s = loop {
            match TcpStream::connect(&node_addr) {
                Ok(s) => break s,
                Err(_) if std::time::Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("node cannot connect: {e}"),
            }
        };
        let reg = Register {
            token: token.to_string(),
            node_id: None,
        };
        s.write_all(&encode_frame(FrameKind::Register, &to_body(&reg)))
            .expect("register");
        let mut reader = FrameReader::new(s.try_clone().expect("clone"));
        assert_eq!(reader.read_frame().expect("admit").0, FrameKind::Admit);
        assert_eq!(reader.read_frame().expect("spec").0, FrameKind::Spec);
        s.write_all(&forged_header(FrameKind::Ready, 1))
            .expect("ready header");
        s.set_read_timeout(Some(STRANGER_PATIENCE))
            .expect("read timeout");
        // The coordinator closes on it rather than wait for the body.
        let mut rest = Vec::new();
        if let Err(e) = s.read_to_end(&mut rest) {
            assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "the coordinator held the node for {STRANGER_PATIENCE:?}"
            );
        }
    });
    let err = tcp_deployment(
        &ScenarioSpec::pingmesh_s2s(Scale::X1),
        StrategyKind::AllSp,
        2,
        &addr,
        token,
    )
    .run(4)
    .expect_err("a node whose Ready is oversized is refused");
    match err {
        DeployError::HandshakeFailed { reason, .. } => {
            assert!(reason.contains("exceeds the 0-byte cap"), "{reason}");
        }
        other => panic!("expected HandshakeFailed, got {other:?}"),
    }
    node.join().expect("node thread");
}

#[test]
fn oversized_admit_and_spec_headers_are_refused_by_the_node() {
    // A fake coordinator answers a node's registration with the header
    // alone of an oversized `Admit`, or of an oversized `Spec` after a
    // valid `Admit`, and stalls. The node refuses each from its header
    // with a typed error instead of waiting for the body.
    let _guard = port_lock();
    let admit = encode_frame(FrameKind::Admit, &to_body(&Admit { node_id: 0 })).to_vec();
    let cases = [
        (
            forged_header(FrameKind::Admit, MAX_ADMIT_LEN + 1),
            MAX_ADMIT_LEN,
        ),
        (
            [admit, forged_header(FrameKind::Spec, MAX_SPEC_LEN + 1)].concat(),
            MAX_SPEC_LEN,
        ),
    ];
    for (reply, cap) in cases {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let coordinator = thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut reader = FrameReader::new(s.try_clone().expect("clone"));
            assert_eq!(
                reader.read_frame().expect("register").0,
                FrameKind::Register
            );
            s.write_all(&reply).expect("reply");
            // Stall, without closing, until the node gives up on us.
            s.set_read_timeout(Some(STRANGER_PATIENCE))
                .expect("read timeout");
            let _ = s.read_to_end(&mut Vec::new());
        });
        let err = run_node(&NodeConfig::new(&addr, "t")).expect_err("refused");
        match err {
            NodeError::Transport(TransportError::Oversized { len, max }) => {
                assert_eq!((len, max), (cap + 1, cap));
            }
            other => panic!("expected an oversized-frame refusal, got {other:?}"),
        }
        coordinator.join().expect("coordinator thread");
    }
}
