//! Window-close parity: the live tiers close windows at every epoch
//! barrier, and nothing about the answer may depend on it.
//!
//! At 35 epochs every paper query closes three 10-epoch windows mid-run and
//! drains a fourth at the end. The emulated engine closes windows behind a
//! lateness allowance (`LATENCY_BOUND_SECS`); the in-process node tasks and
//! the remote `jarvis-node` executors close them at the barrier itself,
//! with zero lateness. All of them must report the same `ExactnessDigest`,
//! at any shard count and over either transport — and the live SP tier's
//! operator state must stay bounded by the windows still open, however many
//! have gone by.

use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::{
    BackendKind, Deployment, DeploymentBuilder, ExactnessDigest, RunReport, TransportKind,
};
use jarvis::core::experiment::ScenarioSpec;
use jarvis::core::live::LiveSession;
use jarvis::core::node::{run_node, NodeConfig};
use jarvis::core::strategy::StrategyKind;

/// Three windows close mid-run; the fourth is half full at the end.
const EPOCHS: u64 = 35;

/// Serializes the TCP runs: each allocates an ephemeral port by binding
/// then releasing it, which must not race another test's bind.
fn port_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn builder(spec: &ScenarioSpec, strategy: StrategyKind) -> DeploymentBuilder {
    Deployment::builder()
        .workload(spec.clone())
        .strategy(strategy)
        .cpu_budget(1.0)
        .sources(2)
        .collect_results(true)
}

fn digest(report: RunReport) -> ExactnessDigest {
    report.exactness.expect("digest collected")
}

/// One live run over two loopback `run_node` executors.
fn tcp_run(spec: &ScenarioSpec, strategy: StrategyKind) -> RunReport {
    let _guard = port_lock();
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    let nodes: Vec<_> = (0..2)
        .map(|_| {
            let config = NodeConfig::new(addr.as_str(), "window-close");
            thread::spawn(move || run_node(&config))
        })
        .collect();
    let report = builder(spec, strategy)
        .sp_shards(4)
        .sp_nodes(2)
        .backend(BackendKind::Live)
        .transport(TransportKind::Tcp)
        .listen_addr(&addr)
        .auth_token("window-close")
        .node_timeout(Duration::from_secs(30))
        .build()
        .expect("valid TCP spec")
        .run(EPOCHS)
        .expect("TCP run succeeds");
    for node in nodes {
        let summary = node.join().expect("node thread").expect("node run");
        assert_eq!(summary.epochs, EPOCHS, "every epoch boundary is acked");
    }
    report
}

/// Live ≡ emulated on one query under one strategy: one shard, four shards
/// on two in-process nodes, and four shards on two TCP executors.
fn assert_window_close_parity(spec: &ScenarioSpec, strategy: StrategyKind) {
    let run = |b: DeploymentBuilder| b.build().expect("valid spec").run(EPOCHS).expect("run");
    let emulated = digest(run(builder(spec, strategy).backend(BackendKind::Emulated)));
    assert!(emulated.rows > 0, "the run must produce results");
    let live = |b: DeploymentBuilder| digest(run(b.backend(BackendKind::Live)));
    let label = format!("{} / {}", spec.name(), strategy.label());
    assert_eq!(
        live(builder(spec, strategy)),
        emulated,
        "{label}: one shard"
    );
    assert_eq!(
        live(builder(spec, strategy).sp_shards(4).sp_nodes(2)),
        emulated,
        "{label}: four shards on two nodes"
    );
    assert_eq!(
        digest(tcp_run(spec, strategy)),
        emulated,
        "{label}: two TCP executors"
    );
}

#[test]
fn s2s_closes_windows_exactly_on_every_tier() {
    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    assert_window_close_parity(&spec, StrategyKind::AllSp);
    assert_window_close_parity(&spec, StrategyKind::Jarvis);
}

#[test]
fn t2t_closes_windows_exactly_on_every_tier() {
    let spec = ScenarioSpec::pingmesh_t2t(Scale::X1, 500);
    assert_window_close_parity(&spec, StrategyKind::AllSp);
    assert_window_close_parity(&spec, StrategyKind::Jarvis);
}

#[test]
fn log_analytics_closes_windows_exactly_on_every_tier() {
    let spec = ScenarioSpec::log_analytics(Scale::X1);
    assert_window_close_parity(&spec, StrategyKind::AllSp);
    assert_window_close_parity(&spec, StrategyKind::Jarvis);
}

/// `open_groups()` after every epoch of a 35-epoch in-process session.
fn open_groups_by_epoch(spec: &ScenarioSpec, strategy: StrategyKind) -> (Vec<usize>, usize) {
    let spec = builder(spec, strategy)
        .sp_shards(4)
        .sp_nodes(2)
        .spec()
        .expect("valid spec");
    let mut session = LiveSession::new(&spec).expect("session");
    let mut open = Vec::new();
    for _ in 0..EPOCHS {
        session.run_epoch().expect("in-process epochs cannot fail");
        open.push(
            session
                .open_groups()
                .expect("in-process tier reports state"),
        );
    }
    let outcome = session.try_finish().expect("finish");
    let peak = outcome
        .peak_open_groups
        .expect("in-process tier reports state");
    (open, peak)
}

#[test]
fn live_operator_state_is_bounded_by_open_windows() {
    for spec in [
        ScenarioSpec::pingmesh_s2s(Scale::X1),
        ScenarioSpec::pingmesh_t2t(Scale::X1, 500),
        ScenarioSpec::log_analytics(Scale::X1),
    ] {
        for strategy in [StrategyKind::AllSp, StrategyKind::Jarvis] {
            let label = format!("{} / {}", spec.name(), strategy.label());
            let (open, peak) = open_groups_by_epoch(&spec, strategy);
            // The first window is still open through epoch 8: that is what
            // one window's groups look like before anything has closed.
            let window = *open[..9].iter().max().expect("nine epochs");
            assert!(window > 0, "{label}: the first window holds groups");
            assert!(open[14] > 0, "{label}: mid-window state is live");
            // Same phase, ten epochs (one window) apart: same state. Run
            // length never shows.
            assert_eq!(open[29], open[19], "{label}: {open:?}");
            assert!(
                open.iter().all(|&g| g <= 2 * window) && peak <= 2 * window,
                "{label}: state must never exceed two windows' groups \
                 (one window ≈ {window}, peak {peak}): {open:?}"
            );
            assert!(
                peak >= *open.iter().max().expect("epochs"),
                "{label}: the peak is sampled before the barrier closes windows"
            );
        }
    }
}
