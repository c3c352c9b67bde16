//! Chaos smoke test: recovery from a real mid-run link kill.
//!
//! The coordinator side of the CI fault drill. Expects two `jarvis-node`
//! processes, at least one dialling in through `jarvis-chaos-proxy` with a
//! seeded kill (e.g. `--fault sever --at-epoch 10`) and `--reconnect` set,
//! so the run loses a node mid-epoch, holds the reconnect window, re-seeds
//! the returning executor from its checkpoint, and still produces a digest
//! bit-identical to a fully in-process run. With checkpoints every 4
//! epochs, a cut at epoch 10 lands after window 0 closed (epoch 9) and
//! before the checkpoint that commits its rows (epoch 11): the coordinator
//! must void the staged rows and take the re-emitted ones, exactly once.
//! The run uses the Jarvis strategy, so the sources ship partial group
//! state beside their raw rows and the recovery replays both.
//!
//! ```sh
//! # terminal 1: the proxy that will sever connection 1 at epoch 10
//! cargo run --release --bin jarvis-chaos-proxy -- \
//!     --listen 127.0.0.1:47532 --upstream 127.0.0.1:47531 \
//!     --fault sever --at-epoch 10 --seed 7
//! # terminals 2 and 3: one node through the proxy, one direct
//! cargo run --release --bin jarvis-node -- \
//!     --coordinator 127.0.0.1:47532 --token ci-smoke --reconnect
//! cargo run --release --bin jarvis-node -- \
//!     --coordinator 127.0.0.1:47531 --token ci-smoke
//! # terminal 4:
//! cargo run --release --example chaos_smoke
//! ```
//!
//! Args: `[listen_addr] [token]` (defaults `127.0.0.1:47531`, `ci-smoke`).
//! Exits non-zero on digest mismatch or if no fault was actually injected
//! — a clean run here means the drill tested nothing.

use std::process::ExitCode;
use std::time::Duration;

use jarvis::core::calibration::Scale;
use jarvis::core::deploy::{BackendKind, Deployment, RunReport, TransportKind};
use jarvis::core::experiment::ScenarioSpec;
use jarvis::core::strategy::StrategyKind;

const EPOCHS: u64 = 14;
const RING: u32 = 4;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let addr = args.next().unwrap_or_else(|| "127.0.0.1:47531".to_string());
    let token = args.next().unwrap_or_else(|| "ci-smoke".to_string());

    let spec = ScenarioSpec::pingmesh_s2s(Scale::X1);
    println!("query  : {}", spec.plan().plan.display_chain());
    println!("listen : {addr} (token {token:?}, 2 nodes, {RING}-shard ring)");

    let remote = Deployment::builder()
        .workload(spec.clone())
        .strategy(StrategyKind::Jarvis)
        .cpu_budget(1.0)
        .sources(2)
        .sp_shards(RING)
        .sp_nodes(2)
        .backend(BackendKind::Live)
        .transport(TransportKind::Tcp)
        .listen_addr(&addr)
        .auth_token(&token)
        .node_timeout(Duration::from_secs(60))
        .liveness_timeout(Duration::from_secs(5))
        .checkpoint_interval(4)
        .reconnect_grace(Duration::from_secs(20))
        .collect_results(true)
        .build()
        .expect("valid TCP deployment")
        .run(EPOCHS);
    let remote = match remote {
        Ok(report) => report,
        Err(e) => {
            eprintln!("chaos run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let local = Deployment::builder()
        .workload(spec)
        .strategy(StrategyKind::Jarvis)
        .cpu_budget(1.0)
        .sources(2)
        .sp_shards(RING)
        .sp_nodes(4)
        .backend(BackendKind::Live)
        .collect_results(true)
        .build()
        .expect("valid in-process deployment")
        .run(EPOCHS)
        .expect("in-process run");

    report_line("tcp under chaos", &remote);
    report_line("in-process", &local);
    for i in &remote.incidents {
        println!(
            "incident: node {} lost at epoch {} ({}) -> {}, {} replay bytes",
            i.node, i.epoch, i.reason, i.action, i.replay_bytes
        );
    }
    println!(
        "recovery: {} replay bytes, {} heartbeats",
        remote.replay_bytes, remote.heartbeats_sent
    );

    if remote.incidents.is_empty() {
        eprintln!("NO FAULT INJECTED: the chaos drill did not exercise recovery");
        return ExitCode::FAILURE;
    }
    if remote.replay_bytes == 0 {
        eprintln!("NO REPLAY: recovery must re-ship checkpoint + buffered traffic");
        return ExitCode::FAILURE;
    }
    if remote.exactness != local.exactness {
        eprintln!("DIGEST MISMATCH: recovery diverged from the fault-free run");
        return ExitCode::FAILURE;
    }
    if remote
        .shard_stats
        .iter()
        .any(|s| (s.completeness - 1.0).abs() > f64::EPSILON)
    {
        eprintln!("INCOMPLETE: a recovered run must cover every shard fully");
        return ExitCode::FAILURE;
    }
    println!("ok: digest bit-identical to the fault-free run after recovery");
    ExitCode::SUCCESS
}

fn report_line(label: &str, r: &RunReport) {
    println!(
        "{label:<16}: {} results, digest {}",
        r.results_emitted,
        r.exactness.as_ref().map_or_else(
            || "-".into(),
            |d| format!("{} over {} rows", d.digest, d.rows)
        ),
    );
}
