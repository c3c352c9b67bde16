//! Drives one `LiveSession` closed-loop — `spec()` → `LiveSession::new` →
//! `run_epoch` × N → `try_finish` — and clocks every call. The next epoch
//! starts when the previous one returns; the only busy threads are the
//! session's `rt_workers` (plus, on the TCP workload, the in-process
//! `jarvis-node` thread and its link).

use std::net::TcpListener;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use jarvis_core::deploy::{DeployError, ExactnessDigest};
use jarvis_core::live::session::{LiveOutcome, LiveSession};
use jarvis_core::node::{run_node, NodeConfig, NodeError, NodeSummary};

use crate::procfs;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Workload, NODE_TOKEN, WARMUP_EPOCHS};

/// How many times the untraced run sets a session up (spec, new, warm-up) to
/// report the median set-up time. The last one is the session measured.
pub const SETUP_REPEATS: usize = 3;

/// Measured epochs whose per-source load factors the traced run records for
/// the ladder.
pub const LADDER_EPOCHS: u64 = 20;

type NodeThread = JoinHandle<Result<NodeSummary, NodeError>>;

/// A session that has been built and warmed up, with the node threads
/// serving it (TCP workload only).
struct Deployed {
    session: LiveSession,
    nodes: Vec<NodeThread>,
    spec_ms: f64,
    new_ms: f64,
    warmup_s: f64,
    /// Whole set-up: spec + new (admission included) + warm-up epochs.
    setup_s: f64,
}

/// Everything one driven session yields; metrics are derived from it.
pub struct SessionRun {
    /// Set-up time of each repeat, seconds.
    pub setup_s: Vec<f64>,
    pub spec_ms: f64,
    pub new_ms: f64,
    pub warmup_s: f64,
    /// Wall of each measured `run_epoch`, ms.
    pub epoch_ms: Vec<f64>,
    pub finish_ms: f64,
    /// Process CPU over the measured epochs and `try_finish`, seconds.
    pub cpu_s: f64,
    /// `VmHWM` right after `try_finish`, MiB.
    pub peak_rss_mib: f64,
    /// Input rows of the measured epochs.
    pub measured_rows: u64,
    /// Input rows of the whole session (warm-up included).
    pub total_rows: u64,
    pub drained_bytes: f64,
    pub drained_rows: u64,
    pub node_wire_bytes: u64,
    pub results: ExactnessDigest,
    /// Adaptation episodes of source 0 as `(trigger, stable)` epochs.
    pub episodes: Vec<(u64, u64)>,
    /// Load factors of source 0 when the measured phase ended.
    pub final_load_factors: Vec<f64>,
    /// Per-source load factors before each of the first ladder epochs
    /// (traced run only).
    pub ladder_load_factors: Vec<Vec<Vec<f64>>>,
    /// Latest profile estimates of source 0, if the strategy profiles.
    pub profile: Option<jarvis_core::stepwise::ProfileEstimates>,
    pub rt_workers: u32,
    pub channel_capacity: u32,
    /// Operations attempted: warm-up epochs + measured epochs + finish.
    pub attempted: u64,
    /// Operations that failed: an error, a fault incident, or an incomplete
    /// shard.
    pub failed: u64,
}

impl SessionRun {
    /// Wall of the measured epochs plus `try_finish`, seconds.
    pub fn measured_wall_s(&self) -> f64 {
        (self.epoch_ms.iter().sum::<f64>() + self.finish_ms) / 1e3
    }

    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }
}

/// A loopback port that is free right now (bound, read back, released).
fn free_loopback_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    listener
        .local_addr()
        .expect("bound listener has an address")
        .to_string()
}

/// Runs `f` and returns its result with its wall time in ms; when tracing,
/// the same two clock readings' worth of work is also recorded as a span
/// counting `count`.
fn clocked<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    epoch: u64,
    count: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = tracer.as_deref_mut().map(|t| t.enter(name, epoch));
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
        t.exit(id, count);
    }
    (out, ms)
}

/// Set-up: validate the spec, build the session (TCP admission included) and
/// run the warm-up epochs.
fn deploy(
    w: &Workload,
    seed: u64,
    measured: u64,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Deployed, DeployError> {
    let start = Instant::now();
    let mut nodes = Vec::new();
    let listen = w.is_tcp().then(free_loopback_addr);
    if let Some(addr) = &listen {
        // The executors dial until the coordinator listens.
        for _ in 0..w.sp_nodes {
            let config = NodeConfig::new(addr.clone(), NODE_TOKEN);
            nodes.push(thread::spawn(move || run_node(&config)));
        }
    }
    let builder = w.builder(seed, measured, listen.as_deref());
    let (spec, spec_ms) = clocked(tracer, "planner.spec", 0, 1, || builder.spec());
    let spec = spec?;
    let sources = u64::from(w.sources);
    let (session, new_ms) = clocked(tracer, "live.session.new", 0, sources, || {
        LiveSession::new(&spec)
    });
    let mut session = session?;
    let mut warmup_ms = 0.0;
    for epoch in 0..WARMUP_EPOCHS {
        let (result, ms) = clocked(tracer, "live.session.warmup_epoch", epoch, 0, || {
            session.run_epoch()
        });
        result?;
        warmup_ms += ms;
    }
    Ok(Deployed {
        session,
        nodes,
        spec_ms,
        new_ms,
        warmup_s: warmup_ms / 1e3,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// Finishes a session and joins its node threads. A node thread that failed
/// is reported as a transport failure.
fn finish(session: LiveSession, nodes: Vec<NodeThread>) -> Result<LiveOutcome, DeployError> {
    let outcome = session.try_finish();
    for (node, handle) in nodes.into_iter().enumerate() {
        let joined = handle.join().expect("node thread does not panic");
        if let (Err(e), Ok(_)) = (&joined, &outcome) {
            return Err(DeployError::NodeFailed {
                node: node as u32,
                reason: e.to_string(),
            });
        }
    }
    outcome
}

/// Runs the workload: `setups` set-ups (all but the last finished and
/// discarded outside every timer), then `measured` clocked epochs and
/// `try_finish` on the last. With a tracer, every call is also a span and
/// the load factors feeding the ladder are recorded.
pub fn run(
    w: &Workload,
    seed: u64,
    measured: u64,
    setups: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<SessionRun, DeployError> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut deployed = deploy(w, seed, measured, &mut tracer)?;
    setup_s.push(deployed.setup_s);
    for _ in 1..setups {
        finish(deployed.session, deployed.nodes)?;
        deployed = deploy(w, seed, measured, &mut None)?;
        setup_s.push(deployed.setup_s);
    }
    let Deployed {
        mut session,
        nodes,
        spec_ms,
        new_ms,
        warmup_s,
        ..
    } = deployed;

    let attempted = WARMUP_EPOCHS + measured + 1;
    let warmup_rows = session.input_records();
    let mut epoch_ms = Vec::with_capacity(measured as usize);
    let mut ladder_load_factors = Vec::new();
    let cpu_before = procfs::cpu_secs();
    for i in 0..measured {
        if tracer.is_some() && i < LADDER_EPOCHS {
            ladder_load_factors.push(
                (0..w.sources as usize)
                    .map(|s| session.load_factors(s))
                    .collect(),
            );
        }
        let epoch = WARMUP_EPOCHS + i;
        let (result, ms) = clocked(&mut tracer, "live.session.run_epoch", epoch, 0, || {
            session.run_epoch()
        });
        epoch_ms.push(ms);
        result?;
    }
    let measured_rows = session.input_records() - warmup_rows;
    let episodes = session.runtime(0).episodes().to_vec();
    let final_load_factors = session.load_factors(0);
    let profile = session.runtime(0).estimates().cloned();
    let rt_workers = session.rt_workers();
    let channel_capacity = session.channel_capacity();

    let end = WARMUP_EPOCHS + measured;
    let (outcome, finish_ms) = clocked(&mut tracer, "live.session.try_finish", end, 0, || {
        finish(session, nodes)
    });
    let cpu_s = procfs::cpu_secs() - cpu_before;
    let peak_rss_mib = procfs::peak_rss_mib();
    let outcome = outcome?;

    let incomplete = outcome.shard_completeness.iter().any(|&c| c < 1.0);
    let failed = outcome.incidents.len() as u64 + u64::from(incomplete);
    Ok(SessionRun {
        setup_s,
        spec_ms,
        new_ms,
        warmup_s,
        epoch_ms,
        finish_ms,
        cpu_s,
        peak_rss_mib,
        measured_rows,
        total_rows: outcome.input_records,
        drained_bytes: outcome.drained_bytes,
        drained_rows: outcome.drained_records,
        node_wire_bytes: outcome.node_wire_bytes.iter().sum(),
        results: ExactnessDigest::of_rows(&outcome.results),
        episodes,
        final_load_factors,
        ladder_load_factors,
        profile,
        rt_workers,
        channel_capacity,
        attempted,
        failed: failed.min(attempted),
    })
}
