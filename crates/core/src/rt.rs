//! Cooperative task runtime for the live session's massive source fan-in.
//!
//! This is a thin facade over the vendored [`minirt`] crate: a
//! work-stealing multi-worker executor ([`Runtime`]), bounded async MPSC
//! channels ([`chan`]) whose receivers drain whole bursts per wakeup, and
//! the [`DeadlineQueue`] the TCP control plane bounds its blocking waits
//! with. The live session spawns one task per source — which does the whole
//! of its source's epoch, up to sending to the SP nodes — and one per SP
//! node, so thousands of sources run on `rt_workers` worker threads instead
//! of as many OS threads. Each node's channel holds [`CHANNEL_CAPACITY`]
//! messages.
//!
//! **Wakeup-amortization contract.** The consumers in the session topology
//! — the SP node tasks, each fed by every source — receive through
//! [`chan::Receiver::recv_many`], which moves the channel's *entire*
//! buffered backlog in one poll. A burst of `n` messages therefore costs
//! one scheduler wakeup, not `n`, and per-record overhead stays flat as the
//! source count grows. The number that shows it is the repo benchmark's
//! `t2t_allsp_fanin` workload: 2048 real sources through the real session
//! on one worker.
//!
//! **Determinism.** The schedule never affects results: the key → shard
//! mapping, netwire codec, and dict delta protocol are all
//! order-independent (see `tests/source_scale_parity.rs`), and every frame
//! of a source is encoded and sent, in order, by that source's one task
//! (`tests/node_parity.rs` sweeps worker counts for equal digests *and*
//! wire bytes). For debugging task-ordering bugs, [`deterministic_runtime`]
//! (or the `JARVIS_RT_SEED` environment variable) switches to a seeded
//! single-worker scheduler that replays one interleaving exactly.

pub use minirt::chan;
pub use minirt::exec::{Handle, JoinHandle, Runtime};
pub use minirt::timer::DeadlineQueue;

/// Capacity of the session's async channels: one per SP node, every source
/// task sending into each.
pub const CHANNEL_CAPACITY: usize = 256;

/// Effective worker count for a requested `rt_workers` knob: `None` sizes
/// to the host's available parallelism.
pub fn effective_workers(requested: Option<u32>) -> usize {
    match requested {
        Some(n) => n as usize,
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Builds the session runtime for a requested worker count, honouring the
/// `JARVIS_RT_SEED` deterministic-scheduler override (CI sets it to make
/// task-ordering bugs reproduce instead of flickering under thread-schedule
/// noise).
pub fn session_runtime(requested: Option<u32>) -> Runtime {
    if let Some(seed) = std::env::var("JARVIS_RT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        return deterministic_runtime(seed);
    }
    Runtime::new(effective_workers(requested))
}

/// A seeded single-worker runtime replaying one task interleaving exactly.
pub fn deterministic_runtime(seed: u64) -> Runtime {
    Runtime::deterministic(seed)
}

#[cfg(test)]
mod tests {
    use super::{chan, deterministic_runtime, effective_workers, session_runtime};

    #[test]
    fn effective_workers_defaults_to_host_parallelism() {
        assert!(effective_workers(None) >= 1);
        assert_eq!(effective_workers(Some(3)), 3);
    }

    #[test]
    fn session_runtime_spawns_and_joins() {
        let rt = session_runtime(Some(2));
        let h = rt.spawn(async { 41 + 1 });
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn deterministic_runtime_is_single_worker() {
        let rt = deterministic_runtime(7);
        assert_eq!(rt.workers(), 1);
        let (tx, mut rx) = chan::bounded::<u32>(4);
        let prod = rt.spawn(async move {
            for i in 0..8 {
                tx.send(i).await.expect("receiver alive");
            }
        });
        let cons = rt.spawn(async move {
            let mut got = Vec::new();
            let mut buf = Vec::new();
            while rx.recv_many(&mut buf).await > 0 {
                got.append(&mut buf);
            }
            got
        });
        prod.join();
        assert_eq!(cons.join(), (0..8).collect::<Vec<_>>());
    }

    /// Many producers into one `recv_many` consumer over a narrow channel —
    /// the session's fan-in shape: one seed replays one interleaving exactly
    /// (same arrival order), and every seed delivers the same messages.
    #[test]
    fn seeded_runtime_replays_a_fan_in_exactly() {
        let run = |seed: u64| {
            let rt = deterministic_runtime(seed);
            let (tx, mut rx) = chan::bounded::<(u32, u32)>(4);
            for producer in 0..16 {
                let tx = tx.clone();
                drop(rt.spawn(async move {
                    for i in 0..8 {
                        tx.send((producer, i)).await.expect("receiver alive");
                    }
                }));
            }
            drop(tx);
            let cons = rt.spawn(async move {
                let mut got = Vec::new();
                let mut buf = Vec::new();
                while rx.recv_many(&mut buf).await > 0 {
                    got.append(&mut buf);
                }
                got
            });
            cons.join()
        };
        let mut first = run(7);
        assert_eq!(first, run(7), "same seed, same interleaving");
        let mut other = run(1234);
        first.sort_unstable();
        other.sort_unstable();
        assert_eq!(first, other, "the delivery is schedule-independent");
        assert_eq!(first.len(), 16 * 8);
    }
}
