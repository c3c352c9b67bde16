//! Framed-TCP transport throughput for the perf trajectory.
//!
//! Measures the PR-6 socket transport end to end on loopback — a real
//! `TcpStream` pair, the production [`Link`] writer thread on the send
//! side, and a [`FrameReader`] decode loop on the receive side — against
//! the in-process baseline it replaced: the same pre-encoded frames pushed
//! through a bounded channel to a consumer thread that decodes them. Both
//! sides move identical `FrameKind::Shard` frames, so the delta is exactly
//! what the sockets add (syscalls, copies, kernel loopback). The CI-gated
//! number is the *relative* throughput (TCP ÷ channel) — a ratio, so the
//! gate is machine-independent like every other trajectory series.

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use jarvis_core::engine::transport::{decode_frame, encode_frame, FrameKind, FrameReader, Link};
use serde::{Deserialize, Serialize};

use crate::measure::best_of_interleaved;

/// Body size of each benchmark frame — the ballpark of an encoded
/// `NetPayload::ShardBatch` for one epoch's shard slice.
pub const FRAME_BODY_BYTES: usize = 16 * 1024;

/// Frames moved per iteration.
pub const FRAMES_PER_ITER: usize = 512;

/// Result of one transport measurement: loopback TCP vs in-process
/// channel on identical framed payloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetTransportResult {
    /// Workload identifier.
    pub pipeline: String,
    /// Frames moved per iteration.
    pub frames: u64,
    /// Total framed bytes per iteration (headers included).
    pub frame_bytes: u64,
    /// Measured iterations per transport.
    pub iters: u32,
    /// In-process bounded-channel throughput, frames/second.
    pub channel_frames_per_sec: f64,
    /// Loopback framed-TCP throughput, frames/second.
    pub tcp_frames_per_sec: f64,
    /// Loopback framed-TCP throughput, megabytes/second.
    pub tcp_mbytes_per_sec: f64,
    /// TCP ÷ channel throughput (the CI-gated ratio).
    pub relative_throughput: f64,
}

/// The benchmark frames: `FRAMES_PER_ITER` Shard frames with deterministic
/// non-constant bodies (so neither side wins on trivially compressible
/// memory traffic).
pub fn transport_frames() -> Vec<Bytes> {
    (0..FRAMES_PER_ITER)
        .map(|i| {
            let body: Vec<u8> = (0..FRAME_BODY_BYTES)
                .map(|j| ((i * 31 + j * 7) & 0xff) as u8)
                .collect();
            encode_frame(FrameKind::Shard, &body)
        })
        .collect()
}

/// One in-process iteration: frames through a bounded channel to a
/// decoding consumer thread. Returns wall-clock seconds until every frame
/// is decoded.
pub fn run_channel_iter(frames: &[Bytes]) -> f64 {
    let (tx, rx) = std::sync::mpsc::sync_channel::<Bytes>(256);
    let n = frames.len();
    let start = Instant::now();
    let consumer = thread::spawn(move || {
        for _ in 0..n {
            let frame = rx.recv().expect("producer alive");
            let (kind, body, _) = decode_frame(&frame).expect("valid frame");
            assert_eq!(kind, FrameKind::Shard);
            std::hint::black_box(body.len());
        }
    });
    for f in frames {
        tx.send(f.clone()).expect("consumer alive");
    }
    consumer.join().expect("consumer thread");
    start.elapsed().as_secs_f64()
}

/// One loopback-TCP iteration: frames through a real socket pair — the
/// production [`Link`] writer thread sending, a [`FrameReader`] decoding
/// on the accept side. Returns wall-clock seconds until every frame is
/// decoded. Connection setup is excluded; delivery (socket drain) is not.
pub fn run_tcp_iter(frames: &[Bytes]) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("local addr");
    let n = frames.len();
    let consumer = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).ok();
        let mut reader = FrameReader::new(stream);
        for _ in 0..n {
            let (kind, body) = reader.read_frame().expect("valid frame");
            assert_eq!(kind, FrameKind::Shard);
            std::hint::black_box(body.len());
        }
    });
    let stream = TcpStream::connect(addr).expect("loopback connect");
    stream.set_nodelay(true).ok();
    let mut link = Link::spawn(stream);
    let start = Instant::now();
    for f in frames {
        link.send_raw(f.clone());
    }
    consumer.join().expect("consumer thread");
    let secs = start.elapsed().as_secs_f64();
    assert!(!link.is_broken(), "the link must survive the iteration");
    link.close();
    secs
}

/// Measures the transport series. `iters` timed iterations per transport,
/// one of each in turn (best-of, like every trajectory series).
pub fn bench_net_transport(iters: u32) -> NetTransportResult {
    let frames = transport_frames();
    let n_frames = frames.len() as u64;
    let frame_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();

    let mut channel_arm = || run_channel_iter(&frames);
    let mut tcp_arm = || run_tcp_iter(&frames);
    let secs = best_of_interleaved(iters, &mut [&mut channel_arm, &mut tcp_arm]);
    let (channel_secs, tcp_secs) = (secs[0], secs[1]);

    let channel_frames_per_sec = n_frames as f64 / channel_secs;
    let tcp_frames_per_sec = n_frames as f64 / tcp_secs;
    NetTransportResult {
        pipeline: format!(
            "{FRAMES_PER_ITER} x {FRAME_BODY_BYTES}B Shard frames, loopback framed TCP vs \
             in-process channel"
        ),
        frames: n_frames,
        frame_bytes,
        iters: iters.max(1),
        channel_frames_per_sec,
        tcp_frames_per_sec,
        tcp_mbytes_per_sec: frame_bytes as f64 / tcp_secs / 1e6,
        relative_throughput: tcp_frames_per_sec / channel_frames_per_sec,
    }
}
