//! Framed TCP transport for the distributed SP tier.
//!
//! The multi-node live session ships shard traffic between nodes as
//! [`netwire`](crate::engine::netwire) envelopes; this module puts a *real
//! socket* under those bytes. Every message on a peer link travels as one
//! frame:
//!
//! ```text
//! magic u32 LE | version u16 LE | kind u8 | body-len u32 LE | crc32 u32 LE | body
//! ```
//!
//! The header guards the stream against three distinct failure classes, each
//! with its own typed error: a connection that was never speaking the
//! protocol ([`TransportError::BadMagic`] — dropped without ceremony), a
//! peer built from a different release
//! ([`TransportError::VersionMismatch`] — fatal, surfaced to the deployer),
//! and corruption in transit ([`TransportError::CrcMismatch`] over an IEEE
//! CRC32 of the body). Vendor-only constraint: no tokio — `std::net`
//! sockets with **one blocking OS thread each way per link**: a [`Link`]
//! writer thread draining a bounded queue senders block on (the same
//! backpressure shape as the in-process node channels), with the optional
//! fault-injection schedule in front of the socket, and a [`FrameReader`]
//! on the receiving side. Threads, not runtime tasks, on both the
//! coordinator and the `jarvis-node` side, because links scale with *nodes*
//! (bounded by [`MAX_SP_SHARDS`](crate::deploy::MAX_SP_SHARDS)), not with
//! the 10k-source fan-in, and a thread parked in a blocking read or on an
//! empty queue costs nothing until there is work — whereas a writer task
//! needs a runtime worker plus a timer thread to poll a full send buffer.
//! The reader also counts received socket bytes for the `RunReport` wire
//! accounting.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};

use crate::fault::{splitmix64, FaultKind, FaultTrigger, LinkFault};

/// Frame magic: "JRVW" little-endian — Jarvis wire.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"JRVW");

/// Protocol version spoken by this build. Bumped on any frame- or
/// control-message-format change; mismatched peers are rejected at the
/// handshake instead of misdecoding mid-stream. Version 2 added the
/// fault-tolerance frames (`Ping`/`Pong`/`Ckpt`/`Adopt`) and the optional
/// checkpoint acknowledgement on `Progress`; version 3 changed the batch
/// body inside `Shard` and `Results` frames to content-sized integer pages
/// ([`streamkit::encode`]) — a version-2 peer is refused on its first frame;
/// version 4 made `Results` legal mid-run, sent at the barrier that closes
/// a window, with a shard-tagged body (a `netwire` `ShardBatch` envelope),
/// and dropped result rows from `Ckpt` frames; version 5 ships group state
/// (`ShardState` bodies, in `Shard` and `Ckpt` frames alike) as columnar
/// runs over the batch codec's pages, and plain string pages with an
/// integer page of lengths; version 6 ships every `F64` page of integers
/// (state components and result columns alike) as an integer page, flagged
/// in bit 1 of the column's presence byte; version 7 lets a batch's
/// timestamp page (drained rows, window starts, results) ship as its first
/// timestamp and LEB128 steps, behind width byte `0x80`, when the
/// timestamps never decrease and that is shorter.
pub const PROTOCOL_VERSION: u16 = 7;

/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 15;

/// Largest admissible frame body. A source ships a shard at most
/// [`crate::live::session::CHUNK`] rows at a time, so anything near this
/// bound is a corrupt or hostile length field, not data.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Frames queued per link before senders block (the same channel-shaped
/// backpressure as the in-process node links).
pub const LINK_QUEUE: usize = 256;

/// Receive-buffer growth step. [`FrameReader`] grows the body buffer in
/// chunks of this size as bytes actually arrive, so a forged header
/// advertising a body near [`MAX_FRAME_LEN`] (64 MiB) can never commit the
/// full allocation up-front — a peer must *send* the bytes to make the
/// reader hold them.
pub const RECV_CHUNK: usize = 64 << 10;

/// What a frame carries. The numeric tags are wire-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Node → coordinator: authentication + node-id request (JSON).
    Register = 1,
    /// Coordinator → node: registration accepted, node id assigned (JSON).
    Admit = 2,
    /// Coordinator → node: registration refused (JSON reason).
    Reject = 3,
    /// Coordinator → node: the serialized deployment slice (JSON
    /// `NodeSpec`).
    Spec = 4,
    /// Node → coordinator: owned-shard pipelines instantiated.
    Ready = 5,
    /// Coordinator → node: one `netwire` shard payload (opaque bytes).
    Shard = 6,
    /// Coordinator → node: epoch boundary (u64 LE epoch index).
    EpochEnd = 7,
    /// Node → coordinator: per-epoch progress counters (JSON).
    Progress = 8,
    /// Coordinator → node: no more traffic; close windows and report.
    Finish = 9,
    /// Node → coordinator: closed-window result rows of one shard (a
    /// `netwire` `ShardBatch` envelope over an output-schema batch), sent
    /// at the barrier that closed them and at `Finish`.
    Results = 10,
    /// Node → coordinator: per-owned-shard counters (JSON).
    NodeStats = 11,
    /// Node → coordinator: finished; last frame on the link.
    Done = 12,
    /// Coordinator → node: liveness probe (empty body).
    Ping = 13,
    /// Node → coordinator: liveness reply (empty body).
    Pong = 14,
    /// Node → coordinator: one epoch-aligned checkpoint state payload (a
    /// `netwire` shard-state envelope, opaque to the coordinator).
    Ckpt = 15,
    /// Coordinator → node: adopt shards after a peer loss (JSON
    /// `AdoptMsg`).
    Adopt = 16,
}

impl FrameKind {
    /// Parses the wire tag.
    pub fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Register,
            2 => FrameKind::Admit,
            3 => FrameKind::Reject,
            4 => FrameKind::Spec,
            5 => FrameKind::Ready,
            6 => FrameKind::Shard,
            7 => FrameKind::EpochEnd,
            8 => FrameKind::Progress,
            9 => FrameKind::Finish,
            10 => FrameKind::Results,
            11 => FrameKind::NodeStats,
            12 => FrameKind::Done,
            13 => FrameKind::Ping,
            14 => FrameKind::Pong,
            15 => FrameKind::Ckpt,
            16 => FrameKind::Adopt,
            _ => return None,
        })
    }
}

/// Why a frame (or the stream under it) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Socket-level failure.
    Io(String),
    /// The first four bytes are not the protocol magic: the peer is not
    /// speaking this protocol at all (port scanner, stray client).
    BadMagic {
        /// The bytes found where the magic belongs.
        got: u32,
    },
    /// The peer speaks the protocol at an incompatible version.
    VersionMismatch {
        /// The peer's version.
        got: u16,
        /// This build's version.
        want: u16,
    },
    /// Unknown frame-kind tag.
    BadKind {
        /// The rejected tag.
        got: u8,
    },
    /// The body failed its CRC32 — corruption in transit.
    CrcMismatch {
        /// CRC computed over the received body.
        computed: u32,
        /// CRC declared in the header.
        declared: u32,
    },
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The declared body length exceeds the reader's cap:
    /// [`MAX_FRAME_LEN`], or the limit of
    /// [`FrameReader::read_frame_within`].
    Oversized {
        /// Declared length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// The peer closed the connection cleanly (at a frame boundary).
    Closed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(msg) => write!(f, "transport I/O error: {msg}"),
            TransportError::BadMagic { got } => {
                write!(
                    f,
                    "bad frame magic {got:#010x} (expected {WIRE_MAGIC:#010x})"
                )
            }
            TransportError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "peer speaks protocol version {got}, this build wants {want}"
                )
            }
            TransportError::BadKind { got } => write!(f, "unknown frame kind {got}"),
            TransportError::CrcMismatch { computed, declared } => write!(
                f,
                "frame body CRC mismatch: computed {computed:#010x}, declared {declared:#010x}"
            ),
            TransportError::Truncated { needed, got } => {
                write!(
                    f,
                    "stream truncated inside a frame: needed {needed} bytes, got {got}"
                )
            }
            TransportError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            TransportError::Closed => write!(f, "peer closed the connection"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> TransportError {
        TransportError::Io(e.to_string())
    }
}

/// The IEEE CRC32 lookup table (reflected 0xEDB88320 polynomial).
fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// IEEE CRC32 (the zlib/Ethernet polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = u32::MAX;
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ u32::MAX
}

/// Encodes one frame: header + body.
pub fn encode_frame(kind: FrameKind, body: &[u8]) -> Bytes {
    assert!(
        body.len() <= MAX_FRAME_LEN,
        "frame body exceeds MAX_FRAME_LEN"
    );
    let mut buf = BytesMut::with_capacity(HEADER_LEN + body.len());
    buf.put_u32_le(WIRE_MAGIC);
    buf.put_u16_le(PROTOCOL_VERSION);
    buf.put_u8(kind as u8);
    buf.put_u32_le(body.len() as u32);
    buf.put_u32_le(crc32(body));
    buf.put_slice(body);
    buf.freeze()
}

/// Parses a frame header whose body may be at most `max` bytes, returning
/// `(kind, body_len, declared_crc)`.
fn parse_header(
    header: &[u8; HEADER_LEN],
    max: usize,
) -> Result<(FrameKind, usize, u32), TransportError> {
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != WIRE_MAGIC {
        return Err(TransportError::BadMagic { got: magic });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != PROTOCOL_VERSION {
        return Err(TransportError::VersionMismatch {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    let kind = FrameKind::from_u8(header[6]).ok_or(TransportError::BadKind { got: header[6] })?;
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    if len > max {
        return Err(TransportError::Oversized { len, max });
    }
    let crc = u32::from_le_bytes([header[11], header[12], header[13], header[14]]);
    Ok((kind, len, crc))
}

/// Decodes one frame from the front of `buf`, returning the kind, the body,
/// and the bytes consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(FrameKind, Bytes, usize), TransportError> {
    if buf.len() < HEADER_LEN {
        return Err(TransportError::Truncated {
            needed: HEADER_LEN,
            got: buf.len(),
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (kind, len, declared) = parse_header(&header, MAX_FRAME_LEN)?;
    if buf.len() < HEADER_LEN + len {
        return Err(TransportError::Truncated {
            needed: HEADER_LEN + len,
            got: buf.len(),
        });
    }
    let body = &buf[HEADER_LEN..HEADER_LEN + len];
    let computed = crc32(body);
    if computed != declared {
        return Err(TransportError::CrcMismatch { computed, declared });
    }
    Ok((kind, Bytes::from(body.to_vec()), HEADER_LEN + len))
}

/// Reads `buf.len()` bytes, tolerating short reads; returns the bytes
/// actually read (less than requested only at end of stream).
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// A blocking frame reader over any byte stream, counting received bytes.
pub struct FrameReader<R> {
    inner: R,
    received: Arc<AtomicU64>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader::with_counter(inner, Arc::new(AtomicU64::new(0)))
    }

    /// Wraps a stream, crediting received bytes to a shared counter.
    pub fn with_counter(inner: R, received: Arc<AtomicU64>) -> FrameReader<R> {
        FrameReader { inner, received }
    }

    /// Total bytes received over this reader.
    pub fn bytes_received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// A handle on the received-bytes counter (shared accounting).
    pub fn counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.received)
    }

    /// Moves the bytes counted so far onto `counter` and credits every
    /// later frame there too: a connection is attributed to a node only
    /// once its handshake names one.
    pub fn credit_to(&mut self, counter: Arc<AtomicU64>) {
        counter.fetch_add(self.bytes_received(), Ordering::Relaxed);
        self.received = counter;
    }

    /// Reads the next frame. A clean close at a frame boundary is
    /// [`TransportError::Closed`]; mid-frame end of stream is
    /// [`TransportError::Truncated`].
    pub fn read_frame(&mut self) -> Result<(FrameKind, Bytes), TransportError> {
        self.read_frame_within(MAX_FRAME_LEN)
    }

    /// [`FrameReader::read_frame`] for a frame whose body may be at most
    /// `limit` bytes (capped at [`MAX_FRAME_LEN`]): a header declaring more
    /// is [`TransportError::Oversized`] before any body byte is read. For
    /// frames from a peer that has not authenticated yet.
    pub fn read_frame_within(
        &mut self,
        limit: usize,
    ) -> Result<(FrameKind, Bytes), TransportError> {
        let mut header = [0u8; HEADER_LEN];
        let got = read_full(&mut self.inner, &mut header)?;
        if got == 0 {
            return Err(TransportError::Closed);
        }
        if got < HEADER_LEN {
            return Err(TransportError::Truncated {
                needed: HEADER_LEN,
                got,
            });
        }
        let (kind, len, declared) = parse_header(&header, limit.min(MAX_FRAME_LEN))?;
        // `parse_header` already rejected lengths past the limit, but a
        // forged header can still advertise up to the 64 MiB cap. Grow the
        // buffer in RECV_CHUNK steps as bytes arrive instead of allocating
        // the advertised length eagerly, so a hostile header costs at most
        // one chunk before the stream runs dry (Truncated).
        let mut body: Vec<u8> = Vec::with_capacity(len.min(RECV_CHUNK));
        while body.len() < len {
            let start = body.len();
            let take = (len - start).min(RECV_CHUNK);
            body.resize(start + take, 0);
            let got = read_full(&mut self.inner, &mut body[start..])?;
            if got < take {
                return Err(TransportError::Truncated {
                    needed: HEADER_LEN + len,
                    got: HEADER_LEN + start + got,
                });
            }
        }
        let computed = crc32(&body);
        if computed != declared {
            return Err(TransportError::CrcMismatch { computed, declared });
        }
        self.received
            .fetch_add((HEADER_LEN + len) as u64, Ordering::Relaxed);
        Ok((kind, Bytes::from(body)))
    }
}

/// What one frame's walk through the fault schedule tells the writer to do.
enum FaultStep {
    /// Write the frame (possibly corrupted in place).
    Write(Bytes),
    /// Stall for this many milliseconds, then write the frame.
    DelayThenWrite(u64, Bytes),
    /// Discard the frame silently.
    Discard,
    /// Shut the socket down and mark the link broken.
    Sever,
}

/// The deterministic per-link fault schedule: each [`LinkFault`] fires at
/// most once, *before* the frame matching its trigger is written.
struct FaultSchedule {
    pending: Vec<LinkFault>,
    seed: u64,
    frame_idx: u64,
    epoch_idx: u64,
}

impl FaultSchedule {
    fn new(faults: Vec<LinkFault>, seed: u64) -> FaultSchedule {
        FaultSchedule {
            pending: faults,
            seed,
            frame_idx: 0,
            epoch_idx: 0,
        }
    }

    /// Advances the schedule past one frame and returns the writer's move.
    fn step(&mut self, frame: Bytes) -> FaultStep {
        let is_epoch_end = frame.get(6) == Some(&(FrameKind::EpochEnd as u8));
        let fault = self
            .pending
            .iter()
            .position(|f| match f.trigger {
                FaultTrigger::Frame(n) => n == self.frame_idx,
                FaultTrigger::EpochEnd(k) => is_epoch_end && k == self.epoch_idx,
            })
            .map(|i| self.pending.remove(i));
        self.frame_idx += 1;
        if is_epoch_end {
            self.epoch_idx += 1;
        }
        match fault.map(|f| f.kind) {
            None => FaultStep::Write(frame),
            Some(FaultKind::Drop) => FaultStep::Discard,
            Some(FaultKind::Delay(ms)) => FaultStep::DelayThenWrite(ms, frame),
            Some(FaultKind::Corrupt) => {
                // Flip a body byte (or a CRC byte when the body is empty)
                // so the corruption is always CRC-detectable on the far
                // side instead of accidentally re-framing as a different
                // kind.
                let mut bytes = frame.to_vec();
                let roll = splitmix64(self.seed ^ self.frame_idx) as usize;
                let pos = if bytes.len() > HEADER_LEN {
                    HEADER_LEN + roll % (bytes.len() - HEADER_LEN)
                } else {
                    11 + roll % 4
                };
                bytes[pos] ^= 0x01;
                FaultStep::Write(Bytes::from(bytes))
            }
            Some(FaultKind::Sever) => FaultStep::Sever,
        }
    }
}

/// Counters and error slot shared between a [`Link`] handle and its writer.
#[derive(Clone)]
struct LinkShared {
    sent: Arc<AtomicU64>,
    broken: Arc<AtomicBool>,
    last_error: Arc<Mutex<Option<TransportError>>>,
}

impl LinkShared {
    fn new() -> LinkShared {
        LinkShared {
            sent: Arc::new(AtomicU64::new(0)),
            broken: Arc::new(AtomicBool::new(false)),
            last_error: Arc::new(Mutex::new(None)),
        }
    }

    /// Raises the broken flag with its typed reason.
    fn fail(&self, e: TransportError) {
        self.broken.store(true, Ordering::Relaxed);
        *self.last_error.lock().expect("link writer panicked") = Some(e);
    }

    fn sever(&self, stream: &TcpStream) {
        let _ = stream.shutdown(Shutdown::Both);
        self.fail(TransportError::Io(
            "link severed by fault injection".to_string(),
        ));
    }
}

/// The writing half of one peer link: a bounded queue drained by a
/// dedicated writer thread over a blocking socket.
///
/// Senders block when the queue is full — the same backpressure shape as
/// the in-process bounded node channels. If the socket dies mid-run the
/// writer drains and discards the remaining queue (so producers never
/// deadlock against a dead peer) and raises the broken flag; the failure
/// surfaces as a typed error when the coordinator collects results.
pub struct Link {
    tx: Option<SyncSender<Bytes>>,
    shared: LinkShared,
    writer: Option<JoinHandle<()>>,
}

impl Link {
    /// Spawns the writer thread over a connected stream.
    pub fn spawn(stream: TcpStream) -> Link {
        Link::spawn_with_faults(stream, Vec::new(), 0)
    }

    /// Spawns the writer thread with a deterministic fault schedule: each
    /// [`LinkFault`] fires at most once, *before* the frame matching its
    /// trigger is written. `Drop` discards the frame, `Delay` stalls the
    /// writer, `Corrupt` flips one seed-chosen byte (the CRC catches it on
    /// the far side), and `Sever` shuts the socket down in both directions
    /// so the peer sees an abrupt EOF — the in-process shim behind the
    /// chaos tests and the [`crate::fault::FaultPlan`] harness.
    pub fn spawn_with_faults(stream: TcpStream, faults: Vec<LinkFault>, seed: u64) -> Link {
        let (tx, rx) = sync_channel::<Bytes>(LINK_QUEUE);
        let shared = LinkShared::new();
        let shared_w = shared.clone();
        let writer = std::thread::spawn(move || {
            let mut stream = stream;
            let mut sched = FaultSchedule::new(faults, seed);
            let mut dead = false;
            while let Ok(frame) = rx.recv() {
                if dead {
                    continue;
                }
                let frame = match sched.step(frame) {
                    FaultStep::Write(f) => f,
                    FaultStep::DelayThenWrite(ms, f) => {
                        std::thread::sleep(Duration::from_millis(ms));
                        f
                    }
                    FaultStep::Discard => continue,
                    FaultStep::Sever => {
                        shared_w.sever(&stream);
                        dead = true;
                        continue;
                    }
                };
                if let Err(e) = stream.write_all(&frame) {
                    shared_w.fail(TransportError::Io(e.to_string()));
                    dead = true;
                    continue;
                }
                shared_w
                    .sent
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            let _ = stream.flush();
        });
        Link {
            tx: Some(tx),
            shared,
            writer: Some(writer),
        }
    }

    /// Queues one frame, blocking when the link is saturated. Returns the
    /// frame's full wire length. Queuing onto a broken link succeeds (the
    /// writer discards) so mid-epoch producers never wedge; the break is
    /// observed via [`Link::is_broken`] at collection time.
    pub fn send(&self, kind: FrameKind, body: &[u8]) -> u64 {
        self.send_raw(encode_frame(kind, body))
    }

    /// Queues an already-encoded frame (see [`Link::send`]).
    pub fn send_raw(&self, frame: Bytes) -> u64 {
        let len = frame.len() as u64;
        let _ = self.tx.as_ref().expect("link open").send(frame);
        len
    }

    /// Bytes actually written to the socket so far.
    pub fn bytes_sent(&self) -> u64 {
        self.shared.sent.load(Ordering::Relaxed)
    }

    /// Whether the socket died under the writer.
    pub fn is_broken(&self) -> bool {
        self.shared.broken.load(Ordering::Relaxed)
    }

    /// The typed error behind a raised broken flag, when one was recorded —
    /// lets a broken writer queue surface as a reasoned `NodeDown` instead
    /// of a bare boolean.
    pub fn error(&self) -> Option<TransportError> {
        self.shared
            .last_error
            .lock()
            .expect("link writer panicked")
            .clone()
    }

    /// Closes the queue and joins the writer after it flushes.
    pub fn close(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_in_memory() {
        let body = b"hello shard traffic".to_vec();
        let frame = encode_frame(FrameKind::Shard, &body);
        assert_eq!(frame.len(), HEADER_LEN + body.len());
        let (kind, got, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(kind, FrameKind::Shard);
        assert_eq!(&got[..], &body[..]);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn typed_errors_cover_each_header_field() {
        let frame = encode_frame(FrameKind::Progress, b"x");
        let mut bad = frame.to_vec();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bad),
            Err(TransportError::BadMagic { .. })
        ));
        let mut bad = frame.to_vec();
        bad[4] = 0xEE;
        assert_eq!(
            decode_frame(&bad).unwrap_err(),
            TransportError::VersionMismatch {
                got: u16::from_le_bytes([0xEE, 0x00]),
                want: PROTOCOL_VERSION
            }
        );
        // The previous release (every timestamp page frame-of-reference)
        // is refused by its header, never decoded.
        let mut old = frame.to_vec();
        old[4..6].copy_from_slice(&6u16.to_le_bytes());
        assert_eq!(
            decode_frame(&old).unwrap_err(),
            TransportError::VersionMismatch { got: 6, want: 7 }
        );
        let mut bad = frame.to_vec();
        bad[6] = 200;
        assert_eq!(
            decode_frame(&bad).unwrap_err(),
            TransportError::BadKind { got: 200 }
        );
        let mut bad = frame.to_vec();
        bad[HEADER_LEN] ^= 0x01;
        assert!(matches!(
            decode_frame(&bad),
            Err(TransportError::CrcMismatch { .. })
        ));
        assert!(matches!(
            decode_frame(&frame[..HEADER_LEN - 3]),
            Err(TransportError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let frame = encode_frame(FrameKind::Shard, b"abc");
        let mut bad = frame.to_vec();
        bad[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bad),
            Err(TransportError::Oversized { .. })
        ));
    }

    #[test]
    fn reader_distinguishes_clean_close_from_truncation() {
        let frame = encode_frame(FrameKind::Done, b"tail");
        // Clean close: the stream ends exactly at a frame boundary.
        let mut reader = FrameReader::new(&frame[..]);
        let (kind, body) = reader.read_frame().unwrap();
        assert_eq!((kind, &body[..]), (FrameKind::Done, &b"tail"[..]));
        assert_eq!(reader.bytes_received(), frame.len() as u64);
        assert_eq!(reader.read_frame().unwrap_err(), TransportError::Closed);
        // Mid-frame end of stream.
        let mut reader = FrameReader::new(&frame[..frame.len() - 2]);
        assert!(matches!(
            reader.read_frame(),
            Err(TransportError::Truncated { .. })
        ));
    }

    #[test]
    fn reader_rejects_a_forged_huge_header_before_reading_the_body() {
        // A header advertising a body past MAX_FRAME_LEN fails typed and
        // early, without touching the (absent) body bytes.
        let mut forged = encode_frame(FrameKind::Shard, b"abc").to_vec();
        forged[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new(&forged[..]);
        assert_eq!(
            reader.read_frame().unwrap_err(),
            TransportError::Oversized {
                len: u32::MAX as usize,
                max: MAX_FRAME_LEN
            }
        );
        assert_eq!(reader.bytes_received(), 0);
    }

    #[test]
    fn bounded_reads_refuse_a_body_past_the_limit_unread() {
        let limit = 4096;
        let at = encode_frame(FrameKind::Register, &vec![b'x'; limit]);
        let mut reader = FrameReader::new(&at[..]);
        let (kind, body) = reader.read_frame_within(limit).unwrap();
        assert_eq!((kind, body.len()), (FrameKind::Register, limit));
        // One byte past the limit: refused from the header, with no body
        // byte taken off the stream.
        let past = encode_frame(FrameKind::Register, &vec![b'x'; limit + 1]);
        let mut stream = io::Cursor::new(&past[..]);
        let mut reader = FrameReader::new(&mut stream);
        assert_eq!(
            reader.read_frame_within(limit).unwrap_err(),
            TransportError::Oversized {
                len: limit + 1,
                max: limit
            }
        );
        assert_eq!(reader.bytes_received(), 0);
        assert_eq!(stream.position(), HEADER_LEN as u64);
    }

    #[test]
    fn reader_caps_allocation_against_an_advertised_length() {
        // A forged header advertising a (legal) near-cap body over a stream
        // that never delivers it must fail with Truncated after at most one
        // RECV_CHUNK of buffer, not allocate the advertised 32 MiB.
        let mut forged = encode_frame(FrameKind::Shard, b"tiny").to_vec();
        let advertised = (32usize << 20) as u32;
        forged[7..11].copy_from_slice(&advertised.to_le_bytes());
        let mut reader = FrameReader::new(&forged[..]);
        let err = reader.read_frame().unwrap_err();
        match err {
            TransportError::Truncated { needed, got } => {
                assert_eq!(needed, HEADER_LEN + advertised as usize);
                // Only the 4 real body bytes were ever buffered.
                assert_eq!(got, HEADER_LEN + 4);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    fn faulty_reader_thread(
        listener: TcpListener,
    ) -> std::thread::JoinHandle<(Vec<(FrameKind, usize)>, TransportError)> {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(stream);
            let mut ok = Vec::new();
            loop {
                match reader.read_frame() {
                    Ok((kind, body)) => ok.push((kind, body.len())),
                    Err(e) => return (ok, e),
                }
            }
        })
    }

    #[test]
    fn fault_schedule_drops_and_severs_at_the_epoch_boundary() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader_thread = faulty_reader_thread(listener);
        // Frame 1 is dropped and the link severed just before the first
        // EpochEnd, so the peer sees frames 0, 2, 3 then a clean EOF.
        let faults = vec![
            LinkFault {
                trigger: FaultTrigger::Frame(1),
                kind: FaultKind::Drop,
            },
            LinkFault {
                trigger: FaultTrigger::EpochEnd(0),
                kind: FaultKind::Sever,
            },
        ];
        let mut link = Link::spawn_with_faults(TcpStream::connect(addr).unwrap(), faults, 7);
        for i in 0..4u8 {
            link.send(FrameKind::Shard, &[i; 8]);
        }
        link.send(FrameKind::EpochEnd, &0u64.to_le_bytes());
        link.close();
        let (ok, err) = reader_thread.join().unwrap();
        assert_eq!(ok, vec![(FrameKind::Shard, 8); 3]);
        assert_eq!(err, TransportError::Closed);
        assert!(link.is_broken(), "sever raises the broken flag");
        assert!(
            matches!(link.error(), Some(TransportError::Io(ref m)) if m.contains("severed")),
            "sever records a typed error"
        );
    }

    #[test]
    fn fault_schedule_corrupts_one_byte_and_the_crc_catches_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader_thread = faulty_reader_thread(listener);
        let faults = vec![LinkFault {
            trigger: FaultTrigger::Frame(1),
            kind: FaultKind::Corrupt,
        }];
        let mut link = Link::spawn_with_faults(TcpStream::connect(addr).unwrap(), faults, 42);
        link.send(FrameKind::Shard, &[0xAB; 16]);
        link.send(FrameKind::Shard, &[0xCD; 16]);
        link.close();
        let (ok, err) = reader_thread.join().unwrap();
        assert_eq!(ok, vec![(FrameKind::Shard, 16)]);
        assert!(
            matches!(err, TransportError::CrcMismatch { .. }),
            "a flipped body byte is always CRC-caught, got {err:?}"
        );
    }

    #[test]
    fn link_ships_frames_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(stream);
            let mut got = Vec::new();
            loop {
                match reader.read_frame() {
                    Ok((kind, body)) => got.push((kind, body)),
                    Err(TransportError::Closed) => break,
                    Err(e) => panic!("unexpected transport error: {e}"),
                }
            }
            (got, reader.bytes_received())
        });
        let mut link = Link::spawn(TcpStream::connect(addr).unwrap());
        let mut queued = 0;
        for i in 0..10u8 {
            queued += link.send(FrameKind::Shard, &[i; 32]);
        }
        queued += link.send(FrameKind::Done, b"");
        link.close();
        assert!(!link.is_broken());
        assert_eq!(link.bytes_sent(), queued);
        let (got, received) = reader_thread.join().unwrap();
        assert_eq!(got.len(), 11);
        assert_eq!(received, queued, "RX accounting sees every wire byte");
        assert_eq!(got[3].0, FrameKind::Shard);
        assert_eq!(&got[3].1[..], &[3u8; 32][..]);
        assert_eq!(got[10].0, FrameKind::Done);
    }
}
