//! The pluggable transport tier under [`RoundEngine`](crate::RoundEngine).
//!
//! A [`Transport`] moves length-prefixed [`Frame`]s between the `n`
//! endpoints of one simulated network, one round at a time. Three tiers
//! implement the contract (`DESIGN.md` §7):
//!
//! - [`LocalTransport`] — in-memory per-recipient frame queues, the
//!   reference tier (the engine additionally short-circuits the
//!   [`TransportSpec::Local`] spec to its zero-copy inbox merge, so real
//!   Local runs never serialize at all);
//! - [`ChannelTransport`] — a mock multiparty channel matrix of
//!   `std::sync::mpsc` duplex pairs, one per ordered endpoint pair, with
//!   every frame crossing the byte codec;
//! - [`TcpTransport`] — real localhost sockets with length-prefixed
//!   framing, lazy dialing, and end-of-round markers.
//!
//! The determinism contract across tiers: after a round of `send` calls in
//! sender order, [`Transport::finish_round`] returns per-recipient frame
//! lists *sorted by sender with per-link FIFO order* — exactly the order of
//! the engine's sequential inbox merge — and under
//! [`SendPolicy::Strict`] every tier enforces the [`BandwidthCap`] on the
//! frame's *declared model bits* through the simulated tier's
//! [`BandwidthCap::enforce`], so an oversend raises the same
//! [`BudgetViolation`](crate::BudgetViolation) no matter which tier caught
//! it. Actual bytes on the wire are *metered* (in
//! [`TransportStats`]) rather than gated: any self-delimiting codec pays
//! `O(1)` bits of overhead per value over the information-theoretic widths
//! the cost model charges, so gating physical bytes would panic where the
//! simulated tier does not and break the oracle.

use crate::cap::BandwidthCap;
use crate::deadline::{park_tick, Deadline};
use crate::engine::SendPolicy;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Which transport tier a round engine ships frames over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TransportSpec {
    /// In-memory inboxes — the reference tier and the default.
    #[default]
    Local,
    /// An in-process matrix of `std::sync::mpsc` channels, one duplex pair
    /// per ordered endpoint pair; frames cross the byte codec.
    Channel,
    /// Real localhost TCP sockets with length-prefixed framing.
    Tcp,
}

impl TransportSpec {
    /// Stable lower-case name ("local" / "channel" / "tcp") used in sweep
    /// tables and CI artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransportSpec::Local => "local",
            TransportSpec::Channel => "channel",
            TransportSpec::Tcp => "tcp",
        }
    }

    /// All three tiers, Local first (the reference).
    #[must_use]
    pub fn all() -> [TransportSpec; 3] {
        [
            TransportSpec::Local,
            TransportSpec::Channel,
            TransportSpec::Tcp,
        ]
    }

    /// Builds the transport for an `n`-endpoint network.
    ///
    /// # Panics
    ///
    /// Panics if a [`TransportSpec::Tcp`] transport cannot bind its
    /// localhost listeners.
    #[must_use]
    pub fn build(self, n: usize) -> Box<dyn Transport> {
        match self {
            TransportSpec::Local => Box::new(LocalTransport::new(n)),
            TransportSpec::Channel => Box::new(ChannelTransport::new(n)),
            TransportSpec::Tcp => Box::new(TcpTransport::new(n)),
        }
    }
}

impl std::fmt::Display for TransportSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed transport failure. Raised out of the engine's infallible round
/// APIs via `std::panic::panic_any` and re-caught losslessly by
/// `dcl_runner::run_protected` as `RunError::Transport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A peer is gone: dialing failed, a stream broke mid-round, or a read
    /// deadline expired. When the far peer's identity is unknown (an accept
    /// that never arrived), `from` and `to` both name the local endpoint.
    Disconnected {
        /// Sending endpoint of the broken link.
        from: usize,
        /// Receiving endpoint of the broken link.
        to: usize,
        /// Human-readable cause (OS error, timeout, …).
        detail: String,
    },
    /// The byte stream violated the framing protocol (bad frame kind,
    /// oversized length prefix, undecodable payload).
    Protocol {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected { from, to, detail } => {
                write!(f, "transport link {from} -> {to} disconnected: {detail}")
            }
            TransportError::Protocol { detail } => {
                write!(f, "transport protocol violation: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// The per-round limits a transport enforces and meters against.
#[derive(Debug, Clone, Copy)]
pub struct RoundLimits {
    /// Per-message bandwidth cap, if the model has one this round.
    pub cap: Option<BandwidthCap>,
    /// Whether oversized payloads are violations ([`SendPolicy::Strict`])
    /// or fragment logically ([`SendPolicy::Fragment`]).
    pub policy: SendPolicy,
    /// Model name carried by a cap violation ("CONGEST", "clique", …).
    pub model: &'static str,
}

impl Default for RoundLimits {
    fn default() -> Self {
        RoundLimits {
            cap: None,
            policy: SendPolicy::Strict,
            model: "transport",
        }
    }
}

/// One transported message: the payload's byte encoding plus the model
/// bit-width the cost tier charged for it (the quantity the cap gates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// `Wire::wire_bits` of the payload — what the bandwidth cap meters.
    pub declared_bits: u32,
    /// The payload's `Wire::wire_encode` bytes.
    pub payload: Vec<u8>,
}

/// Physical-layer counters a transport accumulates across its lifetime.
///
/// `frames`, `payload_bytes` and `packets` are tier-independent (the
/// equivalence suites pin them identical across Channel and Tcp);
/// `wire_bytes` additionally counts tier-specific framing overhead (frame
/// headers everywhere, plus hello/end-of-round marker frames on TCP), so it
/// legitimately differs between tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Data frames sent.
    pub frames: u64,
    /// Payload bytes sent (codec output, excluding frame headers).
    pub payload_bytes: u64,
    /// Total bytes handed to the wire, including framing overhead.
    pub wire_bytes: u64,
    /// MTU-sized packets the payloads occupy, where the MTU is the cap
    /// rounded up to whole bytes (one packet per frame when uncapped) —
    /// the physical analogue of the cost model's fragment count.
    pub packets: u64,
}

/// Byte length of a frame header: `[len: u32][kind: u8][sender: u32]
/// [declared_bits: u32]` (the length prefix counts the bytes after itself).
pub const FRAME_HEADER_BYTES: usize = 4 + 1 + 4 + 4;

/// Frames larger than this are a protocol violation — a corrupt length
/// prefix must not trigger an unbounded allocation.
const MAX_FRAME_BYTES: usize = 1 << 26;

/// Frame discriminator on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An application payload.
    Data,
    /// End-of-round marker: the sender has no more frames this round.
    EndRound,
    /// Link handshake: announces the dialing endpoint's index.
    Hello,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::EndRound => 1,
            FrameKind::Hello => 2,
        }
    }

    fn from_u8(byte: u8) -> Option<FrameKind> {
        match byte {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::EndRound),
            2 => Some(FrameKind::Hello),
            _ => None,
        }
    }
}

/// A decoded wire frame, header fields included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Frame discriminator.
    pub kind: FrameKind,
    /// Index of the sending endpoint.
    pub sender: usize,
    /// Declared model bit-width of the payload.
    pub declared_bits: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Appends the wire encoding of one frame to `out`:
/// `[len: u32 LE][kind: u8][sender: u32 LE][declared_bits: u32 LE][payload]`.
pub fn encode_frame(
    kind: FrameKind,
    sender: usize,
    declared_bits: u32,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let len = (1 + 4 + 4 + payload.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind.as_u8());
    out.extend_from_slice(&(sender as u32).to_le_bytes());
    out.extend_from_slice(&declared_bits.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incremental frame parser: bytes go in at arbitrary split boundaries
/// (partial reads, coalesced TCP segments), whole frames come out. The
/// reassembly identity — `encode → split anywhere → push → next_frame` is
/// lossless — is property-tested in `crates/sim/tests/proptest_wire.rs`.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// A reader with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes received from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        // Drop the consumed prefix before it grows unboundedly.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-parsed bytes.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame, or `Ok(None)` if more bytes are
    /// needed. A malformed header (unknown kind, oversized or undersized
    /// length prefix) is a [`TransportError::Protocol`].
    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, TransportError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked")) as usize;
        if !(9..=MAX_FRAME_BYTES).contains(&len) {
            return Err(TransportError::Protocol {
                detail: format!("frame length prefix {len} outside [9, {MAX_FRAME_BYTES}]"),
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        let kind = FrameKind::from_u8(body[0]).ok_or_else(|| TransportError::Protocol {
            detail: format!("unknown frame kind {}", body[0]),
        })?;
        let sender = u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")) as usize;
        let declared_bits = u32::from_le_bytes(body[5..9].try_into().expect("4 bytes"));
        let payload = body[9..].to_vec();
        self.pos += 4 + len;
        Ok(Some(RawFrame {
            kind,
            sender,
            declared_bits,
            payload,
        }))
    }
}

/// A round-synchronous frame mover between `n` endpoints.
///
/// Contract (pinned by `crates/sim/tests/transport_equivalence.rs`):
///
/// 1. A round is `begin_round`, then any number of `send(from, to, frame)`
///    calls, then one `finish_round`.
/// 2. `finish_round` returns one frame list per recipient, **sorted by
///    sender with per-link FIFO order** — the order of the engine's
///    sequential inbox merge, making delivery bit-identical to the
///    [`LocalTransport`] reference.
/// 3. Under [`SendPolicy::Strict`] with a cap, `send` enforces the cap on
///    the frame's `declared_bits` with the simulated tier's
///    [`BandwidthCap::enforce`] (so the failure is the same typed
///    [`BudgetViolation`](crate::BudgetViolation)); physical bytes are
///    metered in [`TransportStats`], never gated.
/// 4. A broken or closed peer surfaces as `Err(TransportError)` — never a
///    hang (socket reads and accepts carry deadlines).
pub trait Transport: std::fmt::Debug {
    /// The tier's stable name ("local" / "channel" / "tcp").
    fn name(&self) -> &'static str;

    /// Number of endpoints.
    fn len(&self) -> usize;

    /// Whether the network has no endpoints.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Starts a round under the given limits.
    fn begin_round(&mut self, limits: &RoundLimits);

    /// Ships one frame from endpoint `from` to endpoint `to`.
    ///
    /// # Panics
    ///
    /// Raises [`BudgetViolation::Bandwidth`](crate::BudgetViolation) if the
    /// frame's declared bits exceed the round's cap under
    /// [`SendPolicy::Strict`].
    fn send(&mut self, from: usize, to: usize, frame: Frame) -> Result<(), TransportError>;

    /// Completes the round and returns the per-recipient `(sender, frame)`
    /// lists, sorted by sender with per-link FIFO order.
    fn finish_round(&mut self) -> Result<Vec<Vec<(usize, Frame)>>, TransportError>;

    /// Lifetime physical-layer counters.
    fn stats(&self) -> &TransportStats;

    /// Fault injection: tears down endpoint `v` (drops its listener and
    /// every link touching it), so subsequent traffic involving `v` fails
    /// with [`TransportError::Disconnected`]. No-op on tiers without
    /// teardown semantics.
    fn close_endpoint(&mut self, _v: usize) {}
}

/// Enforces the round's cap on declared bits (Strict only, the same
/// [`BandwidthCap::enforce`] as `SimMetrics::account`) and meters the frame.
/// Shared by every tier so enforcement and metering cannot drift apart.
fn meter_send(stats: &mut TransportStats, limits: &RoundLimits, frame: &Frame) {
    if limits.policy == SendPolicy::Strict {
        if let Some(cap) = limits.cap {
            cap.enforce(frame.declared_bits, limits.model);
        }
    }
    let mtu = limits
        .cap
        .map(|cap| (cap.bits() as usize).div_ceil(8).max(1));
    let packets = match mtu {
        Some(mtu) => frame.payload.len().div_ceil(mtu).max(1),
        None => 1,
    };
    stats.frames += 1;
    stats.payload_bytes += frame.payload.len() as u64;
    stats.wire_bytes += (FRAME_HEADER_BYTES + frame.payload.len()) as u64;
    stats.packets += packets as u64;
}

/// The in-memory reference tier: frames queue per recipient and are
/// stably sorted by sender at `finish_round`. No serialization happens —
/// payload bytes pass through untouched.
#[derive(Debug)]
pub struct LocalTransport {
    n: usize,
    limits: RoundLimits,
    queues: Vec<Vec<(usize, Frame)>>,
    stats: TransportStats,
}

impl LocalTransport {
    /// A local transport for `n` endpoints.
    #[must_use]
    pub fn new(n: usize) -> Self {
        LocalTransport {
            n,
            limits: RoundLimits::default(),
            queues: (0..n).map(|_| Vec::new()).collect(),
            stats: TransportStats::default(),
        }
    }
}

impl Transport for LocalTransport {
    fn name(&self) -> &'static str {
        "local"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn begin_round(&mut self, limits: &RoundLimits) {
        self.limits = *limits;
    }

    fn send(&mut self, from: usize, to: usize, frame: Frame) -> Result<(), TransportError> {
        assert!(to < self.n, "recipient {to} out of range");
        meter_send(&mut self.stats, &self.limits, &frame);
        self.queues[to].push((from, frame));
        Ok(())
    }

    fn finish_round(&mut self) -> Result<Vec<Vec<(usize, Frame)>>, TransportError> {
        let mut out: Vec<Vec<(usize, Frame)>> = (0..self.n).map(|_| Vec::new()).collect();
        std::mem::swap(&mut out, &mut self.queues);
        for inbox in &mut out {
            // Stable: per-link FIFO order is preserved within each sender.
            inbox.sort_by_key(|(from, _)| *from);
        }
        Ok(out)
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

/// The mock multiparty tier: an `n × n` matrix of `std::sync::mpsc`
/// channels, one per ordered endpoint pair. Every frame crosses the full
/// byte codec (encode at `send`, [`FrameReader`] reassembly at
/// `finish_round`), exercising exactly the framing the socket tier uses.
#[derive(Debug)]
pub struct ChannelTransport {
    n: usize,
    limits: RoundLimits,
    /// `senders[from][to]` is the tx half of the `from -> to` link.
    senders: Vec<Vec<mpsc::Sender<Vec<u8>>>>,
    /// `receivers[to][from]` is the rx half of the `from -> to` link.
    receivers: Vec<Vec<mpsc::Receiver<Vec<u8>>>>,
    /// `readers[to][from]` reassembles the `from -> to` byte stream.
    readers: Vec<Vec<FrameReader>>,
    stats: TransportStats,
}

impl ChannelTransport {
    /// A channel-matrix transport for `n` endpoints.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut senders: Vec<Vec<mpsc::Sender<Vec<u8>>>> =
            (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut receivers: Vec<Vec<mpsc::Receiver<Vec<u8>>>> =
            (0..n).map(|_| Vec::with_capacity(n)).collect();
        // Outer loop over senders, inner over recipients: `senders[from]`
        // fills in ascending `to` order and `receivers[to]` in ascending
        // `from` order, so both sides index as [first][second] directly.
        for sender_row in &mut senders {
            for receiver_row in &mut receivers {
                let (tx, rx) = mpsc::channel();
                sender_row.push(tx);
                receiver_row.push(rx);
            }
        }
        ChannelTransport {
            n,
            limits: RoundLimits::default(),
            senders,
            receivers,
            readers: (0..n)
                .map(|_| (0..n).map(|_| FrameReader::new()).collect())
                .collect(),
            stats: TransportStats::default(),
        }
    }
}

impl Transport for ChannelTransport {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn begin_round(&mut self, limits: &RoundLimits) {
        self.limits = *limits;
    }

    fn send(&mut self, from: usize, to: usize, frame: Frame) -> Result<(), TransportError> {
        assert!(to < self.n, "recipient {to} out of range");
        meter_send(&mut self.stats, &self.limits, &frame);
        let mut bytes = Vec::with_capacity(FRAME_HEADER_BYTES + frame.payload.len());
        encode_frame(
            FrameKind::Data,
            from,
            frame.declared_bits,
            &frame.payload,
            &mut bytes,
        );
        self.senders[from][to]
            .send(bytes)
            .map_err(|_| TransportError::Disconnected {
                from,
                to,
                detail: "channel closed".to_string(),
            })
    }

    fn finish_round(&mut self) -> Result<Vec<Vec<(usize, Frame)>>, TransportError> {
        let mut out: Vec<Vec<(usize, Frame)>> = (0..self.n).map(|_| Vec::new()).collect();
        for (to, inbox) in out.iter_mut().enumerate() {
            // Draining links in ascending sender order gives the contract's
            // sorted-by-sender, per-link-FIFO delivery directly.
            for from in 0..self.n {
                let reader = &mut self.readers[to][from];
                while let Ok(bytes) = self.receivers[to][from].try_recv() {
                    reader.push(&bytes);
                }
                while let Some(raw) = reader.next_frame()? {
                    if raw.kind != FrameKind::Data {
                        return Err(TransportError::Protocol {
                            detail: format!("unexpected {:?} frame on channel link", raw.kind),
                        });
                    }
                    if raw.sender != from {
                        return Err(TransportError::Protocol {
                            detail: format!(
                                "frame from sender {} on the {from} -> {to} link",
                                raw.sender
                            ),
                        });
                    }
                    inbox.push((
                        from,
                        Frame {
                            declared_bits: raw.declared_bits,
                            payload: raw.payload,
                        },
                    ));
                }
                if reader.pending_bytes() > 0 {
                    return Err(TransportError::Protocol {
                        detail: format!(
                            "{} trailing bytes on the {from} -> {to} link at end of round",
                            reader.pending_bytes()
                        ),
                    });
                }
            }
        }
        Ok(out)
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

/// How long socket accepts and reads may block before the transport gives
/// up and reports [`TransportError::Disconnected`] — the "never a hang"
/// half of the fault contract.
const TCP_DEADLINE: Duration = Duration::from_secs(10);

/// The socket tier: one localhost listener per endpoint, links dialed
/// lazily on first use (announced by a [`FrameKind::Hello`] frame), and a
/// [`FrameKind::EndRound`] marker on every established link each round so
/// receivers know when a link is drained without global knowledge.
#[derive(Debug)]
pub struct TcpTransport {
    n: usize,
    limits: RoundLimits,
    addrs: Vec<SocketAddr>,
    listeners: Vec<Option<TcpListener>>,
    /// `outgoing[from]` maps recipient -> established stream.
    outgoing: Vec<BTreeMap<usize, TcpStream>>,
    /// `incoming[to]` maps sender -> (stream, reassembler); `BTreeMap`
    /// iteration gives the sorted-by-sender delivery order for free.
    incoming: Vec<BTreeMap<usize, (TcpStream, FrameReader)>>,
    /// Dials issued but not yet accepted, per dialed endpoint.
    pending_accepts: Vec<usize>,
    dead: Vec<bool>,
    stats: TransportStats,
}

impl TcpTransport {
    /// Binds `n` localhost listeners (ephemeral ports).
    ///
    /// # Panics
    ///
    /// Panics if a listener cannot bind — the loopback interface is a
    /// precondition of the socket tier.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for v in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")
                .unwrap_or_else(|e| panic!("binding listener for endpoint {v}: {e}"));
            listener
                .set_nonblocking(true)
                .expect("nonblocking accept mode");
            addrs.push(
                listener
                    .local_addr()
                    .expect("bound listener has an address"),
            );
            listeners.push(Some(listener));
        }
        TcpTransport {
            n,
            limits: RoundLimits::default(),
            addrs,
            listeners,
            outgoing: (0..n).map(|_| BTreeMap::new()).collect(),
            incoming: (0..n).map(|_| BTreeMap::new()).collect(),
            pending_accepts: vec![0; n],
            dead: vec![false; n],
            stats: TransportStats::default(),
        }
    }

    /// Establishes the `from -> to` stream if it does not exist yet,
    /// sending the hello handshake and registering the pending accept.
    fn ensure_link(&mut self, from: usize, to: usize) -> Result<(), TransportError> {
        if self.outgoing[from].contains_key(&to) {
            return Ok(());
        }
        let stream =
            TcpStream::connect(self.addrs[to]).map_err(|e| TransportError::Disconnected {
                from,
                to,
                detail: format!("dial failed: {e}"),
            })?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(TCP_DEADLINE))
            .expect("read timeout is supported on TCP streams");
        let mut hello = Vec::with_capacity(FRAME_HEADER_BYTES);
        encode_frame(FrameKind::Hello, from, 0, &[], &mut hello);
        let mut stream = stream;
        stream
            .write_all(&hello)
            .map_err(|e| TransportError::Disconnected {
                from,
                to,
                detail: format!("hello write failed: {e}"),
            })?;
        self.stats.wire_bytes += hello.len() as u64;
        self.outgoing[from].insert(to, stream);
        self.pending_accepts[to] += 1;
        Ok(())
    }

    /// Accepts every pending dial, learning each link's sender from its
    /// hello frame. Bounded by [`TCP_DEADLINE`] per endpoint.
    fn accept_pending(&mut self) -> Result<(), TransportError> {
        for to in 0..self.n {
            while self.pending_accepts[to] > 0 {
                let listener =
                    self.listeners[to]
                        .as_ref()
                        .ok_or_else(|| TransportError::Disconnected {
                            from: to,
                            to,
                            detail: "listener closed with dials pending".to_string(),
                        })?;
                let deadline = Deadline::after(TCP_DEADLINE);
                let stream = loop {
                    match listener.accept() {
                        Ok((stream, _)) => break stream,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if deadline.expired() {
                                return Err(TransportError::Disconnected {
                                    from: to,
                                    to,
                                    detail: "accept deadline expired".to_string(),
                                });
                            }
                            park_tick();
                        }
                        Err(e) => {
                            return Err(TransportError::Disconnected {
                                from: to,
                                to,
                                detail: format!("accept failed: {e}"),
                            });
                        }
                    }
                };
                stream
                    .set_nonblocking(false)
                    .expect("accepted stream supports blocking mode");
                stream
                    .set_read_timeout(Some(TCP_DEADLINE))
                    .expect("read timeout is supported on TCP streams");
                let mut reader = FrameReader::new();
                let mut stream = stream;
                let hello = read_one_frame(&mut stream, &mut reader, to, to)?;
                if hello.kind != FrameKind::Hello {
                    return Err(TransportError::Protocol {
                        detail: format!("expected hello on new link, got {:?}", hello.kind),
                    });
                }
                let from = hello.sender;
                if from >= self.n {
                    return Err(TransportError::Protocol {
                        detail: format!("hello announces out-of-range sender {from}"),
                    });
                }
                self.incoming[to].insert(from, (stream, reader));
                self.pending_accepts[to] -= 1;
            }
        }
        Ok(())
    }
}

/// Blocks (up to the stream's read timeout) until one complete frame is
/// available on `stream`, reassembling across partial reads.
fn read_one_frame(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    from: usize,
    to: usize,
) -> Result<RawFrame, TransportError> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame()? {
            return Ok(frame);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(TransportError::Disconnected {
                    from,
                    to,
                    detail: "peer closed the stream".to_string(),
                });
            }
            Ok(k) => reader.push(&chunk[..k]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(TransportError::Disconnected {
                    from,
                    to,
                    detail: "read deadline expired".to_string(),
                });
            }
            Err(e) => {
                return Err(TransportError::Disconnected {
                    from,
                    to,
                    detail: format!("read failed: {e}"),
                });
            }
        }
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn begin_round(&mut self, limits: &RoundLimits) {
        self.limits = *limits;
    }

    fn send(&mut self, from: usize, to: usize, frame: Frame) -> Result<(), TransportError> {
        assert!(to < self.n, "recipient {to} out of range");
        if self.dead[from] || self.dead[to] {
            let closed = if self.dead[from] { from } else { to };
            return Err(TransportError::Disconnected {
                from,
                to,
                detail: format!("endpoint {closed} is closed"),
            });
        }
        self.ensure_link(from, to)?;
        meter_send(&mut self.stats, &self.limits, &frame);
        let mut bytes = Vec::with_capacity(FRAME_HEADER_BYTES + frame.payload.len());
        encode_frame(
            FrameKind::Data,
            from,
            frame.declared_bits,
            &frame.payload,
            &mut bytes,
        );
        let stream = self.outgoing[from]
            .get_mut(&to)
            .expect("link established above");
        stream
            .write_all(&bytes)
            .map_err(|e| TransportError::Disconnected {
                from,
                to,
                detail: format!("write failed: {e}"),
            })
    }

    fn finish_round(&mut self) -> Result<Vec<Vec<(usize, Frame)>>, TransportError> {
        // End-of-round markers on every established link, after all data
        // writes — receivers drain each link up to its marker.
        for from in 0..self.n {
            if self.dead[from] {
                continue;
            }
            let mut marker = Vec::with_capacity(FRAME_HEADER_BYTES);
            encode_frame(FrameKind::EndRound, from, 0, &[], &mut marker);
            for (&to, stream) in &mut self.outgoing[from] {
                stream
                    .write_all(&marker)
                    .map_err(|e| TransportError::Disconnected {
                        from,
                        to,
                        detail: format!("end-of-round write failed: {e}"),
                    })?;
                self.stats.wire_bytes += marker.len() as u64;
            }
        }
        self.accept_pending()?;
        let mut out: Vec<Vec<(usize, Frame)>> = (0..self.n).map(|_| Vec::new()).collect();
        for (to, inbox) in out.iter_mut().enumerate() {
            // BTreeMap iteration is sender-ascending: the contract's order.
            for (&from, (stream, reader)) in &mut self.incoming[to] {
                loop {
                    let raw = read_one_frame(stream, reader, from, to)?;
                    match raw.kind {
                        FrameKind::EndRound => break,
                        FrameKind::Data => {
                            if raw.sender != from {
                                return Err(TransportError::Protocol {
                                    detail: format!(
                                        "frame from sender {} on the {from} -> {to} link",
                                        raw.sender
                                    ),
                                });
                            }
                            inbox.push((
                                from,
                                Frame {
                                    declared_bits: raw.declared_bits,
                                    payload: raw.payload,
                                },
                            ));
                        }
                        FrameKind::Hello => {
                            return Err(TransportError::Protocol {
                                detail: "hello frame on an established link".to_string(),
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn stats(&self) -> &TransportStats {
        &self.stats
    }

    fn close_endpoint(&mut self, v: usize) {
        self.dead[v] = true;
        self.listeners[v] = None;
        self.outgoing[v].clear();
        self.incoming[v].clear();
        self.pending_accepts[v] = 0;
        for links in &mut self.outgoing {
            links.remove(&v);
        }
        for links in &mut self.incoming {
            links.remove(&v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(bits: u32, payload: &[u8]) -> Frame {
        Frame {
            declared_bits: bits,
            payload: payload.to_vec(),
        }
    }

    fn drive_round(transport: &mut dyn Transport) -> Vec<Vec<(usize, Frame)>> {
        transport.begin_round(&RoundLimits {
            cap: Some(BandwidthCap::new(16)),
            policy: SendPolicy::Strict,
            model: "test",
        });
        // Deliberately out of sender order: 2 before 0.
        transport.send(2, 1, frame(8, &[0xAA])).unwrap();
        transport.send(0, 1, frame(4, &[0x01])).unwrap();
        transport.send(0, 1, frame(5, &[0x02])).unwrap();
        transport.send(1, 0, frame(16, &[0x10, 0x20])).unwrap();
        transport.finish_round().unwrap()
    }

    fn expected_inboxes() -> Vec<Vec<(usize, Frame)>> {
        vec![
            vec![(1, frame(16, &[0x10, 0x20]))],
            vec![
                (0, frame(4, &[0x01])),
                (0, frame(5, &[0x02])),
                (2, frame(8, &[0xAA])),
            ],
            vec![],
        ]
    }

    #[test]
    fn all_tiers_deliver_sorted_by_sender_with_link_fifo() {
        for spec in TransportSpec::all() {
            let mut transport = spec.build(3);
            assert_eq!(
                drive_round(transport.as_mut()),
                expected_inboxes(),
                "{spec}"
            );
            // Tier-independent counters agree across tiers.
            let stats = transport.stats();
            assert_eq!(stats.frames, 4, "{spec}");
            assert_eq!(stats.payload_bytes, 5, "{spec}");
            assert_eq!(stats.packets, 4, "{spec}");
        }
    }

    #[test]
    fn empty_rounds_and_multiple_rounds_work() {
        for spec in TransportSpec::all() {
            let mut transport = spec.build(2);
            for round in 0..3 {
                transport.begin_round(&RoundLimits::default());
                if round == 1 {
                    transport.send(0, 1, frame(3, &[round])).unwrap();
                }
                let inboxes = transport.finish_round().unwrap();
                if round == 1 {
                    assert_eq!(inboxes[1], vec![(0, frame(3, &[1]))], "{spec}");
                } else {
                    assert!(inboxes.iter().all(Vec::is_empty), "{spec}");
                }
            }
        }
    }

    #[test]
    fn strict_cap_violation_raises_the_same_budget_violation_on_every_tier() {
        for spec in TransportSpec::all() {
            let mut transport = spec.build(2);
            transport.begin_round(&RoundLimits {
                cap: Some(BandwidthCap::new(8)),
                policy: SendPolicy::Strict,
                model: "CONGEST",
            });
            let violation = crate::test_util::expect_budget_violation(|| {
                let _ = transport.send(0, 1, frame(9, &[0xFF, 0x01]));
            });
            assert_eq!(
                violation,
                crate::BudgetViolation::Bandwidth {
                    model: "CONGEST",
                    bits: 9,
                    cap: 8
                },
                "{spec}"
            );
        }
    }

    #[test]
    fn fragment_policy_ships_oversized_frames_and_meters_packets() {
        for spec in [TransportSpec::Channel, TransportSpec::Tcp] {
            let mut transport = spec.build(2);
            transport.begin_round(&RoundLimits {
                cap: Some(BandwidthCap::new(8)),
                policy: SendPolicy::Fragment,
                model: "CONGEST",
            });
            // 24 declared bits at an 8-bit cap: 3 logical fragments; the
            // 3-byte payload at a 1-byte MTU: 3 physical packets.
            transport.send(0, 1, frame(24, &[1, 2, 3])).unwrap();
            let inboxes = transport.finish_round().unwrap();
            assert_eq!(inboxes[1], vec![(0, frame(24, &[1, 2, 3]))], "{spec}");
            assert_eq!(transport.stats().packets, 3, "{spec}");
        }
    }

    #[test]
    fn tcp_closed_endpoint_errors_instead_of_hanging() {
        let mut transport = TcpTransport::new(3);
        transport.begin_round(&RoundLimits::default());
        transport.send(0, 1, frame(1, &[0])).unwrap();
        let _ = transport.finish_round().unwrap();
        transport.close_endpoint(1);
        transport.begin_round(&RoundLimits::default());
        // Sending to the closed endpoint fails fast and typed.
        let err = transport.send(0, 1, frame(1, &[0])).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Disconnected { from: 0, to: 1, .. }
        ));
        // Sending from the closed endpoint fails too.
        let err = transport.send(1, 2, frame(1, &[0])).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { .. }));
        // A fresh dial to the dropped listener is refused, not hung.
        let mut other = TcpTransport::new(2);
        other.begin_round(&RoundLimits::default());
        other.addrs[1] = transport.addrs[1];
        let err = other.send(0, 1, frame(1, &[0])).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { .. }), "{err}");
    }

    #[test]
    fn frame_reader_handles_arbitrary_split_boundaries() {
        let mut bytes = Vec::new();
        encode_frame(FrameKind::Data, 7, 12, &[1, 2, 3, 4], &mut bytes);
        encode_frame(FrameKind::EndRound, 7, 0, &[], &mut bytes);
        for split in 0..=bytes.len() {
            let mut reader = FrameReader::new();
            reader.push(&bytes[..split]);
            let mut frames = Vec::new();
            while let Some(f) = reader.next_frame().unwrap() {
                frames.push(f);
            }
            reader.push(&bytes[split..]);
            while let Some(f) = reader.next_frame().unwrap() {
                frames.push(f);
            }
            assert_eq!(frames.len(), 2, "split at {split}");
            assert_eq!(frames[0].kind, FrameKind::Data);
            assert_eq!(frames[0].sender, 7);
            assert_eq!(frames[0].declared_bits, 12);
            assert_eq!(frames[0].payload, vec![1, 2, 3, 4]);
            assert_eq!(frames[1].kind, FrameKind::EndRound);
            assert_eq!(reader.pending_bytes(), 0);
        }
    }

    #[test]
    fn frame_reader_rejects_corrupt_headers() {
        // Undersized length prefix.
        let mut reader = FrameReader::new();
        reader.push(&3u32.to_le_bytes());
        assert!(matches!(
            reader.next_frame(),
            Err(TransportError::Protocol { .. })
        ));
        // Unknown frame kind.
        let mut reader = FrameReader::new();
        let mut bytes = Vec::new();
        encode_frame(FrameKind::Data, 0, 0, &[], &mut bytes);
        bytes[4] = 99;
        reader.push(&bytes);
        assert!(matches!(
            reader.next_frame(),
            Err(TransportError::Protocol { .. })
        ));
        // Oversized length prefix.
        let mut reader = FrameReader::new();
        reader.push(&u32::MAX.to_le_bytes());
        assert!(matches!(
            reader.next_frame(),
            Err(TransportError::Protocol { .. })
        ));
    }

    #[test]
    fn spec_round_trips_names_and_default() {
        assert_eq!(TransportSpec::default(), TransportSpec::Local);
        for spec in TransportSpec::all() {
            assert_eq!(spec.to_string(), spec.name());
            assert_eq!(spec.build(2).name(), spec.name());
        }
    }

    #[test]
    fn transport_error_displays_and_sources() {
        let err = TransportError::Disconnected {
            from: 1,
            to: 2,
            detail: "gone".to_string(),
        };
        assert_eq!(err.to_string(), "transport link 1 -> 2 disconnected: gone");
        let err: Box<dyn std::error::Error> = Box::new(TransportError::Protocol {
            detail: "bad".to_string(),
        });
        assert_eq!(err.to_string(), "transport protocol violation: bad");
    }
}
