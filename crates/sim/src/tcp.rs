//! Supervised TCP transport for the sharded runtime: the real socket at
//! the cross-shard seam.
//!
//! In [`TransportKind::Tcp`](crate::sharded::TransportKind) mode, every
//! cross-shard envelope leaves its executor exactly as in channel mode —
//! coalesced per quantum, one global in-flight count registered before the
//! producing quantum retires — but instead of going straight into the
//! destination shard's ingress channel it rides a **length-framed,
//! CRC-checked TCP connection** between the two shards
//! ([`netrec_types::wire::put_stream_frame`]), and the receive handler
//! makes the ingress send. One directed connection per ordered shard pair;
//! on a real deployment each shard is a box and the loopback listener
//! becomes its service address.
//!
//! TCP gives FIFO bytes *per connection*; the engine protocol needs
//! exactly-once FIFO *per channel across connection deaths*. The gap is
//! closed by a per-link **connection supervisor**:
//!
//! * **Link state machine** — `Connecting → Established → Degraded →
//!   Reconnecting`. A link is *Degraded* while acks have stopped but the
//!   heartbeat verdict is still out; a heartbeat timeout or socket error
//!   moves it to *Reconnecting*, which retries with exponential backoff
//!   plus seeded jitter and re-enters *Established* on success.
//! * **Send ledger** — every data frame keeps its encoded bytes under its
//!   transport sequence number until the receiver's cumulative ack passes
//!   it. A reconnect replays the whole unacked tail in order
//!   ([`FaultStats::retransmits`]).
//! * **Sequence dedup** — the receiver tracks the next expected sequence
//!   per link and discards anything below it (a retransmit of a frame that
//!   did arrive before the connection died), acking again so the sender's
//!   ledger can drain. Together with in-order replay this preserves the
//!   exactly-once per-channel FIFO contract across any number of
//!   connection deaths.
//! * **Heartbeats** — the sender emits heartbeat frames on an idle link
//!   and expects *some* inbound frame (ack or heartbeat-ack) within the
//!   timeout; silence is a failure verdict ([`FaultStats::heartbeat_timeouts`])
//!   and tears the connection down for the reconnect path to rebuild.
//!
//! Socket-level faults come from the same seeded [`FaultPlan`] as every
//! other fault class: [`FaultPlan::socket_decide`] kills connections
//! around (or *inside* — the torn-frame case, caught by the stream CRC)
//! chosen data frames, and [`FaultPlan::accept_stall`] makes the accept
//! side sit on a reconnect handshake long enough for the heartbeat
//! detector to fire. All of it is timing-only end to end: the faulted
//! fixpoint must be byte-identical to the clean one, which is exactly what
//! the `tcp_fault` integration suite pins.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as WallDuration, Instant};

use netrec_types::wire::{get_stream_frame, get_varint, put_stream_frame, put_varint, WireError};
use parking_lot::Mutex;

use crate::async_rt::{Ingress, ShardMap};
use crate::coalesce::FrameBody;
use crate::fault::{FaultPlan, FaultStats};
use crate::metrics::MsgMeta;
use crate::net::{PeerId, Port};
use crate::substrate_common::Shared;

/// A message type that can cross a real wire. The sharded runtime requires
/// this of its message type only in TCP-transport mode conceptually, but
/// the bound lives on construction so one runtime type serves both modes.
///
/// Decoding takes the bytes and nothing else: a link holds no state a
/// message could be decoded *into*. Whatever a message carries that only
/// its addressee can build (for the engine, provenance annotations) stays
/// encoded inside the decoded message — checked here, because this is where
/// bytes from outside the program enter it, and an `Err` kills the
/// connection rather than a peer.
pub trait WireMsg: Sized + Send {
    /// Append the message's canonical encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode and validate one message. The buffer holds exactly one
    /// encoding.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;
}

/// Plain integers cross the wire as varints (the sim-level test message).
impl WireMsg for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<u64, WireError> {
        get_varint(buf)
    }
}

// Supervisor timing. All durations are wall-clock: the supervisor reacts
// to a real socket, not simulated time.

/// Idle-link heartbeat period.
const HEARTBEAT_INTERVAL: WallDuration = WallDuration::from_millis(5);
/// Declare the link dead after this long without any inbound frame (ack or
/// heartbeat-ack) while frames are outstanding.
const HEARTBEAT_TIMEOUT: WallDuration = WallDuration::from_millis(25);
/// First reconnect backoff; doubles per failed attempt.
const BACKOFF_BASE: WallDuration = WallDuration::from_micros(500);
/// Backoff ceiling.
const BACKOFF_MAX: WallDuration = WallDuration::from_millis(20);
/// Socket read poll used by the supervisor and the accept handlers; also
/// bounds teardown latency.
const READ_TIMEOUT: WallDuration = WallDuration::from_millis(1);

// What the supervisor loop assumes of those values. A link turns Degraded
// at half the timeout, so at least one heartbeat must go out before that.
const _: () = assert!(HEARTBEAT_TIMEOUT.as_micros() / 2 > HEARTBEAT_INTERVAL.as_micros());
// One loop turn blocks for up to one read poll, so a shorter heartbeat
// period could not be kept.
const _: () = assert!(HEARTBEAT_INTERVAL.as_micros() >= READ_TIMEOUT.as_micros());
const _: () = assert!(BACKOFF_BASE.as_micros() <= BACKOFF_MAX.as_micros());

/// Observable state of one directed link's supervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkState {
    /// First session bring-up: no connection yet.
    Connecting,
    /// Connection up, acks flowing.
    Established,
    /// Connection up but silent: frames outstanding and no inbound frame
    /// for over half the heartbeat timeout — the failure verdict is
    /// pending.
    Degraded,
    /// Connection declared dead; backoff-retrying.
    Reconnecting,
}

// Stream-frame kinds (the `kind` byte of `put_stream_frame`).
const K_HELLO: u8 = 0;
const K_DATA: u8 = 1;
const K_ACK: u8 = 2;
const K_HEARTBEAT: u8 = 3;

/// splitmix64, for backoff jitter (same mixer as the fault layer).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Directed link id: sending shard in the high half, receiving in the low.
fn link_id(from: u32, to: u32) -> u64 {
    u64::from(from) << 32 | u64::from(to)
}

// --- Envelope codec -------------------------------------------------------

/// A cross-shard envelope queued for a TCP link: global destination plus
/// the coalesced messages of one producing quantum bound for it (FIFO order
/// preserved). One envelope = one in-flight count, one data frame, however
/// many logical messages it carries.
pub(crate) struct Envelope<M> {
    pub(crate) to: PeerId,
    pub(crate) msgs: FrameBody<M>,
}

/// Encode one cross-shard envelope: global destination peer, logical
/// message count, then per message the port, the sender-computed size
/// metadata (shipped verbatim so receiver-side accounting and engine
/// behavior cannot depend on the physical encoding), and the
/// length-prefixed message bytes.
pub(crate) fn encode_envelope<M: WireMsg>(out: &mut Vec<u8>, to: PeerId, body: &FrameBody<M>) {
    put_varint(out, u64::from(to.0));
    let msgs = body.as_slice();
    put_varint(out, msgs.len() as u64);
    let mut scratch = Vec::new();
    for (port, msg, meta) in msgs {
        put_varint(out, u64::from(port.0));
        put_varint(out, meta.bytes as u64);
        put_varint(out, meta.prov_bytes as u64);
        put_varint(out, u64::from(meta.tuples));
        scratch.clear();
        msg.encode(&mut scratch);
        put_varint(out, scratch.len() as u64);
        out.extend_from_slice(&scratch);
    }
}

/// Decode one envelope. The buffer must hold exactly one encoding.
pub(crate) fn decode_envelope<M: WireMsg>(
    mut buf: &[u8],
) -> Result<(PeerId, FrameBody<M>), WireError> {
    let to = PeerId(
        u32::try_from(get_varint(&mut buf)?)
            .map_err(|_| WireError::Corrupt("peer id out of range"))?,
    );
    let count = get_varint(&mut buf)? as usize;
    if count > buf.len() {
        return Err(WireError::Truncated);
    }
    let mut msgs = Vec::with_capacity(count);
    for _ in 0..count {
        let port = Port(
            u16::try_from(get_varint(&mut buf)?)
                .map_err(|_| WireError::Corrupt("port out of range"))?,
        );
        let meta = MsgMeta {
            bytes: get_varint(&mut buf)? as usize,
            prov_bytes: get_varint(&mut buf)? as usize,
            tuples: u32::try_from(get_varint(&mut buf)?)
                .map_err(|_| WireError::Corrupt("tuple count out of range"))?,
        };
        let len = get_varint(&mut buf)? as usize;
        if buf.len() < len {
            return Err(WireError::Truncated);
        }
        let mut msg_bytes = &buf[..len];
        let msg = M::decode(&mut msg_bytes)?;
        if !msg_bytes.is_empty() {
            return Err(WireError::Corrupt("trailing bytes in message"));
        }
        buf = &buf[len..];
        msgs.push((port, msg, meta));
    }
    if !buf.is_empty() {
        return Err(WireError::Corrupt("trailing bytes in envelope"));
    }
    let body = match msgs.len() {
        1 => FrameBody::One(msgs.pop().expect("len checked")),
        _ => FrameBody::Many(msgs),
    };
    Ok((to, body))
}

// --- Transport ------------------------------------------------------------

/// Per sending shard, the per-destination-shard envelope queues into the
/// supervised transport (`None` on the diagonal): what the executors' route
/// tables take.
pub(crate) type LinkQueues<M> = Vec<Vec<Option<Sender<Envelope<M>>>>>;

/// The live TCP transport of one sharded session: per-shard listeners and
/// per-directed-link supervisor threads. Owned by the `ShardedRuntime`;
/// torn down from `freeze_shards`.
pub(crate) struct TcpTransport {
    threads: Vec<JoinHandle<()>>,
    stats: Arc<Mutex<FaultStats>>,
    link_states: Arc<Mutex<Vec<LinkState>>>,
}

impl TcpTransport {
    /// Bind one loopback listener per shard (`ingress` holds one delivery
    /// handle per shard), spawn the accept side, and spawn one supervisor
    /// per directed shard pair, returning the queues that feed them.
    pub(crate) fn new<M: WireMsg + 'static>(
        plan: Option<FaultPlan>,
        map: Arc<ShardMap>,
        ingress: &[Ingress<M>],
        shared: Arc<Shared>,
    ) -> std::io::Result<(TcpTransport, LinkQueues<M>)> {
        let n = ingress.len();
        let stats = Arc::new(Mutex::new(FaultStats::default()));
        let link_states = Arc::new(Mutex::new(vec![LinkState::Connecting; n * n]));
        let mut threads = Vec::new();

        // Accept side: one listener (and accept thread) per shard; every
        // inbound connection gets its own handler thread. Receive-side
        // dedup state is per *link*, shared by however many handler
        // generations that link goes through.
        let mut addrs = Vec::with_capacity(n);
        for (to_shard, ingress) in ingress.iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let recv: RecvCursors = Arc::new((0..n).map(|_| Mutex::new(0)).collect());
            let acceptor = Acceptor {
                listener,
                to_shard: to_shard as u32,
                recv,
                map: Arc::clone(&map),
                ingress: ingress.clone(),
                shared: Arc::clone(&shared),
                plan,
            };
            threads.push(std::thread::spawn(move || acceptor.run()));
        }

        // Send side: one supervisor per directed pair.
        let mut queues: LinkQueues<M> = Vec::with_capacity(n);
        for from_shard in 0..n {
            let mut row: Vec<Option<Sender<Envelope<M>>>> = Vec::with_capacity(n);
            for (to_shard, &addr) in addrs.iter().enumerate() {
                if to_shard == from_shard {
                    row.push(None);
                    continue;
                }
                let (tx, rx) = channel::<Envelope<M>>();
                let sup = Supervisor {
                    rx,
                    addr,
                    link: link_id(from_shard as u32, to_shard as u32),
                    state_slot: from_shard * n + to_shard,
                    plan,
                    shared: Arc::clone(&shared),
                    stats: Arc::clone(&stats),
                    link_states: Arc::clone(&link_states),
                };
                threads.push(std::thread::spawn(move || sup.run()));
                row.push(Some(tx));
            }
            queues.push(row);
        }

        let transport = TcpTransport {
            threads,
            stats,
            link_states,
        };
        Ok((transport, queues))
    }

    /// Supervision counters accumulated so far.
    pub(crate) fn stats(&self) -> FaultStats {
        *self.stats.lock()
    }

    /// Snapshot of every directed link's supervisor state (row-major by
    /// sending shard; the diagonal stays `Connecting` forever).
    pub(crate) fn link_states(&self) -> Vec<LinkState> {
        self.link_states.lock().clone()
    }

    /// Join every transport thread. The caller must already have set the
    /// shared teardown flag — every loop polls it within [`READ_TIMEOUT`].
    pub(crate) fn shutdown(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// --- Receive side ---------------------------------------------------------

/// Per-link receive state, one per sending shard: the next expected data
/// sequence (everything below arrived already). Shared by however many
/// handler generations the link goes through.
type RecvCursors = Arc<Vec<Mutex<u64>>>;

struct Acceptor<M: WireMsg> {
    listener: TcpListener,
    to_shard: u32,
    recv: RecvCursors,
    map: Arc<ShardMap>,
    ingress: Ingress<M>,
    shared: Arc<Shared>,
    plan: Option<FaultPlan>,
}

impl<M: WireMsg + 'static> Acceptor<M> {
    fn run(self) {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((sock, _)) => {
                    let h = Handler {
                        sock,
                        to_shard: self.to_shard,
                        recv: Arc::clone(&self.recv),
                        map: Arc::clone(&self.map),
                        ingress: self.ingress.clone(),
                        shared: Arc::clone(&self.shared),
                        plan: self.plan,
                    };
                    handlers.push(std::thread::spawn(move || h.run()));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(READ_TIMEOUT);
                }
                Err(_) => break,
            }
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// One accepted connection: reads frames, dedups data by sequence under
/// the link lock (dedup and delivery are atomic, so FIFO survives handler
/// overlap during reconnects), hands them to the destination shard's
/// ingress, and writes cumulative acks back on the same socket.
struct Handler<M: WireMsg> {
    sock: TcpStream,
    to_shard: u32,
    recv: RecvCursors,
    map: Arc<ShardMap>,
    ingress: Ingress<M>,
    shared: Arc<Shared>,
    plan: Option<FaultPlan>,
}

impl<M: WireMsg> Handler<M> {
    fn run(mut self) {
        if self.sock.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
            return;
        }
        let _ = self.sock.set_nodelay(true);
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        // Peer identity arrives in the HELLO frame; data before it is a
        // protocol error and kills the connection.
        let mut from_shard: Option<usize> = None;
        'conn: loop {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            match self.sock.read(&mut chunk) {
                Ok(0) => return, // peer closed
                Ok(k) => buf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue;
                }
                Err(_) => return,
            }
            // Drain every complete frame in the buffer.
            loop {
                match get_stream_frame(&buf) {
                    Ok(None) => break,
                    Ok(Some((frame, used))) => {
                        buf.drain(..used);
                        if !self.on_frame(frame, &mut from_shard) {
                            let _ = self.sock.shutdown(Shutdown::Both);
                            break 'conn;
                        }
                    }
                    Err(_) => {
                        // Torn or corrupted frame: fail loudly by killing
                        // the connection — the supervisor reconnects and
                        // retransmits from its ledger.
                        let _ = self.sock.shutdown(Shutdown::Both);
                        break 'conn;
                    }
                }
            }
        }
    }

    /// Process one verified frame; false ⇒ kill the connection.
    fn on_frame(
        &mut self,
        frame: netrec_types::wire::StreamFrame,
        from_shard: &mut Option<usize>,
    ) -> bool {
        match frame.kind {
            K_HELLO => {
                let mut p = frame.payload.as_slice();
                let (Ok(from), Ok(attempt)) = (get_varint(&mut p), get_varint(&mut p)) else {
                    return false;
                };
                let from = from as usize;
                if from >= self.recv.len() {
                    return false;
                }
                *from_shard = Some(from);
                // Seeded accept stall: sit on the handshake of a reconnect
                // long enough for the sender's heartbeat verdict to fire.
                if let Some(stall_us) = self
                    .plan
                    .and_then(|pl| pl.accept_stall(link_id(from as u32, self.to_shard), attempt))
                {
                    let deadline = Instant::now() + WallDuration::from_micros(stall_us);
                    while Instant::now() < deadline {
                        if self.shared.shutting_down.load(Ordering::SeqCst) {
                            return false;
                        }
                        std::thread::sleep(READ_TIMEOUT);
                    }
                }
                true
            }
            K_DATA => {
                let Some(from) = *from_shard else {
                    return false;
                };
                let mut expected = self.recv[from].lock();
                if frame.seq > *expected {
                    // A gap can only mean protocol corruption (the sender
                    // replays its ledger in order from below the ack
                    // cursor): kill the connection.
                    return false;
                }
                if frame.seq == *expected {
                    // An id off the wire is checked like every other field:
                    // out of range, or a peer another shard hosts, is a
                    // protocol error. Otherwise this is the one ingress
                    // send, never waiting, so acks and heartbeat replies
                    // are never delayed behind a busy executor; the
                    // envelope's in-flight count — registered by the
                    // sending executor — rides along and is retired by the
                    // receiving quantum. Acked only after the hand-off.
                    match decode_envelope::<M>(&frame.payload) {
                        Ok((to, body)) if self.map.shard_of(to) == Some(self.to_shard) => {
                            self.ingress.deliver(to, body);
                            *expected += 1;
                        }
                        _ => return false,
                    }
                }
                // Duplicate (seq < expected) falls through: drop, re-ack.
                let ack = *expected;
                drop(expected);
                self.send_ack(ack)
            }
            K_HEARTBEAT => {
                let Some(from) = *from_shard else {
                    return false;
                };
                let expected = *self.recv[from].lock();
                self.send_ack(expected)
            }
            _ => false,
        }
    }

    fn send_ack(&mut self, expected: u64) -> bool {
        let mut out = Vec::with_capacity(16);
        put_stream_frame(&mut out, K_ACK, expected, &[]);
        self.sock.write_all(&out).is_ok()
    }
}

// --- Send side ------------------------------------------------------------

/// One unacked ledger entry: the encoded data frame, replayable verbatim.
struct LedgerEntry {
    seq: u64,
    frame: Vec<u8>,
}

struct Supervisor<M: WireMsg> {
    rx: Receiver<Envelope<M>>,
    addr: SocketAddr,
    link: u64,
    state_slot: usize,
    plan: Option<FaultPlan>,
    shared: Arc<Shared>,
    stats: Arc<Mutex<FaultStats>>,
    link_states: Arc<Mutex<Vec<LinkState>>>,
}

/// What one supervisor carries from one turn of its loop to the next: the
/// connection, and everything that has to outlive a connection's death.
struct Session {
    conn: Option<TcpStream>,
    ledger: VecDeque<LedgerEntry>,
    next_seq: u64,
    /// Wire-write counter for socket fault decisions: unlike `next_seq`
    /// it advances on retransmits too, so a "kill" verdict on one write
    /// does not re-fire forever on the same ledger entry.
    wire_writes: u64,
    attempt: u64,
    /// Consecutive failed connect attempts since the link was last up:
    /// drives the exponential backoff, and resets on success so a
    /// healthy link that dies recovers at the base delay instead of
    /// whatever ceiling an earlier outage climbed to.
    fails: u64,
    established_once: bool,
    next_attempt_at: Instant,
    next_hb: Instant,
    last_inbound: Instant,
    acked: u64,
    read_buf: Vec<u8>,
}

impl<M: WireMsg> Supervisor<M> {
    fn run(self) {
        let mut s = Session {
            conn: None,
            ledger: VecDeque::new(),
            next_seq: 0,
            wire_writes: 0,
            attempt: 0,
            fails: 0,
            established_once: false,
            next_attempt_at: Instant::now(),
            next_hb: Instant::now() + HEARTBEAT_INTERVAL,
            last_inbound: Instant::now(),
            acked: 0,
            read_buf: Vec::new(),
        };
        let mut chunk = [0u8; 16 * 1024];

        loop {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                // Teardown truncation: envelopes still queued were never
                // written anywhere — retire their global counts, exactly
                // like the channel transport's drop-on-teardown.
                while self.rx.try_recv().is_ok() {
                    self.shared.retire_one();
                }
                if let Some(c) = s.conn.take() {
                    let _ = c.shutdown(Shutdown::Both);
                }
                return;
            }

            // (Re)connect when down.
            if s.conn.is_none() && Instant::now() >= s.next_attempt_at {
                match self.connect(s.attempt) {
                    Ok(sock) => {
                        if s.established_once {
                            self.stats.lock().reconnects += 1;
                        }
                        s.established_once = true;
                        s.attempt += 1;
                        s.fails = 0;
                        s.conn = Some(sock);
                        s.last_inbound = Instant::now();
                        s.next_hb = Instant::now() + HEARTBEAT_INTERVAL;
                        self.set_state(LinkState::Established);
                        // Replay the unacked tail in order.
                        if !s.ledger.is_empty() {
                            self.stats.lock().retransmits += s.ledger.len() as u64;
                            let mut died = false;
                            for entry in &s.ledger {
                                if !self.write_data(
                                    s.conn.as_mut().expect("connected"),
                                    entry,
                                    &mut s.wire_writes,
                                ) {
                                    died = true;
                                    break;
                                }
                            }
                            if died {
                                self.kill(&mut s);
                            }
                        }
                    }
                    Err(_) => {
                        s.attempt += 1;
                        s.fails += 1;
                        s.next_attempt_at = Instant::now() + self.backoff(s.fails);
                        self.set_state(LinkState::Reconnecting);
                    }
                }
            }

            // Drain new envelopes: encode, ledger, write if connected.
            let mut wrote = false;
            while let Ok(env) = self.rx.try_recv() {
                wrote |= self.enqueue(&mut s, env);
            }

            // Read acks / heartbeat-acks.
            if let Some(c) = s.conn.as_mut() {
                match c.read(&mut chunk) {
                    Ok(0) => self.kill(&mut s),
                    Ok(k) => {
                        s.read_buf.extend_from_slice(&chunk[..k]);
                        s.last_inbound = Instant::now();
                        if !Self::absorb_acks(&mut s) {
                            self.kill(&mut s);
                        }
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    }
                    Err(_) => self.kill(&mut s),
                }
            }

            if let Some(c) = s.conn.as_mut() {
                let now = Instant::now();
                // Heartbeat emission keeps an idle link observable.
                if now >= s.next_hb {
                    let mut out = Vec::with_capacity(16);
                    put_stream_frame(&mut out, K_HEARTBEAT, s.next_seq, &[]);
                    if c.write_all(&out).is_err() {
                        self.kill(&mut s);
                    } else {
                        s.next_hb = now + HEARTBEAT_INTERVAL;
                    }
                }
            }
            if s.conn.is_some() {
                // Failure detection: silence past the timeout is a verdict.
                let silent = s.last_inbound.elapsed();
                if silent >= HEARTBEAT_TIMEOUT {
                    self.stats.lock().heartbeat_timeouts += 1;
                    self.kill(&mut s);
                } else if silent >= HEARTBEAT_TIMEOUT / 2 && !s.ledger.is_empty() {
                    self.set_state(LinkState::Degraded);
                } else {
                    self.set_state(LinkState::Established);
                }
            }

            if !wrote {
                // Block briefly for new work; read polling resumes on wake.
                // Handled inline: re-queueing it for the next turn's drain
                // would lose its place in the order.
                if let Ok(env) = self.rx.recv_timeout(READ_TIMEOUT) {
                    self.enqueue(&mut s, env);
                }
            }
        }
    }

    /// Take one envelope off the queue: encode it into a data frame under
    /// the next sequence number, write it if the link is up (a failed write
    /// kills the connection), and ledger it either way. Returns whether it
    /// was written.
    fn enqueue(&self, s: &mut Session, env: Envelope<M>) -> bool {
        let mut payload = Vec::new();
        encode_envelope(&mut payload, env.to, &env.msgs);
        let mut frame = Vec::with_capacity(payload.len() + 16);
        put_stream_frame(&mut frame, K_DATA, s.next_seq, &payload);
        let entry = LedgerEntry {
            seq: s.next_seq,
            frame,
        };
        s.next_seq += 1;
        let mut wrote = false;
        if let Some(c) = s.conn.as_mut() {
            if !self.write_data(c, &entry, &mut s.wire_writes) {
                s.ledger.push_back(entry);
                self.kill(s);
                return false;
            }
            wrote = true;
        }
        s.ledger.push_back(entry);
        wrote
    }

    /// Establish one connection: TCP connect plus the HELLO frame naming
    /// this link and the attempt number (the accept side keys its seeded
    /// stall on it).
    fn connect(&self, attempt: u64) -> std::io::Result<TcpStream> {
        let sock = TcpStream::connect(self.addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut hello = Vec::with_capacity(24);
        let mut payload = Vec::with_capacity(12);
        put_varint(&mut payload, self.link >> 32);
        put_varint(&mut payload, attempt);
        put_stream_frame(&mut hello, K_HELLO, 0, &payload);
        let mut sock = sock;
        sock.write_all(&hello)?;
        Ok(sock)
    }

    /// Write one ledgered data frame, applying the seeded socket faults:
    /// a torn verdict writes only a proper prefix, a kill verdict writes
    /// the frame whole first. Returns false when the connection must die
    /// (fault-injected or real write error).
    fn write_data(&self, c: &mut TcpStream, entry: &LedgerEntry, wire_writes: &mut u64) -> bool {
        let w = *wire_writes;
        *wire_writes += 1;
        let fault = self
            .plan
            .filter(|p| p.socket_active())
            .map(|p| p.socket_decide(self.link, w))
            .unwrap_or_default();
        if fault.torn && entry.frame.len() >= 2 {
            // A proper nonempty prefix: the receiver sees a frame that can
            // never complete or verify, exactly what a mid-write
            // connection death produces.
            let cut = 1 + (mix(self.link ^ w) % (entry.frame.len() as u64 - 1)) as usize;
            let _ = c.write_all(&entry.frame[..cut]);
            return false;
        }
        if c.write_all(&entry.frame).is_err() {
            return false;
        }
        !fault.kill
    }

    /// Parse every complete ack frame in `read_buf`, advancing the
    /// cumulative watermark and trimming the ledger. Returns false on a
    /// corrupt frame — the connection must die.
    fn absorb_acks(s: &mut Session) -> bool {
        loop {
            match get_stream_frame(&s.read_buf) {
                Ok(None) => return true,
                Ok(Some((frame, used))) => {
                    s.read_buf.drain(..used);
                    if frame.kind == K_ACK && frame.seq > s.acked {
                        s.acked = frame.seq;
                        while s.ledger.front().is_some_and(|e| e.seq < s.acked) {
                            s.ledger.pop_front();
                        }
                    }
                }
                Err(_) => return false,
            }
        }
    }

    /// Declare the link dead. Before closing, drain any acks the peer
    /// already queued: the watermark is cumulative, so everything absorbed
    /// here is trimmed from the ledger and never replayed — every
    /// death/reconnect cycle makes strictly positive progress even when a
    /// fault plan kills each long replay midway (without the drain, the
    /// acks earned by a partial replay die with the socket and the ledger
    /// can grow faster than it drains). The dead connection's partial read
    /// state is discarded with it, so a stranded half-frame can never
    /// corrupt the next connection's ack stream.
    fn kill(&self, s: &mut Session) {
        if let Some(mut c) = s.conn.take() {
            let mut chunk = [0u8; 4096];
            for _ in 0..16 {
                match c.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(k) => {
                        s.read_buf.extend_from_slice(&chunk[..k]);
                        if !Self::absorb_acks(s) {
                            break;
                        }
                    }
                }
            }
            let _ = c.shutdown(Shutdown::Both);
        }
        s.read_buf.clear();
        s.next_attempt_at = Instant::now() + self.backoff(s.fails);
        self.set_state(LinkState::Reconnecting);
    }

    /// Exponential backoff with seeded jitter: base·2^fails clamped to
    /// the ceiling, scaled by a hash-derived factor in [0.5, 1.5). The
    /// exponent is the consecutive-failure count since the link was last
    /// up, so recovery after a one-off death starts at the base delay.
    fn backoff(&self, fails: u64) -> WallDuration {
        let exp = fails.min(16) as u32;
        let raw = BACKOFF_BASE
            .saturating_mul(2u32.saturating_pow(exp))
            .min(BACKOFF_MAX);
        let seed = self.plan.map_or(0, |p| p.seed);
        let jitter_pm = 500 + mix(seed ^ self.link ^ fails) % 1000; // 0.5–1.5×
        WallDuration::from_micros((raw.as_micros() as u64 * jitter_pm) / 1000)
    }

    fn set_state(&self, s: LinkState) {
        let mut states = self.link_states.lock();
        if states[self.state_slot] != s {
            states[self.state_slot] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_codec_round_trips_one_and_many() {
        let meta = |b: usize| MsgMeta {
            bytes: b,
            prov_bytes: b / 2,
            tuples: 2,
        };
        let one = FrameBody::One((Port(3), 42u64, meta(10)));
        let many = FrameBody::Many(vec![
            (Port(0), 7u64, meta(4)),
            (Port(9), u64::MAX, meta(0)),
            (Port(1), 0u64, MsgMeta::default()),
        ]);
        for (to, body) in [(PeerId(5), one), (PeerId(0), many)] {
            let mut buf = Vec::new();
            encode_envelope(&mut buf, to, &body);
            let (got_to, got) = decode_envelope::<u64>(&buf).unwrap();
            assert_eq!(got_to, to);
            assert_eq!(got.as_slice(), body.as_slice());
            // Variant shape is canonical: singletons decode to One.
            assert_eq!(matches!(got, FrameBody::One(_)), body.as_slice().len() == 1);
        }
    }

    #[test]
    fn envelope_decode_rejects_garbage_and_truncation() {
        let mut buf = Vec::new();
        encode_envelope(
            &mut buf,
            PeerId(1),
            &FrameBody::Many(vec![
                (Port(0), 11u64, MsgMeta::default()),
                (Port(1), 22u64, MsgMeta::default()),
            ]),
        );
        for cut in 0..buf.len() {
            assert!(
                decode_envelope::<u64>(&buf[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(decode_envelope::<u64>(&trailing).is_err());
    }

    /// A peer id read off the socket is checked in release builds too: one
    /// outside the peer set, or a peer another shard hosts, is a protocol
    /// error like any other bad frame — connection killed, frame not acked
    /// (the dedup cursor stays), nothing reaches an inbox.
    #[test]
    fn data_frame_for_a_peer_not_hosted_here_is_a_protocol_error() {
        use crate::substrate_common::Controller;
        use netrec_types::wire::StreamFrame;

        let ctl = Controller::new(0);
        let (ingress, inbox) = Ingress::<u64>::channel(&ctl.shared);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        // Two peers, one per shard; this handler serves shard 1.
        let mut handler = Handler {
            sock,
            to_shard: 1,
            recv: Arc::new((0..2).map(|_| Mutex::new(0)).collect()),
            map: Arc::new(ShardMap::new(vec![0, 1], 2)),
            ingress,
            shared: Arc::clone(&ctl.shared),
            plan: None,
        };
        let data_for = |to: u32| {
            let mut payload = Vec::new();
            let body = FrameBody::One((Port(0), 7u64, MsgMeta::default()));
            encode_envelope(&mut payload, PeerId(to), &body);
            StreamFrame {
                kind: K_DATA,
                seq: 0,
                payload,
            }
        };
        let mut from_shard = Some(0);
        for bad in [0, 2, u32::MAX] {
            assert!(
                !handler.on_frame(data_for(bad), &mut from_shard),
                "peer {bad}"
            );
            assert_eq!(*handler.recv[0].lock(), 0, "peer {bad} acked");
            assert!(inbox.try_recv().is_err(), "peer {bad} delivered");
        }
        assert!(handler.on_frame(data_for(1), &mut from_shard));
        assert_eq!(*handler.recv[0].lock(), 1);
        assert!(
            inbox.try_recv().is_ok(),
            "the hosted peer's envelope arrives"
        );
    }

    #[test]
    fn link_ids_are_directed() {
        assert_ne!(link_id(0, 1), link_id(1, 0));
        assert_eq!(link_id(2, 3) >> 32, 2);
        assert_eq!(link_id(2, 3) & 0xFFFF_FFFF, 3);
    }
}
