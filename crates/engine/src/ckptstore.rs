//! Durable checkpoint storage: the byte codec for [`EpochCheckpoint`]s,
//! the [`CheckpointBackend`] trait, and its three implementations —
//! in-memory (the test default), file-backed (atomic tmp+rename,
//! checksummed), and remote (the same bytes shipped over the supervised
//! TCP wire to a [`CheckpointServer`]).
//!
//! One byte format everywhere: a checkpoint serialises to a single
//! CRC-checked stream frame ([`netrec_types::wire::put_stream_frame`])
//! whose sequence number is the epoch — the identical frame is what sits
//! in a file on disk and what crosses the checkpoint-shipping socket, so
//! torn writes, truncated files, and corrupted transfers all fail with
//! the same loud [`WireError`] instead of decoding garbage. Writes go to
//! a temp file first and `rename` into place, so a crash mid-write never
//! leaves a half-valid epoch under the real name.
//!
//! Inside the frame, the epoch body is written in the checkpoint codec's
//! vocabulary (`checkpoint.rs`), like the peer blobs it carries: the blobs
//! as a sequence of byte strings, the nine counters of each peer's
//! [`PeerMetrics`] in declaration order, the event
//! count and the replay-ledger length. The only check here that is not a
//! format rule is the frame's own: kind, epoch and trailing bytes.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration as WallDuration;

use netrec_sim::{NetMetrics, PeerMetrics};
use netrec_types::wire::{self, StreamFrame, WireError};

use crate::checkpoint::{put_bytes, put_count, Field, Reader};
use crate::runner::EpochCheckpoint;

/// Frame kind of a serialised checkpoint (file format and PUT payload).
const K_CKPT: u8 = 0x20;
// Request/response kinds on the checkpoint-shipping wire.
const K_PUT: u8 = 0x21;
const K_GET: u8 = 0x22;
const K_LIST: u8 = 0x23;
const K_OK: u8 = 0x24;
const K_MISSING: u8 = 0x25;
const K_ERR: u8 = 0x26;

const IO_ERR: WireError = WireError::Corrupt("checkpoint store io error");

// --- Codec ----------------------------------------------------------------

/// Serialise one checkpoint into its canonical durable form: a single
/// CRC-checked stream frame keyed by the epoch, whose body is the peer
/// blobs, the per-peer metric counters, the event count and the ledger
/// length.
pub fn encode_checkpoint(epoch: u64, ck: &EpochCheckpoint) -> Vec<u8> {
    let mut body = Vec::new();
    put_count(&mut body, ck.peer_blobs.len());
    for blob in &ck.peer_blobs {
        put_bytes(&mut body, blob);
    }
    ck.metrics.per_peer.put(&mut body);
    ck.events.put(&mut body);
    (ck.ledger_len as u64).put(&mut body);
    let mut out = Vec::with_capacity(body.len() + 16);
    wire::put_stream_frame(&mut out, K_CKPT, epoch, &body);
    out
}

/// Decode and CRC-verify a checkpoint serialised by [`encode_checkpoint`].
/// Any truncation, bit flip, trailing garbage, or epoch mismatch is a loud
/// [`WireError`]; nothing half-decodes.
pub fn decode_checkpoint(epoch: u64, bytes: &[u8]) -> Result<EpochCheckpoint, WireError> {
    let (frame, used) = wire::get_stream_frame(bytes)?.ok_or(WireError::Truncated)?;
    if used != bytes.len() {
        return Err(WireError::Corrupt("trailing bytes after checkpoint frame"));
    }
    if frame.kind != K_CKPT {
        return Err(WireError::BadTag(frame.kind));
    }
    if frame.seq != epoch {
        return Err(WireError::Corrupt("checkpoint epoch mismatch"));
    }
    let mut r = Reader::new(&frame.payload, None);
    let peers = r.count()?;
    let peer_blobs = (0..peers)
        .map(|_| r.bytes().map(<[u8]>::to_vec))
        .collect::<Result<_, _>>()?;
    let ck = EpochCheckpoint {
        peer_blobs,
        metrics: NetMetrics { per_peer: r.get()? },
        events: r.get()?,
        ledger_len: r.get::<u64>()? as usize,
    };
    r.finish("trailing bytes in checkpoint body")?;
    Ok(ck)
}

/// The nine counters, in declaration order.
impl Field for PeerMetrics {
    fn put(&self, out: &mut Vec<u8>) {
        for v in [
            self.msgs_sent,
            self.bytes_sent,
            self.prov_bytes_sent,
            self.tuples_sent,
            self.msgs_recv,
            self.bytes_recv,
            self.envelopes_sent,
            self.envelope_bytes_sent,
            self.envelopes_recv,
        ] {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<PeerMetrics, WireError> {
        Ok(PeerMetrics {
            msgs_sent: r.get()?,
            bytes_sent: r.get()?,
            prov_bytes_sent: r.get()?,
            tuples_sent: r.get()?,
            msgs_recv: r.get()?,
            bytes_recv: r.get()?,
            envelopes_sent: r.get()?,
            envelope_bytes_sent: r.get()?,
            envelopes_recv: r.get()?,
        })
    }
}

// --- Backend trait --------------------------------------------------------

/// A durable home for encoded checkpoints, keyed by epoch. Implementations
/// store the canonical frame bytes verbatim; decode/verify happens in
/// [`decode_checkpoint`] so every backend fails identically on corruption.
pub trait CheckpointBackend: Send {
    /// Store one epoch's encoded checkpoint (overwrites).
    fn put(&mut self, epoch: u64, bytes: &[u8]) -> Result<(), WireError>;
    /// Fetch one epoch's encoded checkpoint, `None` if absent. The read is
    /// checksum-verified: corrupted or truncated storage errors loudly.
    fn get(&self, epoch: u64) -> Result<Option<Vec<u8>>, WireError>;
    /// Epochs present, ascending.
    fn epochs(&self) -> Result<Vec<u64>, WireError>;
}

/// Verify that `bytes` parse as exactly one intact stream frame (CRC
/// checked), without decoding the checkpoint body.
fn verify_frame(bytes: &[u8]) -> Result<(), WireError> {
    let (_, used) = wire::get_stream_frame(bytes)?.ok_or(WireError::Truncated)?;
    if used != bytes.len() {
        return Err(WireError::Corrupt("trailing bytes after checkpoint frame"));
    }
    Ok(())
}

/// In-memory backend: the test default, and the reference the durable
/// backends are pinned against.
#[derive(Default)]
pub struct MemoryBackend {
    by_epoch: BTreeMap<u64, Vec<u8>>,
}

impl CheckpointBackend for MemoryBackend {
    fn put(&mut self, epoch: u64, bytes: &[u8]) -> Result<(), WireError> {
        self.by_epoch.insert(epoch, bytes.to_vec());
        Ok(())
    }

    fn get(&self, epoch: u64) -> Result<Option<Vec<u8>>, WireError> {
        match self.by_epoch.get(&epoch) {
            None => Ok(None),
            Some(bytes) => {
                verify_frame(bytes)?;
                Ok(Some(bytes.clone()))
            }
        }
    }

    fn epochs(&self) -> Result<Vec<u64>, WireError> {
        Ok(self.by_epoch.keys().copied().collect())
    }
}

/// File-backed backend: one `epoch-<n>.ckpt` per epoch in a directory.
/// Writes are atomic (temp file + `rename`), reads are CRC-verified; a
/// corrupt or truncated file is a loud [`WireError`], never silent
/// garbage.
pub struct FileBackend {
    dir: PathBuf,
}

impl FileBackend {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileBackend, WireError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|_| IO_ERR)?;
        Ok(FileBackend { dir })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("epoch-{epoch}.ckpt"))
    }
}

impl CheckpointBackend for FileBackend {
    fn put(&mut self, epoch: u64, bytes: &[u8]) -> Result<(), WireError> {
        // Atomic publish: a crash between write and rename leaves only the
        // temp file; the epoch name either holds the complete old bytes or
        // the complete new ones.
        let tmp = self.dir.join(format!("epoch-{epoch}.tmp"));
        let run = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, self.path_of(epoch))
        };
        run().map_err(|_| IO_ERR)
    }

    fn get(&self, epoch: u64) -> Result<Option<Vec<u8>>, WireError> {
        let bytes = match std::fs::read(self.path_of(epoch)) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(_) => return Err(IO_ERR),
        };
        verify_frame(&bytes)?;
        Ok(Some(bytes))
    }

    fn epochs(&self) -> Result<Vec<u64>, WireError> {
        let mut epochs = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(|_| IO_ERR)? {
            let name = entry.map_err(|_| IO_ERR)?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("epoch-")
                .and_then(|r| r.strip_suffix(".ckpt"))
            {
                if let Ok(e) = num.parse::<u64>() {
                    epochs.push(e);
                }
            }
        }
        epochs.sort_unstable();
        Ok(epochs)
    }
}

// --- Over-the-wire shipping -----------------------------------------------

/// A checkpoint-shipping server: accepts loopback-TCP connections and
/// serves PUT/GET/LIST over the same CRC-checked stream frames the shard
/// transport uses, against any [`CheckpointBackend`] (typically a
/// [`FileBackend`] — the durable store on the far side of the wire).
///
/// One request frame per connection, one response frame back. The CRC
/// means a torn request or a corrupted checkpoint payload is rejected
/// loudly before it ever reaches the backend.
pub struct CheckpointServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

const POLL: WallDuration = WallDuration::from_millis(1);

impl CheckpointServer {
    /// Bind a loopback listener and serve `backend` until
    /// [`CheckpointServer::shutdown`] (or drop).
    pub fn serve(mut backend: Box<dyn CheckpointBackend>) -> std::io::Result<CheckpointServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || loop {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((sock, _)) => serve_one(sock, &mut *backend, &flag),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(_) => return,
            }
        });
        Ok(CheckpointServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address clients ([`RemoteBackend::connect`]) dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CheckpointServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read exactly one stream frame from `sock` (bounded by `stop`).
fn read_frame(sock: &mut TcpStream, stop: &AtomicBool) -> Option<StreamFrame> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    sock.set_read_timeout(Some(POLL)).ok()?;
    loop {
        match wire::get_stream_frame(&buf) {
            Ok(Some((frame, _))) => return Some(frame),
            Ok(None) => {}
            Err(_) => return None,
        }
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match sock.read(&mut chunk) {
            Ok(0) => return None,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

fn respond(sock: &mut TcpStream, kind: u8, seq: u64, payload: &[u8]) {
    let mut out = Vec::with_capacity(payload.len() + 16);
    wire::put_stream_frame(&mut out, kind, seq, payload);
    let _ = sock.write_all(&out);
}

fn serve_one(mut sock: TcpStream, backend: &mut dyn CheckpointBackend, stop: &AtomicBool) {
    let Some(req) = read_frame(&mut sock, stop) else {
        return;
    };
    match req.kind {
        K_PUT => {
            // The payload is itself a checkpoint frame; verify its CRC
            // before letting it near the durable store.
            let outcome =
                verify_frame(&req.payload).and_then(|()| backend.put(req.seq, &req.payload));
            match outcome {
                Ok(()) => respond(&mut sock, K_OK, req.seq, &[]),
                Err(_) => respond(&mut sock, K_ERR, req.seq, &[]),
            }
        }
        K_GET => match backend.get(req.seq) {
            Ok(Some(bytes)) => respond(&mut sock, K_OK, req.seq, &bytes),
            Ok(None) => respond(&mut sock, K_MISSING, req.seq, &[]),
            Err(_) => respond(&mut sock, K_ERR, req.seq, &[]),
        },
        K_LIST => match backend.epochs() {
            Ok(epochs) => {
                let mut payload = Vec::new();
                epochs.put(&mut payload);
                respond(&mut sock, K_OK, 0, &payload);
            }
            Err(_) => respond(&mut sock, K_ERR, 0, &[]),
        },
        _ => respond(&mut sock, K_ERR, 0, &[]),
    }
}

/// Client side of the checkpoint-shipping wire: a [`CheckpointBackend`]
/// whose storage is a [`CheckpointServer`] across a socket. One connection
/// per operation; responses are CRC-checked like everything else.
pub struct RemoteBackend {
    addr: SocketAddr,
    stop: AtomicBool,
}

impl RemoteBackend {
    /// A client for the server at `addr`.
    pub fn connect(addr: SocketAddr) -> RemoteBackend {
        RemoteBackend {
            addr,
            stop: AtomicBool::new(false),
        }
    }

    fn request(&self, kind: u8, seq: u64, payload: &[u8]) -> Result<StreamFrame, WireError> {
        let mut sock = TcpStream::connect(self.addr).map_err(|_| IO_ERR)?;
        let mut out = Vec::with_capacity(payload.len() + 16);
        wire::put_stream_frame(&mut out, kind, seq, payload);
        sock.write_all(&out).map_err(|_| IO_ERR)?;
        let resp = read_frame(&mut sock, &self.stop).ok_or(IO_ERR)?;
        if resp.kind == K_ERR {
            return Err(WireError::Corrupt("checkpoint server rejected request"));
        }
        Ok(resp)
    }
}

impl CheckpointBackend for RemoteBackend {
    fn put(&mut self, epoch: u64, bytes: &[u8]) -> Result<(), WireError> {
        let resp = self.request(K_PUT, epoch, bytes)?;
        if resp.kind != K_OK {
            return Err(WireError::Corrupt("unexpected checkpoint PUT response"));
        }
        Ok(())
    }

    fn get(&self, epoch: u64) -> Result<Option<Vec<u8>>, WireError> {
        let resp = self.request(K_GET, epoch, &[])?;
        match resp.kind {
            K_OK => {
                verify_frame(&resp.payload)?;
                Ok(Some(resp.payload))
            }
            K_MISSING => Ok(None),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn epochs(&self) -> Result<Vec<u64>, WireError> {
        let resp = self.request(K_LIST, 0, &[])?;
        if resp.kind != K_OK {
            return Err(WireError::BadTag(resp.kind));
        }
        Reader::new(&resp.payload, None).get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_sim::PeerId;

    fn sample(epoch: u64) -> EpochCheckpoint {
        let mut metrics = NetMetrics::new(3);
        metrics.record_send(
            PeerId(0),
            PeerId(2),
            netrec_sim::MsgMeta {
                bytes: 40,
                prov_bytes: 11,
                tuples: 2,
            },
        );
        EpochCheckpoint {
            peer_blobs: vec![vec![1, 2, 3], vec![], vec![0xFF; 70 + epoch as usize]],
            metrics,
            events: 1234 + epoch,
            ledger_len: 7,
        }
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let ck = sample(4);
        let bytes = encode_checkpoint(4, &ck);
        let back = decode_checkpoint(4, &bytes).expect("decode");
        assert_eq!(back, ck);
        // Wrong epoch fails loudly.
        assert!(decode_checkpoint(5, &bytes).is_err());
    }

    #[test]
    fn corrupt_or_truncated_checkpoint_fails_loudly() {
        let bytes = encode_checkpoint(1, &sample(1));
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint(1, &bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_checkpoint(1, &bad).is_err(), "flip at {i} decoded");
        }
    }

    #[test]
    fn file_backend_round_trips_atomically_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "netrec-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fb = FileBackend::open(&dir).expect("open");
        assert_eq!(fb.epochs().unwrap(), Vec::<u64>::new());
        for epoch in [0u64, 2, 5] {
            let bytes = encode_checkpoint(epoch, &sample(epoch));
            fb.put(epoch, &bytes).expect("put");
            let back = fb.get(epoch).expect("get").expect("present");
            assert_eq!(back, bytes, "durable bytes must be verbatim");
            assert_eq!(decode_checkpoint(epoch, &back).unwrap(), sample(epoch));
        }
        assert_eq!(fb.epochs().unwrap(), vec![0, 2, 5]);
        assert!(fb.get(1).expect("absent is not an error").is_none());
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "unpublished temp files: {leftovers:?}"
        );
        // Truncate one file: the read itself fails loudly.
        let victim = dir.join("epoch-2.ckpt");
        let full = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &full[..full.len() / 2]).unwrap();
        assert!(fb.get(2).is_err(), "truncated file must not read back");
        // Flip a byte in another: CRC rejects.
        let victim = dir.join("epoch-5.ckpt");
        let mut full = std::fs::read(&victim).unwrap();
        let mid = full.len() / 2;
        full[mid] ^= 0x40;
        std::fs::write(&victim, &full).unwrap();
        assert!(fb.get(5).is_err(), "corrupt file must not read back");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remote_backend_ships_checkpoints_over_the_wire() {
        let mut server =
            CheckpointServer::serve(Box::<MemoryBackend>::default()).expect("bind server");
        let mut remote = RemoteBackend::connect(server.addr());
        assert_eq!(remote.epochs().unwrap(), Vec::<u64>::new());
        let ck = sample(3);
        let bytes = encode_checkpoint(3, &ck);
        remote.put(3, &bytes).expect("put over wire");
        let back = remote.get(3).expect("get over wire").expect("present");
        assert_eq!(back, bytes, "wire round-trip must be byte-identical");
        assert_eq!(decode_checkpoint(3, &back).unwrap(), ck);
        assert_eq!(remote.epochs().unwrap(), vec![3]);
        assert!(remote.get(9).expect("absent is not an error").is_none());
        // A corrupted PUT payload is rejected before reaching the store.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(remote.put(4, &bad).is_err(), "corrupt PUT must be refused");
        assert_eq!(remote.epochs().unwrap(), vec![3]);
        server.shutdown();
        assert!(remote.get(3).is_err(), "dead server errors loudly");
    }
}
