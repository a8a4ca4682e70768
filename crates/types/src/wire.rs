//! The netrec wire format.
//!
//! Every message that crosses the simulated network is encoded with these
//! routines, and the byte counts reported in `REPRODUCTION.md` are exactly
//! `buf.len()` of these encodings. The format is deliberately simple:
//!
//! ```text
//! value   := tag:u8 payload
//!            tag 0: Bool      payload = 1 byte
//!            tag 1: Int       payload = zigzag varint
//!            tag 2: Addr      payload = varint
//!            tag 3: Str       payload = varint len + utf8 bytes
//!            tag 4: List      payload = varint len + values
//! tuple   := varint arity + values
//! ```
//!
//! Varints are LEB128; signed integers are zigzag-coded. The encoding is
//! self-delimiting, so tuples can be concatenated into message bodies without
//! framing.
//!
//! The value-level `put_*`/`get_*` routines are `#[inline]`: other crates
//! call them per byte-sized field (the BDD codec three times per node), the
//! workspace builds without LTO, and a plain `pub fn` in another crate is an
//! out-of-line call.

use crate::tuple::Tuple;
use crate::value::{NetAddr, Value};

/// Error decoding a wire buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended mid-value.
    Truncated,
    /// Unknown value tag byte.
    BadTag(u8),
    /// String payload was not valid UTF-8.
    BadUtf8,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// Structurally invalid data: the bytes parse but violate an invariant
    /// of the encoded structure (bad index, duplicate key, trailing bytes).
    /// Checkpoint restore uses this to fail loudly instead of half-applying.
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire data"),
            WireError::BadTag(t) => write!(f, "unknown value tag {t}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string value"),
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::Corrupt(what) => write!(f, "corrupt wire data: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append an unsigned LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Pop one byte.
#[inline]
fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let (&b, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(b)
}

/// Read an unsigned LEB128 varint.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = get_u8(buf)?;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::VarintOverflow);
        }
    }
}

/// Read a varint that must fit 32 bits (a provenance variable, rule id,
/// timer id): a larger value is [`WireError::Corrupt`], never truncated.
#[inline]
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    u32::try_from(get_varint(buf)?).map_err(|_| WireError::Corrupt("value exceeds 32 bits"))
}

/// Number of bytes [`put_varint`] writes for `v`.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode one value.
#[inline]
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            buf.push(0);
            buf.push(u8::from(*b));
        }
        Value::Int(i) => {
            buf.push(1);
            put_varint(buf, zigzag(*i));
        }
        Value::Addr(a) => {
            buf.push(2);
            put_varint(buf, u64::from(a.0));
        }
        Value::Str(s) => {
            buf.push(3);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::List(items) => {
            buf.push(4);
            put_varint(buf, items.len() as u64);
            for item in items.iter() {
                put_value(buf, item);
            }
        }
    }
}

/// Decode one value.
#[inline]
pub fn get_value(buf: &mut &[u8]) -> Result<Value, WireError> {
    match get_u8(buf)? {
        0 => Ok(Value::Bool(get_u8(buf)? != 0)),
        1 => Ok(Value::Int(unzigzag(get_varint(buf)?))),
        2 => {
            let raw = get_varint(buf)?;
            Ok(Value::Addr(NetAddr(raw as u32)))
        }
        3 => {
            let len = get_varint(buf)? as usize;
            if buf.len() < len {
                return Err(WireError::Truncated);
            }
            let (bytes, rest) = buf.split_at(len);
            *buf = rest;
            let s = std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?;
            Ok(Value::str(s))
        }
        4 => {
            let len = get_varint(buf)? as usize;
            // Each element costs ≥ 1 byte; bound before allocating.
            if len > buf.len() {
                return Err(WireError::Truncated);
            }
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(get_value(buf)?);
            }
            Ok(Value::list(items))
        }
        t => Err(WireError::BadTag(t)),
    }
}

/// Byte length of one encoded value.
pub fn value_encoded_len(v: &Value) -> usize {
    match v {
        Value::Bool(_) => 2,
        Value::Int(i) => 1 + varint_len(zigzag(*i)),
        Value::Addr(a) => 1 + varint_len(u64::from(a.0)),
        Value::Str(s) => 1 + varint_len(s.len() as u64) + s.len(),
        Value::List(items) => {
            1 + varint_len(items.len() as u64) + items.iter().map(value_encoded_len).sum::<usize>()
        }
    }
}

/// Encode a tuple (arity prefix + values).
#[inline]
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_varint(buf, t.arity() as u64);
    for v in t.values() {
        put_value(buf, v);
    }
}

/// Decode a tuple.
#[inline]
pub fn get_tuple(buf: &mut &[u8]) -> Result<Tuple, WireError> {
    let arity = get_varint(buf)? as usize;
    if arity > buf.len() {
        return Err(WireError::Truncated);
    }
    let mut vals = Vec::with_capacity(arity);
    for _ in 0..arity {
        vals.push(get_value(buf)?);
    }
    Ok(Tuple::new(vals))
}

/// Byte length of one encoded tuple.
pub fn tuple_encoded_len(t: &Tuple) -> usize {
    varint_len(t.arity() as u64) + t.values().iter().map(value_encoded_len).sum::<usize>()
}

// --- Transport frames -----------------------------------------------------
//
// The runtime layer coalesces same-destination messages into one *frame*
// per scheduling quantum (see `netrec-sim::coalesce`). A frame of opaque
// payloads is encoded as:
//
// ```text
// frame   := payload                                  (exactly 1 payload)
//          | FRAME_TAG varint(count)
//            count × (varint(len) payload)            (0 or ≥ 2 payloads)
// ```
//
// A singleton frame *is* the bare payload — uncoalesced traffic costs not a
// single extra byte over the pre-frame encoding, which is what keeps the
// byte metrics of non-batching workloads unchanged. Multi-payload frames
// pay one header: the tag, the count, and a length prefix per payload
// (opaque payloads are not self-delimiting). Decoding is slice-based: the
// transport hands the decoder one whole frame, as a length-delimited socket
// read would.

/// First byte of a multi-payload frame. A singleton payload that happens
/// to begin with this byte is *escaped* by [`put_frame`] into the explicit
/// tagged form (count 1), so encode/decode stay exactly invertible for
/// arbitrary payloads; the engine's `Msg` encodings start with a value tag
/// (0–4) or a small framing varint and never hit the escape, which is why
/// [`frame_header_len`]'s zero-byte singleton accounting is exact for
/// them.
pub const FRAME_TAG: u8 = 0xF7;

/// Header bytes [`put_frame`] prepends for `payload_lens`: zero for a
/// singleton (degenerate — the frame is the payload; assumes the payload
/// does not begin with [`FRAME_TAG`], see its docs), otherwise the tag,
/// the count varint, and one length varint per payload.
pub fn frame_header_len(payload_lens: &[usize]) -> usize {
    if payload_lens.len() == 1 {
        return 0;
    }
    1 + varint_len(payload_lens.len() as u64)
        + payload_lens
            .iter()
            .map(|&l| varint_len(l as u64))
            .sum::<usize>()
}

/// Total encoded size of a frame over payloads of the given lengths:
/// header + Σ payload lengths.
pub fn frame_encoded_len(payload_lens: &[usize]) -> usize {
    frame_header_len(payload_lens) + payload_lens.iter().sum::<usize>()
}

/// Encode a frame of opaque payloads (see the frame grammar above). A
/// singleton payload beginning with [`FRAME_TAG`] takes the explicit
/// tagged form instead of the degenerate one, so decoding is never
/// ambiguous.
#[inline]
pub fn put_frame(buf: &mut Vec<u8>, payloads: &[&[u8]]) {
    if let [single] = payloads {
        if single.first() != Some(&FRAME_TAG) {
            buf.extend_from_slice(single);
            return;
        }
    }
    buf.push(FRAME_TAG);
    put_varint(buf, payloads.len() as u64);
    for p in payloads {
        put_varint(buf, p.len() as u64);
        buf.extend_from_slice(p);
    }
}

/// Decode one frame from a complete frame buffer, returning the payloads in
/// their original order. A buffer not starting with [`FRAME_TAG`] is a
/// singleton frame: the whole buffer is the one payload.
pub fn get_frame(frame: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
    if frame.first() != Some(&FRAME_TAG) {
        return Ok(vec![frame.to_vec()]);
    }
    let mut buf = &frame[1..];
    let count = get_varint(&mut buf)? as usize;
    if count > buf.len() {
        // Each payload costs ≥ 1 header byte; bound before allocating.
        return Err(WireError::Truncated);
    }
    let mut payloads = Vec::with_capacity(count);
    for _ in 0..count {
        let len = get_varint(&mut buf)? as usize;
        if buf.len() < len {
            return Err(WireError::Truncated);
        }
        payloads.push(buf[..len].to_vec());
        buf = &buf[len..];
    }
    if !buf.is_empty() {
        return Err(WireError::Truncated);
    }
    Ok(payloads)
}

// --- CRC-checked stream frames --------------------------------------------
//
// The frames above assume a length-delimited transport: the decoder is
// handed one complete, intact frame. A raw TCP stream gives neither
// delimiting nor integrity — a connection can die mid-write and leave a
// *torn* frame (a prefix of the intended bytes, possibly followed by a
// fresh frame after reconnect). The stream layer therefore wraps every
// transport message in a checked envelope:
//
// ```text
// stream  := MAGIC0 MAGIC1 kind:u8 varint(seq) varint(len)
//            len × payload byte
//            crc32:u32le                     (over kind..payload, not magic)
// ```
//
// The CRC turns a torn or bit-flipped frame into a loud
// [`WireError::Corrupt`] instead of garbage handed to the payload decoder;
// the magic turns a mid-frame resync into a loud error instead of a
// silently misparsed header. `kind` and `seq` are opaque to this layer —
// the transport assigns meanings (data/ack/heartbeat) and sequence
// semantics; this layer only guarantees that what comes out is exactly
// what went in, or an error.

/// Stream-frame magic: two bytes no payload grammar emits adjacently,
/// making accidental resync onto payload bytes fail loudly.
pub const STREAM_MAGIC: [u8; 2] = [0x4E, 0x52];

/// Upper bound on a stream-frame payload. A torn header whose length
/// varint decodes to nonsense must not stall the reader forever waiting
/// for terabytes that will never arrive; anything larger than this is
/// reported as corruption.
pub const MAX_STREAM_PAYLOAD: usize = 1 << 26;

/// One decoded stream frame: an opaque `kind` discriminant, a transport
/// sequence number, and the verbatim payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamFrame {
    /// Transport-assigned frame class (data / ack / heartbeat / …).
    pub kind: u8,
    /// Transport-assigned sequence number.
    pub seq: u64,
    /// Verbatim payload bytes (CRC-verified on decode).
    pub payload: Vec<u8>,
}

const fn crc32_table() -> [u32; 256] {
    // IEEE 802.3 polynomial, reflected form.
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 (the zlib/ethernet polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Append one CRC-checked stream frame.
pub fn put_stream_frame(buf: &mut Vec<u8>, kind: u8, seq: u64, payload: &[u8]) {
    buf.extend_from_slice(&STREAM_MAGIC);
    let body_start = buf.len();
    buf.push(kind);
    put_varint(buf, seq);
    put_varint(buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf[body_start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Total bytes [`put_stream_frame`] writes for a payload of `len` bytes
/// at sequence `seq`: magic + kind + varints + payload + CRC.
pub fn stream_frame_len(seq: u64, len: usize) -> usize {
    2 + 1 + varint_len(seq) + varint_len(len as u64) + len + 4
}

/// Try to decode one stream frame from the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a proper prefix of a frame
/// (read more bytes and retry), `Ok(Some((frame, consumed)))` when a full
/// frame was verified, and `Err` when the bytes can never become a valid
/// frame: bad magic, an oversized or overflowing length, or a CRC
/// mismatch (the torn-frame case). Never panics on arbitrary input.
pub fn get_stream_frame(buf: &[u8]) -> Result<Option<(StreamFrame, usize)>, WireError> {
    if buf.len() < 2 {
        return Ok(None);
    }
    if buf[0] != STREAM_MAGIC[0] || buf[1] != STREAM_MAGIC[1] {
        return Err(WireError::Corrupt("bad stream-frame magic"));
    }
    let body = &buf[2..];
    if body.is_empty() {
        return Ok(None);
    }
    let kind = body[0];
    let mut rest = &body[1..];
    let seq = match get_varint(&mut rest) {
        Ok(v) => v,
        Err(WireError::Truncated) => return Ok(None),
        Err(e) => return Err(e),
    };
    let len = match get_varint(&mut rest) {
        Ok(v) => v,
        Err(WireError::Truncated) => return Ok(None),
        Err(e) => return Err(e),
    };
    if len > MAX_STREAM_PAYLOAD as u64 {
        return Err(WireError::Corrupt("oversized stream frame"));
    }
    let len = len as usize;
    if rest.len() < len + 4 {
        return Ok(None);
    }
    let payload = &rest[..len];
    let crc_bytes: [u8; 4] = rest[len..len + 4].try_into().expect("4 bytes sliced");
    let body_len = body.len() - rest.len() + len;
    if crc32(&body[..body_len]) != u32::from_le_bytes(crc_bytes) {
        return Err(WireError::Corrupt("stream-frame CRC mismatch"));
    }
    Ok(Some((
        StreamFrame {
            kind,
            seq,
            payload: payload.to_vec(),
        },
        2 + body_len + 4,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_value(v: &Value) {
        let mut buf = Vec::new();
        put_value(&mut buf, v);
        assert_eq!(buf.len(), value_encoded_len(v), "len mismatch for {v:?}");
        let mut slice = &buf[..];
        assert_eq!(&get_value(&mut slice).unwrap(), v);
        assert!(slice.is_empty(), "trailing bytes for {v:?}");
    }

    #[test]
    fn value_round_trips() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Addr(NetAddr(0)),
            Value::Addr(NetAddr(u32::MAX)),
            Value::str(""),
            Value::str("hello world"),
            Value::list(vec![]),
            Value::list(vec![
                Value::Int(1),
                Value::str("x"),
                Value::list(vec![Value::Bool(true)]),
            ]),
        ] {
            round_trip_value(&v);
        }
    }

    #[test]
    fn tuple_round_trips() {
        let t = Tuple::new(vec![
            Value::Addr(NetAddr(3)),
            Value::Int(-99),
            Value::list(vec![Value::Addr(NetAddr(1)), Value::Addr(NetAddr(2))]),
        ]);
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        assert_eq!(buf.len(), tuple_encoded_len(&t));
        assert_eq!(get_tuple(&mut &buf[..]).unwrap(), t);
        // Self-delimiting: two tuples concatenate cleanly.
        let mut buf2 = Vec::new();
        put_tuple(&mut buf2, &t);
        put_tuple(&mut buf2, &Tuple::empty());
        let mut slice = &buf2[..];
        assert_eq!(get_tuple(&mut slice).unwrap(), t);
        assert_eq!(get_tuple(&mut slice).unwrap(), Tuple::empty());
        assert!(slice.is_empty());
    }

    #[test]
    fn varint_lengths() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::MAX, 10),
        ] {
            assert_eq!(varint_len(v), len, "varint_len({v})");
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), len);
            assert_eq!(get_varint(&mut &buf[..]).unwrap(), v);
        }
    }

    #[test]
    fn get_u32_rejects_what_does_not_fit() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::from(u32::MAX));
        assert_eq!(get_u32(&mut &buf[..]), Ok(u32::MAX));
        // 2^32 is a 5-byte varint that `as u32` would truncate to 0.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 32);
        assert_eq!(buf.len(), 5);
        assert!(matches!(get_u32(&mut &buf[..]), Err(WireError::Corrupt(_))));
        assert_eq!(get_u32(&mut &[0x80u8][..]), Err(WireError::Truncated));
    }

    #[test]
    fn zigzag_round_trip() {
        for i in [-1_000_000i64, -1, 0, 1, 42, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    /// Encode each tuple as a payload, frame them, and return
    /// (frame bytes, per-payload encoded lengths).
    fn tuple_frame(tuples: &[Tuple]) -> (Vec<u8>, Vec<usize>) {
        let payloads: Vec<Vec<u8>> = tuples
            .iter()
            .map(|t| {
                let mut b = Vec::new();
                put_tuple(&mut b, t);
                b
            })
            .collect();
        let lens: Vec<usize> = payloads.iter().map(Vec::len).collect();
        let mut frame = Vec::new();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        put_frame(&mut frame, &refs);
        (frame, lens)
    }

    #[test]
    fn coalesced_frame_len_is_header_plus_payloads() {
        let tuples: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new(vec![
                    Value::Addr(NetAddr(i)),
                    Value::Int(i64::from(i) * 1000),
                    Value::str("payload"),
                ])
            })
            .collect();
        let (frame, lens) = tuple_frame(&tuples);
        assert_eq!(
            frame.len(),
            frame_header_len(&lens) + lens.iter().sum::<usize>(),
            "frame = header + Σ payloads"
        );
        assert_eq!(frame.len(), frame_encoded_len(&lens));
        // The header really is tag + count varint + one length varint each.
        assert_eq!(
            frame_header_len(&lens),
            1 + varint_len(5) + lens.iter().map(|&l| varint_len(l as u64)).sum::<usize>()
        );
    }

    #[test]
    fn frame_round_trip_preserves_split_order() {
        let tuples: Vec<Tuple> = (0..4)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::str("x".repeat(i as usize).as_str()),
                ])
            })
            .collect();
        let (frame, _) = tuple_frame(&tuples);
        let payloads = get_frame(&frame).unwrap();
        assert_eq!(payloads.len(), 4);
        for (payload, want) in payloads.iter().zip(&tuples) {
            assert_eq!(&get_tuple(&mut &payload[..]).unwrap(), want, "FIFO order");
        }
    }

    #[test]
    fn singleton_frame_degenerates_to_the_bare_encoding() {
        // One payload: the frame *is* today's encoding — zero header bytes,
        // so uncoalesced traffic costs nothing extra.
        let t = Tuple::new(vec![Value::Addr(NetAddr(7)), Value::Int(-3)]);
        let (frame, lens) = tuple_frame(std::slice::from_ref(&t));
        let mut bare = Vec::new();
        put_tuple(&mut bare, &t);
        assert_eq!(frame, bare, "singleton frame is the bare payload");
        assert_eq!(frame_header_len(&lens), 0);
        assert_eq!(frame_encoded_len(&lens), bare.len());
        let payloads = get_frame(&frame).unwrap();
        assert_eq!(payloads, vec![bare]);
    }

    #[test]
    fn tag_prefixed_singleton_escapes_to_the_explicit_form() {
        // A payload that happens to start with FRAME_TAG cannot use the
        // degenerate encoding (the decoder would misread it as a frame
        // header); it round-trips through the explicit tagged form instead.
        let payload: &[u8] = &[FRAME_TAG, 0x01, 0x00];
        let mut frame = Vec::new();
        put_frame(&mut frame, &[payload]);
        assert_ne!(frame, payload, "must not emit the ambiguous bare form");
        assert_eq!(get_frame(&frame).unwrap(), vec![payload.to_vec()]);
    }

    #[test]
    fn empty_frame_round_trips() {
        let mut frame = Vec::new();
        put_frame(&mut frame, &[]);
        assert_eq!(frame, vec![FRAME_TAG, 0]);
        assert_eq!(frame.len(), frame_encoded_len(&[]));
        assert_eq!(get_frame(&frame).unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn frame_decode_errors() {
        // Count promises more payloads than the buffer can hold.
        assert_eq!(get_frame(&[FRAME_TAG, 9, 1, 0]), Err(WireError::Truncated));
        // Payload length overruns the buffer.
        assert_eq!(
            get_frame(&[FRAME_TAG, 2, 5, 1, 2]),
            Err(WireError::Truncated)
        );
        // Trailing bytes after the last payload.
        assert_eq!(
            get_frame(&[FRAME_TAG, 2, 1, 7, 1, 8, 99]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn stream_frame_round_trips() {
        for (kind, seq, payload) in [
            (0u8, 0u64, &b""[..]),
            (1, 1, b"x"),
            (2, 300, b"hello stream"),
            (3, u64::MAX, &[0xFFu8; 130][..]),
        ] {
            let mut buf = Vec::new();
            put_stream_frame(&mut buf, kind, seq, payload);
            assert_eq!(buf.len(), stream_frame_len(seq, payload.len()));
            let (frame, used) = get_stream_frame(&buf).unwrap().expect("complete frame");
            assert_eq!(used, buf.len());
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.seq, seq);
            assert_eq!(frame.payload, payload);
        }
    }

    #[test]
    fn stream_frames_concatenate() {
        let mut buf = Vec::new();
        put_stream_frame(&mut buf, 1, 7, b"first");
        put_stream_frame(&mut buf, 1, 8, b"second");
        let (a, used) = get_stream_frame(&buf).unwrap().unwrap();
        let (b, used2) = get_stream_frame(&buf[used..]).unwrap().unwrap();
        assert_eq!((a.seq, a.payload.as_slice()), (7, &b"first"[..]));
        assert_eq!((b.seq, b.payload.as_slice()), (8, &b"second"[..]));
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn stream_frame_prefixes_ask_for_more() {
        // Every proper prefix of a valid frame is "incomplete", never an
        // error and never a misparse — this is the property that lets the
        // socket reader accumulate bytes without guessing boundaries.
        let mut buf = Vec::new();
        put_stream_frame(&mut buf, 1, 4242, b"torn-frame payload");
        for cut in 0..buf.len() {
            assert_eq!(
                get_stream_frame(&buf[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete"
            );
        }
    }

    #[test]
    fn stream_frame_corruption_fails_loudly() {
        let mut buf = Vec::new();
        put_stream_frame(&mut buf, 1, 9, b"payload bytes");
        // Flip each body byte in turn: magic errors or CRC mismatch, never
        // a successful decode of different content.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            match get_stream_frame(&bad) {
                Err(WireError::Corrupt(_)) | Err(WireError::VarintOverflow) | Ok(None) => {}
                Ok(Some((frame, _))) => {
                    panic!("bit flip at {i} decoded silently: {frame:?}")
                }
                Err(e) => panic!("unexpected error class at {i}: {e:?}"),
            }
        }
        // A torn frame followed by a fresh one: the CRC of the spliced
        // bytes cannot match.
        let mut torn = buf[..buf.len() - 6].to_vec();
        put_stream_frame(&mut torn, 1, 10, b"next");
        assert!(matches!(
            get_stream_frame(&torn),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn stream_frame_oversized_length_is_corrupt() {
        let mut buf = STREAM_MAGIC.to_vec();
        buf.push(1); // kind
        buf.push(0); // seq
        put_varint(&mut buf, MAX_STREAM_PAYLOAD as u64 + 1);
        assert_eq!(
            get_stream_frame(&buf),
            Err(WireError::Corrupt("oversized stream frame"))
        );
    }

    #[test]
    fn decode_errors() {
        assert_eq!(get_value(&mut &[][..]), Err(WireError::Truncated));
        assert_eq!(get_value(&mut &[9u8][..]), Err(WireError::BadTag(9)));
        assert_eq!(
            get_value(&mut &[3u8, 5, b'a'][..]),
            Err(WireError::Truncated)
        );
        assert_eq!(get_value(&mut &[3u8, 1, 0xff][..]), Err(WireError::BadUtf8));
        // 11-byte varint overflows.
        let overlong = [
            1u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
        ];
        assert_eq!(
            get_value(&mut &overlong[..]),
            Err(WireError::VarintOverflow)
        );
    }
}
