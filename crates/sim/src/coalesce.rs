//! Same-destination message coalescing — the transport batching layer every
//! substrate shares.
//!
//! BENCH_4 showed per-message transport overhead dominating the concurrent
//! substrates: every logical `Msg` crossed a bounded channel as its own
//! envelope with its own in-flight count and its own controller wake. This
//! module batches that cost away **without touching the paper's metrics**:
//! logical messages stay the unit of accounting (`msgs`/`bytes`/`tuples`/
//! `prov_bytes` are per-message, exactly as before), while the physical
//! transport ships [`Frame`]s — one channel send, one in-flight count, one
//! wake per frame — counted separately as *envelopes*
//! ([`EnvelopeMeta`], `NetMetrics::total_envelopes`).
//!
//! # The flush rule (modelled once)
//!
//! The differential harness pins byte-identical per-peer metrics across
//! substrates, so coalescing must be a *deterministic function of peer
//! logic*, not of scheduling. The rule:
//!
//! 1. **Quantum** — one event-handler execution: all logical messages of
//!    one delivered frame (in order), or one timer firing.
//! 2. **Buffering** — every `NetApi::send` during the quantum lands in a
//!    per-destination buffer (the `NetApi` out-vector).
//! 3. **Flush at handler return** — when the quantum ends, each
//!    destination's buffer becomes exactly one [`Frame`], destinations in
//!    first-send order, messages in send order within each frame.
//!
//! Because a frame's composition depends only on the receiving peer's
//! callback outputs (which are deterministic given the delivered frame),
//! frames — and therefore envelope metrics — are identical on every
//! substrate, not just the logical counters. Per-channel FIFO is preserved:
//! messages to one destination never reorder within a frame, and frames on
//! a channel are sent in quantum order.
//!
//! Frames are allocation-conscious: the overwhelmingly common singleton
//! frame (a quantum that sends one message to a destination) stores its
//! message **inline** ([`FrameBody::One`]) — no heap allocation beyond what
//! the pre-coalescing transport paid — and only actual coalescing spills
//! into a `Vec`.
//!
//! DESIGN.md "Transport batching" carries the full contract, including the
//! quiescence proof sketch for envelopes carrying N logical messages under
//! one in-flight count.

use netrec_types::{wire, FxHashMap};

use crate::metrics::{EnvelopeMeta, MsgMeta, NetMetrics};
use crate::net::{PeerId, Port};

/// The messages one [`Frame`] carries, in send order. Singleton frames are
/// inline; only multi-message frames allocate.
pub enum FrameBody<M> {
    /// Exactly one message — the uncoalesced common case.
    One((Port, M, MsgMeta)),
    /// Two or more coalesced messages.
    Many(Vec<(Port, M, MsgMeta)>),
}

impl<M> FrameBody<M> {
    /// The carried messages as a slice, in send order.
    pub fn as_slice(&self) -> &[(Port, M, MsgMeta)] {
        match self {
            FrameBody::One(m) => std::slice::from_ref(m),
            FrameBody::Many(v) => v,
        }
    }

    /// Number of logical messages carried.
    pub fn len(&self) -> usize {
        match self {
            FrameBody::One(_) => 1,
            FrameBody::Many(v) => v.len(),
        }
    }

    /// Whether the body carries no messages (never produced by
    /// [`coalesce`]; exists for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&mut self, item: (Port, M, MsgMeta)) {
        match self {
            FrameBody::Many(v) => v.push(item),
            FrameBody::One(_) => {
                let old = std::mem::replace(self, FrameBody::Many(Vec::with_capacity(4)));
                let FrameBody::One(first) = old else {
                    unreachable!()
                };
                let FrameBody::Many(v) = self else {
                    unreachable!()
                };
                v.push(first);
                v.push(item);
            }
        }
    }
}

/// Owning iterator over a [`FrameBody`]'s messages (receiver-side split,
/// FIFO order).
pub enum FrameIter<M> {
    /// Iterator over a singleton body.
    One(std::option::IntoIter<(Port, M, MsgMeta)>),
    /// Iterator over a coalesced body.
    Many(std::vec::IntoIter<(Port, M, MsgMeta)>),
}

impl<M> Iterator for FrameIter<M> {
    type Item = (Port, M, MsgMeta);
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            FrameIter::One(it) => it.next(),
            FrameIter::Many(it) => it.next(),
        }
    }
}

impl<M> IntoIterator for FrameBody<M> {
    type Item = (Port, M, MsgMeta);
    type IntoIter = FrameIter<M>;
    fn into_iter(self) -> FrameIter<M> {
        match self {
            FrameBody::One(m) => FrameIter::One(Some(m).into_iter()),
            FrameBody::Many(v) => FrameIter::Many(v.into_iter()),
        }
    }
}

/// One physical transport envelope: every message one quantum produced for
/// one destination peer, in send order.
pub struct Frame<M> {
    /// Destination peer.
    pub to: PeerId,
    body: FrameBody<M>,
}

impl<M> Frame<M> {
    /// A singleton frame (no allocation).
    pub fn one(to: PeerId, port: Port, msg: M, meta: MsgMeta) -> Frame<M> {
        Frame {
            to,
            body: FrameBody::One((port, msg, meta)),
        }
    }

    /// Number of logical messages carried.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the frame carries no messages (never produced by
    /// [`coalesce`]; exists for API completeness).
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// The carried messages, in send order.
    pub fn msgs(&self) -> &[(Port, M, MsgMeta)] {
        self.body.as_slice()
    }

    /// Take the body out (what travels the channel; receivers split it in
    /// FIFO order).
    pub fn into_body(self) -> FrameBody<M> {
        self.body
    }

    /// Total update tuples across the carried messages (what a cost model
    /// charges per delivery).
    pub fn total_tuples(&self) -> u32 {
        self.msgs().iter().map(|(_, _, m)| m.tuples).sum()
    }

    /// Physical envelope accounting: `bytes` is the wire-frame size —
    /// header + Σ logical payload bytes, where a singleton frame *is* its
    /// payload (zero header; the formula matches
    /// `netrec_types::wire::frame_encoded_len` without allocating the
    /// length table).
    pub fn envelope_meta(&self) -> EnvelopeMeta {
        let bytes = match &self.body {
            FrameBody::One((_, _, meta)) => meta.bytes,
            FrameBody::Many(msgs) => {
                let header = 1
                    + wire::varint_len(msgs.len() as u64)
                    + msgs
                        .iter()
                        .map(|(_, _, m)| wire::varint_len(m.bytes as u64))
                        .sum::<usize>();
                header + msgs.iter().map(|(_, _, m)| m.bytes).sum::<usize>()
            }
        };
        EnvelopeMeta {
            bytes,
            msgs: self.len() as u32,
        }
    }

    /// Record this frame's traffic as `from → self.to`: one logical
    /// [`record_send`](NetMetrics::record_send) per carried message plus one
    /// physical [`record_envelope`](NetMetrics::record_envelope) — the one
    /// accounting rule every substrate shares. Returns the envelope meta so
    /// callers that also need it (the DES charges the link model with the
    /// framed size) don't compute it twice.
    pub fn record_into(&self, from: PeerId, metrics: &mut NetMetrics) -> EnvelopeMeta {
        for (_, _, meta) in self.msgs() {
            metrics.record_send(from, self.to, *meta);
        }
        let env = self.envelope_meta();
        metrics.record_envelope(from, self.to, env);
        env
    }
}

/// One quantum's outgoing frames. Like [`FrameBody`], the empty and
/// one-send cases — the overwhelming majority of quanta — are inline: the
/// hot path allocates nothing the pre-coalescing transport didn't.
pub enum Frames<M> {
    /// The quantum sent nothing.
    None,
    /// Exactly one outgoing message → one singleton frame, no allocation.
    One(Frame<M>),
    /// The general grouped case.
    Many(Vec<Frame<M>>),
}

impl<M> Frames<M> {
    /// The frames as a slice (metrics passes that must not hold a lock
    /// across the send loop iterate this first, then consume).
    pub fn as_slice(&self) -> &[Frame<M>] {
        match self {
            Frames::None => &[],
            Frames::One(f) => std::slice::from_ref(f),
            Frames::Many(v) => v,
        }
    }
}

/// Owning iterator over [`Frames`].
pub enum FramesIter<M> {
    /// 0-or-1 frame.
    One(std::option::IntoIter<Frame<M>>),
    /// The general case.
    Many(std::vec::IntoIter<Frame<M>>),
}

impl<M> Iterator for FramesIter<M> {
    type Item = Frame<M>;
    fn next(&mut self) -> Option<Frame<M>> {
        match self {
            FramesIter::One(it) => it.next(),
            FramesIter::Many(it) => it.next(),
        }
    }
}

impl<M> IntoIterator for Frames<M> {
    type Item = Frame<M>;
    type IntoIter = FramesIter<M>;
    fn into_iter(self) -> FramesIter<M> {
        match self {
            Frames::None => FramesIter::One(None.into_iter()),
            Frames::One(f) => FramesIter::One(Some(f).into_iter()),
            Frames::Many(v) => FramesIter::Many(v.into_iter()),
        }
    }
}

/// Apply the flush rule to one quantum's outputs, allocation-free for the
/// 0/1-send fast path: what every substrate iterates at quantum end.
pub fn frames<M>(mut out: Vec<(PeerId, Port, M, MsgMeta)>, enabled: bool) -> Frames<M> {
    match out.len() {
        0 => Frames::None,
        1 => {
            let (to, port, msg, meta) = out.pop().expect("len checked");
            Frames::One(Frame::one(to, port, msg, meta))
        }
        _ => Frames::Many(coalesce(out, enabled)),
    }
}

/// Destinations a linear scan covers before [`coalesce`] builds a hash
/// index — quanta usually target a handful of peers; only wide fan-out
/// (a MinShip flush routing to hundreds) pays for the map.
const LINEAR_SCAN_FRAMES: usize = 16;

/// Apply the flush rule to one quantum's outputs: group the out-vector by
/// destination peer into frames, destinations in first-send order, message
/// order preserved per destination. With `enabled == false` every message
/// becomes its own singleton frame — physical behavior identical to the
/// pre-coalescing transport (the differential toggle dimension).
pub fn coalesce<M>(out: Vec<(PeerId, Port, M, MsgMeta)>, enabled: bool) -> Vec<Frame<M>> {
    let mut frames: Vec<Frame<M>> = Vec::new();
    if !enabled {
        frames.reserve(out.len());
        for (to, port, msg, meta) in out {
            frames.push(Frame::one(to, port, msg, meta));
        }
        return frames;
    }
    let mut index: Option<FxHashMap<PeerId, usize>> = None;
    for (to, port, msg, meta) in out {
        // Routed emission produces same-destination runs, so the previous
        // frame matches most sends.
        if let Some(last) = frames.last_mut() {
            if last.to == to {
                last.body.push((port, msg, meta));
                continue;
            }
        }
        let slot = match &index {
            Some(ix) => ix.get(&to).copied(),
            None => frames.iter().position(|f| f.to == to),
        };
        match slot {
            Some(i) => frames[i].body.push((port, msg, meta)),
            None => {
                frames.push(Frame::one(to, port, msg, meta));
                if index.is_none() && frames.len() > LINEAR_SCAN_FRAMES {
                    index = Some(frames.iter().enumerate().map(|(i, f)| (f.to, i)).collect());
                } else if let Some(ix) = &mut index {
                    ix.insert(to, frames.len() - 1);
                }
            }
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(bytes: usize) -> MsgMeta {
        MsgMeta {
            bytes,
            prov_bytes: bytes / 4,
            tuples: 1,
        }
    }

    fn out(sends: &[(u32, u16, u64)]) -> Vec<(PeerId, Port, u64, MsgMeta)> {
        sends
            .iter()
            .map(|&(to, port, m)| (PeerId(to), Port(port), m, meta(10 + m as usize)))
            .collect()
    }

    #[test]
    fn groups_by_destination_in_first_send_order() {
        let frames = coalesce(
            out(&[(2, 0, 1), (1, 0, 2), (2, 1, 3), (1, 0, 4), (3, 0, 5)]),
            true,
        );
        let shape: Vec<(u32, Vec<u64>)> = frames
            .iter()
            .map(|f| (f.to.0, f.msgs().iter().map(|(_, m, _)| *m).collect()))
            .collect();
        assert_eq!(
            shape,
            vec![(2, vec![1, 3]), (1, vec![2, 4]), (3, vec![5])],
            "first-send destination order, per-destination FIFO"
        );
        // Ports travel with their messages.
        assert_eq!(frames[0].msgs()[1].0, Port(1));
        // Singleton frames keep the inline representation.
        assert!(matches!(frames[2].body, FrameBody::One(_)));
    }

    #[test]
    fn disabled_yields_one_singleton_frame_per_message() {
        let frames = coalesce(out(&[(1, 0, 1), (1, 0, 2), (2, 0, 3)]), false);
        assert_eq!(frames.len(), 3);
        assert!(frames.iter().all(|f| f.len() == 1));
        assert_eq!(frames[0].to, PeerId(1));
        assert_eq!(frames[1].to, PeerId(1));
    }

    #[test]
    fn envelope_meta_matches_the_wire_frame_formula() {
        let frames = coalesce(out(&[(1, 0, 1), (1, 0, 2), (1, 0, 3)]), true);
        assert_eq!(frames.len(), 1);
        let env = frames[0].envelope_meta();
        assert_eq!(env.msgs, 3);
        let lens = [11usize, 12, 13];
        assert_eq!(env.bytes, wire::frame_encoded_len(&lens));
        assert_eq!(
            env.bytes,
            wire::frame_header_len(&lens) + lens.iter().sum::<usize>()
        );
        assert_eq!(frames[0].total_tuples(), 3);
    }

    #[test]
    fn singleton_envelope_is_byte_identical_to_the_message() {
        let frames = coalesce(out(&[(4, 0, 7)]), true);
        assert_eq!(frames.len(), 1);
        let env = frames[0].envelope_meta();
        assert_eq!(env.msgs, 1);
        assert_eq!(env.bytes, 17, "no header on uncoalesced traffic");
    }

    #[test]
    fn record_into_counts_logical_and_physical_once() {
        let frames = coalesce(out(&[(1, 0, 1), (1, 0, 2)]), true);
        let mut m = NetMetrics::new(2);
        frames[0].record_into(PeerId(0), &mut m);
        assert_eq!(m.total_msgs(), 2, "logical messages");
        assert_eq!(m.total_envelopes(), 1, "one physical envelope");
        assert_eq!(m.total_bytes(), 11 + 12, "logical bytes are per message");
        assert!(m.total_envelope_bytes() > m.total_bytes(), "frame header");
        assert_eq!(m.per_peer[1].msgs_recv, 2);
        assert_eq!(m.per_peer[1].envelopes_recv, 1);
    }

    #[test]
    fn body_iterates_in_order_for_both_representations() {
        let frames = coalesce(out(&[(1, 3, 9)]), true);
        let single: Vec<u64> = frames
            .into_iter()
            .flat_map(|f| f.into_body().into_iter().map(|(_, m, _)| m))
            .collect();
        assert_eq!(single, vec![9]);
        let frames = coalesce(out(&[(1, 0, 1), (1, 1, 2), (1, 2, 3)]), true);
        let many: Vec<(u16, u64)> = frames
            .into_iter()
            .flat_map(|f| f.into_body().into_iter().map(|(p, m, _)| (p.0, m)))
            .collect();
        assert_eq!(many, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn wide_fanout_uses_the_index_consistently() {
        // Interleaved sends to 64 destinations, 3 rounds: every destination
        // must end up with one frame of 3 messages, in round order — the
        // lazily-built index and the linear scan must agree.
        let mut sends = Vec::new();
        for round in 0..3u64 {
            for dest in 0..64u32 {
                sends.push((dest, 0u16, round));
            }
        }
        let frames = coalesce(out(&sends), true);
        assert_eq!(frames.len(), 64);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.to, PeerId(i as u32), "first-send order");
            let rounds: Vec<u64> = f.msgs().iter().map(|(_, m, _)| *m).collect();
            assert_eq!(rounds, vec![0, 1, 2]);
        }
    }
}
