//! Traffic accounting: the source of every number in `REPRODUCTION.md`.

use crate::net::PeerId;

/// Size metadata the sender attaches to each message: the engine computes
/// these from the wire encoding of the updates it ships.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgMeta {
    /// Total message bytes (tuples + annotations + framing).
    pub bytes: usize,
    /// Bytes attributable to provenance annotations alone.
    pub prov_bytes: usize,
    /// Number of update tuples in the message.
    pub tuples: u32,
}

impl MsgMeta {
    /// Metadata for a tuple-free control message of `bytes`.
    pub fn control(bytes: usize) -> MsgMeta {
        MsgMeta {
            bytes,
            prov_bytes: 0,
            tuples: 0,
        }
    }
}

/// Size metadata for one physical transport envelope: a frame of one or
/// more same-destination logical messages coalesced by the runtime layer
/// (see `crate::coalesce`). The paper's figures count *logical* messages
/// ([`MsgMeta`] / `msgs_sent`); envelopes are what actually crosses a
/// channel — one send, one in-flight count, one wake per envelope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnvelopeMeta {
    /// Physical frame bytes: wire frame header + Σ logical payload bytes
    /// (zero header for a singleton frame — uncoalesced traffic is
    /// byte-identical to the pre-frame encoding).
    pub bytes: usize,
    /// Logical messages carried.
    pub msgs: u32,
}

/// Per-peer traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeerMetrics {
    /// Logical messages sent to other peers (local loopback is not
    /// traffic). This is what the paper's figures count, independent of
    /// transport coalescing.
    pub msgs_sent: u64,
    /// Logical bytes sent to other peers (Σ per-message encodings).
    pub bytes_sent: u64,
    /// Annotation bytes within `bytes_sent`.
    pub prov_bytes_sent: u64,
    /// Update tuples shipped to other peers.
    pub tuples_sent: u64,
    /// Logical messages received from other peers.
    pub msgs_recv: u64,
    /// Logical bytes received from other peers.
    pub bytes_recv: u64,
    /// Physical transport envelopes sent (≤ `msgs_sent`: an envelope
    /// carries one or more coalesced same-destination messages).
    pub envelopes_sent: u64,
    /// Physical envelope bytes sent (frame headers + payloads).
    pub envelope_bytes_sent: u64,
    /// Physical transport envelopes received.
    pub envelopes_recv: u64,
}

impl PeerMetrics {
    /// Add another peer's counters into this one.
    pub fn merge(&mut self, other: &PeerMetrics) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.prov_bytes_sent += other.prov_bytes_sent;
        self.tuples_sent += other.tuples_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
        self.envelopes_sent += other.envelopes_sent;
        self.envelope_bytes_sent += other.envelope_bytes_sent;
        self.envelopes_recv += other.envelopes_recv;
    }

    /// This peer's counters with the envelope (physical-transport) fields
    /// zeroed — the projection the paper's figures and the cross-mode
    /// differential assertions compare.
    pub fn logical(&self) -> PeerMetrics {
        PeerMetrics {
            envelopes_sent: 0,
            envelope_bytes_sent: 0,
            envelopes_recv: 0,
            ..*self
        }
    }
}

/// Whole-run traffic metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Counters per peer, indexed by `PeerId`.
    pub per_peer: Vec<PeerMetrics>,
}

impl NetMetrics {
    /// Zeroed metrics for `peers` peers.
    pub fn new(peers: u32) -> NetMetrics {
        NetMetrics {
            per_peer: vec![PeerMetrics::default(); peers as usize],
        }
    }

    /// Record one remote **logical** send (one message within an envelope).
    pub fn record_send(&mut self, from: PeerId, to: PeerId, meta: MsgMeta) {
        let s = &mut self.per_peer[from.0 as usize];
        s.msgs_sent += 1;
        s.bytes_sent += meta.bytes as u64;
        s.prov_bytes_sent += meta.prov_bytes as u64;
        s.tuples_sent += u64::from(meta.tuples);
        let r = &mut self.per_peer[to.0 as usize];
        r.msgs_recv += 1;
        r.bytes_recv += meta.bytes as u64;
    }

    /// Record one remote **physical** envelope (a coalesced frame of
    /// `meta.msgs` logical messages whose [`record_send`](Self::record_send)
    /// entries are accounted separately).
    pub fn record_envelope(&mut self, from: PeerId, to: PeerId, meta: EnvelopeMeta) {
        let s = &mut self.per_peer[from.0 as usize];
        s.envelopes_sent += 1;
        s.envelope_bytes_sent += meta.bytes as u64;
        self.per_peer[to.0 as usize].envelopes_recv += 1;
    }

    /// Merge another metrics matrix into this one (peer-wise sum). Used by
    /// the sharded runtime, where each shard accounts its own peers' traffic
    /// and the controller folds the shards into the run total.
    pub fn merge(&mut self, other: &NetMetrics) {
        if self.per_peer.len() < other.per_peer.len() {
            self.per_peer
                .resize(other.per_peer.len(), PeerMetrics::default());
        }
        for (mine, theirs) in self.per_peer.iter_mut().zip(&other.per_peer) {
            mine.merge(theirs);
        }
    }

    /// Total bytes shipped across the network.
    pub fn total_bytes(&self) -> u64 {
        self.per_peer.iter().map(|p| p.bytes_sent).sum()
    }

    /// Total messages shipped.
    pub fn total_msgs(&self) -> u64 {
        self.per_peer.iter().map(|p| p.msgs_sent).sum()
    }

    /// Total update tuples shipped.
    pub fn total_tuples(&self) -> u64 {
        self.per_peer.iter().map(|p| p.tuples_sent).sum()
    }

    /// Total annotation bytes shipped.
    pub fn total_prov_bytes(&self) -> u64 {
        self.per_peer.iter().map(|p| p.prov_bytes_sent).sum()
    }

    /// Total physical envelopes shipped (≤ [`total_msgs`](Self::total_msgs)).
    pub fn total_envelopes(&self) -> u64 {
        self.per_peer.iter().map(|p| p.envelopes_sent).sum()
    }

    /// Total physical envelope bytes shipped (frame headers + payloads).
    pub fn total_envelope_bytes(&self) -> u64 {
        self.per_peer.iter().map(|p| p.envelope_bytes_sent).sum()
    }

    /// The logical projection: every counter the paper's figures use, with
    /// the physical envelope counters zeroed. Byte-identical across
    /// substrates *and* across coalescing modes on traffic-confluent
    /// workloads.
    pub fn logical(&self) -> NetMetrics {
        NetMetrics {
            per_peer: self.per_peer.iter().map(PeerMetrics::logical).collect(),
        }
    }

    /// Mean communication per peer in bytes — the paper reports per-node
    /// communication overhead in the scale-out experiment.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        if self.per_peer.is_empty() {
            return 0.0;
        }
        self.total_bytes() as f64 / self.per_peer.len() as f64
    }

    /// Mean annotation bytes per shipped tuple — the paper's "per-tuple
    /// provenance overhead (B)".
    pub fn prov_bytes_per_tuple(&self) -> f64 {
        let tuples = self.total_tuples();
        if tuples == 0 {
            return 0.0;
        }
        self.total_prov_bytes() as f64 / tuples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let mut m = NetMetrics::new(3);
        m.record_send(
            PeerId(0),
            PeerId(1),
            MsgMeta {
                bytes: 100,
                prov_bytes: 40,
                tuples: 2,
            },
        );
        m.record_send(
            PeerId(1),
            PeerId(2),
            MsgMeta {
                bytes: 50,
                prov_bytes: 10,
                tuples: 1,
            },
        );
        assert_eq!(m.total_bytes(), 150);
        assert_eq!(m.total_msgs(), 2);
        assert_eq!(m.total_tuples(), 3);
        assert_eq!(m.total_prov_bytes(), 50);
        assert_eq!(m.avg_bytes_per_peer(), 50.0);
        assert!((m.prov_bytes_per_tuple() - 50.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.per_peer[1].msgs_sent, 1);
        assert_eq!(m.per_peer[1].msgs_recv, 1);
        assert_eq!(m.per_peer[2].bytes_recv, 50);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = NetMetrics::new(0);
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.avg_bytes_per_peer(), 0.0);
        assert_eq!(m.prov_bytes_per_tuple(), 0.0);
    }

    #[test]
    fn merge_sums_peer_wise() {
        let meta = |bytes, prov_bytes, tuples| MsgMeta {
            bytes,
            prov_bytes,
            tuples,
        };
        let mut a = NetMetrics::new(3);
        a.record_send(PeerId(0), PeerId(1), meta(100, 40, 2));
        let mut b = NetMetrics::new(3);
        b.record_send(PeerId(0), PeerId(2), meta(50, 10, 1));
        b.record_send(PeerId(2), PeerId(1), meta(25, 5, 1));
        a.merge(&b);
        let mut want = NetMetrics::new(3);
        want.record_send(PeerId(0), PeerId(1), meta(100, 40, 2));
        want.record_send(PeerId(0), PeerId(2), meta(50, 10, 1));
        want.record_send(PeerId(2), PeerId(1), meta(25, 5, 1));
        assert_eq!(a, want);
        // Merging into an empty matrix grows it.
        let mut empty = NetMetrics::new(0);
        empty.merge(&want);
        assert_eq!(empty, want);
    }

    #[test]
    fn control_meta() {
        let c = MsgMeta::control(9);
        assert_eq!(c.bytes, 9);
        assert_eq!(c.tuples, 0);
    }

    /// Deterministic pseudo-random metrics matrix for the merge-law tests.
    fn arbitrary_metrics(peers: u32, seed: u64) -> NetMetrics {
        let mut m = NetMetrics::new(peers);
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for _ in 0..16 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let from = ((s >> 33) % u64::from(peers)) as u32;
            let to = ((s >> 17) % u64::from(peers)) as u32;
            if from == to {
                continue;
            }
            m.record_send(
                PeerId(from),
                PeerId(to),
                MsgMeta {
                    bytes: (s % 512) as usize,
                    prov_bytes: (s % 64) as usize,
                    tuples: (s % 7) as u32,
                },
            );
            if s.is_multiple_of(3) {
                m.record_envelope(
                    PeerId(from),
                    PeerId(to),
                    EnvelopeMeta {
                        bytes: (s % 600) as usize,
                        msgs: 1 + (s % 4) as u32,
                    },
                );
            }
        }
        m
    }

    #[test]
    fn envelope_accounting_and_logical_projection() {
        let mut m = NetMetrics::new(3);
        // Two logical messages coalesced into one envelope with a 4-byte
        // frame header, plus one uncoalesced singleton.
        let meta = |bytes| MsgMeta {
            bytes,
            prov_bytes: 0,
            tuples: 1,
        };
        m.record_send(PeerId(0), PeerId(1), meta(100));
        m.record_send(PeerId(0), PeerId(1), meta(50));
        m.record_envelope(
            PeerId(0),
            PeerId(1),
            EnvelopeMeta {
                bytes: 154,
                msgs: 2,
            },
        );
        m.record_send(PeerId(2), PeerId(1), meta(30));
        m.record_envelope(PeerId(2), PeerId(1), EnvelopeMeta { bytes: 30, msgs: 1 });
        assert_eq!(m.total_msgs(), 3);
        assert_eq!(m.total_envelopes(), 2);
        assert_eq!(m.total_bytes(), 180);
        assert_eq!(m.total_envelope_bytes(), 184);
        assert_eq!(m.per_peer[0].envelopes_sent, 1);
        assert_eq!(m.per_peer[1].envelopes_recv, 2);
        // The logical projection drops only the physical counters.
        let logical = m.logical();
        assert_eq!(logical.total_msgs(), 3);
        assert_eq!(logical.total_bytes(), 180);
        assert_eq!(logical.total_envelopes(), 0);
        assert_eq!(logical.total_envelope_bytes(), 0);
        // Coalescing changes envelopes, never the logical projection.
        let mut uncoalesced = NetMetrics::new(3);
        uncoalesced.record_send(PeerId(0), PeerId(1), meta(100));
        uncoalesced.record_send(PeerId(0), PeerId(1), meta(50));
        uncoalesced.record_send(PeerId(2), PeerId(1), meta(30));
        assert_ne!(uncoalesced, m);
        assert_eq!(uncoalesced.logical(), m.logical());
    }

    #[test]
    fn merge_is_associative() {
        // Folding shard results must not depend on fold order — the sharded
        // runtime's snapshot folds per-shard matrices left to right.
        let (a, b, c) = (
            arbitrary_metrics(5, 1),
            arbitrary_metrics(5, 2),
            arbitrary_metrics(5, 3),
        );
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_identity_is_empty() {
        let a = arbitrary_metrics(4, 9);
        let mut with_left_identity = NetMetrics::new(0);
        with_left_identity.merge(&a);
        assert_eq!(with_left_identity, a);
        let mut with_right_identity = a.clone();
        with_right_identity.merge(&NetMetrics::new(4));
        assert_eq!(with_right_identity, a);
        // Sized-but-zero identity on the left too.
        let mut sized = NetMetrics::new(4);
        sized.merge(&a);
        assert_eq!(sized, a);
    }

    #[test]
    fn merge_never_double_counts_disjoint_shards() {
        // Shards account disjoint sender sets (each peer's sends recorded by
        // exactly one shard); folding them must reproduce the global matrix
        // exactly — total sums AND per-peer rows.
        let meta = MsgMeta {
            bytes: 10,
            prov_bytes: 3,
            tuples: 1,
        };
        let sends = [(0u32, 2u32), (0, 3), (1, 0), (2, 1), (3, 0), (3, 2)];
        let mut global = NetMetrics::new(4);
        // Shard 0 hosts peers {0, 1}; shard 1 hosts {2, 3}.
        let mut shard0 = NetMetrics::new(4);
        let mut shard1 = NetMetrics::new(4);
        for (from, to) in sends {
            global.record_send(PeerId(from), PeerId(to), meta);
            let shard = if from < 2 { &mut shard0 } else { &mut shard1 };
            shard.record_send(PeerId(from), PeerId(to), meta);
        }
        let mut folded = NetMetrics::new(4);
        folded.merge(&shard0);
        folded.merge(&shard1);
        assert_eq!(folded, global);
        assert_eq!(folded.total_msgs(), sends.len() as u64);
    }
}
