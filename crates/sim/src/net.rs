//! Cluster network model and partitioning.

use netrec_types::{fx_hash_one, Duration, NetAddr, Value};

/// Physical query-processor peer (the paper's "query processing node").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

/// Operator input port on a peer: messages are addressed `(peer, port)` so a
/// peer can host many operator inputs (join build/probe, fixpoint base/
/// recursive, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Port(pub u16);

/// Maps logical addresses (partition keys) to physical peers.
///
/// The paper partitions each relation on a key attribute and uses a DHT
/// (FreePastry) to place partitions; consistent placement is all that
/// matters, so we offer hash placement plus a direct mode for the worked
/// examples where logical node X *is* physical node X.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioner {
    /// Logical address `a` lives on peer `a mod peers` — used when the query
    /// processors are co-located with the network nodes themselves (the
    /// Fig. 2 walk-through, sensor proxies).
    Direct {
        /// Number of physical peers.
        peers: u32,
    },
    /// Hash placement (DHT substitute): `fxhash(a) mod peers`.
    Hash {
        /// Number of physical peers.
        peers: u32,
    },
}

impl Partitioner {
    /// Number of physical peers.
    pub fn peers(&self) -> u32 {
        match *self {
            Partitioner::Direct { peers } | Partitioner::Hash { peers } => peers,
        }
    }

    /// The peer owning logical address `addr`.
    pub fn place(&self, addr: NetAddr) -> PeerId {
        match *self {
            Partitioner::Direct { peers } => PeerId(addr.0 % peers),
            Partitioner::Hash { peers } => {
                // Fibonacci-style mixing (FxHash's multiplier): cheap,
                // deterministic, well-spread for sequential ids.
                let h = (u64::from(addr.0).wrapping_add(0x9e37_79b9))
                    .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
                PeerId(((h >> 32) % u64::from(peers)) as u32)
            }
        }
    }

    /// The peer owning a tuple's partition value — the one placement rule
    /// for base ingress and every routed batch. An address goes through
    /// [`Partitioner::place`]; any other key (region ids, costs) is hashed
    /// stably, straight off the value; `None` (a global aggregate, or no
    /// partition column) lives on peer 0.
    pub fn place_value(&self, value: Option<&Value>) -> PeerId {
        match value {
            None => PeerId(0),
            Some(Value::Addr(a)) => self.place(*a),
            Some(other) => PeerId((fx_hash_one(other) % u64::from(self.peers())) as u32),
        }
    }
}

/// Latency/bandwidth model between peers, organised as clusters.
///
/// §7.1: "a 16-node cluster … and an 8-node cluster … internally connected
/// within each cluster via a high-speed Gigabit network, and the clusters are
/// interconnected via a 100 Mbps network shared with the rest of campus
/// traffic."
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Cluster index of each peer.
    pub cluster_of: Vec<u8>,
    /// One-way latency between peers in the same cluster.
    pub intra_latency: Duration,
    /// One-way latency between peers in different clusters.
    pub inter_latency: Duration,
    /// Intra-cluster bandwidth in bytes per microsecond (1 Gbps = 125 B/µs).
    pub intra_bytes_per_us: f64,
    /// Inter-cluster bandwidth in bytes per microsecond (100 Mbps = 12.5).
    pub inter_bytes_per_us: f64,
}

impl ClusterSpec {
    /// A single gigabit cluster of `peers` machines.
    pub fn single(peers: u32) -> ClusterSpec {
        ClusterSpec {
            cluster_of: vec![0; peers as usize],
            intra_latency: Duration::from_micros(100),
            inter_latency: Duration::from_millis(1),
            intra_bytes_per_us: 125.0,
            inter_bytes_per_us: 12.5,
        }
    }

    /// The paper's scale-out profile: the first `first` peers form cluster 0
    /// (GbE), the next `second` peers form cluster 1, with a shared 100 Mbps
    /// inter-cluster link (higher latency, lower bandwidth).
    pub fn two_clusters(first: u32, second: u32) -> ClusterSpec {
        let mut cluster_of = vec![0u8; first as usize];
        cluster_of.extend(std::iter::repeat_n(1u8, second as usize));
        ClusterSpec {
            cluster_of,
            ..ClusterSpec::single(first + second)
        }
    }

    /// Number of peers.
    pub fn peers(&self) -> u32 {
        self.cluster_of.len() as u32
    }

    /// One-way delivery delay for a message of `bytes` from `from` to `to`.
    /// Local (same-peer) messages are free: operators on one peer talk
    /// through memory.
    pub fn delay(&self, from: PeerId, to: PeerId, bytes: usize) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        let same = self.cluster_of[from.0 as usize] == self.cluster_of[to.0 as usize];
        let (lat, bw) = if same {
            (self.intra_latency, self.intra_bytes_per_us)
        } else {
            (self.inter_latency, self.inter_bytes_per_us)
        };
        lat + Duration::from_micros((bytes as f64 / bw).ceil() as u64)
    }

    /// Whether two peers are in different clusters.
    pub fn crosses_clusters(&self, a: PeerId, b: PeerId) -> bool {
        self.cluster_of[a.0 as usize] != self.cluster_of[b.0 as usize]
    }
}

/// CPU cost model, fixed part: how long a DES peer is busy processing one
/// delivery. Keeps convergence-time measurements sensitive to message
/// *counts* (DRed's extra rounds cost time even on an idle network), like
/// real per-tuple processing did on the paper's testbed.
pub(crate) const CPU_PER_MESSAGE: Duration = Duration::from_micros(20);
/// CPU cost model, additional cost per tuple in a delivery.
pub(crate) const CPU_PER_TUPLE: Duration = Duration::from_micros(5);

/// Busy time the DES charges a peer for one delivery of `tuples` tuples.
pub(crate) fn cpu_cost(tuples: u32) -> Duration {
    CPU_PER_MESSAGE + CPU_PER_TUPLE.saturating_mul(u64::from(tuples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioners_are_deterministic_and_in_range() {
        for p in [
            Partitioner::Direct { peers: 12 },
            Partitioner::Hash { peers: 12 },
        ] {
            for i in 0..500u32 {
                let peer = p.place(NetAddr(i));
                assert!(peer.0 < 12);
                assert_eq!(peer, p.place(NetAddr(i)));
            }
        }
    }

    #[test]
    fn hash_partitioner_balances() {
        let p = Partitioner::Hash { peers: 12 };
        let mut counts = vec![0usize; 12];
        for i in 0..1200u32 {
            counts[p.place(NetAddr(i)).0 as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min >= 50, "under-loaded peer: {counts:?}");
        assert!(*max <= 200, "over-loaded peer: {counts:?}");
    }

    #[test]
    fn direct_partitioner_is_modulo() {
        let p = Partitioner::Direct { peers: 3 };
        assert_eq!(p.place(NetAddr(0)), PeerId(0));
        assert_eq!(p.place(NetAddr(4)), PeerId(1));
        assert_eq!(p.place(NetAddr(5)), PeerId(2));
    }

    #[test]
    fn delay_model_orders_sensibly() {
        let spec = ClusterSpec::two_clusters(16, 8);
        assert_eq!(spec.peers(), 24);
        let local = spec.delay(PeerId(0), PeerId(0), 1000);
        let intra = spec.delay(PeerId(0), PeerId(1), 1000);
        let inter = spec.delay(PeerId(0), PeerId(20), 1000);
        assert_eq!(local, Duration::ZERO);
        assert!(intra < inter, "intra {intra} < inter {inter}");
        assert!(spec.crosses_clusters(PeerId(0), PeerId(20)));
        assert!(!spec.crosses_clusters(PeerId(0), PeerId(15)));
        // Bandwidth term grows with size.
        assert!(spec.delay(PeerId(0), PeerId(1), 100_000) > intra);
    }

    #[test]
    fn cost_model_scales_with_tuples() {
        assert!(cpu_cost(10) > cpu_cost(1));
        assert_eq!(cpu_cost(0), CPU_PER_MESSAGE);
        assert_eq!(cpu_cost(2), Duration::from_micros(30));
    }

    /// One placement rule for every partition value: addresses through
    /// `place`, other keys by a stable hash, `None` on peer 0.
    #[test]
    fn place_value_routes_addresses_like_place_and_hashes_the_rest() {
        let p = Partitioner::Hash { peers: 4 };
        for i in 0..50u32 {
            assert_eq!(
                p.place_value(Some(&Value::Addr(NetAddr(i)))),
                p.place(NetAddr(i))
            );
        }
        assert_eq!(p.place_value(None), PeerId(0));
        let placed: Vec<PeerId> = (0..50i64)
            .map(|i| p.place_value(Some(&Value::Int(i))))
            .collect();
        assert!(placed.iter().all(|peer| peer.0 < 4));
        assert!(placed.iter().any(|peer| peer.0 != 0), "keys spread");
    }
}
