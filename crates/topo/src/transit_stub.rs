//! Transit-stub topology generation (GT-ITM substitute).
//!
//! GT-ITM's transit-stub model builds an Internet-like hierarchy: transit
//! domains of backbone routers, each transit router serving several stub
//! networks. The paper's default (§7.1): "eight nodes per stub, three stubs
//! per transit node, and four nodes per transit domain … 100 nodes …
//! approximately 200 bidirectional links (hence 400 link tuples)", with
//! latencies of 50 ms transit–transit, 10 ms transit–stub and 2 ms
//! intra-stub.
//!
//! Addresses follow the hierarchy (locality numbering): a domain's transit
//! routers first, then each of its stubs as one contiguous run. With one
//! domain — every shape this repository runs — all transits precede every
//! stub. The engine orders provenance variables by address, so this
//! numbering keeps annotations small; it is relied on for size, never for
//! correctness.

use netrec_types::{Duration, NetAddr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::graph::{Density, NodeClass, Topology};

/// Shape parameters for [`transit_stub`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransitStubParams {
    /// Number of transit domains.
    pub domains: usize,
    /// Transit routers per domain (paper default: 4).
    pub transits_per_domain: usize,
    /// Stub networks per transit router (paper default: 3).
    pub stubs_per_transit: usize,
    /// Routers per stub network (paper default: 8).
    pub nodes_per_stub: usize,
    /// Link density target.
    pub density: Density,
}

impl Default for TransitStubParams {
    fn default() -> Self {
        TransitStubParams {
            domains: 1,
            transits_per_domain: 4,
            stubs_per_transit: 3,
            nodes_per_stub: 8,
            density: Density::Dense,
        }
    }
}

impl TransitStubParams {
    /// Total nodes this shape produces.
    pub fn node_count(&self) -> usize {
        let transits = self.domains * self.transits_per_domain;
        transits + transits * self.stubs_per_transit * self.nodes_per_stub
    }
}

/// Latency classes from §7.1.
const TRANSIT_TRANSIT: Duration = Duration(50_000);
const TRANSIT_STUB: Duration = Duration(10_000);
const INTRA_STUB: Duration = Duration(2_000);

/// Generate a transit-stub topology. Deterministic in `(params, seed)`;
/// always connected; link count steered to `density.degree() × nodes / 2`.
pub fn transit_stub(params: TransitStubParams, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut topo = Topology::default();
    let mut next = 0u32;
    let mut alloc = |class: NodeClass, topo: &mut Topology| -> NetAddr {
        let addr = NetAddr(next);
        next += 1;
        topo.nodes.push(addr);
        topo.classes.push(class);
        addr
    };

    let mut all_transits: Vec<NetAddr> = Vec::new();
    // (stub members) per stub, remembered for densification.
    let mut stubs: Vec<Vec<NetAddr>> = Vec::new();

    for _ in 0..params.domains {
        let transits: Vec<NetAddr> = (0..params.transits_per_domain)
            .map(|_| alloc(NodeClass::Transit, &mut topo))
            .collect();
        // Transit routers in a domain: ring (connected) + one random chord
        // for domains of ≥ 4 routers, approximating GT-ITM's dense backbone.
        for i in 0..transits.len() {
            if transits.len() > 1 {
                topo.add_link(
                    transits[i],
                    transits[(i + 1) % transits.len()],
                    TRANSIT_TRANSIT,
                );
            }
        }
        if transits.len() >= 4 {
            topo.add_link(transits[0], transits[transits.len() / 2], TRANSIT_TRANSIT);
        }
        // Inter-domain: connect this domain's first transit to the previous
        // domain's first transit.
        if let Some(&prev) = all_transits.first() {
            topo.add_link(prev, transits[0], TRANSIT_TRANSIT);
        }
        for &t in &transits {
            for _ in 0..params.stubs_per_transit {
                let members: Vec<NetAddr> = (0..params.nodes_per_stub)
                    .map(|_| alloc(NodeClass::Stub, &mut topo))
                    .collect();
                // Stub internal structure: path (connected), densified below.
                for w in members.windows(2) {
                    topo.add_link(w[0], w[1], INTRA_STUB);
                }
                // Gateway link from a random stub router to its transit.
                if let Some(&gw) = members.first() {
                    topo.add_link(gw, t, TRANSIT_STUB);
                }
                stubs.push(members);
            }
        }
        all_transits.extend(transits);
    }

    // Densify with random intra-stub chords (and occasional stub-to-stub
    // links within the same transit's stubs) until the degree target is met.
    let target_links = params.density.degree() * topo.node_count() / 2;
    let mut attempts = 0usize;
    let max_attempts = target_links * 50;
    while topo.link_count() < target_links && attempts < max_attempts {
        attempts += 1;
        let s = rng.random_range(0..stubs.len());
        if rng.random_range(0..8) == 0 && stubs.len() > 1 {
            // Occasional shortcut between two stubs (multi-homing), at
            // transit-stub latency.
            let s2 = rng.random_range(0..stubs.len());
            if s != s2 {
                let a = stubs[s][rng.random_range(0..stubs[s].len())];
                let b = stubs[s2][rng.random_range(0..stubs[s2].len())];
                topo.add_link(a, b, TRANSIT_STUB);
            }
        } else {
            let members = &stubs[s];
            if members.len() >= 2 {
                let a = members[rng.random_range(0..members.len())];
                let b = members[rng.random_range(0..members.len())];
                topo.add_link(a, b, INTRA_STUB);
            }
        }
    }
    topo
}

/// Generate a transit-stub topology sized so that the base `link` relation
/// holds about `link_tuples` directed tuples (the x-axis of Figs. 11–12).
/// Node count scales with the target: dense keeps 4 links/node, sparse 2.
pub fn transit_stub_for_links(link_tuples: usize, density: Density, seed: u64) -> Topology {
    // link_tuples = 2 × undirected links = degree × nodes.
    let nodes = (link_tuples / density.degree()).max(8);
    // Keep the paper's stub shape; scale the transit tier.
    let per_transit = 3 * 8; // stubs_per_transit × nodes_per_stub
    let transits = ((nodes as f64) / (per_transit as f64 + 1.0))
        .round()
        .max(1.0) as usize;
    let params = TransitStubParams {
        domains: 1,
        transits_per_domain: transits,
        stubs_per_transit: 3,
        nodes_per_stub: 8,
        density,
    };
    transit_stub(params, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_shape() {
        let t = transit_stub(TransitStubParams::default(), 1);
        assert_eq!(t.node_count(), 100, "4 transits + 4×3×8 stub routers");
        assert!(t.is_connected());
        // ~200 bidirectional links → ~400 link tuples.
        let tuples = t.link_tuple_count();
        assert!((340..=440).contains(&tuples), "got {tuples} link tuples");
        let deg = t.avg_degree();
        assert!((3.2..=4.4).contains(&deg), "dense degree ≈ 4, got {deg}");
    }

    #[test]
    fn sparse_halves_degree() {
        let p = TransitStubParams {
            density: Density::Sparse,
            ..Default::default()
        };
        let t = transit_stub(p, 1);
        assert!(t.is_connected());
        assert!(
            t.avg_degree() < 3.0,
            "sparse degree ≈ 2, got {}",
            t.avg_degree()
        );
    }

    #[test]
    fn latency_classes_present() {
        let t = transit_stub(TransitStubParams::default(), 2);
        let lats: std::collections::BTreeSet<u64> =
            t.links.iter().map(|l| l.latency.micros()).collect();
        assert!(lats.contains(&2_000), "intra-stub 2ms");
        assert!(lats.contains(&10_000), "transit-stub 10ms");
        assert!(lats.contains(&50_000), "transit-transit 50ms");
    }

    #[test]
    fn transit_class_assigned() {
        let t = transit_stub(TransitStubParams::default(), 1);
        let transits = t
            .classes
            .iter()
            .filter(|c| **c == NodeClass::Transit)
            .count();
        assert_eq!(transits, 4);
    }

    #[test]
    fn scaling_hits_link_targets() {
        for (target, density) in [
            (100, Density::Dense),
            (200, Density::Dense),
            (400, Density::Dense),
            (800, Density::Dense),
        ] {
            let t = transit_stub_for_links(target, density, 5);
            assert!(t.is_connected(), "target {target}");
            let got = t.link_tuple_count();
            let lo = target * 6 / 10;
            let hi = target * 15 / 10;
            assert!(
                (lo..=hi).contains(&got),
                "target {target} tuples, got {got} (nodes {})",
                t.node_count()
            );
        }
    }

    #[test]
    fn determinism() {
        let a = transit_stub(TransitStubParams::default(), 9);
        let b = transit_stub(TransitStubParams::default(), 9);
        assert_eq!(a.links, b.links);
    }

    /// Locality numbering: within each domain, the transits and then each
    /// stub as one contiguous address run; every intra-stub link joins two
    /// addresses of one run, and a run's consecutive addresses are linked.
    #[test]
    fn stubs_are_contiguous_address_runs_after_the_transits() {
        for (domains, transits, stubs, per_stub, density, seed) in [
            (1, 4, 3, 8, Density::Dense, 1),
            (1, 4, 3, 8, Density::Sparse, 7),
            (1, 2, 5, 6, Density::Dense, 3),
            (1, 7, 2, 3, Density::Sparse, 11),
            (3, 4, 3, 8, Density::Dense, 4),
        ] {
            let p = TransitStubParams {
                domains,
                transits_per_domain: transits,
                stubs_per_transit: stubs,
                nodes_per_stub: per_stub,
                density,
            };
            let t = transit_stub(p, seed);
            let domain_len = transits * (1 + stubs * per_stub);
            assert_eq!(t.node_count(), domains * domain_len);
            // The run an address belongs to: `None` for a transit, else the
            // stub's global index.
            let run = |a: NetAddr| {
                let (d, off) = (a.0 as usize / domain_len, a.0 as usize % domain_len);
                (off >= transits).then(|| d * transits * stubs + (off - transits) / per_stub)
            };
            for (i, (&a, &class)) in t.nodes.iter().zip(&t.classes).enumerate() {
                assert_eq!(a, NetAddr(i as u32));
                let want = if run(a).is_some() {
                    NodeClass::Stub
                } else {
                    NodeClass::Transit
                };
                assert_eq!(class, want, "{p:?}: address {i}");
            }
            for l in t.links.iter().filter(|l| l.latency == INTRA_STUB) {
                assert!(run(l.a).is_some(), "{p:?}: {l:?}");
                assert_eq!(run(l.a), run(l.b), "{p:?}: {l:?} leaves its run");
            }
            let linked: std::collections::HashSet<(NetAddr, NetAddr)> = t
                .links
                .iter()
                .map(|l| (l.a.min(l.b), l.a.max(l.b)))
                .collect();
            for i in 1..t.node_count() as u32 {
                let (a, b) = (NetAddr(i - 1), NetAddr(i));
                if run(a).is_some() && run(a) == run(b) {
                    assert!(linked.contains(&(a, b)), "{p:?}: run broken at {i}");
                }
            }
        }
    }

    #[test]
    fn multiple_domains_connected() {
        let p = TransitStubParams {
            domains: 3,
            ..Default::default()
        };
        let t = transit_stub(p, 4);
        assert_eq!(t.node_count(), 300);
        assert!(t.is_connected());
    }
}
