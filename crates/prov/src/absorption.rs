//! Base-tuple variable management for annotation-carrying schemes.
//!
//! Every EDB insertion is assigned a fresh provenance variable by the peer
//! that owns the tuple. A variable's value is its place in the BDD order
//! (smaller is nearer the root), and it is laid out as
//!
//! ```text
//!   31 ............ 20 19 ................ 0
//!   [      block     ] [ home peer's counter ]
//! ```
//!
//! The block is the **address in the base tuple's partition attribute**
//! when that address is below [`ADDR_RANKS`]. The order then follows the
//! locality numbering the topology generators emit (transit-stub: transits,
//! then each stub contiguously; sensor grid: row-major), so neighbouring
//! links get neighbouring variables, and a re-inserted tuple gets a new
//! variable inside the same block (DESIGN.md "Variable order"). Any other
//! partition value — a non-address key, an address at or past
//! [`ADDR_RANKS`], or none — takes the home peer's *fallback block*
//! `ADDR_RANKS + peer`: peer-major, below every address block.
//!
//! Uniqueness needs no coordination. The caller passes an address only
//! for a tuple its peer owns, and placement is a function of the address,
//! so each address block is written by one peer; each fallback block
//! belongs to one peer; and within a peer the counter never repeats. If a
//! tuple is deleted and later re-inserted it receives a *new* variable:
//! the old derivations died with the old variable.

use netrec_bdd::Var;
use netrec_types::{FxHashMap, RelId, Tuple, Value};

/// Bits of the per-peer counter: 2^20 ≈ 1.05 M base insertions per peer.
const COUNTER_BITS: u32 = 20;

/// Addresses with a block of their own: `0..ADDR_RANKS`. Every address of
/// a ≤ 256-node topology gives a variable below 2^28, four varint bytes.
pub const ADDR_RANKS: u32 = 1 << 11;

/// Peers with a fallback block: `0..MAX_PEERS`.
const MAX_PEERS: u32 = 1 << 10;

// The highest variable (last fallback block, last counter value) stays
// below the BDD's terminal marker, `u32::MAX`.
const _: () = assert!(
    ((ADDR_RANKS + MAX_PEERS) as u64) << COUNTER_BITS <= u32::MAX as u64,
    "variable layout overflows 32 bits"
);

/// Allocates provenance variables for one peer.
#[derive(Clone, Debug)]
pub struct VarAllocator {
    peer: u32,
    next: u32,
}

impl VarAllocator {
    /// Maximum variables one peer can ever allocate (the counter-field
    /// capacity). Checkpoint restore validates against this bound before
    /// rebuilding an allocator.
    pub const CAPACITY: u32 = 1 << COUNTER_BITS;

    /// Allocator for physical peer `peer`.
    pub fn new(peer: u32) -> VarAllocator {
        VarAllocator::with_allocated(peer, 0)
    }

    /// Allocate a fresh variable for a base tuple whose partition value is
    /// `key`. Pass an address only if this peer owns it; `None` (or any
    /// non-address value) allocates in this peer's fallback block.
    pub fn alloc(&mut self, key: Option<&Value>) -> Var {
        assert!(
            self.next < Self::CAPACITY,
            "variable space exhausted for peer {}",
            self.peer
        );
        let block = match key {
            Some(Value::Addr(a)) if a.0 < ADDR_RANKS => a.0,
            _ => ADDR_RANKS + self.peer,
        };
        let v = (block << COUNTER_BITS) | self.next;
        self.next += 1;
        v
    }

    /// Rebuild an allocator from checkpointed state: the next allocation
    /// after restore continues exactly where the crashed peer left off, so
    /// recovered variables never collide with pre-crash ones.
    pub fn with_allocated(peer: u32, allocated: u32) -> VarAllocator {
        assert!(peer < MAX_PEERS, "peer id out of range");
        assert!(
            allocated <= Self::CAPACITY,
            "checkpointed allocation count out of range for peer {peer}"
        );
        VarAllocator {
            peer,
            next: allocated,
        }
    }

    /// Number of variables handed out so far.
    pub fn allocated(&self) -> u32 {
        self.next
    }
}

/// Per-peer map from live base tuples to their current variable.
///
/// Used at ingress: an EDB `Insert` allocates and records a variable; an EDB
/// `Delete` (explicit or TTL expiry) looks up and removes it, yielding the
/// variable whose deletion must be propagated.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    live: FxHashMap<(RelId, Tuple), Var>,
}

impl VarTable {
    /// Empty table.
    pub fn new() -> VarTable {
        VarTable::default()
    }

    /// Record a newly inserted base tuple, allocating its variable under
    /// partition value `key` (see [`VarAllocator::alloc`]). Returns `None`
    /// (and leaves the table unchanged) if the tuple is already live — set
    /// semantics: a duplicate base insertion is a no-op.
    pub fn insert(
        &mut self,
        rel: RelId,
        tuple: Tuple,
        key: Option<&Value>,
        alloc: &mut VarAllocator,
    ) -> Option<Var> {
        use std::collections::hash_map::Entry;
        match self.live.entry((rel, tuple)) {
            Entry::Occupied(_) => None,
            Entry::Vacant(e) => {
                let v = alloc.alloc(key);
                e.insert(v);
                Some(v)
            }
        }
    }

    /// Remove a base tuple, returning its variable; `None` if it was not
    /// live (deletion of an absent tuple is ignored, per Algorithm 4's
    /// "deletions before insertions are not allowed" assumption).
    pub fn remove(&mut self, rel: RelId, tuple: &Tuple) -> Option<Var> {
        self.live.remove(&(rel, tuple.clone()))
    }

    /// Re-install a checkpointed entry with its original variable, bypassing
    /// the allocator. Restore-only: panics if the tuple is already live,
    /// which would mean a checkpoint carried the same base tuple twice.
    pub fn restore(&mut self, rel: RelId, tuple: Tuple, var: Var) {
        let prev = self.live.insert((rel, tuple), var);
        assert!(prev.is_none(), "checkpoint restored a duplicate base tuple");
    }

    /// Current variable of a live base tuple.
    pub fn get(&self, rel: RelId, tuple: &Tuple) -> Option<Var> {
        self.live.get(&(rel, tuple.clone())).copied()
    }

    /// Number of live base tuples.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no base tuples are live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Iterate over live `(rel, tuple, var)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &Tuple, Var)> + '_ {
        self.live.iter().map(|((r, t), v)| (*r, t, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_types::NetAddr;

    fn t(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    fn addr(a: u32) -> Value {
        Value::Addr(NetAddr(a))
    }

    /// Address keys allocate in the address's block, everything else in the
    /// peer's fallback block; no two peers' variables meet.
    #[test]
    fn allocator_is_peer_disjoint() {
        let mut a0 = VarAllocator::new(0);
        let mut a1 = VarAllocator::new(1);
        let v5 = a1.alloc(Some(&addr(5)));
        let v3 = a0.alloc(Some(&addr(3)));
        let v3b = a0.alloc(Some(&addr(3)));
        let int0 = a0.alloc(Some(&Value::Int(5)));
        let int1 = a1.alloc(Some(&Value::Int(5)));
        let none0 = a0.alloc(None);
        assert_eq!((v3, v3b, v5), (3 << 20, (3 << 20) | 1, 5 << 20));
        assert_eq!(int0, ((ADDR_RANKS) << 20) | 2);
        assert_eq!(int1, ((ADDR_RANKS + 1) << 20) | 1);
        assert_eq!(none0, ((ADDR_RANKS) << 20) | 3);
        let all = [v3, v3b, v5, int0, int1, none0];
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert_eq!(a0.allocated(), 4);
        assert_eq!(a1.allocated(), 2);
    }

    #[test]
    fn address_rank_edges() {
        let mut a = VarAllocator::new(7);
        let last = a.alloc(Some(&addr(ADDR_RANKS - 1)));
        let past = a.alloc(Some(&addr(ADDR_RANKS)));
        assert_eq!(last, (ADDR_RANKS - 1) << 20);
        assert_eq!(
            past,
            ((ADDR_RANKS + 7) << 20) | 1,
            "past the limit: fallback"
        );
        assert!(last < past);
        // Every address of a 256-node topology stays a 4-byte varint.
        assert!(
            VarAllocator::with_allocated(0, VarAllocator::CAPACITY - 1).alloc(Some(&addr(255)))
                < 1 << 28
        );
    }

    #[test]
    fn table_tracks_lifecycle() {
        let mut alloc = VarAllocator::new(0);
        let mut table = VarTable::new();
        let rel = RelId(0);
        let v1 = table.insert(rel, t(1), None, &mut alloc).expect("fresh");
        assert_eq!(
            table.insert(rel, t(1), None, &mut alloc),
            None,
            "duplicate is no-op"
        );
        assert_eq!(table.get(rel, &t(1)), Some(v1));
        assert_eq!(table.len(), 1);
        assert_eq!(table.remove(rel, &t(1)), Some(v1));
        assert_eq!(table.remove(rel, &t(1)), None, "double delete ignored");
        assert!(table.is_empty());
        // Re-insertion gets a fresh variable.
        let v2 = table
            .insert(rel, t(1), None, &mut alloc)
            .expect("fresh again");
        assert_ne!(v1, v2);
    }

    #[test]
    fn iter_exposes_live_tuples() {
        let mut alloc = VarAllocator::new(2);
        let mut table = VarTable::new();
        table.insert(RelId(0), t(1), None, &mut alloc);
        table.insert(RelId(1), t(2), None, &mut alloc);
        let mut seen: Vec<_> = table.iter().map(|(r, _, _)| r).collect();
        seen.sort();
        assert_eq!(seen, vec![RelId(0), RelId(1)]);
    }

    #[test]
    #[should_panic(expected = "peer id out of range")]
    fn oversized_peer_rejected() {
        let _ = VarAllocator::new(MAX_PEERS);
    }

    /// The last counter value of the last fallback block is allocated and
    /// stays below the terminal marker; one more allocation panics.
    #[test]
    #[should_panic(expected = "variable space exhausted for peer 1023")]
    fn exhaustion_panics_at_capacity() {
        let mut a = VarAllocator::with_allocated(MAX_PEERS - 1, VarAllocator::CAPACITY - 1);
        assert!(a.alloc(None) < u32::MAX);
        assert_eq!(a.allocated(), VarAllocator::CAPACITY);
        a.alloc(Some(&addr(0)));
    }

    #[test]
    #[should_panic(expected = "checkpointed allocation count out of range")]
    fn restore_past_capacity_rejected() {
        let _ = VarAllocator::with_allocated(0, VarAllocator::CAPACITY + 1);
    }

    #[test]
    fn restored_allocator_continues_without_collision() {
        let mut fresh = VarAllocator::new(3);
        let before: Vec<Var> = (0..5).map(|_| fresh.alloc(Some(&addr(9)))).collect();
        let mut restored = VarAllocator::with_allocated(3, fresh.allocated());
        let after = restored.alloc(Some(&addr(9)));
        assert!(!before.contains(&after));
        assert_eq!(after, before[4] + 1);
    }

    #[test]
    fn restored_table_matches_original() {
        let mut alloc = VarAllocator::new(0);
        let mut table = VarTable::new();
        table.insert(RelId(0), t(1), None, &mut alloc);
        table.insert(RelId(1), t(2), None, &mut alloc);
        let mut restored = VarTable::new();
        for (r, tuple, v) in table.iter() {
            restored.restore(r, tuple.clone(), v);
        }
        assert_eq!(restored.len(), table.len());
        assert_eq!(restored.get(RelId(0), &t(1)), table.get(RelId(0), &t(1)));
        assert_eq!(restored.get(RelId(1), &t(2)), table.get(RelId(1), &t(2)));
    }

    #[test]
    #[should_panic(expected = "duplicate base tuple")]
    fn restore_rejects_duplicates() {
        let mut table = VarTable::new();
        table.restore(RelId(0), t(1), 5);
        table.restore(RelId(0), t(1), 6);
    }
}
