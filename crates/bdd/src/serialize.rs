//! Compact DAG serialisation of BDDs.
//!
//! This is the format in which absorption provenance crosses the simulated
//! network, and its length is the paper's "per-tuple provenance overhead (B)"
//! metric. The encoding is a child-first node list:
//!
//! ```text
//! varint(node_count)
//! for each interior node, child-first:
//!     varint(var)  varint(lo_ref)  varint(hi_ref)
//! ```
//!
//! where a child reference is `0` for the FALSE terminal, `1` for TRUE, and
//! `k + 2` for the `k`-th node of the list. The root is the last node (or the
//! encoding is `[0]`/`[1]` alone for the constants, using a one-byte tag).

use netrec_types::wire::{get_varint, put_varint};

use crate::arena::{Arena, NodeId, Var, FALSE, TRUE};
use crate::handle::{Bdd, BddManager};

/// Error decoding a serialised BDD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the announced node count was read.
    Truncated,
    /// A child reference pointed at a node not yet defined.
    ForwardReference,
    /// Variable ordering was violated (child variable ≤ parent variable).
    OrderViolation,
    /// Trailing bytes after the root node.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated BDD encoding"),
            DecodeError::ForwardReference => write!(f, "forward child reference"),
            DecodeError::OrderViolation => write!(f, "variable order violation"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The wire encoding of the function rooted at `id`.
fn encode_in(arena: &mut Arena, id: NodeId) -> Vec<u8> {
    if id <= TRUE {
        return vec![0, id as u8];
    }
    let triples = arena.nodes_triples(id);
    let mut out = Vec::with_capacity(2 + triples.len() * 4);
    put_varint(&mut out, triples.len() as u64);
    for (var, lo_ref, hi_ref) in triples {
        put_varint(&mut out, u64::from(var));
        put_varint(&mut out, u64::from(lo_ref));
        put_varint(&mut out, u64::from(hi_ref));
    }
    out
}

impl Bdd {
    /// Serialise to the compact wire format.
    pub fn encode(&self) -> Vec<u8> {
        self.mgr.with_arena(|a| encode_in(a, self.id))
    }

    /// Length of [`Bdd::encode`], without encoding: the same child-first
    /// walk as the encoder's, adding up the varint lengths of the node count
    /// and of each `(var, lo_ref, hi_ref)` instead of writing them (the two
    /// definitions are pinned equal by test). Not memoised: since wire
    /// metadata is read off bytes that exist, what is left to measure is
    /// operator-state accounting, and there a per-root memo lost to the
    /// plain walk (DESIGN.md "BDD kernel").
    pub fn encoded_len(&self) -> usize {
        if self.id <= TRUE {
            return 2;
        }
        self.mgr.with_arena(|a| a.encoded_len(self.id))
    }
}

/// The one definition of a well-formed encoding: read `bytes` node by node,
/// checking every rule a [`DecodeError`] names, and hand each checked
/// `(var, lo_ref, hi_ref)` to `node` in list order. Returns the root's
/// reference (`0`/`1` for the constants, else the last node's).
fn walk(bytes: &[u8], mut node: impl FnMut(Var, usize, usize)) -> Result<usize, DecodeError> {
    // An over-long varint reads as truncation, like running out of bytes.
    fn next(buf: &mut &[u8]) -> Result<u64, DecodeError> {
        get_varint(buf).map_err(|_| DecodeError::Truncated)
    }
    let buf = &mut &bytes[..];
    let count = next(buf)? as usize;
    // Every interior node costs at least three bytes, so a count larger
    // than that bound is necessarily truncated — reject before allocating.
    if count > bytes.len() / 3 + 1 {
        return Err(DecodeError::Truncated);
    }
    if count == 0 {
        return match **buf {
            [] => Err(DecodeError::Truncated),
            [c @ (0 | 1)] => Ok(usize::from(c)),
            [_] => Err(DecodeError::ForwardReference),
            _ => Err(DecodeError::TrailingBytes),
        };
    }
    // Each reference's variable, so ordering can be validated; the terminals
    // sort above every variable.
    let mut vars: Vec<u32> = Vec::with_capacity(count + 2);
    vars.extend([u32::MAX, u32::MAX]);
    for _ in 0..count {
        // A variable that does not fit 32 bits sorts above the terminals —
        // never truncate it into a valid one.
        let var = u32::try_from(next(buf)?).map_err(|_| DecodeError::OrderViolation)?;
        let lo_ref = next(buf)? as usize;
        let hi_ref = next(buf)? as usize;
        if lo_ref >= vars.len() || hi_ref >= vars.len() {
            return Err(DecodeError::ForwardReference);
        }
        if var >= vars[lo_ref] || var >= vars[hi_ref] {
            return Err(DecodeError::OrderViolation);
        }
        node(var, lo_ref, hi_ref);
        vars.push(var);
    }
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(vars.len() - 1)
}

/// Is `bytes` an encoding [`BddManager::decode`] accepts? The same checked
/// walk, making no node and needing no manager: a transport validates an
/// annotation it only carries, and the peer it is addressed to builds it.
pub fn check_encoding(bytes: &[u8]) -> Result<(), DecodeError> {
    walk(bytes, |_, _, _| {}).map(|_| ())
}

impl BddManager {
    /// Rebuild a serialised function inside *this* manager (hash-consing
    /// merges it with existing nodes, which is how a receiving peer absorbs a
    /// shipped annotation into its local state).
    pub fn decode(&self, bytes: &[u8]) -> Result<Bdd, DecodeError> {
        // One critical section from the first node made to the root's
        // reference taken: the ids in `ids` are held by no handle.
        self.try_build(|a| {
            // At least three bytes per node bound the list's length.
            let mut ids: Vec<NodeId> = Vec::with_capacity(bytes.len() / 3 + 2);
            ids.extend([FALSE, TRUE]);
            let root = walk(bytes, |var, lo_ref, hi_ref| {
                ids.push(a.mk(var, ids[lo_ref], ids[hi_ref]));
            })?;
            Ok(ids[root])
        })
    }
}
