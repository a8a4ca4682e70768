//! The checkpoint codec: one vocabulary for every byte of engine state.
//!
//! Serialises peer state into self-contained byte blobs at a *converged*
//! boundary — the same quiescent seam the serving layer publishes from. The
//! barrier rule is what makes a per-peer snapshot a consistent global one:
//! at convergence no messages are in flight and no timers are armed (the
//! run-to-quiescence fence drains both), so the union of per-peer blobs
//! captures the entire distributed state with no cut crossing a channel.
//!
//! **One vocabulary.** A type that appears in a checkpoint implements
//! [`Field`]: it appends itself to a `Vec<u8>` and reads itself back off a
//! [`Reader`]. Each encoding is written once, here, over
//! [`netrec_types::wire`]'s varints and tuples:
//!
//! * `u32`, `u64` — a varint; a `u32` wider than 32 bits is corrupt;
//! * [`RelId`] — a varint; wider than 16 bits is corrupt;
//! * `bool` — one 0/1 byte; `Option<T>` — a 0/1 byte, then the value;
//! * [`Tuple`] — the wire tuple;
//! * [`Prov`] — a variant tag, then the payload (a BDD's encoding as a
//!   length-prefixed byte string, a relative graph's own node list);
//! * sequences (`Vec<T>`, `Arc<[T]>`) — a count, then the items in order;
//!   [`Reader::count`] bounds the count by the bytes left, before anything
//!   is allocated, and is the only place a count is bounded;
//! * sets and maps (`FxHashSet`, `FxHashMap`, [`VarTable`], a
//!   [`ProvTable`]'s tuple → annotation map) — a sequence in strictly
//!   ascending key order: written sorted, and a repeated key on read is
//!   [`WireError::Corrupt`], never merged into the entry before it;
//! * pairs — the two fields in order.
//!
//! So an operator's `checkpoint` is the list of its fields, and its
//! `restore` reads the same list back and rebuilds only the structure the
//! fields determine (Join's key index, AggSel's groups and bests,
//! Aggregate's value multisets, MinShip's ledger byte count). A new
//! operator writes those two lists — in the same order, each field through
//! its [`Field`] impl, a [`ProvTable`] through [`put_table`]/[`get_table`]
//! — and one arm in each of `EnginePeer::{checkpoint, restore}`, which give
//! every operator a length-prefixed section ([`put_section`],
//! [`Reader::section`]). A type of its own that it stores whole gets a
//! `Field` impl here, built from the ones above.
//!
//! **What an annotation becomes is the reader's one parameter**
//! ([`Reader::new`]'s manager). Reading peer state, a BDD is built in that
//! peer's manager; reading a message on a link (`wiremsg`, no manager), its
//! encoding is checked and kept as bytes. The `Msg` path runs through this
//! vocabulary, so every non-generic encoding it calls is `#[inline]`.
//!
//! Decoding is two-phase by construction: every section validates fully
//! before anything is installed into live operator state, and all restore
//! entry points build into *fresh* state that is dropped wholesale on error
//! — a corrupted or truncated checkpoint fails loudly and never
//! half-applies.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use netrec_bdd::{BddManager, Var};
use netrec_prov::{Prov, RelProv, VarTable};
use netrec_types::wire::{self, WireError};
use netrec_types::{RelId, Tuple};

use crate::ops::ProvTable;

/// A type with one checkpoint encoding.
pub(crate) trait Field: Sized {
    /// Append the encoding.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one encoding off the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encoded bytes not yet read, and what becomes of the annotations in them.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    /// Builds the BDDs of annotations in peer state; `None` on a link, where
    /// they are checked and kept as bytes.
    mgr: Option<&'a BddManager>,
}

impl<'a> Reader<'a> {
    /// A reader of `buf` whose annotations are built in `mgr` (a peer's own
    /// state) or, without one, checked and kept as bytes (a message on a
    /// link).
    #[inline]
    pub(crate) fn new(buf: &'a [u8], mgr: Option<&'a BddManager>) -> Reader<'a> {
        Reader { buf, mgr }
    }

    /// Read one `T`.
    pub(crate) fn get<T: Field>(&mut self) -> Result<T, WireError> {
        T::get(self)
    }

    /// The bytes not yet read.
    #[inline]
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// One raw byte (a tag).
    #[inline]
    pub(crate) fn byte(&mut self) -> Result<u8, WireError> {
        let (&b, rest) = self.buf.split_first().ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(b)
    }

    /// A sequence's count. Every item takes at least one byte, so a count
    /// beyond the bytes left is a truncation — caught here, before the
    /// caller allocates for it.
    #[inline]
    pub(crate) fn count(&mut self) -> Result<usize, WireError> {
        let n = wire::get_varint(&mut self.buf)?;
        if n > self.buf.len() as u64 {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }

    /// A length-prefixed byte string ([`put_bytes`]).
    #[inline]
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count()?;
        let (bytes, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(bytes)
    }

    /// A length-prefixed section ([`put_section`]) as a reader of its own.
    pub(crate) fn section(&mut self) -> Result<Reader<'a>, WireError> {
        Ok(Reader::new(self.bytes()?, self.mgr))
    }

    /// `Corrupt(what)` unless every byte has been read.
    pub(crate) fn finish(&self, what: &'static str) -> Result<(), WireError> {
        match self.buf {
            [] => Ok(()),
            _ => Err(WireError::Corrupt(what)),
        }
    }
}

/// Append a count (of items, or of bytes).
#[inline]
pub(crate) fn put_count(out: &mut Vec<u8>, n: usize) {
    wire::put_varint(out, n as u64);
}

/// Append a length-prefixed byte string.
#[inline]
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Append whatever `write` writes as one length-prefixed section.
pub(crate) fn put_section(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let mut section = Vec::new();
    write(&mut section);
    put_bytes(out, &section);
}

// --- Sequences, sets and maps ---------------------------------------------

fn put_seq<'e, T: Field + 'e>(out: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'e T>) {
    put_count(out, items.len());
    for item in items {
        item.put(out);
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.iter());
    }

    fn get(r: &mut Reader<'_>) -> Result<Vec<T>, WireError> {
        let n = r.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(r.get()?);
        }
        Ok(items)
    }
}

impl<T: Field> Field for Arc<[T]> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.iter());
    }

    fn get(r: &mut Reader<'_>) -> Result<Arc<[T]>, WireError> {
        r.get::<Vec<T>>().map(Arc::from)
    }
}

/// Append a map: its entries in ascending key order, each key before its
/// value — the sequence of pairs [`get_map`] reads back.
fn put_map<'e, K: Field + Ord + 'e, V: Field + 'e>(
    out: &mut Vec<u8>,
    entries: impl IntoIterator<Item = (&'e K, &'e V)>,
) {
    let mut entries: Vec<(&K, &V)> = entries.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    put_count(out, entries.len());
    for (k, v) in entries {
        k.put(out);
        v.put(out);
    }
}

/// Read a map written by [`put_map`], as its entries in key order.
fn get_map<K: Field + Ord, V: Field>(r: &mut Reader<'_>) -> Result<Vec<(K, V)>, WireError> {
    ascending(r.get()?, |(k, _)| k)
}

/// `items`, if their keys strictly ascend — the order every set and map is
/// written in, so a repeated key is corrupt, never merged.
fn ascending<T, K: Ord>(items: Vec<T>, key: impl Fn(&T) -> &K) -> Result<Vec<T>, WireError> {
    if items.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
        return Err(WireError::Corrupt("repeated or unordered checkpoint key"));
    }
    Ok(items)
}

/// A set: its items in ascending order.
impl<T: Field + Ord + Hash, S: BuildHasher + Default> Field for HashSet<T, S> {
    fn put(&self, out: &mut Vec<u8>) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        put_seq(out, items.into_iter());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ascending(r.get()?, |t| t)?.into_iter().collect())
    }
}

impl<K: Field + Ord + Hash, V: Field, S: BuildHasher + Default> Field for HashMap<K, V, S> {
    fn put(&self, out: &mut Vec<u8>) {
        put_map(out, self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(get_map(r)?.into_iter().collect())
    }
}

/// The live base tuples of an ingress: the map `(relation, tuple) → variable`.
impl Field for VarTable {
    fn put(&self, out: &mut Vec<u8>) {
        let entries: Vec<((RelId, Tuple), Var)> =
            self.iter().map(|(r, t, v)| ((r, t.clone()), v)).collect();
        put_map(out, entries.iter().map(|(k, v)| (k, v)));
    }

    fn get(r: &mut Reader<'_>) -> Result<VarTable, WireError> {
        let mut table = VarTable::new();
        for ((rel, t), v) in get_map(r)? {
            table.restore(rel, t, v);
        }
        Ok(table)
    }
}

/// Append a provenance table: the map tuple → annotation.
pub(crate) fn put_table(out: &mut Vec<u8>, table: &ProvTable) {
    put_map(out, table.iter());
}

/// Read a table written by [`put_table`] into a fresh table with `like`'s
/// mode and indexing; `restore_entry` rebuilds the byte counter and the
/// variable index entry by entry.
pub(crate) fn get_table(r: &mut Reader<'_>, like: &ProvTable) -> Result<ProvTable, WireError> {
    let mut table = ProvTable::new(like.mode(), like.indexed());
    for (t, p) in get_map(r)? {
        table.restore_entry(t, p);
    }
    Ok(table)
}

// --- Scalars ----------------------------------------------------------------

impl Field for u32 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, u64::from(*self));
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<u32, WireError> {
        wire::get_u32(&mut r.buf)
    }
}

impl Field for u64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, *self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<u64, WireError> {
        wire::get_varint(&mut r.buf)
    }
}

impl Field for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<bool, WireError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Field for RelId {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, u64::from(self.0));
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<RelId, WireError> {
        let id = u16::try_from(r.get::<u64>()?);
        id.map(RelId)
            .map_err(|_| WireError::Corrupt("relation id out of range"))
    }
}

impl Field for Tuple {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        wire::put_tuple(out, self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Tuple, WireError> {
        wire::get_tuple(&mut r.buf)
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Option<T>, WireError> {
        r.get::<bool>()?.then(|| r.get()).transpose()
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<(A, B), WireError> {
        Ok((r.get()?, r.get()?))
    }
}

// --- Annotations ------------------------------------------------------------

/// Prov variant tags on the wire. Tag 1 must stay unassigned: it belonged
/// to a retired annotation, and a stale checkpoint or frame carrying it has
/// to fail as a bad tag.
const PROV_NONE: u8 = 0;
const PROV_BDD: u8 = 2;
const PROV_REL: u8 = 3;

/// A tag byte, then the variant payload. BDDs are length-prefixed because
/// their encoding is not self-delimiting; relative graphs carry their own
/// node count and consume exactly their bytes. A handle and the wire form of
/// the same function write the same bytes.
impl Field for Prov {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Prov::None => out.push(PROV_NONE),
            Prov::Bdd(b) => {
                out.push(PROV_BDD);
                put_bytes(out, &b.encode());
            }
            Prov::Wire(bytes) => {
                out.push(PROV_BDD);
                put_bytes(out, bytes);
            }
            Prov::Rel(rel) => {
                out.push(PROV_REL);
                rel.encode(out);
            }
        }
    }

    /// A BDD is built in the reader's manager — hash-consing merges it with
    /// whatever the peer already holds, exactly how a receiving peer absorbs
    /// a shipped annotation — or, on a link, checked by the rules `decode`
    /// applies and kept as the bytes the addressee will build from.
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Prov, WireError> {
        match r.byte()? {
            PROV_NONE => Ok(Prov::None),
            PROV_BDD => {
                let bytes = r.bytes()?;
                let prov = match r.mgr {
                    Some(mgr) => mgr.decode(bytes).map(Prov::Bdd),
                    None => netrec_bdd::check_encoding(bytes).map(|()| Prov::Wire(bytes.into())),
                };
                prov.map_err(|_| WireError::Corrupt("invalid BDD encoding"))
            }
            PROV_REL => Ok(Prov::Rel(Arc::new(RelProv::decode(&mut r.buf)?))),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::aggsel::AggSelState;
    use crate::ops::{IngressOp, MinShipOp};
    use crate::peer::EnginePeer;
    use crate::plan::{AggSelSpec, Dest, OpId, PlanBuilder};
    use crate::strategy::Strategy;
    use netrec_prov::ProvMode;
    use netrec_sim::{Partitioner, PeerId};
    use netrec_types::Value;

    fn t(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    fn roundtrip_table(src: &ProvTable, mgr: &BddManager) -> ProvTable {
        let mut bytes = Vec::new();
        put_table(&mut bytes, src);
        let like = ProvTable::new(src.mode(), true);
        let mut r = Reader::new(&bytes, Some(mgr));
        let back = get_table(&mut r, &like).expect("decode");
        assert!(r.rest().is_empty());
        back
    }

    #[test]
    fn prov_variants_roundtrip() {
        let mgr = BddManager::new();
        let cases = [
            Prov::None,
            Prov::Bdd(mgr.var(7).or(&mgr.var(9))),
            Prov::base(ProvMode::Relative, 5, &mgr),
        ];
        for p in &cases {
            let mut bytes = Vec::new();
            p.put(&mut bytes);
            let mut r = Reader::new(&bytes, Some(&mgr));
            let back: Prov = r.get().expect("decode");
            assert!(r.rest().is_empty(), "{p:?} left trailing bytes");
            assert_eq!(back.encoded_len(), p.encoded_len());
            match (p, &back) {
                (Prov::None, Prov::None) => {}
                (Prov::Bdd(a), Prov::Bdd(b)) => assert_eq!(a, b),
                (Prov::Rel(a), Prov::Rel(b)) => assert_eq!(a.support(), b.support()),
                _ => panic!("variant changed across roundtrip"),
            }
        }
        // The retired tag 1 is no variant, in a checkpoint or on a link.
        for mgr in [Some(&mgr), None] {
            let mut r = Reader::new(&[1, 5], mgr);
            assert!(matches!(r.get::<Prov>(), Err(WireError::BadTag(1))));
        }
    }

    #[test]
    fn table_roundtrip_rebuilds_var_index() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, true);
        pt.merge_ins(&t(1), &Prov::Bdd(mgr.var(1).or(&mgr.var(2))));
        pt.merge_ins(&t(2), &Prov::Bdd(mgr.var(1)));
        let mut back = roundtrip_table(&pt, &mgr);
        assert_eq!(back.len(), pt.len());
        assert_eq!(back.state_bytes(), pt.state_bytes());
        let outcomes = back.restrict_cause(&[1]);
        assert_eq!(outcomes.len(), 2, "index must find both dependents");
        assert!(!back.contains(&t(2)) && back.contains(&t(1)));
    }

    #[test]
    fn truncated_table_fails_loudly() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, false);
        pt.merge_ins(&t(1), &Prov::Bdd(mgr.var(1)));
        pt.merge_ins(&t(2), &Prov::Bdd(mgr.var(2)));
        let mut bytes = Vec::new();
        put_table(&mut bytes, &pt);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut], Some(&mgr));
            assert!(get_table(&mut r, &pt).is_err(), "prefix {cut} decoded");
        }
    }

    /// Every set and map of a checkpoint is written in ascending key order
    /// and read back only in it: a key that repeats is corrupt, never merged
    /// into the entry before it. One case per collection that used to merge;
    /// each decodes with two distinct keys and fails with one key twice.
    #[test]
    fn repeated_key_in_any_checkpointed_collection_is_rejected() {
        let mgr = BddManager::new();
        let tuple = |i: i64| {
            let mut bytes = Vec::new();
            wire::put_tuple(&mut bytes, &t(i));
            bytes
        };
        let (t1, t2) = (tuple(1), tuple(2));

        // A peer hosting `link` ingress → `reach` store: allocator mark,
        // then the dead variables, then the operator sections.
        let mut b = PlanBuilder::new();
        let link = b.edb("link", &["src", "dst"], 0);
        let reach = b.idb("reach", &["src", "dst"], 0);
        let ing = b.ingress(link);
        let store = b.store(reach, true, None);
        b.connect(ing, store, 0);
        let plan = b.build().expect("plan");
        let strategy = Strategy::absorption_lazy();
        let partitioner = Partitioner::Direct { peers: 1 };
        let fresh = EnginePeer::new(PeerId(0), &plan, strategy, partitioner).checkpoint();
        assert_eq!(fresh[..2], [0, 0], "allocator mark, no dead variables");
        let peer = |dead: &[u8]| {
            let bytes = [&[0], dead, &fresh[2..]].concat();
            EnginePeer::restore(PeerId(0), &plan, strategy, partitioner, &bytes).map(drop)
        };
        // MinShip: empty `sent`, `pins` and `pdel`, then `dirty`, then an
        // empty ledger, no relation seen, no timer armed.
        let minship = |dirty: &[u8]| {
            let bytes = [&[0, 0, 0], dirty, &[0, 0, 0]].concat();
            let dest = Dest {
                op: OpId(0),
                input: 0,
            };
            MinShipOp::new(None, dest, ProvMode::Absorption)
                .restore(&mut Reader::new(&bytes, Some(&mgr)))
        };
        // AggSel: an empty table, then `forwarded`.
        let aggsel = |forwarded: &[u8]| {
            let bytes = [&[0], forwarded].concat();
            let spec = AggSelSpec {
                group_cols: vec![0],
                aggs: Vec::new(),
            };
            AggSelState::new(spec, ProvMode::Absorption)
                .restore(&mut Reader::new(&bytes, Some(&mgr)))
        };
        // Ingress: no live tuples, then the TTL map id → (tuple, no
        // variable), then the next TTL id.
        let ingress = |ttls: &[u8]| {
            let bytes = [&[0], ttls, &[6]].concat();
            IngressOp::new(RelId(0), 0, Vec::new(), false).restore(&mut Reader::new(&bytes, None))
        };
        let two = |a: &[u8], b: &[u8]| [&[2], a, b].concat();
        let ttl = |id: u8| [&[id], &t1[..], &[0]].concat();
        type Restore<'a> = &'a dyn Fn(&[u8]) -> Result<(), WireError>;
        let cases: [(&str, Restore, Vec<u8>, Vec<u8>); 4] = [
            ("dead variable", &peer, vec![2, 7, 8], vec![2, 7, 7]),
            ("dirty tuple", &minship, two(&t1, &t2), two(&t1, &t1)),
            ("forwarded tuple", &aggsel, two(&t1, &t2), two(&t1, &t1)),
            (
                "TTL id",
                &ingress,
                two(&ttl(4), &ttl(5)),
                two(&ttl(5), &ttl(5)),
            ),
        ];
        for (what, restore, distinct, repeated) in cases {
            assert_eq!(restore(&distinct), Ok(()), "{what}: distinct keys");
            assert!(
                matches!(restore(&repeated), Err(WireError::Corrupt(_))),
                "repeated {what} accepted"
            );
        }
    }
}
