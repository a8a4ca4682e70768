//! Epoch-barrier checkpoint codec.
//!
//! Serialises peer state into self-contained byte blobs at a *converged*
//! boundary — the same quiescent seam the serving layer publishes from. The
//! barrier rule is what makes a per-peer snapshot a consistent global one:
//! at convergence no messages are in flight and no timers are armed (the
//! run-to-quiescence fence drains both), so the union of per-peer blobs
//! captures the entire distributed state with no cut crossing a channel.
//!
//! Framing reuses [`netrec_types::wire`] primitives (varints, tuples,
//! values), so checkpoint bytes are TCP-ready: the same frames could be
//! streamed to a remote stable store without re-encoding.
//!
//! Decoding is two-phase by construction: every section validates fully
//! before anything is installed into live operator state, and all restore
//! entry points build into *fresh* state that is dropped wholesale on error
//! — a corrupted or truncated checkpoint fails loudly and never
//! half-applies.

use netrec_bdd::{BddManager, DecodeError};
use netrec_prov::{Prov, ProvMode};
use netrec_types::wire::{self, WireError};
use netrec_types::Tuple;

use crate::ops::ProvTable;

/// Prov variant tags on the wire.
const PROV_NONE: u8 = 0;
const PROV_COUNT: u8 = 1;
const PROV_BDD: u8 = 2;
const PROV_REL: u8 = 3;

/// Append one annotation: a tag byte, then the variant payload. BDDs are
/// length-prefixed because their encoding is not self-delimiting; relative
/// graphs carry their own node count and consume exactly their bytes. A
/// handle and the wire form of the same function write the same bytes.
pub(crate) fn put_prov(out: &mut Vec<u8>, p: &Prov) {
    let mut put_bdd = |bytes: &[u8]| {
        out.push(PROV_BDD);
        wire::put_varint(out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    };
    match p {
        Prov::None => out.push(PROV_NONE),
        Prov::Count(c) => {
            out.push(PROV_COUNT);
            wire::put_varint(out, *c as u64);
        }
        Prov::Bdd(b) => put_bdd(&b.encode()),
        Prov::Wire(bytes) => put_bdd(bytes),
        Prov::Rel(r) => {
            out.push(PROV_REL);
            r.encode(out);
        }
    }
}

/// Decode one annotation; `bdd` says what becomes of a BDD's encoding.
fn get_prov_with(
    buf: &mut &[u8],
    bdd: impl FnOnce(&[u8]) -> Result<Prov, DecodeError>,
) -> Result<Prov, WireError> {
    if buf.is_empty() {
        return Err(WireError::Truncated);
    }
    let tag = buf[0];
    *buf = &buf[1..];
    match tag {
        PROV_NONE => Ok(Prov::None),
        PROV_COUNT => Ok(Prov::Count(wire::get_varint(buf)? as i64)),
        PROV_BDD => {
            let len = wire::get_varint(buf)? as usize;
            if len > buf.len() {
                return Err(WireError::Truncated);
            }
            let prov = bdd(&buf[..len]).map_err(|_| WireError::Corrupt("invalid BDD encoding"))?;
            *buf = &buf[len..];
            Ok(prov)
        }
        PROV_REL => Ok(Prov::Rel(std::sync::Arc::new(
            netrec_prov::RelProv::decode(buf)?,
        ))),
        t => Err(WireError::BadTag(t)),
    }
}

/// Decode one annotation of a peer's own state, rebuilding BDDs inside its
/// `mgr` (hash-consing merges them with whatever the restored peer has
/// already decoded — exactly how a receiving peer absorbs a shipped
/// annotation).
pub(crate) fn get_prov(buf: &mut &[u8], mgr: &BddManager) -> Result<Prov, WireError> {
    get_prov_with(buf, |bytes| mgr.decode(bytes).map(Prov::Bdd))
}

/// Decode one annotation in transit between peers: a BDD's encoding is
/// checked — by the same rules `decode` applies, with no manager to build
/// into — and kept as the bytes the addressee will build from.
pub(crate) fn get_wire_prov(buf: &mut &[u8]) -> Result<Prov, WireError> {
    get_prov_with(buf, |bytes| {
        netrec_bdd::check_encoding(bytes).map(|()| Prov::Wire(bytes.into()))
    })
}

/// Append a whole provenance table: entry count, then `(tuple, annotation)`
/// sorted by tuple. A counting-mode multiplicity is its annotation.
pub(crate) fn put_table(out: &mut Vec<u8>, table: &ProvTable) {
    let mut entries: Vec<(&Tuple, &Prov)> = table.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    wire::put_varint(out, entries.len() as u64);
    for (t, p) in entries {
        wire::put_tuple(out, t);
        put_prov(out, p);
    }
}

/// Decode a table serialised by [`put_table`] into a fresh `ProvTable`,
/// rebuilding the byte counter and (when `indexed`) the variable index from
/// the restored annotations.
pub(crate) fn get_table(
    buf: &mut &[u8],
    mode: ProvMode,
    indexed: bool,
    mgr: &BddManager,
) -> Result<ProvTable, WireError> {
    let len = wire::get_varint(buf)? as usize;
    if len > buf.len() {
        // Each entry costs ≥ 2 bytes (tuple arity + prov tag).
        return Err(WireError::Truncated);
    }
    let mut table = ProvTable::new(mode, indexed);
    for _ in 0..len {
        let t = wire::get_tuple(buf)?;
        let p = get_prov(buf, mgr)?;
        if table.contains(&t) {
            return Err(WireError::Corrupt("duplicate tuple in checkpointed table"));
        }
        table.restore_entry(t, p);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{DeleteOutcome, MergeOutcome};
    use netrec_types::Value;

    fn t(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    fn roundtrip_table(src: &ProvTable, mgr: &BddManager) -> ProvTable {
        let mut bytes = Vec::new();
        put_table(&mut bytes, src);
        let mut buf = bytes.as_slice();
        let back = get_table(&mut buf, src.mode(), true, mgr).expect("decode");
        assert!(buf.is_empty());
        back
    }

    #[test]
    fn prov_variants_roundtrip() {
        let mgr = BddManager::new();
        let cases = [
            Prov::None,
            Prov::Count(42),
            Prov::Count(-3),
            Prov::Bdd(mgr.var(7).or(&mgr.var(9))),
            Prov::base(ProvMode::Relative, 5, &mgr),
        ];
        for p in &cases {
            let mut bytes = Vec::new();
            put_prov(&mut bytes, p);
            let mut buf = bytes.as_slice();
            let back = get_prov(&mut buf, &mgr).expect("decode");
            assert!(buf.is_empty(), "{p:?} left trailing bytes");
            assert_eq!(back.encoded_len(), p.encoded_len());
            match (p, &back) {
                (Prov::None, Prov::None) => {}
                (Prov::Count(a), Prov::Count(b)) => assert_eq!(a, b),
                (Prov::Bdd(a), Prov::Bdd(b)) => assert_eq!(a, b),
                (Prov::Rel(a), Prov::Rel(b)) => assert_eq!(a.support(), b.support()),
                _ => panic!("variant changed across roundtrip"),
            }
        }
    }

    #[test]
    fn table_roundtrip_preserves_counts_and_bytes() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Counting, false);
        pt.merge_ins(&t(1), &Prov::Count(2));
        pt.merge_ins(&t(1), &Prov::Count(3));
        pt.merge_ins(&t(2), &Prov::Count(1));
        let back = roundtrip_table(&pt, &mgr);
        assert_eq!(back.len(), pt.len());
        assert_eq!(back.state_bytes(), pt.state_bytes());
        assert_eq!(back.get(&t(1)).unwrap().count(), 5);
        // The multiplicities are live again: a retract below the floor kills.
        let mut back = back;
        assert!(back.retract(&t(2), &Prov::Count(1)).is_some());
        assert!(!back.contains(&t(2)));
    }

    /// A multiplicity that sums to 0 without a retract leaves its entry
    /// behind, which the table treats as absent — and still does after a
    /// checkpoint round trip, which used to restore the entry without its
    /// count.
    #[test]
    fn zero_multiplicity_is_absent_across_a_roundtrip() {
        let mgr = BddManager::new();
        let zero_sum = || {
            let mut pt = ProvTable::new(ProvMode::Counting, false);
            pt.merge_ins(&t(1), &Prov::Count(2));
            pt.merge_ins(&t(1), &Prov::Count(-2));
            pt
        };
        for mut table in [zero_sum(), roundtrip_table(&zero_sum(), &mgr)] {
            assert!(matches!(
                table.merge_ins(&t(1), &Prov::Count(1)),
                MergeOutcome::New(Prov::Count(1))
            ));
        }
        for mut table in [zero_sum(), roundtrip_table(&zero_sum(), &mgr)] {
            assert!(matches!(
                table.retract(&t(1), &Prov::Count(1)),
                Some(DeleteOutcome::Died(Prov::Count(0)))
            ));
            assert!(table.is_empty());
        }
    }

    #[test]
    fn table_roundtrip_rebuilds_var_index() {
        let mgr = BddManager::new();
        let mut pt = ProvTable::new(ProvMode::Absorption, true);
        pt.merge_ins(&t(1), &Prov::Bdd(mgr.var(1).or(&mgr.var(2))));
        pt.merge_ins(&t(2), &Prov::Bdd(mgr.var(1)));
        let mut back = roundtrip_table(&pt, &mgr);
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
            let mut buf = &bytes[..cut];
            assert!(
                get_table(&mut buf, ProvMode::Absorption, false, &mgr).is_err(),
                "prefix {cut} decoded"
            );
        }
    }
}
