//! [`WireMsg`] for the engine's [`Msg`]: the codec that puts inter-peer
//! protocol messages on a real socket.
//!
//! Reuses the checkpoint codec's annotation framing (`put_prov` /
//! `get_prov`) so a provenance annotation has exactly one byte format
//! everywhere — checkpoints, the serving layer, and now the TCP transport.
//!
//! Decoding anchors BDD annotations in the transport link's own
//! [`BddManager`] (the [`WireCtx`]): the receiving peer re-anchors every
//! foreign annotation into its manager on delivery (`EnginePeer::sanitize`,
//! the same path in-process cross-shard traffic takes), so a
//! transport-owned manager never leaks into operator state.

use std::sync::Arc;

use netrec_bdd::{BddManager, Var};
use netrec_sim::WireMsg;
use netrec_types::wire::{self, WireError};
use netrec_types::{Duration, RelId, UpdateKind};

use crate::checkpoint::{get_prov, put_prov};
use crate::update::{Msg, Update};

/// Per-link decoder state: the manager transport-decoded BDDs live in
/// until the receiving peer re-anchors them.
pub struct WireCtx {
    mgr: BddManager,
}

impl Default for WireCtx {
    fn default() -> WireCtx {
        WireCtx {
            mgr: BddManager::new(),
        }
    }
}

// Msg variant tags on the wire. Tag 1 must stay unassigned: it belonged to
// a retired message, and a frame from an old peer has to fail as a bad tag.
const MSG_UPDATES: u8 = 0;
const MSG_REDERIVE: u8 = 2;
const MSG_BASE: u8 = 3;

fn put_vars(out: &mut Vec<u8>, vars: &[Var]) {
    wire::put_varint(out, vars.len() as u64);
    for v in vars {
        wire::put_varint(out, u64::from(*v));
    }
}

fn get_vars(buf: &mut &[u8]) -> Result<Arc<[Var]>, WireError> {
    let len = wire::get_varint(buf)? as usize;
    if len > buf.len() {
        return Err(WireError::Truncated);
    }
    let mut vars = Vec::with_capacity(len);
    for _ in 0..len {
        vars.push(wire::get_u32(buf)?);
    }
    Ok(Arc::from(vars))
}

fn put_update(out: &mut Vec<u8>, u: &Update) {
    wire::put_varint(out, u64::from(u.rel.0));
    out.push(u.kind.tag());
    wire::put_tuple(out, &u.tuple);
    put_prov(out, &u.prov);
    put_vars(out, &u.cause);
}

fn get_update(buf: &mut &[u8], mgr: &BddManager) -> Result<Update, WireError> {
    let rel = RelId(
        u16::try_from(wire::get_varint(buf)?)
            .map_err(|_| WireError::Corrupt("relation id out of range"))?,
    );
    let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    let kind = UpdateKind::from_tag(tag).ok_or(WireError::BadTag(tag))?;
    let tuple = wire::get_tuple(buf)?;
    let prov = get_prov(buf, mgr)?;
    let cause = get_vars(buf)?;
    Ok(Update {
        rel,
        kind,
        tuple,
        prov,
        cause,
    })
}

impl WireMsg for Msg {
    type Ctx = WireCtx;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Updates(us) => {
                out.push(MSG_UPDATES);
                wire::put_varint(out, us.len() as u64);
                for u in us.iter() {
                    put_update(out, u);
                }
            }
            Msg::Rederive => out.push(MSG_REDERIVE),
            Msg::Base { kind, tuple, ttl } => {
                out.push(MSG_BASE);
                out.push(kind.tag());
                wire::put_tuple(out, tuple);
                match ttl {
                    None => out.push(0),
                    Some(d) => {
                        out.push(1);
                        wire::put_varint(out, d.0);
                    }
                }
            }
        }
    }

    fn decode(buf: &mut &[u8], ctx: &WireCtx) -> Result<Msg, WireError> {
        let (&tag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
        *buf = rest;
        match tag {
            MSG_UPDATES => {
                let len = wire::get_varint(buf)? as usize;
                if len > buf.len() {
                    return Err(WireError::Truncated);
                }
                let mut us = Vec::with_capacity(len);
                for _ in 0..len {
                    us.push(get_update(buf, &ctx.mgr)?);
                }
                Ok(Msg::Updates(Arc::new(us)))
            }
            MSG_REDERIVE => Ok(Msg::Rederive),
            MSG_BASE => {
                let (&ktag, rest) = buf.split_first().ok_or(WireError::Truncated)?;
                *buf = rest;
                let kind = UpdateKind::from_tag(ktag).ok_or(WireError::BadTag(ktag))?;
                let tuple = wire::get_tuple(buf)?;
                let (&opt, rest) = buf.split_first().ok_or(WireError::Truncated)?;
                *buf = rest;
                let ttl = match opt {
                    0 => None,
                    1 => Some(Duration(wire::get_varint(buf)?)),
                    t => return Err(WireError::BadTag(t)),
                };
                Ok(Msg::Base { kind, tuple, ttl })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_prov::{Prov, ProvMode};
    use netrec_types::{tup, Tuple, Value};

    fn roundtrip(msg: &Msg) -> Msg {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let ctx = WireCtx::default();
        let mut buf = bytes.as_slice();
        let back = Msg::decode(&mut buf, &ctx).expect("decode");
        assert!(buf.is_empty(), "trailing bytes after {msg:?}");
        back
    }

    #[test]
    fn all_msg_variants_round_trip() {
        let mgr = BddManager::new();
        let updates = Msg::Updates(Arc::new(vec![
            Update::ins(
                RelId(2),
                tup([Value::Int(1), Value::Int(2)]),
                Prov::base(ProvMode::Absorption, 4, &mgr),
            ),
            Update::del_cause(
                RelId(7),
                tup([Value::Str("x".into())]),
                Prov::Bdd(mgr.var(1).or(&mgr.var(2))),
                Arc::from(&[1u32][..]),
            ),
            Update::del_retract(RelId(0), tup([Value::Int(9)]), Prov::Count(-2)),
        ]));
        match roundtrip(&updates) {
            Msg::Updates(us) => {
                assert_eq!(us.len(), 3);
                assert_eq!(us[0].rel, RelId(2));
                assert_eq!(us[0].kind, UpdateKind::Insert);
                assert_eq!(us[0].tuple, tup([Value::Int(1), Value::Int(2)]));
                assert_eq!(us[1].cause.as_ref(), &[1]);
                assert!(matches!(us[1].prov, Prov::Bdd(_)));
                assert!(matches!(us[2].prov, Prov::Count(-2)));
                // Byte-size accounting is part of the protocol: the decoded
                // update must cost exactly what the sender charged.
                assert_eq!(us[0].encoded_len(), updates_len(&updates, 0));
            }
            other => panic!("variant changed: {other:?}"),
        }

        assert!(matches!(roundtrip(&Msg::Rederive), Msg::Rederive));

        let base = Msg::Base {
            kind: UpdateKind::Delete,
            tuple: tup([Value::Int(4), Value::Int(4)]),
            ttl: Some(Duration(1_500_000)),
        };
        match roundtrip(&base) {
            Msg::Base { kind, tuple, ttl } => {
                assert_eq!(kind, UpdateKind::Delete);
                assert_eq!(tuple, tup([Value::Int(4), Value::Int(4)]));
                assert_eq!(ttl, Some(Duration(1_500_000)));
            }
            other => panic!("variant changed: {other:?}"),
        }
    }

    fn updates_len(m: &Msg, i: usize) -> usize {
        match m {
            Msg::Updates(us) => us[i].encoded_len(),
            _ => unreachable!(),
        }
    }

    /// The tag bytes are the protocol: the three variants keep theirs, and
    /// the retired tombstone's tag decodes as nothing.
    #[test]
    fn variant_tags_are_stable_and_the_retired_one_is_rejected() {
        let tag = |msg: &Msg| {
            let mut bytes = Vec::new();
            msg.encode(&mut bytes);
            bytes[0]
        };
        assert_eq!(tag(&Msg::Updates(Arc::new(Vec::new()))), 0);
        assert_eq!(tag(&Msg::Rederive), 2);
        let base = Msg::Base {
            kind: UpdateKind::Insert,
            tuple: tup([Value::Int(1)]),
            ttl: None,
        };
        assert_eq!(tag(&base), 3);
        // What used to be a tombstone carrying variables 3 and 5.
        let mut buf: &[u8] = &[1, 2, 3, 5];
        assert!(matches!(
            Msg::decode(&mut buf, &WireCtx::default()),
            Err(WireError::BadTag(1))
        ));
    }

    #[test]
    fn truncated_or_garbage_bytes_fail_loudly() {
        let mgr = BddManager::new();
        let msg = Msg::Updates(Arc::new(vec![Update::ins(
            RelId(1),
            tup([Value::Int(1)]),
            Prov::Bdd(mgr.var(3)),
        )]));
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let ctx = WireCtx::default();
        for cut in 0..bytes.len() {
            let mut buf = &bytes[..cut];
            assert!(Msg::decode(&mut buf, &ctx).is_err(), "prefix {cut} decoded");
        }
        let mut buf: &[u8] = &[9, 9, 9];
        assert!(Msg::decode(&mut buf, &ctx).is_err());
    }

    #[test]
    fn decoded_bdds_live_in_the_link_manager() {
        let sender_mgr = BddManager::new();
        let msg = Msg::Updates(Arc::new(vec![Update::ins(
            RelId(0),
            Tuple::new(vec![Value::Int(1)]),
            Prov::Bdd(sender_mgr.var(10).and(&sender_mgr.var(11))),
        )]));
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        let ctx = WireCtx::default();
        let mut buf = bytes.as_slice();
        let back = Msg::decode(&mut buf, &ctx).expect("decode");
        let Msg::Updates(us) = back else {
            unreachable!()
        };
        let Prov::Bdd(b) = &us[0].prov else {
            panic!("prov variant changed")
        };
        // Semantics preserved under the new anchor: same support.
        assert_eq!(b.support(), vec![10, 11]);
    }
}
