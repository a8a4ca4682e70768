//! [`WireMsg`] for the engine's [`Msg`]: the codec that puts inter-peer
//! protocol messages on a real socket.
//!
//! A message is written in the checkpoint codec's vocabulary
//! (`checkpoint.rs`): the relation id, the tuple, the annotation, the cause
//! list and the TTL option each have the one encoding a checkpoint gives
//! them, so a provenance annotation has exactly one byte format everywhere
//! — checkpoints, the serving layer, and the TCP transport. What differs is
//! the reader: a link reads annotations without a manager.
//!
//! An absorption annotation is already bytes when it gets here
//! ([`Prov::Wire`], made where the batch left its
//! peer) and is bytes again when it leaves: encoding copies them into the
//! frame, decoding checks them (`netrec_bdd::check_encoding` — input from a
//! socket is validated where it enters, so a corrupt annotation kills the
//! connection, never a peer) and copies them out. No BDD is built on a
//! link; the peer the message is addressed to builds it, once, in its own
//! manager (`EnginePeer::sanitize`, DESIGN.md "Peer boundary").
//!
//! Every non-generic encoding on this path is `#[inline]` (the generic ones
//! are instantiated where they are used): the transport calls
//! [`WireMsg::encode`]/[`WireMsg::decode`] once per message, and the
//! per-field calls under them are where the time goes.

use std::sync::Arc;

use netrec_prov::Prov;
use netrec_sim::WireMsg;
use netrec_types::wire::WireError;
use netrec_types::{Duration, UpdateKind};

use crate::checkpoint::{Field, Reader};
use crate::update::{Msg, Update};

// Msg variant tags on the wire. Tag 1 must stay unassigned: it belonged to
// a retired message, and a frame from an old peer has to fail as a bad tag.
const MSG_UPDATES: u8 = 0;
const MSG_REDERIVE: u8 = 2;
const MSG_BASE: u8 = 3;

/// One byte: [`UpdateKind::tag`].
impl Field for UpdateKind {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<UpdateKind, WireError> {
        let tag = r.byte()?;
        UpdateKind::from_tag(tag).ok_or(WireError::BadTag(tag))
    }
}

/// Microseconds, as a `u64`.
impl Field for Duration {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Duration, WireError> {
        r.get().map(Duration)
    }
}

/// Relation, kind, tuple, annotation, cause list — the fields
/// [`Update::encoded_len`] prices.
///
/// Two shapes no valid sender makes are `Corrupt`:
/// - an insert whose relative annotation is rooted at *another tuple of its
///   own relation*: a receiving table would merge it with the tuple's
///   annotation and reach `RelProv::merge`'s same-tuple assertion,
///   panicking the peer. A rule head roots its output at itself; a root in
///   another relation is valid (a projecting map's output keeps its join
///   row's annotation);
/// - a cause-delete carrying an annotation: it is the tuple and its cause
///   ([`Update::del_cause`]). A retraction's annotation is subtracted,
///   never merged, so any root is valid there.
impl Field for Update {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.rel.put(out);
        self.kind.put(out);
        self.tuple.put(out);
        self.prov.put(out);
        self.cause.put(out);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Update, WireError> {
        let u = Update {
            rel: r.get()?,
            kind: r.get()?,
            tuple: r.get()?,
            prov: r.get()?,
            cause: r.get()?,
        };
        if u.is_delete() && !u.cause.is_empty() && !matches!(u.prov, Prov::None) {
            return Err(WireError::Corrupt("cause-delete carries an annotation"));
        }
        if let (Prov::Rel(p), UpdateKind::Insert) = (&u.prov, u.kind) {
            if p.root_tuple()
                .is_some_and(|(rel, t)| rel == u.rel && *t != u.tuple)
            {
                return Err(WireError::Corrupt(
                    "relative insert rooted at another tuple",
                ));
            }
        }
        Ok(u)
    }
}

impl WireMsg for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Updates(us) => {
                out.push(MSG_UPDATES);
                us.put(out);
            }
            Msg::Rederive => out.push(MSG_REDERIVE),
            Msg::Base { kind, tuple, ttl } => {
                out.push(MSG_BASE);
                kind.put(out);
                tuple.put(out);
                ttl.put(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Msg, WireError> {
        let mut r = Reader::new(buf, None);
        let msg = match r.byte()? {
            MSG_UPDATES => Msg::Updates(Arc::new(r.get()?)),
            MSG_REDERIVE => Msg::Rederive,
            MSG_BASE => Msg::Base {
                kind: r.get()?,
                tuple: r.get()?,
                ttl: r.get()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        *buf = r.rest();
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_bdd::BddManager;
    use netrec_prov::{ProvMode, RelProv};
    use netrec_types::{tup, RelId, Value};

    fn encoded(msg: &Msg) -> Vec<u8> {
        let mut bytes = Vec::new();
        msg.encode(&mut bytes);
        bytes
    }

    fn roundtrip(msg: &Msg) -> Msg {
        let bytes = encoded(msg);
        let mut buf = bytes.as_slice();
        let back = Msg::decode(&mut buf).expect("decode");
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
                Arc::from(&[1u32][..]),
            ),
            Update::del_retract(RelId(0), tup([Value::Int(9)]), Prov::None),
        ]));
        match roundtrip(&updates) {
            Msg::Updates(us) => {
                assert_eq!(us.len(), 3);
                assert_eq!(us[0].rel, RelId(2));
                assert_eq!(us[0].kind, UpdateKind::Insert);
                assert_eq!(us[0].tuple, tup([Value::Int(1), Value::Int(2)]));
                let Prov::Wire(shipped) = &us[0].prov else {
                    panic!("prov variant changed")
                };
                assert_eq!(mgr.decode(shipped), Ok(mgr.var(4)));
                assert_eq!(us[1].cause.as_ref(), &[1]);
                assert!(matches!(us[1].prov, Prov::None));
                assert_eq!(us[2].kind, UpdateKind::Delete);
                assert!(us[2].cause.is_empty() && matches!(us[2].prov, Prov::None));
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
        let tag = |msg: &Msg| encoded(msg)[0];
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
        assert!(matches!(Msg::decode(&mut buf), Err(WireError::BadTag(1))));
    }

    /// The frame format may not move: these bytes were written by the codec
    /// as it stood before annotations crossed peers as [`Prov::Wire`], from
    /// the same two updates held as handles. Its delete carries an
    /// annotation, as cause-deletes then did: the encoder still writes that
    /// frame byte for byte, and a link now refuses it. The same frame with
    /// the delete's annotation left out (`BARE`, its one-byte `Prov::None`
    /// tag in place of six) is what senders write today.
    #[test]
    fn updates_frame_golden_bytes() {
        const GOLDEN: [u8; 34] = [
            0, 2, 3, 0, 2, 1, 2, 1, 4, 2, 7, 2, 11, 0, 1, 10, 0, 2, 0, 3, 1, 2, 1, 2, 1, 4, 2, 4,
            1, 10, 0, 1, 1, 10,
        ];
        const BARE: [u8; 29] = [
            0, 2, 3, 0, 2, 1, 2, 1, 4, 2, 7, 2, 11, 0, 1, 10, 0, 2, 0, 3, 1, 2, 1, 2, 1, 4, 0, 1,
            10,
        ];
        let mgr = BddManager::new();
        let t = tup([Value::Int(1), Value::Int(2)]);
        let del = Update::del_cause(RelId(3), t.clone(), Arc::from(&[10u32][..]));
        let ups = vec![
            Update::ins(RelId(3), t, Prov::Bdd(mgr.var(10).and(&mgr.var(11)))),
            Update {
                prov: Prov::Bdd(mgr.var(10)),
                ..del.clone()
            },
        ];
        let shipped: Vec<Update> = ups.iter().cloned().map(Update::into_wire).collect();
        let (held, shipped) = (Msg::Updates(Arc::new(ups)), Msg::Updates(Arc::new(shipped)));
        assert_eq!(encoded(&held), GOLDEN);
        assert_eq!(encoded(&shipped), GOLDEN);
        // What the parent charged for this message.
        let meta = shipped.meta();
        assert_eq!((meta.bytes, meta.prov_bytes, meta.tuples), (32, 13, 2));
        assert!(matches!(
            Msg::decode(&mut &GOLDEN[..]),
            Err(WireError::Corrupt("cause-delete carries an annotation"))
        ));
        let Msg::Updates(ups) = shipped else {
            unreachable!()
        };
        let bare = Msg::Updates(Arc::new(vec![ups[0].clone(), del]));
        assert_eq!(encoded(&bare), BARE);
        let meta = bare.meta();
        assert_eq!((meta.bytes, meta.prov_bytes, meta.tuples), (28, 9, 2));
        // The link hands on the annotation bytes it was given.
        let back = roundtrip(&bare);
        assert_eq!(encoded(&back), BARE);
        let Msg::Updates(us) = back else {
            unreachable!()
        };
        assert!(matches!(&us[0].prov, Prov::Wire(b) if b[..] == [2, 11, 0, 1, 10, 0, 2]));
    }

    #[test]
    fn truncated_or_garbage_bytes_fail_loudly() {
        let mgr = BddManager::new();
        let msg = Msg::Updates(Arc::new(vec![Update::ins(
            RelId(1),
            tup([Value::Int(1)]),
            Prov::Bdd(mgr.var(3)),
        )]));
        let bytes = encoded(&msg);
        for cut in 0..bytes.len() {
            let mut buf = &bytes[..cut];
            assert!(Msg::decode(&mut buf).is_err(), "prefix {cut} decoded");
        }
        let mut buf: &[u8] = &[9, 9, 9];
        assert!(Msg::decode(&mut buf).is_err());
    }

    /// The link builds no BDD, but it still refuses one no peer could build:
    /// a frame that is well-formed around a malformed annotation is an
    /// error at `Msg::decode` — where the connection dies — for each way an
    /// encoding can be wrong.
    #[test]
    fn malformed_annotation_in_a_valid_frame_is_rejected() {
        let frame_around = |annotation: &[u8]| {
            encoded(&Msg::Updates(Arc::new(vec![Update::ins(
                RelId(1),
                tup([Value::Int(1)]),
                Prov::Wire(annotation.into()),
            )])))
        };
        let decode = |annotation: &[u8]| {
            let bytes = frame_around(annotation);
            Msg::decode(&mut bytes.as_slice())
        };
        // x10 ∧ x11, as in the golden frame.
        assert!(decode(&[2, 11, 0, 1, 10, 0, 2]).is_ok());
        for (what, annotation) in [
            ("truncated", &[2, 11, 0, 1][..]),
            ("forward-referencing", &[2, 11, 0, 3, 10, 0, 2]),
            ("order-violating", &[2, 10, 0, 1, 10, 0, 2]),
            ("trailing", &[2, 11, 0, 1, 10, 0, 2, 0]),
            ("empty", &[]),
        ] {
            assert!(
                matches!(decode(annotation), Err(WireError::Corrupt(_))),
                "{what} annotation decoded"
            );
        }
    }

    /// A relative annotation is a derivation graph rooted at the tuple it
    /// describes. An insert whose root is another tuple of its own relation
    /// would reach `RelProv::merge`'s same-tuple assertion at the receiver
    /// and panic the peer, so the frame is `Corrupt` at `Msg::decode`. A
    /// root in another relation (a projecting map's output) is what valid
    /// senders produce, and decodes. A cause-delete carries no annotation,
    /// so one rooted anywhere is `Corrupt` too.
    #[test]
    fn relative_insert_rooted_at_another_tuple_is_rejected() {
        let rel = RelId(4);
        let derived = |r: RelId, x: i64| {
            Prov::Rel(Arc::new(RelProv::derive(
                0,
                r,
                tup([Value::Int(x)]),
                &[&RelProv::base(3)],
            )))
        };
        let decode = |u: Update| {
            let bytes = encoded(&Msg::Updates(Arc::new(vec![u])));
            Msg::decode(&mut bytes.as_slice())
        };
        let own = tup([Value::Int(1)]);
        assert!(decode(Update::ins(rel, own.clone(), derived(rel, 1))).is_ok());
        assert!(decode(Update::ins(
            rel,
            own.clone(),
            Prov::base(ProvMode::Relative, 3, &BddManager::new())
        ))
        .is_ok());
        assert!(decode(Update::ins(rel, own.clone(), derived(RelId(3), 2))).is_ok());
        let cause: Arc<[u32]> = Arc::from(&[3u32][..]);
        let rooted_delete = Update {
            prov: derived(rel, 2),
            ..Update::del_cause(rel, own.clone(), cause)
        };
        assert!(matches!(decode(rooted_delete), Err(WireError::Corrupt(_))));
        assert!(matches!(
            decode(Update::ins(rel, own, derived(rel, 2))),
            Err(WireError::Corrupt(_))
        ));
    }

    /// A cause-delete is its tuple and its cause: with `Prov::None` it
    /// decodes, and one that carries an annotation of either annotated
    /// mode is `Corrupt` at `Msg::decode`. A retraction keeps what it
    /// subtracts.
    #[test]
    fn cause_delete_with_an_annotation_is_corrupt() {
        let mgr = BddManager::new();
        let t = tup([Value::Int(1)]);
        let cause: Arc<[u32]> = Arc::from(&[3u32, 5][..]);
        let decode = |u: Update| {
            let bytes = encoded(&Msg::Updates(Arc::new(vec![u.into_wire()])));
            Msg::decode(&mut bytes.as_slice())
        };
        match decode(Update::del_cause(RelId(2), t.clone(), Arc::clone(&cause))) {
            Ok(Msg::Updates(us)) => {
                assert!(us[0].is_delete() && matches!(us[0].prov, Prov::None));
                assert_eq!((&us[0].tuple, us[0].cause.as_ref()), (&t, &[3, 5][..]));
            }
            other => panic!("bare cause-delete: {other:?}"),
        }
        let relative = Prov::Rel(Arc::new(RelProv::derive(
            0,
            RelId(2),
            t.clone(),
            &[&RelProv::base(3)],
        )));
        for prov in [Prov::Bdd(mgr.var(3).or(&mgr.var(5))), relative] {
            let annotated = Update {
                prov,
                ..Update::del_cause(RelId(2), t.clone(), Arc::clone(&cause))
            };
            assert!(matches!(
                decode(annotated),
                Err(WireError::Corrupt("cause-delete carries an annotation"))
            ));
        }
        let retract = Update::del_retract(RelId(2), t, Prov::Bdd(mgr.var(3)));
        assert!(decode(retract).is_ok());
    }
}
