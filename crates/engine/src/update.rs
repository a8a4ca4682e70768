//! Updates and inter-peer messages.

use std::sync::Arc;

use netrec_bdd::Var;
use netrec_prov::Prov;
use netrec_types::{wire, RelId, Tuple, UpdateKind};

/// One element of an update stream (the paper's `u` with `type`, `tuple`,
/// `pv` — plus the *cause* set that makes cascaded deletions well-defined,
/// see DESIGN.md "Deletion propagation").
#[derive(Clone, Debug)]
pub struct Update {
    /// Relation the tuple belongs to (for intermediate operator outputs this
    /// is the synthetic relation of that operator).
    pub rel: RelId,
    /// `INS` or `DEL`.
    pub kind: UpdateKind,
    /// The tuple.
    pub tuple: Tuple,
    /// Provenance annotation (variant fixed per run by the strategy): what
    /// an insertion derives, or what a retraction subtracts. A
    /// cause-restrict deletion carries `Prov::None` — its receivers
    /// restrict by `cause` alone.
    pub prov: Prov,
    /// For deletions: the base-tuple variables whose deletion caused this
    /// update. Non-empty ⇒ *cause-restrict* semantics (stateful operators
    /// substitute `false` for these variables, and the update carries no
    /// annotation); empty ⇒ *retract* semantics (subtract `prov` from the
    /// stored annotation), used by aggregate revisions and set-mode
    /// deletions.
    pub cause: Arc<[Var]>,
}

thread_local! {
    /// The empty cause every insertion and retraction carries. Shared, since
    /// `Arc::from(&[][..])` heap-allocates a header per call; per thread, so
    /// peers on different executor threads do not contend on one reference
    /// count.
    static NO_CAUSE: Arc<[Var]> = Arc::from(&[][..]);
}

fn no_cause() -> Arc<[Var]> {
    NO_CAUSE.with(Arc::clone)
}

impl Update {
    /// An insertion.
    pub fn ins(rel: RelId, tuple: Tuple, prov: Prov) -> Update {
        Update {
            rel,
            kind: UpdateKind::Insert,
            tuple,
            prov,
            cause: no_cause(),
        }
    }

    /// A cause-restrict deletion (base deletion or its cascade): the tuple
    /// and its cause, with no annotation.
    pub fn del_cause(rel: RelId, tuple: Tuple, cause: Arc<[Var]>) -> Update {
        Update {
            rel,
            kind: UpdateKind::Delete,
            tuple,
            prov: Prov::None,
            cause,
        }
    }

    /// A retraction (aggregate revision / set-semantics delete).
    pub fn del_retract(rel: RelId, tuple: Tuple, prov: Prov) -> Update {
        Update {
            rel,
            kind: UpdateKind::Delete,
            tuple,
            prov,
            cause: no_cause(),
        }
    }

    /// The update as it leaves for another peer: its annotation in wire
    /// form ([`Prov::into_wire`]), everything else as it was.
    pub fn into_wire(self) -> Update {
        Update {
            prov: self.prov.into_wire(),
            ..self
        }
    }

    /// Is this a deletion?
    pub fn is_delete(&self) -> bool {
        self.kind == UpdateKind::Delete
    }

    /// Wire size of the update: framing + tuple + annotation + cause list.
    /// This is what the bandwidth metrics count for each shipped update.
    pub fn encoded_len(&self) -> usize {
        let mut n = 1 /* kind tag */ + wire::varint_len(u64::from(self.rel.0));
        n += self.tuple.encoded_len();
        n += self.prov.encoded_len();
        n += wire::varint_len(self.cause.len() as u64);
        n += self
            .cause
            .iter()
            .map(|v| wire::varint_len(u64::from(*v)))
            .sum::<usize>();
        n
    }

    /// Annotation bytes within [`Update::encoded_len`] (the per-tuple
    /// provenance overhead metric).
    pub fn prov_len(&self) -> usize {
        self.prov.encoded_len()
    }
}

/// A message delivered to an operator input port.
#[derive(Clone, Debug)]
pub enum Msg {
    /// A batch of updates (MinShip batches; everything else sends batches of
    /// one). `Arc`-shared so fan-out to several destinations bumps a
    /// reference count instead of deep-cloning the batch; the receiver takes
    /// the `Vec` back out without copying when it holds the last reference
    /// (see `EnginePeer::on_message`).
    Updates(Arc<Vec<Update>>),
    /// DRed re-derivation trigger: ingress operators re-emit their live base
    /// tuples downstream (phase 2 of the DRed protocol).
    Rederive,
    /// External base-relation operation entering at the ingress (injected by
    /// the driver, not counted as network traffic).
    Base {
        /// Insert or delete.
        kind: UpdateKind,
        /// The base tuple.
        tuple: Tuple,
        /// Soft-state TTL for insertions (§3.1).
        ttl: Option<netrec_types::Duration>,
    },
}

impl Msg {
    /// Wire size of the message (updates + 2 bytes framing).
    pub fn encoded_len(&self) -> usize {
        match self {
            Msg::Updates(us) => 2 + us.iter().map(Update::encoded_len).sum::<usize>(),
            Msg::Rederive => 2,
            Msg::Base { tuple, .. } => 2 + tuple.encoded_len(),
        }
    }

    /// Annotation bytes carried by the message.
    pub fn prov_len(&self) -> usize {
        match self {
            Msg::Updates(us) => us.iter().map(Update::prov_len).sum(),
            _ => 0,
        }
    }

    /// Number of update tuples carried.
    pub fn tuple_count(&self) -> u32 {
        match self {
            Msg::Updates(us) => us.len() as u32,
            _ => 0,
        }
    }

    /// Metrics metadata for shipping this message to another peer.
    pub fn meta(&self) -> netrec_sim::MsgMeta {
        netrec_sim::MsgMeta {
            bytes: self.encoded_len(),
            prov_bytes: self.prov_len(),
            tuples: self.tuple_count(),
        }
    }

    /// Metadata of a hand-off between operators of one peer. No substrate
    /// charges traffic for a message a peer sends itself, so it is not
    /// priced in wire bytes; the tuple count is what the DES cost model
    /// bills the delivery by.
    pub fn local_meta(&self) -> netrec_sim::MsgMeta {
        netrec_sim::MsgMeta {
            bytes: 0,
            prov_bytes: 0,
            tuples: self.tuple_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_prov::ProvMode;
    use netrec_types::Value;

    #[test]
    fn constructors_and_flags() {
        let t = Tuple::new(vec![Value::Int(1)]);
        let ins = Update::ins(RelId(0), t.clone(), Prov::None);
        assert!(!ins.is_delete());
        assert!(ins.cause.is_empty());
        let del = Update::del_cause(RelId(0), t.clone(), Arc::from(&[3u32][..]));
        assert!(del.is_delete());
        assert_eq!(&del.cause[..], &[3]);
        let retr = Update::del_retract(RelId(0), t, Prov::None);
        assert!(retr.is_delete() && retr.cause.is_empty());
    }

    #[test]
    fn sizes_accumulate() {
        let mgr = netrec_bdd::BddManager::new();
        let t = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let plain = Update::ins(RelId(0), t.clone(), Prov::None);
        let annotated = Update::ins(
            RelId(0),
            t,
            Prov::base(ProvMode::Absorption, 5, &mgr).and(&Prov::base(
                ProvMode::Absorption,
                6,
                &mgr,
            )),
        );
        assert!(annotated.encoded_len() > plain.encoded_len());
        assert!(annotated.prov_len() > plain.prov_len());
        let msg = Msg::Updates(Arc::new(vec![plain.clone(), annotated.clone()]));
        assert_eq!(
            msg.encoded_len(),
            2 + plain.encoded_len() + annotated.encoded_len()
        );
        assert_eq!(msg.tuple_count(), 2);
        assert_eq!(msg.meta().bytes, msg.encoded_len());
    }

    #[test]
    fn control_messages_are_small() {
        assert_eq!(Msg::Rederive.encoded_len(), 2);
        assert_eq!(Msg::Rederive.tuple_count(), 0);
        assert_eq!(Msg::Rederive.prov_len(), 0);
    }
}
