//! The home-side RPC services of the DSM: page fetch and diff apply.
//!
//! Both handlers are pure mechanism — copy pages, apply diffs, charge the
//! modelled service cost.  Under replication (`(r, w)`, see
//! [`crate::TransportConfig::replication`]) served pages register read
//! replicas and applied diffs perform quorum writes, with the
//! replica-shipping cost charged in the service time.

use std::sync::Arc;

use hyperion_model::{CpuModel, DsmCostModel, VTime};
use hyperion_pm2::{Node, NodeId, PageId, RpcHandler, RpcReply, SLOTS_PER_PAGE};

use crate::diff::{
    decode_diff_message, decode_fetch_request, encode_diff_reply, push_page_reply,
    push_rider_answers, FetchRequest, PageReply, WireError, MAX_PATCH_ENTRIES,
};
use crate::table::DsmStore;

/// What serving one fetch request produced.
pub(crate) struct FetchServed {
    /// The encoded page and rider answers.
    pub(crate) reply: Vec<u8>,
    /// Pages answered, shipped or not.
    pub(crate) pages: usize,
    /// Slots shipped: a page's worth for every page sent whole, the changed
    /// ones for a patch, none for "not modified".  Only these cost copy
    /// cycles (and bytes on the wire).
    pub(crate) slots_shipped: usize,
    /// Validation riders answered (a stamp comparison each, no bytes).
    pub(crate) riders: usize,
}

impl FetchServed {
    /// The home-side service time of this fetch: copy cycles for the slots
    /// shipped and per-page batching overhead for every page beyond the
    /// first (riders included).
    pub(crate) fn service(&self, cpu: &CpuModel, dsm: &DsmCostModel) -> VTime {
        cpu.cycles(
            dsm.page_copy_cycles_per_slot * self.slots_shipped as f64
                + dsm.batch_page_cycles * (self.pages - 1 + self.riders) as f64,
        )
    }
}

/// Answer `request` out of the authoritative home frames: per page, "not
/// modified" if the requester's retained version is the home's current
/// stamp; else the slots that changed since, if the page's history still
/// holds every step in between and they encode shorter than the page; else
/// the page.  Under replication, registers `caller` as a read replica of
/// every page either way (a revalidated copy is as current as a shipped
/// one).  The request's validation riders get the same stamp comparison and
/// one bit each; they are not accesses, so the replica directory does not
/// hear of them.
pub(crate) fn serve_fetch(
    store: &DsmStore,
    replication: Option<(usize, usize)>,
    home: NodeId,
    caller: NodeId,
    request: &FetchRequest,
) -> Result<FetchServed, WireError> {
    let FetchRequest {
        first,
        versions,
        riders,
    } = request;
    let count = versions.len();
    let num_pages = store.allocator().num_pages();
    let in_range = (first.0 as usize)
        .checked_add(count)
        .is_some_and(|end| end <= num_pages);
    if !in_range {
        return Err(WireError::Invalid("fetch request page range"));
    }
    if riders.iter().any(|(page, _)| page.0 >= num_pages as u64) {
        return Err(WireError::Invalid("rider page range"));
    }
    let mut served = FetchServed {
        reply: Vec::with_capacity(count * 9 + 1),
        pages: count,
        slots_shipped: 0,
        riders: riders.len(),
    };
    for (k, &retained) in versions.iter().enumerate() {
        let page = PageId(first.0 + k as u64);
        // Serve the *current* home's copy: normally that is the node the
        // request was addressed to, but a recovery may have re-homed the
        // page between the caller's look-up and this handler (the request
        // was already past the transport's kill check), in which case the
        // new home's authoritative frame answers (the shared store gives
        // the modelled handler direct access to it).
        let home_now = store.home_of(page);
        debug_assert!(
            home_now == home || store.page_rehomed(page),
            "page fetch sent to a node that is not the page's home"
        );
        store.with_frame(home_now, page, |f| {
            // Stamp first, values second — for a patch as for a page: the
            // copy may end up stamped older than its bytes, never newer
            // (see `crate::page`).
            let (stamp, changed) = f.changes_since(retained);
            debug_assert_ne!(stamp, 0, "home stamps start at 1");
            let patch = changed
                .map(|set| {
                    (
                        set,
                        set.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
                    )
                })
                .filter(|&(_, slots)| slots <= MAX_PATCH_ENTRIES);
            let bytes;
            let answer = if retained == stamp {
                PageReply::NotModified(stamp)
            } else if let Some((changed, slots)) = patch {
                served.slots_shipped += slots;
                PageReply::Patch(stamp, f.load_slots(&changed))
            } else {
                served.slots_shipped += SLOTS_PER_PAGE;
                bytes = f.data().snapshot_bytes();
                PageReply::Full(stamp, &bytes)
            };
            push_page_reply(&mut served.reply, &answer);
        });
        if let Some((read_replicas, _)) = replication {
            // The served copy doubles as a read replica: the caller is
            // now a candidate home should this node fail.
            store.register_replica(page, caller, read_replicas);
        }
    }
    let mut unchanged = 0u64;
    for (k, &(page, retained)) in riders.iter().enumerate() {
        // A page this node is not the home of (it moved since the requester
        // looked, or the request is garbage) is simply not confirmed; nor
        // is a copy stamped 0, which is no copy.
        let confirmed =
            retained != 0 && store.with_frame(home, page, |f| f.is_home() && f.stamp() == retained);
        unchanged |= u64::from(confirmed) << k;
    }
    push_rider_answers(&mut served.reply, unchanged, riders.len());
    Ok(served)
}

/// What applying one diff message to the home frames produced: the slot
/// counts that price the service time and the acknowledgement's versions.
pub(crate) struct DiffOutcome {
    /// Diff slots applied across all pages of the message.
    pub(crate) slots: usize,
    /// Extra (holder, slot) pairs shipped by quorum replica writes.
    pub(crate) quorum_slots: usize,
    /// Post-apply home stamp of every page of the message, in order (0 for
    /// a page that carried no entries).
    pub(crate) versions: Vec<u64>,
}

impl DiffOutcome {
    /// The home-side service time of this apply.
    pub(crate) fn service(&self, cpu: &CpuModel, dsm: &DsmCostModel) -> VTime {
        cpu.cycles(
            dsm.diff_apply_cycles_per_slot * (self.slots + self.quorum_slots) as f64
                + dsm.batch_flush_cycles * (self.versions.len() - 1) as f64,
        )
    }

    /// The acknowledgement: the post-apply versions.
    pub(crate) fn reply(&self) -> Vec<u8> {
        encode_diff_reply(&self.versions)
    }
}

/// Apply one encoded diff message to the authoritative home frames, as
/// quorum writes under replication.
pub(crate) fn apply_diff_message(
    store: &DsmStore,
    replication: Option<(usize, usize)>,
    nominal_home: NodeId,
    payload: &[u8],
) -> Result<DiffOutcome, WireError> {
    let diffs = decode_diff_message(payload)?;
    let num_pages = store.allocator().num_pages() as u64;
    if diffs.iter().any(|(page, _)| page.0 >= num_pages) {
        return Err(WireError::Invalid("diff page range"));
    }
    let mut out = DiffOutcome {
        slots: 0,
        quorum_slots: 0,
        versions: Vec::with_capacity(diffs.len()),
    };
    for (page, entries) in &diffs {
        out.slots += entries.len();
        // Slots land and the stamp moves with the page's home pinned: a
        // re-homing (recovery) snapshots the old home under the exclusive
        // side of the same lock, so no diff can land on a frame after it
        // stopped being main memory.
        let pinned = store.pin_homes();
        // Apply to the *current* home frame (see `serve_fetch` on why this
        // may differ from the addressed node after a recovery).
        let home_now = store.home_of(*page);
        debug_assert!(
            home_now == nominal_home || store.page_rehomed(*page),
            "diff sent to a node that is not the page's home"
        );
        // A page that rode along with nothing to apply leaves its stamp
        // alone and is acknowledged with 0: the current stamp is other
        // writers' work, and a writer told of it would take their step for
        // its own (write-ack forwarding) without holding their data.
        let post = if entries.is_empty() {
            0
        } else {
            store.with_frame(home_now, *page, |f| f.apply_diff(entries))
        };
        drop(pinned);
        out.versions.push(post);
        if let Some((_, write_quorum)) = replication {
            // Quorum write: advance the page's replica version and ship
            // the applied slots to the stamped holders.  The shipping is
            // charged as extra apply work per (holder, slot) pair.
            let members = store.quorum_update(*page, write_quorum);
            out.quorum_slots += members * entries.len();
        }
    }
    Ok(out)
}

/// RPC service: answer a conditional page fetch.
pub(crate) struct PageFetchService {
    pub(crate) store: Arc<DsmStore>,
    pub(crate) cpu: CpuModel,
    pub(crate) dsm: DsmCostModel,
    /// `(r, w)` replication, if the run keeps replicas.
    pub(crate) replication: Option<(usize, usize)>,
}

impl PageFetchService {
    fn serve(&self, target: &Node, caller: NodeId, payload: &[u8]) -> Result<RpcReply, WireError> {
        let request = decode_fetch_request(payload)?;
        let served = serve_fetch(&self.store, self.replication, target.id(), caller, &request)?;
        let service = served.service(&self.cpu, &self.dsm);
        Ok(RpcReply::with_data(served.reply, service))
    }
}

impl RpcHandler for PageFetchService {
    fn handle(&self, target: &Node, caller: NodeId, payload: &[u8]) -> RpcReply {
        self.serve(target, caller, payload)
            .unwrap_or_else(|e| RpcReply::malformed(format!("{} request: {e}", self.name())))
    }

    fn name(&self) -> &'static str {
        "dsm.page_fetch"
    }
}

/// RPC service: apply one or more field-granularity diffs to home pages
/// and acknowledge with the pages' new versions.
pub(crate) struct DiffApplyService {
    pub(crate) store: Arc<DsmStore>,
    pub(crate) cpu: CpuModel,
    pub(crate) dsm: DsmCostModel,
    /// `(r, w)` replication, if the run keeps replicas.
    pub(crate) replication: Option<(usize, usize)>,
}

impl RpcHandler for DiffApplyService {
    fn handle(&self, target: &Node, _caller: NodeId, payload: &[u8]) -> RpcReply {
        match apply_diff_message(&self.store, self.replication, target.id(), payload) {
            Ok(out) => RpcReply::with_data(out.reply(), out.service(&self.cpu, &self.dsm)),
            Err(e) => RpcReply::malformed(format!("{} request: {e}", self.name())),
        }
    }

    fn name(&self) -> &'static str {
        "dsm.diff_apply"
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hyperion_model::{myrinet_200, ThreadClock};
    use hyperion_pm2::{Cluster, IsoAllocator, NodeId, TransportBackend, TransportError};

    use super::{apply_diff_message, serve_fetch};
    use crate::diff::{
        decode_diff_reply, decode_fetch_reply, encode_diff, encode_fetch_request, FetchRequest,
        PageReply,
    };
    use crate::{DsmStore, DsmSystem, ProtocolKind};

    /// Serve `readers`' fetches of `page` and apply one single-slot diff to
    /// it, under `replication`; returns the apply's quorum slots.
    fn serve_and_apply(
        store: &DsmStore,
        replication: Option<(usize, usize)>,
        page: hyperion_pm2::PageId,
        readers: &[NodeId],
    ) -> usize {
        let home = store.home_of(page);
        for &reader in readers {
            let request = FetchRequest {
                first: page,
                versions: vec![0],
                riders: Vec::new(),
            };
            serve_fetch(store, replication, home, reader, &request).expect("in range");
        }
        let diff = encode_diff(page, &[(0, 1)]);
        let applied = apply_diff_message(store, replication, home, &diff).expect("in range");
        applied.quorum_slots
    }

    #[test]
    fn noop_touches_nothing() {
        let alloc = Arc::new(IsoAllocator::new(2));
        let store = DsmStore::new(Arc::clone(&alloc), 2);
        let page = alloc.alloc(4, NodeId(0)).page();
        assert_eq!(serve_and_apply(&store, None, page, &[NodeId(1)]), 0);
        assert!(store.replica_set(page).is_none());
    }

    #[test]
    fn quorum_registers_and_updates_holders() {
        let alloc = Arc::new(IsoAllocator::new(3));
        let store = DsmStore::new(Arc::clone(&alloc), 3);
        let page = alloc.alloc(4, NodeId(0)).page();
        let readers = [NodeId(1), NodeId(2)];
        assert_eq!(serve_and_apply(&store, Some((2, 2)), page, &readers), 1);
        let set = store.replica_set(page).expect("holders registered");
        assert_eq!(set.version, 1);
        assert_eq!(set.holders, vec![(1, 1), (2, 0)]);
    }

    /// Garbage sent to either DSM service comes back as a typed
    /// `MalformedFrame` at the caller — over the inline Sim transport and
    /// over real sockets alike — and the node keeps serving afterwards.
    #[test]
    fn malformed_requests_get_an_error_reply_not_a_dead_server() {
        for backend in [TransportBackend::Sim, TransportBackend::UnixSocket] {
            let cluster = Cluster::for_backend(myrinet_200().machine, 4, backend);
            let alloc = Arc::new(IsoAllocator::new(4));
            let store = DsmStore::new(Arc::clone(&alloc), 4);
            let dsm = DsmSystem::new(Arc::clone(&cluster), store, ProtocolKind::JavaPf);
            let addr = alloc.alloc(8, NodeId(0));
            let page = addr.page();
            let unallocated = hyperion_pm2::PageId(1 << 30);

            let mut clock = ThreadClock::new();
            let mut call = |service, payload: &[u8]| {
                cluster.rpc(&mut clock, NodeId(1), NodeId(0), service, payload)
            };
            let fetch = encode_fetch_request(page, &[0], &[]);
            let rider_out_of_range = [(unallocated, 3)];
            let mut too_many_riders = encode_fetch_request(page, &[0], &[(page, 1)]);
            too_many_riders[20] = crate::diff::MAX_RIDERS as u8 + 1;
            let bad: Vec<(_, Vec<u8>)> = vec![
                (dsm.page_fetch, vec![1, 2, 3]),
                (dsm.page_fetch, fetch[..fetch.len() - 1].to_vec()),
                (dsm.page_fetch, encode_fetch_request(unallocated, &[0], &[])),
                (
                    dsm.page_fetch,
                    encode_fetch_request(page, &[0], &rider_out_of_range),
                ),
                (dsm.page_fetch, too_many_riders),
                (dsm.diff_apply, vec![0xFF; 7]),
                (dsm.diff_apply, encode_diff(unallocated, &[(0, 1)])),
            ];
            for (service, payload) in &bad {
                match call(*service, payload) {
                    Err(TransportError::MalformedFrame(why)) => {
                        assert!(why.contains("request"), "{backend}: {why}")
                    }
                    other => panic!("{backend}: {payload:?} answered {other:?}"),
                }
            }
            // Still alive, still correct.
            let reply = call(dsm.page_fetch, &fetch).expect("well-formed fetch");
            assert_eq!(reply.len(), 9 + hyperion_pm2::PAGE_BYTES, "{backend}");
            // Riders are answered one bit each: the page itself at the stamp
            // just handed out is unchanged; at another stamp, or homed
            // elsewhere, it is not — a wrong guess about the home is no error.
            let stamp = u64::from_le_bytes(reply[1..9].try_into().expect("stamp"));
            let elsewhere = alloc.alloc(8, NodeId(1)).page();
            let riders = [(page, stamp), (page, stamp + 1), (elsewhere, 1)];
            let asking = encode_fetch_request(page, &[stamp], &riders);
            let answered = call(dsm.page_fetch, &asking).expect("well-formed riders");
            let answered = decode_fetch_reply(&answered, &[stamp], 3).expect("decodes");
            assert_eq!(answered.unchanged, 0b001, "{backend}");
            // A diff is acknowledged with its pages' new stamps and not a
            // byte more, and a copy from before it is brought up to date
            // with the diff's slot, not the page: the same bytes over
            // either transport.
            let ack =
                call(dsm.diff_apply, &encode_diff(page, &[(0, 7)])).expect("well-formed diff");
            let acked = decode_diff_reply(&ack, 1).expect("versions only");
            assert_eq!(acked[0], stamp + 1, "{backend}");
            let asking = encode_fetch_request(page, &[stamp], &[]);
            let patch = call(dsm.page_fetch, &asking).expect("well-formed fetch");
            let decoded = decode_fetch_reply(&patch, &[stamp], 0).expect("decodes");
            let expected = PageReply::Patch(stamp + 1, vec![(0, 7)]);
            assert_eq!((patch.len(), &decoded.pages[0]), (9 + 4 + 10, &expected));
            // And the requester side rejects a reply it cannot decode, or
            // that would move its stamp backwards, or patch a copy it does
            // not hold, with the same typed error instead of panicking.
            for (bytes, retained) in [(&reply[..100], 0), (&reply[..], stamp + 1), (&patch, 0)] {
                let why = decode_fetch_reply(bytes, &[retained], 0).unwrap_err();
                let failure = dsm.malformed_reply(NodeId(1), page, dsm.page_fetch, why);
                assert!(matches!(failure.error, TransportError::MalformedFrame(_)));
                assert!(failure.to_string().contains("dsm.page_fetch reply"));
            }
        }
    }
}
