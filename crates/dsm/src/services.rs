//! The home-side RPC services of the DSM: page fetch and diff apply.
//!
//! Both handlers are pure mechanism — copy pages, apply diffs, charge the
//! modelled service cost.

use std::sync::Arc;

use hyperion_model::{MachineModel, VTime};
use hyperion_pm2::{Node, NodeId, PageId, RpcHandler, RpcReply, SLOTS_PER_PAGE};

use crate::diff::{
    decode_diff_message, decode_fetch_request, encode_diff_reply, push_page_reply, FetchRequest,
    PageReply, WireError, MAX_PATCH_ENTRIES, NO_ANSWER,
};
use crate::page::SlotSet;
use crate::table::DsmStore;

/// Answer `request` out of the authoritative home frame ([`answer_page`]),
/// then each rider this home homes as a grant would, or with
/// [`NO_ANSWER`]: the encoded answers and the slots they ship.
pub(crate) fn serve_fetch(
    store: &DsmStore,
    machine: &MachineModel,
    home: NodeId,
    request: &FetchRequest,
) -> Result<(Vec<u8>, usize), WireError> {
    let FetchRequest { page, retained, .. } = *request;
    let num_pages = store.allocator().num_pages();
    if page.index() >= num_pages {
        return Err(WireError::Invalid("fetch request page range"));
    }
    debug_assert!(
        store.home_of(page) == home || store.allocator().home_of(page) == home,
        "page fetch sent to a node that is not the page's home"
    );
    let mut reply = Vec::with_capacity(9);
    let slots = answer_page(store, page, retained, None, &mut reply);
    let mut shipped = slots.expect("a fetch may be answered with the page");
    for &(page, retained) in &request.riders {
        let ours = page.index() < num_pages && store.home_of(page) == home;
        match ours.then(|| answer_page(store, page, retained, Some(machine), &mut reply)) {
            Some(Some(slots)) => shipped += slots,
            Some(None) | None => reply.push(NO_ANSWER),
        }
    }
    Ok((reply, shipped))
}

/// The home's answer to a copy of `page` retained at `retained`
/// (0 = none), appended to `reply`, and the slots it ships: "not modified"
/// if the copy is at the home's current stamp; else the slots that changed
/// since, if the page's history still holds every step in between and they
/// encode shorter than the page; else the page.  Under a grant's rule —
/// `grant` names the machine that prices it — the answer must fit a grant
/// (`grant_cost`) instead, or there is none: `None`, and nothing appended.
/// A fetch's pages are answered without it; a monitor's grant
/// (`DsmSystem::acquire`) and a fetch's riders with it.
pub(crate) fn answer_page(
    store: &DsmStore,
    page: PageId,
    retained: u64,
    grant: Option<&MachineModel>,
    reply: &mut Vec<u8>,
) -> Option<usize> {
    // Serve the *current* home's copy: normally that is the node the request
    // was addressed to, but a recovery may have re-homed the page between
    // the caller's look-up and this handler (the request was already past
    // the transport's kill check), in which case the new home's
    // authoritative frame answers (the shared store gives the modelled
    // handler direct access to it).
    let f = store.frame(store.home_of(page), page);
    // Stamp first, values second — for a patch as for a page: the copy may
    // end up stamped older than its bytes, never newer (see `crate::page`).
    let (stamp, changed) = f.changes_since(retained);
    debug_assert_ne!(stamp, 0, "home stamps start at 1");
    let count = |set: &SlotSet| set.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    let patch = changed
        .map(|set| (count(&set), set))
        .filter(|&(slots, _)| slots <= MAX_PATCH_ENTRIES);
    let bytes;
    let (answer, slots) = if retained == stamp {
        (PageReply::NotModified(stamp), 0)
    } else if let Some((slots, changed)) = patch {
        (PageReply::Patch(stamp, f.load_slots(&changed)), slots)
    } else if grant.is_none() {
        bytes = f.data().snapshot_bytes();
        (PageReply::Full(stamp, &bytes), SLOTS_PER_PAGE)
    } else {
        return None;
    };
    if grant.is_some_and(|machine| grant_cost(machine, &answer).is_none()) {
        return None;
    }
    push_page_reply(reply, &answer);
    Some(slots)
}

/// The grant's cost rule: `answer` rides a monitor's grant only if its wire
/// bytes plus the home's copy cycles cost at most one `mprotect`: one
/// break-even, whatever detects the copy.  Its cost if it does.  A page
/// never does; a "not modified" does.  Sized by the codec
/// ([`PageReply::encoded_len`]): a grant patch applies it, a fetch's rider
/// is answered by it, and every applied answer tells the copy whether the
/// next is worth naming in a request (`apply_answer`).
pub(crate) fn grant_cost(machine: &MachineModel, answer: &PageReply<'_>) -> Option<VTime> {
    let slots = match answer {
        PageReply::NotModified(_) => 0,
        PageReply::Full(..) => SLOTS_PER_PAGE,
        PageReply::Patch(_, entries) => entries.len(),
    };
    let copy = machine.dsm.page_copy_cycles_per_slot * slots as f64;
    let cost = machine.net.transfer(answer.encoded_len() as u64) + machine.cpu.cycles(copy);
    (cost <= machine.dsm.mprotect_call).then_some(cost)
}

/// Apply one encoded diff message to the authoritative home frames: the
/// post-apply home stamp of every page of the message, in order (0 for a
/// page that carried no entries), and the diff slots applied, as
/// [`serve_fetch`] returns its answers and the slots they ship.
pub(crate) fn apply_diff_message(
    store: &DsmStore,
    nominal_home: NodeId,
    payload: &[u8],
) -> Result<(Vec<u64>, usize), WireError> {
    let diffs = decode_diff_message(payload)?;
    let num_pages = store.allocator().num_pages() as u64;
    if diffs.iter().any(|(page, _)| page.0 >= num_pages) {
        return Err(WireError::Invalid("diff page range"));
    }
    let (mut versions, mut slots) = (Vec::with_capacity(diffs.len()), 0);
    for (page, entries) in &diffs {
        slots += entries.len();
        // Apply to the *current* home frame (see `answer_page` on why this
        // may differ from the addressed node after a recovery).
        let home_now = store.home_of(*page);
        debug_assert!(
            home_now == nominal_home || store.allocator().home_of(*page) == nominal_home,
            "diff sent to a node that is not the page's home"
        );
        // A page with nothing to apply (the wire allows it; this DSM never
        // sends one) leaves its stamp alone and is acknowledged with 0: the
        // current stamp is other writers' work, and a writer told of it would
        // take their step for its own (write-ack forwarding).
        let post = if entries.is_empty() {
            0
        } else {
            store.frame(home_now, *page).apply_diff(entries)
        };
        versions.push(post);
    }
    Ok((versions, slots))
}

/// A home's RPC service: answer a conditional page fetch (`fetch`), or
/// apply field-granularity diffs to its pages and acknowledge with the
/// pages' new versions.
pub(crate) struct HomeService {
    pub(crate) store: Arc<DsmStore>,
    pub(crate) machine: MachineModel,
    /// True for the page fetch, false for the diff apply.
    pub(crate) fetch: bool,
}

impl HomeService {
    /// Serve one request, at a home-side service time of copy cycles per
    /// slot shipped (a fetch, riders included), or of apply cycles per slot
    /// written plus batching overhead per page beyond the first (an apply).
    fn serve(&self, target: &Node, payload: &[u8]) -> Result<RpcReply, WireError> {
        let (cpu, dsm, home) = (&self.machine.cpu, &self.machine.dsm, target.id());
        if !self.fetch {
            let (versions, slots) = apply_diff_message(&self.store, home, payload)?;
            let extra = versions.len() - 1;
            let service = dsm.diff_apply_cycles_per_slot * slots as f64
                + dsm.batch_flush_cycles * extra as f64;
            let reply = encode_diff_reply(&versions);
            return Ok(RpcReply::with_data(reply, cpu.cycles(service)));
        }
        let request = decode_fetch_request(payload)?;
        let (reply, slots) = serve_fetch(&self.store, &self.machine, home, &request)?;
        let copy = dsm.page_copy_cycles_per_slot * slots as f64;
        Ok(RpcReply::with_data(reply, cpu.cycles(copy)))
    }
}

impl RpcHandler for HomeService {
    fn handle(&self, target: &Node, _caller: NodeId, payload: &[u8]) -> RpcReply {
        let _serving = self.store.serving.enter(self.name());
        self.serve(target, payload)
            .unwrap_or_else(|e| RpcReply::malformed(format!("{} request: {e}", self.name())))
    }

    fn name(&self) -> &'static str {
        if self.fetch {
            "dsm.page_fetch"
        } else {
            "dsm.diff_apply"
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hyperion_model::{myrinet_200, ThreadClock};
    use hyperion_pm2::{Cluster, IsoAllocator, NodeId, TransportBackend, TransportError};

    use super::{answer_page, grant_cost, serve_fetch};
    use crate::diff::{
        decode_diff_reply, decode_fetch_reply, encode_diff, encode_fetch_request, FetchRequest,
        PageReply,
    };
    use crate::{DsmStore, DsmSystem, ProtocolKind};

    /// For one retained stamp, a monitor's grant and a fetch's rider carry
    /// exactly the answer a fetch gets — the same entries at the same stamp
    /// — and a copy patched by the grant ends where one a fetch patched does.
    #[test]
    fn a_grant_patch_and_a_fetch_reply_carry_identical_entries() {
        let cluster = Cluster::new(myrinet_200().machine, 3);
        let alloc = Arc::new(IsoAllocator::new(3));
        let store = DsmStore::new(Arc::clone(&alloc), 3);
        let dsm = DsmSystem::new(Arc::clone(&cluster), store, ProtocolKind::JavaPf);
        let store = dsm.store();
        let addr = alloc.alloc_page_aligned(hyperion_pm2::SLOTS_PER_PAGE, NodeId(0));
        let (page, home, granted, fetched) = (addr.page(), NodeId(0), NodeId(1), NodeId(2));
        let (mut t, mut cursor) = (ThreadClock::new(), 0);
        dsm.get(granted, &mut t, addr);
        dsm.get(fetched, &mut t, addr);
        let retained = store.frame(granted, page).version();
        for slot in [3, 70, 500] {
            dsm.put(home, &mut t, addr.offset(slot), slot + 1);
        }
        let (_, written, _) = dsm.release(home, &mut t, &mut cursor, None);
        // The fetch names the same copy as a rider too: a rider is answered
        // as the grant is, byte for byte, after the page's answer.
        let request = FetchRequest {
            page,
            retained,
            riders: vec![(page, retained)],
        };
        let machine = cluster.machine();
        let fetch = serve_fetch(store, machine, home, &request).expect("in range");
        let mut grant = Vec::new();
        let slots = answer_page(store, page, retained, Some(machine), &mut grant);
        let twice = [&grant[..], &grant[..]].concat();
        assert_eq!((&twice, slots, fetch.1), (&fetch.0, Some(3), 6));
        let patch = PageReply::Patch(retained + 1, vec![(3, 4), (70, 71), (500, 501)]);
        assert_eq!(
            decode_fetch_reply(&grant, retained, &[]),
            Ok((patch.clone(), vec![]))
        );
        // The grant's cost rule sizes the answer as its encoding does.
        let slots = 3.0;
        let copy = machine.dsm.page_copy_cycles_per_slot * slots;
        let cost = machine.net.transfer(grant.len() as u64) + machine.cpu.cycles(copy);
        assert_eq!(grant_cost(machine, &patch), Some(cost));
        // The grant patches its copy in place; the other copy is dropped and
        // patched by a fetch.  Both end the same.
        dsm.acquire(granted, &mut t, &written, Some(home));
        dsm.acquire(fetched, &mut t, &written, None);
        assert_eq!(dsm.get(fetched, &mut t, addr.offset(70)), 71);
        let (g, f) = (store.frame(granted, page), store.frame(fetched, page));
        let mut slots = 0..hyperion_pm2::SLOTS_PER_PAGE;
        assert!(g.version() == f.version() && slots.all(|s| g.load_slot(s) == f.load_slot(s)));
        for (node, loads) in [(granted, 1), (fetched, 2)] {
            let s = cluster.node_stats(node);
            assert_eq!((s.page_loads, s.pages_patched), (loads, 1));
        }
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
            let (page, other) = (addr.page(), alloc.alloc_page_aligned(8, NodeId(1)).page());
            let unallocated = hyperion_pm2::PageId(1 << 30);

            let mut clock = ThreadClock::new();
            let mut call = |service, payload: &[u8]| {
                cluster.rpc(&mut clock, NodeId(1), NodeId(0), service, payload)
            };
            let fetch = encode_fetch_request(page, 0, &[]);
            let bad: Vec<(_, Vec<u8>)> = vec![
                (dsm.page_fetch, vec![1, 2, 3]),
                (dsm.page_fetch, fetch[..fetch.len() - 1].to_vec()),
                (dsm.page_fetch, encode_fetch_request(unallocated, 0, &[])),
                (dsm.page_fetch, [&fetch[..], &[1, 0]].concat()),
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
            // The page at the stamp just handed out is not modified.
            let stamp = u64::from_le_bytes(reply[1..9].try_into().expect("stamp"));
            let asking = encode_fetch_request(page, stamp, &[]);
            let answered = call(dsm.page_fetch, &asking).expect("well-formed fetch");
            let answered = decode_fetch_reply(&answered, stamp, &[]).expect("decodes");
            assert_eq!(answered.0, PageReply::NotModified(stamp), "{backend}");
            // A rider the home does not home gets no answer.
            let named = encode_fetch_request(page, stamp, &[(other, 1)]);
            let rode = call(dsm.page_fetch, &named).expect("well-formed fetch");
            let rode = decode_fetch_reply(&rode, stamp, &[1]).expect("decodes");
            assert_eq!(rode, (answered.0, vec![None]), "{backend}");
            // A diff is acknowledged with its pages' new stamps and not a
            // byte more, and a copy from before it is brought up to date
            // with the diff's slot, not the page: the same bytes over
            // either transport.
            let ack =
                call(dsm.diff_apply, &encode_diff(page, &[(0, 7)])).expect("well-formed diff");
            let acked = decode_diff_reply(&ack, 1).expect("versions only");
            assert_eq!(acked[0], stamp + 1, "{backend}");
            let patch = call(dsm.page_fetch, &asking).expect("well-formed fetch");
            let decoded = decode_fetch_reply(&patch, stamp, &[]).expect("decodes");
            let expected = PageReply::Patch(stamp + 1, vec![(0, 7)]);
            assert_eq!((patch.len(), &decoded.0), (9 + 4 + 10, &expected));
            // And the requester side rejects a reply it cannot decode, or
            // that would move its stamp backwards, or patch a copy it does
            // not hold, with the same typed error instead of panicking.
            for (bytes, retained) in [(&reply[..100], 0), (&reply[..], stamp + 1), (&patch, 0)] {
                let why = decode_fetch_reply(bytes, retained, &[]).unwrap_err();
                let failure = dsm.malformed_reply(NodeId(1), page, dsm.page_fetch, why);
                assert!(matches!(failure.error, TransportError::MalformedFrame(_)));
                assert!(failure.to_string().contains("dsm.page_fetch reply"));
            }
        }
    }
}
