//! The debug-build checks: one caller at a time inside the DSM, and the
//! oracles behind every copy a node keeps using.
//!
//! The DSM takes one caller at a time: `hyperion`'s baton runs one
//! application thread, and a handler runs (inline, or on a socket server
//! thread) only while its caller waits for the reply.  Nothing inside the
//! DSM orders or tolerates a race; debug builds check the contract at every
//! [`DsmSystem`] entry point and in every home handler ([`OneCaller`]).
//!
//! A home confirms a retained stamp as the "not modified" answer to a fetch
//! of the page, or brings the retained copy up to its stamp with a patch.
//! Either way the requester goes on to use bytes it did not just receive,
//! so debug builds (hence `cargo test`) re-read the home frame and compare.
//! An acquire keeps every copy its learned notices do not name; debug
//! builds check that no present copy is older than anything the acquirer
//! knows, nor any open stale copy left unfound by an access's check.

use std::sync::Mutex;

use hyperion_model::sync::lock;
use hyperion_pm2::{NodeId, PageId};

use crate::engine::DsmSystem;
use crate::notices::Notices;
use crate::page::PageFrame;

/// Debug builds: the entry point one caller is inside, if any.  Release
/// builds never touch it.
#[derive(Debug, Default)]
pub(crate) struct OneCaller(Mutex<Option<&'static str>>);

/// A caller inside: leaving clears the mark.
pub(crate) struct Inside<'a>(Option<&'a OneCaller>);

impl OneCaller {
    /// Mark `entry` entered until the returned value drops; panics, naming
    /// both, if a caller is inside already.
    pub(crate) fn enter(&self, entry: &'static str) -> Inside<'_> {
        if !cfg!(debug_assertions) {
            return Inside(None);
        }
        let mut inside = lock(&self.0);
        if let Some(other) = *inside {
            drop(inside);
            panic!("{entry} entered while {other} is running: one caller at a time");
        }
        *inside = Some(entry);
        Inside(Some(self))
    }
}

impl Drop for Inside<'_> {
    fn drop(&mut self) {
        if let Some(one) = self.0 {
            *lock(&one.0) = None;
        }
    }
}

impl DsmSystem {
    /// The retained bytes must equal the home's, slot for slot, except the
    /// copy's own dirty slots: with one caller at a time nothing writes the
    /// home between its answer and this check.  Anything else is a stale
    /// copy being re-opened.  Release builds check nothing.
    pub(crate) fn assert_retained_copy_current(
        &self,
        page: PageId,
        frame: &PageFrame,
        version: u64,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let home = self.store.home_of(page);
        let h = self.store.frame(home, page);
        let differing = (0..hyperion_pm2::SLOTS_PER_PAGE)
            .find(|&s| !frame.slot_is_dirty(s) && frame.load_slot(s) != h.load_slot(s));
        if let Some(slot) = differing {
            panic!(
                "stale copy revalidated: {page:?} slot {slot} differs from home {home} \
                 although both are at version {version}"
            );
        }
    }

    /// Every present copy on `node` of a page `known` names carries at
    /// least the stamp named: what a thread on `node` knows, its node's
    /// cache never hides (see `crate::page`, the invariant).  Release builds
    /// check nothing.
    pub fn assert_knowledge_held(&self, node: NodeId, known: &Notices) {
        if !cfg!(debug_assertions) {
            return;
        }
        let _one = self.caller.enter("DsmSystem::assert_knowledge_held");
        let frames = self.store.existing_frames(node, known.iter().map(|e| e.0));
        for ((page, stamp), frame) in known.iter().zip(frames) {
            let held = frame.is_home() || !frame.is_present() || frame.version() >= stamp;
            assert!(
                held,
                "stale copy kept: {page:?} on {node} at version {} although a write at {stamp} \
                 happened-before",
                frame.version()
            );
        }
    }

    /// After an access's pending check, `frame` (`page` on `node`) is no open
    /// stale copy, which a real runtime would read, since it is unprotected.
    /// Release builds check nothing.
    pub(crate) fn assert_open_copy_found(&self, node: NodeId, page: PageId, frame: &PageFrame) {
        let open = cfg!(debug_assertions) && self.stale[node.index()].holds_open(page, frame);
        assert!(!open, "open stale copy read unchecked: {page:?} on {node}");
    }

    /// `node` holds no open stale copy: none outlives a thread's end
    /// (`pending.rs`).  Release builds check nothing.
    pub fn assert_no_open_stale_copies(&self, node: NodeId, past: &str) {
        let left = cfg!(debug_assertions) && self.stale[node.index()].any_open();
        assert!(!left, "an open stale copy on {node} outlived {past}");
    }
}

// Release builds check nothing, so the one test runs in debug builds.
#[cfg(all(test, debug_assertions))]
mod tests {
    use std::sync::Arc;

    use hyperion_model::{myrinet_200, ThreadClock};
    use hyperion_pm2::{Cluster, IsoAllocator, NodeId};

    use crate::{DsmStore, DsmSystem, ProtocolKind};

    /// A second caller entering while one is inside (here: a release that
    /// has not returned) panics, naming both entry points.
    #[test]
    #[should_panic(expected = "DsmSystem::get entered while DsmSystem::release is running")]
    fn two_overlapping_entries_into_one_dsm_panic() {
        let alloc = Arc::new(IsoAllocator::new(2));
        let store = DsmStore::new(Arc::clone(&alloc), 2);
        let cluster = Cluster::new(myrinet_200().machine, 2);
        let dsm = DsmSystem::new(cluster, store, ProtocolKind::JavaPf);
        let addr = alloc.alloc(8, NodeId(0));
        let _release = dsm.caller.enter("DsmSystem::release");
        std::thread::scope(|s| {
            let get = s.spawn(|| dsm.get(NodeId(1), &mut ThreadClock::new(), addr));
            std::panic::resume_unwind(get.join().expect_err("the second caller panics"))
        });
    }
}
