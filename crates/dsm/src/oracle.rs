//! The debug-build oracles behind every copy a node keeps using.
//!
//! A home confirms a retained stamp as the "not modified" answer to a fetch
//! of the page, or brings the retained copy up to its stamp with a patch.
//! Either way the requester goes on to use bytes it did not just receive,
//! so debug builds (hence `cargo test`) re-read the home frame and compare.
//! An acquire keeps every copy its learned notices do not name; debug
//! builds check that no copy the acquirer's node keeps open is older than
//! anything the acquirer knows.

use hyperion_pm2::{NodeId, PageId};

use crate::engine::DsmSystem;
use crate::notices::Notices;
use crate::page::PageFrame;

impl DsmSystem {
    /// The retained bytes must equal the home's, slot for slot, unless the
    /// home stamp has moved since it answered — then a write is racing with
    /// this fetch without a happens-before edge, a Java-level data race a
    /// refetch could equally have missed.  Anything else is a stale copy
    /// being re-opened.  Release builds check nothing.
    pub(crate) fn assert_retained_copy_current(
        &self,
        page: PageId,
        frame: &PageFrame,
        version: u64,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let home = self.store.home_of(page);
            // Compare first, stamp second: a home write is data first, flag
            // second, so a difference seen here reaches the stamp shortly.
            let (differing, stamp) = self.store.with_frame(home, page, |h| {
                let slot = (0..hyperion_pm2::SLOTS_PER_PAGE)
                    .find(|&s| !frame.slot_is_dirty(s) && frame.load_slot(s) != h.load_slot(s));
                (slot, h.stamp())
            });
            let Some(slot) = differing else { return };
            if stamp != version || frame.version() != version || frame.is_home() {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stale copy revalidated: {page:?} slot {slot} differs from home {home} \
                 although both are at version {version}"
            );
            std::thread::yield_now();
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
}
