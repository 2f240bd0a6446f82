//! The debug-build oracle behind every confirmation of a retained copy.
//!
//! A home confirms a retained stamp as the "not modified" answer to a fetch
//! of the page or as one bit on a neighbour's fetch (a validation rider),
//! or brings the retained copy up to its stamp with a patch.  Either way
//! the requester goes on to use bytes it did not just receive, so debug
//! builds (hence `cargo test`) re-read the home frame and compare.

use hyperion_pm2::PageId;

use crate::engine::DsmSystem;
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
}
