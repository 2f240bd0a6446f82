//! Write notices: what a thread knows others have written, as the smallest
//! home stamp a copy of each page must carry to include those writes.
//!
//! The paper's `invalidateCache` (§3.1) drops every cached copy at an
//! acquire.  Notices are its lazy-release form (Keleher et al., *Lazy
//! Release Consistency for Software DSM*, ISCA '92): a release leaves
//! `(page, stamp)` pairs for the pages its writes changed with the monitor,
//! the acquirer merges them into what it knows, and only a copy some raised
//! notice names at an older stamp is dropped.  Every other copy stays open
//! across the acquire, at no cost at all.
//!
//! Knowledge is merged, never replaced, and it travels along every
//! synchronisation edge (monitor release → acquire, `Thread.start`,
//! `join`), so it is transitive exactly as happens-before is.
//!
//! A release names its own writes through its node's write log
//! (`NodeLog`): every diff the node flushes enters it with the stamp its
//! acknowledgement carried, every home page the node writes while a copy may
//! exist elsewhere enters it once per step of its stamp, and each thread
//! reads the log from where its previous release left off.  A thread's
//! release therefore also names pages another thread of its node flushed
//! for it — conservative, never wrong.

use std::sync::Mutex;

use hyperion_model::sync::lock;
use hyperion_model::{MachineModel, VTime};
use hyperion_pm2::{NodeId, PageId};

/// `(page, stamp)` pairs sorted by page, one per page: for every page a
/// write this knowledge covers has changed, the smallest home stamp a copy
/// must carry to include that write.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Notices(Vec<(PageId, u64)>);

impl Notices {
    /// Notices from unsorted pairs; a page named twice keeps its larger
    /// stamp.
    pub fn from_pairs(mut pairs: Vec<(PageId, u64)>) -> Self {
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        pairs.dedup_by_key(|e| e.0);
        Notices(pairs)
    }

    /// Number of pages named.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no page is named.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `(page, stamp)` pairs, in page order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, u64)> + '_ {
        self.0.iter().copied()
    }

    /// What carrying these notices from node `from` to node `to` along a
    /// synchronisation message adds to it: nothing within a node, else the
    /// transfer of one `(page u64, stamp u64)` pair per notice.
    pub fn transfer(&self, machine: &MachineModel, from: NodeId, to: NodeId) -> VTime {
        let pairs = if from == to { 0 } else { self.0.len() as u64 };
        machine.net.transfer(16 * pairs)
    }

    /// Raise every entry to at least `other`'s and return the entries of
    /// `other` that raised something (a page this did not name, or named at
    /// a smaller stamp), in page order: what was just learned.
    pub fn merge(&mut self, other: &Notices) -> Notices {
        let (mut raised, mut added, mut at) = (Vec::new(), Vec::new(), 0);
        let mine = &mut self.0;
        for &(page, stamp) in &other.0 {
            while at < mine.len() && mine[at].0 < page {
                at += 1;
            }
            if at < mine.len() && mine[at].0 == page {
                at += 1;
                if mine[at - 1].1 >= stamp {
                    continue;
                }
                mine[at - 1].1 = stamp;
            } else {
                added.push((page, stamp));
            }
            raised.push((page, stamp));
        }
        // Merge the new pages in from the back, in place: the vector grows
        // the way vectors do, not by one allocation per merge.
        let (mut mine, mut new) = (self.0.len(), added.len());
        self.0.resize(mine + new, (PageId(0), 0));
        while new > 0 {
            if mine > 0 && self.0[mine - 1].0 > added[new - 1].0 {
                self.0[mine + new - 1] = self.0[mine - 1];
                mine -= 1;
            } else {
                self.0[mine + new - 1] = added[new - 1];
                new -= 1;
            }
        }
        Notices(raised)
    }
}

/// One node's write log: the pages its threads made visible at a release,
/// in the order they did, for each thread's next release to name.
///
/// An entry carries the stamp a diff acknowledgement returned, or
/// `u64::MAX` for a home write — the release that names it reads its stamp.
/// The log keeps only the latest entry of a page, so it holds at most about
/// twice as many entries as the node has written pages.
#[derive(Debug, Default)]
pub(crate) struct NodeLog {
    log: Mutex<Log>,
}

/// `(sequence number, page, stamp)` entries in sequence order, the next
/// sequence number, and the length to compact at.
type Log = (Vec<(u64, PageId, u64)>, u64, usize);

impl NodeLog {
    /// Where a thread that starts now begins to read.
    pub(crate) fn end(&self) -> u64 {
        lock(&self.log).1
    }

    /// Append pages at their stamps, in order.
    pub(crate) fn push(&self, pages: impl IntoIterator<Item = (PageId, u64)>) {
        let mut log = lock(&self.log);
        pages
            .into_iter()
            .for_each(|(page, stamp)| append(&mut log, page, stamp));
    }

    /// Every entry from `cursor` on, moving `cursor` to the end.
    pub(crate) fn since(&self, cursor: &mut u64) -> Vec<(PageId, u64)> {
        let log = lock(&self.log);
        let from = log.0.partition_point(|e| e.0 < *cursor);
        *cursor = log.1;
        log.0[from..].iter().map(|&(_, p, s)| (p, s)).collect()
    }
}

/// Append one entry; keep each page's latest entry only, at the largest
/// stamp, once the log has doubled since it last did: a reader whose cursor
/// lay before a dropped entry still finds the page, named at least as high.
fn append(log: &mut Log, page: PageId, stamp: u64) {
    let (entries, next, compact_at) = log;
    entries.push((*next, page, stamp));
    *next += 1;
    if entries.len() >= (*compact_at).max(64) {
        entries.sort_unstable_by_key(|&(seq, page, _)| (page, seq));
        entries.dedup_by(|later, kept| {
            let same = later.1 == kept.1;
            if same {
                (kept.0, kept.2) = (later.0, kept.2.max(later.2));
            }
            same
        });
        entries.sort_unstable_by_key(|e| e.0);
        *compact_at = 2 * entries.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn notices(pairs: &[(u64, u64)]) -> Notices {
        Notices::from_pairs(pairs.iter().map(|&(p, s)| (PageId(p), s)).collect())
    }

    #[test]
    fn a_merge_raises_to_the_larger_stamp_and_returns_what_it_learned() {
        let mut known = notices(&[(1, 5), (4, 2), (9, 7)]);
        assert_eq!(
            notices(&[(4, 3), (4, 1), (1, 2)]),
            notices(&[(1, 2), (4, 3)])
        );
        let learned = known.merge(&notices(&[(0, 1), (1, 5), (4, 3), (9, 6), (12, 1)]));
        assert_eq!(learned, notices(&[(0, 1), (4, 3), (12, 1)]));
        assert_eq!(known, notices(&[(0, 1), (1, 5), (4, 3), (9, 7), (12, 1)]));
        assert!(known.merge(&learned).is_empty(), "idempotent");
        let machine = hyperion_model::myrinet_200().machine;
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(known.transfer(&machine, a, a), VTime::ZERO);
        assert_eq!(known.transfer(&machine, a, b), machine.net.transfer(80));
    }

    #[test]
    fn a_log_reader_sees_every_page_written_since_its_cursor_even_after_compaction() {
        let log = NodeLog::default();
        let mut early = log.end();
        log.push([(PageId(1), 3), (PageId(2), u64::MAX)]);
        let mut late = log.end();
        for k in 0..200u64 {
            log.push([(PageId(k % 7), k + 10)]);
        }
        // Pages 0..7 at their latest stamps, page 2 at its home write's.
        let early_sees = Notices::from_pairs(log.since(&mut early));
        let stamps: Vec<u64> = early_sees.iter().map(|e| e.1).collect();
        assert_eq!(stamps, [206, 207, u64::MAX, 209, 203, 204, 205]);
        assert!(lock(&log.log).0.len() < 64, "compacted");
        assert_eq!(Notices::from_pairs(log.since(&mut late)).len(), 7);
        assert!(log.since(&mut late).is_empty() && late == early);
    }
}
