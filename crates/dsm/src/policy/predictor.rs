//! Prefetch predictors: the home-side policy that turns a page fetch into
//! "this requester will want these pages next" hints.
//!
//! The predictor runs inside the page-fetch RPC handler.  It sees every
//! fetch served by a home node, may record history about it, and may attach
//! a hint run to the reply; the *requester-side* conversion of hints into
//! overlapped fetches stays in the engine (it is mechanism, not policy —
//! see `DsmSystem::issue_hint_fetches`).

use hyperion_pm2::{NodeId, PageId};

use crate::diff::HintRun;
use crate::table::DsmStore;

/// How many home-fetch events back a directory observation still counts as
/// "recent" for the neighbour-also-fetched predicate.  Small enough that an
/// observation from several invalidation epochs ago (whose prediction the
/// next acquire would kill anyway) no longer generates hints.
const HINT_RECENT_WINDOW: u64 = 6;

/// Largest number of contiguous pages one reply's hint run may name.
const HINT_WINDOW: u64 = 4;

/// What a predictor observed about one served fetch; the handler threads it
/// from [`Predictor::observe_fetch`] through the per-page bookkeeping into
/// [`Predictor::predict`].
#[derive(Clone, Copy, Debug)]
pub struct FetchObservation {
    /// The directory sequence number stamped on this fetch event (one per
    /// request: the pages of a batch arrive together, so they share one
    /// "fetch event").
    pub seq: u64,
    /// The request extended the requester's own stride run: the page before
    /// the served span was the previous page this home served the caller.
    pub stride: bool,
}

/// The home-side prefetch-prediction policy.
///
/// **JMM obligations.**  Hints are pure performance metadata: a predictor
/// must never mutate page *contents* and its history writes must go through
/// the frame's directory fields only.  A wrong hint costs a wasted fetch;
/// it can never cost coherence, because every hinted page is installed
/// through the ordinary fetch path and invalidated at the next acquire like
/// any other cached copy.
pub trait Predictor: Send + Sync {
    /// Short policy name (`"nohints"` / `"dir"`): used in figure-row
    /// variant labels.
    fn name(&self) -> &'static str;

    /// True if requesters should convert reply hints into overlapped
    /// fetches (and re-arm abandoned hint tickets at acquires).  A policy
    /// returning `false` makes the whole hint path — home-side bookkeeping
    /// included — disappear.
    fn converts_hints(&self) -> bool {
        false
    }

    /// Observe one served fetch of `count` pages starting at `first`,
    /// before any page is copied: stamp the fetch event and learn from the
    /// requester's history.  Returning `None` declines all bookkeeping for
    /// this request (no stamps, no history writes, no hints).
    ///
    /// JMM: may only touch directory metadata; runs under the home's frame
    /// locks exactly like the copy it annotates.
    fn observe_fetch(
        &self,
        store: &DsmStore,
        home: NodeId,
        caller: NodeId,
        first: PageId,
        count: u32,
    ) -> Option<FetchObservation>;

    /// Record that `frame` (one page of the served span) was fetched by
    /// `caller` under observation `obs`.  Called once per served page,
    /// inside the handler's frame access.
    fn record_served_page(
        &self,
        frame: &crate::page::PageFrame,
        caller: NodeId,
        obs: &FetchObservation,
    );

    /// Produce the hint run to piggyback on the reply, if any: contiguous
    /// same-home pages the requester is predicted to touch soon.
    ///
    /// JMM: the returned run is advisory; the requester validates every
    /// hinted page (bounds, home, presence) before fetching it.
    fn predict(
        &self,
        store: &DsmStore,
        home: NodeId,
        caller: NodeId,
        first: PageId,
        count: u32,
        obs: &FetchObservation,
    ) -> Option<HintRun>;
}

/// No prediction: fetch replies carry no hints and the directory records
/// nothing — byte-identical to running with the prefetch directory compiled
/// out.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopPredictor;

impl Predictor for NoopPredictor {
    fn name(&self) -> &'static str {
        "nohints"
    }

    fn observe_fetch(
        &self,
        _store: &DsmStore,
        _home: NodeId,
        _caller: NodeId,
        _first: PageId,
        _count: u32,
    ) -> Option<FetchObservation> {
        None
    }

    fn record_served_page(
        &self,
        _frame: &crate::page::PageFrame,
        _caller: NodeId,
        _obs: &FetchObservation,
    ) {
    }

    fn predict(
        &self,
        _store: &DsmStore,
        _home: NodeId,
        _caller: NodeId,
        _first: PageId,
        _count: u32,
        _obs: &FetchObservation,
    ) -> Option<HintRun> {
        None
    }
}

/// The cluster-wide prefetch directory: each home keeps a small per-page
/// fetch history and predicts from stride runs, neighbour co-fetches and
/// learned successor pairs.
#[derive(Clone, Copy, Debug)]
pub struct DirectoryPredictor;

impl DirectoryPredictor {
    /// Consult the directory for a hint run following the served span
    /// `[first, first + count)`: contiguous same-home pages that the
    /// requester is predicted to touch soon, because either
    ///
    /// * the request extended the requester's own stride run (`stride`:
    ///   the page before `first` was the previous page this home served
    ///   the caller — scans keep scanning), or
    /// * a *neighbour co-fetched* the run: some other node recently
    ///   fetched both the demanded span and the candidate page, so a node
    ///   that is now where the neighbour was is predicted to follow it.
    ///
    /// Requiring the *same* neighbour on both sides is what keeps the
    /// directory from hinting pages that merely happen to be busy (e.g.
    /// another node's private boundary row that the requester never reads).
    #[allow(clippy::too_many_arguments)]
    fn hint_run(
        &self,
        store: &DsmStore,
        home: NodeId,
        caller: NodeId,
        first: PageId,
        count: u32,
        stride: bool,
        seq: u64,
    ) -> u16 {
        let num_pages = store.allocator().num_pages();
        // The frames' recent-fetcher ring holds `node + 1` tags (0 = empty).
        let caller_tag = caller.0 as u64 + 1;
        // Neighbours that recently fetched the tail of the demanded span.
        let last = PageId(first.0 + count as u64 - 1);
        let neighbours: Vec<u64> = store
            .with_frame(home, last, |f| {
                f.dir_recent_fetchers(seq, HINT_RECENT_WINDOW)
            })
            .into_iter()
            .filter(|&t| t != 0 && t != caller_tag)
            .collect();
        if !stride && neighbours.is_empty() {
            return 0;
        }
        let next = first.0 + count as u64;
        let mut run = 0u16;
        for k in 0..HINT_WINDOW {
            let q = PageId(next + k);
            if q.index() >= num_pages || store.home_of(q) != home {
                break;
            }
            let co_fetched = !neighbours.is_empty()
                && store.with_frame(home, q, |f| {
                    f.dir_recent_fetchers(seq, HINT_RECENT_WINDOW)
                        .iter()
                        .any(|t| neighbours.contains(t))
                });
            if !stride && !co_fetched {
                break;
            }
            run += 1;
        }
        run
    }
}

impl Predictor for DirectoryPredictor {
    fn name(&self) -> &'static str {
        "dir"
    }

    fn converts_hints(&self) -> bool {
        true
    }

    fn observe_fetch(
        &self,
        store: &DsmStore,
        home: NodeId,
        caller: NodeId,
        first: PageId,
        count: u32,
    ) -> Option<FetchObservation> {
        let last = PageId(first.0 + count as u64 - 1);
        // One directory stamp per request: the pages of a batch arrive
        // together, so they share one "fetch event".
        let seq = store.next_fetch_seq(home);
        let prev = store.swap_last_fetch(home, caller, last);
        let stride = prev != 0 && prev == first.0; // prev stores page id + 1
        if prev != 0 && prev - 1 != first.0 && prev - 1 != last.0 {
            // Learn the successor pair: the caller followed its previous
            // page from this home with this span.  This is what lets the
            // directory predict non-contiguous re-fetch sequences (e.g.
            // the two pages a boundary row spans).  The frame tracks slot
            // churn so that random (Zipf-skewed) traffic — which replaces
            // the candidate on almost every fetch — stays silent while
            // freshly learned and stably repeating pairs hint immediately.
            store.with_frame(store.home_of(PageId(prev - 1)), PageId(prev - 1), |f| {
                f.dir_record_next(first.0, seq)
            });
        }
        Some(FetchObservation { seq, stride })
    }

    fn record_served_page(
        &self,
        frame: &crate::page::PageFrame,
        caller: NodeId,
        obs: &FetchObservation,
    ) {
        frame.dir_record_fetch(caller.0 as u64, obs.seq);
    }

    fn predict(
        &self,
        store: &DsmStore,
        home: NodeId,
        caller: NodeId,
        first: PageId,
        count: u32,
        obs: &FetchObservation,
    ) -> Option<HintRun> {
        let run = self.hint_run(store, home, caller, first, count, obs.stride, obs.seq);
        if run > 0 {
            return Some((PageId(first.0 + count as u64), run));
        }
        let last = PageId(first.0 + count as u64 - 1);
        // No contiguous run, but the directory has seen a requester follow
        // this page with another one (a learned successor pair): hint that
        // single page.
        store
            .with_frame(home, last, |f| {
                f.dir_recent_next(obs.seq, HINT_RECENT_WINDOW)
            })
            .filter(|&n| n != first.0 && n != last.0)
            .map(|n| (PageId(n), 1))
    }
}
