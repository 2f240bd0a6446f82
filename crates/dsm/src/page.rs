//! Page frames: the unit of replication and access detection.
//!
//! Objects are implemented on top of pages (§3.1): `loadIntoCache` always
//! retrieves the whole page an object lives on, so neighbouring objects are
//! pre-fetched for free.  Each node holds at most one copy of a page; the
//! copy is shared by every thread running on that node.
//!
//! A frame's 8-byte slots are `AtomicU64`s accessed with relaxed ordering —
//! on the modelled x86 machines these are plain loads and stores.  One
//! caller at a time is inside the DSM, but a handler may serve a home frame
//! from a socket server thread, so frames stay shared state without
//! `unsafe`; the request and its reply, not the orderings of the frame's
//! atomics, order the caller's accesses and the handler's.
//!
//! A node has a frame for every page up to the highest it touched, most
//! never accessed, so a frame holds only what every protocol needs, in 80
//! bytes: roles, version, in-flight ticket and three lazy boxes — the
//! page's slots ([`PageData`], at the first access), the dirty bitmap (at
//! the first write that records a slot) and the home's change history.
//!
//! ## Page versions
//!
//! Every frame carries one `version` word.  On the **home** frame it is the
//! page's *change stamp*: it starts at 1 and moves whenever the home bytes
//! may have changed — a diff was applied ([`PageFrame::apply_diff`]), the
//! home itself wrote since the last stamp (folded in lazily by
//! [`PageFrame::stamp`]), or the page was re-homed (the new home starts far
//! above anything the old one can hand out).  On a **cached** frame it
//! is the stamp of the copy the frame retains (0 = none); the bytes stay in
//! the frame across [`PageFrame::invalidate`], so a later fetch only has to
//! ask the home "still at this stamp?" and, if so, re-open them.
//!
//! Why stamp equality implies the retained bytes are what a refetch would
//! return: one caller at a time is inside the DSM (`crate::engine`), so no
//! write is under way while a handler answers, and every write is in the
//! stamp by then — a diff moves it where it lands, a home write is folded in
//! by the handler that reads it ([`PageFrame::stamp`]).  A copy can carry a
//! stamp *older* than its bytes (its node's own flushed writes, when another
//! writer's step came between; see [`PageFrame::forward_version`]) — the
//! next fetch then ships what it seems to have missed, which is merely
//! conservative — but never one *newer* than its bytes.  Stamps only grow,
//! across re-homing too, so a stamp never comes back.
//!
//! The one invariant all of this serves: **a non-home frame is `present`
//! only if its home shipped, patched (by a fetch or a grant) or confirmed
//! it, and no notice its node has learned since names a newer stamp.**  An
//! acquire learns write notices (`crate::notices`): `(page, stamp)` pairs
//! for the pages the writes that happen-before it changed, and drops
//! exactly the present copies they name at an older stamp — or, for a page
//! homed where the monitor's grant came from, patches them to the home's
//! stamp (a copy it leaves open behind the pending check is still dropped;
//! `pending.rs`).  `invalidateCache` drops every copy.
//!
//! ## Home writes
//!
//! A release names the pages its node flushed (at the stamps the diff
//! acknowledgements carry) and the home pages its node wrote.  A home write
//! needs a notice only if a copy of the page may exist elsewhere — if some
//! handler has stamped the page, i.e. its change history exists; the
//! interior blocks of Jacobi and ASP never get one and never cost a notice.
//! Such a write records its slot and, the first time after a fold, puts the
//! page in the node's write log ([`PageFrame::store_slot`]); the release
//! that reads the entry names the stamp the next fold will produce
//! ([`PageFrame::written_stamp`]): every copy without the write is older,
//! every copy shipped from then on holds it.  A page nobody fetches keeps
//! its stamp, so writing it again and again costs its readers one notice.
//! A home write before the page has a history records no slot: the first
//! ship copies it, and the fold that stamps it breaks the history.
//!
//! ## Change history
//!
//! A home frame that some handler has stamped (so: a page a remote node
//! fetched) keeps the last [`HISTORY_DEPTH`] *steps* of its stamp: per
//! step the stamp it produced and the bitmap of slots that changed in it
//! — a diff's slots, or the slots the home itself wrote since the step
//! before.  A fetch whose retained stamp is within the history is answered
//! with the current values of the slots of the steps it missed instead of
//! the page ([`PageFrame::changes_since`]): every write stamped at or below
//! the stamp handed out has its slot among those steps.  The same stamp
//! comparison decides what is current; only the encoding of the answer
//! differs.
//!
//! The invariant: **a stamp value is never observable before the step
//! that produced it is in the history, or the history is broken at it**
//! (it is whole only from that stamp on, so every copy from before it is
//! shipped whole).  The stamp only moves under the history's lock, and handlers
//! only read it there.  Broken at: a re-homing (the new home starts a
//! stride above, with no steps), a home write from before the history, a
//! step older than the ring.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

use hyperion_model::sync::lock;
use hyperion_pm2::SLOTS_PER_PAGE;

/// Number of 64-bit words in the per-page dirty bitmap.
pub const DIRTY_WORDS: usize = SLOTS_PER_PAGE / 64;

/// Steps of its stamp a home frame remembers: the smallest depth whose
/// modeled time on `kv_read` and `kv_write` is within 1 % of the best any
/// depth reaches (`BENCH_22.json`, `history_depth`).  Fixed, not
/// configurable.
pub const HISTORY_DEPTH: usize = 8;

/// `PageFrame::home_wrote` bit: the home wrote the page since the last
/// stamp without recording which slots (the page had no history then).
/// The fold breaks the history at the step it makes for it.
const HOME_WROTE: u8 = 1;
/// `PageFrame::home_wrote` bit: the home wrote the page since the last
/// stamp, every slot it wrote is in the `dirty` bitmap, and the node's
/// write log names the page.
const HOME_TRACKED: u8 = 2;

/// A bitmap over the slots of one page.
pub type SlotSet = [u64; DIRTY_WORDS];

/// The last steps of a home page's stamp.
#[derive(Debug)]
struct History {
    /// The history is whole from this stamp on: every step that produced a
    /// later stamp is in `steps`, or was until the ring dropped it.
    /// Breaking the history at a stamp moves this there.
    whole_from: u64,
    /// The slots that changed in the step that produced stamp `v`, at
    /// `v % HISTORY_DEPTH` until a later step takes its place.
    steps: [SlotSet; HISTORY_DEPTH],
}

/// The backing store of one page on one node: 512 atomic 8-byte slots.
#[derive(Debug)]
pub struct PageData {
    /// Fixed-size, so a frame holds a thin pointer.
    slots: Box<[AtomicU64; SLOTS_PER_PAGE]>,
}

impl PageData {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        PageData {
            slots: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    /// Read one slot.
    #[inline]
    pub fn load(&self, slot: usize) -> u64 {
        self.slots[slot].load(Ordering::Relaxed)
    }

    /// Write one slot.
    #[inline]
    pub fn store(&self, slot: usize, value: u64) {
        self.slots[slot].store(value, Ordering::Relaxed);
    }

    /// Copy the whole page into a plain byte vector (little-endian), used to
    /// ship pages over the communication subsystem.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SLOTS_PER_PAGE * 8);
        for s in self.slots.iter() {
            out.extend_from_slice(&s.load(Ordering::Relaxed).to_le_bytes());
        }
        out
    }

    /// Overwrite the whole page from a byte snapshot produced by
    /// [`PageData::snapshot_bytes`].
    ///
    /// # Panics
    /// Panics if `bytes` is not exactly one page long.
    pub fn fill_from_bytes(&self, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            SLOTS_PER_PAGE * 8,
            "page snapshot has the wrong length"
        );
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let v = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            self.slots[i].store(v, Ordering::Relaxed);
        }
    }
}

/// The per-(node, page) replication state used by every protocol.  The
/// default frame, all zeros, is a non-home node's: absent and (for
/// `java_pf`) access-protected, exactly as §3.3 describes the initial state.
#[derive(Debug, Default)]
pub struct PageFrame {
    /// True if this node is the page's home (the reference copy).  Atomic
    /// because node-failure recovery may promote/demote a frame mid-run.
    home: AtomicBool,
    /// True if the node currently holds a valid copy of the page.
    present: AtomicBool,
    /// False while the page is access-protected on this node (`java_pf`
    /// only: an access while protected takes a simulated page fault).
    unprotected: AtomicBool,
    /// Lazily allocated backing store.
    data: OnceLock<PageData>,
    /// Dirty bitmap, allocated by the first write that records a slot.
    /// Cached frame: one bit per slot modified since the last flush.  Home
    /// frame with a history: one bit per slot the home itself wrote since
    /// the last step of the stamp.
    dirty: OnceLock<Box<[AtomicU64; DIRTY_WORDS]>>,
    /// Home frame: the page's change stamp.  Cached frame: the stamp of the
    /// retained copy, 0 = none.  See the module docs ("Page versions").
    version: AtomicU64,
    /// Split-transaction transport: virtual completion time (picoseconds) of
    /// an in-flight fetch whose data is installed but whose latency has not
    /// been charged yet.  Zero means no transaction is in flight.
    inflight_completion_ps: AtomicU64,
    /// Split-transaction transport: virtual issue time of the in-flight
    /// fetch (valid only while `inflight_completion_ps` is non-zero).
    inflight_issue_ps: AtomicU64,
    /// True if the in-flight ticket was issued by the requester's stride
    /// prefetch (valid only while `inflight_completion_ps` is non-zero).  A
    /// stride ticket still pending at invalidation time means the prefetch
    /// was wasted.
    inflight_stride: AtomicBool,
    /// Cached frames: true if the home's last answer for this copy, a
    /// fetch's or a grant's, fitted a grant — so, likely, will the next.
    fits_grant: AtomicBool,
    /// Home frames only: the `HOME_*` bits of the home node's own writes
    /// since `version` was last stamped.  Home writes are the access hit
    /// path, so without a history they only set a bit;
    /// [`PageFrame::stamp`] folds them into `version` where the home serves
    /// a fetch or applies a diff.
    home_wrote: AtomicU8,
    /// Home frames only: the change history (module docs), allocated by the
    /// first handler that stamps the page.  Its lock is the one the stamp
    /// moves under.
    history: OnceLock<Box<Mutex<History>>>,
}

impl PageFrame {
    /// Give a frame that has just materialised on its page's home the home
    /// role: present, unprotected, at the first stamp.
    pub(crate) fn take_home_role(&self) {
        self.home.store(true, Ordering::Release);
        self.version.store(1, Ordering::Release);
        self.reopen();
    }

    /// True if this node is the page's home.
    #[inline]
    pub fn is_home(&self) -> bool {
        self.home.load(Ordering::Acquire)
    }

    /// True if the node holds a valid copy.
    #[inline]
    pub fn is_present(&self) -> bool {
        self.present.load(Ordering::Acquire)
    }

    /// True if the page is access-protected on this node.
    #[inline]
    pub fn is_protected(&self) -> bool {
        !self.unprotected.load(Ordering::Acquire)
    }

    /// Backing store (allocated on first use).
    #[inline]
    pub fn data(&self) -> &PageData {
        self.data.get_or_init(PageData::zeroed)
    }

    /// Install a fresh copy of the page (after a fetch from the home node),
    /// remember the home stamp `version` it was snapshotted under, and mark
    /// it present and unprotected.  True if it was absent.
    pub fn install_copy(&self, bytes: &[u8], version: u64) -> bool {
        self.data().fill_from_bytes(bytes);
        self.version.store(version, Ordering::Release);
        self.reopen()
    }

    /// Bring the retained copy up to the home stamp `version` by storing
    /// the slots that changed since the stamp it was retained under, and
    /// re-open it (true if it was absent).  Every other slot — a locally
    /// modified, unflushed one included — is left alone.
    pub fn apply_patch(&self, entries: &[(u16, u64)], version: u64) -> bool {
        let data = self.data();
        for &(slot, value) in entries {
            data.store(slot as usize, value);
        }
        self.version.store(version, Ordering::Release);
        self.reopen()
    }

    /// Whether the home's last answer for this copy fitted a grant.
    pub fn fits_grant(&self) -> bool {
        self.fits_grant.load(Ordering::Relaxed)
    }

    /// Record whether the home's answer just applied fitted a grant.
    pub fn set_fits_grant(&self, fits: bool) {
        self.fits_grant.store(fits, Ordering::Relaxed);
    }

    /// Re-open the retained copy after the home answered "not modified":
    /// present and unprotected again, bytes and stamp untouched.  True if
    /// it was absent.
    pub fn reopen(&self) -> bool {
        self.unprotected.store(true, Ordering::Release);
        !self.present.swap(true, Ordering::AcqRel)
    }

    /// The frame's version word as last written: the retained copy's stamp
    /// on a cached frame (0 = none), the last folded stamp on a home frame.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Home side: the page's current change stamp, after folding in any
    /// home-local write since the last call.  Callers read the stamp
    /// *before* they read the page (see the module docs).
    pub fn stamp(&self) -> u64 {
        self.fold(&mut lock(self.history()))
    }

    /// Home side: the stamp a notice of the home's own writes names — the
    /// first stamp every copy holding them will carry: the current one, or
    /// the next if a write is pending.  Unlike [`PageFrame::stamp`] it
    /// folds nothing, so as long as nobody fetches the page, releases that
    /// write it again name the same stamp and teach nobody anything new.
    pub fn written_stamp(&self) -> u64 {
        self.version() + u64::from(self.home_wrote.load(Ordering::Relaxed) != 0)
    }

    /// Home side: the current stamp (as [`PageFrame::stamp`]) and, if the
    /// history holds every step from `retained` to it, the slots that
    /// changed in them — what a copy retained at `retained` is missing.
    /// `None` for no copy (`retained == 0`), a copy from before the history
    /// was last broken or older than the ring is deep, and a stamp this
    /// home never handed out.
    pub fn changes_since(&self, retained: u64) -> (u64, Option<SlotSet>) {
        let mut history = lock(self.history());
        let stamp = self.fold(&mut history);
        // Home stamps start at 1, so `whole_from` is above the 0 of no copy.
        let reaches = (history.whole_from..=stamp).contains(&retained)
            && stamp - retained <= HISTORY_DEPTH as u64;
        if !reaches {
            return (stamp, None);
        }
        let mut changed = [0u64; DIRTY_WORDS];
        for v in retained + 1..=stamp {
            let step = history.steps[v as usize % HISTORY_DEPTH];
            for (all, word) in changed.iter_mut().zip(step) {
                *all |= word;
            }
        }
        (stamp, Some(changed))
    }

    /// Home side: apply a *remote* node's diff to this frame — data first,
    /// stamp second — and return the new stamp (what the diff
    /// acknowledgement carries).  Unlike [`PageFrame::store_slot`] this
    /// neither records dirty bits nor flags a home write: they are the
    /// remote writer's stores, merely landing here, and the step names them.
    pub fn apply_diff(&self, entries: &[(u16, u64)]) -> u64 {
        let data = self.data();
        let mut changed = [0u64; DIRTY_WORDS];
        for &(slot, value) in entries {
            data.store(slot as usize, value);
            changed[slot as usize / 64] |= 1u64 << (slot % 64);
        }
        let mut history = lock(self.history());
        self.fold(&mut history);
        self.step(&mut history, Some(changed))
    }

    /// The history, allocated on first use: whole from the current stamp.
    fn history(&self) -> &Mutex<History> {
        self.history.get_or_init(|| {
            Box::new(Mutex::new(History {
                whole_from: self.version(),
                steps: [[0; DIRTY_WORDS]; HISTORY_DEPTH],
            }))
        })
    }

    /// Move the stamp one step under the history's lock: the step goes in
    /// first, so nobody sees the stamp without it.  `None` breaks the
    /// history at the new stamp.
    fn step(&self, history: &mut History, changed: Option<SlotSet>) -> u64 {
        let stamp = self.version.load(Ordering::Acquire) + 1;
        match changed {
            Some(changed) => history.steps[stamp as usize % HISTORY_DEPTH] = changed,
            None => history.whole_from = stamp,
        }
        self.version.store(stamp, Ordering::Release);
        stamp
    }

    /// Fold a pending home write into the stamp: one step whose slots are
    /// the `dirty` bits, or a break if some write did not record its slot.
    fn fold(&self, history: &mut History) -> u64 {
        match self.home_wrote.swap(0, Ordering::Relaxed) {
            0 => self.version(),
            flag => {
                let changed = self.take_dirty_bits();
                self.step(history, (flag == HOME_TRACKED).then_some(changed))
            }
        }
    }

    /// Requester side, write-ack forwarding: this node's diff moved the
    /// home stamp to `post`, and `retained` was this frame's stamp when the
    /// diff's slots were collected.  If `post` is exactly one step past it,
    /// nobody else changed the page in between and the copy — which held
    /// the flushed values all along — is current at `post`.
    pub fn forward_version(&self, retained: u64, post: u64) {
        if retained != 0 && post == retained + 1 {
            self.version.store(post, Ordering::Release);
        }
    }

    /// Drop the cached copy: `invalidateCache` for this frame.  For the
    /// page-fault protocol the frame is also re-protected so the next access
    /// faults.  Home frames are never invalidated.
    pub fn invalidate(&self, reprotect: bool) {
        debug_assert!(!self.is_home(), "home frames are never invalidated");
        self.drop_unclosed();
        // A fetch still in flight for this copy is abandoned with it: the
        // issue costs were already charged, and nobody will use the data.
        self.inflight_completion_ps.store(0, Ordering::Release);
        self.inflight_stride.store(false, Ordering::Relaxed);
        if reprotect {
            self.unprotected.store(false, Ordering::Release);
        }
    }

    /// Drop the cached copy alone, leaving its protection and in-flight
    /// ticket as they are: an open stale copy (`pending.rs`).
    pub(crate) fn drop_unclosed(&self) {
        self.present.store(false, Ordering::Release);
    }

    /// Read a slot of this frame.
    #[inline]
    pub fn load_slot(&self, slot: usize) -> u64 {
        self.data().load(slot)
    }

    /// Write a slot of this frame and remember it in the dirty bitmap: on
    /// non-home frames so `updateMainMemory` can flush it (object-field
    /// granularity, §3.1), on home frames with a history so the next step
    /// of the stamp names it.  True for the first home write since the last
    /// fold of a page with a history: the caller puts the page in its
    /// node's write log (module docs, "Home writes").
    #[inline]
    pub fn store_slot(&self, slot: usize, value: u64) -> bool {
        self.data().store(slot, value);
        let home = self.is_home();
        if home && self.history.get().is_none() {
            // No slot recorded: the fold breaks the history it steps.
            if self.home_wrote.load(Ordering::Relaxed) & HOME_WROTE == 0 {
                self.home_wrote.fetch_or(HOME_WROTE, Ordering::Relaxed);
            }
            return false;
        }
        let dirty = self.dirty.get_or_init(Box::default);
        dirty[slot / 64].fetch_or(1u64 << (slot % 64), Ordering::Relaxed);
        home && self.home_wrote.fetch_or(HOME_TRACKED, Ordering::Relaxed) & HOME_TRACKED == 0
    }

    /// True if any slot has been modified since the last flush.
    pub fn has_dirty_slots(&self) -> bool {
        let dirty = self.dirty.get();
        dirty.is_some_and(|d| d.iter().any(|w| w.load(Ordering::Relaxed) != 0))
    }

    /// True if `slot` has been modified since the last flush (the
    /// revalidation oracle skips such slots: the local value is newer).
    pub fn slot_is_dirty(&self, slot: usize) -> bool {
        let word = (self.dirty.get()).map_or(0, |d| d[slot / 64].load(Ordering::Relaxed));
        word & (1u64 << (slot % 64)) != 0
    }

    // ----- split-transaction transport --------------------------------------

    /// Record an in-flight fetch transaction: the data is installed, the
    /// issue costs are charged, and the round-trip completes (in virtual
    /// time) at `completion_ps`.  The first real use of the page consumes
    /// the ticket via [`PageFrame::take_inflight`].  A ticket the stride
    /// prefetch issued (`stride`) has its completion and waste accounted
    /// separately.
    pub fn begin_inflight(&self, issue_ps: u64, completion_ps: u64, stride: bool) {
        self.inflight_stride.store(stride, Ordering::Relaxed);
        self.inflight_issue_ps.store(issue_ps, Ordering::Relaxed);
        self.inflight_completion_ps
            .store(completion_ps.max(1), Ordering::Release);
    }

    /// Consume the in-flight ticket, if any: returns
    /// `(issue_ps, completion_ps, stride)` exactly once per transaction.
    pub fn take_inflight(&self) -> Option<(u64, u64, bool)> {
        let completion = self.inflight_completion_ps.load(Ordering::Acquire);
        if completion == 0 {
            return None;
        }
        self.inflight_completion_ps.store(0, Ordering::Release);
        Some((
            self.inflight_issue_ps.load(Ordering::Relaxed),
            completion,
            self.inflight_stride.swap(false, Ordering::Relaxed),
        ))
    }

    /// True if a split fetch for this frame has been issued but not yet
    /// completed at a use site.
    pub fn has_inflight(&self) -> bool {
        self.inflight_completion_ps.load(Ordering::Acquire) != 0
    }

    /// True if the pending in-flight ticket (if any) was stride-issued.  Read
    /// at invalidation time, when a still-pending stride ticket means the
    /// prefetch never paid off.
    pub fn inflight_is_stride(&self) -> bool {
        self.has_inflight() && self.inflight_stride.load(Ordering::Relaxed)
    }

    // ----- re-homing (node-failure recovery) ---------------------------------

    /// Promote this frame to be the page's home, merging the previous home's
    /// authoritative snapshot into it.  `version` is the stamp the page
    /// starts its life here with: the caller passes one far above the
    /// previous home's, so no copy fetched before the hand-over can
    /// validate against the new home.
    ///
    /// Slots this node has modified since its last flush (still marked
    /// dirty) keep their local — newer — values; every other slot takes the
    /// snapshot value.  The dirty bitmap is cleared afterwards: a home frame
    /// never flushes, its writes *are* main memory.
    pub fn promote_to_home(&self, snapshot: &[u8], version: u64) {
        let local = self.take_dirty();
        self.data().fill_from_bytes(snapshot);
        for (slot, value) in local {
            self.data().store(slot as usize, value);
        }
        self.home.store(true, Ordering::Release);
        self.version.store(version, Ordering::Release);
        // Copies of the page exist elsewhere, so from here on the new
        // home's own writes are noticed (module docs).
        let _ = self.history();
        self.inflight_completion_ps.store(0, Ordering::Release);
        self.inflight_stride.store(false, Ordering::Relaxed);
        self.unprotected.store(true, Ordering::Release);
        self.present.store(true, Ordering::Release);
    }

    /// Demote this (former home) frame to an ordinary cached copy and return
    /// its last stamp.  The data stays valid — it was main memory an instant
    /// ago — so the node keeps reading it for free until its next cache
    /// invalidation.  Its version word keeps the old stamp, which the new
    /// home starts above.
    pub fn demote_from_home(&self) -> u64 {
        // Fold while still home: from here on a `dirty` bit means "flush
        // this slot", and the home's own pending bits must not become that.
        let stamp = self.stamp();
        self.home.store(false, Ordering::Release);
        self.unprotected.store(true, Ordering::Release);
        self.present.store(true, Ordering::Release);
        stamp
    }

    /// Collect and clear the dirty slots, returning `(slot, value)` pairs.
    pub fn take_dirty(&self) -> Vec<(u16, u64)> {
        self.load_slots(&self.take_dirty_bits())
    }

    fn take_dirty_bits(&self) -> SlotSet {
        let Some(dirty) = self.dirty.get() else {
            return [0; DIRTY_WORDS];
        };
        std::array::from_fn(|w| dirty[w].swap(0, Ordering::Relaxed))
    }

    /// The current values of `slots`, as ascending `(slot, value)` pairs.
    pub fn load_slots(&self, slots: &SlotSet) -> Vec<(u16, u64)> {
        let mut out = Vec::new();
        for (w, &bits) in slots.iter().enumerate() {
            let mut b = bits;
            while b != 0 {
                let slot = w * 64 + b.trailing_zeros() as usize;
                out.push((slot as u16, self.data().load(slot)));
                b &= b - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(home, present, protected)`.
    fn roles(frame: &PageFrame) -> (bool, bool, bool) {
        (frame.is_home(), frame.is_present(), frame.is_protected())
    }

    #[test]
    fn page_data_round_trips_through_bytes() {
        let p = PageData::zeroed();
        p.store(0, 0xDEAD_BEEF);
        p.store(511, u64::MAX);
        p.store(17, 42);
        let bytes = p.snapshot_bytes();
        assert_eq!(bytes.len(), 4096);

        let q = PageData::zeroed();
        q.fill_from_bytes(&bytes);
        let loaded = [q.load(0), q.load(511), q.load(17), q.load(100)];
        assert_eq!(loaded, [0xDEAD_BEEF, u64::MAX, 42, 0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn short_snapshot_is_rejected() {
        PageData::zeroed().fill_from_bytes(&[0u8; 100]);
    }

    #[test]
    fn home_and_remote_frames_start_in_paper_initial_state() {
        let frame = PageFrame::default();
        assert_eq!(roles(&frame), (false, false, true));
        frame.take_home_role();
        assert_eq!(roles(&frame), (true, true, false));
    }

    #[test]
    fn install_copy_makes_frame_accessible() {
        let remote = PageFrame::default();
        let src = PageData::zeroed();
        src.store(3, 77);
        remote.install_copy(&src.snapshot_bytes(), 7);
        assert_eq!(roles(&remote), (false, true, false));
        assert_eq!((remote.load_slot(3), remote.version()), (77, 7));
    }

    #[test]
    fn invalidation_retains_bytes_and_stamp_and_reopen_restores_access() {
        let remote = PageFrame::default();
        assert_eq!(remote.version(), 0, "no copy retained yet");
        let src = PageData::zeroed();
        src.store(9, 1234);
        remote.install_copy(&src.snapshot_bytes(), 5);
        remote.invalidate(true);
        assert!(!remote.is_present());
        assert_eq!(remote.version(), 5);
        remote.reopen();
        assert!(remote.is_present() && !remote.is_protected());
        assert_eq!(remote.load_slot(9), 1234);
    }

    #[test]
    fn home_stamp_folds_home_writes_lazily_and_moves_on_diffs() {
        let home = PageFrame::default();
        home.take_home_role();
        assert_eq!(home.stamp(), 1, "home stamps start above the cached 0");
        // Any number of home writes fold into one step at the next stamp.
        home.store_slot(1, 10);
        home.store_slot(2, 20);
        assert_eq!(home.version(), 1, "the hit path does not touch the stamp");
        assert_eq!(home.stamp(), 2);
        assert_eq!(home.stamp(), 2, "nothing pending");
        // A diff moves it by exactly one; a pending home write adds its own.
        assert_eq!(home.apply_diff(&[(3, 30)]), 3);
        home.store_slot(4, 40);
        assert_eq!(home.apply_diff(&[(5, 50)]), 5);
        assert_eq!((home.load_slot(3), home.load_slot(5)), (30, 50));
    }

    #[test]
    fn the_history_names_the_slots_of_every_step_it_still_holds() {
        let set = |slots: &[usize]| {
            let mut set = [0u64; DIRTY_WORDS];
            slots.iter().for_each(|s| set[s / 64] |= 1 << (s % 64));
            Some(set)
        };
        let home = PageFrame::default();
        home.take_home_role();
        // A write from before the history existed recorded no slot: the
        // step that folds it is a break.
        home.store_slot(1, 10);
        assert_eq!(home.changes_since(1), (2, None));
        // From here on home writes name their slots, one step per fold.
        home.store_slot(3, 30);
        home.store_slot(70, 700);
        assert!(home.has_dirty_slots());
        assert_eq!(home.changes_since(2), (3, set(&[3, 70])));
        assert!(!home.has_dirty_slots(), "folded");
        assert_eq!(home.apply_diff(&[(5, 50), (511, 1)]), 4);
        assert_eq!(home.changes_since(2), (4, set(&[3, 5, 70, 511])));
        assert_eq!(home.changes_since(3), (4, set(&[5, 511])));
        assert_eq!(home.changes_since(4), (4, set(&[])));
        assert_eq!(home.changes_since(1), (4, None), "broken at 2");
        assert_eq!(home.changes_since(0), (4, None), "no copy to patch");
        assert_eq!(home.changes_since(5), (4, None), "never handed out");
        // The ring holds HISTORY_DEPTH steps and not one more.
        for k in 0..HISTORY_DEPTH as u64 {
            home.apply_diff(&[(k as u16, k)]);
        }
        assert!(home.changes_since(4).1.is_some());
        assert_eq!(home.changes_since(3).1, None);

        let copy = PageFrame::default();
        copy.store_slot(9, 99);
        copy.apply_patch(&[(5, 50), (511, 1)], 4);
        assert!(copy.is_present() && copy.slot_is_dirty(9));
        let patched = (copy.version(), copy.load_slot(5), copy.load_slot(9));
        assert_eq!(patched, (4, 50, 99));
    }

    #[test]
    fn write_ack_forwards_the_stamp_only_one_step_past_the_retained_copy() {
        let remote = PageFrame::default();
        remote.install_copy(&PageData::zeroed().snapshot_bytes(), 4);
        remote.forward_version(4, 6); // someone else wrote in between
        assert_eq!(remote.version(), 4);
        remote.forward_version(4, 5); // only this node's diff
        assert_eq!(remote.version(), 5);
        // A frame without a retained copy never acquires a stamp this way.
        let empty = PageFrame::default();
        empty.forward_version(0, 1);
        assert_eq!(empty.version(), 0);
    }

    #[test]
    fn invalidate_with_and_without_reprotection() {
        let remote = PageFrame::default();
        remote.install_copy(&PageData::zeroed().snapshot_bytes(), 1);

        remote.invalidate(false); // java_ic style
        assert_eq!(roles(&remote), (false, false, false));

        remote.install_copy(&PageData::zeroed().snapshot_bytes(), 1);
        remote.invalidate(true); // java_pf style
        assert_eq!(roles(&remote), (false, false, true));
    }

    #[test]
    fn dirty_tracking_only_on_non_home_frames() {
        let home = PageFrame::default();
        home.take_home_role();
        home.store_slot(5, 123);
        assert!(!home.has_dirty_slots());
        assert!(home.take_dirty().is_empty());

        let remote = PageFrame::default();
        remote.store_slot(5, 123);
        remote.store_slot(64, 456);
        remote.store_slot(511, 789);
        assert!(remote.has_dirty_slots());
        let mut dirty = remote.take_dirty();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![(5, 123), (64, 456), (511, 789)]);
        // The bitmap is cleared by take_dirty.
        assert!(!remote.has_dirty_slots());
        assert!(remote.take_dirty().is_empty());
    }

    #[test]
    fn inflight_tickets_distinguish_stride_from_plain() {
        let frame = PageFrame::default();
        assert!(frame.take_inflight().is_none());

        frame.begin_inflight(10, 20, false);
        assert!(frame.has_inflight());
        assert!(!frame.inflight_is_stride());
        assert_eq!(frame.take_inflight(), Some((10, 20, false)));
        assert!(frame.take_inflight().is_none(), "ticket consumed once");

        frame.begin_inflight(30, 40, true);
        assert!(frame.inflight_is_stride());
        assert_eq!(frame.take_inflight(), Some((30, 40, true)));
        assert!(!frame.inflight_is_stride());

        // Invalidation abandons a pending stride ticket entirely.
        frame.begin_inflight(50, 60, true);
        frame.invalidate(false);
        assert!(!frame.has_inflight());
        assert!(!frame.inflight_is_stride());
    }

    #[test]
    fn take_dirty_reports_latest_value_per_slot() {
        let remote = PageFrame::default();
        remote.store_slot(9, 1);
        remote.store_slot(9, 2);
        remote.store_slot(9, 3);
        assert_eq!(remote.take_dirty(), vec![(9, 3)]);
    }
}
